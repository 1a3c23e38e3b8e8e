//! Serving-subsystem oracles on an interleaved LeNet-5/ResNet-18 mix:
//!
//! * **Determinism** — with a fixed seed, `Server::serve` produces the
//!   bit-identical report run-to-run, and the plan-only path agrees
//!   with the full replay.
//! * **Replay exactness** — the queueing simulation runs on calibrated
//!   per-model/per-pair cycle counts; replaying the dispatch plan on
//!   real worker SoCs must reproduce every frame's modeled latency
//!   (`replay_divergence == 0`), in both worker modes and under every
//!   policy.
//! * **Queueing behavior** — below saturation p99 total latency is the
//!   service latency (nothing waits); above saturation queue-wait
//!   dominates, p99 grows, achieved throughput plateaus at capacity,
//!   and the bounded admission queue drops the excess; one serial
//!   worker saturates near 230 req/s.
//! * **Graceful degradation** — SLO attainment never rises with the
//!   injected fault rate and holds ≥ 90 % at 20 %.
//! * **Policy tails** — under the pipelined worker mode, rr vs sqf vs
//!   eff pair different frames behind different preloads and order the
//!   backlog differently, so their p99 tails genuinely differ.

use std::sync::{Arc, OnceLock};

use rv_nvdla::prelude::*;
use rvnv_soc::batch;
use rvnv_soc::serve::{ArrivalProcess, RequestOutcome};

/// One calibrated server shared by every test (calibration compiles
/// both models and runs N + N² real frames — do it once).
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let nets = [Model::LeNet5.build(1), Model::ResNet18.build(1)];
        let cache = ArtifactCache::new();
        let artifacts: Vec<Arc<Artifacts>> =
            batch::layout_models(&cache, &nets, &opt).expect("layout");
        let codegen = CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        };
        Server::new(SocConfig::zcu102_timing_only(), artifacts, codegen).expect("calibrate")
    })
}

fn base_spec() -> ServeSpec {
    ServeSpec {
        process: ArrivalProcess::Poisson,
        rate_rps: 150,
        duration_ms: 150,
        seed: 42,
        workers: 1,
        policy: Policy::RoundRobin,
        pipelined: false,
        queue_depth: 8,
        slo_us: 20_000,
        timeout_us: 0,
        retries: 0,
        faults: None,
    }
}

#[test]
fn serve_is_deterministic_and_replays_the_plan_exactly() {
    let server = server();
    let spec = base_spec();
    let mut a = server.serve(&spec).expect("first run");
    let mut b = server.serve(&spec).expect("second run");
    assert!(a.offered > 0 && a.served > 0);
    assert_eq!(a.replay_divergence, 0, "real SoCs must match the plan");
    // Bit-identical run-to-run (host wall-clock aside).
    a.host_seconds = 0.0;
    b.host_seconds = 0.0;
    assert_eq!(a, b, "fixed seed must reproduce the full report");
    // The plan-only path models the same system.
    let mut p = server.plan(&spec).expect("plan");
    p.host_seconds = 0.0;
    assert_eq!(a, p, "plan and replayed serve must agree");
}

#[test]
fn pipelined_replay_is_exact_for_every_policy() {
    let server = server();
    for policy in [
        Policy::RoundRobin,
        Policy::ShortestQueueFirst,
        Policy::EarliestFinish,
    ] {
        let spec = ServeSpec {
            pipelined: true,
            policy,
            rate_rps: 300,
            duration_ms: 100,
            workers: 2,
            ..base_spec()
        };
        let r = server.serve(&spec).expect("serve");
        assert!(r.served > 0);
        assert_eq!(
            r.replay_divergence,
            0,
            "{}: pipelined replay must be cycle-exact",
            policy.name()
        );
        assert!(
            r.per_worker.iter().all(|w| w.frames > 0),
            "both workers serve"
        );
    }
}

#[test]
fn below_saturation_p99_is_the_service_latency() {
    let server = server();
    // 60 req/s evenly spaced against ~230 req/s capacity: every
    // request meets an idle worker.
    let spec = ServeSpec {
        process: ArrivalProcess::Fixed,
        rate_rps: 60,
        duration_ms: 200,
        ..base_spec()
    };
    let r = server.serve(&spec).expect("serve");
    assert_eq!(r.dropped, 0);
    assert_eq!(r.replay_divergence, 0);
    assert_eq!(r.queue_wait.max, 0, "idle workers never queue");
    assert_eq!(
        r.total.p99, r.service.p99,
        "below saturation, tail latency IS service latency"
    );
    assert_eq!(r.slo_attainment(), 1.0, "20 ms SLO holds at 60 req/s");
}

#[test]
fn above_saturation_queueing_dominates_and_throughput_plateaus() {
    let server = server();
    let at = |rate: u64| {
        let spec = ServeSpec {
            rate_rps: rate,
            duration_ms: 300,
            ..base_spec()
        };
        server.plan(&spec).expect("plan")
    };
    let below = at(100);
    let above = at(400);
    let far_above = at(600);

    // Below: waits are burst noise, the SLO holds.
    assert_eq!(below.dropped, 0);
    assert!(below.queue_wait.p50 < below.service.p50);

    // Above: the queue is the story — waits dominate service, the tail
    // stretches far past the below-saturation tail, and the bounded
    // queue drops the excess.
    assert!(above.dropped > 0, "overload must drop");
    assert!(
        above.queue_wait.p50 > above.service.p99,
        "median wait {} must exceed even the service tail {}",
        above.queue_wait.p50,
        above.service.p99
    );
    assert!(above.total.p99 > 2 * below.total.p99, "the hockey stick");

    // Offered keeps climbing, achieved pins at capacity. The whole
    // pipeline is seeded (seed 42), so the plateau is not a tolerance
    // band but an exact count: both overloaded plans serve precisely
    // the 78 requests one worker can clear inside the window.
    assert!(above.offered_rate() > 1.5 * above.achieved_rate());
    assert_eq!(
        above.served, 78,
        "seed-42 single-worker capacity over 300 ms"
    );
    assert_eq!(
        far_above.served, above.served,
        "pushing offered 400 -> 600 req/s must not move the served count"
    );
    assert!(
        far_above.total.p99 >= above.total.p99 / 2,
        "tail stays saturated"
    );
    assert!(
        above.slo_attainment() < below.slo_attainment(),
        "SLO attainment collapses past saturation"
    );
}

/// docs/SERVING.md's knee: one serial worker on the LeNet-5 + ResNet-18
/// mix saturates near 230 req/s. Offered 600 req/s for a second, it
/// achieves 231.4.
#[test]
fn one_serial_worker_saturates_near_230_req_per_s() {
    let spec = ServeSpec {
        rate_rps: 600,
        duration_ms: 1_000,
        ..base_spec()
    };
    let r = server().plan(&spec).expect("plan");
    let achieved = r.achieved_rate();
    assert!(
        (230.0 * 0.95..=230.0 * 1.05).contains(&achieved),
        "knee at {achieved:.1} req/s, documented near 230"
    );
}

/// docs/RESILIENCE.md's degradation curve: on a fixed fault mix from
/// quiet to a 20 % composite rate, two workers with retries lose SLO
/// attainment gracefully — it never rises with the fault rate, and it
/// holds ≥ 90 % at 20 % (today 100 % falling to 96.5 %).
#[test]
fn slo_attainment_degrades_gracefully_with_fault_rate() {
    let at = |per_million: u32| {
        let spec = ServeSpec {
            rate_rps: 120,
            duration_ms: 1_000,
            workers: 2,
            timeout_us: 10_000,
            retries: 2,
            faults: Some(FaultSpec {
                seed: 0xC0FFEE,
                flip_per_million: per_million / 5,
                error_per_million: 2 * per_million / 5,
                spike_per_million: per_million / 5,
                spike_us: 2_000,
                hang_per_million: per_million / 10,
                crash_per_million: per_million / 10,
            }),
            ..base_spec()
        };
        server().plan(&spec).expect("plan").slo_attainment()
    };
    let curve: Vec<f64> = [0, 10_000, 25_000, 50_000, 75_000, 100_000, 150_000, 200_000]
        .into_iter()
        .map(at)
        .collect();
    assert!(
        curve.windows(2).all(|w| w[1] <= w[0]),
        "SLO attainment rose with the fault rate: {curve:?}"
    );
    assert!(curve[7] >= 0.9, "a cliff by 20 % faults: {curve:?}");
}

#[test]
fn pipelined_policies_produce_different_tails() {
    let server = server();
    // Sustained overload on one pipelined worker: the backlog is deep
    // enough that what rr/sqf/eff pair behind what — and whom they
    // starve — shows up in the tail.
    let tail = |policy: Policy| {
        let spec = ServeSpec {
            pipelined: true,
            policy,
            rate_rps: 400,
            duration_ms: 200,
            ..base_spec()
        };
        let r = server.serve(&spec).expect("serve");
        assert_eq!(r.replay_divergence, 0, "{}", policy.name());
        r.total.p99
    };
    let rr = tail(Policy::RoundRobin);
    let sqf = tail(Policy::ShortestQueueFirst);
    let eff = tail(Policy::EarliestFinish);
    assert!(
        rr != sqf && rr != eff && sqf != eff,
        "pipelined policies must have distinct p99 tails: rr {rr} sqf {sqf} eff {eff}"
    );
}

#[test]
fn adding_workers_raises_the_saturation_knee() {
    let server = server();
    let at = |workers: usize| {
        let spec = ServeSpec {
            rate_rps: 400,
            duration_ms: 200,
            workers,
            ..base_spec()
        };
        server.plan(&spec).expect("plan")
    };
    let one = at(1);
    let two = at(2);
    assert!(two.served >= one.served);
    assert!(two.achieved_rate() > 1.5 * one.achieved_rate());
    assert!(two.total.p99 < one.total.p99);
}

#[test]
fn trace_is_seeded_and_offered_bounds_achieved() {
    let server = server();
    let spec = base_spec();
    let t1 = server.trace(&spec);
    let t2 = server.trace(&spec);
    assert_eq!(t1, t2, "same seed, same trace");
    let other = server.trace(&ServeSpec { seed: 43, ..spec });
    assert_ne!(t1, other, "a different seed moves the arrivals");
    let r = server.plan(&spec).expect("plan");
    assert!(r.achieved_rate() <= r.offered_rate() + 1e-9);
    assert_eq!(r.served + r.dropped, r.offered);
}

#[test]
fn traced_pipelined_serve_reconciles_with_the_report() {
    let mut server = server().clone();
    let spec = ServeSpec {
        pipelined: true,
        rate_rps: 300,
        duration_ms: 100,
        workers: 2,
        ..base_spec()
    };
    let mut plain = server.serve(&spec).expect("plain serve");
    let tracer = Tracer::armed();
    server.set_tracer(tracer.clone());
    let mut traced = server.serve(&spec).expect("traced serve");
    traced.host_seconds = 0.0;
    plain.host_seconds = 0.0;
    assert_eq!(traced, plain, "arming the tracer must not move the report");
    let trace = tracer.snapshot();
    trace.validate().expect("emitted spans are well-formed");
    // Span accounting reconciles with the report: every worker's
    // top-level span cycles are exactly its busy time...
    for (w, stats) in traced.per_worker.iter().enumerate() {
        let track = trace
            .track_named(&format!("worker {w}"))
            .expect("one track per worker");
        assert_eq!(
            trace.sum_cycles(track),
            stats.busy_cycles,
            "worker {w} span cycles must sum to its busy time"
        );
    }
    // ...and queue-wait spans sum to the served requests' waits.
    let waits: u64 = traced
        .records
        .iter()
        .filter_map(|r| match r.outcome {
            RequestOutcome::Served { queue_wait, .. } => Some(queue_wait),
            RequestOutcome::Dropped => None,
        })
        .sum();
    assert_eq!(
        trace.sum_kind(SpanKind::QueueWait),
        waits,
        "queue-wait spans must sum to the report's waits"
    );
    // The pipelined story is visible: one compute span per served frame,
    // with ps_burst fills overlapped behind them.
    assert_eq!(trace.count_kind(SpanKind::Compute) as u64, traced.served);
    assert!(
        trace.count_kind(SpanKind::PsBurst) > 0,
        "pipelined fills must show up as ps_burst spans"
    );
}

#[test]
fn fault_stats_since_isolates_one_runs_share() {
    use rvnv_bus::fault::{FaultPlan, FaultStats};
    // A worker SoC under a sustained (non-aborting) fault storm:
    // `FaultStats::since` — the repo-wide snapshot-delta convention —
    // isolates one frame's injector activity from the cumulative
    // counters.
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let net = Model::LeNet5.build(1);
    let artifacts = compile(&net, &opt).expect("compile");
    let input = Tensor::random(net.input_shape(), 7);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    soc.arm_faults(FaultPlan {
        seed: 9,
        flip_per_million: 5_000,
        spike_per_million: 5_000,
        ..FaultPlan::default()
    });
    let _ = soc.run_inference(&artifacts, &input);
    let baseline = soc.fault_stats();
    assert!(baseline.accesses > 0, "the armed plan must observe traffic");
    let _ = soc.run_inference(&artifacts, &input);
    let cumulative = soc.fault_stats();
    let delta = cumulative.since(&baseline);
    assert!(
        delta.accesses > 0,
        "the second frame saw traffic of its own"
    );
    assert_eq!(delta.accesses, cumulative.accesses - baseline.accesses);
    assert_eq!(delta.total(), cumulative.total() - baseline.total());
    // A self-delta is zero — the convention's fixed point.
    assert_eq!(cumulative.since(&cumulative), FaultStats::default());
}

#[test]
fn chaos_serve_keeps_replay_divergence_at_zero_and_books_balanced() {
    let server = server();
    let spec = ServeSpec {
        duration_ms: 100,
        workers: 2,
        timeout_us: 10_000,
        retries: 2,
        faults: Some(FaultSpec {
            seed: 0xFA1175,
            flip_per_million: 30_000,
            error_per_million: 60_000,
            spike_per_million: 30_000,
            spike_us: 2_000,
            hang_per_million: 15_000,
            crash_per_million: 15_000,
        }),
        ..base_spec()
    };
    let r = server.serve(&spec).expect("chaos serve");
    // The seeded storm actually fired...
    assert!(r.faults.injected() > 0, "no faults at a 15% composite rate");
    // ...every fault is accounted for: offered splits into served +
    // dropped, and every failed attempt resolved exactly once.
    assert_eq!(r.served + r.dropped, r.offered);
    let f = r.faults;
    assert_eq!(
        f.timeouts + f.bus_errors + f.corruptions_detected + f.crashes,
        f.retries + f.failovers + f.sheds + f.exhausted,
        "fault ledger must reconcile: {f:?}"
    );
    assert!(f.hangs <= f.timeouts, "hangs are detected as timeouts");
    // The served frames replay cycle-exact on the real worker SoCs even
    // with the chaos machinery armed: fault burns exist in modeled time
    // only, so the dispatch plan stays honest.
    assert_eq!(r.replay_divergence, 0, "chaos must not move the replay");
    // And the whole faulted run is bit-identical from the same seeds
    // (host wall-clock aside).
    let mut again = server.serve(&spec).expect("chaos serve again");
    again.host_seconds = r.host_seconds;
    assert_eq!(r, again, "seeded chaos must replay bit-identically");
}
