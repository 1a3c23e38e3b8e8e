//! `serve` target: random serve specs — rate, duration, workers,
//! policy, worker mode, queue depth, arrival process, optionally a
//! fault storm — against one calibrated [`Server`]. The standing
//! contracts (pinned for fixed specs by `tests/serve.rs`): the queueing
//! plan replays on real SoCs with **zero divergence**, every offered
//! request resolves exactly once, and under faults the failure ledger
//! balances the recovery ledger.
//!
//! Before the replay, the plan itself is checked on the calibrated
//! profile alone ([`Server::plan`], [`Server::trace`],
//! [`Server::service_model`]; no SoC runs): plans and traces replay
//! bit-identically, the trace stays sorted inside its window and model
//! set, the report is well shaped (achieved ≤ offered, ordered
//! percentiles, per-model and per-worker books summing to `served`,
//! completions inside the makespan, hangs among the timeouts), a quiet
//! fault spec is invisible, and the traced simulation equals the plan
//! with spans that validate and reconcile with its busy cycles and
//! queue waits.
//!
//! Shrinking halves the duration and then the rate toward 1, so a
//! failing spec reduces to the smallest workload that still diverges.

use std::sync::{Arc, OnceLock};

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_obs::{SpanKind, Tracer};
use rvnv_soc::batch::{self, Policy};
use rvnv_soc::serve::{
    simulate_traced, ArrivalProcess, FaultSpec, LatencyStats, RequestOutcome, ServeReport,
    ServeSpec, Server,
};
use rvnv_soc::soc::SocConfig;
use rvnv_util::SplitMix64;

use crate::{shrink, FuzzTarget};

/// One calibrated server shared by every case (calibration compiles
/// both models and runs N + N² real frames — do it once).
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let nets = [Model::LeNet5.build(1), Model::LeNet5.build(2)];
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

/// The simulate-vs-replay serving target.
pub struct ServeTarget;

fn spec_of(case: &ServeCase) -> ServeSpec {
    ServeSpec {
        process: if case.poisson {
            ArrivalProcess::Poisson
        } else {
            ArrivalProcess::Fixed
        },
        rate_rps: case.rate_rps,
        duration_ms: case.duration_ms,
        seed: case.seed,
        workers: case.workers,
        policy: [
            Policy::RoundRobin,
            Policy::ShortestQueueFirst,
            Policy::EarliestFinish,
        ][case.policy as usize % 3],
        pipelined: case.pipelined,
        queue_depth: case.queue_depth,
        slo_us: 20_000,
        timeout_us: case.timeout_us,
        retries: case.retries,
        faults: case.faults,
    }
}

/// `server`'s plan for `spec`, host time zeroed so plans compare.
fn plan(server: &Server, spec: &ServeSpec) -> Result<ServeReport, String> {
    let r = server.plan(spec).map_err(|e| format!("plan failed: {e}"))?;
    Ok(ServeReport {
        host_seconds: 0.0,
        ..r
    })
}

/// The plan-level contracts of the module docs, for one spec.
fn check_plan(server: &Server, spec: &ServeSpec) -> Result<(), String> {
    let r = plan(server, spec)?;
    if plan(server, spec)? != r {
        return Err("the same spec planned twice gave two reports".into());
    }
    let trace = server.trace(spec);
    if server.trace(spec) != trace {
        return Err("the same seed generated two traces".into());
    }
    let (window, models) = (r.duration_cycles, server.service_model().models());
    if !trace
        .requests
        .windows(2)
        .all(|w| w[0].arrival <= w[1].arrival)
    {
        return Err("trace arrivals are out of order".into());
    }
    if let Some(q) = (trace.requests.iter()).find(|q| q.arrival >= window || q.model >= models) {
        return Err(format!(
            "request {q:?} outside the {window}-cycle window or the {models} models"
        ));
    }
    if r.achieved_rate() > r.offered_rate() + 1e-9 {
        return Err(format!(
            "achieved {} req/s exceeds offered {}",
            r.achieved_rate(),
            r.offered_rate()
        ));
    }
    let ordered = |s: &LatencyStats| s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max;
    let mut stats = vec![("queue wait", &r.queue_wait), ("service", &r.service)];
    stats.push(("total", &r.total));
    for m in &r.per_model {
        stats.extend([("model service", &m.service), ("model total", &m.total)]);
    }
    if let Some((name, s)) = stats
        .into_iter()
        .find(|(_, s)| !ordered(s) || s.mean > s.max)
    {
        return Err(format!("{name} statistics out of order: {s:?}"));
    }
    if r.queue_wait.p99 > r.total.p99 || r.service.p99 > r.total.p99 {
        return Err("a part's p99 exceeds the total's".into());
    }
    let per_model: u64 = r.per_model.iter().map(|m| m.served).sum();
    let per_worker: u64 = r.per_worker.iter().map(|w| w.frames).sum();
    if (per_model, per_worker) != (r.served, r.served) {
        return Err(format!(
            "per-model served {per_model}, per-worker frames {per_worker}, served {}",
            r.served
        ));
    }
    if r.makespan_cycles < r.total.max {
        return Err(format!(
            "makespan {} ends before the slowest request's {}",
            r.makespan_cycles, r.total.max
        ));
    }
    if r.faults.hangs > r.faults.timeouts {
        return Err(format!("{:?}: a hang is detected as a timeout", r.faults));
    }
    // Pipelined workers take no fault spec, not even a quiet one.
    if spec.faults.is_none() && !spec.pipelined {
        let quiet = ServeSpec {
            faults: Some(FaultSpec {
                seed: spec.seed,
                ..FaultSpec::default()
            }),
            ..*spec
        };
        if plan(server, &quiet)? != r {
            return Err("a quiet fault spec changed the plan".into());
        }
    }
    let tracer = Tracer::armed();
    let names: Vec<String> = r.per_model.iter().map(|m| m.name.clone()).collect();
    let traced = simulate_traced(
        &trace,
        server.service_model(),
        spec,
        &names,
        server.config().soc_hz,
        &tracer,
    );
    if traced != r {
        return Err("the traced simulation differs from the plan".into());
    }
    let spans = tracer.snapshot();
    spans
        .validate()
        .map_err(|e| format!("malformed trace: {e:?}"))?;
    for (w, stats) in r.per_worker.iter().enumerate() {
        let track = (spans.track_named(&format!("worker {w}")))
            .ok_or_else(|| format!("no track for worker {w}"))?;
        if spans.sum_cycles(track) != stats.busy_cycles {
            return Err(format!(
                "worker {w}'s spans sum to {} cycles, busy {}",
                spans.sum_cycles(track),
                stats.busy_cycles
            ));
        }
    }
    let waits: u64 = (r.records.iter())
        .filter_map(|q| match q.outcome {
            RequestOutcome::Served { queue_wait, .. } => Some(queue_wait),
            RequestOutcome::Dropped => None,
        })
        .sum();
    if spans.sum_kind(SpanKind::QueueWait) != waits {
        return Err(format!(
            "queue-wait spans sum to {}, the waits to {waits}",
            spans.sum_kind(SpanKind::QueueWait)
        ));
    }
    Ok(())
}

/// A random serve case, scalar knobs kept shrinkable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeCase {
    /// Mean offered rate, requests per modeled second.
    pub rate_rps: u64,
    /// Arrival window, modeled milliseconds.
    pub duration_ms: u64,
    /// Workload seed.
    pub seed: u64,
    /// Replay worker count.
    pub workers: usize,
    /// Policy index (rr / sqf / eff).
    pub policy: u8,
    /// Pipelined worker mode (forced off when faults are armed).
    pub pipelined: bool,
    /// Admission-queue bound.
    pub queue_depth: usize,
    /// Poisson (true) or fixed arrivals.
    pub poisson: bool,
    /// Watchdog deadline, modeled µs (0 = disabled).
    pub timeout_us: u64,
    /// Per-request retry budget.
    pub retries: u32,
    /// Optional seeded fault storm.
    pub faults: Option<FaultSpec>,
}

impl FuzzTarget for ServeTarget {
    type Input = ServeCase;
    const NAME: &'static str = "serve";

    fn generate(&self, seed: u64) -> ServeCase {
        let mut rng = SplitMix64::new(seed);
        let chaos = rng.chance(1, 4);
        let faults = chaos.then(|| FaultSpec {
            seed: rng.next_u64(),
            flip_per_million: rng.below(60_000) as u32,
            error_per_million: rng.below(60_000) as u32,
            spike_per_million: rng.below(60_000) as u32,
            spike_us: rng.range(100, 3_000),
            hang_per_million: rng.below(30_000) as u32,
            crash_per_million: rng.below(30_000) as u32,
        });
        ServeCase {
            rate_rps: rng.range(50, 400),
            duration_ms: rng.range(10, 60),
            seed: rng.next_u64(),
            workers: rng.range(1, 2) as usize,
            policy: rng.below(3) as u8,
            // Faults require serial workers (spec validation).
            pipelined: !chaos && rng.chance(1, 2),
            queue_depth: rng.range(1, 10) as usize,
            poisson: rng.chance(1, 2),
            timeout_us: if chaos { rng.range(2_000, 20_000) } else { 0 },
            retries: if chaos { rng.below(3) as u32 } else { 0 },
            faults,
        }
    }

    fn check(&self, case: &ServeCase) -> Result<(), String> {
        let spec = spec_of(case);
        spec.validate()
            .map_err(|e| format!("generated spec invalid: {e}"))?;
        check_plan(server(), &spec)?;
        let r = server()
            .serve(&spec)
            .map_err(|e| format!("serve failed: {e}"))?;
        if r.replay_divergence != 0 {
            return Err(format!(
                "replay divergence {} (plan must replay cycle-exactly on real SoCs)",
                r.replay_divergence
            ));
        }
        if r.served + r.dropped != r.offered {
            return Err(format!(
                "conservation broke: served {} + dropped {} != offered {}",
                r.served, r.dropped, r.offered
            ));
        }
        if r.records.len() as u64 != r.offered {
            return Err(format!(
                "{} records for {} offered requests",
                r.records.len(),
                r.offered
            ));
        }
        if r.slo_attained > r.served {
            return Err(format!(
                "slo_attained {} > served {}",
                r.slo_attained, r.served
            ));
        }
        let f = &r.faults;
        let failures = f.timeouts + f.bus_errors + f.corruptions_detected + f.crashes;
        let resolutions = f.retries + f.failovers + f.sheds + f.exhausted;
        if failures != resolutions {
            return Err(format!(
                "chaos ledger broke: {failures} failures vs {resolutions} resolutions \
                 ({f:?})"
            ));
        }
        Ok(())
    }

    fn shrink(&self, input: ServeCase, fails: &dyn Fn(&ServeCase) -> bool) -> ServeCase {
        let mut cur = input;
        let dur = shrink::shrink_scalar(cur.duration_ms, 1, |v| {
            fails(&ServeCase {
                duration_ms: v,
                ..cur.clone()
            })
        });
        cur.duration_ms = dur;
        let rate = shrink::shrink_scalar(cur.rate_rps, 1, |v| {
            fails(&ServeCase {
                rate_rps: v,
                ..cur.clone()
            })
        });
        cur.rate_rps = rate;
        cur
    }

    fn size(input: &ServeCase) -> usize {
        // "Size" for a spec is its workload volume in expected requests.
        (input.rate_rps * input.duration_ms / 1000).max(1) as usize
    }
}
