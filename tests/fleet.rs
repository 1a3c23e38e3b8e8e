//! Fleet-subsystem oracles: the balancer/autoscaler simulation obeys
//! its invariants on arbitrary synthetic fleets, and a real 2-pool
//! heterogeneous fleet (nv_small + nv_full) replays its plan on real
//! SoCs with divergence 0 under every routing policy.
//!
//! * **Conservation** — every offered request resolves exactly once:
//!   `offered == shed + Σ_pool (served + dropped)`, and per pool
//!   `routed == served + dropped`.
//! * **Residency** — `model-affinity` (and every other policy) only
//!   ever routes a request to a pool where its model is resident.
//! * **Autoscaler bounds** — observed worker counts stay within
//!   `[min_workers, max_workers]` and seeded reruns are bit-identical.
//! * **Replay exactness** — `Fleet::run` spot-replays sampled windows
//!   of the dispatch plan on real per-pool SoCs; divergence must be 0
//!   across policies × heterogeneous pools.
//! * **Capacity** — the minimal worker counts docs/FLEET.md quotes.

use std::sync::OnceLock;

use rv_nvdla::prelude::*;
use rvnv_soc::fleet::{self, FleetOutcome, PoolProfile, SocClass};
use rvnv_soc::serve::ServiceModel;
use rvnv_util::SplitMix64;

const HZ: u64 = 100_000_000;

/// A synthetic pool profile with uniform service cost (zero preload,
/// `svc` compute) over the given global model residency.
fn flat_profile(svc: u64, models: Vec<usize>) -> PoolProfile {
    let n = models.len();
    PoolProfile {
        service: ServiceModel {
            preload: vec![0; n],
            fill: vec![0; n],
            compute: vec![svc; n],
            compute_with: vec![vec![svc; n]; n],
            preload_done: vec![vec![0; n]; n],
            rewarm: 10 * svc,
        },
        models,
    }
}

fn model_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("m{i}")).collect()
}

fn shape_of(ix: usize) -> TrafficShape {
    [
        TrafficShape::Steady,
        TrafficShape::Diurnal,
        TrafficShape::Bursty,
        TrafficShape::FlashCrowd,
    ][ix % 4]
}

fn route_of(ix: usize) -> RoutePolicy {
    [
        RoutePolicy::Weighted,
        RoutePolicy::LeastLoaded,
        RoutePolicy::ModelAffinity,
    ][ix % 3]
}

/// Every offered request resolves exactly once, whatever the pool
/// shapes, service costs, routing policy, traffic shape or load.
#[test]
fn conservation_offered_splits_into_served_dropped_shed() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let pool_params: Vec<(usize, usize, u64)> = (0..rng.range(1, 3))
            .map(|_| {
                let workers = rng.range(1, 3) as usize;
                let queue = rng.range(1, 5) as usize;
                (workers, queue, rng.range(100_000, 1_999_999))
            })
            .collect();
        let (route_ix, shape_ix) = (rng.below(3) as usize, rng.below(4) as usize);
        let rate = rng.range(50, 799);
        let models = 2;
        let pools: Vec<PoolSpec> = pool_params
            .iter()
            .map(|&(w, q, _)| PoolSpec {
                workers: w,
                min_workers: w,
                max_workers: w,
                queue_depth: q,
                ..PoolSpec::default()
            })
            .collect();
        let profiles: Vec<PoolProfile> = pool_params
            .iter()
            .map(|&(_, _, svc)| flat_profile(svc, (0..models).collect()))
            .collect();
        let spec = FleetSpec {
            pools,
            route: route_of(route_ix),
            shape: shape_of(shape_ix),
            rate_rps: rate,
            duration_ms: 100,
            seed: rng.below(1000),
            slo_us: 1_000,
            ..FleetSpec::default()
        };
        let tag = format!("seed {seed}: service {pool_params:?}, {spec:?}");
        let names = model_names(models);
        let trace = fleet::shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(HZ),
            models,
            spec.seed,
            HZ,
        );
        let offered = trace.requests.len() as u64;
        let r = fleet::simulate(&trace, &profiles, &spec, &names, HZ);
        assert_eq!(r.offered, offered, "{tag}");
        let routed: u64 = r.per_pool.iter().map(|p| p.routed).sum();
        assert_eq!(
            r.offered,
            r.shed + routed,
            "balancer books must balance, {tag}"
        );
        for p in &r.per_pool {
            assert_eq!(
                p.routed,
                p.served + p.dropped,
                "pool books must balance, {tag}"
            );
        }
        assert_eq!(r.served + r.dropped + r.shed, r.offered, "{tag}");
        assert_eq!(
            r.records.len() as u64,
            offered,
            "one record per request, {tag}"
        );
    }
}

/// No routing policy ever places a request in a pool that does not
/// host its model — residency is structural, not probabilistic.
#[test]
fn routing_never_leaves_a_models_resident_pools() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let subset_bits: Vec<usize> = (0..rng.range(1, 2))
            .map(|_| rng.range(1, 7) as usize)
            .collect();
        let route_ix = rng.below(3) as usize;
        let rate = rng.range(100, 599);
        let models = 3;
        // Pool 0 hosts everything (every model needs a home); the rest
        // host arbitrary nonempty subsets.
        let mut residency: Vec<Vec<usize>> = vec![(0..models).collect()];
        residency.extend(subset_bits.iter().map(|bits| {
            (0..models)
                .filter(|m| bits & (1 << m) != 0)
                .collect::<Vec<_>>()
        }));
        let pools: Vec<PoolSpec> = residency
            .iter()
            .enumerate()
            .map(|(i, res)| PoolSpec {
                models: if i == 0 { None } else { Some(res.clone()) },
                queue_depth: 4,
                ..PoolSpec::default()
            })
            .collect();
        let profiles: Vec<PoolProfile> = residency
            .iter()
            .map(|res| flat_profile(400_000, res.clone()))
            .collect();
        let spec = FleetSpec {
            pools,
            route: route_of(route_ix),
            rate_rps: rate,
            duration_ms: 100,
            seed: rng.below(1000),
            slo_us: 1_000,
            ..FleetSpec::default()
        };
        let names = model_names(models);
        let trace = fleet::shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(HZ),
            models,
            spec.seed,
            HZ,
        );
        let r = fleet::simulate(&trace, &profiles, &spec, &names, HZ);
        for rec in &r.records {
            let pool = match rec.outcome {
                FleetOutcome::Served { pool, .. } | FleetOutcome::Dropped { pool } => pool,
                FleetOutcome::Shed => continue,
            };
            assert!(
                residency[pool].contains(&rec.model),
                "seed {seed}: request for model {} landed in pool {pool}, {spec:?}",
                rec.model,
            );
        }
    }
}

/// The autoscaler never leaves `[min, max]`, and the whole seeded
/// experiment is bit-identical run-to-run.
#[test]
fn autoscaler_stays_in_bounds_and_reruns_bit_identically() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let (workers, headroom) = (rng.range(1, 2) as usize, rng.below(4) as usize);
        let shape_ix = rng.below(4) as usize;
        let rate = rng.range(200, 1999);
        let pools = vec![PoolSpec {
            workers,
            min_workers: 1,
            max_workers: workers + headroom,
            queue_depth: 8,
            ..PoolSpec::default()
        }];
        let profiles = vec![flat_profile(600_000, vec![0, 1])];
        let spec = FleetSpec {
            pools,
            shape: shape_of(shape_ix),
            rate_rps: rate,
            duration_ms: 150,
            seed: rng.below(1000),
            slo_us: 10_000,
            scale_window_ms: 10,
            ..FleetSpec::default()
        };
        let tag = format!("seed {seed}: {spec:?}");
        let names = model_names(2);
        let trace = fleet::shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(HZ),
            2,
            spec.seed,
            HZ,
        );
        let a = fleet::simulate(&trace, &profiles, &spec, &names, HZ);
        let p = &a.per_pool[0];
        assert!(p.workers_low >= 1, "never scales to zero, {tag}");
        assert!(
            p.workers_high <= workers + headroom,
            "never exceeds max, {tag}"
        );
        assert!(p.workers_low <= p.workers_high, "{tag}");
        assert!(
            p.workers_high >= p.workers_start,
            "the envelope includes the start, {tag}"
        );
        assert!(
            (p.workers_low..=p.workers_high).contains(&p.workers_final),
            "final count within the observed envelope, {tag}"
        );
        let b = fleet::simulate(&trace, &profiles, &spec, &names, HZ);
        assert_eq!(a, b, "seeded fleet sim must be deterministic, {tag}");
    }
}

/// Arming a tracer is byte-invisible to the fleet simulation, the
/// emitted spans are structurally well-formed, and span accounting
/// reconciles per pool: worker-track cycles sum to the pool's busy
/// time, queue-wait spans to its served requests' waits, and the
/// autoscaler track carries one instant per scaling decision.
#[test]
fn traced_fleet_sim_is_invisible_and_reconciles() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let pool_params: Vec<(usize, usize, u64, usize)> = (0..rng.range(1, 2))
            .map(|_| {
                let workers = rng.range(1, 2) as usize;
                let queue = rng.range(1, 5) as usize;
                let svc = rng.range(100_000, 999_999);
                (workers, queue, svc, rng.below(3) as usize)
            })
            .collect();
        let (route_ix, shape_ix) = (rng.below(3) as usize, rng.below(4) as usize);
        let rate = rng.range(100, 1499);
        let models = 2;
        let pools: Vec<PoolSpec> = pool_params
            .iter()
            .map(|&(w, q, _, headroom)| PoolSpec {
                workers: w,
                min_workers: 1,
                max_workers: w + headroom,
                queue_depth: q,
                ..PoolSpec::default()
            })
            .collect();
        let profiles: Vec<PoolProfile> = pool_params
            .iter()
            .map(|&(_, _, svc, _)| flat_profile(svc, (0..models).collect()))
            .collect();
        let spec = FleetSpec {
            pools,
            route: route_of(route_ix),
            shape: shape_of(shape_ix),
            rate_rps: rate,
            duration_ms: 80,
            seed: rng.below(1000),
            slo_us: 5_000,
            scale_window_ms: 10,
            ..FleetSpec::default()
        };
        let tag = format!("seed {seed}: service {pool_params:?}, {spec:?}");
        let names = model_names(models);
        let trace = fleet::shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(HZ),
            models,
            spec.seed,
            HZ,
        );
        let tracer = Tracer::armed();
        let traced = fleet::simulate_traced(&trace, &profiles, &spec, &names, HZ, &tracer);
        let quiet = fleet::simulate(&trace, &profiles, &spec, &names, HZ);
        assert_eq!(
            &traced, &quiet,
            "arming the tracer must be byte-invisible, {tag}"
        );
        let spans = tracer.snapshot();
        let well_formed = spans.validate();
        assert!(
            well_formed.is_ok(),
            "malformed trace: {well_formed:?}, {tag}"
        );
        for (p, pool) in traced.per_pool.iter().enumerate() {
            let worker_prefix = format!("pool{p} {} w", pool.class.name());
            let busy: u64 = spans
                .tracks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.name.starts_with(&worker_prefix))
                .map(|(i, _)| spans.sum_cycles(TrackId(i as u32)))
                .sum();
            assert_eq!(busy, pool.busy_cycles, "pool {p} busy time, {tag}");
            let queue = spans
                .track_named(&format!("pool{p} {} queue", pool.class.name()))
                .expect("one queue track per pool");
            let waits: u64 = traced
                .records
                .iter()
                .filter_map(|r| match r.outcome {
                    FleetOutcome::Served {
                        pool: rp,
                        queue_wait,
                        ..
                    } if rp == p => Some(queue_wait),
                    _ => None,
                })
                .sum();
            assert_eq!(
                spans.sum_cycles(queue),
                waits,
                "pool {p} queue waits, {tag}"
            );
            let auto = spans
                .track_named(&format!("pool{p} {} autoscaler", pool.class.name()))
                .expect("one autoscaler track per pool");
            assert_eq!(
                spans.spans_on(auto).count() as u64,
                pool.scale_ups + pool.scale_downs,
                "pool {p} autoscale instants, {tag}"
            );
        }
    }
}

#[test]
fn traced_fleet_run_reconciles_and_metrics_delta_by_since() {
    let (fleet, spec) = fleet2();
    let mut fleet = fleet.clone();
    let mut plain = fleet.run(&spec).expect("plain run");
    let tracer = Tracer::armed();
    fleet.set_tracer(tracer.clone());
    let mut traced = fleet.run(&spec).expect("traced run");
    traced.host_seconds = 0.0;
    plain.host_seconds = 0.0;
    assert_eq!(traced, plain, "arming the tracer must not move the report");
    let trace = tracer.snapshot();
    trace.validate().expect("emitted spans are well-formed");
    assert_eq!(
        trace.count_kind(SpanKind::Compute) as u64,
        traced.served,
        "one compute span per served request"
    );
    // The registry view mirrors the typed report, and registry
    // snapshots delta by `.since` like every other stats struct.
    let registry = MetricsRegistry::new();
    traced.publish(&registry);
    let one = registry.snapshot();
    assert_eq!(one.counters["fleet.offered"], traced.offered);
    assert_eq!(one.counters["fleet.served"], traced.served);
    assert_eq!(
        one.histograms["fleet.total_cycles"].count, traced.served,
        "one latency observation per served request"
    );
    traced.publish(&registry);
    let two = registry.snapshot();
    assert_eq!(
        two.since(&one),
        one,
        "publishing twice and taking `.since` must recover one publish"
    );
}

/// One compiled + calibrated heterogeneous fleet shared by the replay
/// tests (two classes × two models of real calibration is the
/// expensive part — do it once).
fn fleet2() -> (&'static Fleet, FleetSpec) {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    let spec = FleetSpec {
        pools: vec![
            fixed_pool(SocClass::NvSmall, 2, 8),
            fixed_pool(SocClass::NvFull, 1, 8),
        ],
        rate_rps: 300,
        duration_ms: 150,
        seed: 42,
        slo_us: 20_000,
        spot_windows: 3,
        window_frames: 16,
        ..FleetSpec::default()
    };
    (FLEET.get_or_init(|| calibrate(&spec)), spec)
}

/// A fleet for `spec`'s pool shapes, serving LeNet-5 and ResNet-18 in
/// INT8 with `wfi` firmware.
fn calibrate(spec: &FleetSpec) -> Fleet {
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let nets = [Model::LeNet5.build(1), Model::ResNet18.build(1)];
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    Fleet::new(&nets, &opt, codegen, spec).expect("calibrate fleet")
}

/// A pool of `workers` that never autoscales.
fn fixed_pool(class: SocClass, workers: usize, queue_depth: usize) -> PoolSpec {
    PoolSpec {
        class,
        workers,
        min_workers: workers,
        max_workers: workers,
        queue_depth,
        models: None,
    }
}

/// docs/FLEET.md's capacity question: do fixed pools of these sizes,
/// 16 deep, hold p99 under a 12 ms SLO at 500 req/s of diurnal traffic,
/// shedding nothing?
fn holds_12ms_at_500_rps(fleet: &Fleet, pools: &[(SocClass, usize)]) -> bool {
    let spec = FleetSpec {
        pools: pools.iter().map(|&(c, n)| fixed_pool(c, n, 16)).collect(),
        route: RoutePolicy::ModelAffinity,
        shape: TrafficShape::Diurnal,
        rate_rps: 500,
        duration_ms: 1_000,
        seed: 42,
        slo_us: 12_000,
        ..FleetSpec::default()
    };
    let r = fleet.plan(&spec).expect("plan");
    r.total.p99 < r.slo_cycles && r.shed == 0
}

/// docs/FLEET.md's capacity table: at 500 req/s diurnal and a 12 ms
/// SLO, 5 nv_small workers is the minimum; with one nv_full worker
/// attached, 4.
#[test]
fn minimal_worker_counts_hold_the_capacity_slo() {
    use SocClass::{NvFull, NvSmall};
    let small = calibrate(&FleetSpec {
        pools: vec![fixed_pool(NvSmall, 1, 16)],
        ..FleetSpec::default()
    });
    assert!(!holds_12ms_at_500_rps(&small, &[(NvSmall, 4)]));
    assert!(holds_12ms_at_500_rps(&small, &[(NvSmall, 5)]));
    let (hetero, _) = fleet2();
    assert!(!holds_12ms_at_500_rps(hetero, &[(NvSmall, 3), (NvFull, 1)]));
    assert!(holds_12ms_at_500_rps(hetero, &[(NvSmall, 4), (NvFull, 1)]));
}

#[test]
fn heterogeneous_replay_is_exact_for_every_route_policy() {
    let (fleet, base) = fleet2();
    for route in [
        RoutePolicy::Weighted,
        RoutePolicy::LeastLoaded,
        RoutePolicy::ModelAffinity,
    ] {
        let spec = FleetSpec {
            route,
            ..base.clone()
        };
        let r = fleet.run(&spec).expect("fleet run");
        assert!(r.served > 0, "{}: nothing served", route.name());
        assert!(r.replayed_frames > 0, "{}: nothing replayed", route.name());
        assert_eq!(
            r.replay_divergence,
            0,
            "{}: spot-replay must be cycle-exact on both pool classes",
            route.name()
        );
        assert!(
            r.per_pool.iter().all(|p| p.routed > 0),
            "{}: both pools should see traffic",
            route.name()
        );
    }
}

#[test]
fn fleet_run_is_deterministic_and_agrees_with_the_plan() {
    let (fleet, spec) = fleet2();
    let mut a = fleet.run(&spec).expect("first run");
    let mut b = fleet.run(&spec).expect("second run");
    a.host_seconds = 0.0;
    b.host_seconds = 0.0;
    assert_eq!(a, b, "fixed seed must reproduce the full fleet report");
    // The plan-only path models the same fleet; only the replay
    // bookkeeping differs.
    let mut p = fleet.plan(&spec).expect("plan");
    p.host_seconds = 0.0;
    p.replayed_frames = a.replayed_frames;
    assert_eq!(a, p, "plan and spot-replayed run must agree");
}

#[test]
fn nv_full_pool_is_calibrated_faster_than_nv_small() {
    let (fleet, _) = fleet2();
    let small = fleet.pool_profile(0);
    let full = fleet.pool_profile(1);
    // Same global models resident in both pools, in the same order.
    assert_eq!(small.models, full.models);
    for (lm, (s, f)) in small
        .service
        .compute
        .iter()
        .zip(&full.service.compute)
        .enumerate()
    {
        assert!(
            f < s,
            "model {lm}: nv_full compute {f} should beat nv_small {s}"
        );
    }
}
