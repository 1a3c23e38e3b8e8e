//! `fleet` target: random fleet specs — per-pool worker counts and
//! autoscaler bounds, queue depths, routing policy, traffic shape,
//! rate, duration, spot-replay sampling — against one calibrated
//! heterogeneous [`Fleet`] (nv_small + nv_full). The standing
//! contracts (pinned for fixed specs by `tests/fleet.rs`): sampled
//! dispatch windows replay on real per-pool SoCs with **zero
//! divergence**, and the balancer's books balance — every offered
//! request resolves exactly once, per pool and in total.
//!
//! A second oracle rides on the same case: **a one-pool fleet is a
//! server**. On the domain both simulators cover — one fixed-size
//! pool of serial workers, single-model traffic, no faults, an SLO
//! high enough that the front door never sheds — [`fleet::simulate`]
//! and [`serve::simulate`] must agree on every request's outcome, on
//! all three latency distributions, on makespan and on total busy
//! cycles. (Multi-model traffic is outside the domain by design: a
//! fleet pool dispatches in arrival order, a server by
//! [`Policy`] over per-model queues.)
//!
//! Pool count, class and residency are fixed at [`Fleet::new`] by
//! contract (`check_spec`); the generator only varies the knobs a
//! built fleet accepts.

use std::sync::OnceLock;

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::CompileOptions;
use rvnv_nn::zoo::Model;
use rvnv_soc::batch::Policy;
use rvnv_soc::fleet::{
    self, Fleet, FleetOutcome, FleetSpec, PoolSpec, RoutePolicy, SocClass, TrafficShape,
};
use rvnv_soc::serve::{self, ArrivalProcess, RequestOutcome, RequestTrace, ServeSpec};
use rvnv_util::SplitMix64;

use crate::{shrink, FuzzTarget};

/// The fixed 2-pool shape every spec must keep (class + residency).
fn base_pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec {
            class: SocClass::NvSmall,
            workers: 2,
            min_workers: 1,
            max_workers: 3,
            queue_depth: 8,
            models: None,
        },
        PoolSpec {
            class: SocClass::NvFull,
            workers: 1,
            min_workers: 1,
            max_workers: 2,
            queue_depth: 8,
            models: None,
        },
    ]
}

/// One calibrated heterogeneous fleet shared by every case (building
/// compiles both models for both classes and calibrates each pool).
fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let nets = [Model::LeNet5.build(1), Model::LeNet5.build(2)];
        let codegen = CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        };
        let spec = FleetSpec {
            pools: base_pools(),
            ..FleetSpec::default()
        };
        Fleet::new(&nets, &opt, codegen, &spec).expect("calibrate fleet")
    })
}

/// A random fleet case: every knob a built fleet accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCase {
    /// `(workers, min, max, queue)` per pool, same order as the base.
    pub pools: Vec<(usize, usize, usize, usize)>,
    /// Routing policy index (weighted / least-loaded / model-affinity).
    pub route: u8,
    /// Traffic shape index (steady / diurnal / bursty / flash-crowd).
    pub shape: u8,
    /// Mean offered rate, requests per modeled second.
    pub rate_rps: u64,
    /// Arrival window, modeled milliseconds.
    pub duration_ms: u64,
    /// Workload seed.
    pub seed: u64,
    /// Spot-replay windows sampled per pool.
    pub spot_windows: usize,
    /// Frames per spot-replay window.
    pub window_frames: usize,
}

fn spec_of(case: &FleetCase) -> FleetSpec {
    let mut pools = base_pools();
    for (p, &(w, lo, hi, q)) in pools.iter_mut().zip(&case.pools) {
        p.workers = w;
        p.min_workers = lo;
        p.max_workers = hi;
        p.queue_depth = q;
    }
    FleetSpec {
        pools,
        route: [
            RoutePolicy::Weighted,
            RoutePolicy::LeastLoaded,
            RoutePolicy::ModelAffinity,
        ][case.route as usize % 3],
        shape: [
            TrafficShape::Steady,
            TrafficShape::Diurnal,
            TrafficShape::Bursty,
            TrafficShape::FlashCrowd,
        ][case.shape as usize % 4],
        rate_rps: case.rate_rps,
        duration_ms: case.duration_ms,
        seed: case.seed,
        slo_us: 20_000,
        spot_windows: case.spot_windows,
        window_frames: case.window_frames,
        ..FleetSpec::default()
    }
}

/// The "one-pool fleet == serve" oracle: the case's first pool (its
/// worker count and queue depth, autoscaler pinned), its rate scaled
/// by the worker count so every pool size sees both sides of the knee,
/// its duration, and its seed (whose low bit picks the arrival
/// process) drive both simulators over one single-model trace.
fn one_pool_fleet_is_a_server(case: &FleetCase) -> Result<(), String> {
    const HZ: u64 = 100_000_000;
    // Far above any reachable wait, so the front door never sheds.
    const SLO_US: u64 = 1 << 40;
    let (workers, _, _, queue_depth) = case.pools[0];
    let process = if case.seed & 1 == 0 {
        ArrivalProcess::Poisson
    } else {
        ArrivalProcess::Fixed
    };
    let rate_rps = case.rate_rps * workers as u64;
    let trace = RequestTrace::generate(
        process,
        rate_rps,
        case.duration_ms * (HZ / 1000),
        1,
        case.seed,
        HZ,
    );
    let profile = fleet().pool_profile(0);
    let names = fleet().names();
    let s = serve::simulate(
        &trace,
        &profile.service,
        &ServeSpec {
            process,
            rate_rps,
            duration_ms: case.duration_ms,
            seed: case.seed,
            workers,
            policy: Policy::RoundRobin,
            pipelined: false,
            queue_depth,
            slo_us: SLO_US,
            timeout_us: 0,
            retries: 0,
            faults: None,
        },
        names,
        HZ,
    );
    let f = fleet::simulate(
        &trace,
        std::slice::from_ref(profile),
        &FleetSpec {
            pools: vec![PoolSpec {
                workers,
                min_workers: workers,
                max_workers: workers,
                queue_depth,
                ..base_pools().swap_remove(0)
            }],
            rate_rps,
            duration_ms: case.duration_ms,
            seed: case.seed,
            slo_us: SLO_US,
            ..FleetSpec::default()
        },
        names,
        HZ,
    );
    for (i, (a, b)) in s.records.iter().zip(&f.records).enumerate() {
        let same = match (a.outcome, b.outcome) {
            (
                RequestOutcome::Served {
                    queue_wait,
                    service,
                    completion,
                    ..
                },
                FleetOutcome::Served {
                    queue_wait: fw,
                    service: fs,
                    completion: fc,
                    ..
                },
            ) => (queue_wait, service, completion) == (fw, fs, fc),
            (RequestOutcome::Dropped, FleetOutcome::Dropped { .. }) => true,
            _ => false,
        };
        if !same {
            return Err(format!(
                "one-pool fleet != serve at request {i}: serve {:?}, fleet {:?}",
                a.outcome, b.outcome
            ));
        }
    }
    let serve_busy: u64 = s.per_worker.iter().map(|w| w.busy_cycles).sum();
    let fleet_busy = f.per_pool[0].busy_cycles;
    if (s.queue_wait, s.service, s.total) != (f.queue_wait, f.service, f.total)
        || s.makespan_cycles != f.makespan_cycles
        || serve_busy != fleet_busy
        || s.records.len() != f.records.len()
    {
        return Err(format!(
            "one-pool fleet != serve in aggregate: makespan {} vs {}, busy {serve_busy} vs \
             {fleet_busy}, total p99 {} vs {}",
            s.makespan_cycles, f.makespan_cycles, s.total.p99, f.total.p99
        ));
    }
    Ok(())
}

/// The simulate-vs-replay fleet target.
pub struct FleetTarget;

impl FuzzTarget for FleetTarget {
    type Input = FleetCase;
    const NAME: &'static str = "fleet";

    fn generate(&self, seed: u64) -> FleetCase {
        let mut rng = SplitMix64::new(seed);
        let pools = (0..2)
            .map(|_| {
                let lo = rng.range(1, 2) as usize;
                let hi = rng.range(lo as u64, 3) as usize;
                let w = rng.range(lo as u64, hi as u64) as usize;
                (w, lo, hi, rng.range(1, 8) as usize)
            })
            .collect();
        FleetCase {
            pools,
            route: rng.below(3) as u8,
            shape: rng.below(4) as u8,
            rate_rps: rng.range(50, 400),
            duration_ms: rng.range(20, 80),
            seed: rng.next_u64(),
            spot_windows: rng.range(1, 2) as usize,
            window_frames: rng.range(2, 8) as usize,
        }
    }

    fn check(&self, case: &FleetCase) -> Result<(), String> {
        one_pool_fleet_is_a_server(case)?;
        let spec = spec_of(case);
        let r = fleet()
            .run(&spec)
            .map_err(|e| format!("fleet run failed: {e}"))?;
        if r.replay_divergence != 0 {
            return Err(format!(
                "replay divergence {} over {} spot-replayed frames",
                r.replay_divergence, r.replayed_frames
            ));
        }
        let routed: u64 = r.per_pool.iter().map(|p| p.routed).sum();
        if r.offered != r.shed + routed {
            return Err(format!(
                "balancer books broke: offered {} != shed {} + routed {routed}",
                r.offered, r.shed
            ));
        }
        for (i, p) in r.per_pool.iter().enumerate() {
            if p.routed != p.served + p.dropped {
                return Err(format!(
                    "pool {i} books broke: routed {} != served {} + dropped {}",
                    p.routed, p.served, p.dropped
                ));
            }
        }
        if r.served + r.dropped + r.shed != r.offered {
            return Err(format!(
                "conservation broke: served {} + dropped {} + shed {} != offered {}",
                r.served, r.dropped, r.shed, r.offered
            ));
        }
        if r.records.len() as u64 != r.offered {
            return Err(format!(
                "{} records for {} offered requests",
                r.records.len(),
                r.offered
            ));
        }
        Ok(())
    }

    fn shrink(&self, input: FleetCase, fails: &dyn Fn(&FleetCase) -> bool) -> FleetCase {
        let mut cur = input;
        let dur = shrink::shrink_scalar(cur.duration_ms, 1, |v| {
            fails(&FleetCase {
                duration_ms: v,
                ..cur.clone()
            })
        });
        cur.duration_ms = dur;
        let rate = shrink::shrink_scalar(cur.rate_rps, 1, |v| {
            fails(&FleetCase {
                rate_rps: v,
                ..cur.clone()
            })
        });
        cur.rate_rps = rate;
        cur
    }

    fn size(input: &FleetCase) -> usize {
        (input.rate_rps * input.duration_ms / 1000).max(1) as usize
    }
}
