//! Fleet-scale serving: heterogeneous pools behind a load balancer.
//!
//! [`serve`](crate::serve) models one homogeneous worker pool; a
//! *fleet* is the next tier up — N pools of different [`SocConfig`]
//! classes (`nv_small` vs `nv_full`, different worker counts and queue
//! depths, possibly different resident model subsets) behind a
//! front-end load balancer. The fleet answers *capacity-planning*
//! questions ("how many `nv_small` workers hold p99 under the SLO at
//! 400 req/s of diurnal traffic?") entirely in modeled time:
//!
//! 1. **Shaped traffic** — [`shaped_trace`] generates seeded arrival
//!    traces with a time-varying rate envelope ([`TrafficShape`]:
//!    steady, diurnal, bursty, flash-crowd) over Poisson gaps, so the
//!    autoscaler has something real to react to.
//! 2. **Routing** — the balancer routes every request to a pool where
//!    its model is *resident* ([`RoutePolicy`]: weighted round-robin,
//!    least-loaded, or model-affinity). Routing never considers a pool
//!    lacking the model — that is structural, not best-effort.
//! 3. **Per-pool bounded admission** — each pool has its own FIFO
//!    admission queue; an arrival routed to a full pool is **dropped**
//!    (charged to that pool). When *every* candidate pool's estimated
//!    wait exceeds 8× the SLO the front door **sheds** the request
//!    instead of burying it in a hopeless queue.
//! 4. **Reactive autoscaling** — per pool, a rolling SLO-attainment
//!    window ([`FleetSpec::scale_window_ms`]) drives add/drain
//!    decisions between `min` and `max` workers. A new worker is not
//!    free capacity: it joins `rewarm` modeled cycles later (the
//!    calibrated cost of streaming every resident weight image back
//!    in, [`ServiceModel::rewarm`]). A drained worker finishes its
//!    in-flight frame and leaves.
//!
//! # Calibrate → simulate → spot-replay
//!
//! Each pool's per-frame costs come from [`ServiceModel::calibrate`]
//! on a real SoC of that pool's class — the `nv_full` pools are
//! genuinely faster because the compiler re-lowers every layer for the
//! wider datapath. The event-driven simulation then costs ~10–25 µs of
//! host time per modeled second, so million-request diurnal traces are
//! cheap. Honesty is kept the same way
//! [`Server::serve`](crate::serve::Server::serve) keeps it:
//! [`Fleet::run`] samples K
//! windows of W consecutively-dispatched frames per pool and replays
//! them **cycle-exactly** on a real SoC of the pool's class
//! ([`BatchScheduler::run_sequence`](crate::batch::BatchScheduler::run_sequence)
//! under the hood); [`FleetReport::replay_divergence`] counts frames
//! where the plan and the machine disagreed, and `tests/fleet.rs` pins
//! it at zero across routing policies × heterogeneous pools. Serial
//! pool workers make this exact: a serial frame's cost
//! (`preload + compute`) is position-independent, so any contiguous
//! dispatch window replays to the cycle regardless of what ran before
//! it.
//!
//! See `docs/FLEET.md` for the flag grammar, the autoscaler control
//! loop and how to read the capacity-planning output.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvnv_compiler::codegen::CodegenOptions;
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::graph::Network;
use rvnv_nvdla::HwConfig;
use rvnv_obs::{Json, MetricsRegistry, SpanKind, Tracer, TrackId, TrackKind};

use crate::batch::{layout_models, Policy};
use crate::queueing::{Chaos, Dispatch, Probe, Station};
use crate::serve::{
    divergence, input_for, replay_sequences, LatencyStats, Request, RequestOutcome, RequestRecord,
    RequestTrace, ServeError, ServiceModel, Tally,
};
use crate::soc::SocConfig;
use crate::sweep::fan_out;

/// Number of equal-length slices the rate envelope is sampled over.
const SHAPE_SLICES: u64 = 64;

/// Shed a request when every candidate pool's estimated wait exceeds
/// this many SLO targets — queueing it would only manufacture a miss.
const SHED_SLOS: u64 = 8;

/// The hardware class of one pool's SoCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocClass {
    /// The paper's FPGA configuration: `nv_small` (8×8 MACs).
    NvSmall,
    /// The full-size NVDLA (64×32 MACs, larger buffers).
    NvFull,
}

impl SocClass {
    /// CLI spelling of the class.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SocClass::NvSmall => "nv_small",
            SocClass::NvFull => "nv_full",
        }
    }

    /// The NVDLA hardware configuration models of this class compile
    /// against.
    #[must_use]
    pub fn hw(self) -> HwConfig {
        match self {
            SocClass::NvSmall => HwConfig::nv_small(),
            SocClass::NvFull => HwConfig::nv_full(),
        }
    }

    /// The timing-only SoC configuration a pool of this class runs
    /// (fleet serving is a timing flow, like `serve`).
    #[must_use]
    pub fn config(self) -> SocConfig {
        match self {
            SocClass::NvSmall => SocConfig::zcu102_timing_only(),
            SocClass::NvFull => SocConfig::zcu102_nv_full_timing_only(),
        }
    }
}

impl FromStr for SocClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "nv_small" => Ok(SocClass::NvSmall),
            "nv_full" => Ok(SocClass::NvFull),
            other => Err(format!(
                "unknown pool class `{other}` (expected nv_small|nv_full)"
            )),
        }
    }
}

/// How the balancer picks among the pools where a request's model is
/// resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Smooth weighted round-robin, weighted by each pool's
    /// *configured* worker count — static capacity shares.
    Weighted,
    /// Send to the candidate pool with the lowest backlog per active
    /// worker (in-flight + queued, scaled by current pool size).
    LeastLoaded,
    /// Prefer the most-specialized candidate pool (fewest resident
    /// models — a pool dedicated to the request's model beats a
    /// generalist), breaking ties least-loaded.
    ModelAffinity,
}

impl RoutePolicy {
    /// CLI spelling of the policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::Weighted => "weighted",
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::ModelAffinity => "model-affinity",
        }
    }
}

impl FromStr for RoutePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "weighted" => Ok(RoutePolicy::Weighted),
            "least-loaded" => Ok(RoutePolicy::LeastLoaded),
            "model-affinity" => Ok(RoutePolicy::ModelAffinity),
            other => Err(format!(
                "unknown route policy `{other}` (expected weighted|least-loaded|model-affinity)"
            )),
        }
    }
}

/// The rate envelope shaping a fleet trace's arrivals over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// A flat envelope: plain Poisson arrivals at the configured rate.
    Steady,
    /// One sinusoidal day compressed into the trace: the rate swings
    /// between 0.25× and 1.75× the mean (peak mid-trace).
    Diurnal,
    /// Seeded on/off bursts: each time slice runs at 2.6× (probability
    /// 0.2) or 0.6× the mean — same average load, spiky arrival.
    Bursty,
    /// A 4× spike over the middle tenth of the trace, 0.7× elsewhere —
    /// the "everyone opens the app at once" case autoscalers dread.
    FlashCrowd,
}

impl TrafficShape {
    /// CLI spelling of the shape.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficShape::Steady => "steady",
            TrafficShape::Diurnal => "diurnal",
            TrafficShape::Bursty => "bursty",
            TrafficShape::FlashCrowd => "flash-crowd",
        }
    }
}

impl FromStr for TrafficShape {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "steady" => Ok(TrafficShape::Steady),
            "diurnal" => Ok(TrafficShape::Diurnal),
            "bursty" => Ok(TrafficShape::Bursty),
            "flash-crowd" => Ok(TrafficShape::FlashCrowd),
            other => Err(format!(
                "unknown traffic shape `{other}` (expected steady|diurnal|bursty|flash-crowd)"
            )),
        }
    }
}

/// Generate a seeded, shape-enveloped request trace: the configured
/// mean `rate_rps` is modulated per time slice by `shape`, arrivals
/// within a slice are Poisson-spaced, and each request is tagged with
/// a model drawn uniformly from `0..models`. Deterministic in its
/// arguments, like [`RequestTrace::generate`].
#[must_use]
pub fn shaped_trace(
    shape: TrafficShape,
    rate_rps: u64,
    duration: u64,
    models: usize,
    seed: u64,
    soc_hz: u64,
) -> RequestTrace {
    let mut requests = Vec::new();
    if rate_rps == 0 || models == 0 || soc_hz == 0 || duration == 0 {
        return RequestTrace { requests, duration };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..SHAPE_SLICES {
        let lo = duration / SHAPE_SLICES * i + duration % SHAPE_SLICES * i / SHAPE_SLICES;
        let hi = if i + 1 == SHAPE_SLICES {
            duration
        } else {
            duration / SHAPE_SLICES * (i + 1) + duration % SHAPE_SLICES * (i + 1) / SHAPE_SLICES
        };
        let mult = match shape {
            TrafficShape::Steady => 1.0,
            TrafficShape::Diurnal => {
                let phase = (i as f64 + 0.5) / SHAPE_SLICES as f64;
                1.0 + 0.75 * (std::f64::consts::TAU * (phase - 0.25)).sin()
            }
            TrafficShape::Bursty => {
                if rng.gen_range(0.0..1.0) < 0.2 {
                    2.6
                } else {
                    0.6
                }
            }
            TrafficShape::FlashCrowd => {
                if (SHAPE_SLICES * 45 / 100..SHAPE_SLICES * 55 / 100).contains(&i) {
                    4.0
                } else {
                    0.7
                }
            }
        };
        let eff = rate_rps as f64 * mult;
        if eff <= f64::EPSILON {
            continue;
        }
        let mean_gap = soc_hz as f64 / eff;
        let mut t = lo as f64;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() * mean_gap;
            if t >= hi as f64 {
                break;
            }
            requests.push(Request {
                arrival: t as u64,
                model: rng.gen_range(0..models),
            });
        }
    }
    RequestTrace { requests, duration }
}

/// One pool of the fleet: class, size, autoscaler bounds, admission
/// bound and (optionally) a resident model subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    /// Hardware class of every SoC in the pool.
    pub class: SocClass,
    /// Workers the pool starts with.
    pub workers: usize,
    /// Autoscaler floor (the pool never drains below this).
    pub min_workers: usize,
    /// Autoscaler ceiling (the pool never grows past this).
    pub max_workers: usize,
    /// Admission-queue bound; an arrival routed here past it is
    /// dropped.
    pub queue_depth: usize,
    /// Resident model subset as global model indices (`None` = every
    /// fleet model is resident).
    pub models: Option<Vec<usize>>,
}

impl Default for PoolSpec {
    fn default() -> Self {
        PoolSpec {
            class: SocClass::NvSmall,
            workers: 1,
            min_workers: 1,
            max_workers: 1,
            queue_depth: 8,
            models: None,
        }
    }
}

/// Normalize a model name the way the CLI does: drop `-`/`_`,
/// lowercase — so `LeNet-5`, `lenet5` and `lenet_5` all match.
fn norm_name(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, '-' | '_'))
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Parse the `--pools` grammar: `;`-separated pool specs, each
/// `class[:key=value[,key=value..]]` with class `nv_small|nv_full` and
/// keys `workers`, `min`, `max`, `queue`, `models` (a `+`-separated
/// subset of the fleet model names). Unspecified `min`/`max` pin the
/// autoscaler at `workers`. Example:
/// `nv_small:workers=2,min=1,max=6,queue=8;nv_full:workers=1,models=resnet18`.
///
/// # Errors
///
/// A message naming the offending pool spec, key or model.
pub fn parse_pools(s: &str, model_names: &[String]) -> Result<Vec<PoolSpec>, String> {
    let mut pools = Vec::new();
    for part in s.split(';').map(str::trim) {
        if part.is_empty() {
            continue;
        }
        let (class_str, rest) = match part.split_once(':') {
            Some((c, r)) => (c.trim(), Some(r)),
            None => (part, None),
        };
        let class: SocClass = class_str
            .parse()
            .map_err(|e| format!("pool spec `{part}`: {e}"))?;
        let mut spec = PoolSpec {
            class,
            ..PoolSpec::default()
        };
        let mut min = None;
        let mut max = None;
        if let Some(rest) = rest {
            for term in rest.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let (key, value) = term
                    .split_once('=')
                    .ok_or_else(|| format!("pool spec `{part}`: term `{term}` is not key=value"))?;
                let number = |v: &str| -> Result<u64, String> {
                    v.parse().map_err(|_| {
                        format!("pool spec `{part}`: `{key}` value `{v}` is not an integer")
                    })
                };
                match key {
                    "workers" => {
                        spec.workers = usize::try_from(number(value)?).unwrap_or(usize::MAX)
                    }
                    "min" => min = Some(usize::try_from(number(value)?).unwrap_or(usize::MAX)),
                    "max" => max = Some(usize::try_from(number(value)?).unwrap_or(usize::MAX)),
                    "queue" => {
                        spec.queue_depth = usize::try_from(number(value)?).unwrap_or(usize::MAX)
                    }
                    "models" => {
                        let mut subset = Vec::new();
                        for name in value.split('+').map(str::trim).filter(|n| !n.is_empty()) {
                            let idx = model_names
                                .iter()
                                .position(|m| norm_name(m) == norm_name(name))
                                .ok_or_else(|| {
                                    format!("pool spec `{part}`: model `{name}` is not in --models")
                                })?;
                            if subset.contains(&idx) {
                                return Err(format!(
                                    "pool spec `{part}`: duplicate model `{name}`"
                                ));
                            }
                            subset.push(idx);
                        }
                        if subset.is_empty() {
                            return Err(format!(
                                "pool spec `{part}`: models= subset must not be empty"
                            ));
                        }
                        spec.models = Some(subset);
                    }
                    other => {
                        return Err(format!(
                            "pool spec `{part}`: unknown key `{other}` \
                             (expected workers|min|max|queue|models)"
                        ))
                    }
                }
            }
        }
        spec.min_workers = min.unwrap_or(spec.workers);
        spec.max_workers = max.unwrap_or(spec.workers);
        pools.push(spec);
    }
    if pools.is_empty() {
        return Err("--pools must name at least one pool".into());
    }
    Ok(pools)
}

/// The fleet experiment: pools, routing, traffic, SLO, autoscaler and
/// spot-replay sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// The pools, in balancer order.
    pub pools: Vec<PoolSpec>,
    /// Routing policy over candidate pools.
    pub route: RoutePolicy,
    /// Rate envelope of the arrival trace.
    pub shape: TrafficShape,
    /// Mean offered rate in requests per second of modeled time.
    pub rate_rps: u64,
    /// Length of the arrival window in modeled milliseconds.
    pub duration_ms: u64,
    /// Workload seed (arrival times, envelope draws, model mix, input
    /// bytes).
    pub seed: u64,
    /// SLO target on total (queue wait + service) latency, modeled µs.
    pub slo_us: u64,
    /// Autoscaler evaluation period and rolling-window length, modeled
    /// milliseconds.
    pub scale_window_ms: u64,
    /// Scale a pool up when its windowed SLO attainment falls below
    /// this percent (and it is under `max_workers`).
    pub scale_up_below: u32,
    /// Drain a worker when windowed attainment exceeds this percent
    /// (and the pool is over `min_workers`).
    pub scale_down_above: u32,
    /// Spot-replay windows sampled per pool by [`Fleet::run`].
    pub spot_windows: usize,
    /// Consecutively-dispatched frames per spot-replay window.
    pub window_frames: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            pools: vec![PoolSpec::default()],
            route: RoutePolicy::Weighted,
            shape: TrafficShape::Steady,
            rate_rps: 200,
            duration_ms: 400,
            seed: 42,
            slo_us: 20_000,
            scale_window_ms: 50,
            scale_up_below: 90,
            scale_down_above: 99,
            spot_windows: 4,
            window_frames: 32,
        }
    }
}

impl FleetSpec {
    /// Reject degenerate parameters with a message naming the
    /// offending CLI flag, in the [`crate::serve::ServeSpec::validate`]
    /// tradition. `models` is the fleet model count (for residency
    /// coverage: a model resident in no pool could never be served).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the offending parameter.
    pub fn validate(&self, models: usize) -> Result<(), ServeError> {
        let cfg = |m: String| Err(ServeError::Config(m));
        if models == 0 {
            return cfg("fleet serving needs at least one model (--models)".into());
        }
        if self.pools.is_empty() {
            return cfg("--pools must name at least one pool".into());
        }
        if self.rate_rps == 0 {
            return cfg("--rate must be >= 1 request/s".into());
        }
        if self.duration_ms == 0 {
            return cfg("--duration must be >= 1 ms".into());
        }
        if self.slo_us == 0 {
            return cfg("--slo-us must be >= 1 microsecond".into());
        }
        if self.scale_window_ms == 0 {
            return cfg("--scale-window must be >= 1 ms".into());
        }
        if self.scale_up_below > 100 || self.scale_down_above > 100 {
            return cfg("--scale-up-below and --scale-down-above are percents (0..=100)".into());
        }
        if self.scale_up_below > self.scale_down_above {
            return cfg("--scale-up-below must not exceed --scale-down-above \
                 (the autoscaler would add and drain in the same window)"
                .into());
        }
        if self.spot_windows == 0 {
            return cfg("--spot-windows must be >= 1".into());
        }
        if self.window_frames == 0 {
            return cfg("--window-frames must be >= 1".into());
        }
        for (i, p) in self.pools.iter().enumerate() {
            let at = format!("pool {i} ({})", p.class.name());
            if p.workers == 0 {
                return cfg(format!("{at}: workers must be >= 1 (--pools workers=N)"));
            }
            if p.queue_depth == 0 {
                return cfg(format!("{at}: queue must be >= 1 (--pools queue=N)"));
            }
            if p.min_workers == 0 {
                return cfg(format!(
                    "{at}: min must be >= 1 (a pool cannot scale to zero workers)"
                ));
            }
            if !(p.min_workers <= p.workers && p.workers <= p.max_workers) {
                return cfg(format!(
                    "{at}: autoscaler bounds need min <= workers <= max \
                     (got min={}, workers={}, max={})",
                    p.min_workers, p.workers, p.max_workers
                ));
            }
            if let Some(subset) = &p.models {
                if let Some(&bad) = subset.iter().find(|&&m| m >= models) {
                    return cfg(format!(
                        "{at}: model index {bad} out of range (fleet has {models} models)"
                    ));
                }
            }
        }
        for m in 0..models {
            let resident = self
                .pools
                .iter()
                .any(|p| p.models.as_ref().is_none_or(|s| s.contains(&m)));
            if !resident {
                return cfg(format!(
                    "model {m} is resident in no pool \
                     (every --models entry needs a home in some --pools models= list)"
                ));
            }
        }
        Ok(())
    }

    /// The arrival window in cycles at `soc_hz`.
    #[must_use]
    pub fn duration_cycles(&self, soc_hz: u64) -> u64 {
        self.duration_ms.saturating_mul(soc_hz / 1000)
    }

    /// The SLO target in cycles at `soc_hz`.
    #[must_use]
    pub fn slo_cycles(&self, soc_hz: u64) -> u64 {
        self.slo_us.saturating_mul(soc_hz / 1_000_000)
    }
}

/// One pool's calibrated costs plus its resident model mapping — the
/// pure-simulation view of a pool ([`simulate`] runs on these, the
/// property tests build synthetic ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolProfile {
    /// Calibrated service costs, indexed by **pool-local** model slot.
    pub service: ServiceModel,
    /// Global model index of each local slot.
    pub models: Vec<usize>,
}

impl PoolProfile {
    /// Local slot of a global model index, `None` when not resident.
    #[must_use]
    pub fn local(&self, global: usize) -> Option<usize> {
        self.models.iter().position(|&g| g == global)
    }

    /// Mean serial frame cost over the resident set (the balancer's
    /// shed estimate).
    fn mean_svc(&self) -> u64 {
        let n = self.models.len().max(1) as u64;
        let sum: u64 = (0..self.service.models())
            .map(|m| self.service.preload[m] + self.service.compute[m])
            .sum();
        sum / n
    }
}

/// What happened to one fleet request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOutcome {
    /// Served to completion by a pool.
    Served {
        /// Pool that ran the frame.
        pool: usize,
        /// Arrival → dispatch.
        queue_wait: u64,
        /// Dispatch → completion (serial `preload + compute`).
        service: u64,
        /// Absolute completion cycle.
        completion: u64,
    },
    /// Routed to a pool whose admission queue was full.
    Dropped {
        /// Pool that turned it away.
        pool: usize,
    },
    /// Shed at the front door: every candidate pool's estimated wait
    /// exceeded `SHED_SLOS` (8)× the SLO.
    Shed,
}

/// One request's record in a [`FleetReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRecord {
    /// Global model the request targeted.
    pub model: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// What happened to it.
    pub outcome: FleetOutcome,
}

/// Per-pool outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Hardware class of the pool.
    pub class: SocClass,
    /// Global model indices resident in the pool.
    pub models: Vec<usize>,
    /// Workers the pool started with.
    pub workers_start: usize,
    /// Smallest worker count observed (≥ `min_workers`).
    pub workers_low: usize,
    /// Largest worker count observed (≤ `max_workers`).
    pub workers_high: usize,
    /// Workers active when the run ended.
    pub workers_final: usize,
    /// Autoscaler add events.
    pub scale_ups: u64,
    /// Autoscaler drain events.
    pub scale_downs: u64,
    /// Requests the balancer sent here (served + dropped).
    pub routed: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped at this pool's admission queue.
    pub dropped: u64,
    /// Modeled cycles spent busy (frames + re-warm charges).
    pub busy_cycles: u64,
    /// Queue-wait statistics of the served requests.
    pub queue_wait: LatencyStats,
    /// Service-latency statistics of the served requests.
    pub service: LatencyStats,
    /// Total-latency statistics of the served requests.
    pub total: LatencyStats,
    /// Served requests whose total latency met the SLO.
    pub slo_attained: u64,
}

/// Result of one fleet experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Routing policy used.
    pub route: RoutePolicy,
    /// Traffic shape used.
    pub shape: TrafficShape,
    /// Configured mean offered rate in requests per second.
    pub rate_rps: u64,
    /// Workload seed.
    pub seed: u64,
    /// SoC clock the cycle figures are denominated in (every pool
    /// class shares it).
    pub soc_hz: u64,
    /// Arrival-window length in cycles.
    pub duration_cycles: u64,
    /// SLO target in cycles.
    pub slo_cycles: u64,
    /// Requests the trace offered.
    pub offered: u64,
    /// Requests served to completion, all pools.
    pub served: u64,
    /// Requests dropped at pool admission queues.
    pub dropped: u64,
    /// Requests shed at the front door.
    pub shed: u64,
    /// Last completion cycle (0 when nothing was served).
    pub makespan_cycles: u64,
    /// Queue-wait statistics of the served requests.
    pub queue_wait: LatencyStats,
    /// Service-latency statistics of the served requests.
    pub service: LatencyStats,
    /// Total-latency statistics of the served requests.
    pub total: LatencyStats,
    /// Per-pool breakdown, in pool order.
    pub per_pool: Vec<PoolReport>,
    /// Served requests whose total latency met the SLO.
    pub slo_attained: u64,
    /// Per-request records, in trace order.
    pub records: Vec<FleetRecord>,
    /// Spot-replayed frames whose real-SoC latency disagreed with the
    /// plan: 0 after [`Fleet::run`] on a healthy build, and always 0
    /// after a plan-only [`Fleet::plan`].
    pub replay_divergence: u64,
    /// Frames spot-replayed on real SoCs (0 after [`Fleet::plan`]).
    pub replayed_frames: u64,
    /// Host wall-clock seconds spent (calibration excluded).
    pub host_seconds: f64,
}

impl FleetReport {
    /// Offered request rate in requests per second of modeled time.
    #[must_use]
    pub fn offered_rate(&self) -> f64 {
        if self.duration_cycles == 0 {
            return 0.0;
        }
        self.offered as f64 * self.soc_hz as f64 / self.duration_cycles as f64
    }

    /// Achieved (served) request rate over the longer of the arrival
    /// window and the drain.
    #[must_use]
    pub fn achieved_rate(&self) -> f64 {
        let span = self.duration_cycles.max(self.makespan_cycles);
        if span == 0 {
            return 0.0;
        }
        self.served as f64 * self.soc_hz as f64 / span as f64
    }

    /// Fraction of offered requests dropped at pool admission queues.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.offered as f64
    }

    /// Fraction of **offered** requests whose total latency met the
    /// SLO — a dropped or shed request is an SLO miss, not a footnote.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.slo_attained as f64 / self.offered as f64
    }

    /// Publish this report into a [`MetricsRegistry`] under the
    /// `fleet.*` namespace: outcome and autoscaler counters (summed
    /// across pools — the per-pool breakdown stays on
    /// [`FleetReport::per_pool`]), plus one observation per served
    /// request in the `fleet.queue_wait_cycles` /
    /// `fleet.service_cycles` / `fleet.total_cycles` histograms.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.counter("fleet.offered", self.offered);
        metrics.counter("fleet.served", self.served);
        metrics.counter("fleet.dropped", self.dropped);
        metrics.counter("fleet.shed", self.shed);
        metrics.counter("fleet.slo_attained", self.slo_attained);
        metrics.counter("fleet.makespan_cycles", self.makespan_cycles);
        for pool in &self.per_pool {
            metrics.counter("fleet.scale_ups", pool.scale_ups);
            metrics.counter("fleet.scale_downs", pool.scale_downs);
            metrics.counter("fleet.busy_cycles", pool.busy_cycles);
        }
        for rec in &self.records {
            if let FleetOutcome::Served {
                queue_wait,
                service,
                ..
            } = rec.outcome
            {
                metrics.histogram("fleet.queue_wait_cycles", queue_wait);
                metrics.histogram("fleet.service_cycles", service);
                metrics.histogram("fleet.total_cycles", queue_wait + service);
            }
        }
    }

    /// Structured report for `rv-nvdla fleet --json`. Carries every
    /// **modeled** quantity and omits host wall-clock, so two runs of
    /// the same spec print byte-identical JSON (`tests/cli.rs` pins
    /// the round trip). Cycle figures are denominated in `soc_hz`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(
            "route".to_string(),
            Json::Str(self.route.name().to_string()),
        );
        m.insert(
            "shape".to_string(),
            Json::Str(self.shape.name().to_string()),
        );
        m.insert("rate_rps".to_string(), Json::Int(self.rate_rps));
        m.insert("seed".to_string(), Json::Int(self.seed));
        m.insert("soc_hz".to_string(), Json::Int(self.soc_hz));
        m.insert(
            "duration_cycles".to_string(),
            Json::Int(self.duration_cycles),
        );
        m.insert("slo_cycles".to_string(), Json::Int(self.slo_cycles));
        m.insert("offered".to_string(), Json::Int(self.offered));
        m.insert("served".to_string(), Json::Int(self.served));
        m.insert("dropped".to_string(), Json::Int(self.dropped));
        m.insert("shed".to_string(), Json::Int(self.shed));
        m.insert(
            "makespan_cycles".to_string(),
            Json::Int(self.makespan_cycles),
        );
        m.insert("queue_wait".to_string(), self.queue_wait.to_json());
        m.insert("service".to_string(), self.service.to_json());
        m.insert("total".to_string(), self.total.to_json());
        m.insert("slo_attained".to_string(), Json::Int(self.slo_attained));
        m.insert(
            "replayed_frames".to_string(),
            Json::Int(self.replayed_frames),
        );
        m.insert(
            "replay_divergence".to_string(),
            Json::Int(self.replay_divergence),
        );
        m.insert(
            "per_pool".to_string(),
            Json::Arr(
                self.per_pool
                    .iter()
                    .map(|p| {
                        let mut pm = BTreeMap::new();
                        pm.insert("class".to_string(), Json::Str(p.class.name().to_string()));
                        pm.insert(
                            "models".to_string(),
                            Json::Arr(p.models.iter().map(|&i| Json::Int(i as u64)).collect()),
                        );
                        pm.insert(
                            "workers_start".to_string(),
                            Json::Int(p.workers_start as u64),
                        );
                        pm.insert("workers_low".to_string(), Json::Int(p.workers_low as u64));
                        pm.insert("workers_high".to_string(), Json::Int(p.workers_high as u64));
                        pm.insert(
                            "workers_final".to_string(),
                            Json::Int(p.workers_final as u64),
                        );
                        pm.insert("scale_ups".to_string(), Json::Int(p.scale_ups));
                        pm.insert("scale_downs".to_string(), Json::Int(p.scale_downs));
                        pm.insert("routed".to_string(), Json::Int(p.routed));
                        pm.insert("served".to_string(), Json::Int(p.served));
                        pm.insert("dropped".to_string(), Json::Int(p.dropped));
                        pm.insert("busy_cycles".to_string(), Json::Int(p.busy_cycles));
                        pm.insert("queue_wait".to_string(), p.queue_wait.to_json());
                        pm.insert("service".to_string(), p.service.to_json());
                        pm.insert("total".to_string(), p.total.to_json());
                        pm.insert("slo_attained".to_string(), Json::Int(p.slo_attained));
                        Json::Obj(pm)
                    })
                    .collect(),
            ),
        );
        Json::Obj(m)
    }
}

/// One simulated pool: a [`Station`] of serial workers with a single
/// arrival-order queue, plus what only a fleet knows about it — the
/// balancer's books and the autoscaler's rolling SLO window.
struct SimPool<'a> {
    profile: &'a PoolProfile,
    spec: &'a PoolSpec,
    station: Station<'a>,
    /// Rolling SLO events `(cycle, met)` for the autoscaler window.
    window: Vec<(u64, bool)>,
    /// Entries of the station's dispatch log already in `window`.
    windowed: usize,
    /// Smooth weighted-round-robin credit.
    credit: i64,
    mean_svc: u64,
    routed: u64,
    /// Busy cycles of workers the autoscaler drained.
    drained_busy: u64,
    low: usize,
    high: usize,
    ups: u64,
    downs: u64,
    /// The sync track of instant `autoscale` markers.
    auto_track: TrackId,
}

/// A pool's track names and pool-local model names; empty (and never
/// read) when the tracer is disarmed.
#[derive(Default)]
struct PoolLabels {
    queue: String,
    autoscaler: String,
    worker_prefix: String,
    names: Vec<String>,
}

impl SimPool<'_> {
    /// Feed the frames dispatched since the last look into the
    /// autoscaler's SLO window, each at its completion cycle. Only the
    /// evaluation at a window boundary reads the window, so that is
    /// when the dispatch log is caught up with.
    fn watch(&mut self, ledger: &[RequestRecord], slo_cycles: u64) {
        for d in &self.station.log[self.windowed..] {
            if let RequestOutcome::Served {
                queue_wait,
                service,
                completion,
                ..
            } = ledger[d.request].outcome
            {
                self.window
                    .push((completion, queue_wait + service <= slo_cycles));
            }
        }
        self.windowed = self.station.log.len();
    }

    /// One autoscaler evaluation at boundary cycle `b`.
    fn autoscale(&mut self, b: u64, window_cycles: u64, spec: &FleetSpec, tracer: &Tracer) {
        self.window.retain(|&(c, _)| c + window_cycles > b);
        let mut met = 0u64;
        let mut total = 0u64;
        for &(c, ok) in &self.window {
            if c <= b {
                total += 1;
                met += u64::from(ok);
            }
        }
        if total == 0 {
            return;
        }
        let workers = self.station.workers.len();
        if met * 100 < u64::from(spec.scale_up_below) * total {
            if workers < self.spec.max_workers {
                // A new worker is warm capacity only after the re-warm
                // charge: every resident weight image streams back in.
                self.station.add_worker(b, self.profile.service.rewarm);
                self.ups += 1;
                self.high = self.high.max(workers + 1);
                tracer.instant(self.auto_track, SpanKind::Autoscale, b, "up");
            }
        } else if met * 100 > u64::from(spec.scale_down_above) * total
            && workers > self.spec.min_workers
        {
            self.drained_busy += self.station.drain_worker().busy_cycles;
            self.downs += 1;
            self.low = self.low.min(workers - 1);
            tracer.instant(self.auto_track, SpanKind::Autoscale, b, "down");
        }
    }

    /// The balancer's estimate of a new arrival's queue wait.
    fn est_wait(&self, now: u64) -> u64 {
        self.station.load(now) * self.mean_svc / self.station.workers.len().max(1) as u64
    }
}

/// Pick a pool among `cands` (indices into `pools`, all with the
/// request's model resident) under `route`.
fn route_pick(route: RoutePolicy, cands: &[usize], pools: &mut [SimPool<'_>], now: u64) -> usize {
    debug_assert!(!cands.is_empty());
    match route {
        RoutePolicy::Weighted => {
            let total: i64 = cands.iter().map(|&c| pools[c].spec.workers as i64).sum();
            let mut pick = cands[0];
            for &c in cands {
                pools[c].credit += pools[c].spec.workers as i64;
                if pools[c].credit > pools[pick].credit {
                    pick = c;
                }
            }
            pools[pick].credit -= total;
            pick
        }
        RoutePolicy::LeastLoaded => least_loaded(cands, pools, now),
        RoutePolicy::ModelAffinity => {
            let fewest = cands
                .iter()
                .map(|&c| pools[c].profile.models.len())
                .min()
                .expect("nonempty candidates");
            let special: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| pools[c].profile.models.len() == fewest)
                .collect();
            least_loaded(&special, pools, now)
        }
    }
}

/// The candidate with the lowest backlog per active worker
/// (cross-multiplied to stay in integers), ties to the lowest index.
fn least_loaded(cands: &[usize], pools: &[SimPool<'_>], now: u64) -> usize {
    let load = |c: usize| {
        let station = &pools[c].station;
        (station.load(now), station.workers.len() as u64)
    };
    let mut pick = cands[0];
    for &c in &cands[1..] {
        let ((lc, ac), (lp, ap)) = (load(c), load(pick));
        if lc * ap < lp * ac {
            pick = c;
        }
    }
    pick
}

/// Run the fleet queueing system over `trace` in modeled time — shaped
/// arrivals routed, shed or admitted into one [`Station`] per pool, the
/// autoscaler adding and draining their workers — and build the report
/// plus per-pool dispatch logs. Pure: no SoC is touched (the property
/// tests drive this with synthetic profiles). Spans land in `tracer`;
/// emission only records values the simulation computed anyway, keeping
/// a traced run bit- and cycle-identical to an untraced one.
fn simulate_logged(
    trace: &RequestTrace,
    profiles: &[PoolProfile],
    spec: &FleetSpec,
    names: &[String],
    soc_hz: u64,
    tracer: &Tracer,
) -> (FleetReport, Vec<Vec<Dispatch>>) {
    assert_eq!(
        profiles.len(),
        spec.pools.len(),
        "one profile per pool spec"
    );
    assert!(!names.is_empty(), "fleet needs at least one model");
    let slo_cycles = spec.slo_cycles(soc_hz);
    let window_cycles = spec
        .scale_window_ms
        .saturating_mul((soc_hz / 1000).max(1))
        .max(1);
    let autoscaling = spec.pools.iter().any(|p| p.max_workers > p.min_workers);
    let labels: Vec<PoolLabels> = profiles
        .iter()
        .zip(&spec.pools)
        .enumerate()
        .map(|(p, (profile, pspec))| {
            if !tracer.is_armed() {
                return PoolLabels::default();
            }
            let prefix = format!("pool{p} {}", pspec.class.name());
            PoolLabels {
                queue: format!("{prefix} queue"),
                autoscaler: format!("{prefix} autoscaler"),
                worker_prefix: format!("{prefix} w"),
                names: profile.models.iter().map(|&g| names[g].clone()).collect(),
            }
        })
        .collect();
    let mut pools: Vec<SimPool<'_>> = profiles
        .iter()
        .zip(&spec.pools)
        .zip(&labels)
        .map(|((profile, pspec), labels)| {
            let probe = Probe {
                tracer,
                names: &labels.names,
                worker_prefix: &labels.worker_prefix,
                queue: tracer.track(&labels.queue, TrackKind::Async),
            };
            let auto_track = tracer.track(&labels.autoscaler, TrackKind::Sync);
            // Serial workers, one queue: every policy is arrival order.
            let mut station = Station::new(
                &profile.service,
                Policy::RoundRobin,
                false,
                pspec.queue_depth,
                1,
                Chaos::default(),
                probe,
            );
            for _ in 0..pspec.workers {
                station.add_worker(0, 0);
            }
            SimPool {
                profile,
                spec: pspec,
                station,
                window: Vec::new(),
                windowed: 0,
                credit: 0,
                mean_svc: profile.mean_svc(),
                routed: 0,
                drained_busy: 0,
                low: pspec.workers,
                high: pspec.workers,
                ups: 0,
                downs: 0,
                auto_track,
            }
        })
        .collect();
    // Candidate pools per global model — routing is *structurally*
    // restricted to pools with the model resident.
    let candidates: Vec<Vec<usize>> = (0..names.len())
        .map(|m| {
            (0..pools.len())
                .filter(|&p| profiles[p].local(m).is_some())
                .collect()
        })
        .collect();
    // The stations' ledger: each request's `model` becomes its
    // pool-local slot once routed; `homes` remembers which pool that
    // was (`None` = shed at the front door).
    let mut ledger: Vec<RequestRecord> = trace
        .requests
        .iter()
        .map(|r| RequestRecord {
            model: r.model,
            arrival: r.arrival,
            outcome: RequestOutcome::Dropped,
        })
        .collect();
    let mut homes: Vec<Option<usize>> = vec![None; ledger.len()];
    let mut next_eval = window_cycles;

    for (i, r) in trace.requests.iter().enumerate() {
        // Autoscaler boundaries strictly before this arrival.
        while autoscaling && next_eval <= r.arrival {
            for pool in &mut pools {
                pool.station.advance(next_eval, &mut ledger);
                pool.watch(&ledger, slo_cycles);
                pool.autoscale(next_eval, window_cycles, spec, tracer);
            }
            next_eval += window_cycles;
        }
        for pool in &mut pools {
            pool.station.advance(r.arrival, &mut ledger);
        }
        let cands = &candidates[r.model];
        assert!(
            !cands.is_empty(),
            "model {} resident in no pool (FleetSpec::validate must run first)",
            r.model
        );
        if cands
            .iter()
            .all(|&p| pools[p].est_wait(r.arrival) > SHED_SLOS * slo_cycles)
        {
            continue; // homes[i] already says shed
        }
        let p = route_pick(spec.route, cands, &mut pools, r.arrival);
        let pool = &mut pools[p];
        pool.routed += 1;
        homes[i] = Some(p);
        ledger[i].model = pool
            .profile
            .local(r.model)
            .expect("balancer routed to a resident pool");
        if !pool.station.offer(i, &mut ledger) && autoscaling {
            pool.window.push((r.arrival, false));
        }
    }
    // Drain: no arrivals remain, so the autoscaler holds its size.
    for pool in &mut pools {
        pool.station.advance(u64::MAX, &mut ledger);
    }

    let mut all = Tally::default();
    let mut by_pool = vec![Tally::default(); pools.len()];
    let mut pool_dropped = vec![0u64; pools.len()];
    let mut makespan = 0u64;
    let mut shed = 0u64;
    let mut records = Vec::with_capacity(ledger.len());
    for ((r, rec), &home) in trace.requests.iter().zip(&ledger).zip(&homes) {
        let outcome = match (home, rec.outcome) {
            (None, _) => {
                shed += 1;
                FleetOutcome::Shed
            }
            (Some(pool), RequestOutcome::Dropped) => {
                pool_dropped[pool] += 1;
                FleetOutcome::Dropped { pool }
            }
            (
                Some(pool),
                RequestOutcome::Served {
                    queue_wait,
                    service,
                    completion,
                    ..
                },
            ) => {
                all.push(queue_wait, service, slo_cycles);
                by_pool[pool].push(queue_wait, service, slo_cycles);
                makespan = makespan.max(completion);
                FleetOutcome::Served {
                    pool,
                    queue_wait,
                    service,
                    completion,
                }
            }
        };
        records.push(FleetRecord {
            model: r.model,
            arrival: r.arrival,
            outcome,
        });
    }
    let per_pool: Vec<PoolReport> = pools
        .iter()
        .zip(by_pool.iter_mut().zip(&pool_dropped))
        .map(|(pool, (tally, &dropped))| {
            let workers = &pool.station.workers;
            PoolReport {
                class: pool.spec.class,
                models: pool.profile.models.clone(),
                workers_start: pool.spec.workers,
                workers_low: pool.low,
                workers_high: pool.high,
                workers_final: workers.len(),
                scale_ups: pool.ups,
                scale_downs: pool.downs,
                routed: pool.routed,
                served: tally.served(),
                dropped,
                busy_cycles: pool.drained_busy
                    + workers.iter().map(|w| w.stats.busy_cycles).sum::<u64>(),
                queue_wait: tally.queue_wait(),
                service: tally.service(),
                total: tally.total(),
                slo_attained: tally.slo_attained,
            }
        })
        .collect();
    let report = FleetReport {
        route: spec.route,
        shape: spec.shape,
        rate_rps: spec.rate_rps,
        seed: spec.seed,
        soc_hz,
        duration_cycles: trace.duration,
        slo_cycles,
        offered: records.len() as u64,
        served: all.served(),
        dropped: pool_dropped.iter().sum(),
        shed,
        makespan_cycles: makespan,
        queue_wait: all.queue_wait(),
        service: all.service(),
        total: all.total(),
        per_pool,
        slo_attained: all.slo_attained,
        records,
        replay_divergence: 0,
        replayed_frames: 0,
        host_seconds: 0.0,
    };
    let logs = pools.into_iter().map(|p| p.station.log).collect();
    (report, logs)
}

/// Simulate a fleet trace against pool profiles without touching a SoC
/// — the planning half of [`Fleet::run`], exposed for sweeps and
/// property tests (synthetic [`PoolProfile`]s welcome).
///
/// # Panics
///
/// Panics when `profiles` and `spec.pools` disagree in length, `names`
/// is empty, or a trace request targets a model resident in no pool
/// (run [`FleetSpec::validate`] first).
#[must_use]
pub fn simulate(
    trace: &RequestTrace,
    profiles: &[PoolProfile],
    spec: &FleetSpec,
    names: &[String],
    soc_hz: u64,
) -> FleetReport {
    simulate_traced(trace, profiles, spec, names, soc_hz, &Tracer::disarmed())
}

/// [`simulate`], emitting spans into `tracer`: per pool, one sync track
/// per worker ("poolN CLASS wK" — serial numbers survive autoscaler
/// churn) carrying `preload`/`compute`/`rewarm` spans whose top-level
/// cycles sum to the pool's `busy_cycles`, an async "poolN CLASS queue"
/// track whose `queue_wait` spans sum to the pool's queue-wait total,
/// and a "poolN CLASS autoscaler" track of instant `autoscale` markers.
/// Arming the tracer is observationally free: the report is
/// byte-identical to [`simulate`]'s (a property test in `tests/fleet.rs`).
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
#[must_use]
pub fn simulate_traced(
    trace: &RequestTrace,
    profiles: &[PoolProfile],
    spec: &FleetSpec,
    names: &[String],
    soc_hz: u64,
    tracer: &Tracer,
) -> FleetReport {
    simulate_logged(trace, profiles, spec, names, soc_hz, tracer).0
}

/// One pool's compiled runtime state (its calibrated profile sits at
/// the same index of [`Fleet::profiles`]).
#[derive(Clone)]
struct PoolRuntime {
    class: SocClass,
    config: SocConfig,
    /// Pool-local artifacts (subset of the class layout, in local slot
    /// order).
    artifacts: Vec<Arc<Artifacts>>,
}

/// A fleet of heterogeneous pools over one model zoo: compiles every
/// model per hardware class, calibrates each distinct `(class, resident
/// subset)` once, then plans (or plans-and-spot-replays) any number of
/// [`FleetSpec`] experiments that keep the same pool shapes. Cloning
/// shares the compiled artifacts and copies the calibrated profiles — no
/// SoC runs.
#[derive(Clone)]
pub struct Fleet {
    codegen: CodegenOptions,
    names: Vec<String>,
    pools: Vec<PoolRuntime>,
    /// Calibrated profile of each pool, in pool order.
    profiles: Vec<PoolProfile>,
    soc_hz: u64,
    /// Span sink for [`Fleet::plan`] and [`Fleet::run`] (disarmed by
    /// default).
    tracer: Tracer,
}

impl Fleet {
    /// Build the fleet: per-class compilation (`opt.hw` is re-targeted
    /// per [`SocClass`], the class layouts sharing one
    /// [`ArtifactCache`]), then one [`ServiceModel::calibrate`] per
    /// distinct `(class, subset)` pool shape.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate spec,
    /// [`ServeError::Batch`] when compilation, pinning or calibration
    /// fails.
    pub fn new(
        nets: &[Network],
        base_options: &CompileOptions,
        codegen: CodegenOptions,
        spec: &FleetSpec,
    ) -> Result<Self, ServeError> {
        spec.validate(nets.len())?;
        let names: Vec<String> = nets.iter().map(|n| n.name().to_string()).collect();
        let cache = ArtifactCache::new();
        let mut class_layouts: Vec<(SocClass, Vec<Arc<Artifacts>>)> = Vec::new();
        for p in &spec.pools {
            if class_layouts.iter().any(|(c, _)| *c == p.class) {
                continue;
            }
            let mut opt = base_options.clone();
            opt.hw = p.class.hw();
            let layout = layout_models(&cache, nets, &opt)
                .map_err(|e| ServeError::Config(format!("compile for {}: {e}", p.class.name())))?;
            class_layouts.push((p.class, layout));
        }
        let mut pools: Vec<PoolRuntime> = Vec::with_capacity(spec.pools.len());
        let mut profiles: Vec<PoolProfile> = Vec::with_capacity(spec.pools.len());
        for p in &spec.pools {
            let globals: Vec<usize> = p
                .models
                .clone()
                .unwrap_or_else(|| (0..nets.len()).collect());
            let layout = &class_layouts
                .iter()
                .find(|(c, _)| *c == p.class)
                .expect("class compiled above")
                .1;
            let artifacts: Vec<Arc<Artifacts>> =
                globals.iter().map(|&g| layout[g].clone()).collect();
            let config = p.class.config();
            // An earlier pool of the same class and residency already
            // measured this profile.
            let calibrated = pools
                .iter()
                .zip(&profiles)
                .find(|(rt, prof)| rt.class == p.class && prof.models == globals)
                .map(|(_, prof)| prof.service.clone());
            let service = match calibrated {
                Some(service) => service,
                None => ServiceModel::calibrate(&config, &artifacts, codegen)?,
            };
            pools.push(PoolRuntime {
                class: p.class,
                config,
                artifacts,
            });
            profiles.push(PoolProfile {
                service,
                models: globals,
            });
        }
        let soc_hz = pools[0].config.soc_hz;
        assert!(
            pools.iter().all(|p| p.config.soc_hz == soc_hz),
            "every pool class shares the SoC clock"
        );
        Ok(Fleet {
            codegen,
            names,
            pools,
            profiles,
            soc_hz,
            tracer: Tracer::disarmed(),
        })
    }

    /// Emit the fleet simulation's spans into `tracer` from now on (see
    /// [`simulate_traced`] for the track layout and the bit-identity
    /// contract). Only the planning half of [`Fleet::run`] emits — the
    /// spot-replay is a cross-check of the very cycles the plan's spans
    /// already carry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The fleet's model names, in global index order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The calibrated profile of pool `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    #[must_use]
    pub fn pool_profile(&self, p: usize) -> &PoolProfile {
        &self.profiles[p]
    }

    /// Reject a spec whose pool shapes (count, class, residency)
    /// disagree with what this fleet compiled and calibrated; worker
    /// counts, queue depths, autoscaler bounds and traffic knobs may
    /// vary freely between [`Fleet::plan`] calls.
    fn check_spec(&self, spec: &FleetSpec) -> Result<(), ServeError> {
        spec.validate(self.names.len())?;
        if spec.pools.len() != self.pools.len() {
            return Err(ServeError::Config(format!(
                "fleet was built for {} pool(s), spec has {} \
                 (build a new Fleet to change pool count)",
                self.pools.len(),
                spec.pools.len()
            )));
        }
        let built = self.pools.iter().zip(&self.profiles);
        for (i, (p, (rt, profile))) in spec.pools.iter().zip(built).enumerate() {
            let globals: Vec<usize> = p
                .models
                .clone()
                .unwrap_or_else(|| (0..self.names.len()).collect());
            if p.class != rt.class || globals != profile.models {
                return Err(ServeError::Config(format!(
                    "pool {i} changed class or residency since the fleet was built \
                     (build a new Fleet to change pool shapes)"
                )));
            }
        }
        Ok(())
    }

    /// Generate `spec`'s shaped request trace (deterministic per seed).
    #[must_use]
    pub fn trace(&self, spec: &FleetSpec) -> RequestTrace {
        shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(self.soc_hz),
            self.names.len(),
            spec.seed,
            self.soc_hz,
        )
    }

    /// Check `spec`, generate its trace and simulate it.
    fn simulate(
        &self,
        spec: &FleetSpec,
    ) -> Result<(RequestTrace, FleetReport, Vec<Vec<Dispatch>>), ServeError> {
        self.check_spec(spec)?;
        let trace = self.trace(spec);
        let (report, logs) = simulate_logged(
            &trace,
            &self.profiles,
            spec,
            &self.names,
            self.soc_hz,
            &self.tracer,
        );
        Ok((trace, report, logs))
    }

    /// Plan `spec` without running frames: shaped trace generation plus
    /// the multi-pool queueing simulation on the calibrated profiles.
    /// Host-cheap — what makes capacity sweeps
    /// (`examples/capacity_planner.rs`) practical.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate or shape-changing spec.
    pub fn plan(&self, spec: &FleetSpec) -> Result<FleetReport, ServeError> {
        let start = Instant::now();
        let (_, mut report, _) = self.simulate(spec)?;
        report.host_seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Plan `spec`, then keep the numbers honest: sample
    /// [`FleetSpec::spot_windows`] windows of
    /// [`FleetSpec::window_frames`] consecutively-dispatched frames per
    /// pool and replay each window cycle-exactly on a real SoC of the
    /// pool's class, streaming seeded per-request input bytes.
    /// [`FleetReport::replay_divergence`] counts frames where the real
    /// machine disagreed with the plan (zero on a healthy build —
    /// `tests/fleet.rs` pins it).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate or shape-changing spec,
    /// [`ServeError::Batch`] when a replay SoC fails to build or a
    /// frame fails.
    ///
    /// # Panics
    ///
    /// Panics if a replay thread panics (propagated by [`fan_out`]).
    pub fn run(&self, spec: &FleetSpec) -> Result<FleetReport, ServeError> {
        let start = Instant::now();
        let (trace, mut report, logs) = self.simulate(spec)?;
        // Sample K evenly-spaced windows of W consecutive dispatches
        // per pool (fewer when a pool dispatched less than that).
        let mut windows: Vec<(usize, &[Dispatch])> = Vec::new();
        for (p, log) in logs.iter().enumerate() {
            if log.is_empty() {
                continue;
            }
            let w = spec.window_frames.min(log.len());
            let span = log.len() - w;
            let mut prev = None;
            for j in 0..spec.spot_windows {
                let s = if spec.spot_windows == 1 {
                    0
                } else {
                    span * j / (spec.spot_windows - 1)
                };
                if prev == Some(s) {
                    continue;
                }
                prev = Some(s);
                windows.push((p, &log[s..s + w]));
            }
        }
        let measured = fan_out(windows.len(), windows.len(), |j| {
            let (p, window) = windows[j];
            let rt = &self.pools[p];
            let seq: Vec<usize> = window
                .iter()
                .map(|d| {
                    self.profiles[p]
                        .local(trace.requests[d.request].model)
                        .expect("dispatched means resident")
                })
                .collect();
            let frames: Vec<(usize, Vec<u8>)> = seq
                .iter()
                .zip(window)
                .map(|(&lm, d)| {
                    let len = rt.artifacts[lm].input_len;
                    (lm, input_for(spec.seed, d.request, len))
                })
                .collect();
            replay_sequences(
                &rt.config,
                &rt.artifacts,
                self.codegen,
                Policy::RoundRobin,
                false,
                std::slice::from_ref(&seq),
                frames,
            )
        });
        for (&(_, window), run) in windows.iter().zip(measured) {
            report.replayed_frames += window.len() as u64;
            report.replay_divergence += divergence(window.iter().map(|d| d.predicted), &run?);
        }
        report.host_seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic single-model profile with serial frame cost `svc`.
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

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i}")).collect()
    }

    fn base_spec(pools: Vec<PoolSpec>) -> FleetSpec {
        FleetSpec {
            pools,
            slo_us: 100,
            ..FleetSpec::default()
        }
    }

    const HZ: u64 = 100_000_000;

    #[test]
    fn pool_grammar_parses_and_rejects() {
        let ns = vec!["LeNet-5".to_string(), "ResNet-18".to_string()];
        let pools = parse_pools(
            "nv_small:workers=2,min=1,max=6,queue=4;nv_full:workers=1,models=resnet18",
            &ns,
        )
        .expect("grammar parses");
        assert_eq!(pools.len(), 2);
        assert_eq!(pools[0].class, SocClass::NvSmall);
        assert_eq!(
            (pools[0].workers, pools[0].min_workers, pools[0].max_workers),
            (2, 1, 6)
        );
        assert_eq!(pools[0].queue_depth, 4);
        assert_eq!(pools[0].models, None);
        assert_eq!(pools[1].class, SocClass::NvFull);
        // min/max default to workers: the autoscaler is pinned.
        assert_eq!((pools[1].min_workers, pools[1].max_workers), (1, 1));
        assert_eq!(pools[1].models, Some(vec![1]));

        for (bad, needle) in [
            ("0", "unknown pool class `0`"),
            ("nv_tiny:workers=1", "unknown pool class `nv_tiny`"),
            ("nv_small:workers=zzz", "not an integer"),
            ("nv_small:bogus=1", "unknown key `bogus`"),
            ("nv_small:workers", "not key=value"),
            ("nv_small:models=vgg99", "not in --models"),
            ("nv_small:models=lenet5+lenet5", "duplicate model"),
            ("", "at least one pool"),
        ] {
            let e = parse_pools(bad, &ns).expect_err("must reject");
            assert!(e.contains(needle), "`{bad}` -> {e}");
        }
    }

    #[test]
    fn spec_validation_names_the_offending_flag() {
        let ok = base_spec(vec![PoolSpec::default()]);
        ok.validate(1).expect("healthy spec passes");
        for (broken, needle) in [
            (
                FleetSpec {
                    rate_rps: 0,
                    ..ok.clone()
                },
                "--rate",
            ),
            (
                FleetSpec {
                    duration_ms: 0,
                    ..ok.clone()
                },
                "--duration",
            ),
            (
                FleetSpec {
                    slo_us: 0,
                    ..ok.clone()
                },
                "--slo-us",
            ),
            (
                FleetSpec {
                    scale_window_ms: 0,
                    ..ok.clone()
                },
                "--scale-window",
            ),
            (
                FleetSpec {
                    scale_up_below: 101,
                    ..ok.clone()
                },
                "--scale-up-below",
            ),
            (
                FleetSpec {
                    scale_up_below: 95,
                    scale_down_above: 90,
                    ..ok.clone()
                },
                "--scale-up-below must not exceed",
            ),
            (
                FleetSpec {
                    spot_windows: 0,
                    ..ok.clone()
                },
                "--spot-windows",
            ),
            (
                FleetSpec {
                    window_frames: 0,
                    ..ok.clone()
                },
                "--window-frames",
            ),
            (
                base_spec(vec![PoolSpec {
                    workers: 2,
                    min_workers: 3,
                    max_workers: 1,
                    ..PoolSpec::default()
                }]),
                "min <= workers <= max",
            ),
            (
                base_spec(vec![PoolSpec {
                    queue_depth: 0,
                    ..PoolSpec::default()
                }]),
                "queue must be >= 1",
            ),
            (base_spec(Vec::new()), "--pools"),
        ] {
            let e = broken.validate(1).expect_err("must reject").to_string();
            assert!(e.contains(needle), "got: {e}");
        }
        // A model with no pool home is unservable.
        let orphan = base_spec(vec![PoolSpec {
            models: Some(vec![0]),
            ..PoolSpec::default()
        }]);
        let e = orphan
            .validate(2)
            .expect_err("model 1 homeless")
            .to_string();
        assert!(e.contains("resident in no pool"), "got: {e}");
    }

    #[test]
    fn shaped_traces_are_sorted_seeded_and_shaped() {
        for shape in [
            TrafficShape::Steady,
            TrafficShape::Diurnal,
            TrafficShape::Bursty,
            TrafficShape::FlashCrowd,
        ] {
            let t = shaped_trace(shape, 500, HZ, 2, 9, HZ);
            assert!(
                t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "{} arrivals sorted",
                shape.name()
            );
            assert!(t.requests.iter().all(|r| r.arrival < HZ && r.model < 2));
            let again = shaped_trace(shape, 500, HZ, 2, 9, HZ);
            assert_eq!(t, again, "{} replays bit-identically", shape.name());
            let moved = shaped_trace(shape, 500, HZ, 2, 10, HZ);
            assert_ne!(t, moved, "{} moves with its seed", shape.name());
        }
        // The flash crowd concentrates arrivals mid-trace: the middle
        // tenth must be far denser than a steady tenth.
        let flash = shaped_trace(TrafficShape::FlashCrowd, 1000, HZ, 1, 7, HZ);
        let mid = flash
            .requests
            .iter()
            .filter(|r| (HZ * 45 / 100..HZ * 55 / 100).contains(&r.arrival))
            .count();
        assert!(
            mid > flash.requests.len() / 4,
            "flash crowd mid-tenth holds {mid} of {}",
            flash.requests.len()
        );
    }

    #[test]
    fn conservation_served_dropped_shed_covers_offered() {
        // Two pools, one slow: heavy overload forces drops.
        let profiles = vec![
            flat_profile(2_000, vec![0, 1]),
            flat_profile(8_000, vec![0, 1]),
        ];
        let spec = base_spec(vec![
            PoolSpec {
                queue_depth: 2,
                ..PoolSpec::default()
            },
            PoolSpec {
                queue_depth: 2,
                ..PoolSpec::default()
            },
        ]);
        let t = shaped_trace(TrafficShape::Bursty, 100_000, HZ / 100, 2, 1, HZ);
        let r = simulate(&t, &profiles, &spec, &names(2), HZ);
        assert_eq!(r.offered, t.requests.len() as u64);
        assert_eq!(r.served + r.dropped + r.shed, r.offered, "conservation");
        assert!(r.dropped > 0, "overload must drop");
        for p in &r.per_pool {
            assert_eq!(p.routed, p.served + p.dropped, "per-pool books balance");
        }
        assert_eq!(
            r.per_pool.iter().map(|p| p.routed).sum::<u64>() + r.shed,
            r.offered
        );
    }

    #[test]
    fn weighted_routing_splits_by_configured_workers() {
        let profiles = vec![flat_profile(100, vec![0]), flat_profile(100, vec![0])];
        let spec = FleetSpec {
            slo_us: 1_000,
            ..base_spec(vec![
                PoolSpec {
                    workers: 3,
                    min_workers: 3,
                    max_workers: 3,
                    queue_depth: 64,
                    ..PoolSpec::default()
                },
                PoolSpec {
                    workers: 1,
                    queue_depth: 64,
                    ..PoolSpec::default()
                },
            ])
        };
        let t = shaped_trace(TrafficShape::Steady, 1_000, HZ / 10, 1, 5, HZ);
        let r = simulate(&t, &profiles, &spec, &names(1), HZ);
        let (a, b) = (r.per_pool[0].routed, r.per_pool[1].routed);
        assert!(a + b > 50, "trace must offer real load");
        // 3:1 weights -> pool 0 takes ~75%.
        assert!(a > 2 * b, "weighted 3:1 must skew the split: {a} vs {b}");
    }

    #[test]
    fn affinity_routes_only_to_resident_pools_and_prefers_specialists() {
        // Pool 0 is a generalist (both models), pool 1 serves model 1
        // only; affinity must send every model-1 request to pool 1
        // until its load argues otherwise, and model-0 requests can
        // never land there.
        let profiles = vec![
            flat_profile(1_000, vec![0, 1]),
            flat_profile(1_000, vec![1]),
        ];
        let spec = FleetSpec {
            route: RoutePolicy::ModelAffinity,
            ..base_spec(vec![
                PoolSpec {
                    queue_depth: 64,
                    ..PoolSpec::default()
                },
                PoolSpec {
                    queue_depth: 64,
                    ..PoolSpec::default()
                },
            ])
        };
        let t = shaped_trace(TrafficShape::Steady, 2_000, HZ / 10, 2, 11, HZ);
        let r = simulate(&t, &profiles, &spec, &names(2), HZ);
        for rec in &r.records {
            let pool = match rec.outcome {
                FleetOutcome::Served { pool, .. } | FleetOutcome::Dropped { pool } => pool,
                FleetOutcome::Shed => continue,
            };
            assert!(
                profiles[pool].local(rec.model).is_some(),
                "routed to a pool lacking model {}",
                rec.model
            );
        }
        assert!(
            r.per_pool[1].routed > 0,
            "the specialist pool must see its model"
        );
    }

    #[test]
    fn autoscaler_grows_under_load_shrinks_after_and_stays_in_bounds() {
        let profiles = vec![flat_profile(50_000, vec![0])];
        let spec = FleetSpec {
            slo_us: 600,
            scale_window_ms: 2,
            shape: TrafficShape::FlashCrowd,
            rate_rps: 4_000,
            duration_ms: 100,
            ..base_spec(vec![PoolSpec {
                workers: 1,
                min_workers: 1,
                max_workers: 6,
                queue_depth: 32,
                ..PoolSpec::default()
            }])
        };
        let t = shaped_trace(
            spec.shape,
            spec.rate_rps,
            spec.duration_cycles(HZ),
            1,
            3,
            HZ,
        );
        let r = simulate(&t, &profiles, &spec, &names(1), HZ);
        let p = &r.per_pool[0];
        assert!(p.scale_ups > 0, "the flash crowd must trigger scale-up");
        assert!(p.workers_high > 1, "the pool must actually grow");
        assert!(p.workers_high <= 6 && p.workers_low >= 1, "bounds hold");
        assert!(
            p.scale_downs > 0,
            "the calm after the spike must drain workers"
        );
        // Bit-identical replay of the whole report.
        let again = simulate(&t, &profiles, &spec, &names(1), HZ);
        assert_eq!(r, again, "seeded fleet runs replay bit-identically");
    }

    #[test]
    fn hopeless_backlog_sheds_at_the_front_door() {
        // One worker, 1 ms frames, 1 µs SLO and a deep queue: the
        // estimated wait blows past 8 SLOs almost immediately.
        let profiles = vec![flat_profile(100_000, vec![0])];
        let spec = FleetSpec {
            slo_us: 1,
            ..base_spec(vec![PoolSpec {
                queue_depth: 1_000,
                ..PoolSpec::default()
            }])
        };
        let t = shaped_trace(TrafficShape::Steady, 10_000, HZ / 100, 1, 2, HZ);
        let r = simulate(&t, &profiles, &spec, &names(1), HZ);
        assert!(r.shed > 0, "hopeless queues must shed");
        assert_eq!(r.served + r.dropped + r.shed, r.offered);
    }
}
