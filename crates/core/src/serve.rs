//! Open-loop inference serving on the co-simulated SoC.
//!
//! [`batch`](crate::batch) drains a pre-built frame queue; a *server*
//! faces load it does not control: requests arrive on their own clock,
//! queue up when every accelerator is busy, and get dropped when the
//! admission queue overflows. This module turns the batch machinery
//! into that closed loop, entirely in **modeled time**:
//!
//! 1. **Arrival process** — a seeded, deterministic open-loop workload
//!    generator ([`RequestTrace::generate`]): Poisson or fixed-rate
//!    arrivals at a configured request rate, each request tagged with
//!    one of the resident models. The trace replays bit-identically
//!    from its seed, so every experiment is reproducible.
//! 2. **Admission queue** — a bounded queue ([`ServeSpec::queue_depth`])
//!    in front of the worker pool. A request arriving when every worker
//!    is busy and the queue is full is **dropped** (counted, and held
//!    against SLO attainment).
//! 3. **Worker pool** — [`ServeSpec::workers`] workers, each owning a
//!    warm [`Soc`] with the full model set resident (the multi-image
//!    residency of [`crate::batch::layout_models`]). Dispatch reuses
//!    [`Policy`] (rr/sqf/eff) over the queued models, in either the
//!    **serial** worker mode (each frame pays its quiet input preload,
//!    then computes) or the **pipelined** one (the next request's input
//!    streams behind the current frame's compute and contends at the
//!    DRAM arbiter, exactly as in [`PipelinedScheduler`]).
//!
//! # Calibrate → simulate → replay
//!
//! The SoC simulator is *deterministic*: a model's warm frame always
//! costs the same modeled cycles, and a pipelined frame's (contended
//! compute, overlapped-preload completion) depends only on the
//! `(current, next)` model pair — not on chain position, double-buffer
//! parity or input bytes. [`ServiceModel::calibrate`] measures those
//! per-model and per-pair costs once on a real SoC (`N` warm frames
//! plus `N²` staged pairs); [`simulate`] then runs the queueing system
//! event by event against a request trace, which scales to arbitrarily
//! long traces without stepping the ISS per request; finally
//! [`Server::serve`] **replays** the simulated dispatch plan on real
//! per-worker SoCs (fanned out via [`crate::sweep::fan_out`], using
//! [`BatchScheduler::run_sequence`](crate::batch::BatchScheduler::run_sequence)
//! / [`PipelinedScheduler::run_sequence`](crate::batch::PipelinedScheduler::run_sequence))
//! and cross-checks every frame's modeled latency against the plan —
//! [`ServeReport::replay_divergence`] is the number of frames where
//! the simulator disagreed with the real machine, and `tests/serve.rs`
//! pins it at zero.
//!
//! # Latency accounting
//!
//! Every served request's modeled latency is split as
//! `total = queue_wait + service`:
//!
//! * **serial worker** — `queue_wait` = arrival → dequeue; `service` =
//!   quiet input preload + compute (the
//!   [`FrameLatency`](crate::batch::FrameLatency) definition).
//! * **pipelined worker** — `queue_wait` = arrival → compute start
//!   (this includes the request's own input streaming, hidden under
//!   the previous frame's compute or paid as a burst fill);
//!   `service` = the contended compute itself.
//!
//! [`ServeReport`] reports p50/p95/p99 percentiles of all three
//! distributions, per-model and per-worker breakdowns, offered vs.
//! achieved throughput, and SLO attainment at a configurable target
//! (dropped requests count as SLO misses). See `docs/SERVING.md` for
//! the queueing model and how to read the rate-vs-p99 hockey stick.

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvnv_compiler::codegen::CodegenOptions;
use rvnv_compiler::Artifacts;
use rvnv_obs::{Json, MetricsRegistry, Tracer, TrackId, TrackKind};

use crate::batch::{input_slots, BatchError, PipelinedScheduler, Policy};
use crate::firmware::Firmware;
use crate::queueing::{Chaos, Dispatch, Probe, Station};
use crate::soc::{Soc, SocConfig};
use crate::sweep::fan_out;

/// How request arrivals are spaced in modeled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponentially distributed inter-arrival gaps (a memoryless
    /// open-loop client population) at the configured mean rate.
    Poisson,
    /// Evenly spaced arrivals at exactly the configured rate.
    Fixed,
}

impl ArrivalProcess {
    /// CLI spelling of the process.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Fixed => "fixed",
        }
    }
}

impl FromStr for ArrivalProcess {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "fixed" => Ok(ArrivalProcess::Fixed),
            other => Err(format!(
                "unknown arrival process `{other}` (expected poisson|fixed)"
            )),
        }
    }
}

/// A seeded frame-level chaos plan for the serving simulation.
///
/// Rates are **events per million frame attempts** — the serving
/// analogue of [`rvnv_bus::FaultPlan`]'s per-access rates. (A frame is
/// millions of bus accesses, so a per-frame rate of `r` corresponds
/// roughly to a per-access rate of `r / accesses_per_frame`; see
/// `docs/RESILIENCE.md` for the mapping.) Every draw is a pure
/// function of `(seed, request index, attempt number)` via the same
/// SplitMix64 mixer the bus-level injector uses, so a fault trace
/// replays bit-identically and a chaos serving report is reproducible
/// from its spec alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Seed for the per-attempt fault lottery.
    pub seed: u64,
    /// Silent output corruption (detected by the fingerprint check at
    /// frame completion), events per million attempts.
    pub flip_per_million: u32,
    /// Typed mid-frame bus-error rate, events per million attempts.
    pub error_per_million: u32,
    /// Latency-spike rate, events per million attempts.
    pub spike_per_million: u32,
    /// Magnitude of a latency spike in modeled microseconds.
    pub spike_us: u64,
    /// Firmware-hang rate (only the watchdog recovers the worker),
    /// events per million attempts.
    pub hang_per_million: u32,
    /// Worker-crash rate (the frame is lost mid-flight and the worker
    /// must re-warm), events per million attempts.
    pub crash_per_million: u32,
}

impl FaultSpec {
    /// True when no fault can ever fire (all rates zero).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.total_per_million() == 0
    }

    /// Sum of all fault rates (must stay ≤ 1 000 000 to be a lottery).
    #[must_use]
    pub fn total_per_million(&self) -> u64 {
        u64::from(self.flip_per_million)
            + u64::from(self.error_per_million)
            + u64::from(self.spike_per_million)
            + u64::from(self.hang_per_million)
            + u64::from(self.crash_per_million)
    }

    /// Spike magnitude in cycles at `soc_hz`.
    #[must_use]
    pub fn spike_cycles(&self, soc_hz: u64) -> u64 {
        self.spike_us.saturating_mul(soc_hz / 1_000_000)
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parse the CLI spelling: comma-separated `key=value` terms with
    /// keys `seed`, `flips`, `errors`, `spikes`, `spike-us`, `hangs`,
    /// `crashes` (rates in events per million frame attempts), e.g.
    /// `seed=7,errors=20000,hangs=5000,spike-us=500,spikes=10000`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = FaultSpec::default();
        for term in s.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = term.split_once('=').ok_or_else(|| {
                format!("fault-spec term `{term}` is not key=value (example: errors=20000)")
            })?;
            let num: u64 = value
                .parse()
                .map_err(|_| format!("fault-spec `{key}` value `{value}` is not an integer"))?;
            let rate = u32::try_from(num.min(1_000_000)).expect("clamped");
            match key {
                "seed" => spec.seed = num,
                "flips" => spec.flip_per_million = rate,
                "errors" => spec.error_per_million = rate,
                "spikes" => spec.spike_per_million = rate,
                "spike-us" => spec.spike_us = num,
                "hangs" => spec.hang_per_million = rate,
                "crashes" => spec.crash_per_million = rate,
                other => {
                    return Err(format!(
                        "unknown fault-spec key `{other}` \
                         (expected seed|flips|errors|spikes|spike-us|hangs|crashes)"
                    ))
                }
            }
        }
        Ok(spec)
    }
}

/// What the chaos machinery observed and did during one serving run.
/// All zeros when no faults are configured.
///
/// Every failed attempt resolves exactly one way, so the books always
/// balance:
/// `timeouts + bus_errors + corruptions_detected + crashes ==
///  retries + failovers + sheds + exhausted`
/// (a spike or hang that trips the watchdog is counted under
/// `timeouts`), and `offered == served + dropped` holds independently
/// — `tests/serve.rs` pins both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Firmware hangs injected (each also counts as a timeout — only
    /// the watchdog gets the worker back).
    pub hangs: u64,
    /// Attempts aborted by the per-request timeout (hangs, spikes or
    /// clean frames that outran the deadline).
    pub timeouts: u64,
    /// Retries performed after a failed attempt (each pays a
    /// modeled-time backoff on its worker).
    pub retries: u64,
    /// Typed mid-frame bus errors injected.
    pub bus_errors: u64,
    /// Silent corruptions injected and caught by the output
    /// fingerprint check at frame completion.
    pub corruptions_detected: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Worker crashes injected (each costs the re-warm recovery).
    pub crashes: u64,
    /// Crashed requests successfully failed over (requeued at the head
    /// of their model's queue within the admission bound).
    pub failovers: u64,
    /// Requests shed rather than retried: a retry storm pushed them
    /// hopelessly past their deadline, or a crash failover found the
    /// admission queue full.
    pub sheds: u64,
    /// Requests dropped because the retry budget ran out.
    pub exhausted: u64,
}

impl FaultReport {
    /// Total faults injected, of any kind.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.hangs + self.bus_errors + self.corruptions_detected + self.spikes + self.crashes
    }
}

/// One request of an open-loop trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time in modeled cycles at the SoC clock.
    pub arrival: u64,
    /// Index of the resident model the request targets.
    pub model: usize,
}

/// A replayable open-loop request trace: arrivals in nondecreasing
/// modeled-cycle order, each tagged with a model index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The requests, sorted by arrival cycle.
    pub requests: Vec<Request>,
    /// The window (in cycles) over which arrivals were generated; the
    /// offered rate is `requests.len()` per `duration` cycles.
    pub duration: u64,
}

impl RequestTrace {
    /// Generate a seeded trace: arrivals per `process` at a mean of
    /// `rate_rps` requests per second (of modeled time at `soc_hz`)
    /// over `duration` cycles, each request tagged with a model drawn
    /// uniformly from `0..models`. Deterministic: the same arguments
    /// always produce the bit-identical trace (`tests/properties.rs`
    /// pins the replay property).
    #[must_use]
    pub fn generate(
        process: ArrivalProcess,
        rate_rps: u64,
        duration: u64,
        models: usize,
        seed: u64,
        soc_hz: u64,
    ) -> Self {
        let mut requests = Vec::new();
        if rate_rps == 0 || models == 0 || soc_hz == 0 {
            return RequestTrace { requests, duration };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match process {
            ArrivalProcess::Poisson => {
                let mean_gap = soc_hz as f64 / rate_rps as f64;
                let mut t = 0.0f64;
                loop {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    t += -(1.0 - u).ln() * mean_gap;
                    if t >= duration as f64 {
                        break;
                    }
                    requests.push(Request {
                        arrival: t as u64,
                        model: rng.gen_range(0..models),
                    });
                }
            }
            ArrivalProcess::Fixed => {
                for i in 0u64.. {
                    let arrival =
                        u64::try_from(u128::from(i) * u128::from(soc_hz) / u128::from(rate_rps))
                            .unwrap_or(u64::MAX);
                    if arrival >= duration {
                        break;
                    }
                    requests.push(Request {
                        arrival,
                        model: rng.gen_range(0..models),
                    });
                }
            }
        }
        RequestTrace { requests, duration }
    }

    /// Offered request rate in requests per second of modeled time.
    #[must_use]
    pub fn offered_rate(&self, soc_hz: u64) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.requests.len() as f64 * soc_hz as f64 / self.duration as f64
    }
}

/// The serving experiment: load, pool shape, dispatch and SLO target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Arrival spacing.
    pub process: ArrivalProcess,
    /// Offered request rate in requests per second of modeled time.
    pub rate_rps: u64,
    /// Length of the arrival window in modeled milliseconds.
    pub duration_ms: u64,
    /// Workload seed (arrival times, model mix, input bytes).
    pub seed: u64,
    /// Workers in the pool, each a warm SoC with every model resident.
    pub workers: usize,
    /// Dispatch policy over the queued models.
    pub policy: Policy,
    /// Pipelined worker mode: overlap the next request's input preload
    /// with the current frame's compute (per worker).
    pub pipelined: bool,
    /// Admission-queue bound; an arrival past it is dropped.
    pub queue_depth: usize,
    /// SLO target on total (queue wait + service) latency, in modeled
    /// microseconds.
    pub slo_us: u64,
    /// Per-request attempt timeout in modeled microseconds; 0 disables
    /// the watchdog (an attempt always runs to completion).
    pub timeout_us: u64,
    /// Bounded retry budget after a failed attempt (timeout, bus
    /// error, detected corruption). Requires a timeout — a retry is
    /// only meaningful when the previous attempt can be aborted.
    pub retries: u32,
    /// Frame-level chaos plan; `None` and the all-quiet spec simulate
    /// identically (no fault ever fires, every attempt is the first).
    pub faults: Option<FaultSpec>,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: 150,
            duration_ms: 400,
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
}

impl ServeSpec {
    /// Reject degenerate parameters with a clear message: a rate,
    /// duration, worker count or queue depth of zero describes no
    /// serving system at all.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.rate_rps == 0 {
            return Err(ServeError::Config("--rate must be >= 1 request/s".into()));
        }
        if self.duration_ms == 0 {
            return Err(ServeError::Config("--duration must be >= 1 ms".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::Config("--workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config(
                "--queue-depth must be >= 1 (an unqueued server drops every burst)".into(),
            ));
        }
        if self.retries > 0 && self.timeout_us == 0 {
            return Err(ServeError::Config(
                "--retries needs --timeout-us: a retry is only possible once the \
                 previous attempt can be aborted"
                    .into(),
            ));
        }
        if let Some(f) = &self.faults {
            if self.pipelined {
                return Err(ServeError::Config(
                    "--faults is not supported with --pipelined workers yet \
                     (fault recovery would tear the preload overlap; run the \
                     chaos experiment on serial workers)"
                        .into(),
                ));
            }
            if f.hang_per_million > 0 && self.timeout_us == 0 {
                return Err(ServeError::Config(
                    "a fault spec with hangs needs --timeout-us: a hung firmware \
                     never returns without a watchdog"
                        .into(),
                ));
            }
            if f.total_per_million() > 1_000_000 {
                return Err(ServeError::Config(format!(
                    "fault rates sum to {} per million attempts (must be <= 1000000)",
                    f.total_per_million()
                )));
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

    /// The per-attempt timeout in cycles at `soc_hz` (0 = disabled).
    #[must_use]
    pub fn timeout_cycles(&self, soc_hz: u64) -> u64 {
        self.timeout_us.saturating_mul(soc_hz / 1_000_000)
    }
}

/// Serving failure.
#[derive(Debug)]
pub enum ServeError {
    /// A degenerate or inconsistent specification.
    Config(String),
    /// The underlying batch machinery failed (model load, firmware,
    /// a frame run).
    Batch(BatchError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "{msg}"),
            ServeError::Batch(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::Batch(e) => Some(e),
        }
    }
}

impl From<BatchError> for ServeError {
    fn from(e: BatchError) -> Self {
        ServeError::Batch(e)
    }
}

/// Calibrated modeled service costs of the resident model set — the
/// deterministic per-model and per-pair cycle counts the queueing
/// simulation runs on. Measured once per server on a real SoC
/// ([`ServiceModel::calibrate`]); the replay check
/// ([`ServeReport::replay_divergence`]) proves they stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceModel {
    /// Quiet input-preload cycles into the model's own input buffer
    /// (the serial worker's per-frame preload cost).
    pub preload: Vec<u64>,
    /// Quiet input-preload cycles into the double-buffer staging slot
    /// (the pipelined worker's burst-fill cost).
    pub fill: Vec<u64>,
    /// Warm compute cycles with nothing streaming behind the frame.
    pub compute: Vec<u64>,
    /// `compute_with[cur][next]`: `cur`'s compute cycles while `next`'s
    /// input streams behind it and contends at the DRAM arbiter.
    pub compute_with: Vec<Vec<u64>>,
    /// `preload_done[cur][next]`: the cycle, on `cur`'s frame timeline,
    /// at which `next`'s overlapped preload completes (may exceed
    /// `compute_with[cur][next]` when compute is too short to hide it).
    pub preload_done: Vec<Vec<u64>>,
    /// Modeled cycles to re-warm a crashed worker: reset the SoC and
    /// re-pin every resident weight image through the quiet PS preload
    /// path ([`Soc::rewarm`]), charged before the worker rejoins the
    /// pool.
    pub rewarm: u64,
}

impl ServiceModel {
    /// Number of models the profile covers.
    #[must_use]
    pub fn models(&self) -> usize {
        self.compute.len()
    }

    /// Measure the profile on a real SoC: every model pinned resident
    /// at its compiled base, one warm frame per model (serial compute),
    /// and one staged pair per ordered `(cur, next)` combination (the
    /// pipelined contention matrix). `N + N²` frames total, after which
    /// the scratch SoC is dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Batch`] when a model fails to pin, its firmware
    /// fails to build, or a calibration frame fails.
    pub fn calibrate(
        config: &SocConfig,
        artifacts: &[Arc<Artifacts>],
        codegen: CodegenOptions,
    ) -> Result<Self, ServeError> {
        let n = artifacts.len();
        if n == 0 {
            return Err(ServeError::Config(
                "serving needs at least one model".into(),
            ));
        }
        let mut soc = Soc::new(config.clone());
        let mut fws = Vec::with_capacity(n);
        for a in artifacts {
            let fw = Firmware::build_with(a, codegen).map_err(BatchError::Firmware)?;
            soc.load_artifacts(a).map_err(BatchError::Load)?;
            fws.push(fw);
        }
        let zeros: Vec<Vec<u8>> = artifacts.iter().map(|a| vec![0u8; a.input_len]).collect();
        let run_err = |a: &Arc<Artifacts>| {
            let model = a.model.clone();
            move |source| BatchError::Run { model, source }
        };

        let mut compute = Vec::with_capacity(n);
        for (m, a) in artifacts.iter().enumerate() {
            let r = soc
                .run_firmware(a, &zeros[m], &fws[m])
                .map_err(run_err(a))?;
            compute.push(r.cycles);
        }
        let preload: Vec<u64> = artifacts
            .iter()
            .map(|a| soc.input_preload_cycles(a.input_addr, a.input_len))
            .collect();
        // Re-warm recovery cost: streaming every resident weight image
        // back in over the quiet fabric (a crashed worker re-pins all
        // models before taking work again).
        let rewarm: u64 = artifacts
            .iter()
            .flat_map(|a| a.weights.segments())
            .map(|seg| soc.input_preload_cycles(seg.addr, seg.bytes.len()))
            .sum();

        let (slots, _) = input_slots(artifacts);
        soc.set_pipelined(true);
        // Burst fill: measured through the real PS path (not the
        // analytic model) from the post-run fabric state a burst start
        // actually sees.
        let mut fill = Vec::with_capacity(n);
        for (m, a) in artifacts.iter().enumerate() {
            soc.quiesce();
            let done = soc
                .ps_stream(slots[0], &zeros[m], 0)
                .map_err(BatchError::Load)?;
            fill.push(done);
            // Consume the staged bytes so the next measurement starts
            // from the same just-ran state.
            soc.run_firmware_staged(a, slots[0], &fws[m], None)
                .map_err(run_err(a))?;
        }
        let mut compute_with = vec![vec![0u64; n]; n];
        let mut preload_done = vec![vec![0u64; n]; n];
        for (cur, a) in artifacts.iter().enumerate() {
            for next in 0..n {
                soc.quiesce();
                soc.ps_stream(slots[0], &zeros[cur], 0)
                    .map_err(BatchError::Load)?;
                let out = soc
                    .run_firmware_staged(a, slots[0], &fws[cur], Some((slots[1], &zeros[next])))
                    .map_err(run_err(a))?;
                compute_with[cur][next] = out.result.cycles;
                preload_done[cur][next] = out.preload_done;
            }
        }
        Ok(ServiceModel {
            preload,
            fill,
            compute,
            compute_with,
            preload_done,
            rewarm,
        })
    }
}

/// Latency percentiles over one distribution of modeled cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Arithmetic mean.
    pub mean: u64,
    /// Maximum.
    pub max: u64,
}

impl LatencyStats {
    /// Compute the statistics of `samples` (sorted in place). All
    /// zeros when empty.
    #[must_use]
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        LatencyStats {
            p50: percentile(samples, 50.0),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
            mean: u64::try_from(sum / samples.len() as u128).unwrap_or(u64::MAX),
            max: *samples.last().expect("nonempty"),
        }
    }

    /// `{"p50", "p95", "p99", "mean", "max"}`, in cycles.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("p50".to_string(), Json::Int(self.p50));
        m.insert("p95".to_string(), Json::Int(self.p95));
        m.insert("p99".to_string(), Json::Int(self.p99));
        m.insert("mean".to_string(), Json::Int(self.mean));
        m.insert("max".to_string(), Json::Int(self.max));
        Json::Obj(m)
    }
}

/// Nearest-rank percentile of an already **sorted** sample set:
/// the smallest value such that at least `pct`% of the samples are at
/// or below it. 0 when empty. Monotone in `pct` by construction
/// (`tests/properties.rs` pins p50 ≤ p95 ≤ p99).
#[must_use]
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(0.0) as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Per-model serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeModelStats {
    /// Model name.
    pub name: String,
    /// Requests the trace offered for this model.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped at the admission queue.
    pub dropped: u64,
    /// Service-latency statistics of the served requests.
    pub service: LatencyStats,
    /// Total-latency (queue wait + service) statistics.
    pub total: LatencyStats,
    /// Served requests whose total latency met the SLO target.
    pub slo_attained: u64,
}

/// Per-worker serving outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Frames the worker served.
    pub frames: u64,
    /// Modeled cycles the worker spent busy (preload fills, compute
    /// windows).
    pub busy_cycles: u64,
}

/// What one request experienced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served to completion.
    Served {
        /// Worker that ran the frame.
        worker: usize,
        /// Arrival → dispatch (see the [module docs](self) for the
        /// split's exact meaning per worker mode).
        queue_wait: u64,
        /// Dispatch → completion.
        service: u64,
        /// Absolute completion cycle.
        completion: u64,
    },
    /// Dropped at the admission queue (queue full, no idle worker).
    Dropped,
}

/// One request's record in a [`ServeReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Model the request targeted.
    pub model: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// What happened to it.
    pub outcome: RequestOutcome,
}

/// Result of serving one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Dispatch policy used.
    pub policy: Policy,
    /// Whether workers ran in the pipelined mode.
    pub pipelined: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_depth: usize,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Configured offered rate in requests per second.
    pub rate_rps: u64,
    /// Workload seed.
    pub seed: u64,
    /// SoC clock the cycle figures are denominated in.
    pub soc_hz: u64,
    /// Arrival-window length in cycles.
    pub duration_cycles: u64,
    /// SLO target in cycles.
    pub slo_cycles: u64,
    /// Requests the trace offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped at the admission queue.
    pub dropped: u64,
    /// Last completion cycle (0 when nothing was served).
    pub makespan_cycles: u64,
    /// Queue-wait statistics of the served requests.
    pub queue_wait: LatencyStats,
    /// Service-latency statistics of the served requests.
    pub service: LatencyStats,
    /// Total-latency (queue wait + service) statistics.
    pub total: LatencyStats,
    /// Per-model breakdown, in model order.
    pub per_model: Vec<ServeModelStats>,
    /// Per-worker breakdown, in worker order.
    pub per_worker: Vec<WorkerStats>,
    /// Served requests whose total latency met the SLO target.
    pub slo_attained: u64,
    /// Per-request records, in trace order.
    pub records: Vec<RequestRecord>,
    /// What the chaos machinery observed and did (all zeros without a
    /// fault plan or timeout).
    pub faults: FaultReport,
    /// Frames whose replayed (real-SoC) latency disagreed with the
    /// simulated plan: 0 after [`Server::serve`] on a healthy build,
    /// and always 0 after a plan-only [`Server::plan`].
    pub replay_divergence: u64,
    /// Host wall-clock seconds spent (calibration excluded).
    pub host_seconds: f64,
}

impl ServeReport {
    /// Offered request rate in requests per second of modeled time.
    #[must_use]
    pub fn offered_rate(&self) -> f64 {
        if self.duration_cycles == 0 {
            return 0.0;
        }
        self.offered as f64 * self.soc_hz as f64 / self.duration_cycles as f64
    }

    /// Achieved (served) request rate in requests per second of
    /// modeled time, over the longer of the arrival window and the
    /// drain. Never exceeds [`ServeReport::offered_rate`]
    /// (`tests/properties.rs` pins the invariant).
    #[must_use]
    pub fn achieved_rate(&self) -> f64 {
        let span = self.duration_cycles.max(self.makespan_cycles);
        if span == 0 {
            return 0.0;
        }
        self.served as f64 * self.soc_hz as f64 / span as f64
    }

    /// Fraction of offered requests dropped at the admission queue.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.offered as f64
    }

    /// Fraction of **offered** requests whose total latency met the
    /// SLO target — a dropped request is an SLO miss, not a footnote.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.slo_attained as f64 / self.offered as f64
    }

    /// Publish this report into a [`MetricsRegistry`] under the
    /// `serve.*` namespace: outcome and fault counters, plus one
    /// observation per served request in the
    /// `serve.queue_wait_cycles` / `serve.service_cycles` /
    /// `serve.total_cycles` histograms.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.counter("serve.offered", self.offered);
        metrics.counter("serve.served", self.served);
        metrics.counter("serve.dropped", self.dropped);
        metrics.counter("serve.slo_attained", self.slo_attained);
        metrics.counter("serve.makespan_cycles", self.makespan_cycles);
        metrics.counter("serve.fault.hangs", self.faults.hangs);
        metrics.counter("serve.fault.timeouts", self.faults.timeouts);
        metrics.counter("serve.fault.retries", self.faults.retries);
        metrics.counter("serve.fault.bus_errors", self.faults.bus_errors);
        metrics.counter(
            "serve.fault.corruptions_detected",
            self.faults.corruptions_detected,
        );
        metrics.counter("serve.fault.spikes", self.faults.spikes);
        metrics.counter("serve.fault.crashes", self.faults.crashes);
        metrics.counter("serve.fault.failovers", self.faults.failovers);
        metrics.counter("serve.fault.sheds", self.faults.sheds);
        metrics.counter("serve.fault.exhausted", self.faults.exhausted);
        for rec in &self.records {
            if let RequestOutcome::Served {
                queue_wait,
                service,
                ..
            } = rec.outcome
            {
                metrics.histogram("serve.queue_wait_cycles", queue_wait);
                metrics.histogram("serve.service_cycles", service);
                metrics.histogram("serve.total_cycles", queue_wait + service);
            }
        }
    }

    /// Structured report for `rv-nvdla serve --json`. Carries every
    /// **modeled** quantity and omits host wall-clock, so two runs of
    /// the same spec print byte-identical JSON (`tests/cli.rs` pins
    /// the round trip). Cycle figures are denominated in `soc_hz`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(
            "policy".to_string(),
            Json::Str(self.policy.name().to_string()),
        );
        m.insert("pipelined".to_string(), Json::Bool(self.pipelined));
        m.insert("workers".to_string(), Json::Int(self.workers as u64));
        m.insert(
            "queue_depth".to_string(),
            Json::Int(self.queue_depth as u64),
        );
        m.insert(
            "arrivals".to_string(),
            Json::Str(self.process.name().to_string()),
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
        m.insert(
            "makespan_cycles".to_string(),
            Json::Int(self.makespan_cycles),
        );
        m.insert("queue_wait".to_string(), self.queue_wait.to_json());
        m.insert("service".to_string(), self.service.to_json());
        m.insert("total".to_string(), self.total.to_json());
        m.insert("slo_attained".to_string(), Json::Int(self.slo_attained));
        m.insert(
            "replay_divergence".to_string(),
            Json::Int(self.replay_divergence),
        );
        m.insert(
            "per_model".to_string(),
            Json::Arr(
                self.per_model
                    .iter()
                    .map(|s| {
                        let mut mm = BTreeMap::new();
                        mm.insert("name".to_string(), Json::Str(s.name.clone()));
                        mm.insert("offered".to_string(), Json::Int(s.offered));
                        mm.insert("served".to_string(), Json::Int(s.served));
                        mm.insert("dropped".to_string(), Json::Int(s.dropped));
                        mm.insert("service".to_string(), s.service.to_json());
                        mm.insert("total".to_string(), s.total.to_json());
                        mm.insert("slo_attained".to_string(), Json::Int(s.slo_attained));
                        Json::Obj(mm)
                    })
                    .collect(),
            ),
        );
        m.insert(
            "per_worker".to_string(),
            Json::Arr(
                self.per_worker
                    .iter()
                    .map(|w| {
                        let mut wm = BTreeMap::new();
                        wm.insert("frames".to_string(), Json::Int(w.frames));
                        wm.insert("busy_cycles".to_string(), Json::Int(w.busy_cycles));
                        Json::Obj(wm)
                    })
                    .collect(),
            ),
        );
        let f = &self.faults;
        let mut fm = BTreeMap::new();
        fm.insert("hangs".to_string(), Json::Int(f.hangs));
        fm.insert("timeouts".to_string(), Json::Int(f.timeouts));
        fm.insert("retries".to_string(), Json::Int(f.retries));
        fm.insert("bus_errors".to_string(), Json::Int(f.bus_errors));
        fm.insert(
            "corruptions_detected".to_string(),
            Json::Int(f.corruptions_detected),
        );
        fm.insert("spikes".to_string(), Json::Int(f.spikes));
        fm.insert("crashes".to_string(), Json::Int(f.crashes));
        fm.insert("failovers".to_string(), Json::Int(f.failovers));
        fm.insert("sheds".to_string(), Json::Int(f.sheds));
        fm.insert("exhausted".to_string(), Json::Int(f.exhausted));
        m.insert("faults".to_string(), Json::Obj(fm));
        Json::Obj(m)
    }
}

/// Latency samples of one group of served requests — a whole run, one
/// model, one fleet pool — and how many of them met the SLO: what every
/// [`LatencyStats`] triple in a [`ServeReport`] or a
/// [`FleetReport`](crate::fleet::FleetReport) is computed from.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    waits: Vec<u64>,
    services: Vec<u64>,
    totals: Vec<u64>,
    /// Served requests whose total latency met the SLO target.
    pub slo_attained: u64,
}

impl Tally {
    /// Count one served request against an SLO of `slo_cycles`.
    pub(crate) fn push(&mut self, queue_wait: u64, service: u64, slo_cycles: u64) {
        let total = queue_wait + service;
        self.waits.push(queue_wait);
        self.services.push(service);
        self.totals.push(total);
        self.slo_attained += u64::from(total <= slo_cycles);
    }

    /// Requests counted.
    pub(crate) fn served(&self) -> u64 {
        self.totals.len() as u64
    }

    pub(crate) fn queue_wait(&mut self) -> LatencyStats {
        LatencyStats::from_samples(&mut self.waits)
    }

    pub(crate) fn service(&mut self) -> LatencyStats {
        LatencyStats::from_samples(&mut self.services)
    }

    pub(crate) fn total(&mut self) -> LatencyStats {
        LatencyStats::from_samples(&mut self.totals)
    }
}

/// Run the queueing system over `trace` in modeled time — one
/// [`Station`] with a queue per model — and build the report plus the
/// dispatch log. Pure: no SoC is touched, so this scales to arbitrarily
/// long traces (and is what the property tests drive with synthetic
/// profiles). Spans land in `tracer`; emission only records values the
/// kernel computed anyway, which is what keeps a traced run bit- and
/// cycle-identical to an untraced one.
fn simulate_logged(
    trace: &RequestTrace,
    service: &ServiceModel,
    spec: &ServeSpec,
    names: &[String],
    soc_hz: u64,
    tracer: &Tracer,
) -> (ServeReport, Vec<Dispatch>) {
    assert_eq!(
        names.len(),
        service.models(),
        "one name per calibrated model"
    );
    let n = service.models();
    let slo_cycles = spec.slo_cycles(soc_hz);
    let timeout = spec.timeout_cycles(soc_hz);
    let chaos = Chaos {
        faults: spec.faults.filter(|f| !f.is_quiet()),
        spike_cycles: spec.faults.map_or(0, |f| f.spike_cycles(soc_hz)),
        timeout,
        retries: spec.retries,
        shed_after: 4 * slo_cycles.max(timeout),
        ..Chaos::default()
    };
    let probe = Probe {
        tracer,
        names,
        worker_prefix: "worker ",
        queue: TrackId::NONE,
    };
    let mut station = Station::new(
        service,
        spec.policy,
        spec.pipelined,
        spec.queue_depth,
        n,
        chaos,
        probe,
    );
    for _ in 0..spec.workers {
        station.add_worker(0, 0);
    }
    station.probe.queue = tracer.track("queue", TrackKind::Async);
    let mut records: Vec<RequestRecord> = trace
        .requests
        .iter()
        .map(|r| RequestRecord {
            model: r.model,
            arrival: r.arrival,
            outcome: RequestOutcome::Dropped,
        })
        .collect();
    for (i, r) in trace.requests.iter().enumerate() {
        station.advance(r.arrival, &mut records);
        // Turned away = dropped: the default outcome already says so.
        station.offer(i, &mut records);
    }
    station.advance(u64::MAX, &mut records);

    let mut all = Tally::default();
    let mut by_model = vec![Tally::default(); n];
    let mut offered = vec![0u64; n];
    let mut makespan = 0u64;
    for rec in &records {
        offered[rec.model] += 1;
        if let RequestOutcome::Served {
            queue_wait,
            service: svc,
            completion,
            ..
        } = rec.outcome
        {
            all.push(queue_wait, svc, slo_cycles);
            by_model[rec.model].push(queue_wait, svc, slo_cycles);
            makespan = makespan.max(completion);
        }
    }
    let per_model = names
        .iter()
        .zip(by_model.iter_mut().zip(offered))
        .map(|(name, (tally, offered))| ServeModelStats {
            name: name.clone(),
            offered,
            served: tally.served(),
            dropped: offered - tally.served(),
            service: tally.service(),
            total: tally.total(),
            slo_attained: tally.slo_attained,
        })
        .collect();
    let report = ServeReport {
        policy: spec.policy,
        pipelined: spec.pipelined,
        workers: spec.workers,
        queue_depth: spec.queue_depth,
        process: spec.process,
        rate_rps: spec.rate_rps,
        seed: spec.seed,
        soc_hz,
        duration_cycles: trace.duration,
        slo_cycles,
        offered: records.len() as u64,
        served: all.served(),
        dropped: records.len() as u64 - all.served(),
        makespan_cycles: makespan,
        queue_wait: all.queue_wait(),
        service: all.service(),
        total: all.total(),
        per_model,
        per_worker: station.workers.iter().map(|w| w.stats).collect(),
        slo_attained: all.slo_attained,
        records,
        faults: station.chaos.report,
        replay_divergence: 0,
        host_seconds: 0.0,
    };
    (report, station.log)
}

/// Simulate serving `trace` against a calibrated (or synthetic)
/// [`ServiceModel`] without touching a SoC — the planning half of
/// [`Server::serve`], exposed for sweeps and property tests.
///
/// # Panics
///
/// Panics when `names` does not have one entry per calibrated model.
#[must_use]
pub fn simulate(
    trace: &RequestTrace,
    service: &ServiceModel,
    spec: &ServeSpec,
    names: &[String],
    soc_hz: u64,
) -> ServeReport {
    simulate_traced(trace, service, spec, names, soc_hz, &Tracer::disarmed())
}

/// [`simulate`], emitting spans into `tracer`: per-worker sync tracks
/// carry `preload`/`compute`/`ps_burst`/`retry`/`rewarm` spans whose
/// top-level cycles sum to each worker's `busy_cycles`, and an async
/// `queue` track carries one `queue_wait` span per served request whose
/// cycles sum to the report's queue-wait total. Arming the tracer is
/// observationally free: the report is byte-identical to [`simulate`]'s
/// (checked by `fuzz serve`, pinned by the `determinism_fingerprint` gate).
///
/// # Panics
///
/// Panics when `names` does not have one entry per calibrated model.
#[must_use]
pub fn simulate_traced(
    trace: &RequestTrace,
    service: &ServiceModel,
    spec: &ServeSpec,
    names: &[String],
    soc_hz: u64,
    tracer: &Tracer,
) -> ServeReport {
    simulate_logged(trace, service, spec, names, soc_hz, tracer).0
}

/// Replay per-burst model `seqs` on one fresh SoC of `config` with the
/// whole `artifacts` set resident, streaming `frames` — `(model, input
/// bytes)` in enqueue order — and return every frame's modeled latency
/// ([`crate::batch::FrameLatency`] semantics) in run order. This is the
/// shared replay engine behind [`Server::serve`]'s per-worker check and
/// the fleet's spot-replay windows ([`crate::fleet`]): both simulate in
/// calibrated cycles, then prove the plan against the real machine.
pub(crate) fn replay_sequences(
    config: &SocConfig,
    artifacts: &[Arc<Artifacts>],
    codegen: CodegenOptions,
    policy: Policy,
    pipelined: bool,
    seqs: &[Vec<usize>],
    frames: impl IntoIterator<Item = (usize, Vec<u8>)>,
) -> Result<Vec<u64>, BatchError> {
    let total: usize = seqs.iter().map(Vec::len).sum();
    let mut latencies = Vec::with_capacity(total);
    let mut sched = PipelinedScheduler::loaded(config, policy, artifacts, codegen, frames)?;
    for seq in seqs {
        let rep = sched.drain_sequence(pipelined, seq)?;
        latencies.extend(rep.frame_latencies.iter().map(|f| f.cycles));
    }
    Ok(latencies)
}

/// Frames where a replay's measured latencies disagree with the plan's
/// `predicted` ones, a missing or surplus frame counting as one each.
pub(crate) fn divergence(predicted: impl Iterator<Item = u64>, measured: &[u64]) -> u64 {
    let mut measured = measured.iter();
    let wrong = predicted.filter(|p| measured.next() != Some(p)).count();
    (wrong + measured.count()) as u64
}

/// Request `request`'s `len` input bytes, deterministic from the
/// workload seed and the request index alone: the replays stream real
/// (varied) images, proving the modeled cycles are input-independent.
pub(crate) fn input_for(seed: u64, request: usize, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED << 16) ^ request as u64);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

/// An inference server over a resident model set: calibrates the
/// [`ServiceModel`] once at construction, then serves (or plans) any
/// number of [`ServeSpec`] experiments against it. Cloning shares the
/// compiled artifacts and copies the calibrated profile — no SoC runs.
#[derive(Clone)]
pub struct Server {
    config: SocConfig,
    codegen: CodegenOptions,
    artifacts: Vec<Arc<Artifacts>>,
    service: ServiceModel,
    /// Span sink for [`Server::plan`] and [`Server::serve`] (disarmed
    /// by default).
    tracer: Tracer,
}

impl Server {
    /// Build a server over models laid out at disjoint DRAM bases
    /// ([`crate::batch::layout_models`]) and calibrate their service
    /// profile on a scratch SoC.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an empty model set,
    /// [`ServeError::Batch`] when pinning or calibration fails.
    pub fn new(
        config: SocConfig,
        artifacts: Vec<Arc<Artifacts>>,
        codegen: CodegenOptions,
    ) -> Result<Self, ServeError> {
        let service = ServiceModel::calibrate(&config, &artifacts, codegen)?;
        Ok(Server {
            config,
            codegen,
            artifacts,
            service,
            tracer: Tracer::disarmed(),
        })
    }

    /// Emit the queueing simulation's spans into `tracer` from now on
    /// (see [`simulate_traced`] for the track layout and the
    /// bit-identity contract). Only the planning half of
    /// [`Server::serve`] emits — the replay is a cross-check of the very
    /// cycles the plan's spans already carry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The calibrated service profile.
    #[must_use]
    pub fn service_model(&self) -> &ServiceModel {
        &self.service
    }

    /// The SoC configuration the server simulates.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Generate `spec`'s request trace (deterministic per seed).
    #[must_use]
    pub fn trace(&self, spec: &ServeSpec) -> RequestTrace {
        RequestTrace::generate(
            spec.process,
            spec.rate_rps,
            spec.duration_cycles(self.config.soc_hz),
            self.artifacts.len(),
            spec.seed,
            self.config.soc_hz,
        )
    }

    /// Validate `spec`, generate its trace and simulate it.
    fn simulate(
        &self,
        spec: &ServeSpec,
    ) -> Result<(RequestTrace, ServeReport, Vec<Dispatch>), ServeError> {
        spec.validate()?;
        let trace = self.trace(spec);
        let names: Vec<String> = self.artifacts.iter().map(|a| a.model.clone()).collect();
        let hz = self.config.soc_hz;
        let (report, log) = simulate_logged(&trace, &self.service, spec, &names, hz, &self.tracer);
        Ok((trace, report, log))
    }

    /// Plan `spec` without running frames: trace generation plus the
    /// queueing simulation on the calibrated profile. Host-cheap, which
    /// is what makes dense rate and fault-rate sweeps (`tests/serve.rs`)
    /// practical; [`Server::serve`] replays the same plan on real SoCs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate spec.
    pub fn plan(&self, spec: &ServeSpec) -> Result<ServeReport, ServeError> {
        let start = Instant::now();
        let (_, mut report, _) = self.simulate(spec)?;
        report.host_seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Serve `spec` for real: simulate the queueing system, then fan
    /// the dispatch plan out across [`ServeSpec::workers`] real SoCs
    /// (each with the full model set resident, via
    /// [`crate::sweep::fan_out`]) and replay every burst with
    /// [`BatchScheduler::run_sequence`](crate::batch::BatchScheduler::run_sequence)
    /// / [`PipelinedScheduler::run_sequence`]. Each replayed frame's
    /// modeled latency is checked against the plan;
    /// [`ServeReport::replay_divergence`] counts the disagreements
    /// (zero on a healthy build — `tests/serve.rs` pins it).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate spec,
    /// [`ServeError::Batch`] when a worker fails to build or a frame
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (propagated by [`fan_out`]).
    pub fn serve(&self, spec: &ServeSpec) -> Result<ServeReport, ServeError> {
        let start = Instant::now();
        let (trace, mut report, log) = self.simulate(spec)?;
        // Each worker's plan: bursts of frames. In the pipelined mode a
        // burst is a maximal chain of overlap-staged frames (one
        // pipeline fill each); a serial worker has one burst holding
        // every frame.
        let mut plans: Vec<Vec<Vec<Dispatch>>> = vec![Vec::new(); spec.workers];
        for d in log {
            let bursts = &mut plans[d.worker];
            if d.opens_burst || bursts.is_empty() {
                bursts.push(Vec::new());
            }
            bursts.last_mut().expect("just ensured").push(d);
        }
        let model_of = |d: &Dispatch| trace.requests[d.request].model;
        let measured = fan_out(
            plans.len(),
            plans.len(),
            |w| -> Result<Vec<u64>, BatchError> {
                let bursts = &plans[w];
                if bursts.is_empty() {
                    return Ok(Vec::new());
                }
                // The per-burst model sequences the scheduler replays,
                // and every frame's bytes in enqueue order. The bytes
                // are generated lazily per planned frame inside each
                // worker — dropped requests never materialize any, and
                // the RNG work rides the fan-out.
                let seqs: Vec<Vec<usize>> = bursts
                    .iter()
                    .map(|burst| burst.iter().map(model_of).collect())
                    .collect();
                let frames = bursts.iter().flatten().map(|d| {
                    let len = self.artifacts[model_of(d)].input_len;
                    (model_of(d), input_for(spec.seed, d.request, len))
                });
                replay_sequences(
                    &self.config,
                    &self.artifacts,
                    self.codegen,
                    spec.policy,
                    spec.pipelined,
                    &seqs,
                    frames,
                )
            },
        );
        for (bursts, run) in plans.iter().zip(measured) {
            let predicted = bursts.iter().flatten().map(|d| d.predicted);
            report.replay_divergence += divergence(predicted, &run?);
        }
        report.host_seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic two-model profile: model 0 cheap, model 1 pricey.
    fn profile() -> ServiceModel {
        ServiceModel {
            preload: vec![100, 200],
            fill: vec![100, 200],
            compute: vec![1_000, 3_000],
            compute_with: vec![vec![1_010, 1_020], vec![3_010, 3_020]],
            preload_done: vec![vec![150, 400], vec![120, 300]],
            rewarm: 5_000,
        }
    }

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn spec() -> ServeSpec {
        ServeSpec {
            process: ArrivalProcess::Fixed,
            rate_rps: 100,
            duration_ms: 1,
            seed: 7,
            workers: 1,
            policy: Policy::RoundRobin,
            pipelined: false,
            queue_depth: 4,
            slo_us: 1_000,
            timeout_us: 0,
            retries: 0,
            faults: None,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn latency_stats_sorted_and_monotone() {
        let mut samples = vec![30, 10, 20];
        let s = LatencyStats::from_samples(&mut samples);
        assert_eq!(samples, vec![10, 20, 30]);
        assert_eq!(s.p50, 20);
        assert_eq!(s.max, 30);
        assert_eq!(s.mean, 20);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn fixed_trace_is_evenly_spaced_and_replayable() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 1_000, hz / 10, 2, 3, hz);
        // 100 ms at 1000 req/s: exactly 100 requests, 100 µs apart.
        assert_eq!(t.requests.len(), 100);
        assert_eq!(t.requests[1].arrival - t.requests[0].arrival, hz / 1_000);
        let t2 = RequestTrace::generate(ArrivalProcess::Fixed, 1_000, hz / 10, 2, 3, hz);
        assert_eq!(t, t2);
        let t3 = RequestTrace::generate(ArrivalProcess::Fixed, 1_000, hz / 10, 2, 4, hz);
        // A different seed keeps the spacing but reshuffles the mix.
        assert_eq!(t3.requests.len(), 100);
        assert!(t
            .requests
            .iter()
            .zip(&t3.requests)
            .all(|(a, b)| a.arrival == b.arrival));
    }

    #[test]
    fn poisson_trace_is_sorted_and_roughly_at_rate() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Poisson, 500, hz, 2, 9, hz);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.requests.iter().all(|r| r.arrival < hz && r.model < 2));
        // Mean 500 arrivals over one modeled second; 5σ ≈ 112.
        assert!(
            (388..=612).contains(&t.requests.len()),
            "got {}",
            t.requests.len()
        );
    }

    #[test]
    fn below_capacity_nothing_waits_or_drops() {
        // 100 req/s of ~1k-cycle service at 100 MHz: each request meets
        // an idle worker.
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100, 100_000_000, 2, 1, 100_000_000);
        let r = simulate(&t, &profile(), &spec(), &names(), 100_000_000);
        assert_eq!(r.offered, 100);
        assert_eq!(r.served, 100);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.queue_wait.max, 0, "idle workers dispatch immediately");
        assert!(r.total.p99 <= r.service.max);
        assert_eq!(r.slo_attainment(), 1.0);
        assert_eq!(r.records.len(), 100);
    }

    #[test]
    fn overload_queues_then_drops() {
        // Service ≈ 2k cycles mean, arrivals every 1k cycles: the queue
        // fills, waits grow, and the excess is dropped.
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100_000, hz / 100, 2, 1, hz);
        assert_eq!(t.requests.len(), 1_000);
        let r = simulate(&t, &profile(), &spec(), &names(), hz);
        assert_eq!(r.served + r.dropped, r.offered);
        assert!(r.dropped > 0, "overload must drop");
        assert!(
            r.queue_wait.p50 > r.service.p50,
            "queue wait dominates service under overload: {} vs {}",
            r.queue_wait.p50,
            r.service.p50
        );
        assert!(r.achieved_rate() <= r.offered_rate());
        assert!(r.slo_attainment() < 1.0);
        // The queue bound caps how long anything waits (2x for the
        // round-robin rotation's worst-case interleaving).
        let worst_service = profile().compute[1] + profile().preload[1];
        assert!(r.queue_wait.max <= 2 * (spec().queue_depth as u64 + 1) * worst_service);
    }

    #[test]
    fn two_workers_halve_the_backlog() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100_000, hz / 100, 2, 1, hz);
        let one = simulate(&t, &profile(), &spec(), &names(), hz);
        let two = simulate(
            &t,
            &profile(),
            &ServeSpec {
                workers: 2,
                ..spec()
            },
            &names(),
            hz,
        );
        assert!(two.served > one.served);
        assert!(two.per_worker.len() == 2 && two.per_worker[1].frames > 0);
        assert!(two.achieved_rate() > one.achieved_rate());
    }

    #[test]
    fn pipelined_mode_respects_pair_costs() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100_000, hz / 1000, 2, 1, hz);
        let r = simulate(
            &t,
            &profile(),
            &ServeSpec {
                pipelined: true,
                queue_depth: 64,
                ..spec()
            },
            &names(),
            hz,
        );
        assert_eq!(r.served + r.dropped, r.offered);
        assert!(r.served > 0);
        // Back-to-back frames pay the contended compute, not the
        // serial preload+compute.
        let p = profile();
        let served_services: Vec<u64> = r
            .records
            .iter()
            .filter_map(|rec| match rec.outcome {
                RequestOutcome::Served { service, .. } => Some(service),
                RequestOutcome::Dropped => None,
            })
            .collect();
        let max_pair = p
            .compute_with
            .iter()
            .flatten()
            .chain(p.compute.iter())
            .copied()
            .max()
            .unwrap();
        assert!(served_services.iter().all(|&s| s <= max_pair));
    }

    #[test]
    fn spec_validation_rejects_degenerate_inputs() {
        for (broken, needle) in [
            (
                ServeSpec {
                    rate_rps: 0,
                    ..spec()
                },
                "--rate",
            ),
            (
                ServeSpec {
                    duration_ms: 0,
                    ..spec()
                },
                "--duration",
            ),
            (
                ServeSpec {
                    workers: 0,
                    ..spec()
                },
                "--workers",
            ),
            (
                ServeSpec {
                    queue_depth: 0,
                    ..spec()
                },
                "--queue-depth",
            ),
        ] {
            let err = broken.validate().expect_err("must reject");
            assert!(err.to_string().contains(needle), "got: {err}");
        }
        spec().validate().expect("healthy spec passes");
    }

    #[test]
    fn fault_spec_parses_and_rejects() {
        let f: FaultSpec =
            "seed=9,flips=100,errors=200,spikes=300,spike-us=40,hangs=500,crashes=600"
                .parse()
                .expect("full spec parses");
        assert_eq!(
            f,
            FaultSpec {
                seed: 9,
                flip_per_million: 100,
                error_per_million: 200,
                spike_per_million: 300,
                spike_us: 40,
                hang_per_million: 500,
                crash_per_million: 600,
            }
        );
        assert!(!f.is_quiet());
        assert!(FaultSpec::from_str("").expect("empty is quiet").is_quiet());
        let e = FaultSpec::from_str("bogus=1").expect_err("unknown key");
        assert!(e.contains("unknown fault-spec key `bogus`"), "got: {e}");
        let e = FaultSpec::from_str("errors").expect_err("not key=value");
        assert!(e.contains("key=value"), "got: {e}");
        let e = FaultSpec::from_str("errors=lots").expect_err("not an integer");
        assert!(e.contains("not an integer"), "got: {e}");
    }

    #[test]
    fn chaos_spec_validation_rejects_inconsistent_knobs() {
        let storm = FaultSpec {
            error_per_million: 10_000,
            ..FaultSpec::default()
        };
        for (broken, needle) in [
            (
                ServeSpec {
                    retries: 1,
                    ..spec()
                },
                "--retries needs --timeout-us",
            ),
            (
                ServeSpec {
                    pipelined: true,
                    faults: Some(storm),
                    ..spec()
                },
                "--pipelined",
            ),
            (
                ServeSpec {
                    faults: Some(FaultSpec {
                        hang_per_million: 10,
                        ..FaultSpec::default()
                    }),
                    ..spec()
                },
                "needs --timeout-us",
            ),
            (
                ServeSpec {
                    faults: Some(FaultSpec {
                        flip_per_million: 900_000,
                        error_per_million: 200_000,
                        ..FaultSpec::default()
                    }),
                    ..spec()
                },
                "sum to",
            ),
        ] {
            let err = broken.validate().expect_err("must reject");
            assert!(err.to_string().contains(needle), "got: {err}");
        }
        ServeSpec {
            timeout_us: 50,
            retries: 2,
            faults: Some(storm),
            ..spec()
        }
        .validate()
        .expect("a consistent chaos spec passes");
    }

    #[test]
    fn quiet_fault_plan_is_bit_identical_to_no_plan() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100_000, hz / 100, 2, 1, hz);
        let clean = simulate(&t, &profile(), &spec(), &names(), hz);
        let quiet = simulate(
            &t,
            &profile(),
            &ServeSpec {
                faults: Some(FaultSpec::default()),
                ..spec()
            },
            &names(),
            hz,
        );
        assert_eq!(clean, quiet, "an all-quiet plan must change nothing");
        assert_eq!(clean.faults, FaultReport::default());
    }

    #[test]
    fn chaos_run_is_deterministic_and_every_fault_balances() {
        let hz = 100_000_000;
        // Sparse arrivals (every 10k cycles vs ~2k service) so faults,
        // not queueing, dominate the outcome.
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 10_000, hz / 10, 2, 1, hz);
        let chaos_spec = ServeSpec {
            timeout_us: 50,
            retries: 2,
            faults: Some(FaultSpec {
                seed: 3,
                flip_per_million: 100_000,
                error_per_million: 100_000,
                spike_per_million: 50_000,
                spike_us: 100,
                hang_per_million: 50_000,
                crash_per_million: 50_000,
            }),
            ..spec()
        };
        let r = simulate(&t, &profile(), &chaos_spec, &names(), hz);
        assert_eq!(r.served + r.dropped, r.offered);
        let f = r.faults;
        assert!(f.injected() > 0, "35% composite rate must fire: {f:?}");
        assert!(f.retries > 0, "failed attempts must retry: {f:?}");
        // Every failed attempt resolves exactly once.
        assert_eq!(
            f.timeouts + f.bus_errors + f.corruptions_detected + f.crashes,
            f.retries + f.failovers + f.sheds + f.exhausted,
            "the books must balance: {f:?}"
        );
        assert!(
            f.hangs <= f.timeouts,
            "every hang is caught by the watchdog"
        );
        // Bit-identical replay of the whole report from the seeds.
        let again = simulate(&t, &profile(), &chaos_spec, &names(), hz);
        assert_eq!(r, again, "a seeded chaos run must replay bit-identically");
        // A different fault seed moves the faults.
        let moved = simulate(
            &t,
            &profile(),
            &ServeSpec {
                faults: chaos_spec.faults.map(|f| FaultSpec { seed: 4, ..f }),
                ..chaos_spec
            },
            &names(),
            hz,
        );
        assert_ne!(r.faults, moved.faults, "a new seed must move the faults");
    }

    #[test]
    fn timeout_without_faults_sheds_frames_that_cannot_fit() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 10_000, hz / 10, 2, 1, hz);
        // Model 0 (1.1k cycles = 11 µs) fits a 20 µs deadline; model 1
        // (3.2k cycles = 32 µs) can never complete an attempt.
        let r = simulate(
            &t,
            &profile(),
            &ServeSpec {
                timeout_us: 20,
                ..spec()
            },
            &names(),
            hz,
        );
        assert_eq!(
            r.per_model[1].served, 0,
            "model 1 can never beat the timeout"
        );
        assert_eq!(r.per_model[0].dropped, 0, "model 0 always fits it");
        assert_eq!(r.faults.timeouts, r.per_model[1].offered);
        assert_eq!(r.faults.exhausted, r.per_model[1].offered);
        assert_eq!(r.faults.retries, 0, "no retry budget was configured");
    }

    #[test]
    fn crashes_fail_over_within_the_attempt_budget_and_pay_rewarm() {
        let hz = 100_000_000;
        let t = RequestTrace::generate(ArrivalProcess::Fixed, 100, hz / 10, 2, 1, hz);
        assert_eq!(t.requests.len(), 10);
        let r = simulate(
            &t,
            &profile(),
            &ServeSpec {
                timeout_us: 50,
                retries: 2,
                faults: Some(FaultSpec {
                    crash_per_million: 1_000_000,
                    ..FaultSpec::default()
                }),
                ..spec()
            },
            &names(),
            hz,
        );
        // Every attempt crashes: 3 attempts per request (initial + 2
        // failovers), then the budget is exhausted.
        assert_eq!(r.served, 0);
        assert_eq!(r.faults.crashes, 30);
        assert_eq!(r.faults.failovers, 20);
        assert_eq!(r.faults.exhausted, 10);
        assert_eq!(r.faults.sheds, 0);
        // Each crash charges the re-warm recovery to its worker.
        assert!(
            r.per_worker[0].busy_cycles >= 30 * profile().rewarm,
            "30 crashes must pay 30 re-warms: {}",
            r.per_worker[0].busy_cycles
        );
    }

    /// Found by a chaos property test, whose checks are now `fuzz
    /// serve`'s plan legs (they catch this bug at seed 9): a request
    /// that crashed on one worker and failed over could be picked up by
    /// a pool-mate that had sat idle since before the request arrived —
    /// its clock still behind the arrival — and `queue_wait` underflowed.
    /// The frame must start at `max(worker clock, arrival)`. The seed
    /// loop hunts for a lottery where the first attempt crashes and the
    /// retry succeeds on the stale-clocked second worker.
    #[test]
    fn crash_failover_onto_a_stale_clocked_worker_starts_at_arrival() {
        let hz = 100_000_000;
        let t = RequestTrace {
            requests: vec![Request {
                arrival: hz / 100, // 10 ms in: worker 1 idles since 0
                model: 0,
            }],
            duration: hz / 10,
        };
        let mut pinned = false;
        for fault_seed in 0..200 {
            let r = simulate(
                &t,
                &profile(),
                &ServeSpec {
                    workers: 2,
                    timeout_us: 1_000,
                    retries: 2,
                    faults: Some(FaultSpec {
                        seed: fault_seed,
                        crash_per_million: 400_000,
                        ..FaultSpec::default()
                    }),
                    ..spec()
                },
                &names(),
                hz,
            );
            if r.faults.failovers > 0 && r.served == 1 {
                // Served after a failover: in the buggy version this
                // case panicked (debug) or reported an absurd wait.
                assert!(
                    r.queue_wait.max <= t.duration,
                    "failover wait must stay causal: {}",
                    r.queue_wait.max
                );
                pinned = true;
                break;
            }
        }
        assert!(pinned, "no seed in 0..200 exercised failover-then-serve");
    }
}
