//! Multi-model resident batch scheduling (the edge-server workload).
//!
//! The paper's toolflow serves one compiled network per SoC; an edge
//! server juggles several. This module keeps **N models resident in one
//! DRAM simultaneously** — each compiled at its own base so the
//! footprints are disjoint ([`layout_models`]) — and drains a frame
//! queue tagged by model across them on a single SoC, every frame warm:
//! an in-place fabric reset plus an input reload, never a recompile or
//! a weight restream. Switching models between frames costs nothing
//! beyond the reset, which is what makes interleaved (round-robin)
//! service practical.
//!
//! Three drain policies:
//!
//! * [`Policy::RoundRobin`] — rotate across models with pending frames;
//!   the fair interleaving an online server uses, and the worst case
//!   for any cross-model cache the simulator might (incorrectly) keep.
//! * [`Policy::ShortestQueueFirst`] — always serve the model with the
//!   fewest pending frames, draining stragglers early; batches same-
//!   model frames back to back once queues diverge.
//! * [`Policy::EarliestFinish`] — serve the frame with the earliest
//!   estimated completion given the pipeline state; meaningful only
//!   under overlapped preload (see below), where it trades fairness for
//!   throughput.
//!
//! Two execution models share those policies:
//!
//! * [`BatchScheduler`] — **serial** frames: every frame replays from a
//!   full in-place reset, so modeled *compute* cycles are
//!   policy-independent and bit-identical to cold runs (a property
//!   `tests/batch.rs` pins); only the service order changes. Each
//!   frame's reported latency adds the quiet input-preload cost
//!   ([`crate::soc::Soc::input_preload_cycles`]) it pays on its
//!   critical path.
//! * [`PipelinedScheduler`] — **pipelined** frames: while frame N
//!   computes, the Zynq PS streams frame N+1's input into the other
//!   half of a double-buffered slot pair through the SmartConnect, and
//!   the preload chunks contend with frame N's DMA traffic at the DRAM
//!   arbiter. Output bytes stay bit-identical to serial; modeled cycles
//!   become genuinely **policy-dependent**, because the contention each
//!   frame suffers depends on which frame is preloaded behind it. See
//!   `docs/SCHEDULING.md` for the cycle timeline.
//!
//! Both report per-model cycles, per-frame service latency, arbiter
//! contention and end-to-end throughput in a [`BatchReport`].
//!
//! For host-side scale-out, [`run_parallel`] (serial or pipelined
//! workers) shards a frame stream across worker threads via
//! [`crate::sweep::fan_out`], one SoC replica (with all models
//! resident) per worker.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use rvnv_compiler::codegen::CodegenOptions;
use rvnv_compiler::{ArtifactCache, Artifacts, CompileError, CompileOptions};
use rvnv_nn::graph::Network;
use rvnv_nn::Tensor;
use rvnv_obs::{MetricsRegistry, SpanKind, SpanRef, Tracer, TrackId, TrackKind};

use crate::firmware::Firmware;
use crate::soc::{InferenceResult, Soc, SocConfig, SocError};
use crate::sweep::fan_out;

/// Base alignment of each model's DRAM footprint when laying models
/// out side by side: every footprint starts on a boundary two DRAM
/// rows wide, so one model's trailing bytes can never share an open
/// row with the next model's leading weights. Footprints may touch
/// exactly (a model ending on a boundary leaves no hole) — disjoint,
/// not gapped.
pub const MODEL_BASE_ALIGN: u32 = 4096;

/// Compile every network so the models' DRAM footprints are pairwise
/// disjoint: each model's allocator starts at the next
/// [`MODEL_BASE_ALIGN`] boundary at or past the previous model's
/// high-water mark. The resulting artifacts can all be
/// [`Soc::load_artifacts`]-pinned on one SoC.
///
/// Goes through `cache`, so a sweep or server that lays the same model
/// set out repeatedly compiles each `(model, base)` pair once.
///
/// # Errors
///
/// Returns [`CompileError`] when a model fails to compile or the set
/// does not fit in `base_options.dram_bytes`.
pub fn layout_models(
    cache: &ArtifactCache,
    nets: &[Network],
    base_options: &CompileOptions,
) -> Result<Vec<Arc<Artifacts>>, CompileError> {
    let mut base = base_options.dram_base;
    let mut out = Vec::with_capacity(nets.len());
    for net in nets {
        let opt = base_options.clone().at_dram_base(base);
        let artifacts = cache.get_or_compile(net, &opt)?;
        base = artifacts
            .dram_used
            .div_ceil(MODEL_BASE_ALIGN)
            .saturating_mul(MODEL_BASE_ALIGN);
        out.push(artifacts);
    }
    Ok(out)
}

/// Frame drain order across the resident models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Rotate across models with pending frames (fair interleaving).
    RoundRobin,
    /// Serve the model with the fewest pending frames first.
    ShortestQueueFirst,
    /// Serve the frame with the earliest estimated completion given the
    /// pipeline state: estimated preload (as far as it cannot hide
    /// under the current frame's estimated compute) plus the model's
    /// last observed compute cycles. Under a serial drain nothing can
    /// hide, so this degenerates to shortest-estimated-job-first; it
    /// earns its keep only under [`PipelinedScheduler`] contention.
    EarliestFinish,
}

impl Policy {
    /// CLI spelling of the policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "rr",
            Policy::ShortestQueueFirst => "sqf",
            Policy::EarliestFinish => "eff",
        }
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(Policy::RoundRobin),
            "sqf" | "shortest-queue-first" => Ok(Policy::ShortestQueueFirst),
            "eff" | "earliest-finish" => Ok(Policy::EarliestFinish),
            other => Err(format!("unknown policy `{other}` (expected rr|sqf|eff)")),
        }
    }
}

/// Batch-scheduling failure.
#[derive(Debug)]
pub enum BatchError {
    /// Pinning a model's weight image failed (footprint overlap, DRAM
    /// exhaustion).
    Load(rvnv_bus::BusError),
    /// Firmware generation failed.
    Firmware(rvnv_riscv::AsmError),
    /// A frame's inference failed.
    Run {
        /// Model the frame was tagged with.
        model: String,
        /// The underlying SoC failure.
        source: SocError,
    },
    /// A frame or queue query referenced a model index never added.
    UnknownModel {
        /// The offending index.
        index: usize,
        /// Number of models registered.
        count: usize,
    },
    /// A [`BatchScheduler::run_sequence`] plan asked for more frames of
    /// a model than its queue holds.
    SequenceOverrun {
        /// The model index whose queue ran dry.
        index: usize,
        /// Frames the sequence demands of that model.
        demanded: usize,
        /// Frames actually queued for it.
        queued: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Load(e) => write!(f, "model load failed: {e}"),
            BatchError::Firmware(e) => write!(f, "firmware generation failed: {e}"),
            BatchError::Run { model, source } => write!(f, "frame on {model} failed: {source}"),
            BatchError::UnknownModel { index, count } => {
                write!(f, "model index {index} out of range ({count} models)")
            }
            BatchError::SequenceOverrun {
                index,
                demanded,
                queued,
            } => {
                write!(
                    f,
                    "sequence demands {demanded} frame(s) of model index {index} \
                     but only {queued} are queued"
                )
            }
        }
    }
}

impl Error for BatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BatchError::Load(e) => Some(e),
            BatchError::Firmware(e) => Some(e),
            BatchError::Run { source, .. } => Some(source),
            BatchError::UnknownModel { .. } | BatchError::SequenceOverrun { .. } => None,
        }
    }
}

impl From<rvnv_bus::BusError> for BatchError {
    fn from(e: rvnv_bus::BusError) -> Self {
        BatchError::Load(e)
    }
}

impl From<rvnv_riscv::AsmError> for BatchError {
    fn from(e: rvnv_riscv::AsmError) -> Self {
        BatchError::Firmware(e)
    }
}

/// Accumulated per-model statistics of a drained batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Frames served.
    pub frames: u64,
    /// Modeled SoC cycles summed over the model's frames.
    pub cycles: u64,
    /// Instructions retired summed over the model's frames.
    pub instructions: u64,
    /// Cycles the core spent waiting at the DRAM arbiter (contention
    /// with the NVDLA DBB), summed over the model's frames.
    pub arbiter_wait: u64,
    /// NVDLA DMA traffic in bytes, summed over the model's frames.
    pub dma_bytes: u64,
    /// Modeled cycles spent streaming the model's inputs from the Zynq
    /// PS, summed over the model's frames: the quiet preload cost in a
    /// serial drain, the (possibly contended) measured stream time in a
    /// pipelined one — where all but the pipeline fill overlap compute.
    pub preload_cycles: u64,
    /// Modeled end-to-end service latency, summed over the model's
    /// frames (see [`FrameLatency::cycles`] for the definition).
    pub latency_cycles: u64,
}

impl ModelStats {
    /// Modeled cycles per frame (0 when no frame was served).
    #[must_use]
    pub fn cycles_per_frame(&self) -> u64 {
        self.cycles.checked_div(self.frames).unwrap_or(0)
    }

    /// Modeled service latency per frame (0 when no frame was served).
    #[must_use]
    pub fn latency_per_frame(&self) -> u64 {
        self.latency_cycles.checked_div(self.frames).unwrap_or(0)
    }
}

/// One served frame's modeled service latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLatency {
    /// Index of the model the frame hit, as returned by `add_model`.
    pub model: usize,
    /// Completion-to-completion service cycles. In a serial drain this
    /// is the frame's quiet input preload plus its compute; in a
    /// pipelined drain it is the time the frame added to the stream's
    /// makespan — its (contention-stretched) compute, plus whatever
    /// part of its preload the previous frame's compute failed to hide
    /// (the pipeline fill, for the first frame).
    pub cycles: u64,
    /// Whether this frame carried a pipeline fill (the first frame of a
    /// pipelined drain, whose preload nothing could hide). Always
    /// `false` in a serial drain. Merged parallel reports keep one fill
    /// per worker shard, which is why warm-latency statistics filter on
    /// this flag rather than on position.
    pub fill: bool,
}

/// Result of draining a frame queue.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Drain policy used.
    pub policy: Policy,
    /// Whether the drain overlapped preloads ([`PipelinedScheduler`]).
    pub pipelined: bool,
    /// Per-model statistics, indexed like the scheduler's models.
    pub per_model: Vec<(String, ModelStats)>,
    /// Per-frame service latencies in service order (concatenated per
    /// worker shard after a parallel drain).
    pub frame_latencies: Vec<FrameLatency>,
    /// Modeled cycles from the first preload starting to the last
    /// frame's completion — the stream's end-to-end span on one SoC
    /// (summed across worker shards after a parallel drain, keeping the
    /// single-SoC serving semantics of the other totals).
    pub makespan_cycles: u64,
    /// Host wall-clock seconds spent draining.
    pub host_seconds: f64,
}

impl BatchReport {
    /// Total frames served.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.per_model.iter().map(|(_, s)| s.frames).sum()
    }

    /// Total modeled cycles across all frames.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.per_model.iter().map(|(_, s)| s.cycles).sum()
    }

    /// Total cycles spent waiting at the DRAM arbiter.
    #[must_use]
    pub fn total_arbiter_wait(&self) -> u64 {
        self.per_model.iter().map(|(_, s)| s.arbiter_wait).sum()
    }

    /// Modeled end-to-end throughput in frames per second at `hz`
    /// (frames are served back to back on one SoC).
    #[must_use]
    pub fn modeled_fps(&self, hz: u64) -> f64 {
        if self.total_cycles() == 0 {
            return 0.0;
        }
        self.total_frames() as f64 * hz as f64 / self.total_cycles() as f64
    }

    /// Host-side simulation throughput in frames per second.
    #[must_use]
    pub fn host_fps(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            return 0.0;
        }
        self.total_frames() as f64 / self.host_seconds
    }

    /// Modeled end-to-end throughput in frames per second at `hz` over
    /// the full stream span ([`BatchReport::makespan_cycles`] — preload
    /// included, unlike [`BatchReport::modeled_fps`] which counts
    /// compute cycles only).
    #[must_use]
    pub fn e2e_fps(&self, hz: u64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.total_frames() as f64 * hz as f64 / self.makespan_cycles as f64
    }

    /// Mean modeled service latency per frame, in cycles (0 when no
    /// frame was served).
    #[must_use]
    pub fn mean_frame_latency(&self) -> u64 {
        let n = self.frame_latencies.len() as u64;
        if n == 0 {
            return 0;
        }
        self.frame_latencies.iter().map(|f| f.cycles).sum::<u64>() / n
    }

    /// Mean modeled service latency of the **warm** frames — every
    /// frame that did not carry a pipeline fill
    /// ([`FrameLatency::fill`]; one per worker shard in a merged
    /// parallel report). Falls back to
    /// [`BatchReport::mean_frame_latency`] when every frame was a fill.
    #[must_use]
    pub fn warm_frame_latency(&self) -> u64 {
        let warm: Vec<u64> = self
            .frame_latencies
            .iter()
            .filter(|f| !f.fill)
            .map(|f| f.cycles)
            .collect();
        if warm.is_empty() {
            return self.mean_frame_latency();
        }
        warm.iter().sum::<u64>() / warm.len() as u64
    }

    /// Publish this report into a [`MetricsRegistry`] under the
    /// `batch.*` namespace: stream totals plus one observation per
    /// frame in the `batch.frame_cycles` histogram.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.counter("batch.frames", self.total_frames());
        metrics.counter("batch.cycles", self.total_cycles());
        metrics.counter("batch.arbiter_wait_cycles", self.total_arbiter_wait());
        metrics.counter("batch.makespan_cycles", self.makespan_cycles);
        for frame in &self.frame_latencies {
            metrics.histogram("batch.frame_cycles", frame.cycles);
        }
    }

    /// Merge `other` into `self` (used to combine per-worker shards of
    /// a [`run_parallel`] drain). Panics if the model lists differ.
    fn merge(&mut self, other: &BatchReport) {
        assert_eq!(self.per_model.len(), other.per_model.len(), "model sets");
        assert_eq!(self.pipelined, other.pipelined, "execution model");
        for ((name_a, a), (name_b, b)) in self.per_model.iter_mut().zip(&other.per_model) {
            assert_eq!(name_a, name_b, "model order");
            a.frames += b.frames;
            a.cycles += b.cycles;
            a.instructions += b.instructions;
            a.arbiter_wait += b.arbiter_wait;
            a.dma_bytes += b.dma_bytes;
            a.preload_cycles += b.preload_cycles;
            a.latency_cycles += b.latency_cycles;
        }
        self.frame_latencies
            .extend_from_slice(&other.frame_latencies);
        self.makespan_cycles += other.makespan_cycles;
        self.host_seconds = self.host_seconds.max(other.host_seconds);
    }
}

/// One resident model: its artifacts, prebuilt firmware, and queue of
/// quantized input frames.
struct ModelSlot {
    artifacts: Arc<Artifacts>,
    fw: Firmware,
    queue: VecDeque<Vec<u8>>,
    stats: ModelStats,
    /// Quiet-fabric cycles to stream one input image (the serial
    /// preload cost, and the [`Policy::EarliestFinish`] estimate).
    preload_cycles: u64,
    /// Last observed compute cycles per frame (0 until served once);
    /// the [`Policy::EarliestFinish`] compute estimate.
    est_cycles: u64,
}

/// Drains a tagged frame queue across several models resident on one
/// SoC. See the [module docs](self) for the serving model.
pub struct BatchScheduler {
    soc: Soc,
    policy: Policy,
    models: Vec<ModelSlot>,
    /// Next model index the round-robin rotation considers.
    cursor: usize,
    /// Span sink (disarmed by default: one branch per emission site).
    tracer: Tracer,
    /// The sync track this scheduler's drain spans land on.
    track: TrackId,
}

impl BatchScheduler {
    /// A scheduler over a freshly built SoC.
    #[must_use]
    pub fn new(config: SocConfig, policy: Policy) -> Self {
        BatchScheduler {
            soc: Soc::new(config),
            policy,
            models: Vec::new(),
            cursor: 0,
            tracer: Tracer::disarmed(),
            track: TrackId::NONE,
        }
    }

    /// Emit this scheduler's drain spans into `tracer` on `track`:
    /// per-frame `preload`/`compute` spans on the drain's modeled clock
    /// (each drain restarts at cycle 0). Arming never changes a modeled
    /// cycle or output byte — spans only record values the drain
    /// computed anyway.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Register a model: build its firmware and pin its weight image
    /// alongside the models already resident. Returns the model's index
    /// for tagging frames.
    ///
    /// # Errors
    ///
    /// [`BatchError::Load`] when the model's DRAM footprint overlaps an
    /// already-registered model's (lay the set out with
    /// [`layout_models`]), [`BatchError::Firmware`] when codegen fails.
    pub fn add_model(
        &mut self,
        artifacts: Arc<Artifacts>,
        codegen: CodegenOptions,
    ) -> Result<usize, BatchError> {
        let fw = Firmware::build_with(&artifacts, codegen)?;
        self.soc.load_artifacts(&artifacts)?;
        let preload_cycles = self
            .soc
            .input_preload_cycles(artifacts.input_addr, artifacts.input_len);
        self.models.push(ModelSlot {
            artifacts,
            fw,
            queue: VecDeque::new(),
            stats: ModelStats::default(),
            preload_cycles,
            est_cycles: 0,
        });
        Ok(self.models.len() - 1)
    }

    /// Queue one frame for `model`, quantizing the input.
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] for an index [`add_model`](Self::add_model)
    /// never returned.
    pub fn enqueue(&mut self, model: usize, input: &Tensor) -> Result<(), BatchError> {
        let slot = self.models.get(model).ok_or(BatchError::UnknownModel {
            index: model,
            count: self.models.len(),
        })?;
        let bytes = slot.artifacts.quantize_input(input);
        self.enqueue_bytes(model, bytes)
    }

    /// Queue one pre-quantized frame for `model`.
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] for an out-of-range index.
    pub fn enqueue_bytes(&mut self, model: usize, bytes: Vec<u8>) -> Result<(), BatchError> {
        let count = self.models.len();
        let slot = self.models.get_mut(model).ok_or(BatchError::UnknownModel {
            index: model,
            count,
        })?;
        slot.queue.push_back(bytes);
        Ok(())
    }

    /// Frames still queued across all models.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.models.iter().map(|m| m.queue.len()).sum()
    }

    /// Number of registered models.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The underlying SoC (e.g. to inspect residency).
    #[must_use]
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Pick the model to serve next, per policy. `None` when idle.
    /// `current` is the frame about to compute while the picked frame
    /// preloads (pipelined drains); a serial drain passes `None`, so
    /// nothing can hide and [`Policy::EarliestFinish`] degenerates to
    /// shortest-estimated-job-first.
    fn next_model_with(&mut self, current: Option<usize>) -> Option<usize> {
        match self.policy {
            Policy::RoundRobin => {
                let n = self.models.len();
                let pick = (0..n)
                    .map(|off| (self.cursor + off) % n)
                    .find(|&i| !self.models[i].queue.is_empty())?;
                self.cursor = (pick + 1) % n;
                Some(pick)
            }
            Policy::ShortestQueueFirst => self
                .models
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.queue.is_empty())
                .min_by_key(|(i, m)| (m.queue.len(), *i))
                .map(|(i, _)| i),
            Policy::EarliestFinish => {
                // Estimated completion: the picked frame's preload runs
                // under the current frame's compute (what overlap can
                // hide, hides), then its own compute follows.
                let hide = current.map_or(0, |i| self.models[i].est_cycles);
                self.models
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !m.queue.is_empty())
                    .min_by_key(|(i, m)| (m.preload_cycles.max(hide) + m.est_cycles, *i))
                    .map(|(i, _)| i)
            }
        }
    }

    /// [`BatchScheduler::next_model_with`] for the serial drain.
    fn next_model(&mut self) -> Option<usize> {
        self.next_model_with(None)
    }

    /// Zero the per-drain statistics (every drain reports only the
    /// frames it serves).
    fn reset_run_state(&mut self) {
        for m in &mut self.models {
            m.stats = ModelStats::default();
            m.est_cycles = 0;
        }
    }

    /// Collect the drained statistics into a [`BatchReport`].
    fn report(
        &mut self,
        pipelined: bool,
        frame_latencies: Vec<FrameLatency>,
        makespan_cycles: u64,
        start: Instant,
    ) -> BatchReport {
        let per_model = self
            .models
            .iter_mut()
            .map(|m| (m.artifacts.model.clone(), std::mem::take(&mut m.stats)))
            .collect();
        BatchReport {
            policy: self.policy,
            pipelined,
            per_model,
            frame_latencies,
            makespan_cycles,
            host_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Check that `seq` fits the registered models and their queues
    /// (every model index in range, no queue asked for more frames than
    /// it holds), so a sequence drain can never panic mid-stream.
    fn validate_sequence(&self, seq: &[usize]) -> Result<(), BatchError> {
        let mut demanded = vec![0usize; self.models.len()];
        for &i in seq {
            let slot = demanded.get_mut(i).ok_or(BatchError::UnknownModel {
                index: i,
                count: self.models.len(),
            })?;
            *slot += 1;
        }
        for (i, &d) in demanded.iter().enumerate() {
            let queued = self.models[i].queue.len();
            if d > queued {
                return Err(BatchError::SequenceOverrun {
                    index: i,
                    demanded: d,
                    queued,
                });
            }
        }
        Ok(())
    }

    /// Serve the head frame of model `i` serially (full in-place reset,
    /// quiet input preload, compute), updating the model's statistics —
    /// the shared step of [`run_with`](Self::run_with) and
    /// [`run_sequence`](Self::run_sequence).
    fn serve_one(
        &mut self,
        i: usize,
        makespan: &mut u64,
        frame_latencies: &mut Vec<FrameLatency>,
        on_frame: &mut impl FnMut(usize, &InferenceResult),
    ) -> Result<(), BatchError> {
        let slot = &mut self.models[i];
        let bytes = slot.queue.pop_front().expect("picked model has a frame");
        let result = self
            .soc
            .run_firmware(&slot.artifacts, &bytes, &slot.fw)
            .map_err(|source| BatchError::Run {
                model: slot.artifacts.model.clone(),
                source,
            })?;
        // A serial frame's service latency: stream the input (quiet
        // fabric — nothing else runs), then compute.
        let latency = slot.preload_cycles + result.cycles;
        slot.stats.frames += 1;
        slot.stats.cycles += result.cycles;
        slot.stats.instructions += result.instructions;
        slot.stats.arbiter_wait += result.cpu_arbiter_wait;
        slot.stats.dma_bytes += result.nvdla.total_dma_bytes();
        slot.stats.preload_cycles += slot.preload_cycles;
        slot.stats.latency_cycles += latency;
        slot.est_cycles = result.cycles;
        frame_latencies.push(FrameLatency {
            model: i,
            cycles: latency,
            fill: false,
        });
        if self.tracer.is_armed() {
            // The serial drain clock is the running makespan: this
            // frame occupied [makespan, makespan + latency].
            let name = &self.models[i].artifacts.model;
            let pre = self.models[i].preload_cycles;
            let t0 = *makespan;
            self.tracer
                .span(self.track, SpanKind::Preload, t0, t0 + pre, name);
            self.tracer
                .span(self.track, SpanKind::Compute, t0 + pre, t0 + latency, name);
        }
        *makespan += latency;
        on_frame(i, &result);
        Ok(())
    }

    /// Drain every queued frame, invoking `on_frame(model, result)`
    /// after each inference (tests and benches use the hook to check
    /// bit-identity against cold single-model runs).
    ///
    /// # Errors
    ///
    /// [`BatchError::Run`] on the first failing frame; the failed
    /// drain's earlier frames are not reported (each drain's statistics
    /// start from zero, so a retry counts only the frames it serves).
    pub fn run_with(
        &mut self,
        mut on_frame: impl FnMut(usize, &InferenceResult),
    ) -> Result<BatchReport, BatchError> {
        let start = Instant::now();
        self.reset_run_state();
        let mut frame_latencies = Vec::new();
        let mut makespan = 0u64;
        while let Some(i) = self.next_model() {
            self.serve_one(i, &mut makespan, &mut frame_latencies, &mut on_frame)?;
        }
        Ok(self.report(false, frame_latencies, makespan, start))
    }

    /// Serve frames in an externally chosen model order, bypassing the
    /// policy: entry `k` of `seq` pops the head of model `seq[k]`'s
    /// queue. Frames not named by `seq` stay queued. This is the
    /// dispatch primitive of the serving layer ([`crate::serve`]),
    /// whose admission simulation decides the order and then replays it
    /// on a real worker SoC.
    ///
    /// ```
    /// use rvnv_compiler::codegen::CodegenOptions;
    /// use rvnv_compiler::{compile, CompileOptions};
    /// use rvnv_nn::{zoo, Tensor};
    /// use rvnv_soc::batch::{BatchScheduler, Policy};
    /// use rvnv_soc::soc::SocConfig;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let net = zoo::lenet5(1);
    /// let mut opt = CompileOptions::int8();
    /// opt.calib_inputs = 1;
    /// let artifacts = Arc::new(compile(&net, &opt)?);
    /// let mut sched =
    ///     BatchScheduler::new(SocConfig::zcu102_timing_only(), Policy::RoundRobin);
    /// let model = sched.add_model(artifacts, CodegenOptions::default())?;
    /// for seed in 0..3 {
    ///     sched.enqueue(model, &Tensor::random(net.input_shape(), seed))?;
    /// }
    /// // Serve only the first two queued frames, in plan order.
    /// let report = sched.run_sequence(&[model, model])?;
    /// assert_eq!(report.total_frames(), 2);
    /// assert_eq!(sched.pending(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] / [`BatchError::SequenceOverrun`]
    /// when `seq` does not fit the queues (checked up front, before any
    /// frame runs), [`BatchError::Run`] on the first failing frame.
    pub fn run_sequence(&mut self, seq: &[usize]) -> Result<BatchReport, BatchError> {
        self.validate_sequence(seq)?;
        let start = Instant::now();
        self.reset_run_state();
        let mut frame_latencies = Vec::new();
        let mut makespan = 0u64;
        for &i in seq {
            self.serve_one(i, &mut makespan, &mut frame_latencies, &mut |_, _| {})?;
        }
        Ok(self.report(false, frame_latencies, makespan, start))
    }

    /// Drain every queued frame. See [`run_with`](Self::run_with).
    ///
    /// ```
    /// use rvnv_compiler::codegen::CodegenOptions;
    /// use rvnv_compiler::{compile, CompileOptions};
    /// use rvnv_nn::{zoo, Tensor};
    /// use rvnv_soc::batch::{BatchScheduler, Policy};
    /// use rvnv_soc::soc::SocConfig;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let net = zoo::lenet5(1);
    /// let mut opt = CompileOptions::int8();
    /// opt.calib_inputs = 1;
    /// let artifacts = Arc::new(compile(&net, &opt)?);
    ///
    /// let mut sched =
    ///     BatchScheduler::new(SocConfig::zcu102_timing_only(), Policy::RoundRobin);
    /// let model = sched.add_model(artifacts, CodegenOptions::default())?;
    /// sched.enqueue(model, &Tensor::random(net.input_shape(), 7))?;
    /// sched.enqueue(model, &Tensor::random(net.input_shape(), 8))?;
    ///
    /// let report = sched.run()?;
    /// assert_eq!(report.total_frames(), 2);
    /// // Serial frames replay from a full reset: compute cycles are
    /// // policy-independent, and each frame's latency adds its quiet
    /// // input-preload cost on top.
    /// assert!(report.mean_frame_latency() > report.total_cycles() / 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`BatchError::Run`] on the first failing frame.
    pub fn run(&mut self) -> Result<BatchReport, BatchError> {
        self.run_with(|_, _| {})
    }
}

/// A frame awaiting service: which model, and the quantized input.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Index into the model list.
    pub model: usize,
    /// Pre-quantized input bytes.
    pub bytes: Vec<u8>,
}

/// Drain `frames` across `threads` SoC replicas, each with every model
/// in `models` resident, sharding the stream round-robin (frame `i` to
/// worker `i % threads`) and merging the per-worker reports.
///
/// With serial workers (`pipelined == false`) modeled cycles are
/// shard-independent — each frame is a full in-place reset — so the
/// merged totals equal a single-SoC drain of the same frames; only host
/// wall-clock changes with the fan-out. With **pipelined** workers each
/// replica drains its shard through a [`PipelinedScheduler`],
/// overlapping every shard-internal preload: output bytes stay
/// bit-identical to the serial drain, each worker's modeled cycles
/// reflect its own shard's contention, and the merged makespan keeps
/// the single-SoC serving semantics (shards summed).
///
/// Spans land in `tracer` (pass [`Tracer::disarmed`] for none): each
/// worker shard drains on its own "batch worker N" sync track —
/// per-frame `preload`/`compute` spans on the shard's modeled clock, or
/// for pipelined workers one `drain` parent span wrapping the `ps_burst`
/// fill and the per-frame `compute`/`ps_burst` pipeline children.
/// Arming the tracer never changes a modeled cycle or output byte.
///
/// ```
/// use rvnv_compiler::codegen::CodegenOptions;
/// use rvnv_compiler::{ArtifactCache, CompileOptions};
/// use rvnv_nn::{zoo, Tensor};
/// use rvnv_obs::Tracer;
/// use rvnv_soc::batch::{layout_models, run_parallel, Frame, Policy};
/// use rvnv_soc::soc::SocConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = zoo::lenet5(1);
/// let mut opt = CompileOptions::int8();
/// opt.calib_inputs = 1;
/// let cache = ArtifactCache::new();
/// let models = layout_models(&cache, &[net.clone()], &opt)?;
/// let frames: Vec<Frame> = (0..2)
///     .map(|i| Frame {
///         model: 0,
///         bytes: models[0].quantize_input(&Tensor::random(net.input_shape(), i)),
///     })
///     .collect();
///
/// let report = run_parallel(
///     &SocConfig::zcu102_timing_only(),
///     Policy::RoundRobin,
///     &models,
///     CodegenOptions::default(),
///     &frames,
///     2,
///     false,
///     &Tracer::disarmed(),
/// )?;
/// assert_eq!(report.total_frames(), 2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// The first worker error, in worker order.
///
/// # Panics
///
/// Panics if a worker thread panics (propagated by [`fan_out`]).
#[allow(clippy::too_many_arguments)]
pub fn run_parallel(
    config: &SocConfig,
    policy: Policy,
    models: &[Arc<Artifacts>],
    codegen: CodegenOptions,
    frames: &[Frame],
    threads: usize,
    pipelined: bool,
    tracer: &Tracer,
) -> Result<BatchReport, BatchError> {
    let threads = threads.clamp(1, frames.len().max(1));
    let mut shards = fan_out(threads, threads, |w| -> Result<BatchReport, BatchError> {
        let shard = frames.iter().skip(w).step_by(threads);
        let mut sched = PipelinedScheduler::loaded(
            config,
            policy,
            models,
            codegen,
            shard.map(|f| (f.model, f.bytes.clone())),
        )?;
        if tracer.is_armed() {
            let track = tracer.track(&format!("batch worker {w}"), TrackKind::Sync);
            sched.set_tracer(tracer.clone(), track);
        }
        if pipelined {
            sched.run()
        } else {
            sched.inner.run()
        }
    })
    .into_iter();
    let mut merged = shards.next().expect("at least one worker")?;
    for shard in shards {
        merged.merge(&shard?);
    }
    Ok(merged)
}

/// The double-buffered input layout for a pipelined drain over
/// `models` (laid out by [`layout_models`]): two [`MODEL_BASE_ALIGN`]ed
/// staging slots past every model's footprint, each large enough for
/// the largest input image. Returns the two slot base addresses and the
/// slot capacity in bytes.
///
/// While frame N computes reading its input from slot `N % 2` (flipped
/// to the model's input buffer at frame start), the Zynq PS streams
/// frame N+1's input into slot `(N+1) % 2` — never into DRAM the
/// models own, so an in-flight preload can't clobber weights or the
/// computing frame's data.
///
/// ```
/// use rvnv_compiler::{ArtifactCache, CompileOptions};
/// use rvnv_nn::zoo;
/// use rvnv_soc::batch::{input_slots, layout_models};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut opt = CompileOptions::int8();
/// opt.calib_inputs = 1;
/// let cache = ArtifactCache::new();
/// let models = layout_models(&cache, &[zoo::lenet5(1), zoo::lenet5(2)], &opt)?;
///
/// let (slots, len) = input_slots(&models);
/// // Slot 0 past every model footprint, slot 1 past slot 0 — both
/// // disjoint from the resident weight images.
/// let high = models.iter().map(|a| a.dram_used).max().unwrap();
/// assert!(slots[0] >= high);
/// assert!(u64::from(slots[1]) >= u64::from(slots[0]) + len as u64);
/// // Either slot fits the largest model's input image.
/// assert_eq!(len, models.iter().map(|a| a.input_len).max().unwrap());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn input_slots(models: &[Arc<Artifacts>]) -> ([u32; 2], usize) {
    // u64 arithmetic throughout: a footprint near the top of the 4 GB
    // address space must saturate (and then fail the scheduler's
    // bounds check) rather than wrap a slot down into the models' DRAM.
    let align = u64::from(MODEL_BASE_ALIGN);
    let high = models
        .iter()
        .map(|a| u64::from(a.dram_used))
        .max()
        .unwrap_or(0);
    let base = high.div_ceil(align) * align;
    let len = models.iter().map(|a| a.input_len).max().unwrap_or(0);
    let stride = (len as u64).div_ceil(align).max(1) * align;
    let cap = u64::from(u32::MAX);
    ([base.min(cap) as u32, (base + stride).min(cap) as u32], len)
}

/// Drains a tagged frame queue with **overlapped preload**: while frame
/// N computes on the NVDLA, the Zynq PS streams frame N+1's input into
/// the other half of a double-buffered slot pair ([`input_slots`])
/// through the SmartConnect, chunk by chunk, contending with frame N's
/// DMA traffic at the DRAM arbiter. Between frames the fabric takes a
/// **scoped** reset that clears the previous frame's input/activation
/// extents while keeping both the resident weight images and the
/// in-flight preload intact.
///
/// Output bytes are bit-identical to a serial [`BatchScheduler`] drain
/// of the same frames (the overlap moves cycles, never data), but
/// modeled cycles become policy-dependent: each frame's contention
/// depends on which frame preloads behind it, so [`Policy`] choices
/// genuinely trade per-frame latency against stream makespan. See the
/// [module docs](self) and `docs/SCHEDULING.md`.
pub struct PipelinedScheduler {
    inner: BatchScheduler,
}

impl PipelinedScheduler {
    /// A pipelined scheduler over a freshly built SoC.
    #[must_use]
    pub fn new(config: SocConfig, policy: Policy) -> Self {
        PipelinedScheduler {
            inner: BatchScheduler::new(config, policy),
        }
    }

    /// A scheduler over a fresh SoC with `models` resident and `frames`
    /// — `(model, input bytes)` — queued in order: the set-up every
    /// [`run_parallel`] shard and every serving replay
    /// ([`crate::serve`]) starts from. The worker mode is a property of
    /// the drain, not of the scheduler, so one constructor serves both.
    pub(crate) fn loaded(
        config: &SocConfig,
        policy: Policy,
        models: &[Arc<Artifacts>],
        codegen: CodegenOptions,
        frames: impl IntoIterator<Item = (usize, Vec<u8>)>,
    ) -> Result<Self, BatchError> {
        let mut sched = PipelinedScheduler::new(config.clone(), policy);
        for artifacts in models {
            sched.add_model(artifacts.clone(), codegen)?;
        }
        for (model, bytes) in frames {
            sched.enqueue_bytes(model, bytes)?;
        }
        Ok(sched)
    }

    /// [`PipelinedScheduler::run_sequence`] when `pipelined`, else the
    /// serial [`BatchScheduler::run_sequence`] on the same SoC.
    pub(crate) fn drain_sequence(
        &mut self,
        pipelined: bool,
        seq: &[usize],
    ) -> Result<BatchReport, BatchError> {
        if pipelined {
            self.run_sequence(seq)
        } else {
            self.inner.run_sequence(seq)
        }
    }

    /// Register a model. See [`BatchScheduler::add_model`].
    ///
    /// # Errors
    ///
    /// [`BatchError::Load`] on footprint overlap,
    /// [`BatchError::Firmware`] when codegen fails.
    pub fn add_model(
        &mut self,
        artifacts: Arc<Artifacts>,
        codegen: CodegenOptions,
    ) -> Result<usize, BatchError> {
        self.inner.add_model(artifacts, codegen)
    }

    /// Emit drain spans into `tracer` on `track`: one `drain` parent
    /// per burst with `ps_burst`/`compute` child spans. See
    /// [`BatchScheduler::set_tracer`].
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.inner.set_tracer(tracer, track);
    }

    /// Queue one frame for `model`, quantizing the input.
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] for an out-of-range index.
    pub fn enqueue(&mut self, model: usize, input: &Tensor) -> Result<(), BatchError> {
        self.inner.enqueue(model, input)
    }

    /// Queue one pre-quantized frame for `model`.
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] for an out-of-range index.
    pub fn enqueue_bytes(&mut self, model: usize, bytes: Vec<u8>) -> Result<(), BatchError> {
        self.inner.enqueue_bytes(model, bytes)
    }

    /// Frames still queued across all models.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner.pending()
    }

    /// Number of registered models.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.inner.model_count()
    }

    /// The underlying SoC (e.g. to inspect residency).
    #[must_use]
    pub fn soc(&self) -> &Soc {
        self.inner.soc()
    }

    /// The double-buffer staging layout the drain will use.
    ///
    /// # Errors
    ///
    /// [`BatchError::Load`] when the slots do not fit in DRAM.
    fn staging(&self) -> Result<([u32; 2], usize), BatchError> {
        let models: Vec<Arc<Artifacts>> = self
            .inner
            .models
            .iter()
            .map(|m| m.artifacts.clone())
            .collect();
        let (slots, len) = input_slots(&models);
        let high = models
            .iter()
            .map(|a| u64::from(a.dram_used))
            .max()
            .unwrap_or(0);
        let dram = self.inner.soc.config().dram_bytes as u64;
        // Strict layout invariants, robust against the saturated-slot
        // case: slot 0 past every footprint, slot 1 past slot 0, both
        // inside the device.
        let ok = u64::from(slots[0]) >= high
            && u64::from(slots[1]) >= u64::from(slots[0]) + len as u64
            && u64::from(slots[1]) + len as u64 <= dram;
        if !ok {
            return Err(BatchError::Load(rvnv_bus::BusError::OutOfRange {
                addr: slots[1],
                len,
                size: self.inner.soc.config().dram_bytes,
            }));
        }
        Ok((slots, len))
    }

    /// Drain every queued frame with overlapped preload, invoking
    /// `on_frame(model, result)` after each inference (tests and
    /// benches use the hook to check bit-identity against serial
    /// drains).
    ///
    /// The first frame's input streams on a quiet fabric (the pipeline
    /// fill); every later frame's input streams under the previous
    /// frame's compute. A frame's recorded latency is the time it added
    /// to the stream's makespan (completion-to-completion).
    ///
    /// # Errors
    ///
    /// [`BatchError::Run`] on the first failing frame,
    /// [`BatchError::Load`] when the staging slots do not fit in DRAM.
    ///
    /// # Panics
    ///
    /// Panics if a registered model's firmware no longer fits program
    /// memory (impossible through [`add_model`](Self::add_model)).
    pub fn run_with(
        &mut self,
        on_frame: impl FnMut(usize, &InferenceResult),
    ) -> Result<BatchReport, BatchError> {
        self.drain_with(BatchScheduler::next_model_with, on_frame)
    }

    /// The pipelined drain loop, generalized over how the next frame is
    /// chosen: `pick(sched, current)` returns the model whose head
    /// frame preloads behind `current`'s compute (`None` ends the
    /// stream). [`run_with`](Self::run_with) picks by policy;
    /// [`run_sequence`](Self::run_sequence) replays an external plan.
    fn drain_with(
        &mut self,
        mut pick: impl FnMut(&mut BatchScheduler, Option<usize>) -> Option<usize>,
        mut on_frame: impl FnMut(usize, &InferenceResult),
    ) -> Result<BatchReport, BatchError> {
        let start = Instant::now();
        self.inner.reset_run_state();
        let (slots, _) = self.staging()?;
        let sched = &mut self.inner;
        let mut frame_latencies = Vec::new();
        let Some(mut cur) = pick(sched, None) else {
            return Ok(sched.report(true, frame_latencies, 0, start));
        };
        let first_bytes = sched.models[cur]
            .queue
            .pop_front()
            .expect("picked model has a frame");
        let mut cur_slot = 0usize;
        // Pipeline fill: the first input streams on a quiet, PS-owned
        // fabric — the one preload nothing can hide.
        sched.soc.set_pipelined(true);
        sched.soc.quiesce();
        let fill = sched
            .soc
            .ps_stream(slots[cur_slot], &first_bytes, 0)
            .map_err(BatchError::Load)?;
        drop(first_bytes);
        // The whole burst nests under one `drain` span (closed at the
        // last completion); frame spans are its children.
        let drain_ref = if sched.tracer.is_armed() {
            let d = sched.tracer.begin(sched.track, SpanKind::Drain, 0, "drain");
            sched.tracer.child(
                d,
                sched.track,
                SpanKind::PsBurst,
                0,
                fill,
                &sched.models[cur].artifacts.model,
            );
            d
        } else {
            SpanRef::NONE
        };
        // Global pipeline clock: `t_global` is where the current frame's
        // compute window starts, `pending_preload` the cycles spent
        // streaming the current frame's input (attributed to it).
        let mut pending_preload = fill;
        let mut t_global = fill;
        let mut prev_completion = 0u64;
        let mut carries_fill = true;
        loop {
            let next = pick(sched, Some(cur));
            let next_bytes = next.map(|i| {
                sched.models[i]
                    .queue
                    .pop_front()
                    .expect("picked model has a frame")
            });
            let next_slot = cur_slot ^ 1;
            let out = match sched.soc.run_firmware_staged(
                &sched.models[cur].artifacts,
                slots[cur_slot],
                &sched.models[cur].fw,
                next_bytes.as_deref().map(|b| (slots[next_slot], b)),
            ) {
                Ok(out) => out,
                Err(source) => {
                    // Hand the staged-but-unserved frame back before
                    // reporting, so a retry still sees it queued.
                    if let (Some(i), Some(b)) = (next, next_bytes) {
                        sched.models[i].queue.push_front(b);
                    }
                    return Err(BatchError::Run {
                        model: sched.models[cur].artifacts.model.clone(),
                        source,
                    });
                }
            };
            let result = out.result;
            // The next window opens once this compute *and* the
            // overlapped preload (flushed past `ebreak` if compute was
            // too short to cover it) are both done.
            let window = result.cycles.max(out.preload_done);
            let completion = t_global + result.cycles;
            let latency = completion - prev_completion;
            let stats = &mut sched.models[cur].stats;
            stats.frames += 1;
            stats.cycles += result.cycles;
            stats.instructions += result.instructions;
            stats.arbiter_wait += result.cpu_arbiter_wait;
            stats.dma_bytes += result.nvdla.total_dma_bytes();
            stats.preload_cycles += pending_preload;
            stats.latency_cycles += latency;
            sched.models[cur].est_cycles = result.cycles;
            frame_latencies.push(FrameLatency {
                model: cur,
                cycles: latency,
                fill: carries_fill,
            });
            carries_fill = false;
            prev_completion = completion;
            if sched.tracer.is_armed() {
                sched.tracer.child(
                    drain_ref,
                    sched.track,
                    SpanKind::Compute,
                    t_global,
                    completion,
                    &sched.models[cur].artifacts.model,
                );
                if let Some(i) = next {
                    if window > result.cycles {
                        // The staged successor's input still streaming
                        // after this frame's compute retired.
                        sched.tracer.child(
                            drain_ref,
                            sched.track,
                            SpanKind::PsBurst,
                            completion,
                            t_global + window,
                            &sched.models[i].artifacts.model,
                        );
                    }
                }
            }
            t_global += window;
            on_frame(cur, &result);
            match next {
                Some(i) => {
                    pending_preload = out.preload_done;
                    cur = i;
                    cur_slot = next_slot;
                }
                None => break,
            }
        }
        sched.tracer.end(drain_ref, prev_completion);
        // The stream's span ends at the last frame's completion.
        Ok(sched.report(true, frame_latencies, prev_completion, start))
    }

    /// Drain every queued frame with overlapped preload. See
    /// [`run_with`](Self::run_with).
    ///
    /// ```
    /// use rvnv_compiler::codegen::CodegenOptions;
    /// use rvnv_compiler::{compile, CompileOptions};
    /// use rvnv_nn::{zoo, Tensor};
    /// use rvnv_soc::batch::{PipelinedScheduler, Policy};
    /// use rvnv_soc::soc::SocConfig;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let net = zoo::lenet5(1);
    /// let mut opt = CompileOptions::int8();
    /// opt.calib_inputs = 1;
    /// let artifacts = Arc::new(compile(&net, &opt)?);
    ///
    /// let mut sched =
    ///     PipelinedScheduler::new(SocConfig::zcu102_timing_only(), Policy::RoundRobin);
    /// let model = sched.add_model(artifacts, CodegenOptions::default())?;
    /// sched.enqueue(model, &Tensor::random(net.input_shape(), 7))?;
    /// sched.enqueue(model, &Tensor::random(net.input_shape(), 8))?;
    ///
    /// let report = sched.run()?;
    /// assert_eq!(report.total_frames(), 2);
    /// assert!(report.pipelined);
    /// // Exactly one frame carried the pipeline fill (the first
    /// // preload, which nothing could hide); the other ran warm with
    /// // its input streamed during the fill frame's compute.
    /// let fills = report.frame_latencies.iter().filter(|f| f.fill).count();
    /// assert_eq!(fills, 1);
    /// assert!(report.warm_frame_latency() <= report.mean_frame_latency());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`BatchError::Run`] on the first failing frame,
    /// [`BatchError::Load`] when the staging slots do not fit in DRAM.
    pub fn run(&mut self) -> Result<BatchReport, BatchError> {
        self.run_with(|_, _| {})
    }

    /// Drain one pipelined **burst** in an externally chosen model
    /// order, bypassing the policy: entry `k` of `seq` pops the head of
    /// model `seq[k]`'s queue, and entry `k+1`'s input streams behind
    /// entry `k`'s compute. Frames not named by `seq` stay queued, so a
    /// serving worker can replay its dispatch plan burst by burst (each
    /// burst paying one pipeline fill — see [`crate::serve`]).
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownModel`] / [`BatchError::SequenceOverrun`]
    /// when `seq` does not fit the queues (checked up front, before any
    /// frame runs), [`BatchError::Run`] on the first failing frame,
    /// [`BatchError::Load`] when the staging slots do not fit in DRAM.
    pub fn run_sequence(&mut self, seq: &[usize]) -> Result<BatchReport, BatchError> {
        self.inner.validate_sequence(seq)?;
        let mut order = seq.iter().copied();
        self.drain_with(move |_, _| order.next(), |_, _| {})
    }
}
