//! The co-simulated SoC (paper Fig. 2).

use std::error::Error;
use std::fmt;

use rvnv_bus::arbiter::Arbiter;
use rvnv_bus::bridge::{AhbToApb, AhbToAxi};
use rvnv_bus::cdc::ClockCrossing;
use rvnv_bus::decoder::{SystemBus, DRAM_BASE, DRAM_SIZE, NVDLA_BASE, NVDLA_SIZE};
use rvnv_bus::dram::{Dram, DramTimeline, DramTiming, DramWork, RangeSet};
use rvnv_bus::fault::{FaultInjector, FaultPlan, FaultStats};
use rvnv_bus::smartconnect::{Side, SmartConnect};
use rvnv_bus::sram::Sram;
use rvnv_bus::width::WidthConverter;
use rvnv_bus::{axi::AxiConfig, BusError, MasterId, Payload, Reset, Shared, Target};
use rvnv_compiler::Artifacts;
use rvnv_nn::hash::Fnv;
use rvnv_nn::Tensor;
use rvnv_nvdla::{HwConfig, Nvdla, NvdlaStats, Precision};
use rvnv_obs::{MetricsRegistry, SpanKind, Tracer, TrackId};
use rvnv_riscv::block_cache::{BlockCache, BlockCacheStats};
use rvnv_riscv::cpu::{Core, CpuError, StopReason};
use rvnv_riscv::pipeline::PipelineStats;

use crate::firmware::Firmware;

/// The shared DRAM path: arbiter → clock crossing → SmartConnect →
/// fault-injection shim → DDR4. The shim is a disarmed passthrough
/// unless a chaos plan is [armed](Soc::arm_faults); backdoor loads and
/// peeks reach the DRAM underneath it and are never faulted.
pub type DramPath = Shared<Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>>;
/// The NVDLA instance with its width-converted DBB.
pub type SocNvdla = Shared<Nvdla<WidthConverter<DramPath>>>;

/// Arbiter → clock crossing → SmartConnect in front of `device`: the
/// one definition of the DRAM path, for the SoC's fabric and for the
/// quiet twin [`Soc::input_preload_cycles`] runs.
fn dram_path<D: Target>(device: D, config: &SocConfig) -> Arbiter<ClockCrossing<SmartConnect<D>>> {
    let mux = SmartConnect::new(device);
    Arbiter::new(ClockCrossing::new(mux, config.soc_hz, config.mem_hz, 2))
}

/// Largest single burst the Zynq PS preload DMA issues (AXI bursts are
/// bounded — 4 KB address boundary, 256 beats — and the PS DMA moves
/// data in bounded descriptors). A [`Soc::ps_stream`] larger than this
/// becomes a chunk sequence, which is what lets an overlapped preload
/// *interleave* with the NVDLA's DMA bursts at the arbiter instead of
/// holding the DRAM for the whole image.
pub const PS_CHUNK_BYTES: usize = 512;

/// An in-flight PS preload: the chunked stream of one input image into
/// its double-buffer slot, pumped forward as modeled time advances.
struct PreloadPump<'a> {
    addr: u32,
    bytes: &'a [u8],
    offset: usize,
    /// When the next chunk issues (the PS streams back to back).
    next_due: u64,
    /// Completion cycle of the last chunk issued so far.
    done: u64,
}

impl<'a> PreloadPump<'a> {
    fn new(addr: u32, bytes: &'a [u8], now: u64) -> Self {
        PreloadPump {
            addr,
            bytes,
            offset: 0,
            next_due: now,
            done: now,
        }
    }
}

/// SoC configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// NVDLA hardware configuration.
    pub hw: HwConfig,
    /// System (core + NVDLA) clock in Hz.
    pub soc_hz: u64,
    /// Memory controller clock in Hz.
    pub mem_hz: u64,
    /// DRAM timing parameters.
    pub dram_timing: DramTiming,
    /// DRAM size in bytes.
    pub dram_bytes: usize,
    /// Program memory size in bytes.
    pub progmem_bytes: usize,
    /// Compute functionally (`false` = timing-only, for large sweeps).
    pub functional: bool,
    /// Capture the per-operation execution timeline into
    /// [`InferenceResult::timeline`]. Costs one `Vec` copy per run;
    /// timing-only sweeps turn it off and read cycle counts alone.
    pub capture_timeline: bool,
    /// Instruction budget for one inference.
    pub max_instructions: u64,
    /// Run the core through its decoded-basic-block cache (host-side
    /// speedup only; modeled cycles, instruction counts and outputs are
    /// bit-identical either way — the determinism-fingerprint harness
    /// pins this). The decoded firmware is kept warm across runs,
    /// keyed by a hash of the firmware image.
    pub block_cache: bool,
}

impl SocConfig {
    /// The paper's FPGA configuration: `nv_small`, 100 MHz system clock,
    /// 100 MHz MIG DDR4, 512 MB DRAM (Table II).
    #[must_use]
    pub fn zcu102_nv_small() -> Self {
        SocConfig {
            hw: HwConfig::nv_small(),
            soc_hz: 100_000_000,
            mem_hz: 100_000_000,
            dram_timing: DramTiming::mig_ddr4(),
            dram_bytes: 512 << 20,
            progmem_bytes: 1 << 20,
            functional: true,
            capture_timeline: true,
            max_instructions: 2_000_000_000,
            block_cache: true,
        }
    }

    /// Timing-only variant for large-model sweeps: functional compute
    /// and timeline capture are both off, leaving pure cycle accounting.
    #[must_use]
    pub fn zcu102_timing_only() -> Self {
        SocConfig {
            functional: false,
            capture_timeline: false,
            ..Self::zcu102_nv_small()
        }
    }

    /// The `nv_full`-class configuration: the same ZCU102 platform and
    /// clocks, but the full-size NVDLA (64×32 MACs, larger buffers).
    /// This is the "big pool" class of a heterogeneous fleet
    /// ([`crate::fleet`]); its per-frame compute is genuinely cheaper
    /// because the compiler re-lowers every layer for the wider datapath.
    #[must_use]
    pub fn zcu102_nv_full() -> Self {
        SocConfig {
            hw: HwConfig::nv_full(),
            ..Self::zcu102_nv_small()
        }
    }

    /// Timing-only `nv_full` variant (the fleet serving flow).
    #[must_use]
    pub fn zcu102_nv_full_timing_only() -> Self {
        SocConfig {
            functional: false,
            capture_timeline: false,
            ..Self::zcu102_nv_full()
        }
    }

    /// Convert a cycle count at the SoC clock into milliseconds.
    #[must_use]
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 * 1000.0 / self.soc_hz as f64
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        Self::zcu102_nv_small()
    }
}

/// SoC execution failure.
#[derive(Debug)]
pub enum SocError {
    /// The core trapped.
    Cpu(CpuError),
    /// A bus/DRAM preload problem.
    Bus(BusError),
    /// Firmware generation failed.
    Firmware(rvnv_riscv::AsmError),
    /// The instruction budget ran out before `ebreak`.
    Timeout {
        /// Instructions executed.
        instructions: u64,
    },
    /// The cycle-budget watchdog fired: modeled time passed the armed
    /// deadline before the firmware reached `ebreak`. Unlike
    /// [`SocError::Timeout`] (a host-side instruction budget), this is
    /// the *modeled* hang detector — a poll loop stuck on a wedged
    /// accelerator trips it after `deadline` SoC cycles instead of
    /// spinning to the instruction cap.
    WatchdogExpired {
        /// The armed deadline, in SoC cycles.
        deadline: u64,
        /// Modeled cycle at which the watchdog fired.
        cycles: u64,
    },
    /// Output integrity check failed: the output region's fingerprint
    /// differs from the known-good run (silent corruption — e.g. an
    /// injected bit flip on the DMA path — that produced a "successful"
    /// inference with wrong bytes).
    OutputCorrupted {
        /// Fingerprint of the known-good output region.
        expected: u64,
        /// Fingerprint actually observed.
        got: u64,
    },
    /// The firmware stopped for an unexpected reason.
    UnexpectedStop(StopReason),
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Cpu(e) => write!(f, "cpu fault: {e}"),
            SocError::Bus(e) => write!(f, "bus fault: {e}"),
            SocError::Firmware(e) => write!(f, "firmware generation failed: {e}"),
            SocError::Timeout { instructions } => {
                write!(
                    f,
                    "inference did not finish within {instructions} instructions"
                )
            }
            SocError::WatchdogExpired { deadline, cycles } => write!(
                f,
                "watchdog expired: firmware still running at cycle {cycles} (deadline {deadline})"
            ),
            SocError::OutputCorrupted { expected, got } => write!(
                f,
                "output corrupted: fingerprint {got:#018x} != known-good {expected:#018x}"
            ),
            SocError::UnexpectedStop(r) => write!(f, "firmware stopped unexpectedly: {r}"),
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Cpu(e) => Some(e),
            SocError::Bus(e) => Some(e),
            SocError::Firmware(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CpuError> for SocError {
    fn from(e: CpuError) -> Self {
        SocError::Cpu(e)
    }
}
impl From<BusError> for SocError {
    fn from(e: BusError) -> Self {
        SocError::Bus(e)
    }
}
impl From<rvnv_riscv::AsmError> for SocError {
    fn from(e: rvnv_riscv::AsmError) -> Self {
        SocError::Firmware(e)
    }
}

/// Result of one bare-metal inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Total SoC cycles from reset to `ebreak`.
    pub cycles: u64,
    /// Cycles measured by the firmware itself (`mcycle` delta).
    pub firmware_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Dequantized output tensor.
    pub output: Tensor,
    /// Raw output bytes as left in DRAM.
    pub raw_output: Vec<u8>,
    /// Core pipeline statistics.
    pub pipeline: PipelineStats,
    /// NVDLA statistics.
    pub nvdla: NvdlaStats,
    /// Cycles the core spent waiting at the DRAM arbiter.
    pub cpu_arbiter_wait: u64,
    /// Firmware size in bytes.
    pub firmware_bytes: usize,
    /// Per-operation execution timeline (engine, launch, completion);
    /// empty when [`SocConfig::capture_timeline`] is off.
    pub timeline: Vec<rvnv_nvdla::OpTrace>,
    /// Decoded-block-cache counters for this run (all zero when
    /// [`SocConfig::block_cache`] is off). A fully warm run shows no
    /// misses: every firmware block replays from the retained cache.
    pub block_cache: BlockCacheStats,
    /// Status-poll reads the core answered from its MMIO read lease
    /// instead of replaying the bus walk (host-side shortcut only;
    /// they are credited back into [`NvdlaStats::csb_reads`] so the
    /// architectural counts stay lease-free-identical).
    pub elided_polls: u64,
}

impl InferenceResult {
    /// Inference latency in milliseconds at `hz`.
    #[must_use]
    pub fn latency_ms(&self, hz: u64) -> f64 {
        self.cycles as f64 * 1000.0 / hz as f64
    }

    /// Publish this run into a [`MetricsRegistry`]: `soc.*` totals and
    /// the `soc.run_cycles` histogram, plus the nested
    /// [`PipelineStats`], [`NvdlaStats`] and [`BlockCacheStats`]
    /// counters via their own `publish` methods.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.counter("soc.runs", 1);
        metrics.counter("soc.cycles", self.cycles);
        metrics.counter("soc.firmware_cycles", self.firmware_cycles);
        metrics.counter("soc.instructions", self.instructions);
        metrics.counter("soc.cpu_arbiter_wait", self.cpu_arbiter_wait);
        metrics.counter("soc.elided_polls", self.elided_polls);
        metrics.histogram("soc.run_cycles", self.cycles);
        self.pipeline.publish(metrics);
        self.nvdla.publish(metrics);
        self.block_cache.publish(metrics);
    }
}

/// Outcome of one pipelined frame ([`Soc::run_firmware_staged`]).
#[derive(Debug, Clone)]
pub struct StagedRun {
    /// The frame's inference result. `result.cycles` includes any
    /// contention the overlapped preload caused on the shared DRAM.
    pub result: InferenceResult,
    /// Cycle, on this frame's timeline, at which the overlapped preload
    /// of the *next* frame's input completed; 0 when none was issued.
    /// The next frame cannot start before both this frame's compute and
    /// this preload are done.
    pub preload_done: u64,
}

/// Identity of a weight image made resident in DRAM by
/// [`Soc::load_artifacts`]: the artifacts' layout plus a content
/// fingerprint of every weight byte
/// ([`rvnv_compiler::layout::WeightImage::fingerprint`]), so two
/// compilations of the same model name with different weights — e.g.
/// zoo builds from different seeds — are never confused.
///
/// A warm match costs O(1) per run: the image folds its fingerprint as
/// segments are pushed and hands back the stored value. That is safe
/// without trusting the caller because an image cannot change under its
/// hash — its segments are private, `push` (append-only, and the path
/// `from_bin` takes too) is the one mutator, and there is no mutable
/// accessor — so swapping in different weight bytes means building
/// another image, which carries another fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResidentKey {
    model: String,
    precision: Precision,
    input_addr: u32,
    input_len: usize,
    output_addr: u32,
    output_len: usize,
    /// Content fingerprint of the weight image (addresses, lengths and
    /// payload bytes).
    weights: u64,
}

impl ResidentKey {
    fn of(artifacts: &Artifacts) -> Self {
        ResidentKey {
            model: artifacts.model.clone(),
            precision: artifacts.precision,
            input_addr: artifacts.input_addr,
            input_len: artifacts.input_len,
            output_addr: artifacts.output_addr,
            output_len: artifacts.output_len,
            weights: artifacts.weights.fingerprint(),
        }
    }

    /// Whether this key identifies `artifacts`.
    fn matches(&self, artifacts: &Artifacts) -> bool {
        self.model == artifacts.model
            && self.precision == artifacts.precision
            && self.input_addr == artifacts.input_addr
            && self.input_len == artifacts.input_len
            && self.output_addr == artifacts.output_addr
            && self.output_len == artifacts.output_len
            && self.weights == artifacts.weights.fingerprint()
    }
}

/// One weight image currently pinned in DRAM: its identity key, the id
/// it is registered under in the [`Dram`] residency tracker, and the
/// model's whole DRAM footprint `[dram_base, dram_used)` — used to
/// decide whether two models can be resident side by side.
#[derive(Debug, Clone)]
struct ResidentImage {
    key: ResidentKey,
    id: u64,
    span: (u32, u32),
}

impl ResidentImage {
    fn span_overlaps(&self, other: (u32, u32)) -> bool {
        self.span.0 < other.1 && other.0 < self.span.1
    }
}

/// The SoC: shared DRAM path + NVDLA, rebuilt core per inference.
///
/// A `Soc` is built **once** and reused: every run starts from an
/// in-place power-on [`reset`](Soc::reset) of the whole fabric (no
/// reallocation), and weight images stay *resident* in DRAM across
/// runs, so the compile-once/run-many hot path skips the per-inference
/// weight streaming entirely. **Several** models can be resident at
/// once when their DRAM footprints are disjoint (compile them at
/// distinct bases — see `rvnv_soc::batch::layout_models`); the
/// multi-model batch scheduler interleaves frames across them with
/// every frame warm. Warm runs are bit-identical — same cycle counts,
/// same output bytes — to runs on a freshly constructed SoC.
#[derive(Debug)]
pub struct Soc {
    config: SocConfig,
    dram: DramPath,
    nvdla: SocNvdla,
    /// Which artifacts' weight images are currently resident in DRAM.
    resident: Vec<ResidentImage>,
    /// Id for the next image registered with the DRAM tracker.
    next_image_id: u64,
    /// Decoded-basic-block cache retained across runs, keyed by a hash
    /// of the firmware image it was decoded from — a run with different
    /// firmware starts cold instead of replaying stale blocks.
    decoded: Option<(u64, BlockCache)>,
    /// Cycle-budget watchdog armed for every run ([`Soc::set_watchdog`]):
    /// a run whose modeled clock passes this many cycles returns
    /// [`SocError::WatchdogExpired`] instead of spinning.
    watchdog: Option<u64>,
    /// Observability sink ([`Soc::set_tracer`]); disarmed by default, in
    /// which case every emission site is a single branch.
    tracer: Tracer,
    /// Track the SoC's spans land on (meaningful only when armed).
    track: TrackId,
    /// Trace-time offset of the next run. Each run's modeled clock
    /// starts at 0; runs are laid end to end on the track so a
    /// `--repeat` sequence reads as consecutive frames.
    trace_base: u64,
}

impl Soc {
    /// Build the SoC of Fig. 2/Fig. 4.
    #[must_use]
    pub fn new(config: SocConfig) -> Self {
        let (dram, nvdla) = Self::build_fabric(&config);
        Soc {
            config,
            dram,
            nvdla,
            resident: Vec::new(),
            next_image_id: 1,
            decoded: None,
            watchdog: None,
            tracer: Tracer::disarmed(),
            track: TrackId::NONE,
            trace_base: 0,
        }
    }

    /// Emit this SoC's spans into `tracer` on `track`: one `compute`
    /// span per run, with a child per accelerator operation when
    /// [`SocConfig::capture_timeline`] is on, plus a `preload` span per
    /// [`Soc::ps_stream`]. Successive runs are laid end to end on the
    /// track. Arming a tracer never changes a modeled cycle or output
    /// byte — it only records values the simulation already computed.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.track = track;
        self.trace_base = 0;
    }

    fn build_fabric(config: &SocConfig) -> (DramPath, SocNvdla) {
        let ddr = FaultInjector::new(Dram::new(config.dram_bytes, config.dram_timing));
        let dram: DramPath = Shared::new(dram_path(ddr, config));
        let dbb = WidthConverter::new(dram.clone(), config.hw.dbb_bytes.max(4), 4);
        let nvdla: SocNvdla = Shared::new(Nvdla::new(config.hw.clone(), dbb));
        (dram, nvdla)
    }

    /// Power-on reset **in place**: fresh DRAM contents, bus timelines
    /// and NVDLA state, discarding **all** resident weight images.
    /// Nothing is reallocated — the DRAM zeroes only the extents
    /// previous runs wrote — so a reset SoC replays exactly the timing
    /// of a freshly built one at a fraction of the host cost.
    ///
    /// Runs reset themselves automatically (warm, keeping resident
    /// weights); call this only to force the next run cold.
    pub fn reset(&mut self) {
        self.resident.clear();
        self.decoded = None;
        self.with_dram(Dram::clear_resident);
        // Resetting the accelerator chains down its DBB path — width
        // converter, arbiter, clock crossing, SmartConnect — into the
        // same shared DRAM the CPU port reaches, so one call restores
        // the whole fabric.
        self.nvdla.lock().reset();
    }

    /// Run `f` on the DRAM device behind the fabric (backdoor).
    fn with_dram<R>(&self, f: impl FnOnce(&mut Dram) -> R) -> R {
        let mut path = self.dram.lock();
        f(path
            .downstream_mut()
            .downstream_mut()
            .dram_mut()
            .inner_mut())
    }

    /// The entry for `artifacts`, if its image is pinned and the DRAM
    /// still holds it (a clobbering run may have dropped it there).
    fn find_resident(&self, artifacts: &Artifacts) -> Option<&ResidentImage> {
        self.resident
            .iter()
            .find(|img| img.key.matches(artifacts))
            .filter(|img| self.with_dram(|d| d.is_image_resident(img.id)))
    }

    /// Drop pinned entries whose DRAM image no longer exists (dropped by
    /// a clobber-detecting reset).
    fn sync_residency(&mut self) {
        let dram = &self.dram;
        self.resident.retain(|img| {
            let mut path = dram.lock();
            path.downstream_mut()
                .downstream_mut()
                .dram_mut()
                .inner_mut()
                .is_image_resident(img.id)
        });
    }

    /// Make `artifacts`' weight image resident in DRAM **alongside** any
    /// images already pinned: stream every weight segment once and
    /// protect those extents across subsequent resets. After this, every
    /// [`run_firmware`](Soc::run_firmware)/[`run_inference`](Soc::run_inference)
    /// call with the same artifacts is a *warm* run that resets the
    /// fabric in place and reloads only the input — the
    /// compile-once/run-many hot path. Pinning an image that is already
    /// resident is a no-op.
    ///
    /// Calling this is optional for a single model (runs make their
    /// artifacts resident on first use automatically); a multi-model
    /// server pins each model before its first frame arrives.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::ResidentOverlap`] when the model's DRAM
    /// footprint `[dram_base, dram_used)` overlaps an already-resident
    /// model's — compile the models at disjoint bases
    /// (`rvnv_soc::batch::layout_models`) or [`unload`](Soc::unload_artifacts)
    /// the other model first — and other [`BusError`]s if a weight
    /// segment does not fit in DRAM.
    pub fn load_artifacts(&mut self, artifacts: &Artifacts) -> Result<(), BusError> {
        self.sync_residency();
        if self.find_resident(artifacts).is_some() {
            return Ok(());
        }
        let span = (artifacts.dram_base, artifacts.dram_used);
        if let Some(img) = self.resident.iter().find(|img| img.span_overlaps(span)) {
            return Err(BusError::ResidentOverlap { image: img.id });
        }
        self.pin(artifacts)
    }

    /// Stream `artifacts`' weight segments and register them as a new
    /// resident image. The caller has already ruled out span overlaps.
    fn pin(&mut self, artifacts: &Artifacts) -> Result<(), BusError> {
        self.switch_dram_to(Side::ZynqPs);
        let mut extents = RangeSet::new();
        for seg in artifacts.weights.segments() {
            self.dram_load(seg.addr, &seg.bytes)?;
            extents.insert(seg.addr as usize, seg.addr as usize + seg.bytes.len());
        }
        let id = self.next_image_id;
        self.next_image_id += 1;
        self.with_dram(|d| d.add_resident(id, extents))?;
        self.resident.push(ResidentImage {
            key: ResidentKey::of(artifacts),
            id,
            span: (artifacts.dram_base, artifacts.dram_used),
        });
        Ok(())
    }

    /// Evict `artifacts`' weight image, leaving other resident models
    /// warm. The next run with these artifacts is cold. Unknown
    /// artifacts are a no-op.
    pub fn unload_artifacts(&mut self, artifacts: &Artifacts) {
        if let Some(i) = self
            .resident
            .iter()
            .position(|img| img.key.matches(artifacts))
        {
            let img = self.resident.remove(i);
            self.with_dram(|d| d.remove_resident(img.id));
        }
    }

    /// Whether `artifacts`' weight image is resident (the next run with
    /// them will be warm).
    #[must_use]
    pub fn is_resident(&self, artifacts: &Artifacts) -> bool {
        self.find_resident(artifacts).is_some()
    }

    /// Number of weight images currently resident.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Bring the SoC to the run-ready state for `artifacts`: a warm
    /// in-place reset when their weights are already resident, a cold
    /// preload otherwise. A cold preload evicts only the resident
    /// images whose DRAM footprint overlaps this model's — disjoint
    /// models stay warm. Leaves the SmartConnect on the PS side, ready
    /// for the input load.
    fn prepare(&mut self, artifacts: &Artifacts) -> Result<(), BusError> {
        // Chain reset first, warm or cold: it zeroes the previous run's
        // writes, detects clobbered images (dropping exactly those), and
        // restores the fabric timing state.
        self.nvdla.lock().reset();
        self.sync_residency();
        if self.find_resident(artifacts).is_some() {
            self.switch_dram_to(Side::ZynqPs);
            return Ok(());
        }
        // Cold: make room (evict footprint-overlapping models only),
        // then stream this model's weights.
        let span = (artifacts.dram_base, artifacts.dram_used);
        let evicted: Vec<u64> = self
            .resident
            .iter()
            .filter(|img| img.span_overlaps(span))
            .map(|img| img.id)
            .collect();
        self.resident.retain(|img| !img.span_overlaps(span));
        for id in evicted {
            self.with_dram(|d| d.remove_resident(id));
        }
        self.pin(artifacts)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Handle to the shared DRAM path (for the Zynq harness).
    #[must_use]
    pub fn dram_path(&self) -> DramPath {
        self.dram.clone()
    }

    /// Host bytes the DRAM model has really copied and zeroed, and its
    /// burst-loop entries, since this SoC was built (never cleared by
    /// resets). A timing-only frame must move its input and nothing
    /// else, whatever the model's size, and enter the DRAM once per DMA
    /// transfer, not once per burst — `tests/hot_path.rs` pins both on
    /// these counters, not on timers.
    #[must_use]
    pub fn dram_work(&self) -> DramWork {
        self.with_dram(|d| d.work())
    }

    /// Backdoor write into DRAM (local address space).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the data does not fit.
    pub fn dram_load(&self, addr: u32, data: &[u8]) -> Result<(), BusError> {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .dram_mut()
            .inner_mut()
            .load(addr as usize, data)
    }

    /// Backdoor read from DRAM (local address space), allocating a copy.
    /// Prefer [`Soc::with_dram_peek`] when the caller only inspects.
    #[must_use]
    pub fn dram_peek(&self, addr: u32, len: usize) -> Vec<u8> {
        self.with_dram_peek(addr, len, <[u8]>::to_vec)
    }

    /// Backdoor read from DRAM without copying: `f` borrows the bytes in
    /// place (zeros, if nothing was ever stored to the DRAM). Use this
    /// to compare or decode output regions without the
    /// per-call allocation of [`Soc::dram_peek`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn with_dram_peek<R>(&self, addr: u32, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.with_dram(|d| f(&d.peek(addr as usize, len)))
    }

    /// Point the SmartConnect at a side (Fig. 4 control-plane action).
    pub fn switch_dram_to(&self, side: Side) {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .switch_to(side);
    }

    /// Configure the SmartConnect's dual-port (pipelined) topology:
    /// with `on`, [`Soc::ps_stream`] may inject Zynq-PS preload bursts
    /// while the SoC side owns the DRAM — the overlapped next-frame
    /// input load of the pipelined batch scheduler. Survives resets
    /// (topology, not state).
    pub fn set_pipelined(&self, on: bool) {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .set_pipelined(on);
    }

    /// Stream `bytes` from the Zynq PS into DRAM at `addr` as a
    /// continuous sequence of [`PS_CHUNK_BYTES`]-bounded timed bursts
    /// through the real fabric path — arbiter grant per chunk (master
    /// [`MasterId::ZynqPs`]), clock crossing, SmartConnect routing, DRAM
    /// burst timing — each chunk issued when the previous one completes,
    /// the first not before `now`. Returns the completion cycle of the
    /// last chunk (`now` for empty `bytes`).
    ///
    /// While the PS owns the mux this is the ordinary timed preload;
    /// while the SoC owns it the chunks are admitted only in the
    /// [pipelined topology](Soc::set_pipelined), where they contend with
    /// the core's and NVDLA's traffic on the shared device timeline —
    /// the accounted cost of overlapping frame N+1's input load with
    /// frame N's compute.
    ///
    /// # Errors
    ///
    /// [`BusError::SlaveError`] when the SoC owns the mux and the
    /// pipelined topology is off; [`BusError::OutOfRange`] when the
    /// bytes do not fit.
    pub fn ps_stream(&self, addr: u32, bytes: &[u8], now: u64) -> Result<u64, BusError> {
        let mut pump = PreloadPump::new(addr, bytes, now);
        self.pump_preload(&mut pump, u64::MAX)?;
        let done = pump.done.max(now);
        if self.tracer.is_armed() {
            self.tracer.span(
                self.track,
                SpanKind::Preload,
                self.trace_base + now,
                self.trace_base + done,
                "ps_stream",
            );
        }
        Ok(done)
    }

    /// Issue every preload chunk due at or before `until` (the PS
    /// streams continuously: each chunk is due when the previous one
    /// completed). `u64::MAX` flushes the stream.
    fn pump_preload(&self, p: &mut PreloadPump<'_>, until: u64) -> Result<(), BusError> {
        while p.offset < p.bytes.len() && p.next_due <= until {
            let n = (p.bytes.len() - p.offset).min(PS_CHUNK_BYTES);
            let addr = p.addr + p.offset as u32;
            let mut path = self.dram.lock();
            path.downstream_mut()
                .downstream_mut()
                .admit_ps_burst(addr)?;
            let done = path.write_block_as(
                MasterId::ZynqPs,
                addr,
                &p.bytes[p.offset..p.offset + n],
                p.next_due,
            )?;
            p.offset += n;
            p.next_due = done;
            p.done = done;
        }
        Ok(())
    }

    /// Modeled cycles a [`Soc::ps_stream`] of `len` bytes at `addr`
    /// takes on a **quiet** fabric (no contention, no open DRAM row),
    /// computed without touching device state: the stream's chunks run
    /// as one PS train through a twin of the DRAM path — the same
    /// arbiter, clock crossing and SmartConnect code, in front of a
    /// fresh, storage-less [`DramTimeline`]. This is the input-preload
    /// cost a *serial* frame pays on its critical path — and what a
    /// pipelined frame hides under the previous frame's compute.
    #[must_use]
    pub fn input_preload_cycles(&self, addr: u32, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let stream = Payload::length_only(len, true).in_bursts(PS_CHUNK_BYTES);
        dram_path(DramTimeline::new(self.config.dram_timing), &self.config)
            .burst_as(MasterId::ZynqPs, addr, stream, 0)
            .expect("a storage-less timeline has no end to run off")
    }

    /// Chain-reset the fabric in place while keeping every resident
    /// weight image warm (what each run's prepare does, without a
    /// model): use it to bring the SoC to a quiet, PS-owned state before
    /// streaming the first pipelined input.
    pub fn quiesce(&mut self) {
        self.nvdla.lock().reset();
        self.sync_residency();
    }

    /// Arm the cycle-budget watchdog for every subsequent run: a run
    /// whose modeled clock passes `deadline_cycles` without reaching
    /// `ebreak` returns [`SocError::WatchdogExpired`]. `None` disarms.
    ///
    /// This is the modeled-time hang detector: a firmware poll loop
    /// stuck on a wedged accelerator (e.g. an injected latency spike of
    /// billions of cycles on its DMA path) trips the watchdog after
    /// `deadline_cycles` SoC cycles — at host speed, because the stuck
    /// wait advances modeled time in jumps — where the instruction
    /// budget ([`SocConfig::max_instructions`]) would grind through
    /// every polled instruction first.
    pub fn set_watchdog(&mut self, deadline_cycles: Option<u64>) {
        self.watchdog = deadline_cycles;
    }

    /// The armed watchdog deadline, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// [`Soc::run_firmware`] with a one-shot watchdog deadline (in SoC
    /// cycles). The previously armed deadline, if any, is restored
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`SocError::WatchdogExpired`] when the deadline passes before
    /// `ebreak`; otherwise as [`Soc::run_firmware`].
    pub fn run_firmware_deadline(
        &mut self,
        artifacts: &Artifacts,
        input_bytes: &[u8],
        fw: &Firmware,
        deadline_cycles: u64,
    ) -> Result<InferenceResult, SocError> {
        let prev = self.watchdog.replace(deadline_cycles);
        let result = self.run_firmware(artifacts, input_bytes, fw);
        self.watchdog = prev;
        result
    }

    /// Fingerprint the DRAM output region of `artifacts` (FNV over the
    /// raw bytes). Capture it after a known-good run, then feed it to
    /// [`Soc::verify_output`] after later runs to detect silent
    /// corruption. Only meaningful in functional mode — timing-only
    /// runs never write real output bytes.
    #[must_use]
    pub fn output_fingerprint(&self, artifacts: &Artifacts) -> u64 {
        self.with_dram_peek(artifacts.output_addr, artifacts.output_len, |raw| {
            let mut h = Fnv::new();
            h.bytes(raw);
            h.finish()
        })
    }

    /// Integrity-check the output region against a known-good
    /// fingerprint from [`Soc::output_fingerprint`].
    ///
    /// # Errors
    ///
    /// [`SocError::OutputCorrupted`] when the fingerprints differ.
    pub fn verify_output(&self, artifacts: &Artifacts, expected: u64) -> Result<(), SocError> {
        let got = self.output_fingerprint(artifacts);
        if got != expected {
            return Err(SocError::OutputCorrupted { expected, got });
        }
        Ok(())
    }

    /// Re-warm recovery: full power-on [`reset`](Soc::reset) (wiping
    /// whatever state a fault left behind), then re-pin every given
    /// weight image from its artifacts — no recompile, no firmware
    /// rebuild. After this the SoC is bit-identical to a freshly built
    /// one with the same images [loaded](Soc::load_artifacts), so a
    /// recovered worker's next frame replays the warm-path timing
    /// exactly.
    ///
    /// # Errors
    ///
    /// As [`Soc::load_artifacts`] (overlapping footprints, image does
    /// not fit).
    pub fn rewarm<'a>(
        &mut self,
        images: impl IntoIterator<Item = &'a Artifacts>,
    ) -> Result<(), BusError> {
        self.reset();
        for artifacts in images {
            self.load_artifacts(artifacts)?;
        }
        Ok(())
    }

    /// Arm a seeded chaos plan on the DRAM fault shim: subsequent
    /// fabric traffic (CPU loads/stores, NVDLA DMA, PS preload bursts)
    /// is faulted per the plan. Backdoor loads/peeks — weight pinning,
    /// input staging, output readback — bypass the shim. The armed
    /// plan, its access counter and statistics survive per-frame resets
    /// by contract (a chaos plan describes a fleet lifetime); disarm or
    /// re-arm to clear.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .dram_mut()
            .arm(plan);
    }

    /// Disarm the chaos plan: back to the untouched fast path.
    pub fn disarm_faults(&mut self) {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .dram_mut()
            .disarm();
    }

    /// What the chaos plan has injected since it was armed.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.dram
            .lock()
            .downstream_mut()
            .downstream_mut()
            .dram_mut()
            .stats()
    }

    /// Run one **pipelined** frame: the frame's input was already
    /// streamed into the double-buffer slot at `staged_at` (by the
    /// previous frame's overlapped [`Soc::ps_stream`], or a pipeline
    /// fill), and while this frame computes, the *next* frame's input
    /// optionally streams into the other slot.
    ///
    /// The inter-frame reset is **scoped**: it zeroes the previous
    /// frame's input/activation/output extents but preserves the staged
    /// slot (and, as always, the resident weight images). The staged
    /// bytes are then flipped to [`Artifacts::input_addr`] — the
    /// zero-cycle control-plane buffer remap of a double-buffered
    /// design; our compiled command streams address one fixed input
    /// buffer, so the flip is modeled as a remap rather than re-pointing
    /// the descriptors. Compute is bit-identical to a serial run of the
    /// same bytes; only timing feels the overlapped preload.
    ///
    /// # Errors
    ///
    /// [`SocError`] on CPU faults, preload bus errors or timeout.
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the program memory.
    pub fn run_firmware_staged(
        &mut self,
        artifacts: &Artifacts,
        staged_at: u32,
        fw: &Firmware,
        next_preload: Option<(u32, &[u8])>,
    ) -> Result<StagedRun, SocError> {
        let len = artifacts.input_len;
        let mut keep = RangeSet::new();
        keep.insert(staged_at as usize, staged_at as usize + len);
        self.with_dram(|d| d.preserve_across_reset(keep));
        self.prepare(artifacts)?;
        // The flip: staged slot -> the command stream's input buffer.
        let staged = self.dram_peek(staged_at, len);
        self.dram_load(artifacts.input_addr, &staged)?;
        self.switch_dram_to(Side::Soc);
        let (result, preload_done) = self.execute_prepared(artifacts, fw, next_preload)?;
        Ok(StagedRun {
            result,
            preload_done,
        })
    }

    /// Build the system bus seen by the core's data port.
    fn build_bus(&self) -> SystemBus {
        let mut bus = SystemBus::new();
        bus.add_region(
            "nvdla",
            NVDLA_BASE,
            NVDLA_SIZE,
            Box::new(AhbToApb::new(self.nvdla.clone())),
        )
        .expect("static map");
        bus.add_region(
            "dram",
            DRAM_BASE,
            DRAM_SIZE.min((self.config.dram_bytes as u64).min(u64::from(u32::MAX)) as u32),
            Box::new(AhbToAxi::new(self.dram.clone(), AxiConfig::axi32())),
        )
        .expect("static map");
        bus
    }

    /// Run one bare-metal inference: preload DRAM, load firmware, reset
    /// the core, execute to `ebreak`, read the output back.
    ///
    /// # Errors
    ///
    /// Returns [`SocError`] on CPU faults, firmware bugs or timeout.
    pub fn run_inference(
        &mut self,
        artifacts: &Artifacts,
        input: &Tensor,
    ) -> Result<InferenceResult, SocError> {
        let fw = Firmware::build(artifacts)?;
        self.run_firmware(artifacts, &artifacts.quantize_input(input), &fw)
    }

    /// Run a pre-built firmware image on pre-quantized input bytes.
    ///
    /// Warm when `artifacts`' weights are resident (from a previous run
    /// or [`Soc::load_artifacts`]): the fabric resets in place and only
    /// the input is reloaded. Cold otherwise: full reset plus weight
    /// preload, after which the weights stay resident for the next run.
    /// Both paths produce bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`SocError`] on CPU faults or timeout.
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the program memory.
    pub fn run_firmware(
        &mut self,
        artifacts: &Artifacts,
        input_bytes: &[u8],
        fw: &Firmware,
    ) -> Result<InferenceResult, SocError> {
        // Zynq PS preload (Fig. 4): weights (unless resident) + input,
        // then hand the DRAM to the SoC.
        self.prepare(artifacts)?;
        self.dram_load(artifacts.input_addr, input_bytes)?;
        self.switch_dram_to(Side::Soc);
        let (result, _) = self.execute_prepared(artifacts, fw, None)?;
        Ok(result)
    }

    /// Execute `fw` on a SoC whose DRAM is already preloaded and handed
    /// over: build the core, run to `ebreak`, collect the result. The
    /// shared tail of [`run_firmware`](Soc::run_firmware) and
    /// [`run_firmware_staged`](Soc::run_firmware_staged).
    ///
    /// With `preload`, the next frame's input streams chunk by chunk
    /// into its slot *as modeled time advances* — each chunk is issued
    /// when the core's clock reaches its due time, so the preload
    /// interleaves with (and contends against) this frame's CPU and
    /// NVDLA traffic on the shared DRAM timeline. Returns the inference
    /// result and the preload's completion cycle (0 without one); a
    /// preload still unfinished at `ebreak` is flushed, so its
    /// completion may exceed the compute cycles.
    fn execute_prepared(
        &mut self,
        artifacts: &Artifacts,
        fw: &Firmware,
        preload: Option<(u32, &[u8])>,
    ) -> Result<(InferenceResult, u64), SocError> {
        let mut pump = preload.map(|(addr, bytes)| PreloadPump::new(addr, bytes, 0));
        self.nvdla.lock().set_functional(self.config.functional);

        // Program memory, backed only as far as the image reaches.
        assert!(
            fw.size_bytes() <= self.config.progmem_bytes,
            "firmware ({} B) exceeds program memory ({} B)",
            fw.size_bytes(),
            self.config.progmem_bytes
        );
        let mut progmem = Sram::new(self.config.progmem_bytes);
        progmem
            .load(fw.image.base() as usize, fw.image.as_bytes())
            .expect("checked above");

        let mut core = Core::new(progmem, self.build_bus());
        core.set_pc(fw.image.base());

        // Reattach the decoded-block cache if this firmware is the one
        // it was built from; otherwise start a cold cache. (Attached
        // *after* the program image is loaded — the cache must never
        // see bytes that are about to change.)
        let fw_key = fw.image.fingerprint();
        if self.config.block_cache {
            match self.decoded.take() {
                Some((key, cache)) if key == fw_key => core.attach_block_cache(cache),
                _ => core.enable_block_cache(self.config.progmem_bytes),
            }
        }
        let cache_stats0 = core.block_cache_stats().unwrap_or_default();

        // With a watchdog armed, bound each uninterrupted block run so
        // a hung poll loop returns here (where the deadline is checked)
        // every few thousand instructions instead of grinding through
        // the whole instruction budget first.
        const WATCHDOG_CHUNK: u64 = 65_536;
        let mut instructions = 0u64;
        let stop = loop {
            if instructions >= self.config.max_instructions {
                return Err(SocError::Timeout { instructions });
            }
            if let Some(deadline) = self.watchdog {
                let cycles = core.cycle();
                if cycles > deadline {
                    return Err(SocError::WatchdogExpired { deadline, cycles });
                }
            }
            let stepped = if let Some(p) = pump.as_mut() {
                // Issue every preload chunk whose due time has passed,
                // *before* the instruction at this cycle touches the
                // bus, so chunk and compute traffic interleave in
                // timeline order.
                self.pump_preload(p, core.cycle()).map_err(SocError::Bus)?;
                instructions += 1;
                core.step()
            } else {
                // No concurrent preload: let the core batch (and, in a
                // provably periodic poll loop, fast-forward) instead of
                // bouncing back here per instruction.
                let budget = self.config.max_instructions - instructions;
                let limit = if self.watchdog.is_some() {
                    budget.min(WATCHDOG_CHUNK)
                } else {
                    budget
                };
                let (n, stepped) = core.run_block(limit);
                instructions += n;
                stepped
            };
            match stepped? {
                None => {}
                Some(StopReason::Wfi) => {
                    // Interrupt-driven wait: sleep until the NVDLA
                    // completes (its interrupt is the only wake source
                    // in this SoC). A wfi with nothing outstanding and
                    // no pending interrupt would never wake.
                    let now = core.cycle();
                    let dla = self.nvdla.lock();
                    if dla.busy(now) {
                        let wake = dla.idle_at(now) + 1;
                        drop(dla);
                        if let Some(p) = pump.as_mut() {
                            // Chunks due during the sleep issue at
                            // their own times, not at the wake.
                            self.pump_preload(p, wake).map_err(SocError::Bus)?;
                        }
                        core.advance_cycle(wake);
                    } else if dla.intr_pending(now) {
                        // Already complete: resume immediately.
                    } else {
                        return Err(SocError::UnexpectedStop(StopReason::Wfi));
                    }
                }
                Some(stop) => break stop,
            }
        };
        // A preload the compute did not cover streams out its tail.
        let preload_done = match pump {
            Some(mut p) => {
                self.pump_preload(&mut p, u64::MAX).map_err(SocError::Bus)?;
                p.done
            }
            None => 0,
        };
        if stop != StopReason::Ebreak {
            return Err(SocError::UnexpectedStop(stop));
        }

        // Keep the decoded firmware warm for the next run; report this
        // run's share of the (cumulative) cache counters.
        let cache_stats = core
            .block_cache_stats()
            .unwrap_or_default()
            .since(&cache_stats0);
        if let Some(cache) = core.take_block_cache() {
            self.decoded = Some((fw_key, cache));
        }
        // Poll reads the core answered from its MMIO read lease never
        // reached the CSB; credit them so `csb_reads` reports the
        // architectural count, identical to a lease-free run.
        let elided = core.elided_mmio_reads();
        if elided > 0 {
            self.nvdla.lock().credit_elided_reads(elided);
        }

        // One borrow of the output region yields both the raw copy kept
        // in the result and the dequantized tensor (no double peek).
        let (raw_output, output) =
            self.with_dram_peek(artifacts.output_addr, artifacts.output_len, |raw| {
                (raw.to_vec(), artifacts.dequantize_output(raw))
            });
        let t0 = core.read_reg(rvnv_riscv::reg::A0);
        let t1 = core.read_reg(rvnv_riscv::reg::A1);
        let cpu_wait = self.dram.lock().port_stats(MasterId::Cpu).wait_cycles;
        // Take both NVDLA snapshots with a single lock: a second `lock()`
        // in the same struct expression would deadlock on the guard
        // temporary. The timeline copy is skipped when capture is off.
        let (nvdla_stats, timeline) = {
            let dla = self.nvdla.lock();
            let timeline = if self.config.capture_timeline {
                dla.timeline().to_vec()
            } else {
                Vec::new()
            };
            (dla.stats().clone(), timeline)
        };
        if self.tracer.is_armed() {
            // One frame on the track: the whole run as a `compute` span
            // at the current trace offset, with a child per accelerator
            // operation from the captured timeline (empty when
            // [`SocConfig::capture_timeline`] is off).
            let base = self.trace_base;
            let cycles = core.cycle();
            let parent = self.tracer.span(
                self.track,
                SpanKind::Compute,
                base,
                base + cycles,
                &artifacts.model,
            );
            for op in &timeline {
                self.tracer.child(
                    parent,
                    self.track,
                    SpanKind::Compute,
                    base + op.start,
                    base + op.done.min(cycles),
                    op.block.name(),
                );
            }
            self.trace_base = base + cycles;
        }
        Ok((
            InferenceResult {
                cycles: core.cycle(),
                firmware_cycles: u64::from(t1.wrapping_sub(t0)),
                instructions,
                output,
                raw_output,
                pipeline: core.pipeline_stats(),
                nvdla: nvdla_stats,
                cpu_arbiter_wait: cpu_wait,
                firmware_bytes: fw.size_bytes(),
                timeline,
                block_cache: cache_stats,
                elided_polls: elided,
            },
            preload_done,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvnv_compiler::{compile, CompileOptions};
    use rvnv_nn::exec::Executor;
    use rvnv_nn::zoo;

    #[test]
    fn lenet_bare_metal_inference_matches_golden() {
        let net = zoo::lenet5(11);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let input = Tensor::random(net.input_shape(), 21);
        let result = soc.run_inference(&artifacts, &input).unwrap();

        let exec = Executor::new(&net);
        let all = exec.run_all(&input).unwrap();
        let logits = &all[all.len() - 2];
        assert_eq!(result.output.argmax(), logits.argmax());
        assert!(result.cycles > 50_000, "cycles {}", result.cycles);
        assert!(result.instructions > 1_000);
        // Firmware's own mcycle measurement is close to total.
        assert!(result.firmware_cycles <= result.cycles);
        assert!(result.firmware_cycles * 10 > result.cycles * 9);
    }

    #[test]
    fn lenet_latency_at_100mhz_has_paper_magnitude() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let input = Tensor::random(net.input_shape(), 2);
        let result = soc.run_inference(&artifacts, &input).unwrap();
        let ms = result.latency_ms(soc.config().soc_hz);
        // Paper: 4.8 ms. Same order of magnitude is the claim we check
        // in tests; the paper printer's Table II shows the exact value.
        assert!(
            (0.5..50.0).contains(&ms),
            "LeNet-5 {ms:.2} ms vs paper 4.8 ms"
        );
    }

    #[test]
    fn nvdla_stats_show_conv_activity() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let input = Tensor::random(net.input_shape(), 2);
        let result = soc.run_inference(&artifacts, &input).unwrap();
        assert_eq!(
            result.nvdla.engine(rvnv_nvdla::regs::Block::Cacc).ops,
            4,
            "2 convs + 2 FCs"
        );
        assert!(result.nvdla.total_macs() > 1_000_000);
        assert!(result.nvdla.total_dma_bytes() > 400_000);
    }

    #[test]
    fn timing_only_mode_matches_functional_cycles() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let mut f = Soc::new(SocConfig::zcu102_nv_small());
        let rf = f.run_inference(&artifacts, &input).unwrap();
        let mut t = Soc::new(SocConfig::zcu102_timing_only());
        let rt = t.run_inference(&artifacts, &input).unwrap();
        assert_eq!(rf.cycles, rt.cycles, "timing-only must not change timing");
    }

    #[test]
    fn warm_runs_are_bit_identical_to_cold_runs() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let mut cold = Soc::new(SocConfig::zcu102_nv_small());
        let c = cold.run_inference(&artifacts, &input).unwrap();

        let mut warm = Soc::new(SocConfig::zcu102_nv_small());
        warm.load_artifacts(&artifacts).unwrap();
        assert!(warm.is_resident(&artifacts));
        for _ in 0..3 {
            let w = warm.run_inference(&artifacts, &input).unwrap();
            assert_eq!(w.cycles, c.cycles, "warm timing identical");
            assert_eq!(w.raw_output, c.raw_output, "warm output identical");
            assert_eq!(w.instructions, c.instructions);
            assert_eq!(w.cpu_arbiter_wait, c.cpu_arbiter_wait);
        }
    }

    #[test]
    fn first_run_promotes_artifacts_to_resident() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_timing_only());
        assert!(!soc.is_resident(&artifacts));
        let input = Tensor::random(net.input_shape(), 2);
        soc.run_inference(&artifacts, &input).unwrap();
        assert!(
            soc.is_resident(&artifacts),
            "cold run leaves weights resident"
        );
        soc.reset();
        assert!(!soc.is_resident(&artifacts), "explicit reset evicts them");
    }

    #[test]
    fn switching_artifacts_reloads_cold_and_stays_correct() {
        let lenet = compile(&zoo::lenet5(1), &CompileOptions::int8()).unwrap();
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let unfused = compile(&zoo::lenet5(1), &opt.unfused()).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 3);
        let a = soc.run_inference(&lenet, &input).unwrap();
        // Different compilation of the same model: must not be treated
        // as resident.
        assert!(!soc.is_resident(&unfused));
        let b = soc.run_inference(&unfused, &input).unwrap();
        assert!(soc.is_resident(&unfused));
        assert_eq!(a.output.argmax(), b.output.argmax());
        // And back again, still correct.
        let a2 = soc.run_inference(&lenet, &input).unwrap();
        assert_eq!(a2.cycles, a.cycles);
        assert_eq!(a2.raw_output, a.raw_output);
    }

    #[test]
    fn timing_only_config_skips_timeline_capture() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let mut t = Soc::new(SocConfig::zcu102_timing_only());
        let r = t.run_inference(&artifacts, &input).unwrap();
        assert!(r.timeline.is_empty(), "no timeline copy in sweep mode");
        assert!(r.nvdla.total_ops() > 0, "stats still collected");
    }

    #[test]
    fn disjoint_models_stay_resident_side_by_side() {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let a = compile(&zoo::lenet5(1), &opt).unwrap();
        let base = a.dram_used.div_ceil(4096) * 4096;
        let b = compile(&zoo::lenet5(2), &opt.clone().at_dram_base(base)).unwrap();

        let mut soc = Soc::new(SocConfig::zcu102_timing_only());
        soc.load_artifacts(&a).unwrap();
        soc.load_artifacts(&b).unwrap();
        assert_eq!(soc.resident_count(), 2);
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 3);
        // Interleaved runs keep both images warm.
        let ra = soc.run_inference(&a, &input).unwrap();
        let rb = soc.run_inference(&b, &input).unwrap();
        assert!(soc.is_resident(&a) && soc.is_resident(&b));
        assert_eq!(soc.run_inference(&a, &input).unwrap().cycles, ra.cycles);
        assert_eq!(soc.run_inference(&b, &input).unwrap().cycles, rb.cycles);
        // Re-pinning a resident image is a no-op.
        soc.load_artifacts(&a).unwrap();
        assert_eq!(soc.resident_count(), 2);
    }

    #[test]
    fn overlapping_footprints_rejected_by_load_but_evicted_by_run() {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        // Same base: the two compilations' footprints overlap.
        let a = compile(&zoo::lenet5(1), &opt).unwrap();
        let b = compile(&zoo::lenet5(2), &opt).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_timing_only());
        soc.load_artifacts(&a).unwrap();
        let e = soc.load_artifacts(&b).unwrap_err();
        assert!(matches!(e, BusError::ResidentOverlap { .. }), "{e}");
        assert!(soc.is_resident(&a), "failed pin must not evict");
        // A run with overlapping artifacts evicts instead (LRU-style).
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 3);
        soc.run_inference(&b, &input).unwrap();
        assert!(soc.is_resident(&b) && !soc.is_resident(&a));
        assert_eq!(soc.resident_count(), 1);
    }

    #[test]
    fn unload_artifacts_leaves_other_model_warm() {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let a = compile(&zoo::lenet5(1), &opt).unwrap();
        let base = a.dram_used.div_ceil(4096) * 4096;
        let b = compile(&zoo::lenet5(2), &opt.clone().at_dram_base(base)).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.load_artifacts(&a).unwrap();
        soc.load_artifacts(&b).unwrap();
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 8);
        let rb = soc.run_inference(&b, &input).unwrap();
        soc.unload_artifacts(&a);
        assert!(!soc.is_resident(&a) && soc.is_resident(&b));
        // b's numbers are unchanged by a's eviction.
        let rb2 = soc.run_inference(&b, &input).unwrap();
        assert_eq!(rb2.cycles, rb.cycles);
        assert_eq!(rb2.raw_output, rb.raw_output);
        soc.unload_artifacts(&a); // unknown: no-op
        assert_eq!(soc.resident_count(), 1);
    }

    #[test]
    fn unload_then_pin_at_same_base_stays_bit_identical() {
        // Regression: after `unload_artifacts` the DRAM has no resident
        // image, so the old model's input/activation bytes are no
        // longer in the run tracker; pinning a new model at the same
        // base and running must still replay a fresh SoC exactly (the
        // reset zeroes by dirty extents, not by the run tracker).
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let a = compile(&zoo::lenet5(1), &opt).unwrap();
        let b = compile(&zoo::lenet5(2), &opt).unwrap();
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 13);
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.run_inference(&a, &input).unwrap();
        soc.unload_artifacts(&a);
        soc.load_artifacts(&b).unwrap();
        let warm = soc.run_inference(&b, &input).unwrap();
        let mut fresh = Soc::new(SocConfig::zcu102_nv_small());
        let truth = fresh.run_inference(&b, &input).unwrap();
        assert_eq!(warm.cycles, truth.cycles);
        assert_eq!(warm.raw_output, truth.raw_output);
    }

    #[test]
    fn soc_reset_drops_every_resident_image() {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let a = compile(&zoo::lenet5(1), &opt).unwrap();
        let base = a.dram_used.div_ceil(4096) * 4096;
        let b = compile(&zoo::lenet5(2), &opt.clone().at_dram_base(base)).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_timing_only());
        soc.load_artifacts(&a).unwrap();
        soc.load_artifacts(&b).unwrap();
        soc.reset();
        assert_eq!(soc.resident_count(), 0);
        assert!(!soc.is_resident(&a) && !soc.is_resident(&b));
        // Cold rerun after the wipe still works.
        let input = Tensor::random(zoo::lenet5(1).input_shape(), 3);
        soc.run_inference(&a, &input).unwrap();
        assert!(soc.is_resident(&a));
    }

    #[test]
    fn analytic_preload_cycles_match_real_stream() {
        // `input_preload_cycles` must equal what `ps_stream` actually
        // takes on a quiet, PS-owned fabric — the serial-latency
        // accounting and the pipeline-fill measurement are one model.
        for (addr, len) in [(0x20_0000u32, 784usize), (0x30_0010, 3072), (0x1ffc, 64)] {
            let soc = Soc::new(SocConfig::zcu102_timing_only());
            let bytes = vec![0x5Au8; len];
            let done = soc.ps_stream(addr, &bytes, 0).unwrap();
            assert_eq!(
                done,
                soc.input_preload_cycles(addr, len),
                "addr {addr:#x} len {len}"
            );
        }
    }

    #[test]
    fn ps_stream_rejected_mid_compute_unless_pipelined() {
        let soc = Soc::new(SocConfig::zcu102_timing_only());
        soc.switch_dram_to(Side::Soc);
        let e = soc.ps_stream(0x20_0000, &[1; 4], 0).unwrap_err();
        assert!(matches!(e, BusError::SlaveError { .. }), "{e}");
        soc.set_pipelined(true);
        soc.ps_stream(0x20_0000, &[1; 4], 0).unwrap();
    }

    #[test]
    fn staged_run_is_bit_identical_to_serial() {
        // A frame whose input arrives via the double-buffer slot (scoped
        // reset + flip), with the *next* frame's preload contending on
        // the bus, must produce the exact bytes of a serial cold run —
        // only cycles may grow, and the frame after it stays warm.
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 5);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();

        let mut cold = Soc::new(SocConfig::zcu102_nv_small());
        let truth = cold.run_firmware(&artifacts, &bytes, &fw).unwrap();

        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.load_artifacts(&artifacts).unwrap();
        soc.set_pipelined(true);
        // Stage the input in a slot past the model's footprint.
        let slot = artifacts.dram_used.div_ceil(4096) * 4096;
        let other = slot + 4096;
        soc.quiesce();
        soc.ps_stream(slot, &bytes, 0).unwrap();
        let staged = soc
            .run_firmware_staged(&artifacts, slot, &fw, Some((other, &bytes)))
            .unwrap();
        assert_eq!(staged.result.raw_output, truth.raw_output, "bytes equal");
        assert!(staged.preload_done > 0);
        assert!(
            staged.result.cycles >= truth.cycles,
            "contention can only add cycles"
        );
        assert!(soc.is_resident(&artifacts), "weights stay warm");
        // The overlapped preload survives the next scoped reset: run the
        // staged slot it filled, with no further preload.
        let second = soc
            .run_firmware_staged(&artifacts, other, &fw, None)
            .unwrap();
        assert_eq!(second.result.raw_output, truth.raw_output);
        assert_eq!(
            second.result.cycles, truth.cycles,
            "no preload -> serial timing"
        );
    }

    #[test]
    fn timeout_detected() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let mut config = SocConfig::zcu102_nv_small();
        config.max_instructions = 100;
        let mut soc = Soc::new(config);
        let input = Tensor::random(net.input_shape(), 2);
        let e = soc.run_inference(&artifacts, &input).unwrap_err();
        assert!(matches!(e, SocError::Timeout { .. }));
    }

    #[test]
    fn watchdog_fires_on_modeled_deadline_and_disarmed_runs_are_identical() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let truth = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        // A deadline past the real latency never fires…
        let ok = soc
            .run_firmware_deadline(&artifacts, &bytes, &fw, truth.cycles + 1)
            .unwrap();
        assert_eq!(ok.cycles, truth.cycles);
        assert_eq!(ok.raw_output, truth.raw_output);
        assert!(soc.watchdog().is_none(), "one-shot deadline restored");
        // …one inside it does, with a typed error naming both numbers.
        let e = soc
            .run_firmware_deadline(&artifacts, &bytes, &fw, truth.cycles / 2)
            .unwrap_err();
        match e {
            SocError::WatchdogExpired { deadline, cycles } => {
                assert_eq!(deadline, truth.cycles / 2);
                assert!(cycles > deadline);
            }
            other => panic!("expected WatchdogExpired, got {other}"),
        }
        // The aborted run leaves the SoC recoverable: the next clean
        // run replays the warm path exactly.
        let after = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        assert_eq!(after.cycles, truth.cycles);
        assert_eq!(after.raw_output, truth.raw_output);
    }

    #[test]
    fn watchdog_catches_injected_hang_at_host_speed() {
        // A huge latency spike on the NVDLA's first DMA burst models a
        // wedged accelerator: the wfi sleep jumps modeled time past the
        // deadline, so the watchdog fires after a handful of host steps
        // instead of burning the instruction budget.
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let truth = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        soc.arm_faults(FaultPlan::default().at(
            0,
            rvnv_bus::FaultKind::LatencySpike {
                cycles: 1_000_000_000,
            },
        ));
        soc.set_watchdog(Some(truth.cycles * 2));
        let e = soc.run_firmware(&artifacts, &bytes, &fw).unwrap_err();
        assert!(
            matches!(e, SocError::WatchdogExpired { .. }),
            "expected watchdog, got {e}"
        );
        // Re-warm recovery: full reset + re-pin from artifacts, then a
        // clean run that is bit-identical to the never-faulted SoC.
        soc.disarm_faults();
        soc.set_watchdog(None);
        soc.rewarm([&artifacts]).unwrap();
        assert!(soc.is_resident(&artifacts));
        let recovered = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        assert_eq!(recovered.cycles, truth.cycles);
        assert_eq!(recovered.raw_output, truth.raw_output);
    }

    #[test]
    fn fingerprint_catches_injected_bit_flip() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        let golden = soc.output_fingerprint(&artifacts);
        soc.verify_output(&artifacts, golden).unwrap();
        // Corrupt one output byte behind the fabric's back.
        let raw = soc.dram_peek(artifacts.output_addr, 1);
        soc.dram_load(artifacts.output_addr, &[raw[0] ^ 0x01])
            .unwrap();
        let e = soc.verify_output(&artifacts, golden).unwrap_err();
        assert!(matches!(e, SocError::OutputCorrupted { .. }), "{e}");
    }

    #[test]
    fn injected_dma_flip_corrupts_output_and_stats_account_for_it() {
        // Flip read data somewhere in the NVDLA's weight/input DMA
        // stream: the run "succeeds" but the output fingerprint
        // disagrees with the known-good run — exactly the silent
        // corruption the integrity check exists to catch.
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let truth = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        let golden = soc.output_fingerprint(&artifacts);
        soc.arm_faults(FaultPlan {
            seed: 3,
            flip_per_million: 20_000,
            ..FaultPlan::default()
        });
        let faulted = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        let stats = soc.fault_stats();
        assert!(stats.flips > 0, "2% flip rate must hit the DMA stream");
        assert_ne!(faulted.raw_output, truth.raw_output, "corruption lands");
        assert!(soc.verify_output(&artifacts, golden).is_err());
        // Same seed, same stream: the faulted run is itself
        // deterministic (arming restarts the access counter).
        soc.arm_faults(FaultPlan {
            seed: 3,
            flip_per_million: 20_000,
            ..FaultPlan::default()
        });
        let again = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        assert_eq!(again.raw_output, faulted.raw_output);
        assert_eq!(soc.fault_stats(), stats);
        // Disarm + rewarm: clean and bit-identical again.
        soc.disarm_faults();
        soc.rewarm([&artifacts]).unwrap();
        let clean = soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        assert_eq!(clean.raw_output, truth.raw_output);
        assert_eq!(clean.cycles, truth.cycles);
        soc.verify_output(&artifacts, golden).unwrap();
    }

    #[test]
    fn injected_bus_error_surfaces_typed_through_soc_error() {
        let net = zoo::lenet5(1);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 2);
        let bytes = artifacts.quantize_input(&input);
        let fw = Firmware::build(&artifacts).unwrap();
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.run_firmware(&artifacts, &bytes, &fw).unwrap();
        soc.arm_faults(FaultPlan {
            seed: 11,
            error_per_million: 500_000,
            ..FaultPlan::default()
        });
        let e = soc.run_firmware(&artifacts, &bytes, &fw).unwrap_err();
        // The injected fault must keep its identity through every
        // layer: CPU data-port fault or NVDLA DMA abort, but always a
        // typed chain whose root downcasts to BusError::Injected — no
        // stringly-typed matching anywhere on the way down.
        let mut cause: &(dyn Error + 'static) = &e;
        while let Some(src) = cause.source() {
            cause = src;
        }
        assert!(
            matches!(
                cause.downcast_ref::<BusError>(),
                Some(BusError::Injected { .. })
            ),
            "typed cause lost: {e} (root: {cause})"
        );
    }
}
