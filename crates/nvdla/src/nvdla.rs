//! The register-programmed accelerator model.
//!
//! [`Nvdla`] implements [`Target`] for its CSB window: the µRISC-V core
//! (through the AHB→APB→CSB path) programs `D_*` registers and launches
//! operations by writing `OP_ENABLE`; completion raises bits in
//! `GLB_INTR_STATUS`, which bare-metal firmware polls. Data moves over
//! the DBB port (`D`), a [`Target`] that the SoC routes through the
//! 64→32-bit width converter and the DRAM arbiter — so DMA time and
//! contention with the core come out of the bus models, not constants.

use std::collections::BTreeMap;

use rvnv_bus::{
    AccessKind, AccessSize, BusError, Cycle, Payload, Request, Reset, Response, Target,
};

use crate::config::HwConfig;
use crate::descriptor::{Launch, SdpSrc};
use crate::engines;
use crate::plan::{self, OpPlan, Purpose, Step};
use crate::regs::{self, Block};

/// Per-engine activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Operations completed.
    pub ops: u64,
    /// Pure compute cycles (excluding DMA).
    pub compute_cycles: u64,
    /// Bytes read over the DBB.
    pub dma_read_bytes: u64,
    /// Bytes written over the DBB.
    pub dma_write_bytes: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
}

/// Whole-accelerator statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvdlaStats {
    /// CSB register reads observed.
    pub csb_reads: u64,
    /// CSB register writes observed.
    pub csb_writes: u64,
    per_engine: BTreeMap<Block, EngineStats>,
}

impl NvdlaStats {
    /// Stats for one engine block.
    #[must_use]
    pub fn engine(&self, block: Block) -> EngineStats {
        self.per_engine.get(&block).copied().unwrap_or_default()
    }

    /// Total operations across engines.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.per_engine.values().map(|e| e.ops).sum()
    }

    /// Total DBB traffic in bytes.
    #[must_use]
    pub fn total_dma_bytes(&self) -> u64 {
        self.per_engine
            .values()
            .map(|e| e.dma_read_bytes + e.dma_write_bytes)
            .sum()
    }

    /// Total MACs.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.per_engine.values().map(|e| e.macs).sum()
    }

    /// Publish these counters into a [`rvnv_obs::MetricsRegistry`]
    /// under the `nvdla.*` namespace (whole-accelerator totals; the
    /// per-engine breakdown stays on [`NvdlaStats::engine`]).
    pub fn publish(&self, metrics: &rvnv_obs::MetricsRegistry) {
        metrics.counter("nvdla.csb_reads", self.csb_reads);
        metrics.counter("nvdla.csb_writes", self.csb_writes);
        metrics.counter("nvdla.ops", self.total_ops());
        metrics.counter("nvdla.dma_bytes", self.total_dma_bytes());
        metrics.counter("nvdla.macs", self.total_macs());
        metrics.counter(
            "nvdla.compute_cycles",
            self.per_engine.values().map(|e| e.compute_cycles).sum(),
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    done_at: Cycle,
    bits: u32,
}

/// One completed operation on the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTrace {
    /// Engine that executed the operation.
    pub block: Block,
    /// Cycle the launch was accepted.
    pub start: Cycle,
    /// Completion (interrupt) cycle.
    pub done: Cycle,
}

/// The NVDLA accelerator.
#[derive(Debug)]
pub struct Nvdla<D> {
    cfg: HwConfig,
    dbb: D,
    regs: BTreeMap<u32, u32>,
    intr_status: u32,
    events: Vec<Event>,
    busy_until: BTreeMap<Block, Cycle>,
    sdp_armed: bool,
    functional: bool,
    stats: NvdlaStats,
    timeline: Vec<OpTrace>,
}

impl<D: Target> Nvdla<D> {
    /// Create an accelerator with the given configuration and DBB port.
    pub fn new(cfg: HwConfig, dbb: D) -> Self {
        Nvdla {
            cfg,
            dbb,
            regs: BTreeMap::new(),
            intr_status: 0,
            events: Vec::new(),
            busy_until: BTreeMap::new(),
            sdp_armed: false,
            functional: true,
            stats: NvdlaStats::default(),
            timeline: Vec::new(),
        }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &NvdlaStats {
        &self.stats
    }

    /// Enable/disable functional computation. When disabled, operations
    /// keep their exact DMA and timing behaviour but move no bytes:
    /// every burst is issued length-only ([`rvnv_bus::Data::Len`]) and nothing
    /// surface-sized is allocated, so outputs stay at their post-reset
    /// zero — used for timing-only sweeps over large models.
    pub fn set_functional(&mut self, functional: bool) {
        self.functional = functional;
    }

    /// Whether operations compute and move real bytes
    /// ([`Nvdla::set_functional`]).
    #[must_use]
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// Direct access to the DBB port (backdoor).
    pub fn dbb_mut(&mut self) -> &mut D {
        &mut self.dbb
    }

    /// The DBB port, borrowed (for its statistics).
    #[must_use]
    pub fn dbb(&self) -> &D {
        &self.dbb
    }

    /// Cycle at which all outstanding operations complete (`now` if
    /// idle) — used by the SoC's fast-forward between polls.
    #[must_use]
    pub fn idle_at(&self, now: Cycle) -> Cycle {
        self.events.iter().map(|e| e.done_at).fold(now, Cycle::max)
    }

    /// Whether any engine is still running at `now`.
    #[must_use]
    pub fn busy(&self, now: Cycle) -> bool {
        self.events.iter().any(|e| e.done_at > now)
    }

    /// Whether an interrupt is (or will be, by `now`) pending: either
    /// unacknowledged status bits or a completion event that has already
    /// fired. Drives the SoC's `wfi` wake logic.
    #[must_use]
    pub fn intr_pending(&self, now: Cycle) -> bool {
        self.intr_status != 0 || self.events.iter().any(|e| e.done_at <= now)
    }

    /// Per-operation execution timeline: (engine block, launch cycle,
    /// completion cycle), in launch order. Feeds per-layer profiling.
    #[must_use]
    pub fn timeline(&self) -> &[OpTrace] {
        &self.timeline
    }

    /// Account CSB reads a polling master answered from an MMIO read
    /// lease (see [`Target::read_lease`]) instead of re-crossing the
    /// fabric. The elided reads are still architecturally performed, so
    /// crediting them here keeps [`NvdlaStats::csb_reads`] identical to
    /// a run without leases.
    pub fn credit_elided_reads(&mut self, n: u64) {
        self.stats.csb_reads += n;
    }

    /// Promote events whose completion time has passed into the
    /// interrupt status register.
    fn promote(&mut self, now: Cycle) {
        let due = self.events.iter().filter(|e| e.done_at <= now);
        self.intr_status |= due.fold(0, |bits, e| bits | e.bits);
        self.events.retain(|e| e.done_at > now);
    }

    fn engine_busy_until(&self, block: Block) -> Cycle {
        self.busy_until.get(&block).copied().unwrap_or(0)
    }

    fn engine_stats_mut(&mut self, block: Block) -> &mut EngineStats {
        self.stats.per_engine.entry(block).or_default()
    }

    fn slave_err(addr: u32, reason: &'static str) -> BusError {
        BusError::SlaveError { addr, reason }
    }

    /// MCIF issues bounded bursts, each when the previous one completes,
    /// and each pays the memory round trip: one transfer is one train
    /// handed to the DBB in a single call.
    fn dma(&mut self, addr: u32, payload: Payload<'_>, at: Cycle) -> Result<Cycle, BusError> {
        if payload.len() == 0 {
            return Ok(at);
        }
        let chunk = self.cfg.mcif_burst_bytes as usize;
        self.dbb.burst(addr, payload.in_bursts(chunk), at)
    }

    /// Put `op` on the DBB from `now`, once its engines are free: each
    /// transfer as DMA trains, each compute as a delay, each booked to
    /// its engine. When functional, the launch's kernel runs on the
    /// fetched bytes before the write-back; timing-only, every train is
    /// length-only and nothing surface-sized is allocated. The engines
    /// interrupt when the write completes.
    fn issue(&mut self, op: &OpPlan, launch: &Launch, now: Cycle) -> Result<(), BusError> {
        let busy_until = op.blocks().map(|b| self.engine_busy_until(b));
        let start = busy_until.fold(now, Cycle::max);
        let (mut t, mut operands) = (start, <[Vec<u8>; 4]>::default());
        for step in op.steps() {
            let x = match *step {
                Step::Transfer(x) => x,
                Step::Compute {
                    block,
                    cycles,
                    compute_cycles,
                    macs,
                } => {
                    let st = self.engine_stats_mut(block);
                    st.ops += 1;
                    st.compute_cycles += compute_cycles;
                    st.macs += macs;
                    t += cycles;
                    continue;
                }
            };
            let (len, functional) = (x.len as usize, self.functional);
            if x.purpose == Purpose::Output {
                let out = functional.then(|| engines::run(launch, std::mem::take(&mut operands)));
                let payload = out.as_deref();
                let payload = payload.map_or(Payload::length_only(len, true), Payload::write);
                t = self.dma(x.addr, payload, t)?;
                self.engine_stats_mut(x.block).dma_write_bytes += x.len;
                continue;
            }
            for _ in 0..x.repeat {
                let mut buf = vec![0; if functional { len } else { 0 }];
                let payload = if functional {
                    Payload::read(&mut buf)
                } else {
                    Payload::length_only(len, false)
                };
                t = self.dma(x.addr, payload, t)?;
                if let Some(operand) = operands.get_mut(x.purpose as usize) {
                    *operand = buf;
                }
            }
            self.engine_stats_mut(x.block).dma_read_bytes += x.len * u64::from(x.repeat);
        }
        let mut bits = 0;
        for block in op.blocks() {
            self.busy_until.insert(block, t);
            bits |= 1 << block.intr_bit().expect("a launching engine interrupts");
        }
        self.events.push(Event { done_at: t, bits });
        let (block, done) = (op.blocks().next().unwrap_or(Block::Glb), t);
        self.timeline.push(OpTrace { block, start, done });
        Ok(())
    }

    /// Decode what enabling `block` (by a write to `addr`) launches, plan
    /// it and issue it.
    fn launch(&mut self, block: Block, addr: u32, now: Cycle) -> Result<(), BusError> {
        let launch = match Launch::decode(block, |a| self.regs.get(&a).copied().unwrap_or(0)) {
            Err(e) => return Err(Self::slave_err(addr, e.reason())),
            // CDMA/CSC/CMAC enables are accepted (parts of the conv
            // pipeline); the pipeline launches on the CACC enable.
            Ok(None) => return Ok(()),
            Ok(Some(Launch::Sdp(sd))) if sd.src_mode == SdpSrc::Flying => {
                self.sdp_armed = true;
                return Ok(());
            }
            Ok(Some(launch)) => launch,
        };
        let op = plan::plan(&launch, &self.cfg);
        if let Launch::Conv(..) = launch {
            // Reported after the precision and before the geometry.
            if !self.sdp_armed && op != Err(plan::UNSUPPORTED) {
                return Err(Self::slave_err(addr, plan::UNARMED));
            }
            self.sdp_armed &= op.is_err();
        }
        let op = op.map_err(|reason| Self::slave_err(addr, reason))?;
        self.issue(&op, &launch, now)
    }
}

impl<D: Reset> Reset for Nvdla<D> {
    /// Power-on reset in place: registers, interrupts, in-flight events,
    /// statistics and the timeline all clear, then the DBB path resets
    /// downstream. The hardware configuration is construction state and
    /// survives; the functional flag returns to its power-on default
    /// (callers that run timing-only set it per run).
    fn reset(&mut self) {
        self.regs.clear();
        self.intr_status = 0;
        self.events.clear();
        self.busy_until.clear();
        self.sdp_armed = false;
        self.functional = true;
        self.stats = NvdlaStats::default();
        self.timeline.clear();
        self.dbb.reset();
    }
}

/// CSB latency of a register access (on top of the APB bridge path).
const CSB_LATENCY: Cycle = 1;

impl<D: Target> Target for Nvdla<D> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        if req.size != AccessSize::Word {
            return Err(Self::slave_err(req.addr, "CSB supports only 32-bit access"));
        }
        self.promote(now);
        let block = Block::of_addr(req.addr).ok_or(BusError::DecodeError { addr: req.addr })?;
        let offset = req.addr & 0xFFF;
        let done_at = now + CSB_LATENCY;
        match req.kind {
            AccessKind::Read => {
                self.stats.csb_reads += 1;
                let data = match (block, offset) {
                    (Block::Glb, regs::GLB_HW_VERSION) => regs::HW_VERSION_VALUE,
                    (Block::Glb, regs::GLB_INTR_STATUS) => self.intr_status,
                    (_, regs::REG_STATUS) => u32::from(self.engine_busy_until(block) > now),
                    _ => self.regs.get(&req.addr).copied().unwrap_or(0),
                };
                Ok(Response {
                    data: u64::from(data),
                    done_at,
                })
            }
            AccessKind::Write(v) => {
                self.stats.csb_writes += 1;
                let v = v as u32;
                match (block, offset) {
                    (Block::Glb, regs::GLB_INTR_STATUS) => self.intr_status &= !v, // write-1-to-clear
                    (Block::Glb, regs::GLB_INTR_SET) => self.intr_status |= v,
                    _ => {
                        self.regs.insert(req.addr, v);
                        if offset == regs::REG_OP_ENABLE && v & 1 == 1 {
                            self.launch(block, req.addr, now)?;
                        }
                    }
                }
                Ok(Response::ack(done_at))
            }
        }
    }

    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        // Only the interrupt-status register is leased: the value a
        // read arriving at cycle `t` observes is `intr_status` plus the
        // bits of events with `done_at <= t`, so it is constant until
        // the earliest completion still pending at `now`. Every path
        // that can change it sooner — `op_enable` launches, w1c clears,
        // `GLB_INTR_SET` — is a CSB *write*, which drops the master's
        // lease. Reads of it are side-effect-free (`promote` only folds
        // already-due events into the register; the observed value is
        // invariant under that), and CSB read latency is a constant.
        if Block::of_addr(addr) != Some(Block::Glb) || addr & 0xFFF != regs::GLB_INTR_STATUS {
            return None;
        }
        let mut until = Cycle::MAX;
        for e in &self.events {
            if e.done_at <= now {
                // A due-but-unpromoted event means `now` precedes the
                // read we were called for; decline rather than reason
                // about the past.
                return None;
            }
            until = until.min(e.done_at);
        }
        Some(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use crate::descriptor::{CdpDesc, ConvDesc, CopyDesc, Descriptor, PdpDesc, SdpDesc};
    use rvnv_bus::dram::Dram;
    use rvnv_bus::sram::Sram;

    /// One transfer as the DBB saw it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Seen {
        addr: u32,
        len: usize,
        bursts: usize,
        write: bool,
        carries_bytes: bool,
    }

    /// An SRAM-backed DBB that records every transfer it is handed.
    #[derive(Debug)]
    struct Recorder {
        mem: Sram,
        bursts: Vec<Seen>,
    }

    impl std::ops::Deref for Recorder {
        type Target = Sram;
        fn deref(&self) -> &Sram {
            &self.mem
        }
    }

    impl std::ops::DerefMut for Recorder {
        fn deref_mut(&mut self) -> &mut Sram {
            &mut self.mem
        }
    }

    impl Reset for Recorder {
        fn reset(&mut self) {
            self.mem.reset();
            self.bursts.clear();
        }
    }

    impl Target for Recorder {
        fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
            self.mem.access(req, now)
        }

        fn burst(
            &mut self,
            addr: u32,
            payload: Payload<'_>,
            now: Cycle,
        ) -> Result<Cycle, BusError> {
            self.bursts.push(Seen {
                addr,
                len: payload.len(),
                bursts: payload.bursts(),
                write: payload.is_write(),
                carries_bytes: !matches!(payload.data, rvnv_bus::Data::Len { .. }),
            });
            self.mem.burst(addr, payload, now)
        }
    }

    type TestNvdla = Nvdla<Recorder>;

    fn small() -> TestNvdla {
        let dbb = Recorder {
            mem: Sram::new(1 << 20),
            bursts: Vec::new(),
        };
        Nvdla::new(HwConfig::nv_small(), dbb)
    }

    fn w(n: &mut TestNvdla, block: Block, off: u32, v: u32, t: Cycle) -> Cycle {
        n.access(&Request::write32(block.base() + off, v), t)
            .unwrap()
            .done_at
    }

    fn r(n: &mut TestNvdla, block: Block, off: u32, t: Cycle) -> u32 {
        n.access(&Request::read32(block.base() + off), t)
            .unwrap()
            .data32()
    }

    #[test]
    fn hw_version_reads() {
        let mut n = small();
        assert_eq!(
            r(&mut n, Block::Glb, regs::GLB_HW_VERSION, 0),
            regs::HW_VERSION_VALUE
        );
    }

    #[test]
    fn plain_registers_store_and_load() {
        let mut n = small();
        w(&mut n, Block::Cdma, 0x14, 0x1234, 0);
        assert_eq!(r(&mut n, Block::Cdma, 0x14, 1), 0x1234);
    }

    #[test]
    fn intr_set_and_w1c() {
        let mut n = small();
        w(&mut n, Block::Glb, regs::GLB_INTR_SET, 0b110, 0);
        assert_eq!(r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 1), 0b110);
        w(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 0b010, 2);
        assert_eq!(r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 3), 0b100);
    }

    #[test]
    fn csb_rejects_narrow_access() {
        let mut n = small();
        let e = n
            .access(&Request::read(0, AccessSize::Byte), 0)
            .unwrap_err();
        assert!(matches!(e, BusError::SlaveError { .. }));
    }

    /// Write `writes`, then enable each block of `launch`, from cycle
    /// `t`; the launch's slave error, if any.
    fn program<D: Target>(
        n: &mut Nvdla<D>,
        writes: Vec<(u32, u32)>,
        launch: &[Block],
        mut t: Cycle,
    ) -> Result<Cycle, BusError> {
        let enables = launch.iter().map(|b| (b.base() + regs::REG_OP_ENABLE, 1));
        for (addr, value) in writes.into_iter().chain(enables) {
            t = n.access(&Request::write32(addr, value), t)?.done_at;
        }
        Ok(t)
    }

    /// A 1x1 conv, 2 channels in, 2 out, with relu through the flying
    /// SDP: feature at 0x100, weights at 0x200, output at 0x300.
    fn simple_conv(precision: Precision) -> (ConvDesc, SdpDesc) {
        let conv = ConvDesc {
            src: 0x100,
            in_w: 2,
            in_h: 2,
            in_c: 2,
            wt_addr: 0x200,
            wt_bytes: 4 * precision.bytes(),
            stride: 1,
            in_scale: 1.0,
            wt_scale: 1.0,
            out_w: 2,
            out_h: 2,
            out_c: 2,
            kw: 1,
            kh: 1,
            groups: 1,
            precision,
            ..ConvDesc::default()
        };
        let sdp = SdpDesc {
            dst: 0x300,
            w: 2,
            h: 2,
            c: 2,
            flags: regs::SDP_FLAG_RELU,
            out_scale: 1.0,
            in_scale: 1.0,
            in2_scale: 1.0,
            precision,
            ..SdpDesc::default()
        };
        (conv, sdp)
    }

    /// The register writes of a conv and its flying SDP.
    fn writes((conv, sdp): &(ConvDesc, SdpDesc)) -> Vec<(u32, u32)> {
        let mut writes = conv.encode().unwrap();
        writes.extend(sdp.encode().unwrap());
        writes
    }

    /// Launch a conv with its flying SDP from cycle `t`.
    fn launch_conv(
        n: &mut TestNvdla,
        op: &(ConvDesc, SdpDesc),
        t: Cycle,
    ) -> Result<Cycle, BusError> {
        program(n, writes(op), ConvDesc::LAUNCH, t)
    }

    /// Program the INT8 [`simple_conv`] with identity-ish weights:
    /// out0 = ch0 + ch1, out1 = ch0 - ch1.
    fn program_simple_conv(n: &mut TestNvdla) {
        let feature = [1i8, 2, 3, 4, -1, -2, -3, -4].map(|v| v as u8);
        n.dbb_mut().load(0x100, &feature).unwrap();
        n.dbb_mut()
            .load(0x200, &[1i8, 1, 1, -1].map(|v| v as u8))
            .unwrap();
        launch_conv(n, &simple_conv(Precision::Int8), 0).unwrap();
    }

    #[test]
    fn conv_through_registers_computes_and_interrupts() {
        let mut n = small();
        program_simple_conv(&mut n);
        // Immediately after launch nothing is complete.
        assert_eq!(r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 30), 0);
        assert_eq!(r(&mut n, Block::Cacc, regs::REG_STATUS, 31), 1, "running");
        // Poll far in the future: both CACC and SDP bits raised.
        let status = r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 1_000_000);
        assert_eq!(status, 0b11);
        assert_eq!(r(&mut n, Block::Cacc, regs::REG_STATUS, 1_000_001), 0);
        // Output: out0 = ch0+ch1 = 0 everywhere (relu of 0); out1 = ch0-ch1.
        let out = n.dbb_mut().bytes()[0x300..0x308].to_vec();
        assert_eq!(&out[..4], &[0, 0, 0, 0]);
        let o1: Vec<i8> = out[4..].iter().map(|&b| b as i8).collect();
        assert_eq!(o1, vec![2, 4, 6, 8]);
    }

    #[test]
    fn conv_without_armed_sdp_is_error() {
        let op = simple_conv(Precision::Int8);
        let e = program(&mut small(), writes(&op), &[Block::Cacc], 0);
        assert_eq!(reason(e), "conv launched without armed flying SDP");
    }

    #[test]
    fn fp16_rejected_on_nv_small() {
        let e = launch_conv(&mut small(), &simple_conv(Precision::Fp16), 0);
        assert_eq!(reason(e), "precision not implemented in this config");
    }

    /// The reason of the slave error a launch returned.
    fn reason(e: Result<Cycle, BusError>) -> &'static str {
        match e {
            Err(BusError::SlaveError { reason, .. }) => reason,
            other => panic!("not a slave error: {other:?}"),
        }
    }

    /// A conv whose weight bytes fall short of its geometry is a slave
    /// error, not a kernel reading past its buffer.
    #[test]
    fn short_weight_conv_is_a_slave_error() {
        let mut n = small();
        let (mut conv, sdp) = simple_conv(Precision::Int8);
        conv.wt_bytes = 1;
        let e = launch_conv(&mut n, &(conv, sdp), 0);
        assert_eq!(reason(e), "ConvDesc.wt_bytes below its minimum");
        assert_eq!(n.stats().total_ops(), 0);
    }

    /// A zero conv stride or group count, pool stride or LRN size is
    /// rejected, never read as 1.
    #[test]
    fn zero_strides_groups_and_windows_are_slave_errors() {
        let (conv, sdp) = simple_conv(Precision::Int8);
        let mut n = small();
        let zero_stride = (
            ConvDesc {
                stride: 0,
                ..conv.clone()
            },
            sdp.clone(),
        );
        let e = launch_conv(&mut n, &zero_stride, 0);
        assert_eq!(reason(e), "ConvDesc.stride below its minimum");
        let e = launch_conv(&mut n, &(ConvDesc { groups: 0, ..conv }, sdp), 0);
        assert_eq!(reason(e), "ConvDesc.groups below its minimum");
        let pool = PdpDesc {
            stride: 0,
            ..pool_desc()
        };
        let e = program(&mut n, pool.encode().unwrap(), PdpDesc::LAUNCH, 0);
        assert_eq!(reason(e), "PdpDesc.stride below its minimum");
        let lrn = CdpDesc {
            w: 4,
            h: 4,
            c: 1,
            local_size: 0,
            ..CdpDesc::default()
        };
        let e = program(&mut n, lrn.encode().unwrap(), CdpDesc::LAUNCH, 0);
        assert_eq!(reason(e), "CdpDesc.local_size below its minimum");
        assert_eq!(n.stats().total_ops(), 0);
    }

    /// Program a standalone SDP eltwise add of 0x400 + 0x500 → 0x600,
    /// starting at cycle `t`.
    fn program_eltwise(n: &mut TestNvdla, t: Cycle) {
        n.dbb_mut().load(0x400, &[10, 20, 30, 40]).unwrap();
        n.dbb_mut().load(0x500, &[1, 2, 3, 4]).unwrap();
        let (src_mode, flags) = (SdpSrc::Memory, regs::SDP_FLAG_ELTWISE);
        let (src, src2, dst, c) = (0x400, 0x500, 0x600, 1);
        let (_, flying) = simple_conv(Precision::Int8);
        let sdp = SdpDesc {
            src_mode,
            src,
            src2,
            dst,
            c,
            flags,
            ..flying
        };
        program(n, sdp.encode().unwrap(), SdpDesc::LAUNCH, t).unwrap();
    }

    #[test]
    fn standalone_sdp_eltwise_add() {
        let mut n = small();
        program_eltwise(&mut n, 0);
        let status = r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 100_000);
        assert_eq!(status & 0b10, 0b10);
        let out: Vec<i8> = n.dbb_mut().bytes()[0x600..0x604]
            .iter()
            .map(|&v| v as i8)
            .collect();
        assert_eq!(out, vec![11, 22, 33, 44]);
    }

    /// Program a 2×2 max pool of the 4×4 surface at 0x700 → 0x800,
    /// starting at cycle `t`.
    fn program_pool(n: &mut TestNvdla, t: Cycle) {
        let src: Vec<u8> = vec![1, 5, 2, 3, 4, 2, 1, 8, 0, 1, 2, 3, 4, 5, 6, 7];
        n.dbb_mut().load(0x700, &src).unwrap();
        program(n, pool_desc().encode().unwrap(), PdpDesc::LAUNCH, t).unwrap();
    }

    /// A 2×2 max pool of a 4×4 plane at 0x700 → 0x800.
    fn pool_desc() -> PdpDesc {
        PdpDesc {
            src: 0x700,
            dst: 0x800,
            in_w: 4,
            in_h: 4,
            c: 1,
            k: 2,
            stride: 2,
            out_w: 2,
            out_h: 2,
            ..PdpDesc::default()
        }
    }

    #[test]
    fn pdp_pooling_via_registers() {
        let mut n = small();
        program_pool(&mut n, 0);
        let status = r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 100_000);
        assert_eq!(status & 0b100, 0b100);
        assert_eq!(&n.dbb_mut().bytes()[0x800..0x804], &[5, 8, 5, 7]);
    }

    #[test]
    fn bdma_copies_bytes() {
        let mut n = small();
        n.dbb_mut().load(0x10, &[9, 8, 7, 6]).unwrap();
        let copy = CopyDesc {
            src: 0x10,
            dst: 0x20,
            len: 4,
        };
        program(
            &mut n,
            copy.encode_on(Block::Bdma).unwrap(),
            &[Block::Bdma],
            0,
        )
        .unwrap();
        let status = r(&mut n, Block::Glb, regs::GLB_INTR_STATUS, 100_000);
        assert!(status & (1 << 5) != 0);
        assert_eq!(&n.dbb_mut().bytes()[0x20..0x24], &[9, 8, 7, 6]);
    }

    #[test]
    fn reset_replays_identically_to_a_fresh_accelerator() {
        use rvnv_bus::Reset;
        let mut used = small();
        program_simple_conv(&mut used);
        let first_done = used.idle_at(0);
        let _ = r(&mut used, Block::Glb, regs::GLB_INTR_STATUS, 1_000_000);
        used.reset();
        assert_eq!(used.stats().total_ops(), 0);
        assert!(used.timeline().is_empty());
        assert!(!used.intr_pending(u64::MAX));
        // Re-program from scratch: the same launch completes at the same
        // cycle as on a fresh device.
        program_simple_conv(&mut used);
        assert_eq!(used.idle_at(0), first_done);
        let mut fresh = small();
        program_simple_conv(&mut fresh);
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    fn timing_only_mode_keeps_dma_and_cycles() {
        let mut f = small();
        f.set_functional(false);
        program_simple_conv(&mut f);
        let mut g = small();
        program_simple_conv(&mut g);
        assert_eq!(f.idle_at(0), g.idle_at(0), "same completion time");
        assert_eq!(
            f.stats().total_dma_bytes(),
            g.stats().total_dma_bytes(),
            "same traffic"
        );
        // But the output is zeros.
        assert_eq!(&f.dbb_mut().bytes()[0x304..0x308], &[0, 0, 0, 0]);
    }

    /// One launch of every kind: a conv whose weights take three CBUF
    /// passes, through a flying SDP with bias and eltwise; a standalone
    /// SDP; a PDP; a CDP; a BDMA copy and an empty RUBIK copy.
    fn every_launch() -> Vec<Launch> {
        let (mut conv, mut flying) = simple_conv(Precision::Int8);
        (conv.wt_addr, conv.wt_bytes) = (0x1_0000, 150_000);
        flying.flags |= regs::SDP_FLAG_BIAS | regs::SDP_FLAG_ELTWISE;
        (flying.bs_addr, flying.src2) = (0x900, 0x980);
        let memory = SdpDesc {
            src_mode: SdpSrc::Memory,
            src: 0x400,
            ..flying.clone()
        };
        let lrn = CdpDesc {
            src: 0xA00,
            dst: 0xB00,
            w: 4,
            h: 4,
            c: 3,
            local_size: 3,
            beta: 0.75,
            k: 1.0,
            in_scale: 1.0,
            out_scale: 1.0,
            ..CdpDesc::default()
        };
        let copy = |src, len| CopyDesc {
            src,
            dst: 0xC00,
            len,
        };
        vec![
            Launch::Conv(conv, flying),
            Launch::Sdp(memory),
            Launch::Pdp(pool_desc()),
            Launch::Cdp(lrn),
            Launch::Copy(Block::Bdma, copy(0x10, 4)),
            Launch::Copy(Block::Rubik, copy(0x20, 0)),
        ]
    }

    /// The register writes that program `launch`, and the blocks whose
    /// enables start it.
    fn launch_writes(launch: &Launch) -> (Vec<(u32, u32)>, &[Block]) {
        match launch {
            Launch::Conv(c, s) => (writes(&(c.clone(), s.clone())), ConvDesc::LAUNCH),
            Launch::Sdp(d) => (d.encode().unwrap(), SdpDesc::LAUNCH),
            Launch::Pdp(d) => (d.encode().unwrap(), PdpDesc::LAUNCH),
            Launch::Cdp(d) => (d.encode().unwrap(), CdpDesc::LAUNCH),
            Launch::Copy(b, d) => (d.encode_on(*b).unwrap(), std::slice::from_ref(b)),
        }
    }

    /// `op`'s transfers as the DBB must see them, in order: one
    /// (address, length) per train, empty ones left out.
    fn trains(op: &OpPlan) -> Vec<(u32, usize)> {
        let transfers = op.steps().filter_map(|step| match step {
            Step::Transfer(x) => Some(x),
            Step::Compute { .. } => None,
        });
        transfers
            .flat_map(|x| std::iter::repeat_n(x, x.repeat as usize))
            .filter(|x| x.len > 0)
            .map(|x| (x.addr, x.len as usize))
            .collect()
    }

    /// The plan is what the fabric sees. Over every launch kind, the
    /// DBB is handed exactly each plan's transfers in order (re-fetches
    /// as separate trains) and the books hold the plans' bytes; a
    /// timing-only run issues the same trains — same bursts, directions,
    /// cycles and books — every one length-only, so no launch had a
    /// surface to allocate, fill or free.
    #[test]
    fn timing_only_issues_the_same_bursts_length_only() {
        let cfg = HwConfig::nv_small();
        let plans: Vec<OpPlan> = every_launch()
            .iter()
            .map(|l| plan::plan(l, &cfg).unwrap())
            .collect();
        let refetch = plans[0].steps().find_map(|step| match step {
            Step::Transfer(x) if x.purpose == Purpose::Refetch => Some(x.repeat),
            _ => None,
        });
        assert_eq!(refetch, Some(2), "three CBUF passes");
        let want: Vec<(u32, usize)> = plans.iter().flat_map(trains).collect();
        let plan_bytes: u64 = plans
            .iter()
            .flat_map(trains)
            .map(|(_, len)| len as u64)
            .sum();
        let bursts_of = |functional: bool| {
            let mut n = small();
            n.set_functional(functional);
            let mut t = 0;
            for launch in every_launch() {
                let (writes, blocks) = launch_writes(&launch);
                t = program(&mut n, writes, blocks, t).unwrap();
            }
            (n.idle_at(0), n.stats().clone(), n.dbb_mut().bursts.clone())
        };
        let (f_done, f_stats, functional) = bursts_of(true);
        let (t_done, t_stats, timing) = bursts_of(false);
        assert!(functional.iter().all(|b| b.carries_bytes));
        assert!(timing.iter().all(|b| !b.carries_bytes));
        for seen in [&functional, &timing] {
            let got: Vec<(u32, usize)> = seen.iter().map(|b| (b.addr, b.len)).collect();
            assert_eq!(got, want);
        }
        let shape = |b: &Seen| (b.addr, b.len, b.bursts, b.write);
        assert_eq!(
            timing.iter().map(shape).collect::<Vec<_>>(),
            functional.iter().map(shape).collect::<Vec<_>>()
        );
        assert_eq!(f_stats.total_dma_bytes(), plan_bytes);
        assert_eq!(f_stats.total_ops(), 7, "the conv books CACC and SDP");
        assert_eq!((t_done, t_stats), (f_done, f_stats));
    }

    /// A descriptor whose every field fits its register but whose sizes
    /// pass the 32-bit address space is a slave error, never a wrapped
    /// or overflowing `u32` product: a 65,536-channel pool of 65,535²
    /// planes, a conv with that feature, a standalone SDP with that
    /// surface, and a copy off the top of memory.
    #[test]
    fn sizes_past_the_address_space_are_slave_errors() {
        let huge = PdpDesc {
            c: 65_536,
            in_h: 65_535,
            in_w: 65_535,
            k: 1,
            stride: 1,
            out_w: 1,
            out_h: 1,
            ..pool_desc()
        };
        let (conv, flying) = simple_conv(Precision::Int8);
        let (c, h, w) = (65_536, 65_535, 65_535);
        let conv = ConvDesc {
            in_c: c,
            in_h: h,
            in_w: w,
            out_c: 1,
            out_h: 1,
            out_w: 1,
            wt_bytes: c,
            ..conv
        };
        let flying = SdpDesc {
            c: 1,
            h: 1,
            w: 1,
            ..flying
        };
        let memory = SdpDesc {
            src_mode: SdpSrc::Memory,
            c,
            h,
            w,
            ..flying.clone()
        };
        let copy = CopyDesc {
            src: 0xFFFF_FF00,
            dst: 0,
            len: 0x200,
        };
        for launch in [
            Launch::Pdp(huge),
            Launch::Conv(conv, flying),
            Launch::Sdp(memory),
            Launch::Copy(Block::Bdma, copy),
        ] {
            let mut n = small();
            let (writes, blocks) = launch_writes(&launch);
            let e = program(&mut n, writes, blocks, 0);
            let want = "DMA transfer passes the 32-bit address space";
            assert_eq!(reason(e), want, "{launch:?}");
            assert_eq!(n.stats().total_ops(), 0);
        }
    }

    #[test]
    fn stats_accumulate_macs_and_csb() {
        let mut n = small();
        program_simple_conv(&mut n);
        let s = n.stats();
        assert!(s.csb_writes > 20);
        assert_eq!(s.engine(Block::Cacc).ops, 1);
        assert_eq!(s.engine(Block::Cacc).macs, 2 * 2 * 2 * 2); // out 2x2x2, in/group 2, 1x1
        assert!(s.engine(Block::Sdp).dma_write_bytes == 8);
    }

    #[test]
    fn dbb_latency_reflected_in_completion() {
        // DRAM-backed DBB completes later than SRAM-backed.
        let mut slow: Nvdla<Dram> =
            Nvdla::new(HwConfig::nv_small(), Dram::new(1 << 20, Default::default()));
        let fb: Vec<u8> = (0..8).collect();
        slow.dbb_mut().load(0x100, &fb).unwrap();
        slow.dbb_mut().load(0x200, &[1, 1, 1, 0xFF]).unwrap();
        let op = simple_conv(Precision::Int8);
        program(&mut slow, writes(&op), ConvDesc::LAUNCH, 0).unwrap();
        let mut fast = small();
        program_simple_conv(&mut fast);
        assert!(slow.idle_at(0) > fast.idle_at(0));
    }
}
