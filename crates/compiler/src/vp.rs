//! The NVDLA virtual platform (paper Fig. 3).
//!
//! The real VP co-simulates QEMU and the SystemC NVDLA model; its value
//! to the paper's flow is (a) executing a compiled network without the
//! SoC and (b) producing the CSB/DBB transaction log that the toolflow
//! scrapes. This module does both against our register-level model: it
//! replays a command stream on an [`Nvdla`] whose DBB is instrumented
//! with a beat-level logger.

use std::error::Error;
use std::fmt;

use rvnv_bus::dram::{Dram, DramTiming};
use rvnv_bus::{BusError, Cycle, Data, Payload, Request, Reset, Target};
use rvnv_nvdla::{HwConfig, Nvdla};

use crate::compile::Artifacts;
use crate::trace::ConfigCmd;
use crate::vplog::VpLog;

/// A DBB wrapper that logs every 64-bit beat like `nvdla.dbb_adaptor`.
#[derive(Debug)]
pub struct DbbLogger<T> {
    inner: T,
    log: VpLog,
    enabled: bool,
}

impl<T: Target> DbbLogger<T> {
    /// Wrap a memory; logging starts disabled.
    pub fn new(inner: T) -> Self {
        DbbLogger {
            inner,
            log: VpLog::new(),
            enabled: false,
        }
    }

    /// Enable/disable beat logging (large models produce huge logs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Take the accumulated log, leaving an empty one.
    pub fn take_log(&mut self) -> VpLog {
        std::mem::take(&mut self.log)
    }

    /// Access the wrapped memory.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// The wrapped memory, borrowed (for its statistics).
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Reset> Reset for DbbLogger<T> {
    /// Reset the wrapped memory and drop the log; logging stays as set.
    fn reset(&mut self) {
        self.inner.reset();
        self.log = VpLog::new();
    }
}

impl<T: Target> Target for DbbLogger<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<rvnv_bus::Response, BusError> {
        let resp = self.inner.access(req, now)?;
        if self.enabled {
            let data = req.write_data().unwrap_or(resp.data);
            self.log.dbb(req.addr, data, req.is_write());
        }
        Ok(resp)
    }

    /// Disabled, a train passes through untouched. Enabled, every
    /// constituent burst is logged in issue order, so the train is
    /// walked.
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        if !self.enabled {
            return self.inner.burst(addr, payload, now);
        }
        payload.walk(addr, now, |a, p, t| self.logged_burst(a, p, t))
    }
}

impl<T: Target> DbbLogger<T> {
    /// One burst, logged beat by beat.
    fn logged_burst(
        &mut self,
        addr: u32,
        mut payload: Payload<'_>,
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        // The log records data beats, so an enabled logger is the one
        // consumer of a length-only burst's bytes: it fetches what a
        // read would have returned, and logs the zeros a timing-only
        // engine's write stands for.
        let iswrite = payload.is_write();
        let mut stand_in = Vec::new();
        if let Data::Len { len, .. } = payload.data {
            stand_in = vec![0u8; len];
        }
        let done = if stand_in.is_empty() || iswrite {
            self.inner.burst(addr, payload.slice(0, usize::MAX), now)?
        } else {
            self.inner.burst(addr, Payload::read(&mut stand_in), now)?
        };
        let bytes: &[u8] = match &payload.data {
            Data::Read(buf) => buf,
            Data::Write(buf) => buf,
            Data::Len { .. } => &stand_in,
        };
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut beat = [0u8; 8];
            beat[..chunk.len()].copy_from_slice(chunk);
            self.log
                .dbb(addr + (i * 8) as u32, u64::from_le_bytes(beat), iswrite);
        }
        Ok(done)
    }
}

/// Result of one VP run.
#[derive(Debug)]
pub struct VpRun {
    /// Total cycles from first command to accelerator idle.
    pub cycles: u64,
    /// Raw output bytes.
    pub output: Vec<u8>,
    /// The transaction log (empty when logging was off).
    pub log: VpLog,
    /// CSB commands replayed.
    pub commands: usize,
}

/// VP failure.
#[derive(Debug)]
pub enum VpError {
    /// A register command faulted.
    Bus(BusError),
    /// A `read_reg` expectation never became true.
    Mismatch {
        /// The failing command.
        cmd: ConfigCmd,
        /// Value observed.
        got: u32,
    },
    /// The input is not the compiled model's input length.
    InputLength {
        /// `Artifacts::input_len`.
        expected: usize,
        /// Bytes given.
        got: usize,
    },
}

impl fmt::Display for VpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpError::Bus(e) => write!(f, "vp bus fault: {e}"),
            VpError::Mismatch { cmd, got } => {
                write!(f, "vp expectation failed: `{cmd}` observed {got:#010x}")
            }
            VpError::InputLength { expected, got } => {
                write!(f, "vp input is {got} bytes, the model takes {expected}")
            }
        }
    }
}

impl Error for VpError {}

impl From<BusError> for VpError {
    fn from(e: BusError) -> Self {
        VpError::Bus(e)
    }
}

/// The virtual platform: an NVDLA with a logged, DRAM-backed DBB.
#[derive(Debug)]
pub struct VirtualPlatform {
    nvdla: Nvdla<DbbLogger<Dram>>,
    /// CSB cost per replayed command (the VP's host-driven CSB is quick).
    csb_interval: u64,
}

impl VirtualPlatform {
    /// Build a VP for the given configuration with the FPGA's MIG memory
    /// timing ([`DramTiming::mig_ddr4`]) and `mem_bytes` of DRAM. That is
    /// not Table III's timing: `rvnv_soc::paper::table3_vp` builds the VP
    /// the paper's `nv_full` cycle counts come from.
    #[must_use]
    pub fn new(cfg: HwConfig, mem_bytes: usize) -> Self {
        Self::with_timing(cfg, mem_bytes, DramTiming::mig_ddr4())
    }

    /// Build a VP with explicit memory timing. Table III's `nv_full` runs
    /// use [`DramTiming::nvdla_vp`]: the MIG's 4 B/beat at lower
    /// latencies.
    #[must_use]
    pub fn with_timing(cfg: HwConfig, mem_bytes: usize, timing: DramTiming) -> Self {
        VirtualPlatform {
            nvdla: Nvdla::new(cfg, DbbLogger::new(Dram::new(mem_bytes, timing))),
            csb_interval: 4,
        }
    }

    /// Disable functional computation (timing-only sweeps).
    pub fn set_functional(&mut self, functional: bool) {
        self.nvdla.set_functional(functional);
    }

    /// The underlying accelerator (for statistics).
    #[must_use]
    pub fn nvdla(&self) -> &Nvdla<DbbLogger<Dram>> {
        &self.nvdla
    }

    /// Run a compiled model on `input` (raw quantized bytes).
    ///
    /// Every run starts from power-on: the accelerator and its memory
    /// are reset first, so a reused VP reports this run alone, and the
    /// functional setting carries over.
    ///
    /// The weight image and the input are preloaded only when something
    /// can read them: functional engines fetch real operands, and an
    /// enabled [`DbbLogger`] upgrades length-only reads to real fetches
    /// for its beat log. A timing-only, unlogged replay stores no byte,
    /// so its host cost follows its bursts, not the model's bytes, and
    /// its output reads back as zeros; modeled cycles are the same
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InputLength`] if `input` is not
    /// `artifacts.input_len` bytes long, [`VpError`] on register faults
    /// or failed expectations, and [`VpError::Bus`] with
    /// [`BusError::OutOfRange`] when the model does not fit in VP memory
    /// (from the preload, or from the first burst past the end when
    /// nothing is preloaded).
    pub fn run(
        &mut self,
        artifacts: &Artifacts,
        input: &[u8],
        log_transactions: bool,
    ) -> Result<VpRun, VpError> {
        if input.len() != artifacts.input_len {
            return Err(VpError::InputLength {
                expected: artifacts.input_len,
                got: input.len(),
            });
        }
        let functional = self.nvdla.functional();
        self.nvdla.reset();
        self.nvdla.set_functional(functional);
        // Preload weights and input (backdoor: not part of inference).
        if functional || log_transactions {
            let dram = self.nvdla.dbb_mut().inner_mut();
            dram.load(artifacts.input_addr as usize, input)?;
            for seg in artifacts.weights.segments() {
                dram.load(seg.addr as usize, &seg.bytes)?;
            }
        }
        self.nvdla.dbb_mut().set_enabled(log_transactions);

        let mut t: u64 = 0;
        let mut csb_log: Vec<(u32, u32, bool)> = Vec::new();
        for cmd in &artifacts.commands {
            match *cmd {
                ConfigCmd::WriteReg { addr, value } => {
                    let r = self.nvdla.access(&Request::write32(addr, value), t)?;
                    t = r.done_at + self.csb_interval;
                    if log_transactions {
                        csb_log.push((addr, value, true));
                    }
                }
                ConfigCmd::ReadReg { addr, mask, expect } => {
                    // First read; if unsatisfied, the VP sleeps on the
                    // interrupt and reads once more at completion.
                    let r = self.nvdla.access(&Request::read32(addr), t)?;
                    let mut got = r.data32();
                    t = r.done_at + self.csb_interval;
                    if got & mask != expect {
                        let wake = self.nvdla.idle_at(t).max(t) + 1;
                        let r2 = self.nvdla.access(&Request::read32(addr), wake)?;
                        got = r2.data32();
                        t = r2.done_at + self.csb_interval;
                    }
                    if got & mask != expect {
                        return Err(VpError::Mismatch { cmd: *cmd, got });
                    }
                    if log_transactions {
                        csb_log.push((addr, got, false));
                    }
                }
            }
        }
        let cycles = self.nvdla.idle_at(t);

        // Merge CSB lines in front of the DBB beats: command order is
        // what the scraper needs, not interleaving fidelity.
        let mut log = VpLog::new();
        for (addr, data, iswrite) in csb_log {
            log.csb(addr, data, iswrite);
        }
        let dbb = self.nvdla.dbb_mut().take_log();
        for e in dbb.entries() {
            log.dbb(e.addr, e.data, e.iswrite);
        }

        let output = self
            .nvdla
            .dbb_mut()
            .inner_mut()
            .peek(artifacts.output_addr as usize, artifacts.output_len)
            .into_owned();
        Ok(VpRun {
            cycles,
            output,
            log,
            commands: artifacts.commands.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::vplog::{extract_config, extract_weights};
    use rvnv_nn::exec::Executor;
    use rvnv_nn::tensor::Tensor;
    use rvnv_nn::zoo;

    #[test]
    fn lenet_runs_on_vp_and_matches_golden_argmax() {
        let net = zoo::lenet5(7);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 99);
        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        let run = vp
            .run(&artifacts, &artifacts.quantize_input(&input), false)
            .unwrap();
        assert!(
            run.cycles > 10_000,
            "LeNet takes real cycles: {}",
            run.cycles
        );

        let got = artifacts.dequantize_output(&run.output);
        // Golden reference: compare pre-softmax logits by argmax.
        let exec = Executor::new(&net);
        let all = exec.run_all(&input).unwrap();
        let logits = &all[all.len() - 2]; // ip2, before softmax
        assert_eq!(got.argmax(), logits.argmax(), "classification must agree");
    }

    #[test]
    fn toolflow_round_trip_config_from_log() {
        let net = zoo::lenet5(3);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 5);
        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        let run = vp
            .run(&artifacts, &artifacts.quantize_input(&input), true)
            .unwrap();
        // The scraped config equals the compiled command stream.
        let scraped = extract_config(&run.log);
        assert_eq!(scraped, artifacts.commands);
        // Weight extraction covers the weight image (first reads are the
        // original weights).
        let weights = extract_weights(&run.log);
        assert!(!weights.is_empty());
        let total_weight_bytes: usize = artifacts.weights.total_bytes();
        assert!(
            weights.len() * 8 >= total_weight_bytes,
            "every weight byte appears in some read beat"
        );
    }

    #[test]
    fn vp_detects_wrong_expectation() {
        let net = zoo::lenet5(3);
        let mut artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        // Corrupt a poll to expect an impossible bit.
        for c in &mut artifacts.commands {
            if let ConfigCmd::ReadReg { mask, expect, .. } = c {
                *mask = 1 << 31;
                *expect = 1 << 31;
                break;
            }
        }
        let input = vec![0u8; artifacts.input_len];
        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        let e = vp.run(&artifacts, &input, false).unwrap_err();
        assert!(matches!(e, VpError::Mismatch { .. }));
    }

    #[test]
    fn fp16_on_nv_full_runs() {
        let net = zoo::lenet5(2);
        let artifacts = compile(&net, &CompileOptions::fp16()).unwrap();
        let input = Tensor::random(net.input_shape(), 1);
        let mut vp = VirtualPlatform::new(HwConfig::nv_full(), 64 << 20);
        let run = vp
            .run(&artifacts, &artifacts.quantize_input(&input), false)
            .unwrap();
        let got = artifacts.dequantize_output(&run.output);
        let exec = Executor::new(&net);
        let all = exec.run_all(&input).unwrap();
        let logits = &all[all.len() - 2];
        // FP16 is close to f32: compare values, not just argmax.
        for (a, b) in got.data().iter().zip(logits.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn timing_only_run_is_cycle_identical() {
        let net = zoo::lenet5(2);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let input = Tensor::random(net.input_shape(), 1);
        let bytes = artifacts.quantize_input(&input);
        let mut vp1 = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        let r1 = vp1.run(&artifacts, &bytes, false).unwrap();
        let mut vp2 = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        vp2.set_functional(false);
        let r2 = vp2.run(&artifacts, &bytes, false).unwrap();
        assert_eq!(r1.cycles, r2.cycles);
    }

    /// An enabled logger is the one reader of a timing-only run's
    /// weights: the run must preload them, and scrape to the same beats
    /// as the functional logged run wherever the weight image lies
    /// (intermediate activations are real in one run and zero in the
    /// other, by design).
    #[test]
    fn timing_only_logged_run_extracts_the_same_weights() {
        let net = zoo::lenet5(3);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 5));
        let logged = |functional: bool| {
            let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
            vp.set_functional(functional);
            let run = vp.run(&artifacts, &bytes, true).unwrap();
            let mut beats = extract_weights(&run.log);
            beats.retain(|&(addr, _)| {
                (artifacts.weights.segments().iter())
                    .any(|s| s.addr <= addr && addr - s.addr < s.bytes.len() as u32)
            });
            (run.cycles, beats)
        };
        let (f_cycles, f_weights) = logged(true);
        let (t_cycles, t_weights) = logged(false);
        assert_eq!(t_cycles, f_cycles);
        assert!(f_weights.len() * 8 >= artifacts.weights.total_bytes());
        assert!(f_weights.iter().any(|&(_, data)| data != 0), "real weights");
        assert_eq!(t_weights, f_weights);
    }

    /// A timing-only run leaves no weights behind, so switching the same
    /// VP to functional must preload them then and compute real output.
    #[test]
    fn switching_a_timing_only_vp_to_functional_computes_real_output() {
        let net = zoo::lenet5(2);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 1));
        let mut fresh = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        let want = fresh.run(&artifacts, &bytes, false).unwrap();
        assert!(want.output.iter().any(|&b| b != 0));

        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        vp.set_functional(false);
        let timing = vp.run(&artifacts, &bytes, false).unwrap();
        assert!(timing.output.iter().all(|&b| b == 0), "nothing computed");
        vp.set_functional(true);
        let got = vp.run(&artifacts, &bytes, false).unwrap();
        assert_eq!(got.output, want.output);
        assert_eq!(got.cycles, want.cycles);
        assert_eq!(timing.cycles, want.cycles);
    }

    /// Each run starts from power-on: a second replay on the same VP
    /// reports what a fresh VP does — cycles, accelerator statistics
    /// and output — functional and timing-only alike, and a timing-only
    /// run after a functional one returns zeros, not the previous
    /// run's output.
    #[test]
    fn a_reused_vp_reports_each_run_alone() {
        let net = zoo::lenet5(2);
        let artifacts = compile(&net, &CompileOptions::int8()).unwrap();
        let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 1));
        let replay = |vp: &mut VirtualPlatform| {
            let run = vp.run(&artifacts, &bytes, false).unwrap();
            (run.cycles, vp.nvdla().stats().clone(), run.output)
        };
        for functional in [true, false] {
            let mut fresh = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
            fresh.set_functional(functional);
            let want = replay(&mut fresh);
            let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
            vp.set_functional(functional);
            assert_eq!(replay(&mut vp), want, "first run, functional={functional}");
            assert_eq!(replay(&mut vp), want, "second run, functional={functional}");
        }

        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
        assert!(replay(&mut vp).2.iter().any(|&b| b != 0));
        vp.set_functional(false);
        assert!(
            replay(&mut vp).2.iter().all(|&b| b == 0),
            "nothing computed"
        );
    }

    /// A wrong-length input is refused before anything runs, whether or
    /// not the run would have loaded it.
    #[test]
    fn a_wrong_length_input_is_a_typed_error_in_every_mode() {
        let artifacts = compile(&zoo::lenet5(1), &CompileOptions::int8()).unwrap();
        let input = vec![0u8; artifacts.input_len + 1];
        for (functional, logged) in [(true, false), (false, false), (false, true)] {
            let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
            vp.set_functional(functional);
            let e = vp.run(&artifacts, &input, logged).unwrap_err();
            assert!(
                matches!(e, VpError::InputLength { expected, got }
                    if expected == artifacts.input_len && got == expected + 1),
                "functional={functional}, logged={logged}: {e}"
            );
        }
    }

    /// A model that does not fit is a typed error on both paths: from
    /// the preload when functional, from the first burst past the end
    /// when nothing is preloaded — whether the weights or the input
    /// run past it.
    #[test]
    fn oversized_model_is_out_of_range_not_a_panic() {
        // Based so that the input still fits under 1 MB and nothing
        // after it does.
        let opt = CompileOptions::int8().at_dram_base((1 << 20) - 1024);
        let artifacts = compile(&zoo::lenet5(1), &opt).unwrap();
        let (at, len) = (artifacts.input_addr as usize, artifacts.input_len);
        assert!(at + len <= 1 << 20);
        assert!(artifacts.weights.segments()[0].addr as usize + 500 > 1 << 20);
        let input = vec![0u8; len];
        // 1 MB cuts the weights; half the input cuts the input, which
        // both the preload and the first DMA read reach before anything
        // of the weights.
        for (mem, faults_in_input) in [(1 << 20, false), (at + len / 2, true)] {
            for functional in [true, false] {
                let mut vp = VirtualPlatform::new(HwConfig::nv_small(), mem);
                vp.set_functional(functional);
                let e = vp.run(&artifacts, &input, false).unwrap_err();
                let case = format!("{mem} B, functional={functional}: {e}");
                let VpError::Bus(BusError::OutOfRange { addr, size, .. }) = e else {
                    panic!("{case}");
                };
                assert_eq!(size, mem, "{case}");
                assert_eq!(
                    (at..at + len).contains(&(addr as usize)),
                    faults_in_input,
                    "{case}"
                );
            }
        }
    }
}
