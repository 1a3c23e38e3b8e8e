//! `net` target: randomized small networks compiled and run through
//! the full SoC, functional flow vs timing-only flow. The standing
//! contract (pinned for the zoo models by `tests/properties.rs`) is
//! that the timing-only flow walks the exact same instruction stream:
//! identical cycles, retired instructions, pipeline and engine
//! accounting, and op schedule length — the output alone is never
//! computed. Here the same equality must hold for networks nobody
//! hand-tuned the compiler for, and the bytes the accelerator books
//! ([`rvnv_nvdla::NvdlaStats::total_dma_bytes`], the sum of its ops'
//! plans) must be the bytes its DBB port carried. Before the runs, the
//! compiled command stream is replayed into a register file and every
//! `OP_ENABLE` must latch descriptors the hardware accepts
//! ([`Launch::decode`]) whose output sizes follow the layer shape rules:
//! the compiler never emits an operation the accelerator rejects, and no
//! register field lands in the wrong bits.
//!
//! A plan that fails to build or compile is a passing case, not a
//! counterexample — the generator only emits buildable plans, but the
//! shrinker explores arbitrary layer subsets and must be free to cross
//! inconsistent intermediates.

use std::collections::HashMap;

use rvnv_bus::MasterId;
use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{compile, CompileOptions, ConfigCmd};
use rvnv_nn::tensor::Tensor;
use rvnv_nvdla::descriptor::Launch;
use rvnv_nvdla::regs::{self, Block};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};
use rvnv_util::mix64;

use crate::gen::{self, NetPlan};
use crate::{shrink, FuzzTarget};

/// The functional-vs-timing-only differential target.
pub struct NetTarget;

impl FuzzTarget for NetTarget {
    type Input = NetPlan;
    const NAME: &'static str = "net";

    fn generate(&self, seed: u64) -> NetPlan {
        gen::net_plan(seed)
    }

    fn check(&self, plan: &NetPlan) -> Result<(), String> {
        let Ok(net) = plan.build() else {
            return Ok(());
        };
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let Ok(artifacts) = compile(&net, &opt) else {
            return Ok(());
        };
        // A compiled artifact must always decode, yield firmware and
        // run; from here on every failure is a finding.
        descriptors_decode(&artifacts.commands)?;
        let wfi = plan.weight_seed & 1 == 0;
        let codegen = CodegenOptions {
            wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
            ..CodegenOptions::default()
        };
        let fw = Firmware::build_with(&artifacts, codegen)
            .map_err(|e| format!("firmware build failed on a compiled artifact: {e}"))?;
        let input = Tensor::random(plan.input_shape(), mix64(plan.weight_seed));
        let bytes = artifacts.quantize_input(&input);
        let mut functional = Soc::new(SocConfig::zcu102_nv_small());
        let mut timing = Soc::new(SocConfig {
            capture_timeline: true,
            ..SocConfig::zcu102_timing_only()
        });
        let f = functional
            .run_firmware(&artifacts, &bytes, &fw)
            .map_err(|e| format!("functional run failed: {e}"))?;
        let t = timing
            .run_firmware(&artifacts, &bytes, &fw)
            .map_err(|e| format!("timing-only run failed: {e}"))?;
        let mut diffs = Vec::new();
        if f.cycles != t.cycles {
            diffs.push(format!("cycles {} != {}", f.cycles, t.cycles));
        }
        if f.firmware_cycles != t.firmware_cycles {
            diffs.push(format!(
                "mcycle {} != {}",
                f.firmware_cycles, t.firmware_cycles
            ));
        }
        if f.instructions != t.instructions {
            diffs.push(format!("retired {} != {}", f.instructions, t.instructions));
        }
        if f.pipeline != t.pipeline {
            diffs.push("pipeline stats diverged".into());
        }
        if f.cpu_arbiter_wait != t.cpu_arbiter_wait {
            diffs.push(format!(
                "arbiter wait {} != {}",
                f.cpu_arbiter_wait, t.cpu_arbiter_wait
            ));
        }
        if f.nvdla != t.nvdla {
            diffs.push("engine op/cycle accounting diverged".into());
        }
        // Conservation: every byte the plans booked crossed the DBB port.
        let port = timing.dram_path().lock().port_stats(MasterId::NvdlaDbb);
        let (booked, carried) = (t.nvdla.total_dma_bytes(), port.bytes);
        if booked != carried {
            diffs.push(format!("DBB bytes booked {booked} != carried {carried}"));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "timing-only diverged from functional (wfi={wfi}): {}",
                diffs.join("; ")
            ))
        }
    }

    fn shrink(&self, input: NetPlan, fails: &dyn Fn(&NetPlan) -> bool) -> NetPlan {
        let template = input.clone();
        let layers = shrink::shrink_elements(input.layers, |ls| {
            let cand = NetPlan {
                layers: ls.to_vec(),
                ..template.clone()
            };
            fails(&cand)
        });
        NetPlan { layers, ..template }
    }

    fn size(input: &NetPlan) -> usize {
        input.layers.len()
    }
}

/// Replay `cmds` into a register file, decoding what every `OP_ENABLE`
/// write launches and checking its geometry.
fn descriptors_decode(cmds: &[ConfigCmd]) -> Result<(), String> {
    // Output sizes follow the layer rules: conv rounds down, pooling
    // (Caffe) rounds up.
    let fits = |len: u32, pad: u32, k, stride: u32, out, ceil: bool| {
        let span = (len + 2 * pad).checked_sub(k);
        span.map(|n| if ceil { n.div_ceil(stride) } else { n / stride } + 1) == Some(out)
    };
    let mut file = HashMap::new();
    for (i, cmd) in cmds.iter().enumerate() {
        let ConfigCmd::WriteReg { addr, value } = *cmd else {
            continue;
        };
        file.insert(addr, value);
        let enable = addr & 0xFFF == regs::REG_OP_ENABLE && value & 1 == 1;
        let Some(block) = Block::of_addr(addr).filter(|_| enable) else {
            continue;
        };
        let launch = Launch::decode(block, |a| file.get(&a).copied().unwrap_or(0))
            .map_err(|e| format!("command {i} launches a rejected descriptor: {e}"))?;
        let shaped = match &launch {
            Some(Launch::Conv(c, _)) => {
                fits(c.in_w, c.pad, c.kw, c.stride, c.out_w, false)
                    && fits(c.in_h, c.pad, c.kh, c.stride, c.out_h, false)
            }
            Some(Launch::Pdp(p)) => {
                fits(p.in_w, p.pad, p.k, p.stride, p.out_w, true)
                    && fits(p.in_h, p.pad, p.k, p.stride, p.out_h, true)
            }
            _ => true,
        };
        if !shaped {
            return Err(format!(
                "command {i} launches {launch:?}: off its shape rule"
            ));
        }
    }
    Ok(())
}
