//! What the SoC workloads share: compiling a model set, the
//! fingerprint-first checks, the paper's reference numbers, and the
//! modeled-counter read-out of one inference.

use std::sync::Arc;

use rv_nvdla::rvnv_compiler::codegen::CodegenOptions;
use rv_nvdla::rvnv_compiler::{compile, Artifacts, CompileOptions};
use rv_nvdla::rvnv_nn::graph::Network;
use rv_nvdla::rvnv_nn::zoo::Model;
use rv_nvdla::rvnv_nn::Tensor;
use rv_nvdla::rvnv_nvdla::regs::Block;
use rv_nvdla::rvnv_nvdla::Precision;
use rv_nvdla::rvnv_soc::firmware::Firmware;
use rv_nvdla::rvnv_soc::soc::{InferenceResult, Soc, SocConfig};
use rvnv_bench::inference_fingerprint as fingerprint;
use rvnv_util::mix64;

use crate::metrics::Results;
use crate::spans::Spans;

/// Output checks made so far; a failed check is a failed op.
#[derive(Default)]
pub struct Checks {
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
        ok
    }
}

/// One compiled model with the seeded input the workload feeds it.
pub struct Compiled {
    pub model: Model,
    /// `<model>-<precision>`, the suffix of `soc.modeled_cycles.*`.
    pub key: String,
    pub net: Network,
    pub artifacts: Arc<Artifacts>,
    pub fw: Firmware,
    pub tensor: Tensor,
    pub input: Vec<u8>,
}

fn model_slug(model: Model) -> &'static str {
    match model {
        Model::LeNet5 => "lenet5",
        Model::ResNet18 => "resnet18",
        Model::ResNet50 => "resnet50",
        Model::MobileNet => "mobilenet",
        Model::GoogLeNet => "googlenet",
        Model::AlexNet => "alexnet",
    }
}

/// `<model>-<int8|fp16>`.
pub fn model_key(model: Model, precision: Precision) -> String {
    let p = match precision {
        Precision::Int8 => "int8",
        Precision::Fp16 => "fp16",
    };
    format!("{}-{p}", model_slug(model))
}

/// The Table II flow's compile options: INT8, one register sequence
/// per layer, a single calibration input (the paper's trace replay).
pub fn table2_options() -> CompileOptions {
    let mut opt = CompileOptions::int8().unfused();
    opt.calib_inputs = 1;
    opt
}

/// Build, compile and generate firmware for each model, each step
/// under its layer's span; inputs derive from `seed`.
pub fn compile_set(
    models: &[Model],
    opt: &CompileOptions,
    codegen: CodegenOptions,
    seed: u64,
    spans: &mut Spans,
) -> Vec<Compiled> {
    models
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let net = spans.time("nn.build", |_| model.build(1));
            let artifacts = spans.time("compiler.compile", |_| {
                Arc::new(compile(&net, opt).expect("zoo models compile"))
            });
            let fw = spans.time("firmware.build", |_| {
                Firmware::build_with(&artifacts, codegen).expect("firmware assembles")
            });
            let tensor = Tensor::random(net.input_shape(), mix64(seed ^ (i as u64 + 1)));
            let input = artifacts.quantize_input(&tensor);
            Compiled {
                model,
                key: model_key(model, opt.precision),
                net,
                artifacts,
                fw,
                tensor,
                input,
            }
        })
        .collect()
}

/// A model's warm SoCs after the fingerprint-first checks, with the
/// fingerprints every later op must reproduce.
pub struct Verified {
    pub timing: Soc,
    pub timing_fp: u64,
    pub cycles: u64,
    pub functional: Option<(Soc, u64)>,
}

/// A configuration's block-cache-off run is made when its cold run was
/// shorter than this. Timing-only runs always are; of the functional
/// ones only ResNet-50's is not (seconds of convolution the block
/// cache never touches), and its ISS path is the one its timing-only
/// run has already proven.
const CACHE_OFF_BUDGET: std::time::Duration = std::time::Duration::from_millis(500);

/// Fingerprint first, timing second: on `timing` (and `functional`
/// when given) prove block cache on == off and cold == warm, and that
/// functional cycles == timing-only cycles, before anything is timed.
/// The SoCs come back warm, weights resident.
pub fn verify(
    c: &Compiled,
    timing: &SocConfig,
    functional: Option<&SocConfig>,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Verified {
    let run = |soc: &mut Soc| {
        soc.run_firmware(&c.artifacts, &c.input, &c.fw)
            .expect("seed-tree inference runs")
    };
    let matrix = |config: &SocConfig, spans: &mut Spans, checks: &mut Checks| {
        let mut soc = spans.time("soc.new", |_| Soc::new(config.clone()));
        spans.time("soc.load_artifacts", |_| {
            soc.load_artifacts(&c.artifacts).expect("weights fit DRAM")
        });
        let started = std::time::Instant::now();
        let cold = spans.time("soc.run_cold", |_| run(&mut soc));
        let repeatable = started.elapsed() < CACHE_OFF_BUDGET;
        let fp = fingerprint(&cold);
        checks.check(fingerprint(&run(&mut soc)) == fp, || {
            format!("{}: warm run diverged from cold", c.key)
        });
        if repeatable {
            let mut off = Soc::new(SocConfig {
                block_cache: false,
                ..config.clone()
            });
            checks.check(fingerprint(&run(&mut off)) == fp, || {
                format!("{}: block cache changed an architectural observable", c.key)
            });
        }
        (soc, fp, cold.cycles)
    };
    let (timing_soc, timing_fp, cycles) = matrix(timing, spans, checks);
    let functional = functional.map(|config| {
        let (soc, fp, functional_cycles) = matrix(config, spans, checks);
        checks.check(functional_cycles == cycles, || {
            format!(
                "{}: functional {functional_cycles} cycles != timing-only {cycles}",
                c.key
            )
        });
        (soc, fp)
    });
    Verified {
        timing: timing_soc,
        timing_fp,
        cycles,
        functional,
    }
}

/// The paper's number for `model`: Table II latency at 100 MHz as
/// cycles (INT8 on nv_small), Table III cycle count (FP16 on nv_full).
pub fn paper_cycles(model: Model, precision: Precision) -> Option<u64> {
    match (precision, model) {
        (Precision::Int8, Model::LeNet5) => Some(480_000),
        (Precision::Int8, Model::ResNet18) => Some(1_620_000),
        (Precision::Int8, Model::ResNet50) => Some(110_000_000),
        (Precision::Int8, _) => None,
        (Precision::Fp16, Model::LeNet5) => Some(143_188),
        (Precision::Fp16, Model::ResNet18) => Some(324_387),
        (Precision::Fp16, Model::ResNet50) => Some(26_565_315),
        (Precision::Fp16, Model::MobileNet) => Some(22_525_704),
        (Precision::Fp16, Model::GoogLeNet) => Some(40_889_646),
        (Precision::Fp16, Model::AlexNet) => Some(35_535_582),
    }
}

/// `paper.error_pct`: mean over `(model, precision, modeled cycles)` of
/// |modeled − paper| / paper, in percent.
pub fn paper_error_pct(rows: &[(Model, Precision, u64)]) -> Option<f64> {
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|&(m, p, cycles)| {
            paper_cycles(m, p).map(|paper| cycles.abs_diff(paper) as f64 / paper as f64)
        })
        .collect();
    (!errs.is_empty()).then(|| 100.0 * errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Add one inference's modeled counters to `out`: the `[M]` rows of the
/// riscv, bus, nvdla, soc, firmware and compiler layers. `r` must come
/// from a SoC that captures the timeline.
pub fn modeled_counters(c: &Compiled, r: &InferenceResult, out: &mut Results) {
    out.set(&format!("soc.modeled_cycles.{}", c.key), r.cycles as f64);
    out.add("riscv.instructions", r.instructions as f64);
    out.add("riscv.block_cache_hits", r.block_cache.hits as f64);
    out.add("riscv.block_cache_misses", r.block_cache.misses as f64);
    out.add("riscv.elided_polls", r.elided_polls as f64);
    out.add("bus.cpu_arbiter_wait_cycles", r.cpu_arbiter_wait as f64);
    out.add("bus.dma_bytes", r.nvdla.total_dma_bytes() as f64);
    out.add("nvdla.ops", r.nvdla.total_ops() as f64);
    out.add("nvdla.macs", r.nvdla.total_macs() as f64);
    out.add("nvdla.csb_reads", r.nvdla.csb_reads as f64);
    out.add("nvdla.csb_writes", r.nvdla.csb_writes as f64);
    out.add("firmware.bytes", r.firmware_bytes as f64);
    out.add("compiler.ops", c.artifacts.ops.len() as f64);
    out.add("compiler.commands", c.artifacts.commands.len() as f64);
    out.add(
        "compiler.weight_bytes",
        c.artifacts.weights.total_bytes() as f64,
    );
    // Busy cycles per engine, and the run cycles no op span covers
    // (register programming and polling between launches).
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(r.timeline.len());
    for op in &r.timeline {
        let name = match op.block {
            Block::Cacc => "nvdla.busy_cycles.conv",
            Block::Sdp => "nvdla.busy_cycles.sdp",
            Block::Pdp => "nvdla.busy_cycles.pdp",
            Block::Cdp => "nvdla.busy_cycles.cdp",
            _ => continue,
        };
        out.add(name, (op.done - op.start) as f64);
        spans.push((op.start, op.done.min(r.cycles)));
    }
    spans.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, done) in spans {
        let from = start.max(reach);
        if done > from {
            covered += done - from;
            reach = done;
        }
    }
    out.add("nvdla.idle_cycles", (r.cycles - covered) as f64);
}

/// Fill `riscv.cpi_milli` for a set of results: total cycles over
/// total instructions of the core pipeline, ×1000.
pub fn cpi_milli(results: &[InferenceResult], out: &mut Results) {
    let cycles: u64 = results.iter().map(|r| r.pipeline.total_cycles()).sum();
    let instr: u64 = results.iter().map(|r| r.instructions).sum();
    if let Some(cpi) = (cycles * 1000).checked_div(instr) {
        out.set("riscv.cpi_milli", cpi as f64);
    }
}
