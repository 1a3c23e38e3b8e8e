//! Determinism-fingerprint gate for the fast simulator kernels.
//!
//! The decoded-block cache, the MMIO read lease with poll-loop
//! fast-forward, and the convolution kernels are host-side
//! speedups only: they must not change a single modeled cycle, retired
//! instruction, or output byte. This example *proves* that for a set
//! of real firmwares and convolution shapes, and CI runs it as a hard
//! gate — any divergence aborts with a nonzero exit before anyone
//! trusts a benchmark number produced by the fast paths.
//!
//! What is asserted, per firmware variant (functional poll, functional
//! `wfi`, timing-only `wfi`, and an FP16 `nv_full` build both
//! functional and timing-only):
//!
//! * the inference fingerprint (output bytes + instructions + cycles)
//!   is identical with the decoded-block cache on and off, on both a
//!   cold SoC and across warm repeat runs;
//! * pipeline stats, NVDLA stats (including CSB read counts, which the
//!   read lease credits back), firmware-measured cycles and arbiter
//!   waits agree exactly;
//! * a fully warm run decodes nothing: zero block-cache misses;
//! * a timing-only variant, whose DMA bursts all go out length-only
//!   (no bytes move), keeps its functional twin's cycles, instructions,
//!   pipeline and NVDLA books — on the SoC and on the
//!   `VirtualPlatform` with Table III's memory timing.
//!
//! Separately, the convolution kernels are checked bit-for-bit against
//! the naive tap-at-a-time references over shapes covering padding,
//! stride, grouping, depthwise, pointwise, one-wide outputs, channel
//! counts off the lane block and fully-clipped windows: the engine in
//! both INT8 and FP16, and the golden f32 kernel with a bias (in f32
//! the summation order is the contract). The golden executor on that
//! kernel must yield LeNet-5's and ResNet-18's calibration tables byte
//! for byte as the naive executor does.
//!
//! Finally, the observability layer's honesty contract is gated the
//! same way: firmware runs and serve simulations with an armed
//! `rvnv_obs::Tracer` must be bit- and cycle-identical to untraced
//! ones, while recording a structurally valid, nonempty trace.

use rvnv_bench::inference_fingerprint;
use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{compile, Artifacts, CompileOptions};
use rvnv_nn::conv::{conv2d, conv2d_naive};
use rvnv_nn::exec::Executor;
use rvnv_nn::quant::CalibrationTable;
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::descriptor::ConvDesc;
use rvnv_nvdla::engines::conv;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::paper;
use rvnv_soc::soc::{InferenceResult, Soc, SocConfig};

struct Variant {
    name: &'static str,
    config: SocConfig,
    artifacts: Artifacts,
    codegen: CodegenOptions,
}

fn variants() -> Vec<Variant> {
    let net = Model::LeNet5.build(1);
    let mut int8 = CompileOptions::int8();
    int8.calib_inputs = 1;
    let int8_artifacts = compile(&net, &int8).expect("int8 compile");
    let fp16_artifacts = compile(&net, &CompileOptions::fp16()).expect("fp16 compile");
    let wfi = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    vec![
        Variant {
            name: "functional/poll/int8",
            config: SocConfig::zcu102_nv_small(),
            artifacts: int8_artifacts.clone(),
            codegen: CodegenOptions::default(),
        },
        Variant {
            name: "functional/wfi/int8",
            config: SocConfig::zcu102_nv_small(),
            artifacts: int8_artifacts.clone(),
            codegen: wfi,
        },
        Variant {
            name: "timing-only/wfi/int8",
            config: SocConfig::zcu102_timing_only(),
            artifacts: int8_artifacts,
            codegen: wfi,
        },
        Variant {
            name: "functional/poll/fp16",
            config: SocConfig::zcu102_nv_full(),
            artifacts: fp16_artifacts.clone(),
            codegen: CodegenOptions::default(),
        },
        Variant {
            name: "timing-only/poll/fp16",
            config: SocConfig::zcu102_nv_full_timing_only(),
            artifacts: fp16_artifacts,
            codegen: CodegenOptions::default(),
        },
    ]
}

/// Every architectural observable two equivalent runs must share.
fn assert_identical(name: &str, fast: &InferenceResult, slow: &InferenceResult) {
    assert_eq!(
        inference_fingerprint(fast),
        inference_fingerprint(slow),
        "{name}: fingerprint diverged"
    );
    assert_eq!(fast.cycles, slow.cycles, "{name}: modeled cycles");
    assert_eq!(
        fast.firmware_cycles, slow.firmware_cycles,
        "{name}: firmware mcycle delta"
    );
    assert_eq!(
        fast.instructions, slow.instructions,
        "{name}: retired instructions"
    );
    assert_eq!(fast.raw_output, slow.raw_output, "{name}: output bytes");
    assert_eq!(fast.pipeline, slow.pipeline, "{name}: pipeline stats");
    assert_eq!(fast.nvdla, slow.nvdla, "{name}: NVDLA stats");
    assert_eq!(
        fast.cpu_arbiter_wait, slow.cpu_arbiter_wait,
        "{name}: arbiter waits"
    );
}

fn check_soc_kernels() {
    let mut cold_runs: Vec<(&str, InferenceResult)> = Vec::new();
    for v in variants() {
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), 2);
        let bytes = v.artifacts.quantize_input(&input);
        let fw = Firmware::build_with(&v.artifacts, v.codegen).expect("fw");

        let mut off_config = v.config.clone();
        off_config.block_cache = false;

        // Cold runs on fresh SoCs, kernels on vs off.
        let mut soc_on = Soc::new(v.config.clone());
        let mut soc_off = Soc::new(off_config);
        let cold_on = soc_on.run_firmware(&v.artifacts, &bytes, &fw).expect("on");
        let cold_off = soc_off
            .run_firmware(&v.artifacts, &bytes, &fw)
            .expect("off");
        assert_identical(&format!("{} cold", v.name), &cold_on, &cold_off);
        assert_eq!(
            cold_off.block_cache.hits + cold_off.block_cache.misses,
            0,
            "{}: cache-off runs must not touch the cache",
            v.name
        );

        // Warm repeats: bit-identical to cold, and fully warm runs
        // replay everything — no block is decoded twice.
        for i in 0..3 {
            let warm_on = soc_on.run_firmware(&v.artifacts, &bytes, &fw).expect("on");
            let warm_off = soc_off
                .run_firmware(&v.artifacts, &bytes, &fw)
                .expect("off");
            assert_identical(&format!("{} warm#{i}", v.name), &warm_on, &cold_on);
            assert_identical(&format!("{} warm#{i} off", v.name), &warm_off, &cold_on);
            assert_eq!(
                warm_on.block_cache.misses, 0,
                "{}: warm run #{i} decoded a block it should have cached",
                v.name
            );
        }

        println!(
            "{:<24} fingerprint {:016x}  cycles {:>9}  instructions {:>9}  ok",
            v.name,
            inference_fingerprint(&cold_on),
            cold_on.cycles,
            cold_on.instructions,
        );
        cold_runs.push((v.name, cold_on));
    }

    // Timing-only is the functional run minus the bytes: everything
    // modeled is shared, only the output (never written) differs.
    for (name, t) in &cold_runs {
        let Some(rest) = name.strip_prefix("timing-only") else {
            continue;
        };
        let (twin, f) = cold_runs
            .iter()
            .find(|(n, _)| n.strip_prefix("functional") == Some(rest))
            .expect("every timing-only variant has a functional twin");
        assert_eq!(t.cycles, f.cycles, "{name} vs {twin}: modeled cycles");
        assert_eq!(t.instructions, f.instructions, "{name} vs {twin}");
        assert_eq!(t.pipeline, f.pipeline, "{name} vs {twin}: pipeline stats");
        assert_eq!(t.nvdla, f.nvdla, "{name} vs {twin}: NVDLA stats");
        assert_eq!(t.cpu_arbiter_wait, f.cpu_arbiter_wait, "{name} vs {twin}");
        assert!(t.raw_output.iter().all(|&b| b == 0), "{name}: output");
    }
}

/// The path `table3_fp16` times: a timing-only replay on Table III's
/// `VirtualPlatform` must land on the functional replay's cycle count
/// and NVDLA books, with its output left at zero.
fn check_vp_timing_only() {
    let net = Model::LeNet5.build(1);
    let artifacts = compile(&net, &paper::table3_compile_options()).expect("fp16 compile");
    let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 2));
    let replay = |functional: bool| {
        let mut vp = paper::table3_vp();
        vp.set_functional(functional);
        let run = vp.run(&artifacts, &bytes, false).expect("VP replays");
        (run.cycles, vp.nvdla().stats().clone(), run.output)
    };
    let (f_cycles, f_stats, f_out) = replay(true);
    let (t_cycles, t_stats, t_out) = replay(false);
    assert_eq!(t_cycles, f_cycles, "VP: timing-only cycles");
    assert_eq!(t_stats, f_stats, "VP: timing-only NVDLA stats");
    assert!(f_out.iter().any(|&b| b != 0) && t_out.iter().all(|&b| b == 0));
    println!("VP timing-only == functional (nv_full, fp16): cycles {t_cycles:>9}  ok");
}

/// The observability honesty contract as a hard gate: arming a
/// [`Tracer`] must not move a single modeled cycle, retired
/// instruction, or output byte — at the SoC level (firmware runs with
/// span emission) and at the serving level (the queueing simulation) —
/// while still actually recording spans that pass structural
/// validation.
fn check_tracing_invisible() {
    use rvnv_obs::{Tracer, TrackKind};

    // SoC level: a traced cold+warm pair against an untraced one.
    let net = Model::LeNet5.build(1);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let input = Tensor::random(net.input_shape(), 2);
    let bytes = artifacts.quantize_input(&input);
    let fw = Firmware::build_with(&artifacts, CodegenOptions::default()).expect("fw");
    let tracer = Tracer::armed();
    let mut traced = Soc::new(SocConfig::zcu102_nv_small());
    let track = tracer.track("soc", TrackKind::Sync);
    traced.set_tracer(tracer.clone(), track);
    let mut plain = Soc::new(SocConfig::zcu102_nv_small());
    for run in 0..2 {
        let t = traced
            .run_firmware(&artifacts, &bytes, &fw)
            .expect("traced");
        let p = plain.run_firmware(&artifacts, &bytes, &fw).expect("plain");
        assert_identical(&format!("traced soc run#{run}"), &t, &p);
    }
    let trace = tracer.snapshot();
    assert!(
        !trace.spans.is_empty(),
        "the armed tracer must actually record spans"
    );
    trace.validate().expect("soc trace must be well-formed");

    // Serving level: simulate vs simulate_traced on a synthetic
    // profile, spanning both worker modes.
    use rvnv_soc::batch::Policy;
    use rvnv_soc::serve::{
        simulate, simulate_traced, ArrivalProcess, RequestTrace, ServeSpec, ServiceModel,
    };
    let hz = 100_000_000u64;
    let service = ServiceModel {
        preload: vec![2_000, 4_000],
        fill: vec![2_000, 4_000],
        compute: vec![60_000, 110_000],
        compute_with: vec![vec![61_000, 62_000], vec![111_000, 112_000]],
        preload_done: vec![vec![2_000, 8_000], vec![6_000, 4_000]],
        rewarm: 20_000,
    };
    let names = vec!["a".to_string(), "b".to_string()];
    for pipelined in [false, true] {
        let spec = ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: 800,
            duration_ms: 40,
            seed: 42,
            workers: 2,
            policy: Policy::RoundRobin,
            pipelined,
            queue_depth: 8,
            slo_us: 5_000,
            timeout_us: 0,
            retries: 0,
            faults: None,
        };
        let reqs = RequestTrace::generate(
            spec.process,
            spec.rate_rps,
            spec.duration_cycles(hz),
            2,
            spec.seed,
            hz,
        );
        let serve_tracer = Tracer::armed();
        let on = simulate_traced(&reqs, &service, &spec, &names, hz, &serve_tracer);
        let off = simulate(&reqs, &service, &spec, &names, hz);
        assert_eq!(
            on, off,
            "pipelined={pipelined}: traced serve report diverged from untraced"
        );
        let spans = serve_tracer.snapshot();
        assert!(
            !spans.spans.is_empty(),
            "pipelined={pipelined}: the armed tracer must record spans"
        );
        spans.validate().expect("serve trace must be well-formed");
    }
    println!("tracing armed == disarmed: bit- and cycle-identical at SoC and serve level  ok");
}

/// Pseudo-random byte pattern (xorshift; no external deps).
fn pattern(len: usize, mut seed: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        seed ^= seed << 13;
        seed ^= seed >> 17;
        seed ^= seed << 5;
        out.push((seed >> 16) as u8);
    }
    out
}

/// Replace f16 NaN encodings with max-normal values: NaN *inputs* are
/// the one case IEEE 754 leaves underdetermined (payload propagation),
/// and encoded model data never contains them.
fn strip_f16_nans(bytes: &mut [u8]) {
    for p in bytes.chunks_exact_mut(2) {
        let v = u16::from_le_bytes([p[0], p[1]]);
        if v & 0x7C00 == 0x7C00 && v & 0x03FF != 0 {
            let clean = (v & 0x8000) | 0x7BFF;
            p.copy_from_slice(&clean.to_le_bytes());
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_desc(
    in_c: u32,
    in_hw: u32,
    out_c: u32,
    k: u32,
    stride: u32,
    pad: u32,
    groups: u32,
    precision: Precision,
) -> ConvDesc {
    let out_hw = (in_hw + 2 * pad - k) / stride + 1;
    ConvDesc {
        src: 0,
        in_w: in_hw,
        in_h: in_hw,
        in_c,
        wt_addr: 0,
        wt_bytes: out_c * (in_c / groups) * k * k * precision.bytes(),
        stride,
        pad,
        out_w: out_hw,
        out_h: out_hw,
        out_c,
        kw: k,
        kh: k,
        groups,
        in_scale: 0.031,
        wt_scale: 0.27,
        precision,
    }
}

/// `d` in the other precision too.
fn both_precisions(d: ConvDesc) -> [ConvDesc; 2] {
    let fp16 = ConvDesc {
        precision: Precision::Fp16,
        wt_bytes: d.wt_bytes * 2,
        ..d.clone()
    };
    [d, fp16]
}

fn assert_same_bits(what: &str, fast: &[f32], slow: &[f32]) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (j, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what} output {j}: kernel {a} vs reference {b}"
        );
    }
}

fn check_conv_kernel() {
    let shapes = [
        conv_desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8),
        conv_desc(3, 8, 4, 3, 1, 1, 1, Precision::Int8),
        conv_desc(4, 7, 6, 5, 2, 2, 2, Precision::Int8),
        conv_desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8), // pad > data
        conv_desc(2, 5, 2, 5, 1, 4, 1, Precision::Int8), // windows clip all edges
        conv_desc(8, 4, 8, 1, 1, 0, 8, Precision::Int8), // depthwise
        conv_desc(16, 5, 10, 5, 1, 0, 1, Precision::Int8), // fc-style whole-plane
        conv_desc(3, 8, 4, 3, 1, 1, 1, Precision::Fp16),
        conv_desc(4, 6, 6, 5, 2, 2, 2, Precision::Fp16),
        conv_desc(2, 5, 2, 5, 1, 4, 1, Precision::Fp16),
        conv_desc(16, 5, 10, 5, 1, 0, 1, Precision::Fp16),
    ];
    // What the lanes-across-outputs kernels add, each in both
    // precisions (appended, so the shapes above keep their patterns).
    let shapes = shapes.into_iter().chain(
        [
            conv_desc(64, 14, 40, 1, 1, 0, 1, Precision::Int8), // pointwise, ResNet-50's dominant op
            conv_desc(8, 20, 4, 1, 1, 0, 1, Precision::Int8),   // pointwise, plane > one tile
            conv_desc(3, 9, 4, 3, 2, 1, 1, Precision::Int8),    // stride 2, pad, odd width
            conv_desc(5, 7, 1, 3, 1, 1, 1, Precision::Int8),    // 1 channel per group
            conv_desc(5, 7, 3, 3, 2, 1, 1, Precision::Int8),    // 3
            conv_desc(4, 6, 10, 3, 1, 0, 2, Precision::Int8),   // 5
            conv_desc(4, 6, 12, 3, 1, 0, 2, Precision::Int8),   // 6
            conv_desc(4, 3, 21, 3, 1, 0, 1, Precision::Int8),   // out_w == 1, 21 channels
            conv_desc(6, 5, 6, 3, 1, 1, 6, Precision::Int8),    // depthwise 3x3
        ]
        .into_iter()
        .flat_map(both_precisions),
    );
    let (mut outputs, mut golden_outputs) = (0usize, 0usize);
    for (i, d) in shapes.enumerate() {
        let elem = d.precision.bytes() as usize;
        let mut feature = pattern(
            (d.in_c * d.in_h * d.in_w) as usize * elem,
            0xA11CE + i as u32,
        );
        let mut weights = pattern(d.wt_bytes as usize, 0xFACE + i as u32);
        if d.precision == Precision::Fp16 {
            strip_f16_nans(&mut feature);
            strip_f16_nans(&mut weights);
        }
        let fast = conv::compute(&d, &feature, &weights);
        let slow = conv::compute_reference(&d, &feature, &weights);
        assert_same_bits(&format!("conv shape {i}"), &fast, &slow);
        outputs += fast.len();

        // The golden kernel on the same shape, from its bias: the
        // INT8 pattern bytes read as small reals.
        if d.precision == Precision::Int8 {
            let g = d.geom();
            let x = rvnv_nvdla::engines::to_real(&feature, Precision::Int8, d.in_scale);
            let w = rvnv_nvdla::engines::to_real(&weights, Precision::Int8, d.wt_scale);
            let bias: Vec<f32> = (0..g.out_c).map(|oc| 0.37 - 0.11 * oc as f32).collect();
            let fast = conv2d(&g, &x, &w, Some(&bias));
            let slow = conv2d_naive(&g, &x, &w, Some(&bias));
            assert_same_bits(&format!("golden conv shape {i}"), &fast, &slow);
            golden_outputs += fast.len();
        }
    }
    println!("conv engine == reference bit-for-bit across {outputs} outputs  ok");
    println!("conv golden == naive bit-for-bit across {golden_outputs} outputs  ok");
}

/// The calibration tables the compiler quantizes by must not notice
/// the golden kernel: the production executor's table is the naive
/// executor's, byte for byte.
fn check_calibration_tables() {
    for model in [Model::LeNet5, Model::ResNet18] {
        let net = model.build(1);
        let inputs = [Tensor::random(net.input_shape(), 2)];
        let fast = CalibrationTable::calibrate(&net, &inputs).expect("calibrate");
        let slow =
            CalibrationTable::calibrate_with(&Executor::naive(&net), &inputs).expect("calibrate");
        assert_eq!(
            fast.to_text(),
            slow.to_text(),
            "{}: calibration table moved",
            model.name()
        );
    }
    println!("calibration tables (LeNet-5, ResNet-18) == naive executor's, byte for byte  ok");
}

fn main() {
    check_soc_kernels();
    check_vp_timing_only();
    check_conv_kernel();
    check_calibration_tables();
    check_tracing_invisible();
    println!("determinism fingerprint: all fast-kernel paths are architecturally invisible");
}
