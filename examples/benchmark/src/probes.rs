//! Layer isolations of the traced phase: each times one layer through
//! its public functions alone, on inputs derived from the workload's
//! own models and seed, after checking the fast path against the slow
//! one (fingerprint first, timing second).

use std::hint::black_box;
use std::time::Instant;

use rv_nvdla::rvnv_bus::arbiter::Arbiter;
use rv_nvdla::rvnv_bus::axi::AxiConfig;
use rv_nvdla::rvnv_bus::bridge::{AhbToApb, AhbToAxi};
use rv_nvdla::rvnv_bus::dram::{Dram, DramTiming};
use rv_nvdla::rvnv_bus::sram::Sram;
use rv_nvdla::rvnv_bus::{Request, Reset, Target};
use rv_nvdla::rvnv_compiler::codegen::generate_assembly;
use rv_nvdla::rvnv_compiler::vplog::{extract_config, extract_weights};
use rv_nvdla::rvnv_compiler::VirtualPlatform;
use rv_nvdla::rvnv_nn::exec::Executor;
use rv_nvdla::rvnv_nn::quant::CalibrationTable;
use rv_nvdla::rvnv_nn::stats::ModelStats;
use rv_nvdla::rvnv_nn::F16;
use rv_nvdla::rvnv_nvdla::descriptor::ConvDesc;
use rv_nvdla::rvnv_nvdla::engines::conv;
use rv_nvdla::rvnv_nvdla::{HwConfig, Precision};
use rv_nvdla::rvnv_riscv::{assemble, Core, StopReason};
use rv_nvdla::rvnv_soc::soc::InferenceResult;
use rvnv_util::SplitMix64;

use crate::metrics::Results;
use crate::models::{Checks, Compiled};
use crate::spans::{time_median_ms, Spans};

/// Host ms each repeated isolation may spend.
const PROBE_MS: f64 = 120.0;

/// `rvnv_nn`: the golden executor, calibration, and top-1 agreement of
/// the SoC outputs with it. `outputs` holds each model's functional SoC
/// result, or nothing where the workload has no functional SoC.
pub fn nn(set: &[Compiled], outputs: &[InferenceResult], spans: &mut Spans, out: &mut Results) {
    let (mut macs, mut agree) = (0u64, 0u64);
    let start = Instant::now();
    for (i, c) in set.iter().enumerate() {
        let all = spans.time("nn.golden_exec", |_| {
            Executor::new(&c.net)
                .run_all(&c.tensor)
                .expect("zoo models execute")
        });
        macs += ModelStats::of(&c.net).macs;
        // Softmax keeps the argmax, so the last tensor stands for the
        // logits the SoC leaves in DRAM.
        let golden = all.last().expect("a network has nodes");
        if outputs
            .get(i)
            .is_some_and(|r| r.output.argmax() == golden.argmax())
        {
            agree += 1;
        }
    }
    out.set(
        "nn.golden_mmac_per_s",
        macs as f64 / 1e6 / start.elapsed().as_secs_f64(),
    );
    out.set("nn.top1_agree", agree as f64);
    if set.iter().any(|c| c.artifacts.precision == Precision::Int8) {
        for c in set {
            spans.time("nn.calibrate", |_| {
                black_box(
                    CalibrationTable::calibrate(&c.net, std::slice::from_ref(&c.tensor))
                        .expect("zoo models calibrate"),
                );
            });
        }
    }
}

fn hw_of(precision: Precision) -> HwConfig {
    match precision {
        Precision::Int8 => HwConfig::nv_small(),
        Precision::Fp16 => HwConfig::nv_full(),
    }
}

/// `rvnv_compiler`: the paper's trace-replay flow on one (small) model
/// — a logged VP run, the config/weight scrape, assembly generation
/// and the assembler; the scraped firmware must equal the compiled one.
pub fn toolflow(c: &Compiled, spans: &mut Spans, checks: &mut Checks) {
    let mut vp = VirtualPlatform::new(hw_of(c.artifacts.precision), 64 << 20);
    let logged = spans.time("compiler.vp_run", |_| {
        vp.run(&c.artifacts, &c.input, true).expect("VP replays")
    });
    let cmds = spans.time("compiler.scrape", |_| {
        black_box(extract_weights(&logged.log));
        extract_config(&logged.log)
    });
    let asm = spans.time("compiler.codegen", |_| generate_assembly(&cmds));
    let image = spans.time("riscv.assemble", |_| {
        assemble(&asm).expect("generated assembly assembles")
    });
    checks.check(image.bytes() == c.fw.image.bytes(), || {
        format!("{}: scraped firmware differs from the compiled one", c.key)
    });
}

/// The NVDLA timing model alone: a timing-only VP replay has no ISS
/// and no fabric, only the engine model and its DBB.
pub fn timing_model(c: &Compiled, out: &mut Results) {
    let hw = hw_of(c.artifacts.precision);
    let mut ops = 0u64;
    let (ms, n) = time_median_ms(PROBE_MS, 3, || {
        let mut vp = VirtualPlatform::new(hw.clone(), 512 << 20);
        vp.set_functional(false);
        vp.run(&c.artifacts, &c.input, false).expect("VP replays");
        ops = vp.nvdla().stats().total_ops();
    });
    out.set_n("nvdla.timing_model_kops_per_s", ops as f64 / ms, n);
}

/// The two fixed convolution shapes: LeNet-5's conv2 and a ResNet-50
/// 3×3, 256→256 channels at 14×14.
fn conv_shape(large: bool, precision: Precision) -> ConvDesc {
    let (in_c, hw, out_c, k, pad) = if large {
        (256, 14, 256, 3, 1)
    } else {
        (6, 12, 16, 5, 0)
    };
    let out_hw = hw + 2 * pad - k + 1;
    ConvDesc {
        src: 0,
        in_w: hw,
        in_h: hw,
        in_c,
        wt_addr: 0,
        wt_bytes: out_c * in_c * k * k * precision.bytes(),
        stride: 1,
        pad,
        out_w: out_hw,
        out_h: out_hw,
        out_c,
        kw: k,
        kh: k,
        groups: 1,
        in_scale: 0.031,
        wt_scale: 0.27,
        precision,
    }
}

/// `rvnv_nvdla` conv kernel alone on one fixed shape: blocked MMAC/s
/// and, for INT8, the blocked-vs-reference speed ratio.
pub fn conv_kernel(
    large: bool,
    precision: Precision,
    seed: u64,
    checks: &mut Checks,
    out: &mut Results,
) {
    let d = conv_shape(large, precision);
    let mut rng = SplitMix64::new(seed);
    let mut fill = |elems: usize| -> Vec<u8> {
        match precision {
            Precision::Int8 => (0..elems).map(|_| rng.next_u32() as u8).collect(),
            Precision::Fp16 => (0..elems)
                .flat_map(|_| {
                    let v = (rng.below(2001) as f32 - 1000.0) / 1000.0;
                    F16::from_f32(v).to_bits().to_le_bytes()
                })
                .collect(),
        }
    };
    let feature = fill((d.in_c * d.in_h * d.in_w) as usize);
    let weights = fill((d.out_c * d.in_c * d.kh * d.kw) as usize);
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let t = Instant::now();
    let slow = bits(conv::compute_reference(&d, &feature, &weights));
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;
    checks.check(bits(conv::compute(&d, &feature, &weights)) == slow, || {
        format!("blocked {precision} conv diverged from the reference")
    });
    let (ms, n) = time_median_ms(PROBE_MS, 3, || {
        black_box(conv::compute(&d, &feature, &weights));
    });
    let name = match precision {
        Precision::Int8 => "nvdla.conv_mmac_per_s.int8",
        Precision::Fp16 => "nvdla.conv_mmac_per_s.fp16",
    };
    out.set_n(name, d.macs() as f64 / 1e3 / ms, n);
    if precision == Precision::Int8 {
        out.set_n("nvdla.conv_blocked_vs_reference", reference_ms / ms, n);
    }
}

/// `rvnv_riscv` alone: a load/add/store loop on SRAM, block cache on
/// and off; architectural state must agree before either is timed.
pub fn iss(checks: &mut Checks, out: &mut Results) {
    const ITERS: u32 = 60_000;
    let source = format!(
        "start:\n    li   t0, {ITERS}\n    li   t1, 0x100\n    li   a0, 0\n\
         loop:\n    lw   t2, 0(t1)\n    add  a0, a0, t2\n    addi a0, a0, 3\n    sw   a0, 0(t1)\n    \
         addi t0, t0, -1\n    bne  t0, zero, loop\n    ebreak\n"
    );
    let image = assemble(&source).expect("probe loop assembles");
    let run = |cache: bool| {
        let mut core = Core::new(Sram::rom(image.bytes()), Sram::new(4096));
        core.set_pc(image.base());
        if cache {
            core.enable_block_cache(image.bytes().len());
        }
        let (n, stop) = core.run_block(u64::MAX);
        assert_eq!(stop.expect("probe loop runs"), Some(StopReason::Ebreak));
        (
            n,
            core.cycle(),
            core.read_reg(rv_nvdla::rvnv_riscv::reg::A0),
        )
    };
    let on = run(true);
    checks.check(on == run(false), || {
        "standalone ISS loop: block cache changed instructions, cycles or a0".into()
    });
    for (name, cache) in [
        ("riscv.iss_minstr_per_s.cache_on", true),
        ("riscv.iss_minstr_per_s.cache_off", false),
    ] {
        let (ms, n) = time_median_ms(PROBE_MS, 3, || {
            black_box(run(cache));
        });
        out.set_n(name, on.0 as f64 / 1e3 / ms, n);
    }
}

/// `rvnv_bus` alone: the composed fabric paths of `fig2_interconnect`
/// (CSB register write, DRAM word read, 4 KiB DBB burst) and the DRAM
/// device's construction and dirty-extent reset.
pub fn bus(out: &mut Results) {
    const N: u32 = 20_000;
    let per_access_ns = |ms: f64| ms * 1e6 / f64::from(N);

    let mut csb = AhbToApb::new(Sram::new(4096));
    let (ms, n) = time_median_ms(PROBE_MS / 2.0, 3, || {
        let mut t = 0;
        for _ in 0..N {
            t = csb
                .access(&Request::write32(0x8, 1), t)
                .expect("csb write")
                .done_at;
        }
        black_box(t);
    });
    out.set_n("bus.csb_write_path_ns", per_access_ns(ms), n);

    let mut word = AhbToAxi::new(
        Dram::new(64 << 10, DramTiming::default()),
        AxiConfig::axi32(),
    );
    let (ms, n) = time_median_ms(PROBE_MS / 2.0, 3, || {
        let mut t = 0;
        for _ in 0..N {
            t = word
                .access(&Request::read32(64), t)
                .expect("dram read")
                .done_at;
        }
        black_box(t);
    });
    out.set_n("bus.dram_read_path_ns", per_access_ns(ms), n);

    let mut arb = Arbiter::new(Dram::new(1 << 20, DramTiming::default()));
    let mut buf = vec![0u8; 4096];
    const BURSTS: u32 = 500;
    let (ms, n) = time_median_ms(PROBE_MS / 2.0, 3, || {
        let mut t = 0;
        for _ in 0..BURSTS {
            t = arb.read_block(0, &mut buf, t).expect("dbb burst");
        }
        black_box(t);
    });
    out.set_n(
        "bus.dbb_burst_mb_per_s",
        f64::from(BURSTS) * 4096.0 / 1e6 / (ms / 1e3),
        n,
    );

    let (ms, n) = time_median_ms(PROBE_MS / 2.0, 3, || {
        black_box(Dram::new(512 << 20, DramTiming::mig_ddr4()));
    });
    out.set_n("bus.dram_new_ms", ms, n);

    // Reset after a run that wrote 64 scattered 16 KiB extents: the
    // dirty-extent tracker zeroes those, not the 512 MB device.
    let mut dram = Dram::new(512 << 20, DramTiming::mig_ddr4());
    let block = vec![0xA5u8; 16 << 10];
    let mut samples = Vec::new();
    for _ in 0..30 {
        for i in 0..64usize {
            dram.load(i * (4 << 20), &block).expect("fits");
        }
        let t = Instant::now();
        dram.reset();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set_n(
        "bus.dram_reset_ms",
        crate::spans::median(&samples),
        samples.len(),
    );
}
