//! Property tests on core data structures and invariants. Each runs
//! over 256 seeds of one SplitMix64 stream, and a failure names its
//! seed and input; the inputs are small enough to print whole.

use rvnv_bus::dram::{Dram, DramTiming};
use rvnv_bus::sram::Sram;
use rvnv_bus::{Request, Reset, Target};
use rvnv_compiler::layout::{Allocator, WeightImage};
use rvnv_compiler::trace::{parse_config_file, write_config_file, ConfigCmd};
use rvnv_nn::quant::QuantScale;
use rvnv_nn::tensor::{Shape, Tensor};
use rvnv_nn::F16;
use rvnv_util::SplitMix64;

/// `li` materializes any 32-bit constant exactly.
#[test]
fn assembler_li_materializes_any_value() {
    for seed in 0..256 {
        let value = SplitMix64::new(seed).next_u32();
        let src = format!("li a0, 0x{value:08x}\nebreak");
        let image = rvnv_riscv::assemble(&src).expect("assembles");
        let mut core = rvnv_riscv::Core::new(
            rvnv_bus::sram::Sram::rom(image.bytes()),
            rvnv_bus::sram::Sram::new(64),
        );
        core.run(10).expect("runs");
        assert_eq!(
            core.read_reg(rvnv_riscv::reg::A0),
            value,
            "seed {seed}: li 0x{value:08x}"
        );
    }
}

/// Quantize/dequantize error never exceeds half a step (within the
/// calibrated range).
#[test]
fn quantization_error_bounded() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let max_abs = 0.01 + rng.below(1 << 24) as f32 / (1 << 24) as f32 * 999.99;
        let frac = rng.below(1 << 24) as f32 / (1 << 23) as f32 - 1.0;
        let scale = QuantScale::from_max_abs(max_abs);
        let v = max_abs * frac;
        let r = scale.dequantize(scale.quantize(v));
        assert!(
            (r - v).abs() <= scale.scale / 2.0 + 1e-6,
            "seed {seed}: max_abs {max_abs}, value {v} -> {r}"
        );
    }
}

/// SRAM stores and loads arbitrary byte strings.
#[test]
fn sram_round_trips() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<u8> = (0..rng.range(1, 255))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let offset = rng.below(16) as usize * 4; // block transfers are word-aligned
        let mut mem = Sram::new(512);
        mem.write_block(offset as u32, &data, 0).expect("write");
        let mut out = vec![0u8; data.len()];
        mem.read_block(offset as u32, &mut out, 0).expect("read");
        assert_eq!(out, data, "seed {seed}: offset {offset}");
    }
}

/// DRAM timing is monotonic: completion never precedes issue, and
/// consecutive transactions never complete out of order.
#[test]
fn dram_time_is_monotonic() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let addrs: Vec<u32> = (0..rng.range(1, 31))
            .map(|_| rng.below(4096) as u32)
            .collect();
        let mut d = Dram::new(8192, DramTiming::mig_ddr4());
        let mut t = 0u64;
        for &a in &addrs {
            let r = d.access(&Request::read32(a & !3), t).expect("read");
            assert!(r.done_at > t, "seed {seed}: addresses {addrs:?}");
            t = r.done_at;
        }
    }
}

/// Allocator never hands out overlapping or unaligned regions.
#[test]
fn allocator_regions_disjoint() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let sizes: Vec<u32> = (0..rng.range(1, 63))
            .map(|_| rng.below(5000) as u32)
            .collect();
        let mut alloc = Allocator::new(0x40, 1 << 20);
        let mut prev_end = 0u64;
        for &s in &sizes {
            let a = alloc.alloc(s).expect("fits");
            assert_eq!(
                a % rvnv_compiler::layout::ALLOC_ALIGN,
                0,
                "seed {seed}: sizes {sizes:?}"
            );
            assert!(u64::from(a) >= prev_end, "seed {seed}: sizes {sizes:?}");
            prev_end = u64::from(a) + u64::from(s);
        }
    }
}

/// Weight-image `.bin` serialization round trips.
#[test]
fn weight_image_round_trips() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let mut img = WeightImage::new();
        for _ in 0..rng.below(8) {
            let addr = rng.below(1_000_000) as u32;
            let bytes = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
            img.push(addr, bytes);
        }
        let back = WeightImage::from_bin(&img.to_bin()).expect("parse");
        assert_eq!(back, img, "seed {seed}");
    }
}

/// Configuration files survive text round trips.
#[test]
fn config_file_round_trips() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let cmds: Vec<ConfigCmd> = (0..rng.below(64))
            .map(|_| {
                let addr = rng.next_u32();
                if rng.chance(1, 2) {
                    let value = rng.next_u32();
                    ConfigCmd::WriteReg { addr, value }
                } else {
                    let (mask, expect) = (rng.next_u32(), rng.next_u32());
                    ConfigCmd::ReadReg { addr, mask, expect }
                }
            })
            .collect();
        let text = write_config_file(&cmds);
        assert_eq!(
            parse_config_file(&text).expect("parse"),
            cmds,
            "seed {seed}"
        );
    }
}

/// Tensor NCHW indexing agrees with the flat layout.
#[test]
fn tensor_indexing_is_consistent() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let (c, h, w) = (
            rng.range(1, 3) as usize,
            rng.range(1, 5) as usize,
            rng.range(1, 5) as usize,
        );
        let t = Tensor::random(Shape::new(c, h, w), 1);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let flat = (ci * h + hi) * w + wi;
                    assert_eq!(
                        t.at(ci, hi, wi),
                        t.data()[flat],
                        "seed {seed}: shape {c}x{h}x{w} at ({ci}, {hi}, {wi})"
                    );
                }
            }
        }
    }
}

/// f16→f32→f16 is the identity for every non-NaN bit pattern — all
/// 65,536 of them.
#[test]
fn f16_f32_f16_identity() {
    for bits in 0..=u16::MAX {
        let f = F16::from_bits(bits).to_f32();
        if !f.is_nan() {
            assert_eq!(F16::from_f32(f).to_bits(), bits, "{bits:#06x} -> {f}");
        }
    }
}

/// f32→f16 rounding error is within half a ULP of the f16 grid for
/// in-range normal values.
#[test]
fn f16_rounding_bounded() {
    for seed in 0..256 {
        let v = (SplitMix64::new(seed).below(1 << 40) as f64 / (1u64 << 40) as f64 * 120_000.0
            - 60_000.0) as f32;
        if v.abs() < 6.2e-5 {
            continue; // stay out of the subnormal range
        }
        let r = F16::round_f32(v);
        let rel = ((r - v) / v).abs();
        assert!(
            rel <= 2f32.powi(-11) + f32::EPSILON,
            "seed {seed}: {v} -> {r}"
        );
    }
}

/// Scoped reset (`preserve_across_reset`) — the pipelined frame
/// boundary — never clobbers a resident weight image, never loses
/// the preserved (in-flight preload) bytes, and still zeroes every
/// other written extent. Layout randomized: two disjoint "weight
/// images", one staged slot, one scratch write, all in distinct
/// 256-byte lanes of a 64 KB device.
#[test]
fn scoped_reset_preserves_slot_and_images() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let mut lane = |first: u64| (first + rng.below(4)) as usize * 256;
        let (la, lb, ls, lx) = (lane(0), lane(4), lane(8), lane(12));
        let mut fill = || -> Vec<u8> {
            (0..rng.range(1, 63))
                .map(|_| rng.range(1, 254) as u8)
                .collect()
        };
        let (img_a, img_b, staged) = (fill(), fill(), fill());
        let scratch_len = rng.range(1, 63) as usize;
        let tag = format!(
            "seed {seed}: lanes {la:#x} {lb:#x} {ls:#x} {lx:#x}, image A {img_a:?}, \
             image B {img_b:?}, staged {staged:?}, scratch {scratch_len}"
        );
        let mut d = Dram::new(64 << 10, DramTiming::mig_ddr4());
        let extent = |s: usize, e: usize| {
            let mut r = rvnv_bus::dram::RangeSet::new();
            r.insert(s, e);
            r
        };
        // Two resident images (weights), a staged slot (next frame's
        // preload, landed mid-run), and run scratch (activations).
        d.load(la, &img_a).unwrap();
        d.add_resident(1, extent(la, la + img_a.len())).unwrap();
        d.load(lb, &img_b).unwrap();
        d.add_resident(2, extent(lb, lb + img_b.len())).unwrap();
        d.write_block(ls as u32, &staged, 0).unwrap();
        d.write_block(lx as u32, &vec![0xEE; scratch_len], 10)
            .unwrap();
        d.preserve_across_reset(extent(ls, ls + staged.len()));
        d.reset();
        assert!(d.is_image_resident(1) && d.is_image_resident(2), "{tag}");
        assert_eq!(d.peek(la, img_a.len()), &img_a[..], "image A intact, {tag}");
        assert_eq!(d.peek(lb, img_b.len()), &img_b[..], "image B intact, {tag}");
        assert_eq!(
            d.peek(ls, staged.len()),
            &staged[..],
            "staged preload intact, {tag}"
        );
        assert!(
            d.peek(lx, scratch_len).iter().all(|&b| b == 0),
            "scratch zeroed, {tag}"
        );
        // The preserve is one-shot: a second (full) reset drops the slot
        // but still keeps the images.
        d.reset();
        assert!(d.peek(ls, staged.len()).iter().all(|&b| b == 0), "{tag}");
        assert_eq!(d.peek(la, img_a.len()), &img_a[..], "{tag}");
    }
}

// ---------------------------------------------------------------------
// Differential properties of the fast simulator kernels. The decoded-
// block cache and the MMIO read lease are host-side shortcuts only;
// for random inputs and both firmware wait modes they must leave every
// architectural observable untouched, and the timing-only flow must
// agree with the functional flow cycle for cycle.

use std::sync::OnceLock;

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{compile, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};

/// One shared LeNet-5 compilation (compiling per case would
/// dominate the suite's runtime).
fn lenet_artifacts() -> &'static Artifacts {
    static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        compile(&Model::LeNet5.build(1), &opt).expect("lenet5 compiles")
    })
}

fn wait_firmware(artifacts: &Artifacts, wfi: bool) -> Firmware {
    let codegen = CodegenOptions {
        wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
        ..CodegenOptions::default()
    };
    Firmware::build_with(artifacts, codegen).expect("fw")
}

/// Differential cases are full debug-mode inferences, so these tests
/// run three seeds each, not 256.
const DIFFERENTIAL_SAMPLES: u64 = 3;

/// Cache ON == cache OFF: cycles, retired instructions, output bytes,
/// pipeline and NVDLA statistics, cold and warm, for random inputs and
/// both firmware wait modes.
#[test]
fn block_cache_is_architecturally_invisible() {
    let artifacts = lenet_artifacts();
    for seed in 0..DIFFERENTIAL_SAMPLES {
        let mut rng = SplitMix64::new(seed);
        let input_seed = rng.next_u64();
        let wfi = seed % 2 == 0;
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), input_seed);
        let bytes = artifacts.quantize_input(&input);
        let fw = wait_firmware(artifacts, wfi);
        let mut soc_on = Soc::new(SocConfig::zcu102_nv_small());
        let mut soc_off = Soc::new(SocConfig {
            block_cache: false,
            ..SocConfig::zcu102_nv_small()
        });
        for run in 0..2 {
            let on = soc_on
                .run_firmware(artifacts, &bytes, &fw)
                .expect("cache on");
            let off = soc_off
                .run_firmware(artifacts, &bytes, &fw)
                .expect("cache off");
            let tag = format!("seed {seed}: input {input_seed:#x} wfi {wfi} run {run}");
            assert_eq!(on.cycles, off.cycles, "cycles, {tag}");
            assert_eq!(on.firmware_cycles, off.firmware_cycles, "mcycle, {tag}");
            assert_eq!(on.instructions, off.instructions, "retired, {tag}");
            assert_eq!(on.raw_output, off.raw_output, "output, {tag}");
            assert_eq!(on.pipeline, off.pipeline, "pipeline stats, {tag}");
            assert_eq!(on.nvdla, off.nvdla, "nvdla stats, {tag}");
            assert_eq!(
                off.block_cache.hits + off.block_cache.misses,
                0,
                "cache-off run must not touch the cache ({tag})"
            );
        }
    }
}

/// The timing-only flow (functional compute off) walks the exact same
/// instruction stream as the functional flow: identical cycles,
/// retired instructions and pipeline accounting — only the output
/// differs (never computed).
#[test]
fn timing_only_matches_functional_cycle_for_cycle() {
    let artifacts = lenet_artifacts();
    for seed in 0..DIFFERENTIAL_SAMPLES {
        let mut rng = SplitMix64::new(seed);
        let input_seed = rng.next_u64();
        let wfi = seed % 2 != 0;
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), input_seed);
        let bytes = artifacts.quantize_input(&input);
        let fw = wait_firmware(artifacts, wfi);
        let mut functional = Soc::new(SocConfig::zcu102_nv_small());
        let mut timing = Soc::new(SocConfig {
            capture_timeline: true,
            ..SocConfig::zcu102_timing_only()
        });
        let f = functional
            .run_firmware(artifacts, &bytes, &fw)
            .expect("functional");
        let t = timing
            .run_firmware(artifacts, &bytes, &fw)
            .expect("timing-only");
        let tag = format!("seed {seed}: input {input_seed:#x} wfi {wfi}");
        assert_eq!(f.cycles, t.cycles, "cycles, {tag}");
        assert_eq!(f.firmware_cycles, t.firmware_cycles, "mcycle, {tag}");
        assert_eq!(f.instructions, t.instructions, "retired, {tag}");
        assert_eq!(f.pipeline, t.pipeline, "pipeline stats, {tag}");
        assert_eq!(f.cpu_arbiter_wait, t.cpu_arbiter_wait, "arbiter, {tag}");
        assert_eq!(f.nvdla, t.nvdla, "engine op/cycle accounting, {tag}");
        assert_eq!(f.timeline.len(), t.timeline.len(), "op schedule, {tag}");
    }
}

/// Recovery is lossless for random inputs and random fault streams: a
/// SoC that took a storm of injected bus errors and bit flips, then was
/// re-warmed ([`Soc::rewarm`] — reset plus re-pinning every resident
/// weight image), runs the next frame bit- and cycle-identical to a SoC
/// that never saw a fault.
#[test]
fn rewarmed_soc_is_bit_identical_to_never_faulted() {
    use rvnv_bus::fault::FaultPlan;

    let artifacts = lenet_artifacts();
    for seed in 0..DIFFERENTIAL_SAMPLES {
        let mut rng = SplitMix64::new(seed);
        let input_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let wfi = seed % 2 == 0;
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), input_seed);
        let bytes = artifacts.quantize_input(&input);
        let fw = wait_firmware(artifacts, wfi);
        let tag = format!("seed {seed}: input {input_seed:#x} faults {fault_seed:#x} wfi {wfi}");

        let mut clean = Soc::new(SocConfig::zcu102_nv_small());
        let truth = clean.run_firmware(artifacts, &bytes, &fw).expect("clean");

        let mut victim = Soc::new(SocConfig::zcu102_nv_small());
        victim
            .run_firmware(artifacts, &bytes, &fw)
            .expect("warm-up");
        victim.arm_faults(FaultPlan {
            seed: fault_seed,
            flip_per_million: 200_000,
            error_per_million: 200_000,
            ..FaultPlan::default()
        });
        // The faulted frame may abort (injected error) or "succeed"
        // with silently corrupted bytes (flips) — either way the worker
        // is now suspect and gets the full recovery treatment.
        let _ = victim.run_firmware(artifacts, &bytes, &fw);
        victim.disarm_faults();
        victim.rewarm([artifacts]).expect("re-warm");
        let recovered = victim
            .run_firmware(artifacts, &bytes, &fw)
            .expect("recovered");

        assert_eq!(recovered.cycles, truth.cycles, "cycles, {tag}");
        assert_eq!(recovered.raw_output, truth.raw_output, "output, {tag}");
        assert_eq!(recovered.instructions, truth.instructions, "retired, {tag}");
        assert_eq!(recovered.nvdla, truth.nvdla, "nvdla stats, {tag}");
    }
}
