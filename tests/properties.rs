//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;

use rvnv_bus::dram::{Dram, DramTiming};
use rvnv_bus::sram::Sram;
use rvnv_bus::{Request, Reset, Target};
use rvnv_compiler::layout::{Allocator, WeightImage};
use rvnv_compiler::trace::{parse_config_file, write_config_file, ConfigCmd};
use rvnv_nn::quant::QuantScale;
use rvnv_nn::tensor::{Shape, Tensor};
use rvnv_nn::F16;

proptest! {
    /// `li` materializes any 32-bit constant exactly.
    #[test]
    fn assembler_li_materializes_any_value(value in any::<u32>()) {
        let src = format!("li a0, 0x{value:08x}\nebreak");
        let image = rvnv_riscv::assemble(&src).expect("assembles");
        let mut core = rvnv_riscv::Core::new(
            rvnv_bus::sram::Sram::rom(image.bytes()),
            rvnv_bus::sram::Sram::new(64),
        );
        core.run(10).expect("runs");
        prop_assert_eq!(core.read_reg(rvnv_riscv::reg::A0), value);
    }

    /// Quantize/dequantize error never exceeds half a step (within the
    /// calibrated range).
    #[test]
    fn quantization_error_bounded(max_abs in 0.01f32..1000.0, frac in -1.0f32..1.0) {
        let scale = QuantScale::from_max_abs(max_abs);
        let v = max_abs * frac;
        let r = scale.dequantize(scale.quantize(v));
        prop_assert!((r - v).abs() <= scale.scale / 2.0 + 1e-6);
    }

    /// SRAM stores and loads arbitrary byte strings.
    #[test]
    fn sram_round_trips(data in proptest::collection::vec(any::<u8>(), 1..256),
                        word_offset in 0usize..16) {
        let offset = word_offset * 4; // block transfers are word-aligned
        let mut mem = Sram::new(512);
        mem.write_block(offset as u32, &data, 0).expect("write");
        let mut out = vec![0u8; data.len()];
        mem.read_block(offset as u32, &mut out, 0).expect("read");
        prop_assert_eq!(out, data);
    }

    /// DRAM timing is monotonic: completion never precedes issue, and
    /// consecutive transactions never complete out of order.
    #[test]
    fn dram_time_is_monotonic(addrs in proptest::collection::vec(0u32..4096, 1..32)) {
        let mut d = Dram::new(8192, DramTiming::mig_ddr4());
        let mut t = 0u64;
        for a in addrs {
            let r = d.access(&Request::read32(a & !3), t).expect("read");
            prop_assert!(r.done_at > t);
            t = r.done_at;
        }
    }

    /// Allocator never hands out overlapping or unaligned regions.
    #[test]
    fn allocator_regions_disjoint(sizes in proptest::collection::vec(0u32..5000, 1..64)) {
        let mut alloc = Allocator::new(0x40, 1 << 20);
        let mut prev_end = 0u64;
        for s in sizes {
            let a = alloc.alloc(s).expect("fits");
            prop_assert_eq!(a % rvnv_compiler::layout::ALLOC_ALIGN, 0);
            prop_assert!(u64::from(a) >= prev_end);
            prev_end = u64::from(a) + u64::from(s);
        }
    }

    /// Weight-image `.bin` serialization round trips.
    #[test]
    fn weight_image_round_trips(
        segs in proptest::collection::vec(
            (0u32..1_000_000, proptest::collection::vec(any::<u8>(), 0..64)),
            0..8,
        )
    ) {
        let mut img = WeightImage::new();
        for (addr, bytes) in segs {
            img.push(addr, bytes);
        }
        let back = WeightImage::from_bin(&img.to_bin()).expect("parse");
        prop_assert_eq!(back, img);
    }

    /// Configuration files survive text round trips.
    #[test]
    fn config_file_round_trips(
        cmds in proptest::collection::vec(
            prop_oneof![
                (any::<u32>(), any::<u32>())
                    .prop_map(|(addr, value)| ConfigCmd::WriteReg { addr, value }),
                (any::<u32>(), any::<u32>(), any::<u32>())
                    .prop_map(|(addr, mask, expect)| ConfigCmd::ReadReg { addr, mask, expect }),
            ],
            0..64,
        )
    ) {
        let text = write_config_file(&cmds);
        prop_assert_eq!(parse_config_file(&text).expect("parse"), cmds);
    }

    /// Tensor NCHW indexing agrees with the flat layout.
    #[test]
    fn tensor_indexing_is_consistent(c in 1usize..4, h in 1usize..6, w in 1usize..6) {
        let shape = Shape::new(c, h, w);
        let t = Tensor::random(shape, 1);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let flat = (ci * h + hi) * w + wi;
                    prop_assert_eq!(t.at(ci, hi, wi), t.data()[flat]);
                }
            }
        }
    }

    /// f16→f32→f16 is the identity for every non-NaN bit pattern.
    #[test]
    fn f16_f32_f16_identity(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        let f = h.to_f32();
        prop_assume!(!f.is_nan());
        prop_assert_eq!(F16::from_f32(f).to_bits(), bits);
    }

    /// f32→f16 rounding error is within half a ULP of the f16 grid for
    /// in-range normal values.
    #[test]
    fn f16_rounding_bounded(v in -60000.0f32..60000.0) {
        prop_assume!(v.abs() >= 6.2e-5); // stay out of the subnormal range
        let r = F16::round_f32(v);
        let rel = ((r - v) / v).abs();
        prop_assert!(rel <= 2f32.powi(-11) + f32::EPSILON, "{v} -> {r}");
    }

    /// Scoped reset (`preserve_across_reset`) — the pipelined frame
    /// boundary — never clobbers a resident weight image, never loses
    /// the preserved (in-flight preload) bytes, and still zeroes every
    /// other written extent. Layout randomized: two disjoint "weight
    /// images", one staged slot, one scratch write, all in distinct
    /// 256-byte lanes of a 64 KB device.
    #[test]
    fn scoped_reset_preserves_slot_and_images(
        lane_a in 0usize..4,
        lane_b in 4usize..8,
        lane_s in 8usize..12,
        lane_x in 12usize..16,
        img_a in proptest::collection::vec(1u8..255, 1..64),
        img_b in proptest::collection::vec(1u8..255, 1..64),
        staged in proptest::collection::vec(1u8..255, 1..64),
        scratch_len in 1usize..64,
    ) {
        let at = |lane: usize| lane * 256;
        let (la, lb, ls, lx) = (at(lane_a), at(lane_b), at(lane_s), at(lane_x));
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
        d.write_block(lx as u32, &vec![0xEE; scratch_len], 10).unwrap();
        d.preserve_across_reset(extent(ls, ls + staged.len()));
        d.reset();
        prop_assert!(d.is_image_resident(1) && d.is_image_resident(2));
        prop_assert_eq!(d.peek(la, img_a.len()), &img_a[..], "image A intact");
        prop_assert_eq!(d.peek(lb, img_b.len()), &img_b[..], "image B intact");
        prop_assert_eq!(d.peek(ls, staged.len()), &staged[..], "staged preload intact");
        prop_assert!(d.peek(lx, scratch_len).iter().all(|&b| b == 0), "scratch zeroed");
        // The preserve is one-shot: a second (full) reset drops the slot
        // but still keeps the images.
        d.reset();
        prop_assert!(d.peek(ls, staged.len()).iter().all(|&b| b == 0));
        prop_assert_eq!(d.peek(la, img_a.len()), &img_a[..]);
    }
}

// ---------------------------------------------------------------------
// Serving-statistics properties (rvnv_soc::serve): percentile order,
// trace replayability, and conservation laws of the queueing
// simulation driven with synthetic service profiles.

use rvnv_soc::batch::Policy;
use rvnv_soc::serve::{
    simulate, ArrivalProcess, FaultSpec, LatencyStats, RequestTrace, ServeSpec, ServiceModel,
};

/// A synthetic two-model service profile from four small numbers.
fn synthetic_profile(c0: u64, c1: u64, pre: u64, stretch: u64) -> ServiceModel {
    let compute = vec![c0, c1];
    ServiceModel {
        preload: vec![pre, pre * 2],
        fill: vec![pre, pre * 2],
        compute: compute.clone(),
        compute_with: vec![
            vec![c0 + stretch, c0 + 2 * stretch],
            vec![c1 + stretch, c1 + 2 * stretch],
        ],
        preload_done: vec![vec![pre, pre * 4], vec![pre * 3, pre * 2]],
        rewarm: pre * 10,
    }
}

fn policy_from(i: u8) -> Policy {
    match i % 3 {
        0 => Policy::RoundRobin,
        1 => Policy::ShortestQueueFirst,
        _ => Policy::EarliestFinish,
    }
}

proptest! {
    /// Nearest-rank percentiles are monotone: p50 <= p95 <= p99 <= max,
    /// and the mean sits inside the sample range.
    #[test]
    fn percentiles_are_monotone(mut samples in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut cycles: Vec<u64> = samples.drain(..).map(u64::from).collect();
        let s = LatencyStats::from_samples(&mut cycles);
        prop_assert!(s.p50 <= s.p95, "p50 {} > p95 {}", s.p50, s.p95);
        prop_assert!(s.p95 <= s.p99, "p95 {} > p99 {}", s.p95, s.p99);
        prop_assert!(s.p99 <= s.max, "p99 {} > max {}", s.p99, s.max);
        prop_assert!(s.mean <= s.max && s.mean >= cycles[0]);
    }

    /// A seeded arrival trace replays bit-identically, stays sorted,
    /// and never generates outside its window or model set.
    #[test]
    fn seeded_traces_replay_bit_identically(
        poisson in any::<u32>(),
        rate in 1u64..2000,
        window_ms in 1u64..100,
        models in 1usize..5,
        seed in any::<u64>(),
    ) {
        let hz = 100_000_000u64;
        let process = if poisson.is_multiple_of(2) { ArrivalProcess::Poisson } else { ArrivalProcess::Fixed };
        let duration = window_ms * (hz / 1000);
        let a = RequestTrace::generate(process, rate, duration, models, seed, hz);
        let b = RequestTrace::generate(process, rate, duration, models, seed, hz);
        prop_assert_eq!(&a, &b, "same seed must replay the same trace");
        prop_assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        prop_assert!(a.requests.iter().all(|r| r.arrival < duration && r.model < models));
    }

    /// Conservation laws of the queueing simulation, under arbitrary
    /// load, pool shape and policy: every request is served or dropped,
    /// achieved throughput never exceeds offered, waits are causal, and
    /// the report's percentiles are monotone.
    #[test]
    fn offered_always_bounds_achieved(
        c0 in 1_000u64..200_000,
        c1 in 1_000u64..200_000,
        pre in 1u64..2_000,
        stretch in 0u64..5_000,
        rate in 50u64..5_000,
        window_ms in 1u64..40,
        workers in 1usize..4,
        queue_depth in 1usize..10,
        pipelined in any::<u32>(),
        policy_pick in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let hz = 100_000_000u64;
        let service = synthetic_profile(c0, c1, pre, stretch);
        let spec = ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: rate,
            duration_ms: window_ms,
            seed,
            workers,
            policy: policy_from(policy_pick),
            pipelined: pipelined.is_multiple_of(2),
            queue_depth,
            slo_us: 5_000,
            timeout_us: 0,
            retries: 0,
            faults: None,
        };
        let trace = RequestTrace::generate(
            spec.process, rate, spec.duration_cycles(hz), 2, seed, hz,
        );
        let names = vec!["a".to_string(), "b".to_string()];
        let r = simulate(&trace, &service, &spec, &names, hz);
        prop_assert_eq!(r.served + r.dropped, r.offered, "every request accounted for");
        prop_assert!(
            r.achieved_rate() <= r.offered_rate() + 1e-9,
            "achieved {} must not exceed offered {}",
            r.achieved_rate(),
            r.offered_rate()
        );
        prop_assert!(r.slo_attained <= r.served);
        prop_assert!(r.total.p50 <= r.total.p95 && r.total.p95 <= r.total.p99);
        prop_assert!(r.queue_wait.p99 <= r.total.p99 && r.service.p99 <= r.total.p99);
        let per_model_served: u64 = r.per_model.iter().map(|m| m.served).sum();
        prop_assert_eq!(per_model_served, r.served);
        let per_worker_frames: u64 = r.per_worker.iter().map(|w| w.frames).sum();
        prop_assert_eq!(per_worker_frames, r.served);
        prop_assert!(r.makespan_cycles >= r.total.max, "completions inside the makespan");
    }

    /// Chaos bookkeeping under arbitrary fault rates, seeds, timeout
    /// and retry budgets: `offered == served + dropped` still holds,
    /// every failed frame attempt resolves exactly once (the
    /// [`rvnv_soc::serve::FaultReport`] reconciliation equation), hangs
    /// are a subset of timeouts, and the whole faulted report replays
    /// bit-identically from the same seeds.
    #[test]
    fn chaos_books_always_balance_and_replay_bit_identically(
        c0 in 1_000u64..200_000,
        c1 in 1_000u64..200_000,
        pre in 1u64..2_000,
        rate in 50u64..3_000,
        window_ms in 1u64..25,
        workers in 1usize..4,
        queue_depth in 1usize..10,
        policy_pick in any::<u8>(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        flips in 0u32..200_000,
        errors in 0u32..200_000,
        spikes in 0u32..200_000,
        spike_us in 0u64..20_000,
        hangs in 0u32..100_000,
        crashes in 0u32..100_000,
        timeout_us in 1u64..30_000,
        retries in 0u32..4,
    ) {
        let hz = 100_000_000u64;
        let service = synthetic_profile(c0, c1, pre, 0);
        let spec = ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: rate,
            duration_ms: window_ms,
            seed,
            workers,
            policy: policy_from(policy_pick),
            pipelined: false,
            queue_depth,
            slo_us: 5_000,
            timeout_us,
            retries,
            faults: Some(FaultSpec {
                seed: fault_seed,
                flip_per_million: flips,
                error_per_million: errors,
                spike_per_million: spikes,
                spike_us,
                hang_per_million: hangs,
                crash_per_million: crashes,
            }),
        };
        spec.validate().expect("generated chaos spec is consistent");
        let trace = RequestTrace::generate(
            spec.process, rate, spec.duration_cycles(hz), 2, seed, hz,
        );
        let names = vec!["a".to_string(), "b".to_string()];
        let r = simulate(&trace, &service, &spec, &names, hz);
        prop_assert_eq!(r.served + r.dropped, r.offered, "every request accounted for");
        let f = r.faults;
        prop_assert_eq!(
            f.timeouts + f.bus_errors + f.corruptions_detected + f.crashes,
            f.retries + f.failovers + f.sheds + f.exhausted,
            "every failed attempt must resolve exactly once"
        );
        prop_assert!(f.hangs <= f.timeouts, "a hang is detected as a timeout");
        prop_assert!(r.slo_attained <= r.served);
        let r2 = simulate(&trace, &service, &spec, &names, hz);
        prop_assert_eq!(r, r2, "a faulted plan must replay bit-identically");
    }

    /// An armed-but-all-zero fault spec (and no timeout) is invisible:
    /// the report is bit-identical to the same spec with `faults: None`
    /// — the chaos machinery costs nothing when it has nothing to do.
    #[test]
    fn quiet_chaos_spec_is_bit_invisible(
        c0 in 1_000u64..200_000,
        c1 in 1_000u64..200_000,
        pre in 1u64..2_000,
        rate in 50u64..3_000,
        window_ms in 1u64..25,
        workers in 1usize..4,
        queue_depth in 1usize..10,
        policy_pick in any::<u8>(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let hz = 100_000_000u64;
        let service = synthetic_profile(c0, c1, pre, 0);
        let quiet = ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: rate,
            duration_ms: window_ms,
            seed,
            workers,
            policy: policy_from(policy_pick),
            pipelined: false,
            queue_depth,
            slo_us: 5_000,
            timeout_us: 0,
            retries: 0,
            faults: Some(FaultSpec { seed: fault_seed, ..FaultSpec::default() }),
        };
        let none = ServeSpec { faults: None, ..quiet };
        let trace = RequestTrace::generate(
            quiet.process, rate, quiet.duration_cycles(hz), 2, seed, hz,
        );
        let names = vec!["a".to_string(), "b".to_string()];
        let a = simulate(&trace, &service, &quiet, &names, hz);
        let b = simulate(&trace, &service, &none, &names, hz);
        prop_assert_eq!(a, b, "a quiet fault plan must be invisible");
    }
}

// ---------------------------------------------------------------------
// Observability properties (rvnv_obs): arming a tracer is byte-invisible
// to the queueing simulation, every emitted span is structurally
// well-formed, and span accounting reconciles with the report —
// per-worker top-level span cycles sum to that worker's busy time, and
// queue-wait spans sum to the served requests' waits. Exercised across
// load, pool shape, policy, both worker modes and chaos.

use rvnv_obs::{SpanKind, Tracer};
use rvnv_soc::serve::{simulate_traced, RequestOutcome};

proptest! {
    /// The tracing honesty contract, as a property: `simulate_traced`
    /// with an armed tracer returns a report byte-identical to
    /// `simulate`'s, and the spans it emits are well-formed and account
    /// for exactly the cycles the report claims.
    #[test]
    fn traced_serve_sim_is_invisible_well_formed_and_reconciles(
        c0 in 1_000u64..200_000,
        c1 in 1_000u64..200_000,
        pre in 1u64..2_000,
        stretch in 0u64..5_000,
        rate in 50u64..3_000,
        window_ms in 1u64..25,
        workers in 1usize..4,
        queue_depth in 1usize..10,
        mode in 0u8..3, // serial / pipelined / serial under chaos
        policy_pick in any::<u8>(),
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let hz = 100_000_000u64;
        let service = synthetic_profile(c0, c1, pre, stretch);
        let spec = ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps: rate,
            duration_ms: window_ms,
            seed,
            workers,
            policy: policy_from(policy_pick),
            pipelined: mode == 1,
            queue_depth,
            slo_us: 5_000,
            timeout_us: if mode == 2 { 3_000 } else { 0 },
            retries: if mode == 2 { 2 } else { 0 },
            faults: (mode == 2).then_some(FaultSpec {
                seed: fault_seed,
                flip_per_million: 50_000,
                error_per_million: 50_000,
                spike_per_million: 50_000,
                spike_us: 1_000,
                hang_per_million: 25_000,
                crash_per_million: 25_000,
            }),
        };
        spec.validate().expect("generated spec is consistent");
        let trace = RequestTrace::generate(
            spec.process, rate, spec.duration_cycles(hz), 2, seed, hz,
        );
        let names = vec!["a".to_string(), "b".to_string()];
        let tracer = Tracer::armed();
        let traced = simulate_traced(&trace, &service, &spec, &names, hz, &tracer);
        let quiet = simulate(&trace, &service, &spec, &names, hz);
        prop_assert_eq!(&traced, &quiet, "arming the tracer must be byte-invisible");
        let spans = tracer.snapshot();
        let well_formed = spans.validate();
        prop_assert!(well_formed.is_ok(), "malformed trace: {:?}", well_formed);
        for (w, stats) in traced.per_worker.iter().enumerate() {
            let track = spans
                .track_named(&format!("worker {w}"))
                .expect("one track per worker");
            prop_assert_eq!(
                spans.sum_cycles(track),
                stats.busy_cycles,
                "worker {} span cycles must sum to its busy time", w
            );
        }
        let waits: u64 = traced.records.iter().filter_map(|r| match r.outcome {
            RequestOutcome::Served { queue_wait, .. } => Some(queue_wait),
            RequestOutcome::Dropped => None,
        }).sum();
        prop_assert_eq!(
            spans.sum_kind(SpanKind::QueueWait),
            waits,
            "queue-wait spans must sum to the report's waits"
        );
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

/// One shared LeNet-5 compilation (compiling per proptest case would
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

/// Differential cases are full debug-mode inferences, so the sample
/// count must stay small regardless of `PROPTEST_CASES`; these tests
/// draw their own handful of random points from the deterministic
/// per-test rng instead of going through `proptest!`.
const DIFFERENTIAL_SAMPLES: usize = 3;

/// Cache ON == cache OFF: cycles, retired instructions, output bytes,
/// pipeline and NVDLA statistics, cold and warm, for random inputs and
/// both firmware wait modes.
#[test]
fn block_cache_is_architecturally_invisible() {
    let mut rng = proptest::TestRng::from_name(concat!(
        file!(),
        "::block_cache_is_architecturally_invisible"
    ));
    let artifacts = lenet_artifacts();
    for case in 0..DIFFERENTIAL_SAMPLES {
        let input_seed = rng.next_u64();
        let wfi = case % 2 == 0;
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
            let tag = format!("seed {input_seed:#x} wfi {wfi} run {run}");
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
    let mut rng = proptest::TestRng::from_name(concat!(
        file!(),
        "::timing_only_matches_functional_cycle_for_cycle"
    ));
    let artifacts = lenet_artifacts();
    for case in 0..DIFFERENTIAL_SAMPLES {
        let input_seed = rng.next_u64();
        let wfi = case % 2 != 0;
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
        let tag = format!("seed {input_seed:#x} wfi {wfi}");
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

    let mut rng = proptest::TestRng::from_name(concat!(
        file!(),
        "::rewarmed_soc_is_bit_identical_to_never_faulted"
    ));
    let artifacts = lenet_artifacts();
    for case in 0..DIFFERENTIAL_SAMPLES {
        let input_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let wfi = case % 2 == 0;
        let input = Tensor::random(Model::LeNet5.build(1).input_shape(), input_seed);
        let bytes = artifacts.quantize_input(&input);
        let fw = wait_firmware(artifacts, wfi);
        let tag = format!("input {input_seed:#x} faults {fault_seed:#x} wfi {wfi}");

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
