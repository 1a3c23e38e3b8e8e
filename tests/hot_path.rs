//! Warm-path determinism: a `Soc` with resident weights reused across N
//! inferences must be bit-identical — cycle counts, outputs, statistics —
//! to N cold runs on freshly built SoCs, in both functional and
//! timing-only modes. These are the oracles behind the in-place
//! reset/resident-weights hot path.

use rv_nvdla::prelude::*;
use rvnv_bus::fault::FaultPlan;

fn compiled_lenet() -> (rvnv_nn::graph::Network, Artifacts) {
    let net = Model::LeNet5.build(11);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    (net, artifacts)
}

fn assert_warm_matches_cold(config: &SocConfig) {
    let (net, artifacts) = compiled_lenet();
    let fw = Firmware::build(&artifacts).expect("fw");
    let inputs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random(net.input_shape(), 100 + i))
        .collect();

    let mut warm = Soc::new(config.clone());
    warm.load_artifacts(&artifacts).expect("preload");
    for input in &inputs {
        let bytes = artifacts.quantize_input(input);
        let w = warm.run_firmware(&artifacts, &bytes, &fw).expect("warm");
        let mut cold_soc = Soc::new(config.clone());
        let c = cold_soc
            .run_firmware(&artifacts, &bytes, &fw)
            .expect("cold");
        assert_eq!(w.cycles, c.cycles, "cycle counts must be bit-identical");
        assert_eq!(w.firmware_cycles, c.firmware_cycles);
        assert_eq!(w.instructions, c.instructions);
        assert_eq!(w.raw_output, c.raw_output, "outputs must be bit-identical");
        assert_eq!(w.cpu_arbiter_wait, c.cpu_arbiter_wait);
        assert_eq!(w.nvdla.total_dma_bytes(), c.nvdla.total_dma_bytes());
        assert_eq!(w.timeline, c.timeline);
    }
}

#[test]
fn warm_soc_matches_cold_socs_functional() {
    assert_warm_matches_cold(&SocConfig::zcu102_nv_small());
}

#[test]
fn warm_soc_matches_cold_socs_timing_only() {
    assert_warm_matches_cold(&SocConfig::zcu102_timing_only());
}

/// Timing-only moves no bytes — every DMA burst goes out length-only —
/// and still keeps the functional run's books: the same modeled cycles,
/// retired instructions, CSB and per-engine DMA/MAC/compute counters and
/// arbiter waits, cold and warm. Its output stays at the post-reset
/// zero because nothing ever writes it.
fn assert_timing_only_keeps_the_functional_books(
    functional: SocConfig,
    timing_only: SocConfig,
    mut opt: CompileOptions,
) {
    let net = Model::LeNet5.build(11);
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let fw = Firmware::build(&artifacts).expect("fw");
    let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 100));

    let f = Soc::new(functional)
        .run_firmware(&artifacts, &bytes, &fw)
        .expect("functional");
    assert!(f.raw_output.iter().any(|&b| b != 0), "a real result");

    let cold = Soc::new(timing_only.clone())
        .run_firmware(&artifacts, &bytes, &fw)
        .expect("cold timing-only");
    let mut soc = Soc::new(timing_only);
    soc.load_artifacts(&artifacts).expect("preload");
    soc.run_firmware(&artifacts, &bytes, &fw).expect("warm-up");
    let warm = soc.run_firmware(&artifacts, &bytes, &fw).expect("warm");
    assert!(soc.is_resident(&artifacts), "no burst touched the weights");

    for t in [&cold, &warm] {
        assert_eq!(t.cycles, f.cycles);
        assert_eq!(t.firmware_cycles, f.firmware_cycles);
        assert_eq!(t.instructions, f.instructions);
        assert_eq!(t.nvdla, f.nvdla, "CSB and per-engine counters");
        assert_eq!(t.nvdla.total_dma_bytes(), f.nvdla.total_dma_bytes());
        assert_eq!(t.cpu_arbiter_wait, f.cpu_arbiter_wait);
        assert_eq!(t.pipeline, f.pipeline);
        assert!(t.raw_output.iter().all(|&b| b == 0), "never written");
    }
}

#[test]
fn timing_only_keeps_the_functional_books_int8_nv_small() {
    assert_timing_only_keeps_the_functional_books(
        SocConfig::zcu102_nv_small(),
        SocConfig::zcu102_timing_only(),
        CompileOptions::int8(),
    );
}

#[test]
fn timing_only_keeps_the_functional_books_fp16_nv_full() {
    assert_timing_only_keeps_the_functional_books(
        SocConfig::zcu102_nv_full(),
        SocConfig::zcu102_nv_full_timing_only(),
        CompileOptions::fp16(),
    );
}

/// Host work of a timing-only frame follows its bursts, never its
/// model's bytes — pinned on exact byte counters instead of a timer. A
/// warm frame copies its input in and nothing else (every DMA burst is
/// length-only; the generated firmware's loads and stores all go to CSB
/// registers, none to DRAM), and its reset zeroes exactly what the
/// previous frame's data writes stored: that frame's input. A
/// timing-only, unlogged VP replay moves nothing at all: nothing reads
/// its weights or its input, so it loads neither, its reset finds
/// nothing stored, and its output `peek` copies nothing. The functional
/// twins carry operands, results and (the VP) the weight image:
/// strictly more.
fn assert_timing_only_frame_moves_only_its_input(
    functional: SocConfig,
    timing_only: SocConfig,
    mut opt: CompileOptions,
) {
    let net = Model::LeNet5.build(11);
    opt.calib_inputs = 1;
    let artifacts = compile(&net, &opt).expect("compile");
    let fw = Firmware::build(&artifacts).expect("fw");
    let bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 100));
    let input_len = artifacts.input_len as u64;
    assert!(artifacts.weights.total_bytes() as u64 > 100 * input_len);

    let warm_frame_work = |config: SocConfig| {
        let mut soc = Soc::new(config);
        soc.load_artifacts(&artifacts).expect("preload");
        soc.run_firmware(&artifacts, &bytes, &fw).expect("warm-up");
        let before = soc.dram_work();
        soc.run_firmware(&artifacts, &bytes, &fw).expect("warm");
        let after = soc.dram_work();
        (
            after.bytes_copied - before.bytes_copied,
            after.bytes_zeroed - before.bytes_zeroed,
        )
    };
    assert_eq!(warm_frame_work(timing_only.clone()), (input_len, input_len));
    let (copied, zeroed) = warm_frame_work(functional.clone());
    assert!(copied > input_len && zeroed > input_len);

    let vp_work = |is_functional: bool| {
        let mut vp = VirtualPlatform::new(timing_only.hw.clone(), 16 << 20);
        vp.set_functional(is_functional);
        vp.run(&artifacts, &bytes, false).expect("VP replays");
        vp.nvdla().dbb().inner().work()
    };
    let timing_vp = vp_work(false);
    assert_eq!((timing_vp.bytes_copied, timing_vp.bytes_zeroed), (0, 0));
    assert!(vp_work(true).bytes_copied > input_len + artifacts.weights.total_bytes() as u64);
}

#[test]
fn timing_only_frame_moves_only_its_input_int8_nv_small() {
    assert_timing_only_frame_moves_only_its_input(
        SocConfig::zcu102_nv_small(),
        SocConfig::zcu102_timing_only(),
        CompileOptions::int8(),
    );
}

#[test]
fn timing_only_frame_moves_only_its_input_fp16_nv_full() {
    assert_timing_only_frame_moves_only_its_input(
        SocConfig::zcu102_nv_full(),
        SocConfig::zcu102_nv_full_timing_only(),
        CompileOptions::fp16(),
    );
}

/// One warm timing-only frame of `artifacts` and the DRAM's host work
/// over it: `(bursts, walks, steps, cycles)` — its modeled DRAM bursts,
/// the burst-loop entries (`DramWork::walks`), the bursts those stepped
/// one by one (`DramWork::burst_steps`) and its cycles, with the fault
/// shim armed with `plan` when given.
fn warm_frame_work(
    config: SocConfig,
    artifacts: &Artifacts,
    plan: Option<FaultPlan>,
) -> (u64, u64, u64, u64) {
    let fw = Firmware::build(artifacts).expect("fw");
    let bytes = vec![0; artifacts.input_len];
    let mut soc = Soc::new(config);
    if let Some(plan) = plan {
        soc.arm_faults(plan);
    }
    soc.run_firmware(artifacts, &bytes, &fw).expect("warm-up");
    let before = soc.dram_work();
    let cycles = soc
        .run_firmware(artifacts, &bytes, &fw)
        .expect("warm")
        .cycles;
    let after = soc.dram_work();
    let bursts = (soc.dram_path().lock())
        .downstream_mut()
        .downstream_mut()
        .dram_mut()
        .inner()
        .stats()
        .bursts;
    (
        bursts,
        after.walks - before.walks,
        after.burst_steps - before.burst_steps,
        cycles,
    )
}

/// Each DMA transfer is one train down the fabric: a warm timing-only
/// LeNet-5 frame enters the DRAM's burst loop once per transfer, at
/// least ten times fewer than the bursts it models. Under an armed
/// (quiet) fault plan the shim draws once per burst, so the same frame
/// walks: exactly one entry per burst, and not a cycle different.
fn assert_dma_transfers_are_trains(config: SocConfig, mut opt: CompileOptions) {
    opt.calib_inputs = 1;
    let artifacts = compile(&Model::LeNet5.build(11), &opt).expect("compile");
    let (bursts, walks, _, cycles) = warm_frame_work(config.clone(), &artifacts, None);
    assert!(
        walks > 0 && walks * 10 <= bursts,
        "{walks} walks for {bursts} bursts"
    );
    let (armed_bursts, armed_walks, _, armed_cycles) =
        warm_frame_work(config, &artifacts, Some(FaultPlan::quiet(7)));
    assert_eq!(
        (armed_bursts, armed_walks, armed_cycles),
        (bursts, bursts, cycles),
        "an armed plan walks every burst"
    );
}

#[test]
fn dma_transfers_are_trains_int8_nv_small() {
    assert_dma_transfers_are_trains(SocConfig::zcu102_timing_only(), CompileOptions::int8());
}

#[test]
fn dma_transfers_are_trains_fp16_nv_full() {
    assert_dma_transfers_are_trains(
        SocConfig::zcu102_nv_full_timing_only(),
        CompileOptions::fp16(),
    );
}

/// Table III's largest frame computes its bursts instead of stepping
/// them: every shipped preset clocks the SoC at the memory clock, so
/// each layer above the DRAM re-issues a train's steady bursts at a
/// constant offset and the DRAM steps only each train's first and last
/// burst — at most a tenth of `DramStats::bursts`, on the warm
/// timing-only SoC frame and on the timing-only VP run, which has no
/// layers above at all. An armed (quiet) fault plan walks, and a
/// 150 MHz SoC against the 100 MHz memory rounds differently burst to
/// burst: both step every burst, and the armed frame takes exactly the
/// cycles of the closed form.
#[test]
fn resnet50_fp16_trains_step_a_tenth_of_their_bursts() {
    let artifacts = compile(&Model::ResNet50.skeleton(), &CompileOptions::fp16()).expect("compile");
    let config = SocConfig::zcu102_nv_full_timing_only();
    let (bursts, _, steps, cycles) = warm_frame_work(config.clone(), &artifacts, None);
    assert!(
        steps > 0 && steps * 10 <= bursts,
        "{steps} stepped of {bursts} bursts"
    );
    let (armed_bursts, _, armed_steps, armed_cycles) =
        warm_frame_work(config.clone(), &artifacts, Some(FaultPlan::quiet(7)));
    assert_eq!(
        (armed_bursts, armed_steps, armed_cycles),
        (bursts, bursts, cycles),
        "an armed plan steps every burst"
    );
    let mut uneven = config.clone();
    uneven.soc_hz = 150_000_000;
    let (bursts_150, _, steps_150, _) = warm_frame_work(uneven, &artifacts, None);
    assert_eq!(
        steps_150, bursts_150,
        "a non-integer clock ratio steps every burst"
    );

    let mut vp = VirtualPlatform::new(config.hw, 256 << 20);
    vp.set_functional(false);
    vp.run(&artifacts, &vec![0; artifacts.input_len], false)
        .expect("VP replays");
    let dram = vp.nvdla().dbb().inner();
    let (bursts, steps) = (dram.stats().bursts, dram.work().burst_steps);
    assert!(
        steps > 0 && steps * 10 <= bursts,
        "VP: {steps} stepped of {bursts} bursts"
    );
}

#[test]
fn timing_only_frames_leave_every_resident_image_resident() {
    // Length-only writes enter the DRAM's run tracker exactly like the
    // data writes they stand for, so the reset between frames sees the
    // same (absent) clobbers: two pinned images stay pinned across
    // timing-only frames.
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let nets = [Model::LeNet5.build(1), Model::LeNet5.build(2)];
    let artifacts = layout_models(&ArtifactCache::new(), &nets, &opt).expect("layout");
    let input = Tensor::random(nets[0].input_shape(), 77);
    let mut soc = Soc::new(SocConfig::zcu102_timing_only());
    for a in &artifacts {
        soc.load_artifacts(a).expect("pin");
    }
    let first = soc.run_inference(&artifacts[1], &input).expect("frame 1");
    let again = soc.run_inference(&artifacts[1], &input).expect("frame 2");
    assert_eq!(again.cycles, first.cycles);
    assert_eq!(soc.resident_count(), 2);
    assert!(soc.is_resident(&artifacts[0]) && soc.is_resident(&artifacts[1]));
}

#[test]
fn run_inference_is_warm_after_the_first_call() {
    // The transparent hot path: plain `run_inference` in a loop promotes
    // the artifacts to resident after call one and stays deterministic.
    let (net, artifacts) = compiled_lenet();
    let input = Tensor::random(net.input_shape(), 42);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let first = soc.run_inference(&artifacts, &input).expect("first");
    assert!(soc.is_resident(&artifacts));
    for _ in 0..2 {
        let again = soc.run_inference(&artifacts, &input).expect("again");
        assert_eq!(again.cycles, first.cycles);
        assert_eq!(again.raw_output, first.raw_output);
    }
}

#[test]
fn explicit_reset_forces_a_cold_run_with_identical_results() {
    let (net, artifacts) = compiled_lenet();
    let input = Tensor::random(net.input_shape(), 9);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let warm = soc.run_inference(&artifacts, &input).expect("warm-up");
    soc.reset();
    assert!(!soc.is_resident(&artifacts));
    let cold = soc.run_inference(&artifacts, &input).expect("cold");
    assert_eq!(cold.cycles, warm.cycles);
    assert_eq!(cold.raw_output, warm.raw_output);
}

#[test]
fn alternating_models_on_one_soc_stays_deterministic() {
    // Model switches evict residency; switching back must replay the
    // exact original numbers.
    let lenet_net = Model::LeNet5.build(11);
    let resnet_net = Model::ResNet18.build(11);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let lenet = compile(&lenet_net, &opt).expect("lenet");
    let resnet = compile(&resnet_net, &opt).expect("resnet");
    let lenet_in = Tensor::random(lenet_net.input_shape(), 5);
    let resnet_in = Tensor::random(resnet_net.input_shape(), 5);

    let mut soc = Soc::new(SocConfig::zcu102_timing_only());
    let l1 = soc.run_inference(&lenet, &lenet_in).expect("lenet 1");
    let r1 = soc.run_inference(&resnet, &resnet_in).expect("resnet 1");
    assert!(soc.is_resident(&resnet));
    assert!(!soc.is_resident(&lenet));
    let l2 = soc.run_inference(&lenet, &lenet_in).expect("lenet 2");
    let r2 = soc.run_inference(&resnet, &resnet_in).expect("resnet 2");
    assert_eq!(l1.cycles, l2.cycles);
    assert_eq!(r1.cycles, r2.cycles);
}

#[test]
fn same_layout_different_weights_is_not_resident() {
    // zoo builds from different seeds share the model name and the
    // exact segment layout; the resident check must see the weight
    // bytes, or a warm run would silently reuse stale weights. The
    // check is O(1) on a fingerprint the image folds as it is built, so
    // the second image is also tried rebuilt from its `.bin` — a path
    // that never went through the compiler's `push` calls.
    use rvnv_compiler::layout::WeightImage;
    let rebuilt = |a: &Artifacts| {
        let mut b = a.clone();
        b.weights = WeightImage::from_bin(&a.weights.to_bin()).expect("parse");
        b
    };
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let a1 = compile(&Model::LeNet5.build(1), &opt).expect("seed 1");
    let a2 = compile(&Model::LeNet5.build(2), &opt).expect("seed 2");
    let input = Tensor::random(Model::LeNet5.build(1).input_shape(), 4);
    let mut fresh = Soc::new(SocConfig::zcu102_nv_small());
    let truth = fresh.run_inference(&a2, &input).expect("ground truth");

    for other in [a2.clone(), rebuilt(&a2)] {
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        soc.run_inference(&a1, &input).expect("seed-1 run");
        assert!(
            soc.is_resident(&rebuilt(&a1)),
            "identity is content, not provenance"
        );
        assert!(
            !soc.is_resident(&other),
            "different weights must not look resident"
        );
        let warm = soc.run_inference(&other, &input).expect("seed-2 run");
        assert_eq!(warm.raw_output, truth.raw_output, "no stale weights used");
        assert_eq!(warm.cycles, truth.cycles);
    }
}

#[test]
fn with_dram_peek_borrows_the_same_bytes_dram_peek_copies() {
    let (net, artifacts) = compiled_lenet();
    let input = Tensor::random(net.input_shape(), 3);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let r = soc.run_inference(&artifacts, &input).expect("run");
    let copied = soc.dram_peek(artifacts.output_addr, artifacts.output_len);
    let equal = soc.with_dram_peek(artifacts.output_addr, artifacts.output_len, |raw| {
        raw == copied.as_slice() && raw == r.raw_output.as_slice()
    });
    assert!(equal, "borrowing peek sees the same bytes");
}
