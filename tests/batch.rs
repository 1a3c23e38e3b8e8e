//! Multi-model residency oracles: N models resident on one SoC, driven
//! by the batch scheduler, must be **bit-identical** — cycle counts,
//! output bytes, statistics — to the same models run cold on freshly
//! built SoCs, in both functional and timing-only modes. Plus the
//! residency edge cases: overlapping layouts are rejected, clobbering
//! one image leaves the others warm, and `Soc::reset()` drops all.
//!
//! The pipelined drain adds its own oracles: output bytes stay
//! bit-identical to the serial drain (the overlapped preload moves
//! cycles, never data), the scoped inter-frame reset never unseats a
//! resident weight image, and — unlike the serial drain, whose modeled
//! cycles are policy-independent — rr/sqf/eff produce **different**
//! modeled makespans on an interleaved two-model stream, at lower
//! warm-frame latency than serial.

use std::sync::Arc;

use rv_nvdla::prelude::*;
use rvnv_soc::batch;
use rvnv_soc::batch::input_slots;

fn quick_int8() -> CompileOptions {
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    opt
}

/// Two distinct LeNet-5 compilations (different seeds → different
/// weights) laid out at disjoint DRAM bases.
fn two_models(opt: &CompileOptions) -> Vec<Arc<Artifacts>> {
    let cache = ArtifactCache::new();
    let nets = [Model::LeNet5.build(1), Model::LeNet5.build(2)];
    let artifacts = batch::layout_models(&cache, &nets, opt).expect("layout");
    assert!(
        artifacts[0].dram_used <= artifacts[1].dram_base,
        "layout_models must separate the footprints"
    );
    artifacts
}

/// Drain an interleaved frame queue through the scheduler and check
/// every frame against a cold run of the same bytes on a fresh SoC.
fn assert_batch_matches_cold(config: &SocConfig, codegen: CodegenOptions, policy: Policy) {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();

    let mut sched = BatchScheduler::new(config.clone(), policy);
    for a in &artifacts {
        sched.add_model(a.clone(), codegen).expect("pin model");
    }
    assert_eq!(sched.soc().resident_count(), 2);
    // 3 frames per model, interleaved enqueue order.
    let frames: Vec<(usize, Vec<u8>)> = (0..6)
        .map(|i| {
            let m = i % 2;
            let input = Tensor::random(shape, 500 + i as u64);
            (m, artifacts[m].quantize_input(&input))
        })
        .collect();
    for (m, bytes) in &frames {
        sched.enqueue_bytes(*m, bytes.clone()).expect("enqueue");
    }
    assert_eq!(sched.pending(), 6);

    // Collect per-frame warm results in service order.
    let mut served: Vec<(usize, u64, Vec<u8>, u64)> = Vec::new();
    let report = sched
        .run_with(|m, r| served.push((m, r.cycles, r.raw_output.clone(), r.cpu_arbiter_wait)))
        .expect("drain");
    assert_eq!(served.len(), 6);
    assert_eq!(report.total_frames(), 6);
    assert_eq!(sched.pending(), 0);

    // Cold oracle: same frame bytes on a fresh single-model SoC.
    let mut next_per_model = [0usize; 2];
    let fws: Vec<Firmware> = artifacts
        .iter()
        .map(|a| Firmware::build_with(a, codegen).expect("fw"))
        .collect();
    for (m, cycles, raw, wait) in &served {
        // The scheduler serves each model's frames in FIFO order; find
        // this served frame's bytes from the enqueue stream.
        let idx = frames
            .iter()
            .enumerate()
            .filter(|(_, (fm, _))| fm == m)
            .map(|(i, _)| i)
            .nth(next_per_model[*m])
            .expect("frame exists");
        next_per_model[*m] += 1;
        let mut cold = Soc::new(config.clone());
        let c = cold
            .run_firmware(&artifacts[*m], &frames[idx].1, &fws[*m])
            .expect("cold run");
        assert_eq!(*cycles, c.cycles, "warm batch cycles == cold cycles");
        assert_eq!(*raw, c.raw_output, "warm batch output == cold output");
        assert_eq!(*wait, c.cpu_arbiter_wait, "arbiter stats identical");
    }
    // Per-model totals line up with the per-frame sums.
    for m in 0..2 {
        let total: u64 = served
            .iter()
            .filter(|(fm, ..)| *fm == m)
            .map(|(_, c, ..)| c)
            .sum();
        assert_eq!(report.per_model[m].1.cycles, total);
        assert_eq!(report.per_model[m].1.frames, 3);
    }
}

#[test]
fn batch_matches_cold_functional() {
    assert_batch_matches_cold(
        &SocConfig::zcu102_nv_small(),
        CodegenOptions::default(),
        Policy::RoundRobin,
    );
}

#[test]
fn batch_matches_cold_timing_only() {
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    assert_batch_matches_cold(
        &SocConfig::zcu102_timing_only(),
        codegen,
        Policy::RoundRobin,
    );
}

#[test]
fn policies_agree_on_totals_but_order_differently() {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();
    let config = SocConfig::zcu102_timing_only();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };

    let drain = |policy: Policy, frames_a: usize, frames_b: usize| {
        let mut sched = BatchScheduler::new(config.clone(), policy);
        for a in &artifacts {
            sched.add_model(a.clone(), codegen).expect("pin");
        }
        for i in 0..frames_a {
            let input = Tensor::random(shape, 10 + i as u64);
            sched.enqueue(0, &input).expect("enqueue a");
        }
        for i in 0..frames_b {
            let input = Tensor::random(shape, 20 + i as u64);
            sched.enqueue(1, &input).expect("enqueue b");
        }
        let mut order = Vec::new();
        let report = sched.run_with(|m, _| order.push(m)).expect("drain");
        (order, report)
    };

    // Uneven queues: model 0 has 4 frames, model 1 has 1.
    let (rr_order, rr) = drain(Policy::RoundRobin, 4, 1);
    let (sqf_order, sqf) = drain(Policy::ShortestQueueFirst, 4, 1);
    assert_eq!(rr_order, vec![0, 1, 0, 0, 0], "rr rotates while both pend");
    assert_eq!(sqf_order, vec![1, 0, 0, 0, 0], "sqf drains the straggler");
    // Modeled cycles are policy-independent: every frame is a full
    // in-place reset, so only the service order may differ.
    assert_eq!(rr.total_cycles(), sqf.total_cycles());
    assert_eq!(rr.per_model[0].1.cycles, sqf.per_model[0].1.cycles);
}

#[test]
fn parallel_fan_out_matches_single_worker() {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();
    let config = SocConfig::zcu102_timing_only();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    let frames: Vec<Frame> = (0..8)
        .map(|i| {
            let m = i % 2;
            let input = Tensor::random(shape, 700 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();
    let run = |threads| {
        run_parallel(
            &config,
            Policy::RoundRobin,
            &artifacts,
            codegen,
            &frames,
            threads,
            false,
            &Tracer::disarmed(),
        )
    };
    let one = run(1).expect("1 worker");
    let four = run(4).expect("4 workers");
    assert_eq!(one.total_frames(), four.total_frames());
    assert_eq!(one.total_cycles(), four.total_cycles());
    for m in 0..2 {
        assert_eq!(one.per_model[m].1, four.per_model[m].1);
    }
}

#[test]
fn overlapping_layouts_are_rejected() {
    // Compiled at the same base, the two footprints overlap; a strict
    // pin must refuse (and leave the resident image untouched).
    let opt = quick_int8();
    let a = compile(&Model::LeNet5.build(1), &opt).expect("a");
    let b = compile(&Model::LeNet5.build(2), &opt).expect("b");
    let mut sched = BatchScheduler::new(SocConfig::zcu102_timing_only(), Policy::RoundRobin);
    sched
        .add_model(Arc::new(a.clone()), CodegenOptions::default())
        .expect("first pin");
    let err = sched
        .add_model(Arc::new(b), CodegenOptions::default())
        .expect_err("overlap must be rejected");
    assert!(
        err.to_string().contains("overlap"),
        "helpful error, got: {err}"
    );
    assert!(sched.soc().is_resident(&a), "first image survives");
}

#[test]
fn clobbering_one_image_leaves_the_others_warm() {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();
    let input = Tensor::random(shape, 77);
    let mut soc = Soc::new(SocConfig::zcu102_timing_only());
    soc.load_artifacts(&artifacts[0]).expect("pin 0");
    soc.load_artifacts(&artifacts[1]).expect("pin 1");
    let r1 = soc.run_inference(&artifacts[1], &input).expect("warm 1");

    // Trample model 0's first weight segment through the backdoor — as
    // a buggy run would — and reset via the next run's prepare.
    let seg = &artifacts[0].weights.segments()[0];
    let garbage = vec![0xAB; seg.bytes.len()];
    soc.dram_load(seg.addr, &garbage).expect("clobber");
    let r1b = soc
        .run_inference(&artifacts[1], &input)
        .expect("still warm");
    assert!(
        !soc.is_resident(&artifacts[0]),
        "clobbered image must be dropped"
    );
    assert!(soc.is_resident(&artifacts[1]), "other image stays warm");
    assert_eq!(r1b.cycles, r1.cycles);
    assert_eq!(r1b.raw_output, r1.raw_output);

    // Model 0 reloads cold and is correct again.
    let mut fresh = Soc::new(SocConfig::zcu102_timing_only());
    let truth = fresh.run_inference(&artifacts[0], &input).expect("truth");
    let again = soc.run_inference(&artifacts[0], &input).expect("reload");
    assert_eq!(again.cycles, truth.cycles);
    assert_eq!(again.raw_output, truth.raw_output);
}

#[test]
fn soc_reset_drops_all_images() {
    let artifacts = two_models(&quick_int8());
    let mut soc = Soc::new(SocConfig::zcu102_timing_only());
    soc.load_artifacts(&artifacts[0]).expect("pin 0");
    soc.load_artifacts(&artifacts[1]).expect("pin 1");
    assert_eq!(soc.resident_count(), 2);
    soc.reset();
    assert_eq!(soc.resident_count(), 0);
    for a in &artifacts {
        assert!(!soc.is_resident(a));
    }
}

/// Drain the same frames serially and pipelined under `policy`; the
/// pipelined drain must serve bit-identical output bytes (and, as a
/// scoped-reset safety check, leave every weight image resident).
fn assert_pipelined_matches_serial(config: &SocConfig, codegen: CodegenOptions, policy: Policy) {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();
    let frames: Vec<(usize, Vec<u8>)> = (0..6)
        .map(|i| {
            let m = i % 2;
            let input = Tensor::random(shape, 8800 + i as u64);
            (m, artifacts[m].quantize_input(&input))
        })
        .collect();

    let drain = |pipelined: bool| -> (Vec<(usize, Vec<u8>, u64)>, BatchReport) {
        let mut served = Vec::new();
        let report = if pipelined {
            let mut sched = PipelinedScheduler::new(config.clone(), policy);
            for a in &artifacts {
                sched.add_model(a.clone(), codegen).expect("pin");
            }
            for (m, b) in &frames {
                sched.enqueue_bytes(*m, b.clone()).expect("enqueue");
            }
            let report = sched
                .run_with(|m, r| served.push((m, r.raw_output.clone(), r.cycles)))
                .expect("pipelined drain");
            assert_eq!(sched.soc().resident_count(), 2, "weights stay pinned");
            report
        } else {
            let mut sched = BatchScheduler::new(config.clone(), policy);
            for a in &artifacts {
                sched.add_model(a.clone(), codegen).expect("pin");
            }
            for (m, b) in &frames {
                sched.enqueue_bytes(*m, b.clone()).expect("enqueue");
            }
            sched
                .run_with(|m, r| served.push((m, r.raw_output.clone(), r.cycles)))
                .expect("serial drain")
        };
        (served, report)
    };

    let (serial, rs) = drain(false);
    let (piped, rp) = drain(true);
    assert_eq!(serial.len(), piped.len());
    // rr and sqf pick by queue state only, so both drains serve the
    // same order; every served frame's bytes must match exactly.
    for ((ms, raw_s, cyc_s), (mp, raw_p, cyc_p)) in serial.iter().zip(&piped) {
        assert_eq!(ms, mp, "same service order");
        assert_eq!(raw_s, raw_p, "pipelined output bytes == serial");
        assert!(cyc_p >= cyc_s, "contention can only add compute cycles");
    }
    assert!(rp.pipelined && !rs.pipelined);
    assert_eq!(rp.total_frames(), rs.total_frames());
    // The pipeline hides preload behind compute: the stream finishes
    // sooner than the serial preload+compute chain.
    assert!(
        rp.makespan_cycles < rs.makespan_cycles,
        "pipelined {} vs serial {}",
        rp.makespan_cycles,
        rs.makespan_cycles
    );
}

#[test]
fn pipelined_matches_serial_functional() {
    assert_pipelined_matches_serial(
        &SocConfig::zcu102_nv_small(),
        CodegenOptions::default(),
        Policy::RoundRobin,
    );
}

#[test]
fn pipelined_matches_serial_timing_only() {
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    assert_pipelined_matches_serial(
        &SocConfig::zcu102_timing_only(),
        codegen,
        Policy::ShortestQueueFirst,
    );
}

#[test]
fn pipelined_policies_diverge_where_serial_policies_cannot() {
    // Two timing-distinct models, uneven interleaved queues: serially,
    // every policy must report the same makespan (full-reset frames are
    // order-independent); pipelined, each policy pairs different frames
    // with different overlapped preloads, so all three makespans differ
    // — the rr/sqf knob stops being decorative.
    let mut opt = quick_int8();
    opt.calib_inputs = 1;
    let nets = [Model::ResNet18.build(1), Model::LeNet5.build(1)];
    let cache = ArtifactCache::new();
    let artifacts = batch::layout_models(&cache, &nets, &opt).expect("layout");
    let frames: Vec<(usize, Vec<u8>)> = [0usize, 1, 0, 1, 1]
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let input = Tensor::random(nets[m].input_shape(), 300 + i as u64);
            (m, artifacts[m].quantize_input(&input))
        })
        .collect();
    let config = SocConfig::zcu102_timing_only();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };

    let policies = [
        Policy::RoundRobin,
        Policy::ShortestQueueFirst,
        Policy::EarliestFinish,
    ];
    let mut serial_spans = Vec::new();
    let mut piped_spans = Vec::new();
    for policy in policies {
        let mut serial = BatchScheduler::new(config.clone(), policy);
        let mut piped = PipelinedScheduler::new(config.clone(), policy);
        for a in &artifacts {
            serial.add_model(a.clone(), codegen).expect("pin");
            piped.add_model(a.clone(), codegen).expect("pin");
        }
        for (m, b) in &frames {
            serial.enqueue_bytes(*m, b.clone()).expect("enqueue");
            piped.enqueue_bytes(*m, b.clone()).expect("enqueue");
        }
        let rs = serial.run().expect("serial drain");
        let rp = piped.run().expect("pipelined drain");
        assert_eq!(rs.total_frames(), 5);
        assert_eq!(rp.total_frames(), 5);
        // The stream-wide mean latency compares the same 5 frames on
        // both sides regardless of service order, so it must drop for
        // every policy (the preload leaves the critical path).
        assert!(
            rp.mean_frame_latency() < rs.mean_frame_latency(),
            "{}: pipelined mean {} vs serial mean {}",
            policy.name(),
            rp.mean_frame_latency(),
            rs.mean_frame_latency()
        );
        assert!(rp.makespan_cycles < rs.makespan_cycles, "{}", policy.name());
        // rr and sqf pick by queue state alone, so serial and pipelined
        // serve identical orders — there the *warm* (non-fill) frames
        // can be compared one-to-one against the same serial tail.
        if policy != Policy::EarliestFinish {
            let tail = &rs.frame_latencies[1..];
            let serial_tail = tail.iter().map(|f| f.cycles).sum::<u64>() / tail.len() as u64;
            assert!(
                rp.warm_frame_latency() < serial_tail,
                "{}: pipelined warm {} vs matched serial tail {}",
                policy.name(),
                rp.warm_frame_latency(),
                serial_tail
            );
        }
        serial_spans.push(rs.makespan_cycles);
        piped_spans.push(rp.makespan_cycles);
    }
    assert!(
        serial_spans.iter().all(|&s| s == serial_spans[0]),
        "serial makespan is policy-independent: {serial_spans:?}"
    );
    assert!(
        piped_spans[0] != piped_spans[1]
            && piped_spans[0] != piped_spans[2]
            && piped_spans[1] != piped_spans[2],
        "pipelined makespans must differ per policy: {piped_spans:?}"
    );
}

#[test]
fn pipelined_parallel_single_worker_matches_direct_drain() {
    let artifacts = two_models(&quick_int8());
    let shape = Model::LeNet5.build(1).input_shape();
    let config = SocConfig::zcu102_timing_only();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    let frames: Vec<Frame> = (0..6)
        .map(|i| {
            let m = i % 2;
            let input = Tensor::random(shape, 4400 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();
    let run = |threads| {
        run_parallel(
            &config,
            Policy::RoundRobin,
            &artifacts,
            codegen,
            &frames,
            threads,
            true,
            &Tracer::disarmed(),
        )
    };
    let one = run(1).expect("1 worker");
    let mut direct = PipelinedScheduler::new(config.clone(), Policy::RoundRobin);
    for a in &artifacts {
        direct.add_model(a.clone(), codegen).expect("pin");
    }
    for f in &frames {
        direct.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
    }
    let d = direct.run().expect("direct drain");
    assert_eq!(one.total_frames(), d.total_frames());
    assert_eq!(one.total_cycles(), d.total_cycles());
    assert_eq!(one.makespan_cycles, d.makespan_cycles);
    for m in 0..2 {
        assert_eq!(one.per_model[m].1, d.per_model[m].1);
    }
    // Sharding across workers conserves frames and keeps every shard
    // pipelined; totals legitimately differ (each shard has its own
    // fill and pairings), so only conservation is asserted.
    let two = run(2).expect("2 workers");
    assert_eq!(two.total_frames(), 6);
    assert!(two.pipelined);
    assert_eq!(two.frame_latencies.len(), 6);
}

#[test]
fn input_slots_sit_past_every_model_footprint() {
    let artifacts = two_models(&quick_int8());
    let (slots, len) = input_slots(&artifacts);
    let high = artifacts.iter().map(|a| a.dram_used).max().unwrap();
    assert!(slots[0] >= high, "slot 0 past the model high-water mark");
    assert!(
        u64::from(slots[1]) >= u64::from(slots[0]) + len as u64,
        "slots disjoint"
    );
    assert_eq!(
        len,
        artifacts.iter().map(|a| a.input_len).max().unwrap(),
        "slot fits the largest input"
    );
}

#[test]
fn scheduler_rejects_unknown_model_indices() {
    let artifacts = two_models(&quick_int8());
    let mut sched = BatchScheduler::new(SocConfig::zcu102_timing_only(), Policy::RoundRobin);
    sched
        .add_model(artifacts[0].clone(), CodegenOptions::default())
        .expect("pin");
    let shape = Model::LeNet5.build(1).input_shape();
    let err = sched
        .enqueue(5, &Tensor::random(shape, 1))
        .expect_err("index out of range");
    assert!(err.to_string().contains("out of range"), "got: {err}");
}
