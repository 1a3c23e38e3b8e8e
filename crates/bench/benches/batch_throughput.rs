//! Host-throughput bench for the multi-model resident batch scheduler.
//!
//! The claim under test: with several weight images resident in one
//! DRAM, an interleaved multi-model frame stream runs entirely warm —
//! switching models between frames costs an in-place reset, not a
//! weight restream — and the results stay **bit-identical** to each
//! model run cold on a fresh SoC. The identity is asserted before any
//! timing starts, so `cargo bench -- --test` doubles as the determinism
//! check in CI.
//!
//! * `two_model_rr_warm` / `two_model_sqf_warm` — drain a 6-frame
//!   interleaved queue (3 per model) on one resident SoC, per policy.
//! * `two_model_rr_pipelined` — the same queue with the input preload
//!   **pipelined**: frame N+1's input streams through the SmartConnect
//!   into the other double-buffer slot while frame N computes. Output
//!   bytes are asserted bit-identical to the serial drain; the modeled
//!   makespan and warm-frame latency are asserted *lower* (the preload
//!   hides behind compute, minus real arbiter contention).
//! * `cold_soc_per_frame` — the same 6 frames, each on a freshly built
//!   SoC with its weight preload: the pre-residency serving cost.
//! * `parallel_workers` — the same stream sharded across worker SoC
//!   replicas via `rvnv_soc::batch::run_parallel` (equal to the serial
//!   drain on a 1-core pin; see docs/BASELINES.md).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;
use rvnv_obs::Tracer;
use rvnv_soc::batch::{
    layout_models, run_parallel, BatchScheduler, Frame, PipelinedScheduler, Policy,
};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};

fn wfi_codegen() -> CodegenOptions {
    CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    }
}

/// Two LeNet-5 compilations (different seeds → different weights) at
/// disjoint DRAM bases, plus an interleaved 6-frame stream.
fn setup() -> (Vec<Arc<Artifacts>>, Vec<Frame>) {
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let nets = [Model::LeNet5.build(1), Model::LeNet5.build(2)];
    let cache = ArtifactCache::new();
    let artifacts = layout_models(&cache, &nets, &opt).expect("layout");
    let frames = (0..6)
        .map(|i| {
            let m = i % 2;
            let input = Tensor::random(nets[m].input_shape(), 9000 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();
    (artifacts, frames)
}

fn scheduler(config: &SocConfig, artifacts: &[Arc<Artifacts>], policy: Policy) -> BatchScheduler {
    let mut sched = BatchScheduler::new(config.clone(), policy);
    for a in artifacts {
        sched.add_model(a.clone(), wfi_codegen()).expect("pin");
    }
    sched
}

fn drain(sched: &mut BatchScheduler, frames: &[Frame]) -> u64 {
    for f in frames {
        sched.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
    }
    sched.run().expect("drain").total_cycles()
}

fn bench_batch_throughput(c: &mut Criterion) {
    let config = SocConfig::zcu102_timing_only();
    let (artifacts, frames) = setup();
    let fws: Vec<Firmware> = artifacts
        .iter()
        .map(|a| Firmware::build_with(a, wfi_codegen()).expect("fw"))
        .collect();

    // Determinism oracle before any timing: every warm multi-model
    // frame must be bit-identical to the same frame cold on a fresh
    // single-model SoC.
    let mut warm = scheduler(&config, &artifacts, Policy::RoundRobin);
    for f in &frames {
        warm.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
    }
    let mut served = Vec::new();
    warm.run_with(|m, r| served.push((m, r.cycles, r.raw_output.clone())))
        .expect("warm drain");
    let mut next = [0usize; 2];
    for (m, cycles, raw) in &served {
        let frame = frames
            .iter()
            .filter(|f| f.model == *m)
            .nth(next[*m])
            .expect("frame");
        next[*m] += 1;
        let mut cold = Soc::new(config.clone());
        let c = cold
            .run_firmware(&artifacts[*m], &frame.bytes, &fws[*m])
            .expect("cold");
        assert_eq!(*cycles, c.cycles, "warm batch must be bit-identical");
        assert_eq!(*raw, c.raw_output, "warm batch output must match cold");
    }

    // Pipelined oracle: overlapping frame N+1's preload with frame N's
    // compute must move cycles, never data — and must actually *win*:
    // lower modeled makespan and warm-frame latency than the serial
    // drain that pays each preload on the critical path.
    let serial_report = {
        for f in &frames {
            warm.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
        }
        warm.run().expect("serial reference drain")
    };
    let mut piped = PipelinedScheduler::new(config.clone(), Policy::RoundRobin);
    for a in &artifacts {
        piped.add_model(a.clone(), wfi_codegen()).expect("pin");
    }
    for f in &frames {
        piped.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
    }
    let mut piped_served = Vec::new();
    let piped_report = piped
        .run_with(|m, r| piped_served.push((m, r.raw_output.clone())))
        .expect("pipelined drain");
    for ((m, cycles_raw, raw), (mp, raw_p)) in served.iter().zip(&piped_served) {
        let _ = cycles_raw;
        assert_eq!(m, mp, "same rr service order");
        assert_eq!(raw, raw_p, "pipelined output bytes must match serial");
    }
    assert!(
        piped_report.makespan_cycles < serial_report.makespan_cycles,
        "pipeline must shorten the stream: {} vs {}",
        piped_report.makespan_cycles,
        serial_report.makespan_cycles
    );
    assert!(
        piped_report.warm_frame_latency() < serial_report.warm_frame_latency(),
        "pipeline must cut warm frame latency: {} vs {}",
        piped_report.warm_frame_latency(),
        serial_report.warm_frame_latency()
    );

    let mut g = c.benchmark_group("batch_throughput");
    g.sample_size(10);
    g.bench_function("two_model_rr_warm", |b| {
        b.iter(|| drain(&mut warm, &frames))
    });
    let mut sqf = scheduler(&config, &artifacts, Policy::ShortestQueueFirst);
    g.bench_function("two_model_sqf_warm", |b| {
        b.iter(|| drain(&mut sqf, &frames))
    });
    g.bench_function("two_model_rr_pipelined", |b| {
        b.iter(|| {
            for f in &frames {
                piped.enqueue_bytes(f.model, f.bytes.clone()).expect("enq");
            }
            piped.run().expect("pipelined drain").makespan_cycles
        })
    });
    g.bench_function("cold_soc_per_frame", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|f| {
                    let mut soc = Soc::new(config.clone());
                    soc.run_firmware(&artifacts[f.model], &f.bytes, &fws[f.model])
                        .expect("cold frame")
                        .cycles
                })
                .sum::<u64>()
        })
    });
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    g.bench_function(&format!("parallel_{threads}workers"), |b| {
        b.iter(|| {
            run_parallel(
                &config,
                Policy::RoundRobin,
                &artifacts,
                wfi_codegen(),
                &frames,
                threads,
                false,
                &Tracer::disarmed(),
            )
            .expect("fan-out")
            .total_cycles()
        })
    });
    g.finish();
}

criterion_group!(batch_throughput, bench_batch_throughput);
criterion_main!(batch_throughput);
