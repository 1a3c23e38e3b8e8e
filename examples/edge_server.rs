//! Multi-model edge server: several networks resident in one DRAM,
//! frames batched across them.
//!
//! Where `edge_deployment` serves one model, an edge *server* juggles a
//! mixed request stream — say a detector and a classifier sharing one
//! accelerator. This example pins LeNet-5 and ResNet-18 side by side at
//! disjoint DRAM bases (`rvnv_soc::batch::layout_models`), drains an
//! interleaved frame queue under all three scheduling policies — first
//! serially, then **pipelined** (frame N+1's input streams through the
//! SmartConnect into the other double-buffer slot while frame N
//! computes, contending at the DRAM arbiter) — and shows the host-side
//! scale-out across worker SoC replicas. Every frame is warm: an
//! in-place (scoped) fabric reset plus an input reload — never a
//! recompile, never a weight restream, even when consecutive frames hit
//! different models. Serially, modeled cycles are policy-independent;
//! pipelined, the policies genuinely trade latency against makespan
//! (see docs/SCHEDULING.md).
//!
//! ```sh
//! cargo run --release --example edge_server
//! ```

use std::sync::Arc;

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;
use rvnv_obs::Tracer;
use rvnv_soc::batch::{
    layout_models, run_parallel, BatchScheduler, Frame, PipelinedScheduler, Policy,
};
use rvnv_soc::soc::SocConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The server flow is timing throughput: timing-only SoC, wfi
    // firmware (the poll loop retires ~100x more instructions for the
    // same modeled latency).
    let config = SocConfig::zcu102_timing_only();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;

    let nets = [Model::LeNet5.build(1), Model::ResNet18.build(1)];
    let cache = ArtifactCache::new();
    let artifacts: Vec<Arc<Artifacts>> = layout_models(&cache, &nets, &opt)?;
    for a in &artifacts {
        println!(
            "{:10} footprint [{:#010x}, {:#010x}) — {} KB weights",
            a.model,
            a.dram_base,
            a.dram_used,
            a.weights.total_bytes() / 1024,
        );
    }

    // A mixed stream: two LeNet frames per ResNet frame, as a camera
    // pipeline with a cheap gating model in front would produce.
    let frames: Vec<Frame> = (0..12)
        .map(|i| {
            let m = usize::from(i % 3 == 2);
            let input = Tensor::random(nets[m].input_shape(), 4000 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();

    let policies = [
        Policy::RoundRobin,
        Policy::ShortestQueueFirst,
        Policy::EarliestFinish,
    ];
    for policy in policies {
        let mut sched = BatchScheduler::new(config.clone(), policy);
        for a in &artifacts {
            sched.add_model(a.clone(), codegen)?;
        }
        for f in &frames {
            sched.enqueue_bytes(f.model, f.bytes.clone())?;
        }
        let mut order = String::new();
        let report = sched.run_with(|m, _| order.push(if m == 0 { 'L' } else { 'R' }))?;
        println!(
            "\npolicy {:3} (serial): service order {order}, {} cycle makespan, {:.1} frames/s e2e",
            policy.name(),
            report.makespan_cycles,
            report.e2e_fps(config.soc_hz),
        );
        for (name, stats) in &report.per_model {
            println!(
                "  {:10} {} frames, {:>9} cycles/frame ({:.2} ms service), arbiter wait {}",
                name,
                stats.frames,
                stats.cycles_per_frame(),
                config.cycles_to_ms(stats.latency_per_frame()),
                stats.arbiter_wait,
            );
        }
    }

    // The same stream with the preload pipelined behind the previous
    // frame's compute: outputs stay bit-identical; the makespan and
    // warm-frame latency drop, and — unlike the serial drain — the
    // totals now *depend on the policy*, because each frame's DRAM
    // contention depends on which frame preloads behind it.
    for policy in policies {
        let mut sched = PipelinedScheduler::new(config.clone(), policy);
        for a in &artifacts {
            sched.add_model(a.clone(), codegen)?;
        }
        for f in &frames {
            sched.enqueue_bytes(f.model, f.bytes.clone())?;
        }
        let mut order = String::new();
        let report = sched.run_with(|m, _| order.push(if m == 0 { 'L' } else { 'R' }))?;
        println!(
            "policy {:3} (pipelined): order {order}, {} cycle makespan, warm frame {:.3} ms",
            policy.name(),
            report.makespan_cycles,
            config.cycles_to_ms(report.warm_frame_latency()),
        );
    }

    // Host-side scale-out: the same stream sharded across worker SoC
    // replicas (each with both models resident). Modeled cycles are
    // identical by construction; host wall-clock drops with cores.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for workers in [1, threads] {
        let start = std::time::Instant::now();
        let report = run_parallel(
            &config,
            Policy::RoundRobin,
            &artifacts,
            codegen,
            &frames,
            workers,
            false,
            &Tracer::disarmed(),
        )?;
        let host = start.elapsed().as_secs_f64();
        println!(
            "\n{workers} worker SoC(s): {} frames in host {:.1} ms ({:.1} frames/s simulated)",
            report.total_frames(),
            host * 1e3,
            report.total_frames() as f64 / host.max(1e-9),
        );
    }
    Ok(())
}
