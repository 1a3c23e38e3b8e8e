//! `plan_grid` and `serve_replay`: the serving stack above the SoC.
//! The first is the queueing kernels alone (SoC simulation only in
//! set-up); the second is plan plus cycle-exact replay on real SoCs.

use std::hint::black_box;
use std::sync::Arc;

use rv_nvdla::rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rv_nvdla::rvnv_compiler::{ArtifactCache, Artifacts, CompileOptions};
use rv_nvdla::rvnv_nn::graph::Network;
use rv_nvdla::rvnv_nn::zoo::Model;
use rv_nvdla::rvnv_obs::{to_chrome_json, Tracer};
use rv_nvdla::rvnv_soc::batch::{layout_models, BatchScheduler, PipelinedScheduler, Policy};
use rv_nvdla::rvnv_soc::fleet::{
    Fleet, FleetReport, FleetSpec, PoolSpec, RoutePolicy, SocClass, TrafficShape,
};
use rv_nvdla::rvnv_soc::serve::{
    simulate, simulate_traced, ArrivalProcess, FaultSpec, ServeReport, ServeSpec, Server,
};
use rv_nvdla::rvnv_soc::soc::SocConfig;
use rvnv_util::{mix64, SplitMix64};

use crate::metrics::Results;
use crate::models::Checks;
use crate::spans::{time_median_ms, Spans};
use crate::Workload;

fn wfi() -> CodegenOptions {
    CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    }
}

/// The serving stack of both workloads: LeNet-5 and ResNet-18 resident
/// side by side, one calibrated server, one calibrated two-pool
/// (nv_small + nv_full) fleet.
struct Stack {
    artifacts: Vec<Arc<Artifacts>>,
    server: Server,
    fleet: Fleet,
    pools: Vec<PoolSpec>,
    seed: u64,
}

fn pool(class: SocClass, workers: usize, max_workers: usize) -> PoolSpec {
    PoolSpec {
        class,
        workers,
        min_workers: 1,
        max_workers,
        queue_depth: 16,
        models: None,
    }
}

impl Stack {
    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let nets: Vec<Network> = spans.time("nn.build", |_| {
            vec![Model::LeNet5.build(1), Model::ResNet18.build(1)]
        });
        let artifacts = spans.time("compiler.compile", |_| {
            layout_models(&ArtifactCache::new(), &nets, &opt).expect("zoo models lay out")
        });
        let server = spans.time("serve.calibrate", |_| {
            Server::new(SocConfig::zcu102_timing_only(), artifacts.clone(), wfi())
                .expect("service profile calibrates")
        });
        let pools = vec![pool(SocClass::NvSmall, 2, 4), pool(SocClass::NvFull, 1, 2)];
        let shape = FleetSpec {
            pools: pools.clone(),
            ..FleetSpec::default()
        };
        let fleet = spans.time("fleet.calibrate", |_| {
            Fleet::new(&nets, &opt, wfi(), &shape).expect("fleet calibrates")
        });
        Stack {
            artifacts,
            server,
            fleet,
            pools,
            seed,
        }
    }

    fn serve_spec(&self, rate_rps: u64, duration_ms: u64, point: u64) -> ServeSpec {
        ServeSpec {
            process: ArrivalProcess::Poisson,
            rate_rps,
            duration_ms,
            seed: mix64(self.seed ^ point),
            workers: 2,
            policy: Policy::RoundRobin,
            pipelined: false,
            queue_depth: 8,
            slo_us: 20_000,
            timeout_us: 0,
            retries: 0,
            faults: None,
        }
    }

    /// The 15 % composite fault mix of `serve_latency`'s chaos row,
    /// with the watchdog and retry budget it needs.
    fn with_chaos(&self, spec: ServeSpec) -> ServeSpec {
        ServeSpec {
            timeout_us: 10_000,
            retries: 2,
            faults: Some(FaultSpec {
                seed: mix64(self.seed ^ 0xC4A05),
                flip_per_million: 30_000,
                error_per_million: 60_000,
                spike_per_million: 30_000,
                spike_us: 2_000,
                hang_per_million: 15_000,
                crash_per_million: 15_000,
            }),
            ..spec
        }
    }

    fn fleet_spec(
        &self,
        shape: TrafficShape,
        route: RoutePolicy,
        rate_rps: u64,
        duration_ms: u64,
        point: u64,
    ) -> FleetSpec {
        FleetSpec {
            pools: self.pools.clone(),
            route,
            shape,
            rate_rps,
            duration_ms,
            seed: mix64(self.seed ^ point),
            spot_windows: 1,
            window_frames: 24,
            ..FleetSpec::default()
        }
    }
}

/// What a plan must reproduce on every op: the modeled outcome.
fn serve_digest(r: &ServeReport) -> [u64; 4] {
    [r.served, r.dropped, r.makespan_cycles, r.total.p99]
}

fn fleet_digest(r: &FleetReport) -> [u64; 4] {
    [r.served, r.dropped + r.shed, r.makespan_cycles, r.total.p99]
}

/// `plan_grid`: one capacity grid of plan-only points.
pub struct PlanGrid {
    stack: Stack,
    serve_points: Vec<ServeSpec>,
    fleet_points: Vec<FleetSpec>,
    /// Digests of the set-up pass, serve points then fleet points.
    baseline: Vec<[u64; 4]>,
}

impl PlanGrid {
    pub fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        let stack = Stack::setup(seed, spans);
        let mut serve_points = Vec::new();
        let mut point = 0u64;
        for rate in (1..=10).map(|i| 60 * i) {
            for policy in [
                Policy::RoundRobin,
                Policy::ShortestQueueFirst,
                Policy::EarliestFinish,
            ] {
                point += 1;
                let quiet = ServeSpec {
                    policy,
                    ..stack.serve_spec(rate, 1_000, point)
                };
                serve_points.push(quiet);
                serve_points.push(ServeSpec {
                    pipelined: true,
                    ..quiet
                });
                serve_points.push(stack.with_chaos(quiet));
            }
        }
        let mut fleet_points = Vec::new();
        for shape in [
            TrafficShape::Steady,
            TrafficShape::Diurnal,
            TrafficShape::Bursty,
            TrafficShape::FlashCrowd,
        ] {
            for route in [
                RoutePolicy::Weighted,
                RoutePolicy::LeastLoaded,
                RoutePolicy::ModelAffinity,
            ] {
                for rate in (1..=6).map(|i| 150 * i) {
                    point += 1;
                    fleet_points.push(stack.fleet_spec(shape, route, rate, 1_000, point));
                }
            }
        }
        // Grid order is part of the seeded input.
        let mut rng = SplitMix64::new(seed);
        for i in (1..serve_points.len()).rev() {
            serve_points.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for i in (1..fleet_points.len()).rev() {
            fleet_points.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut grid = PlanGrid {
            stack,
            serve_points,
            fleet_points,
            baseline: Vec::new(),
        };
        grid.baseline = grid.pass(&mut Spans::new(false));
        // A plan-only report never claims a replay.
        let r = grid.stack.server.plan(&grid.serve_points[0]).expect("plan");
        checks.check(
            r.replay_divergence == 0 && r.offered == r.served + r.dropped,
            || "serve plan: offered != served + dropped".into(),
        );
        grid
    }

    fn pass(&self, spans: &mut Spans) -> Vec<[u64; 4]> {
        let mut digests = Vec::with_capacity(self.serve_points.len() + self.fleet_points.len());
        spans.time("serve.plan", |_| {
            for spec in &self.serve_points {
                digests.push(serve_digest(&self.stack.server.plan(spec).expect("plan")));
            }
        });
        spans.time("fleet.plan", |_| {
            for spec in &self.fleet_points {
                digests.push(fleet_digest(&self.stack.fleet.plan(spec).expect("plan")));
            }
        });
        digests
    }
}

impl Workload for PlanGrid {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        let digests = self.pass(spans);
        checks.check(digests == self.baseline, || {
            "plan grid: a point's modeled outcome changed between passes".into()
        });
    }

    fn layers(&mut self, spans: &mut Spans, _checks: &mut Checks, out: &mut Results) {
        let server = &self.stack.server;
        let fleet = &self.stack.fleet;
        let hz = server.config().soc_hz;
        let us = |cycles: u64| cycles as f64 * 1e6 / hz as f64;

        // Per-point plan cost off the op spans, and events (offered
        // requests) planned per host second.
        let offered_serve: u64 = self
            .serve_points
            .iter()
            .map(|s| server.trace(s).requests.len() as u64)
            .sum();
        let offered_fleet: u64 = self
            .fleet_points
            .iter()
            .map(|s| fleet.trace(s).requests.len() as u64)
            .sum();
        if let Some((ms, n)) = spans.median_round_ms("serve.plan") {
            out.set_n(
                "serve.plan_us",
                ms * 1e3 / self.serve_points.len() as f64,
                n,
            );
            out.set_n(
                "serve.plan_mevents_per_s",
                offered_serve as f64 / 1e3 / ms,
                n,
            );
        }
        if let Some((ms, n)) = spans.median_round_ms("fleet.plan") {
            out.set_n(
                "fleet.plan_us",
                ms * 1e3 / self.fleet_points.len() as f64,
                n,
            );
            out.set_n(
                "fleet.plan_mevents_per_s",
                offered_fleet as f64 / 1e3 / ms,
                n,
            );
        }

        // One quiet serial point below the knee and one above it; the
        // same point under chaos; trace generation alone.
        let below = self.stack.serve_spec(120, 1_000, 1);
        let above = self.stack.serve_spec(480, 1_000, 2);
        let chaos = self.stack.with_chaos(below);
        let r_below = server.plan(&below).expect("plan");
        let r_above = server.plan(&above).expect("plan");
        let r_chaos = server.plan(&chaos).expect("plan");
        out.set("serve.modeled_p99_us.below_knee", us(r_below.total.p99));
        out.set("serve.modeled_p99_us.above_knee", us(r_above.total.p99));
        out.set("serve.drops", r_above.dropped as f64);
        out.set("serve.retries", r_chaos.faults.retries as f64);
        let (quiet_ms, _) = time_median_ms(60.0, 5, || {
            black_box(server.plan(&below).expect("plan"));
        });
        let (chaos_ms, n) = time_median_ms(60.0, 5, || {
            black_box(server.plan(&chaos).expect("plan"));
        });
        out.set_n("serve.chaos_plan_ratio", chaos_ms / quiet_ms, n);
        let (gen_ms, n) = time_median_ms(60.0, 5, || {
            black_box(server.trace(&below));
        });
        out.set_n("serve.trace_generate_us", gen_ms * 1e3, n);

        let autoscaled = self.stack.fleet_spec(
            TrafficShape::FlashCrowd,
            RoutePolicy::LeastLoaded,
            600,
            1_000,
            3,
        );
        let r_fleet = fleet.plan(&autoscaled).expect("plan");
        out.set("fleet.modeled_p99_us", us(r_fleet.total.p99));
        out.set(
            "fleet.scale_events",
            r_fleet
                .per_pool
                .iter()
                .map(|p| p.scale_ups + p.scale_downs)
                .sum::<u64>() as f64,
        );
        out.set("fleet.shed", r_fleet.shed as f64);

        // `rvnv_obs`: the queueing simulation with no tracer argument,
        // with a disarmed tracer, with an armed one; then the exports.
        let trace = server.trace(&below);
        let names: Vec<String> = self
            .stack
            .artifacts
            .iter()
            .map(|a| a.model.clone())
            .collect();
        let service = server.service_model();
        let (plain_ms, _) = time_median_ms(60.0, 5, || {
            black_box(simulate(&trace, service, &below, &names, hz));
        });
        let (disarmed_ms, n) = time_median_ms(60.0, 5, || {
            black_box(simulate_traced(
                &trace,
                service,
                &below,
                &names,
                hz,
                &Tracer::disarmed(),
            ));
        });
        out.set_n("obs.disarmed_plan_ratio", disarmed_ms / plain_ms, n);
        let (armed_ms, n) = time_median_ms(60.0, 5, || {
            black_box(simulate_traced(
                &trace,
                service,
                &below,
                &names,
                hz,
                &Tracer::armed(),
            ));
        });
        out.set_n("obs.armed_plan_ratio", armed_ms / plain_ms, n);
        let tracer = Tracer::armed();
        let report = simulate_traced(&trace, service, &below, &names, hz, &tracer);
        let snapshot = tracer.snapshot();
        out.set("obs.spans", snapshot.spans.len() as f64);
        let (export_ms, n) = time_median_ms(60.0, 3, || {
            black_box(to_chrome_json(&snapshot, hz));
        });
        out.set_n("obs.chrome_export_ms", export_ms, n);
        let (json_ms, n) = time_median_ms(60.0, 5, || {
            black_box(report.to_json().to_string());
        });
        out.set_n("obs.report_json_us", json_ms * 1e3, n);
    }
}

/// `serve_replay`: plans replayed cycle-exactly on real SoCs.
pub struct ServeReplay {
    stack: Stack,
    pipelined: ServeSpec,
    chaos: ServeSpec,
    fleet: FleetSpec,
    baseline: [[u64; 4]; 3],
}

impl ServeReplay {
    pub fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        let stack = Stack::setup(seed, spans);
        // Evenly spaced arrivals: the seed picks the model mix and the
        // input bytes, not how many frames an op replays.
        let fixed = |point| ServeSpec {
            process: ArrivalProcess::Fixed,
            ..stack.serve_spec(300, 500, point)
        };
        let pipelined = ServeSpec {
            pipelined: true,
            ..fixed(1)
        };
        let chaos = stack.with_chaos(fixed(2));
        let fleet = stack.fleet_spec(TrafficShape::Steady, RoutePolicy::LeastLoaded, 400, 500, 3);
        let mut w = ServeReplay {
            stack,
            pipelined,
            chaos,
            fleet,
            baseline: [[0; 4]; 3],
        };
        w.baseline = w.pass(&mut Spans::new(false), checks).0;
        w
    }

    /// Serve, serve under chaos, run the fleet; any replay divergence
    /// fails the op. Returns the digests and the frames replayed.
    fn pass(&self, spans: &mut Spans, checks: &mut Checks) -> ([[u64; 4]; 3], [u64; 2]) {
        let a = spans
            .time("serve.serve", |_| self.stack.server.serve(&self.pipelined))
            .expect("pipelined serve replays");
        let b = spans
            .time("serve.serve", |_| self.stack.server.serve(&self.chaos))
            .expect("chaos serve replays");
        let f = spans
            .time("fleet.run", |_| self.stack.fleet.run(&self.fleet))
            .expect("fleet spot-replays");
        let divergence = a.replay_divergence + b.replay_divergence + f.replay_divergence;
        checks.check(divergence == 0 && f.replayed_frames > 0, || {
            format!(
                "replay divergence {divergence} over {} fleet frames",
                f.replayed_frames
            )
        });
        (
            [serve_digest(&a), serve_digest(&b), fleet_digest(&f)],
            [a.served + b.served, f.replayed_frames],
        )
    }
}

impl Workload for ServeReplay {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        let (digests, _) = self.pass(spans, checks);
        checks.check(digests == self.baseline, || {
            "serve replay: a report's modeled outcome changed between passes".into()
        });
    }

    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results) {
        spans.next_op();
        let (_, [served, _]) = self.pass(spans, checks);
        if let Some((ms, n)) = spans.median_round_ms("serve.serve") {
            out.set_n("serve.replay_frames_per_s", served as f64 / (ms / 1e3), n);
        }
        out.set("serve.replay_divergence", 0.0);
        out.set("fleet.replay_divergence", 0.0);
        let chaos = self.stack.server.plan(&self.chaos).expect("plan");
        out.set("serve.retries", chaos.faults.retries as f64);
        out.set("serve.drops", chaos.dropped as f64);

        // `rvnv_soc::batch` alone: 32 alternating frames through the
        // serial and the pipelined scheduler on one SoC each.
        let config = SocConfig::zcu102_timing_only();
        let frames: Vec<usize> = (0..32).map(|i| i % self.stack.artifacts.len()).collect();
        let input = |m: usize| vec![0x5Au8; self.stack.artifacts[m].input_len];
        spans.next_op();
        let mut serial = BatchScheduler::new(config.clone(), Policy::RoundRobin);
        let mut piped = PipelinedScheduler::new(config, Policy::RoundRobin);
        for a in &self.stack.artifacts {
            spans.time("batch.add_model", |_| {
                serial.add_model(a.clone(), wfi()).expect("model pins");
            });
            piped.add_model(a.clone(), wfi()).expect("model pins");
        }
        let mut makespan = [0u64; 2];
        let mut wait = [0u64; 2];
        let (serial_ms, n) = time_median_ms(150.0, 3, || {
            for &m in &frames {
                serial.enqueue_bytes(m, input(m)).expect("known model");
            }
            let r = serial.run_sequence(&frames).expect("serial drain");
            makespan[0] = r.makespan_cycles;
            wait[0] = r.total_arbiter_wait();
        });
        out.set_n(
            "batch.serial_frames_per_s",
            frames.len() as f64 / (serial_ms / 1e3),
            n,
        );
        let (piped_ms, n) = time_median_ms(150.0, 3, || {
            for &m in &frames {
                piped.enqueue_bytes(m, input(m)).expect("known model");
            }
            let r = piped.run_sequence(&frames).expect("pipelined drain");
            makespan[1] = r.makespan_cycles;
            wait[1] = r.total_arbiter_wait();
        });
        out.set_n(
            "batch.pipelined_frames_per_s",
            frames.len() as f64 / (piped_ms / 1e3),
            n,
        );
        out.set("batch.makespan_cycles.serial", makespan[0] as f64);
        out.set("batch.makespan_cycles.pipelined", makespan[1] as f64);
        out.set("batch.arbiter_wait_cycles", (wait[0] + wait[1]) as f64);
    }
}
