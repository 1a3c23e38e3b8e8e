//! The ledger's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, each with unit, direction, clock domain and owning layer.
//! `BENCHMARK.json` at the repository root is this table rendered
//! (`--list` prints it; the package's test compares the two).

use std::collections::BTreeMap;

use rv_nvdla::rvnv_obs::Json;

use crate::spans::obj;

/// What the driver passes as `--seconds` unless told otherwise.
pub const RUN_SECONDS: u64 = 8;

/// A benchmark workload.
pub struct WorkloadInfo {
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Why the workload exists (one line, `BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// Set-ups made per run, spread over the timed phase. Fixed per
    /// workload, not derived from a measured time: a count that flips
    /// near a threshold would move `peak_rss_mb` (an extra instance is
    /// alive while it is built) and the run's length with it.
    pub setups: u64,
}

pub const WORKLOADS: [WorkloadInfo; 8] = [
    WorkloadInfo {
        name: "small_functional",
        op: "warm functional Soc::run_firmware (poll firmware), LeNet-5 then ResNet-18, INT8 nv_small",
        why: "Accuracy flow, Table II rows 1-2: conv kernels dominate with ISS and fabric beside them; working set fits host cache.",
        setups: 5,
    },
    WorkloadInfo {
        name: "small_timing_warm",
        op: "same pair, timing-only SoC, poll firmware, warm",
        why: "Conv bypassed: ISS block cache, MMIO read lease, bus and NVDLA timing model do all the work; no-change control for conv speed-ups.",
        setups: 5,
    },
    WorkloadInfo {
        name: "sweep_cold",
        op: "one 8-clock sweep each of LeNet-5 and ResNet-18: per point fresh Soc::new + weight stream + timing-only wfi run",
        why: "Cold path: SoC construction, DRAM preload, reset, cold block cache; warm-path caches must not be bought with cold-path cost.",
        setups: 5,
    },
    WorkloadInfo {
        name: "resnet50_int8",
        op: "warm functional Soc::run_firmware, ResNet-50 INT8 (4.09 GMAC)",
        why: "Table II row 3: working set far beyond host cache, conv-bound ops; its set-up is the calibration pass where nn/compiler gains land.",
        setups: 1,
    },
    WorkloadInfo {
        name: "table3_fp16",
        op: "VirtualPlatform::run + Soc::run_firmware, timing-only, over LeNet-5, ResNet-18, ResNet-50, MobileNet, GoogLeNet in FP16 on nv_full",
        why: "Only user of nv_full, FP16 lowering, the VP and large DBB traffic; carries Table III's paper error.",
        setups: 1,
    },
    WorkloadInfo {
        name: "cli_cold",
        op: "one pass of a 15-entry script of rv-nvdla processes (compile, run, sweep, batch, serve, fleet, traces, models, resources, fuzz)",
        why: "What a user at a shell waits for: process start, zoo build, compile, SoC construction, which no warm workload sees.",
        setups: 3,
    },
    WorkloadInfo {
        name: "plan_grid",
        op: "one capacity grid: 90 Server::plan points (rates x policies x serial/pipelined/chaos) + 72 Fleet::plan points on a 2-pool fleet",
        why: "Pure queueing kernels of serve.rs and fleet.rs, SoC simulation only in set-up; guard for the one-queueing-kernel refactor.",
        setups: 5,
    },
    WorkloadInfo {
        name: "serve_replay",
        op: "Server::serve pipelined + Server::serve chaos with retries (500 ms at 300 req/s, evenly spaced) + Fleet::run with spot replay (500 ms at 400 req/s)",
        why: "Plan plus cycle-exact replay on real SoCs through the batch schedulers; a SoC speed-up shows here and not in plan_grid.",
        setups: 5,
    },
];

/// A metric a user of the system would see; gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "host: workload start until the first timed op can begin (build, compile incl. calibration, firmware, SoC, service calibration, fingerprint checks); fastest of the set-ups made, which are spread over the timed phase",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        what: "host: median time per operation in the quietest half-second window of the timed phase, tracing off, warm-up ops discarded",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
        what: "host: ops completed per second in the fastest half-second window (a mean over the window, so stalls the median hides still show)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        what: "VmHWM of the harness at workload end; for cli_cold the largest ru_maxrss among the children",
    },
];

/// Which clock a per-layer metric is read on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time: noisy.
    Host,
    /// Modeled cycles or a count: must repeat exactly.
    Modeled,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Host => "H",
            Clock::Modeled => "M",
        }
    }
}

/// A layer of the repo and what a change to it should move.
pub struct Layer {
    pub name: &'static str,
    pub moves: &'static str,
}

pub const LAYERS: [Layer; 14] = [
    Layer { name: "rvnv_nn", moves: "setup_s on resnet50_int8 (nearly all of it); op_ms_p50 on cli_cold (models, every run); nothing on warm workloads" },
    Layer { name: "rvnv_compiler", moves: "setup_s everywhere; op_ms_p50 on cli_cold and (VP) table3_fp16" },
    Layer { name: "rvnv_riscv", moves: "op_ms_p50 on small_timing_warm (most) and serve_replay; a minor share of small_functional; none on plan_grid" },
    Layer { name: "rvnv_bus", moves: "op_ms_p50 on sweep_cold (new/reset/preload) and table3_fp16 (DBB); peak_rss_mb on table3_fp16 and cli_cold" },
    Layer { name: "rvnv_nvdla", moves: "conv: op_ms_p50 on resnet50_int8 and small_functional, none on the timing-only workloads; the modeled split feeds paper.error_pct" },
    Layer { name: "rvnv_soc::soc", moves: "sweep_cold (new/load/cold), small_* and resnet50_int8 (warm); soc.modeled_cycles.* is paper.error_pct's numerator" },
    Layer { name: "rvnv_soc::firmware", moves: "setup_s everywhere a SoC runs" },
    Layer { name: "rvnv_soc::batch", moves: "op_ms_p50 on serve_replay; cli_cold (batch)" },
    Layer { name: "rvnv_soc::sweep", moves: "op_ms_p50 on sweep_cold; cli_cold (sweep)" },
    Layer { name: "rvnv_soc::serve", moves: "plan: plan_grid only; replay: serve_replay; calibrate: setup_s on both" },
    Layer { name: "rvnv_soc::fleet", moves: "as serve; fleet.calibrate_ms is nearly all of plan_grid's setup_s" },
    Layer { name: "rvnv_obs", moves: "disarmed ratio must stay near 1 or plan_grid's op_ms_p50 moves; armed cost only where a trace file is asked for" },
    Layer { name: "cli", moves: "op_ms_p50 and peak_rss_mb on cli_cold" },
    Layer { name: "harness", moves: "nothing: the measurement's own sample counts, tail and tracing overhead" },
];

/// A metric of one layer. No bound: it says which layer moved.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub clock: Clock,
    pub layer: &'static str,
}

const fn h(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Host,
        layer,
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Modeled,
        layer,
    }
}

pub const PER_LAYER: [PerLayer; 117] = [
    h("nn.build_ms", "ms", "lower", "rvnv_nn"),
    h("nn.golden_exec_ms", "ms", "lower", "rvnv_nn"),
    h("nn.golden_mmac_per_s", "MMAC/s", "higher", "rvnv_nn"),
    h("nn.calibrate_ms", "ms", "lower", "rvnv_nn"),
    m("nn.top1_agree", "count", "higher", "rvnv_nn"),
    h("compiler.compile_ms", "ms", "lower", "rvnv_compiler"),
    h("compiler.lower_ms", "ms", "lower", "rvnv_compiler"),
    h("compiler.vp_run_ms", "ms", "lower", "rvnv_compiler"),
    h("compiler.scrape_ms", "ms", "lower", "rvnv_compiler"),
    h("compiler.codegen_ms", "ms", "lower", "rvnv_compiler"),
    m("compiler.ops", "count", "lower", "rvnv_compiler"),
    m("compiler.commands", "count", "lower", "rvnv_compiler"),
    m("compiler.weight_bytes", "bytes", "lower", "rvnv_compiler"),
    m("compiler.vp_cycles", "cycles", "lower", "rvnv_compiler"),
    h("riscv.assemble_ms", "ms", "lower", "rvnv_riscv"),
    h(
        "riscv.iss_minstr_per_s.cache_on",
        "Minstr/s",
        "higher",
        "rvnv_riscv",
    ),
    h(
        "riscv.iss_minstr_per_s.cache_off",
        "Minstr/s",
        "higher",
        "rvnv_riscv",
    ),
    m("riscv.instructions", "count", "lower", "rvnv_riscv"),
    m("riscv.cpi_milli", "mCPI", "lower", "rvnv_riscv"),
    m("riscv.block_cache_hits", "count", "higher", "rvnv_riscv"),
    m("riscv.block_cache_misses", "count", "lower", "rvnv_riscv"),
    m("riscv.elided_polls", "count", "higher", "rvnv_riscv"),
    h("bus.csb_write_path_ns", "ns", "lower", "rvnv_bus"),
    h("bus.dram_read_path_ns", "ns", "lower", "rvnv_bus"),
    h("bus.dbb_burst_mb_per_s", "MB/s", "higher", "rvnv_bus"),
    h("bus.dram_new_ms", "ms", "lower", "rvnv_bus"),
    h("bus.dram_reset_ms", "ms", "lower", "rvnv_bus"),
    m("bus.cpu_arbiter_wait_cycles", "cycles", "lower", "rvnv_bus"),
    m("bus.dma_bytes", "bytes", "lower", "rvnv_bus"),
    h(
        "nvdla.conv_mmac_per_s.int8",
        "MMAC/s",
        "higher",
        "rvnv_nvdla",
    ),
    h(
        "nvdla.conv_mmac_per_s.fp16",
        "MMAC/s",
        "higher",
        "rvnv_nvdla",
    ),
    h(
        "nvdla.conv_blocked_vs_reference",
        "ratio",
        "higher",
        "rvnv_nvdla",
    ),
    h(
        "nvdla.timing_model_kops_per_s",
        "kops/s",
        "higher",
        "rvnv_nvdla",
    ),
    m("nvdla.ops", "count", "lower", "rvnv_nvdla"),
    m("nvdla.macs", "count", "lower", "rvnv_nvdla"),
    m("nvdla.csb_reads", "count", "lower", "rvnv_nvdla"),
    m("nvdla.csb_writes", "count", "lower", "rvnv_nvdla"),
    m("nvdla.busy_cycles.conv", "cycles", "lower", "rvnv_nvdla"),
    m("nvdla.busy_cycles.sdp", "cycles", "lower", "rvnv_nvdla"),
    m("nvdla.busy_cycles.pdp", "cycles", "lower", "rvnv_nvdla"),
    m("nvdla.busy_cycles.cdp", "cycles", "lower", "rvnv_nvdla"),
    m("nvdla.idle_cycles", "cycles", "lower", "rvnv_nvdla"),
    h("soc.new_ms", "ms", "lower", "rvnv_soc::soc"),
    h("soc.load_artifacts_ms", "ms", "lower", "rvnv_soc::soc"),
    h("soc.run_cold_ms", "ms", "lower", "rvnv_soc::soc"),
    h("soc.run_warm_functional_ms", "ms", "lower", "rvnv_soc::soc"),
    h("soc.run_warm_timing_ms", "ms", "lower", "rvnv_soc::soc"),
    h("soc.engine_compute_ms", "ms", "lower", "rvnv_soc::soc"),
    h(
        "soc.sim_mcycles_per_s",
        "Mcycles/s",
        "higher",
        "rvnv_soc::soc",
    ),
    h(
        "soc.sim_minstr_per_s",
        "Minstr/s",
        "higher",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.lenet5-int8",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.resnet18-int8",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.resnet50-int8",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.lenet5-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.resnet18-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.resnet50-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.mobilenet-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.googlenet-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m(
        "soc.modeled_cycles.alexnet-fp16",
        "cycles",
        "lower",
        "rvnv_soc::soc",
    ),
    m("paper.error_pct", "%", "lower", "rvnv_soc::soc"),
    h("firmware.build_ms", "ms", "lower", "rvnv_soc::firmware"),
    m("firmware.bytes", "bytes", "lower", "rvnv_soc::firmware"),
    h("batch.add_model_ms", "ms", "lower", "rvnv_soc::batch"),
    h(
        "batch.serial_frames_per_s",
        "1/s",
        "higher",
        "rvnv_soc::batch",
    ),
    h(
        "batch.pipelined_frames_per_s",
        "1/s",
        "higher",
        "rvnv_soc::batch",
    ),
    m(
        "batch.makespan_cycles.serial",
        "cycles",
        "lower",
        "rvnv_soc::batch",
    ),
    m(
        "batch.makespan_cycles.pipelined",
        "cycles",
        "lower",
        "rvnv_soc::batch",
    ),
    m(
        "batch.arbiter_wait_cycles",
        "cycles",
        "lower",
        "rvnv_soc::batch",
    ),
    h("sweep.points_per_s.t1", "1/s", "higher", "rvnv_soc::sweep"),
    h("sweep.points_per_s.t2", "1/s", "higher", "rvnv_soc::sweep"),
    h(
        "sweep.parallel_efficiency",
        "ratio",
        "higher",
        "rvnv_soc::sweep",
    ),
    h("serve.calibrate_ms", "ms", "lower", "rvnv_soc::serve"),
    h("serve.trace_generate_us", "us", "lower", "rvnv_soc::serve"),
    h("serve.plan_us", "us", "lower", "rvnv_soc::serve"),
    h(
        "serve.plan_mevents_per_s",
        "Mevents/s",
        "higher",
        "rvnv_soc::serve",
    ),
    h(
        "serve.chaos_plan_ratio",
        "ratio",
        "lower",
        "rvnv_soc::serve",
    ),
    h(
        "serve.replay_frames_per_s",
        "1/s",
        "higher",
        "rvnv_soc::serve",
    ),
    m(
        "serve.replay_divergence",
        "count",
        "lower",
        "rvnv_soc::serve",
    ),
    m(
        "serve.modeled_p99_us.below_knee",
        "us",
        "lower",
        "rvnv_soc::serve",
    ),
    m(
        "serve.modeled_p99_us.above_knee",
        "us",
        "lower",
        "rvnv_soc::serve",
    ),
    m("serve.drops", "count", "lower", "rvnv_soc::serve"),
    m("serve.retries", "count", "lower", "rvnv_soc::serve"),
    h("fleet.calibrate_ms", "ms", "lower", "rvnv_soc::fleet"),
    h("fleet.plan_us", "us", "lower", "rvnv_soc::fleet"),
    h(
        "fleet.plan_mevents_per_s",
        "Mevents/s",
        "higher",
        "rvnv_soc::fleet",
    ),
    h("fleet.spot_replay_ms", "ms", "lower", "rvnv_soc::fleet"),
    m(
        "fleet.replay_divergence",
        "count",
        "lower",
        "rvnv_soc::fleet",
    ),
    m("fleet.modeled_p99_us", "us", "lower", "rvnv_soc::fleet"),
    m("fleet.scale_events", "count", "lower", "rvnv_soc::fleet"),
    m("fleet.shed", "count", "lower", "rvnv_soc::fleet"),
    h("obs.disarmed_plan_ratio", "ratio", "lower", "rvnv_obs"),
    h("obs.armed_plan_ratio", "ratio", "lower", "rvnv_obs"),
    h("obs.chrome_export_ms", "ms", "lower", "rvnv_obs"),
    h("obs.report_json_us", "us", "lower", "rvnv_obs"),
    m("obs.spans", "count", "lower", "rvnv_obs"),
    h("cli.compile_lenet5_ms", "ms", "lower", "cli"),
    h("cli.run_lenet5_ms", "ms", "lower", "cli"),
    h("cli.run_resnet18_ms", "ms", "lower", "cli"),
    h("cli.run_lenet5_fp16_ms", "ms", "lower", "cli"),
    h("cli.run_repeat20_ms", "ms", "lower", "cli"),
    h("cli.sweep_ms", "ms", "lower", "cli"),
    h("cli.batch_serial_ms", "ms", "lower", "cli"),
    h("cli.batch_pipeline_ms", "ms", "lower", "cli"),
    h("cli.serve_120_ms", "ms", "lower", "cli"),
    h("cli.serve_400_ms", "ms", "lower", "cli"),
    h("cli.fleet_ms", "ms", "lower", "cli"),
    h("cli.traces_ms", "ms", "lower", "cli"),
    h("cli.models_ms", "ms", "lower", "cli"),
    h("cli.resources_ms", "ms", "lower", "cli"),
    h("cli.fuzz_riscv_ms", "ms", "lower", "cli"),
    h("cli.max_rss_mb.alexnet_fp16", "MB", "lower", "cli"),
    m("harness.samples", "count", "higher", "harness"),
    h("harness.op_ms_p50_all", "ms", "lower", "harness"),
    h("harness.op_ms_tail", "ms", "lower", "harness"),
    h("harness.window_spread_pct", "%", "lower", "harness"),
    h("harness.trace_overhead_pct", "%", "lower", "harness"),
    h("harness.op_self_ms", "ms", "lower", "harness"),
];

/// Per-layer metrics read straight off the host spans: the median
/// duration of the spans called `.1`, in ms.
pub const SPAN_METRICS: [(&str, &str); 18] = [
    ("nn.build_ms", "nn.build"),
    ("nn.calibrate_ms", "nn.calibrate"),
    ("nn.golden_exec_ms", "nn.golden_exec"),
    ("compiler.compile_ms", "compiler.compile"),
    ("compiler.vp_run_ms", "compiler.vp_run"),
    ("compiler.scrape_ms", "compiler.scrape"),
    ("compiler.codegen_ms", "compiler.codegen"),
    ("riscv.assemble_ms", "riscv.assemble"),
    ("firmware.build_ms", "firmware.build"),
    ("soc.new_ms", "soc.new"),
    ("soc.load_artifacts_ms", "soc.load_artifacts"),
    ("soc.run_cold_ms", "soc.run_cold"),
    ("soc.run_warm_functional_ms", "soc.run_warm_functional"),
    ("soc.run_warm_timing_ms", "soc.run_warm_timing"),
    ("serve.calibrate_ms", "serve.calibrate"),
    ("fleet.calibrate_ms", "fleet.calibrate"),
    ("fleet.spot_replay_ms", "fleet.run"),
    ("batch.add_model_ms", "batch.add_model"),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Default)]
pub struct Results {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Results {
    /// Record `value`, measured from `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither metric table: a typo must not
    /// silently drop a measurement.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let known = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of the ledger"));
        assert!(value.is_finite(), "`{name}` measured {value}");
        self.values.insert(known, (value, samples));
    }

    /// Record a single measurement or a count.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 1);
    }

    /// Add to a running total (counts summed over a workload's models).
    pub fn add(&mut self, name: &str, value: f64) {
        let prev = self.get(name).unwrap_or(0.0);
        self.set(name, prev + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.values.get(name).map_or(0, |v| v.1)
    }

    /// How many per-layer metrics this run filled.
    pub fn filled_layers(&self) -> usize {
        PER_LAYER
            .iter()
            .filter(|p| self.values.contains_key(p.name))
            .count()
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            obj([
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            obj([
                ("name", Json::Str(e.name.into())),
                ("unit", Json::Str(e.unit.into())),
                ("better", Json::Str(e.better.into())),
                ("bound", Json::Float(e.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|p| {
            obj([
                ("name", Json::Str(p.name.into())),
                ("unit", Json::Str(p.unit.into())),
                ("better", Json::Str(p.better.into())),
            ])
        })
        .collect();
    obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("examples/benchmark/run.sh".into()),
            ]),
        ),
        (
            "paths",
            Json::Arr(vec![Json::Str("examples/benchmark".into())]),
        ),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate it from `--list`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|p| p.name));
        for n in names {
            assert!(seen.insert(n), "{n} used twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER
            .iter()
            .all(|p| LAYERS.iter().any(|l| l.name == p.layer)));
        assert!(SPAN_METRICS
            .iter()
            .all(|(m, _)| PER_LAYER.iter().any(|p| p.name == *m)));
    }
}
