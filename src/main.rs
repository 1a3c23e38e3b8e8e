//! `rv-nvdla` — command-line front end for the bare-metal RISC-V + NVDLA
//! SoC toolflow.
//!
//! ```text
//! rv-nvdla compile <model> [--fp16] [--unfused] [--out DIR]
//! rv-nvdla run     <model> [--fp16] [--unfused] [--wfi] [--timing-only] [--repeat N]
//!                  [--trace-out FILE] [--metrics-out FILE]
//! rv-nvdla sweep   <model> [--fp16] [--unfused] [--clocks MHZ,..] [--threads N]
//! rv-nvdla batch   --models A,B[,..] [--frames N] [--policy rr|sqf|eff] [--threads N]
//!                  [--pipeline] [--functional] [--wfi] [--fp16] [--unfused]
//!                  [--trace-out FILE] [--metrics-out FILE]
//! rv-nvdla serve   --models A,B[,..] [--rate R] [--duration MS] [--seed S]
//!                  [--workers W] [--policy rr|sqf|eff] [--pipeline]
//!                  [--queue-depth D] [--slo-us U] [--arrivals poisson|fixed]
//!                  [--timeout-us U] [--retries N] [--faults SPEC]
//!                  [--fp16] [--unfused] [--json] [--trace-out FILE] [--metrics-out FILE]
//! rv-nvdla fleet   --models A,B[,..] [--pools CLASS[:k=v,..][;..]] [--route POLICY]
//!                  [--shape SHAPE] [--rate R] [--duration MS] [--seed S] [--slo-us U]
//!                  [--scale-window MS] [--scale-up-below PCT] [--scale-down-above PCT]
//!                  [--spot-windows K] [--window-frames N] [--fp16] [--unfused]
//!                  [--json] [--trace-out FILE] [--metrics-out FILE]
//! rv-nvdla fuzz    <target|all> [--seed S] [--budget N] [--shrink]
//! rv-nvdla traces
//! rv-nvdla resources
//! rv-nvdla models
//! ```
//!
//! Unknown flags are rejected with the command's accepted flag list —
//! a mistyped option can never be silently ignored.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rv_nvdla::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("traces") => cmd_traces(),
        Some("resources") => cmd_resources(),
        Some("models") => cmd_models(),
        _ => {
            eprintln!(
                "usage: rv-nvdla <compile|run|sweep|batch|serve|fleet|fuzz|traces|resources|models> [options]\n\
                 \n\
                 compile <model> [--fp16] [--unfused] [--out DIR]\n\
                 \tCompile a zoo model; write config file, weight .bin,\n\
                 \tassembly and program-memory .mem image.\n\
                 run <model> [--fp16] [--unfused] [--wfi] [--timing-only] [--repeat N]\n\
                 \x20   [--trace-out FILE] [--metrics-out FILE]\n\
                 \tRun N bare-metal inferences on the co-simulated SoC;\n\
                 \trepeats after the first reuse the resident weight image\n\
                 \t(compile-once/run-many hot path). --trace-out writes a\n\
                 \tPerfetto-loadable modeled-time trace, --metrics-out a\n\
                 \tJSON metrics dump (docs/OBSERVABILITY.md).\n\
                 sweep <model> [--fp16] [--unfused] [--clocks 50,100,150,200] [--threads N]\n\
                 \tTiming-only system-clock sweep (wfi firmware) against\n\
                 \tthe 100 MHz MIG, fanned out across worker threads.\n\
                 batch --models A,B[,..] [--frames N] [--policy rr|sqf|eff] [--threads N]\n\
                 \x20     [--pipeline] [--functional] [--wfi] [--fp16] [--unfused]\n\
                 \x20     [--trace-out FILE] [--metrics-out FILE]\n\
                 \tKeep every listed model resident in DRAM at disjoint\n\
                 \tbases and drain an interleaved frame queue across them\n\
                 \ton one SoC per worker thread (timing-only + wfi unless\n\
                 \t--functional). --pipeline double-buffers the inputs:\n\
                 \tframe N+1's preload streams during frame N's compute\n\
                 \tand contends at the DRAM arbiter. Reports per-model\n\
                 \tcycles, per-frame latency, arbiter contention and\n\
                 \tend-to-end throughput.\n\
                 serve --models A,B[,..] [--rate R] [--duration MS] [--seed S] [--workers W]\n\
                 \x20     [--policy rr|sqf|eff] [--pipeline] [--queue-depth D] [--slo-us U]\n\
                 \x20     [--arrivals poisson|fixed] [--timeout-us U] [--retries N]\n\
                 \x20     [--faults seed=S,flips=F,errors=E,spikes=P,spike-us=U,hangs=H,crashes=C]\n\
                 \x20     [--fp16] [--unfused] [--json] [--trace-out FILE] [--metrics-out FILE]\n\
                 \tOpen-loop serving: a seeded arrival trace (R req/s of\n\
                 \tmodeled time for MS ms) drains through a bounded\n\
                 \tadmission queue into W warm worker SoCs with every\n\
                 \tmodel resident. Reports queue-wait/service/total\n\
                 \tlatency percentiles (p50/p95/p99), offered vs\n\
                 \tachieved throughput, drops, and SLO attainment at\n\
                 \tthe --slo-us target; the dispatch plan is replayed\n\
                 \ton real SoCs and cross-checked cycle-exactly.\n\
                 \t--faults arms a seeded chaos plan (rates in events\n\
                 \tper million frame attempts); --timeout-us bounds\n\
                 \teach attempt (the watchdog) and --retries the retry\n\
                 \tbudget. See docs/RESILIENCE.md.\n\
                 fleet --models A,B[,..] [--pools CLASS[:k=v,..][;..]] [--route POLICY] [--shape SHAPE]\n\
                 \x20     [--rate R] [--duration MS] [--seed S] [--slo-us U] [--scale-window MS]\n\
                 \x20     [--scale-up-below PCT] [--scale-down-above PCT] [--spot-windows K]\n\
                 \x20     [--window-frames N] [--fp16] [--unfused] [--json]\n\
                 \x20     [--trace-out FILE] [--metrics-out FILE]\n\
                 \tFleet-scale serving: a shaped arrival trace (--shape\n\
                 \tsteady|diurnal|bursty|flash-crowd) drains through a\n\
                 \tfront-end load balancer (--route weighted|least-loaded|\n\
                 \tmodel-affinity) into heterogeneous pools of warm worker\n\
                 \tSoCs, each with bounded admission and a reactive\n\
                 \tautoscaler ([min..max] workers against a rolling SLO\n\
                 \twindow; every scale-up pays the pool's re-warm cost in\n\
                 \tmodeled time). Pool grammar, `;`-separated:\n\
                 \t  --pools \"nv_small:workers=2,queue=8;nv_full:workers=1,models=ResNet-50\"\n\
                 \t(class nv_small|nv_full, keys workers|min|max|queue|models,\n\
                 \tmodels `+`-separated). K windows of the dispatch plan are\n\
                 \tspot-replayed on real per-pool SoCs and cross-checked\n\
                 \tcycle-exactly. See docs/FLEET.md.\n\
                 fuzz <target|all> [--seed S] [--budget N] [--shrink]\n\
                 \tSeeded differential fuzzing over the standing\n\
                 \tcontracts (targets riscv|bus|net|batch|serve|fleet|conv).\n\
                 \tCase i derives its input from seed S+i and checks the\n\
                 \ttarget's oracle; with --shrink a failure is reduced to\n\
                 \ta minimal input and printed as a one-line replay\n\
                 \tcommand. --budget (or env RVNV_FUZZ_BUDGET) bounds the\n\
                 \tcases per target; counterexamples are also written\n\
                 \tunder target/fuzz/. See docs/FUZZING.md.\n\
                 traces\n\
                 \tRun the standard NVDLA validation traces as firmware.\n\
                 resources\n\
                 \tPrint the Table I resource model for nv_small/nv_full.\n\
                 models\n\
                 \tList the model zoo."
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn find_model(name: &str) -> Result<Model, AnyError> {
    // Accept both the paper's spelling ("LeNet-5") and the file-stem
    // spelling the compiler emits ("lenet5").
    fn norm(s: &str) -> String {
        s.chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .collect::<String>()
            .to_ascii_lowercase()
    }
    Model::ALL
        .into_iter()
        .find(|m| norm(m.name()) == norm(name))
        .ok_or_else(|| format!("unknown model `{name}`; try `rv-nvdla models`").into())
}

/// Flags that consume the following argument as their value (the model
/// name scan must not mistake such a value for the model).
const VALUE_FLAGS: [&str; 28] = [
    "--out",
    "--trace-out",
    "--metrics-out",
    "--budget",
    "--repeat",
    "--clocks",
    "--threads",
    "--models",
    "--frames",
    "--policy",
    "--rate",
    "--duration",
    "--seed",
    "--workers",
    "--queue-depth",
    "--slo-us",
    "--arrivals",
    "--timeout-us",
    "--retries",
    "--faults",
    "--pools",
    "--route",
    "--shape",
    "--scale-window",
    "--scale-up-below",
    "--scale-down-above",
    "--spot-windows",
    "--window-frames",
];

/// Strict argument validation: every `--flag` must be in the command's
/// accepted set (`bools` or `values`, the latter consuming the next
/// argument), and at most `max_positionals` bare arguments (the model
/// name) may appear. A mistyped flag is an error naming the accepted
/// flags, never a silent no-op.
fn validate_args(
    cmd: &str,
    args: &[String],
    bools: &[&str],
    values: &[&str],
    max_positionals: usize,
) -> Result<(), AnyError> {
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with('-') {
            if values.contains(&a) {
                i += 2; // the value is consumed by the flag
                continue;
            }
            if !bools.contains(&a) {
                let mut accepted: Vec<&str> = bools.iter().chain(values).copied().collect();
                accepted.sort_unstable();
                return Err(format!(
                    "unknown flag `{a}` for `{cmd}` (accepted: {})",
                    accepted.join(", ")
                )
                .into());
            }
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(format!(
                    "unexpected argument `{a}` for `{cmd}` ({} expected)",
                    match max_positionals {
                        0 => "no positional argument".to_string(),
                        n => format!("at most {n}"),
                    }
                )
                .into());
            }
        }
        i += 1;
    }
    Ok(())
}

/// Find `--flag`'s value anywhere in `args`; `Ok(None)` when absent,
/// an error when the flag dangles with no value.
fn parse_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, AnyError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value").into()),
    }
}

/// Parse `--flag N` as a number anywhere in `args`.
fn parse_number(args: &[String], flag: &str) -> Result<Option<u64>, AnyError> {
    parse_value(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`").into()))
        .transpose()
}

fn parse_options(args: &[String]) -> Result<(Model, CompileOptions, bool, bool), AnyError> {
    let mut model_name = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2; // skip the flag and its value
            continue;
        }
        if !a.starts_with("--") {
            model_name = Some(&args[i]);
            break;
        }
        i += 1;
    }
    let model = find_model(model_name.ok_or("missing model name")?)?;
    let fp16 = args.iter().any(|a| a == "--fp16");
    let mut opt = if fp16 {
        CompileOptions::fp16()
    } else {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    };
    if args.iter().any(|a| a == "--unfused") {
        opt = opt.unfused();
    }
    let wfi = args.iter().any(|a| a == "--wfi");
    let timing_only = args.iter().any(|a| a == "--timing-only");
    Ok((model, opt, wfi, timing_only))
}

/// The observability sinks shared by `run`/`batch`/`serve`/`fleet`:
/// `--trace-out FILE` (Chrome-trace/Perfetto JSON of the modeled-time
/// spans) and `--metrics-out FILE` (the unified metrics snapshot). See
/// docs/OBSERVABILITY.md.
struct ObsOut {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    tracer: Tracer,
}

impl ObsOut {
    /// Parse the two flags. The tracer is armed only when `--trace-out`
    /// asks for spans — disarmed, every emission site in the simulators
    /// is a single branch, and arming never changes a modeled cycle.
    fn from_args(args: &[String]) -> Result<ObsOut, AnyError> {
        let trace_out = parse_value(args, "--trace-out")?.map(PathBuf::from);
        let metrics_out = parse_value(args, "--metrics-out")?.map(PathBuf::from);
        let tracer = if trace_out.is_some() {
            Tracer::armed()
        } else {
            Tracer::disarmed()
        };
        Ok(ObsOut {
            trace_out,
            metrics_out,
            tracer,
        })
    }

    /// Whether `--metrics-out` asked for a metrics dump.
    fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Write whichever sinks were requested: the trace with its µs
    /// timestamps denominated at `soc_hz`, and the metrics snapshot.
    /// Quiet on stdout so `--json` output stays machine-parseable.
    fn write(&self, soc_hz: u64, metrics: &MetricsRegistry) -> Result<(), AnyError> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, to_chrome_json(&self.tracer.snapshot(), soc_hz))?;
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, format!("{}\n", metrics.snapshot().to_json()))?;
        }
        Ok(())
    }
}

fn cmd_compile(args: &[String]) -> Result<(), AnyError> {
    validate_args("compile", args, &["--fp16", "--unfused"], &["--out"], 1)?;
    let (model, opt, _, _) = parse_options(args)?;
    let out_dir = parse_value(args, "--out")?.map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir)?;

    let net = model.build(1);
    let artifacts = compile(&net, &opt)?;
    let fw = Firmware::build(&artifacts)?;
    let stem = model.name().to_lowercase().replace('-', "");

    let config_path = out_dir.join(format!("{stem}.cfg"));
    std::fs::write(&config_path, write_config_file(&artifacts.commands))?;
    let weights_path = out_dir.join(format!("{stem}_weights.bin"));
    std::fs::write(&weights_path, artifacts.weights.to_bin())?;
    let asm_path = out_dir.join(format!("{stem}.s"));
    std::fs::write(&asm_path, &fw.assembly)?;
    let mem_path = out_dir.join(format!("{stem}.mem"));
    std::fs::write(&mem_path, fw.to_mem_format())?;

    println!(
        "{}: {} ops, {} commands -> {}, {}, {}, {}",
        model.name(),
        artifacts.ops.len(),
        artifacts.commands.len(),
        config_path.display(),
        weights_path.display(),
        asm_path.display(),
        mem_path.display()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), AnyError> {
    validate_args(
        "run",
        args,
        &["--fp16", "--unfused", "--wfi", "--timing-only"],
        &["--repeat", "--trace-out", "--metrics-out"],
        1,
    )?;
    let (model, opt, wfi, timing_only) = parse_options(args)?;
    let repeat = parse_number(args, "--repeat")?.unwrap_or(1).max(1);
    let obs = ObsOut::from_args(args)?;
    let net = model.build(1);
    // The cache is trivially one entry here; `run` goes through it so
    // the CLI exercises the same path a long-lived server would.
    let cache = ArtifactCache::new();
    let artifacts = cache.get_or_compile(&net, &opt)?;
    let mut config = if timing_only {
        SocConfig::zcu102_timing_only()
    } else {
        SocConfig::zcu102_nv_small()
    };
    config.hw = opt.hw.clone();
    if obs.tracer.is_armed() {
        // Per-op child spans come from the captured timeline.
        config.capture_timeline = true;
    }
    let soc_hz = config.soc_hz;
    let metrics = MetricsRegistry::new();
    let mut soc = Soc::new(config);
    if obs.tracer.is_armed() {
        let track = obs.tracer.track("soc", TrackKind::Sync);
        soc.set_tracer(obs.tracer.clone(), track);
    }
    let input = Tensor::random(net.input_shape(), 7);
    let input_bytes = artifacts.quantize_input(&input);
    let codegen = CodegenOptions {
        wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
        ..CodegenOptions::default()
    };
    let fw = Firmware::build_with(&artifacts, codegen)?;

    let cold_start = Instant::now();
    let result = soc.run_firmware(&artifacts, &input_bytes, &fw)?;
    let cold_host = cold_start.elapsed();
    if obs.wants_metrics() {
        result.publish(&metrics);
    }
    println!(
        "{}: {} cycles = {:.2} ms @100 MHz | {} instructions | firmware {} B | class {}",
        model.name(),
        result.cycles,
        result.latency_ms(100_000_000),
        result.instructions,
        result.firmware_bytes,
        result.output.argmax()
    );
    if !result.timeline.is_empty() {
        println!("per-op timeline (first 8):");
        for op in result.timeline.iter().take(8) {
            println!(
                "  {:8} {:>9} .. {:>9}  ({} cycles)",
                op.block.name(),
                op.start,
                op.done,
                op.done - op.start
            );
        }
    }
    if repeat > 1 {
        // Warm repeats: weights stay resident, firmware and quantized
        // input are reused; every run must replay identical cycles.
        let warm_start = Instant::now();
        let mut cache_stats = result.block_cache;
        let mut elided_polls = result.elided_polls;
        for i in 1..repeat {
            let warm = soc.run_firmware(&artifacts, &input_bytes, &fw)?;
            if obs.wants_metrics() {
                warm.publish(&metrics);
            }
            if warm.cycles != result.cycles || warm.raw_output != result.raw_output {
                return Err(format!(
                    "warm run {i} diverged: {} cycles vs {}",
                    warm.cycles, result.cycles
                )
                .into());
            }
            cache_stats = warm.block_cache;
            elided_polls = warm.elided_polls;
        }
        let warm_host = warm_start.elapsed() / (repeat - 1) as u32;
        println!(
            "repeat x{repeat}: all warm runs bit-identical | host {:.2} ms cold, {:.2} ms warm ({:.1}x)",
            cold_host.as_secs_f64() * 1e3,
            warm_host.as_secs_f64() * 1e3,
            cold_host.as_secs_f64() / warm_host.as_secs_f64().max(1e-9),
        );
        println!(
            "block cache: {} hits, {} misses per warm run | {} status polls elided by the read lease",
            cache_stats.hits, cache_stats.misses, elided_polls,
        );
    }
    if obs.wants_metrics() {
        // Host work, not modeled traffic: what the DRAM model really
        // copied and zeroed, how often it entered its burst loop and
        // how many bursts it stepped there, over all the runs above.
        let work = soc.dram_work();
        metrics.counter("work.dram_bytes_copied", work.bytes_copied);
        metrics.counter("work.dram_bytes_zeroed", work.bytes_zeroed);
        metrics.counter("work.dram_walks", work.walks);
        metrics.counter("work.dram_burst_steps", work.burst_steps);
    }
    obs.write(soc_hz, &metrics)?;
    Ok(())
}

/// One point of a `sweep`: system clock in MHz plus its measured result.
struct SweepRow {
    soc_mhz: u64,
    cycles: u64,
    ms: f64,
}

fn cmd_sweep(args: &[String]) -> Result<(), AnyError> {
    validate_args(
        "sweep",
        args,
        &["--fp16", "--unfused"],
        &["--clocks", "--threads"],
        1,
    )?;
    let (model, opt, _, _) = parse_options(args)?;
    let clocks: Vec<u64> = match parse_value(args, "--clocks")? {
        None => vec![50, 100, 150, 200],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad clock `{s}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    if clocks.is_empty() || clocks.contains(&0) {
        return Err("clock list must be nonempty and nonzero".into());
    }
    let threads = parse_number(args, "--threads")?
        .map_or_else(
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            |n| n as usize,
        )
        .clamp(1, clocks.len());

    let net = model.build(1);
    let cache = ArtifactCache::new();
    let artifacts = cache.get_or_compile(&net, &opt)?;
    // Sweep points exist for timing throughput: wfi firmware retires
    // ~100x fewer instructions than the poll loop at near-identical
    // modeled latency, so it is the sweep wait mode.
    let fw = Firmware::build_with(
        &artifacts,
        CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        },
    )?;
    let input = Tensor::random(net.input_shape(), 7);
    let input_bytes = artifacts.quantize_input(&input);

    // Fan the sweep points out across worker threads: each worker owns
    // its SoC, all share the compiled artifacts and firmware.
    let start = Instant::now();
    let results = rvnv_soc::sweep::fan_out(clocks.len(), threads, |i| {
        let soc_mhz = clocks[i];
        let mut config = SocConfig::zcu102_timing_only();
        config.hw = opt.hw.clone();
        config.soc_hz = soc_mhz * 1_000_000;
        let mut soc = Soc::new(config);
        soc.run_firmware(&artifacts, &input_bytes, &fw)
            .map(|r| SweepRow {
                soc_mhz,
                cycles: r.cycles,
                ms: r.cycles as f64 * 1000.0 / (soc_mhz as f64 * 1e6),
            })
            .map_err(|e| format!("{soc_mhz} MHz: {e}"))
    });
    let mut rows: Vec<SweepRow> = Vec::with_capacity(clocks.len());
    for row in results {
        rows.push(row.map_err(|e| -> AnyError { e.into() })?);
    }
    rows.sort_by_key(|r| r.soc_mhz);

    println!(
        "{} timing-only sweep vs 100 MHz MIG DDR4 ({} points, {} threads, host {:.0} ms):",
        model.name(),
        rows.len(),
        threads,
        start.elapsed().as_secs_f64() * 1e3,
    );
    println!("  soc clock   cycles         latency      fps");
    for r in &rows {
        println!(
            "  {:>6} MHz  {:>12}  {:>9.2} ms  {:>7.1}",
            r.soc_mhz,
            r.cycles,
            r.ms,
            1000.0 / r.ms
        );
    }
    Ok(())
}

/// Parse `cmd`'s `--models A,B[,..]` list: every entry must name a zoo
/// model, the list must be nonempty, and a model may appear only once
/// (two copies of one model cannot be resident at one base — compile
/// different seeds as different models instead).
fn parse_model_list(cmd: &str, args: &[String]) -> Result<Vec<Model>, AnyError> {
    let list = parse_value(args, "--models")?
        .ok_or_else(|| format!("{cmd} needs --models A,B[,..] (try `rv-nvdla models`)"))?;
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    if names.is_empty() {
        return Err("--models list must not be empty".into());
    }
    let mut models: Vec<Model> = Vec::with_capacity(names.len());
    for name in names {
        let model = find_model(name)?;
        if models.contains(&model) {
            return Err(format!(
                "duplicate model `{name}` in --models (each model can be resident once)"
            )
            .into());
        }
        models.push(model);
    }
    Ok(models)
}

/// Parse `--flag N` as a number that must be at least 1.
fn parse_positive(args: &[String], flag: &str, what: &str) -> Result<Option<u64>, AnyError> {
    match parse_number(args, flag)? {
        Some(0) => Err(format!("{flag} must be >= 1 ({what})").into()),
        other => Ok(other),
    }
}

fn cmd_batch(args: &[String]) -> Result<(), AnyError> {
    validate_args(
        "batch",
        args,
        &["--fp16", "--unfused", "--wfi", "--functional", "--pipeline"],
        &[
            "--models",
            "--frames",
            "--policy",
            "--threads",
            "--trace-out",
            "--metrics-out",
        ],
        0,
    )?;
    let models = parse_model_list("batch", args)?;
    let obs = ObsOut::from_args(args)?;
    let metrics = MetricsRegistry::new();
    let frames =
        parse_positive(args, "--frames", "an empty batch serves nothing")?.unwrap_or(16) as usize;
    let policy: Policy = parse_value(args, "--policy")?.unwrap_or("rr").parse()?;
    let pipeline = args.iter().any(|a| a == "--pipeline");
    let threads = parse_number(args, "--threads")?
        .map_or_else(
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            |n| n as usize,
        )
        .clamp(1, frames);
    let functional = args.iter().any(|a| a == "--functional");
    let fp16 = args.iter().any(|a| a == "--fp16");
    let mut opt = if fp16 {
        CompileOptions::fp16()
    } else {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    };
    if args.iter().any(|a| a == "--unfused") {
        opt = opt.unfused();
    }
    // The server flow is timing throughput; wfi firmware is its wait
    // mode (as in `sweep`). `--functional` computes real outputs with
    // the poll firmware `run` uses, unless `--wfi` asks otherwise.
    let wfi = args.iter().any(|a| a == "--wfi") || !functional;
    let mut config = if functional {
        SocConfig::zcu102_nv_small()
    } else {
        SocConfig::zcu102_timing_only()
    };
    config.hw = opt.hw.clone();
    let codegen = CodegenOptions {
        wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
        ..CodegenOptions::default()
    };

    // Lay the models out at disjoint DRAM bases and build the frame
    // stream: frame i exercises model i % N with its own random input.
    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let cache = ArtifactCache::new();
    let artifacts = layout_models(&cache, &nets, &opt)?;
    let frame_stream: Vec<Frame> = (0..frames)
        .map(|i| {
            let m = i % models.len();
            let input = Tensor::random(nets[m].input_shape(), 1000 + i as u64);
            Frame {
                model: m,
                bytes: artifacts[m].quantize_input(&input),
            }
        })
        .collect();

    let start = Instant::now();
    let report = run_parallel(
        &config,
        policy,
        &artifacts,
        codegen,
        &frame_stream,
        threads,
        pipeline,
        &obs.tracer,
    )?;
    let host_ms = start.elapsed().as_secs_f64() * 1e3;

    println!(
        "batch: {} models resident, {} frames, policy {}, {}, {} worker SoC(s):",
        artifacts.len(),
        report.total_frames(),
        policy.name(),
        if report.pipelined {
            "pipelined preload"
        } else {
            "serial preload"
        },
        threads,
    );
    println!("  model       frames  cycles/frame  service lat   arbiter wait");
    for (name, stats) in &report.per_model {
        println!(
            "  {:10} {:>6}  {:>12}  {:>8.2} ms  {:>12}",
            name,
            stats.frames,
            stats.cycles_per_frame(),
            config.cycles_to_ms(stats.latency_per_frame()),
            stats.arbiter_wait,
        );
    }
    println!(
        "  total: {} cycles | modeled {:.1} frames/s compute, {:.1} e2e @{} MHz | warm frame {:.2} ms | host {:.0} ms ({:.1} frames/s)",
        report.total_cycles(),
        report.modeled_fps(config.soc_hz),
        report.e2e_fps(config.soc_hz),
        config.soc_hz / 1_000_000,
        config.cycles_to_ms(report.warm_frame_latency()),
        host_ms,
        // Both host numbers from the same interval (end to end,
        // including per-worker setup), so the pair is self-consistent.
        report.total_frames() as f64 / (host_ms / 1e3).max(1e-9),
    );
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(config.soc_hz, &metrics)?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    validate_args(
        "serve",
        args,
        &["--fp16", "--unfused", "--pipeline", "--json"],
        &[
            "--models",
            "--rate",
            "--duration",
            "--seed",
            "--workers",
            "--policy",
            "--queue-depth",
            "--slo-us",
            "--arrivals",
            "--timeout-us",
            "--retries",
            "--faults",
            "--trace-out",
            "--metrics-out",
        ],
        0,
    )?;
    let models = parse_model_list("serve", args)?;
    let obs = ObsOut::from_args(args)?;
    let json = args.iter().any(|a| a == "--json");
    let mut spec = ServeSpec::default();
    if let Some(rate) = parse_positive(args, "--rate", "a rate of 0 offers no load")? {
        spec.rate_rps = rate;
    }
    if let Some(ms) = parse_positive(args, "--duration", "modeled milliseconds of arrivals")? {
        spec.duration_ms = ms;
    }
    if let Some(seed) = parse_number(args, "--seed")? {
        spec.seed = seed;
    }
    if let Some(w) = parse_positive(args, "--workers", "the pool needs a worker")? {
        spec.workers = w as usize;
    }
    if let Some(d) = parse_positive(
        args,
        "--queue-depth",
        "an unqueued server drops every burst",
    )? {
        spec.queue_depth = d as usize;
    }
    if let Some(slo) = parse_number(args, "--slo-us")? {
        spec.slo_us = slo;
    }
    if let Some(p) = parse_value(args, "--policy")? {
        spec.policy = p.parse()?;
    }
    if let Some(a) = parse_value(args, "--arrivals")? {
        spec.process = a.parse()?;
    }
    if let Some(t) = parse_positive(
        args,
        "--timeout-us",
        "a zero deadline aborts every attempt at birth",
    )? {
        spec.timeout_us = t;
    }
    if let Some(r) = parse_number(args, "--retries")? {
        spec.retries = u32::try_from(r).map_err(|_| format!("bad --retries `{r}`"))?;
    }
    if let Some(f) = parse_value(args, "--faults")? {
        spec.faults = Some(f.parse::<FaultSpec>()?);
    }
    spec.pipelined = args.iter().any(|a| a == "--pipeline");
    spec.validate()?;

    let fp16 = args.iter().any(|a| a == "--fp16");
    let mut opt = if fp16 {
        CompileOptions::fp16()
    } else {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    };
    if args.iter().any(|a| a == "--unfused") {
        opt = opt.unfused();
    }
    // Serving is a timing flow: timing-only SoC, wfi firmware (as in
    // `sweep` and the default `batch`).
    let mut config = SocConfig::zcu102_timing_only();
    config.hw = opt.hw.clone();
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };

    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let cache = ArtifactCache::new();
    let artifacts = layout_models(&cache, &nets, &opt)?;
    let calib_start = Instant::now();
    let mut server = Server::new(config.clone(), artifacts, codegen)?;
    let calib_ms = calib_start.elapsed().as_secs_f64() * 1e3;
    server.set_tracer(obs.tracer.clone());
    let report = server.serve(&spec)?;

    let metrics = MetricsRegistry::new();
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(config.soc_hz, &metrics)?;
    if json {
        // Machine-readable report on stdout, nothing else: every field
        // is modeled (host wall-clock excluded), so two runs of the
        // same spec print byte-identical JSON.
        println!("{}", report.to_json());
        return Ok(());
    }

    let ms = |cycles: u64| config.cycles_to_ms(cycles);
    println!(
        "serve: {} model(s) resident, {} arrivals at {} req/s for {} ms (seed {}), \
         {} worker(s), policy {}, {}, queue depth {}:",
        report.per_model.len(),
        report.process.name(),
        report.rate_rps,
        spec.duration_ms,
        report.seed,
        report.workers,
        report.policy.name(),
        if report.pipelined {
            "pipelined preload"
        } else {
            "serial preload"
        },
        report.queue_depth,
    );
    println!("  latency (ms)     p50      p95      p99     mean      max");
    for (name, s) in [
        ("queue wait", report.queue_wait),
        ("service", report.service),
        ("total", report.total),
    ] {
        println!(
            "  {:12} {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
            name,
            ms(s.p50),
            ms(s.p95),
            ms(s.p99),
            ms(s.mean),
            ms(s.max),
        );
    }
    println!("  model       offered  served  dropped  p99 total");
    for m in &report.per_model {
        println!(
            "  {:10} {:>8}  {:>6}  {:>7}  {:>7.3} ms",
            m.name,
            m.offered,
            m.served,
            m.dropped,
            ms(m.total.p99),
        );
    }
    for (w, stats) in report.per_worker.iter().enumerate() {
        let util = if report.makespan_cycles == 0 {
            0.0
        } else {
            100.0 * stats.busy_cycles as f64 / report.makespan_cycles as f64
        };
        println!(
            "  worker {w}: {} frame(s), {util:.1}% busy over the {:.1} ms drain",
            stats.frames,
            ms(report.makespan_cycles),
        );
    }
    if spec.faults.is_some() || spec.timeout_us > 0 {
        let f = report.faults;
        println!(
            "  faults: {} injected (hangs {}, bus errors {}, corruptions {}, spikes {}, \
             crashes {}) | timeouts {} retries {} failovers {} sheds {} exhausted {}",
            f.injected(),
            f.hangs,
            f.bus_errors,
            f.corruptions_detected,
            f.spikes,
            f.crashes,
            f.timeouts,
            f.retries,
            f.failovers,
            f.sheds,
            f.exhausted,
        );
    }
    println!(
        "  offered {:.1} req/s -> achieved {:.1} req/s | dropped {} ({:.1}%) | \
         SLO {} us attained {:.1}% | replay divergence {} | calib {:.0} ms + serve host {:.0} ms",
        report.offered_rate(),
        report.achieved_rate(),
        report.dropped,
        100.0 * report.drop_rate(),
        spec.slo_us,
        100.0 * report.slo_attainment(),
        report.replay_divergence,
        calib_ms,
        report.host_seconds * 1e3,
    );
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), AnyError> {
    validate_args(
        "fleet",
        args,
        &["--fp16", "--unfused", "--json"],
        &[
            "--models",
            "--pools",
            "--route",
            "--shape",
            "--rate",
            "--duration",
            "--seed",
            "--slo-us",
            "--scale-window",
            "--scale-up-below",
            "--scale-down-above",
            "--spot-windows",
            "--window-frames",
            "--trace-out",
            "--metrics-out",
        ],
        0,
    )?;
    let models = parse_model_list("fleet", args)?;
    let obs = ObsOut::from_args(args)?;
    let json = args.iter().any(|a| a == "--json");
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    let mut spec = FleetSpec::default();
    if let Some(s) = parse_value(args, "--pools")? {
        spec.pools = parse_pools(s, &names)?;
    }
    if let Some(r) = parse_value(args, "--route")? {
        spec.route = r.parse()?;
    }
    if let Some(s) = parse_value(args, "--shape")? {
        spec.shape = s.parse()?;
    }
    if let Some(rate) = parse_positive(args, "--rate", "a rate of 0 offers no load")? {
        spec.rate_rps = rate;
    }
    if let Some(ms) = parse_positive(args, "--duration", "modeled milliseconds of arrivals")? {
        spec.duration_ms = ms;
    }
    if let Some(seed) = parse_number(args, "--seed")? {
        spec.seed = seed;
    }
    if let Some(slo) = parse_number(args, "--slo-us")? {
        spec.slo_us = slo;
    }
    if let Some(w) = parse_number(args, "--scale-window")? {
        spec.scale_window_ms = w;
    }
    if let Some(p) = parse_number(args, "--scale-up-below")? {
        spec.scale_up_below =
            u32::try_from(p).map_err(|_| format!("bad --scale-up-below `{p}`"))?;
    }
    if let Some(p) = parse_number(args, "--scale-down-above")? {
        spec.scale_down_above =
            u32::try_from(p).map_err(|_| format!("bad --scale-down-above `{p}`"))?;
    }
    if let Some(k) = parse_number(args, "--spot-windows")? {
        spec.spot_windows = k as usize;
    }
    if let Some(n) = parse_number(args, "--window-frames")? {
        spec.window_frames = n as usize;
    }
    spec.validate(models.len())?;

    // Fail the class/model mismatch before paying for compilation:
    // nv_small cannot host the larger zoo models.
    for (i, p) in spec.pools.iter().enumerate() {
        if p.class != SocClass::NvSmall {
            continue;
        }
        let resident = p
            .models
            .clone()
            .unwrap_or_else(|| (0..models.len()).collect());
        for m in resident {
            if !Model::NV_SMALL.contains(&models[m]) {
                return Err(format!(
                    "pool {i} (nv_small): model `{}` is nv_full-only — give it an nv_full \
                     pool or restrict this pool's models= list (see `rv-nvdla models`)",
                    models[m].name()
                )
                .into());
            }
        }
    }

    let fp16 = args.iter().any(|a| a == "--fp16");
    let mut opt = if fp16 {
        CompileOptions::fp16()
    } else {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    };
    if args.iter().any(|a| a == "--unfused") {
        opt = opt.unfused();
    }
    // Fleet serving is a timing flow (wfi firmware, timing-only SoCs);
    // the per-pool hardware class overrides `opt.hw` inside `Fleet::new`.
    let codegen = CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    };
    let nets: Vec<_> = models.iter().map(|m| m.build(1)).collect();
    let calib_start = Instant::now();
    let mut fleet = Fleet::new(&nets, &opt, codegen, &spec)?;
    let calib_ms = calib_start.elapsed().as_secs_f64() * 1e3;
    fleet.set_tracer(obs.tracer.clone());
    let report = fleet.run(&spec)?;

    let metrics = MetricsRegistry::new();
    if obs.wants_metrics() {
        report.publish(&metrics);
    }
    obs.write(report.soc_hz, &metrics)?;
    if json {
        // Machine-readable report on stdout, nothing else: every field
        // is modeled (host wall-clock excluded), so two runs of the
        // same spec print byte-identical JSON.
        println!("{}", report.to_json());
        return Ok(());
    }

    let ms = |cycles: u64| cycles as f64 * 1e3 / report.soc_hz as f64;
    println!(
        "fleet: {} model(s) across {} pool(s), route {}, {} arrivals at {} req/s for {} ms (seed {}):",
        models.len(),
        report.per_pool.len(),
        report.route.name(),
        report.shape.name(),
        report.rate_rps,
        spec.duration_ms,
        report.seed,
    );
    println!("  pool  class     workers              routed  served  dropped  p99 total     SLO%  models");
    for (i, p) in report.per_pool.iter().enumerate() {
        let journey = format!(
            "{} -> {} [{}..{}] +{}/-{}",
            p.workers_start,
            p.workers_final,
            spec.pools[i].min_workers,
            spec.pools[i].max_workers,
            p.scale_ups,
            p.scale_downs,
        );
        let slo_pct = if p.routed == 0 {
            100.0
        } else {
            100.0 * p.slo_attained as f64 / p.routed as f64
        };
        let resident = p
            .models
            .iter()
            .map(|&m| models[m].name())
            .collect::<Vec<_>>()
            .join("+");
        println!(
            "  {i:>4}  {:8}  {journey:<19} {:>6}  {:>6}  {:>7}  {:>7.3} ms  {slo_pct:>5.1}  {resident}",
            p.class.name(),
            p.routed,
            p.served,
            p.dropped,
            ms(p.total.p99),
        );
    }
    println!("  latency (ms)     p50      p95      p99     mean      max");
    for (name, s) in [
        ("queue wait", report.queue_wait),
        ("service", report.service),
        ("total", report.total),
    ] {
        println!(
            "  {name:12} {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
            ms(s.p50),
            ms(s.p95),
            ms(s.p99),
            ms(s.mean),
            ms(s.max),
        );
    }
    println!(
        "  offered {:.1} req/s -> achieved {:.1} req/s | dropped {} ({:.1}%) | shed {} | \
         SLO {} us attained {:.1}% | spot replay {} frame(s), divergence {} | \
         calib {:.0} ms + fleet host {:.0} ms",
        report.offered_rate(),
        report.achieved_rate(),
        report.dropped,
        100.0 * report.drop_rate(),
        report.shed,
        spec.slo_us,
        100.0 * report.slo_attainment(),
        report.replayed_frames,
        report.replay_divergence,
        calib_ms,
        report.host_seconds * 1e3,
    );
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), AnyError> {
    validate_args("fuzz", args, &["--shrink"], &["--seed", "--budget"], 1)?;
    // The single positional is the target name; value flags consume
    // their argument in the scan, exactly like the model-name scan.
    let mut target = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            target = Some(a);
            break;
        }
        i += 1;
    }
    let target =
        target.ok_or("missing fuzz target (one of riscv|bus|net|batch|serve|fleet|conv|all)")?;
    let seed = parse_number(args, "--seed")?.unwrap_or(1);
    let budget = match parse_number(args, "--budget")? {
        Some(b) => b,
        None => match std::env::var("RVNV_FUZZ_BUDGET") {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("bad RVNV_FUZZ_BUDGET `{v}`"))?,
            Err(_) => 100,
        },
    };
    if budget == 0 {
        return Err("bad --budget `0` (must be >= 1)".into());
    }
    let do_shrink = args.iter().any(|a| a == "--shrink");
    let started = Instant::now();
    let reports = rvnv_fuzz::run(target, seed, budget, do_shrink)?;
    let mut failures = 0usize;
    for r in &reports {
        match &r.counterexample {
            None => println!(
                "fuzz {:<6} ok: {} cases passed (seeds {}..={})",
                r.target,
                r.executed,
                r.base_seed,
                r.base_seed.wrapping_add(r.budget - 1),
            ),
            Some(cx) => {
                failures += 1;
                println!(
                    "fuzz {:<6} FAILED at seed {} after {} cases",
                    r.target, cx.seed, r.executed
                );
                println!("  oracle: {}", cx.message);
                println!(
                    "  input shrank {} -> {} elements; minimized:",
                    cx.size_orig, cx.size_min
                );
                for line in cx.minimized.lines() {
                    println!("    {line}");
                }
                println!("  repro: {}", cx.repro);
                // Persist the counterexample so CI can upload it.
                let dir = PathBuf::from("target/fuzz");
                std::fs::create_dir_all(&dir)?;
                let path = dir.join(format!("{}.counterexample.txt", r.target));
                std::fs::write(
                    &path,
                    format!(
                        "target: {}\nseed: {}\nsize: {} -> {}\noracle: {}\nrepro: {}\n\n{}\n",
                        cx.target,
                        cx.seed,
                        cx.size_orig,
                        cx.size_min,
                        cx.message,
                        cx.repro,
                        cx.minimized
                    ),
                )?;
                println!("  written: {}", path.display());
            }
        }
    }
    println!(
        "fuzz: {}/{} targets clean in {:.1}s",
        reports.len() - failures,
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        return Err(format!(
            "fuzz found {failures} counterexample(s); replay with the printed `rv-nvdla fuzz` \
             command(s)"
        )
        .into());
    }
    Ok(())
}

fn cmd_traces() -> Result<(), AnyError> {
    for trace in rvnv_compiler::traces::all() {
        let asm = rvnv_compiler::codegen::generate_assembly(&trace.commands);
        let image = rvnv_riscv::assemble(&asm)?;
        let fw = Firmware {
            assembly: asm,
            image,
        };
        let mut soc = Soc::new(SocConfig::zcu102_nv_small());
        let result = soc.run_firmware(&trace.artifacts(), &[], &fw)?;
        let mut ok = true;
        for (addr, bytes) in &trace.expect {
            ok &= soc.with_dram_peek(*addr, bytes.len(), |got| got == bytes.as_slice());
        }
        println!(
            "trace {:12} {} ({} commands, {} cycles)",
            trace.name,
            if ok { "PASS" } else { "FAIL" },
            trace.commands.len(),
            result.cycles
        );
        if !ok {
            return Err(format!("trace {} failed", trace.name).into());
        }
    }
    Ok(())
}

fn cmd_resources() -> Result<(), AnyError> {
    use rvnv_soc::resources;
    for cfg in [
        rvnv_nvdla::HwConfig::nv_small(),
        rvnv_nvdla::HwConfig::nv_full(),
    ] {
        let u = resources::nvdla(&cfg);
        println!(
            "{:9} LUT {:>7}  Regs {:>7}  BRAM {:>4}  DSP {:>5}  fits ZCU102: {}",
            cfg.name,
            u.lut,
            u.regs,
            u.bram,
            u.dsp,
            resources::fits_zcu102(&u)
        );
    }
    Ok(())
}

fn cmd_models() -> Result<(), AnyError> {
    for m in Model::ALL {
        let net = m.skeleton();
        let nv_small = if Model::NV_SMALL.contains(&m) {
            "nv_small+nv_full"
        } else {
            "nv_full only"
        };
        println!(
            "{:10} input {:10} layers {:4} ({nv_small})",
            m.name(),
            net.input_shape().to_string(),
            net.layer_count()
        );
    }
    Ok(())
}
