//! The repo's benchmark: one ledger for host time, modeled time and
//! paper error, end to end and layer by layer. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.
//!
//! Every layer is measured **from outside**, by timing calls into
//! public functions; all load is closed-loop with one client (this
//! thread). Two clocks are reported and never mixed: *host* (wall time
//! of this program, noisy) and *modeled* (cycles of the simulated SoC,
//! which must repeat exactly).

mod cli_workload;
mod metrics;
mod models;
mod probes;
mod serve_workloads;
mod soc_workloads;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rv_nvdla::rvnv_obs::Json;

use metrics::{
    Clock, Results, END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, SPAN_METRICS, WORKLOADS,
};
use models::Checks;
use spans::{median, obj, peak_rss_mb, tail, Spans};

/// A benchmark workload after set-up. Workloads differ only in the
/// inputs they build and the public calls they make; nothing tells the
/// library which workload is running.
pub trait Workload {
    /// One operation, its layer calls under `spans`, its outputs
    /// checked into `checks`.
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks);
    /// Traced phase only: the per-layer rows the op spans do not give —
    /// modeled counters and layer isolations.
    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results);
    /// Peak resident set so far, MB: this process's `VmHWM` unless the
    /// workload's memory lives elsewhere.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb()
    }
}

fn build(
    name: &str,
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<Box<dyn Workload>, String> {
    use soc_workloads::{SweepCold, Table3, WarmRuns};
    Ok(match name {
        "small_functional" => Box::new(WarmRuns::small_functional(seed, spans, checks)),
        "small_timing_warm" => Box::new(WarmRuns::small_timing_warm(seed, spans, checks)),
        "sweep_cold" => Box::new(SweepCold::setup(seed, spans, checks)),
        "resnet50_int8" => Box::new(WarmRuns::resnet50_int8(seed, spans, checks)),
        "table3_fp16" => Box::new(Table3::setup(seed, spans, checks)),
        "cli_cold" => Box::new(cli_workload::CliCold::setup(seed, spans, checks)?),
        "plan_grid" => Box::new(serve_workloads::PlanGrid::setup(seed, spans, checks)),
        "serve_replay" => Box::new(serve_workloads::ServeReplay::setup(seed, spans, checks)),
        other => return Err(format!("unknown workload `{other}` (try --list)")),
    })
}

/// One workload's run: what the driver's last line carries.
struct Outcome {
    attempted: u64,
    failed: u64,
    results: Results,
}

/// One workload run's bookkeeping: operations counted (an op with any
/// failed check is a failed op) and set-ups timed.
struct Run<'a> {
    name: &'a str,
    seed: u64,
    checks: Checks,
    attempted: u64,
    failed: u64,
    setup_spans: Spans,
    setup_s: Vec<f64>,
}

impl Run<'_> {
    fn count<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.checks.failed;
        let out = f(self);
        self.attempted += 1;
        if self.checks.failed > before {
            self.failed += 1;
        }
        out
    }

    /// One timed set-up, its layer calls under the set-up spans.
    fn set_up(&mut self) -> Result<Box<dyn Workload>, String> {
        self.count(|run| {
            run.setup_spans.next_op();
            let t = Instant::now();
            let built = run
                .setup_spans
                .time("setup", |s| build(run.name, run.seed, s, &mut run.checks));
            run.setup_s.push(t.elapsed().as_secs_f64());
            built
        })
    }
}

/// The timed phase's op times and what its quietest window says.
struct Timed {
    /// ms of every op, in order.
    ms: Vec<f64>,
    /// Median op ms of the quietest window.
    quiet_p50: f64,
    /// Ops per second of the fastest window.
    quiet_rate: f64,
    /// Slowest window median over quietest, minus one, in percent.
    window_spread_pct: f64,
}

/// Length of one window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);

/// Run ops for `seconds`, summarised per half-second
/// window; make `setups` set-ups in all, the extra ones between
/// windows, evenly spread over the phase.
///
/// Why windows: the sandbox this runs in alternates, for seconds at a
/// time, between a fast state and one 30-40 % slower (a neighbour on
/// the sibling hardware thread), so a whole-run median lands in either.
/// The quietest window is what two runs of the same code agree on; for
/// the same reason the extra set-ups are spread out, not made back to
/// back, and the fastest is reported.
fn timed_ops(
    run: &mut Run,
    w: &mut dyn Workload,
    seconds: f64,
    spans: &mut Spans,
    setups: u64,
) -> Result<Timed, String> {
    let mut ms = Vec::new();
    let mut medians = Vec::new();
    let mut quiet_rate = 0.0f64;
    // Seconds of op windows so far; set-ups between them do not count.
    let mut measured = 0.0f64;
    while measured < seconds {
        let start = Instant::now();
        let from = ms.len();
        while ms.len() == from || start.elapsed() < WINDOW {
            spans.next_op();
            let t = Instant::now();
            run.count(|run| spans.time("op", |s| w.op(s, &mut run.checks)));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall = start.elapsed().as_secs_f64();
        medians.push(median(&ms[from..]));
        quiet_rate = quiet_rate.max((ms.len() - from) as f64 / wall);
        measured += wall;
        // Set-ups due by now, counting the one made before the phase.
        let share = (measured / seconds).min(1.0);
        let due = 1 + (share * setups.saturating_sub(1) as f64) as u64;
        while (run.setup_s.len() as u64) < due {
            drop(run.set_up()?);
        }
    }
    let quiet_p50 = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = medians.iter().copied().fold(0.0, f64::max);
    Ok(Timed {
        ms,
        quiet_p50,
        quiet_rate,
        window_spread_pct: 100.0 * (slowest / quiet_p50 - 1.0),
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    let mut run = Run {
        name,
        seed,
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        setup_spans: Spans::new(true),
        setup_s: Vec::new(),
    };
    let mut results = Results::default();
    let mut w = run.set_up()?;

    // Warm-up ops, discarded.
    let mut quiet = Spans::new(false);
    let warm = Instant::now();
    let mut warm_ops = 0;
    while warm_ops == 0 || (warm_ops < 20 && warm.elapsed() < Duration::from_millis(250)) {
        run.count(|run| w.op(&mut quiet, &mut run.checks));
        warm_ops += 1;
    }

    // The untraced timed phase: every end-to-end number comes from it.
    // A traced run splits its seconds three ways: untraced ops, traced
    // ops, layer isolations.
    let phase_s = if trace {
        seconds as f64 / 3.0
    } else {
        seconds as f64
    };
    let setups = WORKLOADS
        .iter()
        .find(|info| info.name == name)
        .map_or(1, |info| info.setups);
    let timed = timed_ops(&mut run, w.as_mut(), phase_s, &mut quiet, setups)?;
    let n = timed.ms.len();
    let fastest_setup = run.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    results.set_n("setup_s", fastest_setup, run.setup_s.len());
    results.set_n("op_ms_p50", timed.quiet_p50, n);
    results.set_n("ops_per_s", timed.quiet_rate, n);
    results.set("harness.samples", n as f64);
    results.set_n("harness.op_ms_p50_all", median(&timed.ms), n);
    results.set_n("harness.op_ms_tail", tail(&timed.ms).1, n);
    results.set_n("harness.window_spread_pct", timed.window_spread_pct, n);
    // Peak memory belongs to the untraced phase like every end-to-end
    // number: the traced phase's isolations allocate on their own. It is
    // the process's high-water mark, so it is this workload's only when
    // the workload runs in a process of its own (as the driver runs it).
    results.set("peak_rss_mb", w.peak_rss_mb());

    if trace {
        // The traced phase, same process, set-up artifacts reused.
        let mut op_spans = Spans::new(true);
        let traced = timed_ops(&mut run, w.as_mut(), phase_s, &mut op_spans, 1)?;
        results.set_n(
            "harness.trace_overhead_pct",
            100.0 * (traced.quiet_p50 / timed.quiet_p50 - 1.0),
            traced.ms.len(),
        );
        if let Some((ms, n)) = op_spans.median_self_ms("op") {
            results.set_n("harness.op_self_ms", ms, n);
        }
        run.count(|run| w.layers(&mut op_spans, &mut run.checks, &mut results));
        for (metric, span) in SPAN_METRICS {
            let found = op_spans
                .median_round_ms(span)
                .or_else(|| run.setup_spans.median_round_ms(span));
            if let Some((ms, n)) = found {
                results.set_n(metric, ms, n);
            }
        }
        // Lowering is what compile does beyond calibration; on a model
        // whose calibration pass takes seconds the two separately timed
        // passes differ by more than the lowering, and no figure is given.
        if let (Some(compile), Some(calibrate)) = (
            results.get("compiler.compile_ms"),
            results.get("nn.calibrate_ms"),
        ) {
            if compile > calibrate {
                results.set("compiler.lower_ms", compile - calibrate);
            }
        }
        print_self_times(&run.setup_spans, &op_spans);
        if let Some(path) = trace_out {
            let mut all = run.setup_spans;
            all.absorb(op_spans);
            std::fs::write(path, all.to_chrome_json(name)).map_err(|e| format!("{path}: {e}"))?;
            println!("host trace: {} spans -> {path}", all.len());
        }
    }
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        results,
    })
}

fn print_self_times(setup: &Spans, ops: &Spans) {
    println!("\nhost spans (self = span minus its children):");
    println!(
        "  {:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (phase, spans) in [("set-up", setup), ("traced ops", ops)] {
        println!("  -- {phase}");
        for (name, n, total, own) in spans.self_time_table() {
            println!("  {name:<28} {n:>7} {total:>12.3} {own:>12.3}");
        }
    }
}

/// The human table of one workload's metrics.
fn print_table(name: &str, seed: u64, trace: bool, o: &Outcome) {
    println!(
        "\n=== {name} (seed {seed}): {} ops attempted, {} failed ===",
        o.attempted, o.failed
    );
    println!(
        "  {:<36} {:>16} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let row = |name: &str, unit: &str, tag: &str| {
        if let Some(v) = o.results.get(name) {
            println!(
                "  {:<36} {v:>16.4} {unit:<10} {:>8} {tag}",
                name,
                o.results.samples(name)
            );
        }
    };
    for e in &END_TO_END {
        row(e.name, e.unit, "");
    }
    if trace {
        for layer in &LAYERS {
            let mut header = false;
            for p in PER_LAYER.iter().filter(|p| p.layer == layer.name) {
                if o.results.get(p.name).is_some() && !header {
                    println!("  -- {}", layer.name);
                    header = true;
                }
                row(p.name, p.unit, &format!("[{}]", p.clock.tag()));
            }
        }
        println!(
            "  {} of {} per-layer metrics filled by this workload",
            o.results.filled_layers(),
            PER_LAYER.len()
        );
    }
}

/// The driver's last line: every end-to-end metric untraced, every
/// per-layer metric traced (0 where this workload does not enter the
/// layer).
fn result_json(trace: bool, o: &Outcome) -> Json {
    let metric = |name: &str, unit: &str| {
        let v = o.results.get(name).unwrap_or(0.0);
        (
            name.to_string(),
            obj([("value", Json::Float(v)), ("unit", Json::Str(unit.into()))]),
        )
    };
    let metrics: std::collections::BTreeMap<String, Json> = if trace {
        PER_LAYER.iter().map(|p| metric(p.name, p.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| metric(e.name, e.unit)).collect()
    };
    obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_list() {
    println!("workloads (closed loop, one client; default seed 42, held-out seed 7):");
    for w in &WORKLOADS {
        println!(
            "  {:<18} op: {}\n  {:<18} why: {}\n  {:<18} set-ups per run: {}",
            w.name, w.op, "", w.why, "", w.setups
        );
    }
    println!("\nend-to-end metrics (gated by bound):");
    for e in &END_TO_END {
        println!(
            "  {:<12} {:<5} better {:<6} bound {:>4.0}%  {}",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            e.what
        );
    }
    println!("\nper-layer metrics ([H] host clock, [M] modeled or count: exact repeat):");
    for layer in &LAYERS {
        println!("  -- {}: should move {}", layer.name, layer.moves);
        for p in PER_LAYER.iter().filter(|p| p.layer == layer.name) {
            println!(
                "     {:<36} {:<10} [{}] better {}",
                p.name,
                p.unit,
                p.clock.tag(),
                p.better
            );
        }
    }
    println!("{}", metrics::benchmark_json());
}

/// `--agree`: the same workload twice in fresh phases; host metrics
/// within their bound, modeled metrics identical.
fn agree(name: &str, a: &Outcome, b: &Outcome, trace: bool) -> bool {
    let mut ok = true;
    println!("\n=== agree: {name} ===");
    println!(
        "  {:<36} {:>14} {:>14} {:>8}  verdict",
        "metric", "run 1", "run 2", "ratio"
    );
    for e in &END_TO_END {
        if trace && e.name == "peak_rss_mb" {
            // One process, one high-water mark: the first run's traced
            // phase has already raised what the second run reads.
            println!("  {:<36} not compared after a traced run", e.name);
            continue;
        }
        let (x, y) = (
            a.results.get(e.name).unwrap_or(0.0),
            b.results.get(e.name).unwrap_or(0.0),
        );
        let worse = if e.better == "lower" { y / x } else { x / y };
        let pass = worse <= 1.0 + e.bound && 1.0 / worse <= 1.0 + e.bound;
        ok &= pass;
        println!(
            "  {:<36} {x:>14.4} {y:>14.4} {:>8.4}  {}",
            e.name,
            y / x,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    if trace {
        for p in PER_LAYER.iter().filter(|p| p.clock == Clock::Modeled) {
            let (x, y) = (a.results.get(p.name), b.results.get(p.name));
            // The sample count is a host quantity that happens to be a count.
            if x != y && p.name != "harness.samples" {
                ok = false;
                println!(
                    "  {:<36} {x:>14?} {y:>14?}  FAIL: modeled metrics must repeat exactly",
                    p.name
                );
            }
        }
    }
    ok &= a.failed == 0 && b.failed == 0;
    println!("  {name}: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    list: bool,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
        list: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--list" => args.list = true,
            "--agree" => args.agree = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (accepted: --workload NAME|all, --seed S, \
                     --seconds N, --trace 0|1, --trace-out FILE, --list, --agree)"
                ))
            }
        }
    }
    if args.trace_out.is_some() && (!args.trace || args.workload == "all") {
        return Err("--trace-out needs --trace 1 and a single --workload".into());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list {
        print_list();
        return Ok(true);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let go = |name: &str| {
        let o = run_workload(
            name,
            args.seed,
            args.seconds,
            args.trace,
            args.trace_out.as_deref(),
        )?;
        print_table(name, args.seed, args.trace, &o);
        Ok::<_, String>(o)
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for name in names {
        let first = go(name)?;
        if args.agree {
            ok &= agree(name, &first, &go(name)?, args.trace);
        }
        ok &= first.failed == 0;
        lines.push((name, result_json(args.trace, &first)));
    }
    // Last line: the one workload's result object, or for `all` an
    // object of them by name.
    if lines.len() == 1 && args.workload != "all" {
        println!("{}", lines[0].1);
    } else {
        println!("{}", obj(lines));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
