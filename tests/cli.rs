//! CLI contract tests. Degenerate inputs: a nonsensical request must
//! exit nonzero with an error that names the offending flag and what a
//! valid value looks like — never be silently clamped to something
//! runnable (`--frames 0` used to become `--frames 1`). Smoke: every
//! subcommand runs and prints the lines a reader looks for. Golden
//! reports: six serve/fleet command lines, byte for byte.

use std::process::Command;

/// Run the built binary; return (success, stderr).
fn rv_nvdla(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rv-nvdla"))
        .args(args)
        .output()
        .expect("run rv-nvdla");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The command must fail and the error must contain every needle.
fn assert_rejects(args: &[&str], needles: &[&str]) {
    let (ok, stderr) = rv_nvdla(args);
    assert!(!ok, "`rv-nvdla {}` must fail", args.join(" "));
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "`rv-nvdla {}` stderr must mention {needle:?}, got:\n{stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn batch_rejects_zero_frames() {
    assert_rejects(
        &["batch", "--models", "lenet5", "--frames", "0"],
        &["--frames", ">= 1"],
    );
}

#[test]
fn serve_rejects_zero_rate() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--rate", "0"],
        &["--rate", ">= 1"],
    );
}

#[test]
fn serve_rejects_zero_queue_depth() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--queue-depth", "0"],
        &["--queue-depth", ">= 1"],
    );
}

#[test]
fn serve_rejects_zero_duration_and_workers() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--duration", "0"],
        &["--duration", ">= 1"],
    );
    assert_rejects(
        &["serve", "--models", "lenet5", "--workers", "0"],
        &["--workers", ">= 1"],
    );
}

#[test]
fn batch_and_serve_reject_empty_model_lists() {
    for cmd in ["batch", "serve"] {
        assert_rejects(&[cmd, "--models", ""], &["--models", "empty"]);
        assert_rejects(&[cmd, "--models", " , "], &["--models", "empty"]);
        assert_rejects(&[cmd], &["--models"]);
    }
}

#[test]
fn batch_and_serve_reject_duplicate_models() {
    for cmd in ["batch", "serve"] {
        assert_rejects(
            &[cmd, "--models", "lenet5,lenet5"],
            &["duplicate model `lenet5`"],
        );
        // The normalized spelling is a duplicate too.
        assert_rejects(&[cmd, "--models", "lenet5,LeNet-5"], &["duplicate model"]);
    }
}

#[test]
fn serve_rejects_unknown_policy_and_arrivals() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--policy", "fifo"],
        &["unknown policy `fifo`", "rr|sqf|eff"],
    );
    assert_rejects(
        &["serve", "--models", "lenet5", "--arrivals", "bursty"],
        &["unknown arrival process `bursty`", "poisson|fixed"],
    );
}

#[test]
fn serve_rejects_unknown_flags_with_the_accepted_list() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--rps", "100"],
        &["unknown flag `--rps`", "--rate", "--queue-depth"],
    );
    // And stray positionals: serve takes its models via --models only.
    assert_rejects(&["serve", "lenet5"], &["unexpected argument `lenet5`"]);
}

#[test]
fn serve_rejects_a_zero_timeout() {
    // A zero deadline would abort every attempt at birth.
    assert_rejects(
        &["serve", "--models", "lenet5", "--timeout-us", "0"],
        &["--timeout-us", ">= 1"],
    );
}

#[test]
fn serve_rejects_retries_without_a_timeout() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--retries", "2"],
        &["--retries needs --timeout-us"],
    );
}

#[test]
fn serve_rejects_malformed_fault_specs() {
    // A bare term with no `=` names itself in the error.
    assert_rejects(
        &["serve", "--models", "lenet5", "--faults", "errors"],
        &["`errors`", "not key=value"],
    );
    // An unknown key lists what it could have been.
    assert_rejects(
        &["serve", "--models", "lenet5", "--faults", "seed=1,frobs=9"],
        &["unknown fault-spec key `frobs`"],
    );
    // Hang faults are undetectable without a watchdog.
    assert_rejects(
        &["serve", "--models", "lenet5", "--faults", "hangs=1000"],
        &["hangs", "needs --timeout-us"],
    );
    // The per-attempt lottery draws one ticket per million.
    assert_rejects(
        &[
            "serve",
            "--models",
            "lenet5",
            "--timeout-us",
            "10000",
            "--faults",
            "errors=900000,crashes=200000",
        ],
        &["sum to 1100000", "<= 1000000"],
    );
}

#[test]
fn fleet_rejects_degenerate_pool_specs() {
    assert_rejects(
        &["fleet", "--models", "lenet5", "--pools", "0"],
        &["unknown pool class `0`", "nv_small|nv_full"],
    );
    assert_rejects(
        &[
            "fleet",
            "--models",
            "lenet5",
            "--pools",
            "nv_small:workers=zzz",
        ],
        &["`workers` value `zzz`", "not an integer"],
    );
    assert_rejects(
        &["fleet", "--models", "lenet5", "--pools", "nv_small:frobs=2"],
        &["unknown key `frobs`", "workers|min|max|queue|models"],
    );
    // Autoscaler bounds must bracket the starting worker count.
    assert_rejects(
        &[
            "fleet",
            "--models",
            "lenet5",
            "--pools",
            "nv_small:min=3,max=1",
        ],
        &["min <= workers <= max"],
    );
    assert_rejects(
        &["fleet", "--models", "lenet5", "--pools", ""],
        &["at least one pool"],
    );
}

#[test]
fn fleet_rejects_unknown_route_shape_and_flags() {
    assert_rejects(
        &["fleet", "--models", "lenet5", "--route", "zig"],
        &[
            "unknown route policy `zig`",
            "weighted|least-loaded|model-affinity",
        ],
    );
    assert_rejects(
        &["fleet", "--models", "lenet5", "--shape", "square"],
        &[
            "unknown traffic shape `square`",
            "steady|diurnal|bursty|flash-crowd",
        ],
    );
    // serve's flag is not fleet's flag: workers live in the pool spec.
    assert_rejects(
        &["fleet", "--models", "lenet5", "--workers", "2"],
        &["unknown flag `--workers`", "--pools"],
    );
    assert_rejects(&["fleet", "lenet5"], &["unexpected argument `lenet5`"]);
}

#[test]
fn fleet_rejects_homeless_models_and_misclassed_pools() {
    // Every --models entry needs a home in some pool's models= subset.
    assert_rejects(
        &[
            "fleet",
            "--models",
            "lenet5,resnet18",
            "--pools",
            "nv_small:models=lenet5",
        ],
        &["is resident in no pool"],
    );
    // nv_small silicon cannot host the nv_full-only zoo models.
    assert_rejects(
        &[
            "fleet",
            "--models",
            "alexnet",
            "--pools",
            "nv_small:workers=1",
        ],
        &["nv_full-only"],
    );
    // Inverted autoscaler thresholds would flap forever.
    assert_rejects(
        &[
            "fleet",
            "--models",
            "lenet5",
            "--scale-up-below",
            "90",
            "--scale-down-above",
            "50",
        ],
        &["--scale-up-below", "--scale-down-above"],
    );
}

/// Run the built binary; return (success, stdout) — for commands whose
/// *output* is the contract, not their error path.
fn rv_nvdla_stdout(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rv-nvdla"))
        .args(args)
        .output()
        .expect("run rv-nvdla");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `serve --json` is the machine-readable contract: every field is
/// modeled (host wall-clock excluded), so two runs of the same spec
/// print byte-identical JSON, and the totals reconcile exactly like
/// the human table's.
#[test]
fn serve_json_report_is_stable_and_reconciles() {
    use rv_nvdla::prelude::Json;
    let args = [
        "serve",
        "--models",
        "lenet5",
        "--rate",
        "200",
        "--duration",
        "80",
        "--json",
    ];
    let (ok, first) = rv_nvdla_stdout(&args);
    assert!(ok, "serve --json must succeed, got:\n{first}");
    let (ok2, second) = rv_nvdla_stdout(&args);
    assert!(ok2);
    assert_eq!(
        first, second,
        "two runs of the same spec must print byte-identical JSON"
    );
    let v = Json::parse(&first).expect("serve --json must print valid JSON");
    let served = v.get("served").and_then(Json::as_u64).expect("served");
    let dropped = v.get("dropped").and_then(Json::as_u64).expect("dropped");
    let offered = v.get("offered").and_then(Json::as_u64).expect("offered");
    assert!(served > 0, "nothing served:\n{first}");
    assert_eq!(
        served + dropped,
        offered,
        "books must balance in the JSON view"
    );
    assert_eq!(v.get("policy").and_then(Json::as_str), Some("rr"));
    assert_eq!(
        v.get("replay_divergence").and_then(Json::as_u64),
        Some(0),
        "real SoCs must match the plan"
    );
    let per_model = v
        .get("per_model")
        .and_then(Json::as_array)
        .expect("per_model");
    let pm: u64 = per_model
        .iter()
        .map(|m| {
            m.get("served")
                .and_then(Json::as_u64)
                .expect("model served")
        })
        .sum();
    assert_eq!(pm, served, "per-model served must sum to the total");
}

/// `fleet --json`: same contract as serve's — stable bytes, balanced
/// books, per-pool breakdown consistent with the totals.
#[test]
fn fleet_json_report_is_stable_and_reconciles() {
    use rv_nvdla::prelude::Json;
    let args = [
        "fleet",
        "--models",
        "lenet5",
        "--pools",
        "nv_small:workers=2",
        "--rate",
        "200",
        "--duration",
        "80",
        "--json",
    ];
    let (ok, first) = rv_nvdla_stdout(&args);
    assert!(ok, "fleet --json must succeed, got:\n{first}");
    let (ok2, second) = rv_nvdla_stdout(&args);
    assert!(ok2);
    assert_eq!(
        first, second,
        "two runs of the same spec must print byte-identical JSON"
    );
    let v = Json::parse(&first).expect("fleet --json must print valid JSON");
    let served = v.get("served").and_then(Json::as_u64).expect("served");
    let dropped = v.get("dropped").and_then(Json::as_u64).expect("dropped");
    let shed = v.get("shed").and_then(Json::as_u64).expect("shed");
    let offered = v.get("offered").and_then(Json::as_u64).expect("offered");
    assert!(served > 0, "nothing served:\n{first}");
    assert_eq!(served + dropped + shed, offered, "fleet books must balance");
    let per_pool = v
        .get("per_pool")
        .and_then(Json::as_array)
        .expect("per_pool");
    let routed: u64 = per_pool
        .iter()
        .map(|p| p.get("routed").and_then(Json::as_u64).expect("pool routed"))
        .sum();
    assert_eq!(routed + shed, offered, "balancer books must balance");
}

/// `serve --pipeline --trace-out/--metrics-out` writes a Perfetto-
/// loadable trace and a metrics dump that mirror the report: well-formed
/// JSON, a named thread per worker, ≥1 span per phase the pipelined
/// server exercises, and registry counters equal to the `--json`
/// report's. This is the checker behind CI's trace-smoke step.
#[test]
fn serve_trace_out_writes_a_checkable_perfetto_trace() {
    use rv_nvdla::prelude::Json;
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("rvnv-trace-{}.json", std::process::id()));
    let metrics_path = dir.join(format!("rvnv-metrics-{}.json", std::process::id()));
    let (ok, stdout) = rv_nvdla_stdout(&[
        "serve",
        "--models",
        "lenet5",
        "--pipeline",
        "--workers",
        "2",
        "--rate",
        "600",
        "--duration",
        "80",
        "--json",
        "--trace-out",
        trace_path.to_str().expect("utf-8 temp path"),
        "--metrics-out",
        metrics_path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(ok, "traced serve must succeed, got:\n{stdout}");
    let report = Json::parse(&stdout).expect("serve --json must print valid JSON");

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let v = Json::parse(&trace).expect("trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // A named thread per worker.
    for w in 0..2 {
        let name = format!("worker {w}");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some(name.as_str())
            }),
            "trace must have a thread for {name}"
        );
    }
    // ≥1 span per phase the pipelined server exercises.
    for cat in ["queue_wait", "ps_burst", "compute"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(Json::as_str) == Some(cat)),
            "trace must contain at least one {cat} span"
        );
    }

    // The metrics dump mirrors the structured report.
    let metrics = Json::parse(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics must be valid JSON");
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("serve.served"))
            .and_then(Json::as_u64),
        report.get("served").and_then(Json::as_u64),
        "serve.served counter must equal the report's served"
    );
    assert_eq!(
        metrics
            .get("histograms")
            .and_then(|h| h.get("serve.total_cycles"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        report.get("served").and_then(Json::as_u64),
        "one total-latency observation per served request"
    );
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}

/// The observability flags are strictly validated like every other
/// flag: a value flag without a value fails loudly, and `--json` exists
/// only where there is a structured report to print.
#[test]
fn observability_flags_are_strictly_validated() {
    assert_rejects(
        &["serve", "--models", "lenet5", "--trace-out"],
        &["--trace-out needs a value"],
    );
    assert_rejects(
        &["run", "lenet5", "--metrics-out"],
        &["--metrics-out needs a value"],
    );
    assert_rejects(
        &["run", "lenet5", "--json"],
        &["unknown flag `--json`", "--trace-out"],
    );
    assert_rejects(
        &["batch", "--models", "lenet5", "--json"],
        &["unknown flag `--json`", "--metrics-out"],
    );
}

/// `run --repeat` reports the decoded-block-cache counters for the
/// warm runs: fully warm replays show hits and zero misses, and the
/// poll firmware's status reads are folded into the MMIO read lease.
/// Timing-only + wfi keeps this fast enough for a debug-profile test.
#[test]
fn run_repeat_reports_block_cache_counters() {
    let (ok, stdout) =
        rv_nvdla_stdout(&["run", "lenet5", "--timing-only", "--wfi", "--repeat", "2"]);
    assert!(ok, "run --repeat must succeed, got:\n{stdout}");
    assert!(
        stdout.contains("all warm runs bit-identical"),
        "missing warm-identity line:\n{stdout}"
    );
    let cache_line = stdout
        .lines()
        .find(|l| l.starts_with("block cache:"))
        .unwrap_or_else(|| panic!("missing block-cache line:\n{stdout}"));
    assert!(
        cache_line.contains("hits") && cache_line.contains("misses"),
        "cache line must report hit/miss counters: {cache_line}"
    );
    assert!(
        cache_line.contains("0 misses"),
        "a warm run must replay without decoding: {cache_line}"
    );
}

/// Run a command that must succeed; return its stdout.
fn stdout_of(args: &[&str]) -> String {
    let (ok, stdout) = rv_nvdla_stdout(args);
    assert!(
        ok,
        "`rv-nvdla {}` must succeed, got:\n{stdout}",
        args.join(" ")
    );
    stdout
}

#[test]
fn run_sweep_and_batch_reject_unknown_flags() {
    assert_rejects(
        &["run", "lenet5", "--bogus"],
        &["unknown flag `--bogus`", "--timing-only"],
    );
    assert_rejects(
        &["sweep", "lenet5", "--timingonly"],
        &["unknown flag `--timingonly`", "--clocks"],
    );
    assert_rejects(
        &["batch", "--models", "lenet5", "--frame", "2"],
        &["unknown flag `--frame`", "--frames"],
    );
}

/// The listings: the zoo, and Table I's resource model with the paper's
/// finding that only `nv_small` fits the ZCU102.
#[test]
fn models_and_resources_list_the_zoo_and_the_fit() {
    let models = stdout_of(&["models"]);
    for name in [
        "LeNet-5",
        "ResNet-18",
        "ResNet-50",
        "MobileNet",
        "GoogleNet",
        "AlexNet",
    ] {
        assert!(models.contains(name), "missing {name}:\n{models}");
    }
    let resources = stdout_of(&["resources"]);
    let fits = |class: &str| {
        let line = resources
            .lines()
            .find(|l| l.starts_with(class))
            .unwrap_or_else(|| panic!("no {class} line:\n{resources}"));
        line.ends_with("fits ZCU102: true")
    };
    assert!(fits("nv_small") && !fits("nv_full"), "{resources}");
}

/// `compile --out` writes the paper's four offline artifacts.
#[test]
fn compile_out_writes_config_weights_assembly_and_image() {
    let dir = std::env::temp_dir().join(format!("rvnv-compile-{}", std::process::id()));
    stdout_of(&["compile", "lenet5", "--out", dir.to_str().expect("utf-8")]);
    for file in ["lenet5.cfg", "lenet5_weights.bin", "lenet5.s", "lenet5.mem"] {
        let len = std::fs::metadata(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} not written: {e}"))
            .len();
        assert!(len > 0, "{file} is empty");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_prints_one_row_per_clock() {
    let out = stdout_of(&[
        "sweep",
        "lenet5",
        "--clocks",
        "50,100,200",
        "--threads",
        "2",
    ]);
    for mhz in ["50 MHz", "100 MHz", "200 MHz"] {
        assert!(out.contains(mhz), "missing the {mhz} row:\n{out}");
    }
}

/// Multi-model residency round trips: both serial policies on worker
/// threads, a functional drain, and the pipelined preload — including
/// `eff`, the policy that only exists under contention.
#[test]
fn batch_drains_in_every_mode() {
    for args in [
        &[
            "--models",
            "lenet5,resnet18",
            "--frames",
            "6",
            "--policy",
            "rr",
            "--threads",
            "2",
        ][..],
        &[
            "--models",
            "lenet5,resnet18",
            "--frames",
            "4",
            "--policy",
            "sqf",
        ],
        &["--models", "lenet5", "--frames", "2", "--functional"],
        &[
            "--models",
            "lenet5,resnet18",
            "--frames",
            "6",
            "--policy",
            "eff",
            "--pipeline",
        ],
        &[
            "--models",
            "lenet5,resnet18",
            "--frames",
            "4",
            "--policy",
            "rr",
            "--pipeline",
            "--functional",
        ],
    ] {
        let mut argv = vec!["batch"];
        argv.extend(args);
        let out = stdout_of(&argv);
        assert!(out.contains("total:"), "`{}`:\n{out}", argv.join(" "));
    }
}

/// The human-readable reports of a chaos serve and a heterogeneous
/// fleet (their `--json` twins are pinned by the golden digests below).
#[test]
fn serve_and_fleet_print_their_tables() {
    let serve = stdout_of(&[
        "serve",
        "--models",
        "lenet5,resnet18",
        "--rate",
        "150",
        "--duration",
        "200",
        "--seed",
        "42",
        "--workers",
        "2",
        "--timeout-us",
        "10000",
        "--retries",
        "2",
        "--faults",
        "seed=7,flips=30000,errors=60000,spikes=30000,spike-us=2000,hangs=15000,crashes=15000",
    ]);
    for needle in ["p99", "total", "faults:", "replay divergence 0"] {
        assert!(serve.contains(needle), "serve lacks {needle:?}:\n{serve}");
    }
    let fleet = stdout_of(&[
        "fleet",
        "--models",
        "lenet5,resnet18",
        "--pools",
        "nv_small:workers=2;nv_full:workers=1",
        "--route",
        "model-affinity",
        "--shape",
        "diurnal",
        "--rate",
        "250",
        "--duration",
        "200",
        "--seed",
        "42",
    ]);
    for needle in ["nv_small", "nv_full", "p99", "divergence 0"] {
        assert!(fleet.contains(needle), "fleet lacks {needle:?}:\n{fleet}");
    }
}

#[test]
fn validation_traces_pass() {
    let out = stdout_of(&["traces"]);
    for name in ["sanity", "convolution", "memory"] {
        assert!(
            out.lines()
                .any(|l| l.starts_with(&format!("trace {name}")) && l.contains("PASS")),
            "trace {name} must pass:\n{out}"
        );
    }
}

/// FNV-1a digest of a byte stream, as 16 hex digits.
fn digest(bytes: &[u8]) -> String {
    let mut h = rv_nvdla::rvnv_nn::hash::Fnv::new();
    h.bytes(bytes);
    format!("{:016x}", h.finish())
}

/// Golden reports: `--json` stdout, the `--metrics-out` dump and (for
/// `serve`, whose Chrome trace is part of the contract) the
/// `--trace-out` file of fixed command lines, pinned as FNV-1a digests
/// recorded at the commit before the two queueing loops became one
/// kernel. Every byte is modeled — no host time — so a digest moves
/// only when the queueing model, a report field or a span does. The
/// lines cover: quiet serial, pipelined `eff` on two workers, CI's
/// chaos line, a rate above the knee (drops), a heterogeneous
/// affinity-routed diurnal fleet, and a flash crowd that makes the
/// autoscaler add and drain workers.
#[test]
fn serve_and_fleet_reports_match_their_golden_digests() {
    const MODELS: [&str; 2] = ["--models", "lenet5,resnet18"];
    const CHAOS: &str =
        "seed=7,flips=30000,errors=60000,spikes=30000,spike-us=2000,hangs=15000,crashes=15000";
    #[rustfmt::skip]
    let golden: [(&str, &[&str], [&str; 3]); 6] = [
        ("serve", &["--rate", "150", "--duration", "200", "--seed", "42"],
            ["f854d0209117b945", "23173cc121048ace", "f90ebdce0952ba31"]),
        ("serve", &["--policy", "eff", "--pipeline", "--workers", "2", "--arrivals", "fixed",
                    "--rate", "300", "--duration", "150", "--seed", "42"],
            ["e3cf589a69dd91a5", "ad9b407a071422b6", "3b84ccd0a8097d85"]),
        ("serve", &["--rate", "150", "--duration", "200", "--seed", "42", "--workers", "2",
                    "--timeout-us", "10000", "--retries", "2", "--faults", CHAOS],
            ["a108f97f9ce43722", "073b9cc6c4e6eb67", "fc7389aab87ffb3b"]),
        ("serve", &["--rate", "400", "--duration", "200", "--seed", "42"],
            ["d0453d150c5c203c", "bd8cb45cf0871479", "6868ef319b2b557a"]),
        ("fleet", &["--pools", "nv_small:workers=2;nv_full:workers=1", "--route", "model-affinity",
                    "--shape", "diurnal", "--rate", "250", "--duration", "200", "--seed", "42"],
            ["1c0568fd2a600ca2", "7f78c8c3299ceb1a", ""]),
        ("fleet", &["--pools", "nv_small:workers=1,min=1,max=4;nv_full:workers=1,min=1,max=2",
                    "--shape", "flash-crowd", "--rate", "600", "--duration", "300", "--seed", "42",
                    "--scale-window", "20"],
            ["e72d167865f38a21", "f5b641fce867aeb0", ""]),
    ];
    let dir = std::env::temp_dir();
    let mut moved = Vec::new();
    for (i, (cmd, flags, want)) in golden.iter().enumerate() {
        let metrics = dir.join(format!(
            "rvnv-golden-{}-{i}.metrics.json",
            std::process::id()
        ));
        let trace = dir.join(format!("rvnv-golden-{}-{i}.trace.json", std::process::id()));
        let mut args = vec![*cmd];
        args.extend(MODELS);
        args.extend(*flags);
        args.extend(["--json", "--metrics-out", metrics.to_str().expect("utf-8")]);
        args.extend(["--trace-out", trace.to_str().expect("utf-8")]);
        let (ok, stdout) = rv_nvdla_stdout(&args);
        assert!(ok, "`rv-nvdla {}` must succeed", args.join(" "));
        let metrics_bytes = std::fs::read(&metrics).expect("metrics file written");
        let trace_bytes = std::fs::read(&trace).expect("trace file written");
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&trace).ok();
        let mut got = vec![digest(stdout.as_bytes()), digest(&metrics_bytes)];
        if !want[2].is_empty() {
            got.push(digest(&trace_bytes));
        }
        if got != want[..got.len()] {
            moved.push(format!("line {i} (`{}`): got {got:?}", args.join(" ")));
        }
    }
    assert!(
        moved.is_empty(),
        "[stdout, metrics, trace] digests moved:\n{}",
        moved.join("\n")
    );
}
