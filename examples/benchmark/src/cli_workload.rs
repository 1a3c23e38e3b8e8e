//! `cli_cold`: what a user at a shell waits for. One op is one pass of
//! a 15-entry script of `rv-nvdla` processes; every process starts
//! cold, so process start, zoo build, compile and SoC construction are
//! all in the measurement.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::metrics::Results;
use crate::models::Checks;
use crate::spans::{children_peak_rss_mb, Spans};
use crate::Workload;

/// One script entry: the span (and `cli.<name>_ms` metric) it feeds,
/// its arguments, and a string its stdout must contain.
struct Entry {
    span: &'static str,
    args: Vec<String>,
    marker: &'static str,
    /// `--json` output: must be byte-identical on every pass.
    stable: bool,
}

pub struct CliCold {
    binary: PathBuf,
    scratch: PathBuf,
    script: Vec<Entry>,
    /// First pass's stdout of each `stable` entry.
    pinned: Vec<Option<Vec<u8>>>,
}

fn entry(span: &'static str, args: &str, marker: &'static str) -> Entry {
    Entry {
        span,
        args: args.split_whitespace().map(str::to_string).collect(),
        marker,
        stable: args.contains("--json"),
    }
}

impl CliCold {
    /// # Errors
    ///
    /// When the CLI binary is not beside the harness (the run script
    /// builds both into one target directory).
    pub fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("harness binary has no directory")?;
        let binary = dir.join("rv-nvdla");
        if !binary.is_file() {
            return Err(format!(
                "{} not found: build the root package's binary into the same target directory",
                binary.display()
            ));
        }
        // One directory per instance: set-up is repeated, and dropping
        // an earlier instance must not pull the directory from under
        // the one still running.
        static INSTANCES: AtomicU32 = AtomicU32::new(0);
        let scratch = dir.join(format!(
            "rvnv-benchmark-scratch-{}-{}",
            std::process::id(),
            INSTANCES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let models = "--models lenet5,resnet18";
        let script = vec![
            entry("cli.compile_lenet5", "compile lenet5 --out out", "LeNet-5"),
            entry("cli.run_lenet5", "run lenet5", "LeNet-5:"),
            entry("cli.run_resnet18", "run resnet18", "ResNet-18:"),
            entry("cli.run_lenet5_fp16", "run lenet5 --fp16", "LeNet-5:"),
            entry(
                "cli.run_repeat20",
                "run lenet5 --timing-only --wfi --repeat 20",
                "all warm runs bit-identical",
            ),
            entry("cli.sweep", "sweep lenet5 --threads 2", "timing-only sweep"),
            entry(
                "cli.batch_serial",
                &format!("batch {models} --frames 6 --policy rr --threads 2"),
                "2 models resident",
            ),
            entry(
                "cli.batch_pipeline",
                &format!("batch {models} --frames 6 --policy eff --pipeline"),
                "2 models resident",
            ),
            entry(
                "cli.serve_120",
                &format!("serve {models} --rate 120 --seed {seed} --json"),
                "\"replay_divergence\":0",
            ),
            entry(
                "cli.serve_400",
                &format!("serve {models} --rate 400 --seed {seed} --json"),
                "\"replay_divergence\":0",
            ),
            entry(
                "cli.fleet",
                &format!("fleet {models} --seed {seed} --json"),
                "\"replay_divergence\":0",
            ),
            entry("cli.traces", "traces", "PASS"),
            entry("cli.models", "models", "ResNet-50"),
            entry("cli.resources", "resources", "nv_small"),
            entry(
                "cli.fuzz_riscv",
                &format!("fuzz riscv --budget 30 --seed {seed}"),
                "1/1 targets clean",
            ),
        ];
        let mut cli = CliCold {
            binary,
            scratch,
            pinned: vec![None; script.len()],
            script,
        };
        // The first pass pins the `--json` bytes every later pass must
        // reproduce.
        cli.pass(spans, checks);
        Ok(cli)
    }

    fn run(&self, args: &[String]) -> Option<Vec<u8>> {
        let out = Command::new(&self.binary)
            .args(args)
            .current_dir(&self.scratch)
            .output()
            .ok()?;
        out.status.success().then_some(out.stdout)
    }

    fn pass(&mut self, spans: &mut Spans, checks: &mut Checks) {
        for i in 0..self.script.len() {
            let e = &self.script[i];
            let stdout = spans.time(e.span, |_| self.run(&e.args));
            let ok = stdout.as_ref().is_some_and(|bytes| {
                String::from_utf8_lossy(bytes).contains(e.marker)
                    && self.pinned[i].as_ref().is_none_or(|first| first == bytes)
            });
            checks.check(ok, || {
                format!(
                    "rv-nvdla {}: non-zero exit, missing `{}`, or --json bytes changed",
                    e.args.join(" "),
                    e.marker
                )
            });
            if e.stable && self.pinned[i].is_none() {
                self.pinned[i] = stdout;
            }
        }
    }
}

impl Drop for CliCold {
    fn drop(&mut self) {
        // Best effort: the scratch directory only holds `compile --out`
        // files inside the target directory.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

impl Workload for CliCold {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        self.pass(spans, checks);
    }

    /// The harness only waits; the memory a user sees is the children's.
    fn peak_rss_mb(&self) -> f64 {
        children_peak_rss_mb()
    }

    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results) {
        for e in &self.script {
            let metric = format!("{}_ms", e.span);
            if let Some((ms, n)) = spans.median_round_ms(e.span) {
                out.set_n(&metric, ms, n);
            }
        }
        // AlexNet FP16 once, after every timed pass: the child that
        // faults in the most memory, and the sixth Table III model.
        spans.next_op();
        let args: Vec<String> = "run alexnet --fp16 --timing-only"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let stdout = spans.time("cli.run_alexnet_fp16", |_| self.run(&args));
        let cycles = stdout.as_ref().and_then(|bytes| {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let rest = text.strip_prefix("AlexNet: ")?;
            rest.split_whitespace().next()?.parse::<u64>().ok()
        });
        if checks.check(cycles.is_some(), || {
            "rv-nvdla run alexnet --fp16 --timing-only: no cycle count".into()
        }) {
            out.set(
                "soc.modeled_cycles.alexnet-fp16",
                cycles.expect("checked") as f64,
            );
            out.set("cli.max_rss_mb.alexnet_fp16", children_peak_rss_mb());
        }
    }
}
