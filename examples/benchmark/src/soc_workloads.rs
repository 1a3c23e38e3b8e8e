//! The five workloads that drive `rvnv_soc::soc` directly:
//! `small_functional`, `small_timing_warm`, `sweep_cold`,
//! `resnet50_int8` and `table3_fp16`. They differ only in the inputs
//! they compile and the public calls they make.

use std::time::Instant;

use rv_nvdla::rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rv_nvdla::rvnv_compiler::{CompileOptions, VirtualPlatform};
use rv_nvdla::rvnv_nn::zoo::Model;
use rv_nvdla::rvnv_nvdla::{HwConfig, Precision};
use rv_nvdla::rvnv_soc::soc::{InferenceResult, Soc, SocConfig};
use rvnv_bench::{inference_fingerprint as fingerprint, nv_full_vp_timing};
use rvnv_util::SplitMix64;

use crate::metrics::Results;
use crate::models::{
    compile_set, cpi_milli, modeled_counters, paper_error_pct, table2_options, verify, Checks,
    Compiled, Verified,
};
use crate::probes;
use crate::spans::Spans;
use crate::Workload;

/// Which layer isolations a workload's traced phase adds.
#[derive(Clone, Copy)]
enum Probe {
    Nn,
    Toolflow,
    Conv { large: bool, precision: Precision },
    Iss,
    Bus,
}

/// A compiled model set with one warm timing-only SoC per model and,
/// for the functional workloads, one warm functional SoC per model.
struct SocSet {
    set: Vec<Compiled>,
    verified: Vec<Verified>,
    timing: SocConfig,
    seed: u64,
}

impl SocSet {
    fn setup(
        models: &[Model],
        opt: &CompileOptions,
        timing: SocConfig,
        functional: Option<SocConfig>,
        seed: u64,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> Self {
        let set = compile_set(models, opt, CodegenOptions::default(), seed, spans);
        let verified = set
            .iter()
            .map(|c| verify(c, &timing, functional.as_ref(), spans, checks))
            .collect();
        SocSet {
            set,
            verified,
            timing,
            seed,
        }
    }

    /// One warm inference per model, each checked against the set-up
    /// fingerprint.
    fn run_all(&mut self, functional: bool, spans: &mut Spans, checks: &mut Checks) {
        for (c, v) in self.set.iter().zip(&mut self.verified) {
            let (name, soc, want) = match (&mut v.functional, functional) {
                (Some((soc, fp)), true) => ("soc.run_warm_functional", soc, *fp),
                _ => ("soc.run_warm_timing", &mut v.timing, v.timing_fp),
            };
            let r = spans.time(name, |_| {
                soc.run_firmware(&c.artifacts, &c.input, &c.fw)
                    .expect("warm inference runs")
            });
            checks.check(fingerprint(&r) == want, || {
                format!("{}: op fingerprint differs from the set-up run", c.key)
            });
        }
    }

    /// The per-layer rows every SoC workload fills: modeled counters of
    /// one warm inference per model, simulation rates, functional minus
    /// timing, paper error — then the isolations in `probes`.
    fn layers(
        &mut self,
        probes: &[Probe],
        spans: &mut Spans,
        checks: &mut Checks,
        out: &mut Results,
    ) {
        // Modeled counters come from a SoC that records the timeline;
        // its second (warm) run is the one read out.
        let with_timeline = SocConfig {
            capture_timeline: true,
            ..self.timing.clone()
        };
        let warm: Vec<InferenceResult> = self
            .set
            .iter()
            .map(|c| {
                let mut soc = Soc::new(with_timeline.clone());
                let mut run = || {
                    soc.run_firmware(&c.artifacts, &c.input, &c.fw)
                        .expect("inference runs")
                };
                run();
                run()
            })
            .collect();
        for ((c, v), r) in self.set.iter().zip(&self.verified).zip(&warm) {
            checks.check(r.cycles == v.cycles, || {
                format!("{}: timeline capture changed the cycle count", c.key)
            });
            modeled_counters(c, r, out);
        }
        cpi_milli(&warm, out);
        let rows: Vec<_> = self
            .set
            .iter()
            .zip(&warm)
            .map(|(c, r)| (c.model, c.artifacts.precision, r.cycles))
            .collect();
        if let Some(err) = paper_error_pct(&rows) {
            out.set("paper.error_pct", err);
        }

        // Simulation rates over warm timing-only passes, and (where a
        // functional SoC exists) functional passes for the difference.
        let has_functional = self.verified.iter().all(|v| v.functional.is_some());
        let budget = Instant::now();
        let mut passes = 0;
        while passes < 3 || budget.elapsed().as_millis() < 150 {
            spans.next_op();
            self.run_all(false, spans, checks);
            if has_functional {
                self.run_all(true, spans, checks);
            }
            passes += 1;
        }
        let (timing_ms, n) = spans
            .median_round_ms("soc.run_warm_timing")
            .expect("timing passes ran");
        let cycles: u64 = warm.iter().map(|r| r.cycles).sum();
        let instr: u64 = warm.iter().map(|r| r.instructions).sum();
        out.set_n("soc.sim_mcycles_per_s", cycles as f64 / 1e3 / timing_ms, n);
        out.set_n("soc.sim_minstr_per_s", instr as f64 / 1e3 / timing_ms, n);
        if let Some((functional_ms, n)) = spans.median_round_ms("soc.run_warm_functional") {
            out.set_n("soc.engine_compute_ms", functional_ms - timing_ms, n);
        }

        spans.next_op();
        for probe in probes {
            match *probe {
                Probe::Nn => {
                    let outputs: Vec<InferenceResult> = self
                        .set
                        .iter()
                        .zip(&mut self.verified)
                        .filter_map(|(c, v)| {
                            v.functional.as_mut().map(|(soc, _)| {
                                soc.run_firmware(&c.artifacts, &c.input, &c.fw)
                                    .expect("warm inference runs")
                            })
                        })
                        .collect();
                    probes::nn(&self.set, &outputs, spans, out);
                }
                Probe::Toolflow => probes::toolflow(&self.set[0], spans, checks),
                Probe::Conv { large, precision } => {
                    probes::conv_kernel(large, precision, self.seed, checks, out);
                }
                Probe::Iss => probes::iss(checks, out),
                Probe::Bus => probes::bus(out),
            }
        }
        probes::timing_model(&self.set[0], out);
    }
}

/// `small_functional`, `small_timing_warm` and `resnet50_int8`: warm
/// `Soc::run_firmware` over the set, functional or timing-only.
pub struct WarmRuns {
    s: SocSet,
    functional: bool,
    probes: &'static [Probe],
}

impl WarmRuns {
    pub fn small_functional(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        WarmRuns {
            s: SocSet::setup(
                &[Model::LeNet5, Model::ResNet18],
                &table2_options(),
                SocConfig::zcu102_timing_only(),
                Some(SocConfig::zcu102_nv_small()),
                seed,
                spans,
                checks,
            ),
            functional: true,
            probes: &[
                Probe::Nn,
                Probe::Toolflow,
                Probe::Conv {
                    large: false,
                    precision: Precision::Int8,
                },
            ],
        }
    }

    pub fn small_timing_warm(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        WarmRuns {
            s: SocSet::setup(
                &[Model::LeNet5, Model::ResNet18],
                &table2_options(),
                SocConfig::zcu102_timing_only(),
                None,
                seed,
                spans,
                checks,
            ),
            functional: false,
            probes: &[Probe::Iss, Probe::Bus],
        }
    }

    pub fn resnet50_int8(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        WarmRuns {
            s: SocSet::setup(
                &[Model::ResNet50],
                &table2_options(),
                SocConfig::zcu102_timing_only(),
                Some(SocConfig::zcu102_nv_small()),
                seed,
                spans,
                checks,
            ),
            functional: true,
            probes: &[
                Probe::Nn,
                Probe::Conv {
                    large: true,
                    precision: Precision::Int8,
                },
            ],
        }
    }
}

impl Workload for WarmRuns {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        self.s.run_all(self.functional, spans, checks);
    }

    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results) {
        self.s.layers(self.probes, spans, checks, out);
    }
}

/// `sweep_cold`: what `rvnv_soc::sweep` fans out, on one thread — per
/// clock point a fresh SoC, the weight stream and a timing-only `wfi`
/// run.
pub struct SweepCold {
    set: Vec<Compiled>,
    /// Sweep clocks in MHz, in this seed's grid order.
    clocks: Vec<u64>,
    /// `baseline[model][clock index]`: the first sweep's cycles.
    baseline: Vec<Vec<u64>>,
    seed: u64,
}

fn sweep_config(mhz: u64) -> SocConfig {
    SocConfig {
        soc_hz: mhz * 1_000_000,
        ..SocConfig::zcu102_timing_only()
    }
}

fn sweep_point(c: &Compiled, mhz: u64, spans: &mut Spans) -> u64 {
    let mut soc = spans.time("soc.new", |_| Soc::new(sweep_config(mhz)));
    spans
        .time("soc.run_cold", |_| {
            soc.run_firmware(&c.artifacts, &c.input, &c.fw)
        })
        .expect("sweep point runs")
        .cycles
}

impl SweepCold {
    pub fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        let wfi = CodegenOptions {
            wait_mode: WaitMode::Wfi,
            ..CodegenOptions::default()
        };
        let set = compile_set(
            &[Model::LeNet5, Model::ResNet18],
            &table2_options(),
            wfi,
            seed,
            spans,
        );
        let mut clocks = vec![50, 75, 100, 125, 150, 175, 200, 250];
        let mut rng = SplitMix64::new(seed);
        for i in (1..clocks.len()).rev() {
            clocks.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut baseline = Vec::new();
        for c in &set {
            let at_100 = verify(c, &sweep_config(100), None, spans, checks);
            let row: Vec<u64> = clocks
                .iter()
                .map(|&mhz| sweep_point(c, mhz, spans))
                .collect();
            let i100 = clocks
                .iter()
                .position(|&m| m == 100)
                .expect("100 MHz point");
            checks.check(row[i100] == at_100.cycles, || {
                format!("{}: fresh-SoC sweep point != verified 100 MHz run", c.key)
            });
            baseline.push(row);
        }
        SweepCold {
            set,
            clocks,
            baseline,
            seed,
        }
    }
}

impl Workload for SweepCold {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        for (c, want) in self.set.iter().zip(&self.baseline) {
            for (&mhz, &want) in self.clocks.iter().zip(want) {
                let cycles = sweep_point(c, mhz, spans);
                checks.check(cycles == want, || {
                    format!("{} @{mhz} MHz: {cycles} cycles, first sweep {want}", c.key)
                });
            }
        }
    }

    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results) {
        // The same 16 points (both models) through the library's
        // fan-out on one and on two threads.
        let points: Vec<(usize, u64)> = (0..self.set.len())
            .flat_map(|m| self.clocks.iter().map(move |&mhz| (m, mhz)))
            .collect();
        let mut rate = [0.0f64; 2];
        for (slot, threads) in [1usize, 2].into_iter().enumerate() {
            let (ms, n) = crate::spans::time_median_ms(200.0, 3, || {
                let got = rv_nvdla::rvnv_soc::sweep::fan_out(points.len(), threads, |i| {
                    let (m, mhz) = points[i];
                    let c = &self.set[m];
                    Soc::new(sweep_config(mhz))
                        .run_firmware(&c.artifacts, &c.input, &c.fw)
                        .expect("sweep point runs")
                        .cycles
                });
                std::hint::black_box(got);
            });
            rate[slot] = points.len() as f64 / (ms / 1e3);
            let name = ["sweep.points_per_s.t1", "sweep.points_per_s.t2"][slot];
            out.set_n(name, rate[slot], n);
        }
        out.set("sweep.parallel_efficiency", rate[1] / (2.0 * rate[0]));

        // Modeled counters of the 100 MHz point, wfi firmware.
        let with_timeline = SocConfig {
            capture_timeline: true,
            ..sweep_config(100)
        };
        let i100 = self
            .clocks
            .iter()
            .position(|&m| m == 100)
            .expect("100 MHz point");
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for (m, c) in self.set.iter().enumerate() {
            let r = Soc::new(with_timeline.clone())
                .run_firmware(&c.artifacts, &c.input, &c.fw)
                .expect("sweep point runs");
            checks.check(r.cycles == self.baseline[m][i100], || {
                format!("{}: timeline capture changed the cycle count", c.key)
            });
            modeled_counters(c, &r, out);
            rows.push((c.model, c.artifacts.precision, r.cycles));
            results.push(r);
        }
        cpi_milli(&results, out);
        if let Some(err) = paper_error_pct(&rows) {
            out.set("paper.error_pct", err);
        }
        spans.next_op();
        probes::iss(checks, out);
        probes::bus(out);
        probes::conv_kernel(false, Precision::Int8, self.seed, checks, out);
    }
}

/// `table3_fp16`: per model a timing-only `VirtualPlatform::run` with
/// the Table III memory timing and a timing-only nv_full SoC run.
pub struct Table3 {
    s: SocSet,
    vp_cycles: Vec<u64>,
}

fn table3_vp() -> VirtualPlatform {
    let mut vp = VirtualPlatform::with_timing(HwConfig::nv_full(), 512 << 20, nv_full_vp_timing());
    vp.set_functional(false);
    vp
}

impl Table3 {
    pub fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Self {
        let s = SocSet::setup(
            &[
                Model::LeNet5,
                Model::ResNet18,
                Model::ResNet50,
                Model::MobileNet,
                Model::GoogLeNet,
            ],
            &CompileOptions::fp16(),
            SocConfig::zcu102_nv_full_timing_only(),
            None,
            seed,
            spans,
            checks,
        );
        let vp_cycles = s
            .set
            .iter()
            .map(|c| {
                spans
                    .time("compiler.vp_run", |_| {
                        table3_vp().run(&c.artifacts, &c.input, false)
                    })
                    .expect("VP replays")
                    .cycles
            })
            .collect();
        Table3 { s, vp_cycles }
    }
}

impl Workload for Table3 {
    fn op(&mut self, spans: &mut Spans, checks: &mut Checks) {
        for (c, &want) in self.s.set.iter().zip(&self.vp_cycles) {
            let cycles = spans
                .time("compiler.vp_run", |_| {
                    table3_vp().run(&c.artifacts, &c.input, false)
                })
                .expect("VP replays")
                .cycles;
            checks.check(cycles == want, || {
                format!("{}: VP took {cycles} cycles, first run {want}", c.key)
            });
        }
        self.s.run_all(false, spans, checks);
    }

    fn layers(&mut self, spans: &mut Spans, checks: &mut Checks, out: &mut Results) {
        self.s.layers(
            &[
                Probe::Toolflow,
                Probe::Conv {
                    large: true,
                    precision: Precision::Fp16,
                },
                Probe::Bus,
            ],
            spans,
            checks,
            out,
        );
        // Table III is the VP's cycle count, not the SoC's.
        out.set(
            "compiler.vp_cycles",
            self.vp_cycles.iter().sum::<u64>() as f64,
        );
        let rows: Vec<_> = self
            .s
            .set
            .iter()
            .zip(&self.vp_cycles)
            .map(|(c, &cycles)| (c.model, Precision::Fp16, cycles))
            .collect();
        out.set(
            "paper.error_pct",
            paper_error_pct(&rows).expect("Table III rows"),
        );
    }
}
