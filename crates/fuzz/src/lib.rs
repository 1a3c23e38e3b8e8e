//! Seeded differential fuzzing for the whole stack.
//!
//! Every standing contract in this repo — typed CPU errors only, the
//! predicting bus mirror, functional-vs-timing-only equality, the
//! serial-vs-pipelined byte identity, zero simulate-vs-replay
//! divergence for serving and fleets — is pinned by example-based
//! tests elsewhere. This crate turns each into a [`FuzzTarget`]: a
//! seeded generator for random inputs, a check that re-states the
//! contract as an oracle, and a hand-rolled shrinker that reduces any
//! counterexample to a minimal input.
//!
//! Everything is deterministic. A run is fully described by `(target,
//! base_seed, budget)`; case `i` uses seed `base_seed + i`, and a
//! failure prints a one-line `rv-nvdla fuzz <target> --seed S` command
//! that re-derives, re-fails, and re-shrinks the exact same input.
//! Shrinking is hand-rolled in [`shrink`]: delete-chunk over element
//! lists, bisection over scalar knobs. This is the workspace's one
//! shrinker; the property tests elsewhere are seeded loops whose
//! inputs are small enough to print whole.
//!
//! Targets: `riscv`, `bus`, `net`, `batch`, `serve`, `fleet`, `conv` —
//! see each module for the oracle it enforces.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

pub mod batch;
pub mod bus;
pub mod conv;
pub mod fleet;
pub mod gen;
pub mod net;
pub mod riscv;
pub mod serve;
pub mod shrink;

/// One differential-fuzzing target: a seeded input generator plus an
/// oracle over a standing contract, with a deterministic shrinker.
pub trait FuzzTarget {
    /// The input the generator produces and the oracle consumes.
    type Input: Clone + Debug;
    /// CLI name of the target (`rv-nvdla fuzz <NAME>`).
    const NAME: &'static str;

    /// Derive the input for one case. Must be a pure function of the
    /// seed — replaying a printed seed must re-derive the same input.
    fn generate(&self, seed: u64) -> Self::Input;

    /// Check the contract. `Err` is a counterexample; panics inside
    /// are caught by the driver and treated the same.
    fn check(&self, input: &Self::Input) -> Result<(), String>;

    /// Reduce a failing input, preserving `fails`. Must be
    /// deterministic so the printed repro shrinks identically.
    fn shrink(&self, input: Self::Input, fails: &dyn Fn(&Self::Input) -> bool) -> Self::Input;

    /// Size metric reported for an input (elements, layers, requests).
    fn size(input: &Self::Input) -> usize;
}

/// A shrunk failure, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which target failed.
    pub target: &'static str,
    /// The case seed (pass to `--seed` to re-derive the input).
    pub seed: u64,
    /// Input size as generated.
    pub size_orig: usize,
    /// Input size after shrinking.
    pub size_min: usize,
    /// The oracle's message on the minimized input.
    pub message: String,
    /// Debug rendering of the minimized input.
    pub minimized: String,
    /// One-line command that replays this exact failure.
    pub repro: String,
}

/// Outcome of driving one target for a seed budget.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Which target ran.
    pub target: &'static str,
    /// First case seed; case `i` used `base_seed + i`.
    pub base_seed: u64,
    /// Cases requested.
    pub budget: u64,
    /// Cases actually executed (stops at the first failure).
    pub executed: u64,
    /// The shrunk failure, if any case failed.
    pub counterexample: Option<Counterexample>,
}

impl FuzzReport {
    /// True when every executed case passed.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Serializes panic-hook swaps: `drive` silences the default hook while
/// probing with `catch_unwind` (a shrink run may cross hundreds of
/// intentional panics), and concurrent drives must not race the swap.
static PANIC_HOOK: Mutex<()> = Mutex::new(());

fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = PANIC_HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(saved);
    out
}

/// Run the oracle once, converting panics into failures.
fn run_check<T: FuzzTarget>(target: &T, input: &T::Input) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(|| target.check(input))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Drive one target: `budget` cases from `base_seed`, stopping at the
/// first failure, which is shrunk (when asked) and packaged with its
/// replay command.
pub fn drive<T: FuzzTarget>(
    target: &T,
    base_seed: u64,
    budget: u64,
    do_shrink: bool,
) -> FuzzReport {
    with_quiet_panics(|| {
        let mut executed = 0;
        for i in 0..budget {
            let seed = base_seed.wrapping_add(i);
            let input = target.generate(seed);
            executed += 1;
            if run_check(target, &input).is_ok() {
                continue;
            }
            let size_orig = T::size(&input);
            let minimized = if do_shrink {
                target.shrink(input, &|cand| run_check(target, cand).is_err())
            } else {
                input
            };
            let message = run_check(target, &minimized)
                .err()
                .unwrap_or_else(|| "failure did not reproduce on the minimized input".into());
            return FuzzReport {
                target: T::NAME,
                base_seed,
                budget,
                executed,
                counterexample: Some(Counterexample {
                    target: T::NAME,
                    seed,
                    size_orig,
                    size_min: T::size(&minimized),
                    message,
                    minimized: format!("{minimized:#?}"),
                    repro: format!(
                        "rv-nvdla fuzz {} --seed {seed} --budget 1 --shrink",
                        T::NAME
                    ),
                }),
            };
        }
        FuzzReport {
            target: T::NAME,
            base_seed,
            budget,
            executed,
            counterexample: None,
        }
    })
}

/// Every CLI-addressable target name, in the order `all` runs them.
pub const TARGETS: [&str; 7] = ["riscv", "bus", "net", "batch", "serve", "fleet", "conv"];

/// Drive targets by CLI name (`all` runs every target in [`TARGETS`]
/// order). Returns one report per target driven.
pub fn run(
    target: &str,
    base_seed: u64,
    budget: u64,
    do_shrink: bool,
) -> Result<Vec<FuzzReport>, String> {
    let names: Vec<&str> = if target == "all" {
        TARGETS.to_vec()
    } else if TARGETS.contains(&target) {
        vec![target]
    } else {
        return Err(format!(
            "unknown fuzz target '{target}' (expected one of: {}, all)",
            TARGETS.join(", ")
        ));
    };
    Ok(names
        .into_iter()
        .map(|name| match name {
            "riscv" => drive(&riscv::RiscvTarget, base_seed, budget, do_shrink),
            "bus" => drive(&bus::BusTarget::default(), base_seed, budget, do_shrink),
            "net" => drive(&net::NetTarget, base_seed, budget, do_shrink),
            "batch" => drive(&batch::BatchTarget, base_seed, budget, do_shrink),
            "serve" => drive(&serve::ServeTarget, base_seed, budget, do_shrink),
            "fleet" => drive(&fleet::FleetTarget, base_seed, budget, do_shrink),
            "conv" => drive(&conv::ConvTarget, base_seed, budget, do_shrink),
            _ => unreachable!("names are drawn from TARGETS"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every oracle family holds over a modest seed sweep. CI drives
    /// the same targets in release mode with a 100+ budget via
    /// `rv-nvdla fuzz`; these debug-mode budgets keep `cargo test`
    /// honest without dominating it.
    #[test]
    fn riscv_oracle_holds() {
        let r = drive(&riscv::RiscvTarget, 0xF0, 144, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn bus_oracle_holds() {
        let r = drive(&bus::BusTarget::default(), 0xF1, 40, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn net_oracle_holds() {
        let r = drive(&net::NetTarget, 0xF2, 4, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn batch_oracle_holds() {
        let r = drive(&batch::BatchTarget, 0xF3, 3, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn serve_oracle_holds() {
        let r = drive(&serve::ServeTarget, 0xF4, 3, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn fleet_oracle_holds() {
        let r = drive(&fleet::FleetTarget, 0xF5, 2, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    #[test]
    fn conv_oracle_holds() {
        let r = drive(&conv::ConvTarget, 0xF6, 40, true);
        assert!(r.passed(), "{:#?}", r.counterexample);
    }

    /// The acceptance gate for the harness itself: plant a bug in the
    /// bus mirror (predict misaligned beats succeed), and the fuzzer
    /// must catch it AND shrink it to a tiny repro with a replayable
    /// command line.
    #[test]
    fn planted_misalignment_bug_is_caught_and_shrunk() {
        let buggy = bus::BusTarget {
            mutation: bus::Mutation::IgnoreAlignment,
        };
        let r = drive(&buggy, 0, 64, true);
        let cx = r
            .counterexample
            .expect("a planted mirror bug must be found within 64 seeds");
        assert!(
            cx.size_min <= 10,
            "shrinker left {} ops (orig {}); expected a near-minimal program",
            cx.size_min,
            cx.size_orig
        );
        assert!(
            cx.message.contains("aligned"),
            "counterexample must be the alignment misprediction: {}",
            cx.message
        );
        assert_eq!(
            cx.repro,
            format!("rv-nvdla fuzz bus --seed {} --budget 1 --shrink", cx.seed)
        );
        // The repro must actually replay: re-derive from the printed
        // seed and re-fail the same way.
        let replayed = buggy.generate(cx.seed);
        assert!(run_check(&buggy, &replayed).is_err());
    }

    /// A panic inside an oracle is a counterexample, not a crash.
    #[test]
    fn panics_become_shrinkable_failures() {
        struct Panicky;
        impl FuzzTarget for Panicky {
            type Input = Vec<u8>;
            const NAME: &'static str = "panicky";
            fn generate(&self, seed: u64) -> Vec<u8> {
                vec![(seed & 0xFF) as u8; 5]
            }
            fn check(&self, input: &Vec<u8>) -> Result<(), String> {
                assert!(!input.contains(&7), "sevens are forbidden");
                Ok(())
            }
            fn shrink(&self, input: Vec<u8>, fails: &dyn Fn(&Vec<u8>) -> bool) -> Vec<u8> {
                shrink::shrink_elements(input, |xs| fails(&xs.to_vec()))
            }
            fn size(input: &Vec<u8>) -> usize {
                input.len()
            }
        }
        let r = drive(&Panicky, 7, 1, true);
        let cx = r.counterexample.expect("seed 7 generates [7; 5]");
        assert_eq!(cx.size_min, 1, "one seven suffices");
        assert!(
            cx.message.contains("sevens are forbidden"),
            "{}",
            cx.message
        );
    }

    #[test]
    fn unknown_target_is_rejected() {
        let err = run("nonsense", 0, 1, false).unwrap_err();
        assert!(err.contains("unknown fuzz target"), "{err}");
        assert!(err.contains("riscv"), "must list valid targets: {err}");
    }
}
