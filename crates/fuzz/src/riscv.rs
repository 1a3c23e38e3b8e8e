//! `riscv` target: seeded instruction streams must never panic the
//! ISS, must fault only through typed [`CpuError`]s, and must execute
//! identically with the decoded-block cache on and off. Every word that
//! decodes must also re-assemble from its disassembly to its encoding,
//! the two halves of the instruction table checked against each other.

use rvnv_bus::sram::Sram;
use rvnv_riscv::disasm::disassemble;
use rvnv_riscv::reg::Reg;
use rvnv_riscv::{assemble, decode, encode, Core, CpuError};

use crate::gen;
use crate::{shrink, FuzzTarget};

/// Everything an equivalent run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    stop: String,
    pc: u32,
    cycle: u64,
    retired: u64,
    regs: Vec<u32>,
}

const STEP_BUDGET: u64 = 512;

/// Run `words` from address 0 with a zeroed 1 KB data RAM until a
/// stop, a typed error, or the step budget.
fn run_stream(words: &[u32], cache: bool) -> Result<Outcome, String> {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let imem_bytes = bytes.len();
    let mut core = Core::new(Sram::rom(bytes), Sram::new(1024));
    if cache {
        core.enable_block_cache(imem_bytes);
    }
    let mut steps = 0u64;
    let stop = loop {
        if steps >= STEP_BUDGET {
            break "budget".to_string();
        }
        steps += 1;
        match core.step() {
            Ok(None) => {}
            Ok(Some(reason)) => break format!("{reason:?}"),
            Err(e) => {
                check_typed(&e)?;
                break format!("{e:?}");
            }
        }
    };
    Ok(Outcome {
        stop,
        pc: core.pc(),
        cycle: core.cycle(),
        retired: core.retired(),
        regs: (0..32).map(|i| core.read_reg(Reg::new(i))).collect(),
    })
}

/// The error contract: every failure is one of the typed variants (the
/// match is trivially exhaustive today; it exists so adding a variant
/// forces this oracle to acknowledge it).
fn check_typed(e: &CpuError) -> Result<(), String> {
    match e {
        CpuError::FetchFault { .. } | CpuError::Illegal(_) | CpuError::DataFault { .. } => Ok(()),
    }
}

/// `assemble ∘ disassemble` over the whole stream: the disassembly of
/// every word that decodes (a `.word` for the rest), assembled as one
/// program, gives back `encode(decode(w))` at each word's own pc — `w`
/// itself, except a MISC-MEM word other than the canonical `fence`.
fn reassemble(words: &[u32]) -> Result<(), String> {
    let lines: Vec<(String, u32)> = (0u32..)
        .step_by(4)
        .zip(words)
        .map(|(pc, &word)| match decode(word, pc) {
            Ok(inst) => (disassemble(&inst, pc), encode(&inst)),
            Err(_) => (format!(".word {word:#x}"), word),
        })
        .collect();
    let source: Vec<&str> = lines.iter().map(|(text, _)| text.as_str()).collect();
    let image = assemble(&source.join("\n")).map_err(|e| {
        let text = source.get(e.line.wrapping_sub(1)).unwrap_or(&"");
        format!("`{text}` does not assemble: {e}")
    })?;
    let got = image.words();
    if got.len() != words.len() {
        return Err(format!(
            "{} words assembled from {}",
            got.len(),
            words.len()
        ));
    }
    for (((pc, word), got), (text, want)) in (0u32..).step_by(4).zip(words).zip(got).zip(&lines) {
        if got != *want {
            return Err(format!(
                "{word:#010x} at {pc:#x} disassembles to `{text}`, which assembles to {got:#010x}, not {want:#010x}"
            ));
        }
    }
    Ok(())
}

/// The decode→execute→memory differential target.
pub struct RiscvTarget;

impl FuzzTarget for RiscvTarget {
    type Input = Vec<u32>;
    const NAME: &'static str = "riscv";

    fn generate(&self, seed: u64) -> Vec<u32> {
        gen::instruction_stream(seed)
    }

    fn check(&self, words: &Vec<u32>) -> Result<(), String> {
        reassemble(words)?;
        let plain = run_stream(words, false)?;
        let cached = run_stream(words, true)?;
        if plain != cached {
            return Err(format!(
                "decoded-block cache changed execution:\n  plain:  {plain:?}\n  cached: {cached:?}"
            ));
        }
        Ok(())
    }

    fn shrink(&self, input: Vec<u32>, fails: &dyn Fn(&Vec<u32>) -> bool) -> Vec<u32> {
        shrink::shrink_elements(input, |xs| fails(&xs.to_vec()))
    }

    fn size(input: &Vec<u32>) -> usize {
        input.len()
    }
}

#[cfg(test)]
mod tests {
    //! Named regressions: fixed inputs at the edges the streams found
    //! interesting, kept whatever the seeds derive later.

    use super::*;
    use rvnv_riscv::inst::{AluOp, Inst, MemWidth};
    use rvnv_riscv::StopReason;

    fn run(words: &[u32], cache: bool) -> Outcome {
        run_stream(words, cache).expect("typed errors only")
    }

    /// The two all-bits patterns are illegal encodings, reported as
    /// typed decode errors — not panics, not silent skips.
    #[test]
    fn regression_all_zero_and_all_one_words_are_typed_illegal() {
        for word in [0x0000_0000u32, 0xFFFF_FFFF] {
            let mut core = Core::new(Sram::rom(word.to_le_bytes().to_vec()), Sram::new(64));
            match core.step() {
                Err(CpuError::Illegal(_)) => {}
                other => panic!("{word:#010x}: expected Illegal, got {other:?}"),
            }
        }
    }

    /// A jump far past the end of progmem faults on *fetch* at the
    /// target, after the jump itself retires.
    #[test]
    fn regression_jump_past_progmem_is_a_fetch_fault_at_target() {
        let words = [encode(&Inst::Jal {
            rd: Reg::new(0),
            offset: 0x10000,
        })];
        let outcome = run(&words, false);
        assert!(
            outcome.stop.starts_with("FetchFault"),
            "got {}",
            outcome.stop
        );
        assert_eq!(outcome.retired, 1, "the jump itself retires");
        assert_eq!(outcome, run(&words, true));
    }

    /// A store far outside the data RAM is a typed data fault carrying
    /// the faulting PC and address.
    #[test]
    fn regression_store_outside_dmem_is_a_typed_data_fault() {
        let words = [
            encode(&Inst::Lui {
                rd: Reg::new(5),
                imm: 0x7FFF_F000,
            }),
            encode(&Inst::Store {
                width: MemWidth::Word,
                rs1: Reg::new(5),
                rs2: Reg::new(0),
                offset: 0,
            }),
        ];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut core = Core::new(Sram::rom(bytes), Sram::new(1024));
        assert!(core.step().unwrap().is_none());
        match core.step() {
            Err(CpuError::DataFault { pc, addr, .. }) => {
                assert_eq!(pc, 4);
                assert_eq!(addr, 0x7FFF_F000);
            }
            other => panic!("expected DataFault, got {other:?}"),
        }
        assert_eq!(run(&words, false), run(&words, true));
    }

    /// A tight two-instruction loop runs to the step budget identically
    /// with and without the cache — the maximal-reuse case.
    #[test]
    fn regression_tight_loop_replays_identically() {
        let words = [
            encode(&Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::new(10),
                rs1: Reg::new(10),
                imm: 1,
            }),
            encode(&Inst::Jal {
                rd: Reg::new(0),
                offset: -4,
            }),
        ];
        let plain = run(&words, false);
        assert_eq!(plain, run(&words, true));
        assert_eq!(plain.stop, "budget");
        assert_eq!(plain.regs[10], (STEP_BUDGET / 2) as u32);
    }

    /// `ebreak` stops with a typed reason, not an error, and the stop
    /// PC matches on both paths.
    #[test]
    fn regression_ebreak_is_a_stop_not_an_error() {
        let words = [encode(&Inst::Ebreak)];
        let outcome = run(&words, false);
        assert_eq!(outcome.stop, format!("{:?}", StopReason::Ebreak));
        assert_eq!(outcome, run(&words, true));
    }
}
