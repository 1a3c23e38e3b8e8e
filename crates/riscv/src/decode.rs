//! RV32IM + Zicsr instruction decoder over the instruction table.

use std::error::Error;
use std::fmt;

use crate::inst::Inst;
use crate::table;

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The raw instruction word.
    pub word: u32,
    /// Address it was fetched from, if known.
    pub pc: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal instruction {:#010x} at pc {:#010x}",
            self.word, self.pc
        )
    }
}

impl Error for DecodeError {}

/// Decode one 32-bit instruction word.
///
/// `pc` is used only for error reporting.
///
/// # Errors
///
/// Returns [`DecodeError`] for any encoding outside RV32IM + Zicsr +
/// `mret`/`wfi`.
pub fn decode(word: u32, pc: u32) -> Result<Inst, DecodeError> {
    let row = table::find(word).ok_or(DecodeError { word, pc })?;
    Ok(row.op.inst(row.format.unpack(word)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, BranchOp, CsrOp, MemWidth, MulOp};
    use crate::reg::{A0, RA, SP, T0, ZERO};

    #[test]
    fn decode_canonical_words() {
        // addi sp, sp, -16  => 0xFF010113
        assert_eq!(
            decode(0xFF01_0113, 0).unwrap(),
            Inst::AluImm {
                op: AluOp::Add,
                rd: SP,
                rs1: SP,
                imm: -16
            }
        );
        // lui a0, 0x12345 => 0x12345537
        assert_eq!(
            decode(0x1234_5537, 0).unwrap(),
            Inst::Lui {
                rd: A0,
                imm: 0x1234_5000
            }
        );
        // lw t0, 8(a0) => 0x00852283
        assert_eq!(
            decode(0x0085_2283, 0).unwrap(),
            Inst::Load {
                width: MemWidth::Word,
                rd: T0,
                rs1: A0,
                offset: 8
            }
        );
        // sw t0, 12(a0) => 0x00552623
        assert_eq!(
            decode(0x0055_2623, 0).unwrap(),
            Inst::Store {
                width: MemWidth::Word,
                rs1: A0,
                rs2: T0,
                offset: 12
            }
        );
        // jal ra, +8 => 0x008000EF
        assert_eq!(
            decode(0x0080_00EF, 0).unwrap(),
            Inst::Jal { rd: RA, offset: 8 }
        );
        // beq a0, zero, -4 => 0xFE050EE3
        assert_eq!(
            decode(0xFE05_0EE3, 0).unwrap(),
            Inst::Branch {
                op: BranchOp::Eq,
                rs1: A0,
                rs2: ZERO,
                offset: -4
            }
        );
        // ecall / ebreak
        assert_eq!(decode(0x0000_0073, 0).unwrap(), Inst::Ecall);
        assert_eq!(decode(0x0010_0073, 0).unwrap(), Inst::Ebreak);
        // mul a0, a0, t0 => funct7=1
        assert_eq!(
            decode(0x0255_0533, 0).unwrap(),
            Inst::Mul {
                op: MulOp::Mul,
                rd: A0,
                rs1: A0,
                rs2: T0
            }
        );
    }

    #[test]
    fn negative_immediates_sign_extend() {
        // lw t0, -4(a0) => imm 0xffc
        let i = decode(0xFFC5_2283, 0).unwrap();
        assert_eq!(
            i,
            Inst::Load {
                width: MemWidth::Word,
                rd: T0,
                rs1: A0,
                offset: -4
            }
        );
    }

    #[test]
    fn illegal_instructions_rejected() {
        assert!(decode(0x0000_0000, 0x40).is_err());
        assert!(decode(0xFFFF_FFFF, 0).is_err());
        // Bad funct7 on srai-family.
        assert!(decode(0x8000_5013 | (1 << 25), 0).is_err());
        let e = decode(0, 0x40).unwrap_err();
        assert!(e.to_string().contains("0x00000040"));
    }

    #[test]
    fn csr_forms() {
        // csrrs t0, mcycle(0xB00), zero => 0xB00022F3
        let i = decode(0xB000_22F3, 0).unwrap();
        assert_eq!(
            i,
            Inst::Csr {
                op: CsrOp::Rs,
                rd: T0,
                rs1: ZERO,
                csr: 0xB00
            }
        );
        // csrrwi zero, 0x300, 5
        let i = decode(0x3002_D073, 0).unwrap();
        assert_eq!(
            i,
            Inst::CsrImm {
                op: CsrOp::Rw,
                rd: ZERO,
                imm: 5,
                csr: 0x300
            }
        );
    }
}
