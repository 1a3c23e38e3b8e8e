//! Decoded instruction representation for RV32IM + Zicsr.

use crate::reg::Reg;

/// ALU operation of an R-type or I-type arithmetic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`).
    Sub,
    /// Shift left logical.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

/// RV32M multiply/divide operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of signed × signed.
    Mulh,
    /// High 32 bits of signed × unsigned.
    Mulhsu,
    /// High 32 bits of unsigned × unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// Branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed).
    Lt,
    /// Greater or equal (signed).
    Ge,
    /// Less than (unsigned).
    Ltu,
    /// Greater or equal (unsigned).
    Geu,
}

/// Memory access width for loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemWidth {
    /// 8-bit, sign-extended on load (`lb`/`sb`).
    Byte,
    /// 8-bit, zero-extended on load (`lbu`).
    ByteU,
    /// 16-bit, sign-extended on load (`lh`/`sh`).
    Half,
    /// 16-bit, zero-extended on load (`lhu`).
    HalfU,
    /// 32-bit (`lw`/`sw`).
    Word,
}

impl MemWidth {
    /// Number of bytes accessed.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte | MemWidth::ByteU => 1,
            MemWidth::Half | MemWidth::HalfU => 2,
            MemWidth::Word => 4,
        }
    }

    /// The width a store of this width writes: a store does not extend,
    /// so `ByteU` and `HalfU` store as `Byte` and `Half`.
    #[must_use]
    pub fn stored(self) -> MemWidth {
        match self {
            MemWidth::ByteU => MemWidth::Byte,
            MemWidth::HalfU => MemWidth::Half,
            width => width,
        }
    }
}

/// CSR access operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrOp {
    /// Read/write (`csrrw`).
    Rw,
    /// Read and set bits (`csrrs`).
    Rs,
    /// Read and clear bits (`csrrc`).
    Rc,
}

/// A decoded RV32IM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Load upper immediate.
    Lui { rd: Reg, imm: u32 },
    /// Add upper immediate to PC.
    Auipc { rd: Reg, imm: u32 },
    /// Jump and link (PC-relative).
    Jal { rd: Reg, offset: i32 },
    /// Jump and link register.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Load from memory.
    Load {
        width: MemWidth,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Store to memory.
    Store {
        width: MemWidth,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Register–immediate ALU operation.
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register–register ALU operation.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// RV32M multiply/divide.
    Mul {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Memory fence (no-op in this single-hart model).
    Fence,
    /// Environment call.
    Ecall,
    /// Breakpoint — the bare-metal firmware's "done" marker.
    Ebreak,
    /// CSR register operation.
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
    },
    /// CSR immediate operation (rs1 field holds the 5-bit immediate).
    CsrImm {
        op: CsrOp,
        rd: Reg,
        imm: u8,
        csr: u16,
    },
    /// Machine return (treated as a halt in bare-metal firmware).
    Mret,
    /// Wait for interrupt.
    Wfi,
}

impl Inst {
    /// Whether this instruction redirects the PC when executed
    /// (unconditionally or potentially).
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. } | Inst::Mret
        )
    }

    /// Destination register written by this instruction, if any.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::Mul { rd, .. }
            | Inst::Csr { rd, .. }
            | Inst::CsrImm { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Source registers read by this instruction.
    #[must_use]
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Inst::Jalr { rs1, .. }
            | Inst::Load { rs1, .. }
            | Inst::AluImm { rs1, .. }
            | Inst::Csr { rs1, .. } => (Some(rs1), None),
            Inst::Branch { rs1, rs2, .. }
            | Inst::Store { rs1, rs2, .. }
            | Inst::Alu { rs1, rs2, .. }
            | Inst::Mul { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            _ => (None, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{A0, A1, T0};

    #[test]
    fn control_flow_classification() {
        assert!(Inst::Jal { rd: A0, offset: 8 }.is_control_flow());
        assert!(Inst::Branch {
            op: BranchOp::Eq,
            rs1: A0,
            rs2: A1,
            offset: -4
        }
        .is_control_flow());
        assert!(!Inst::Ebreak.is_control_flow());
        assert!(!Inst::AluImm {
            op: AluOp::Add,
            rd: A0,
            rs1: A0,
            imm: 1
        }
        .is_control_flow());
    }

    #[test]
    fn dest_and_sources() {
        let ld = Inst::Load {
            width: MemWidth::Word,
            rd: T0,
            rs1: A0,
            offset: 4,
        };
        assert_eq!(ld.dest(), Some(T0));
        assert_eq!(ld.sources(), (Some(A0), None));
        let st = Inst::Store {
            width: MemWidth::Word,
            rs1: A0,
            rs2: A1,
            offset: 0,
        };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources(), (Some(A0), Some(A1)));
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::ByteU.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::HalfU.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }
}
