//! Disassembler — the inverse of the assembler over the same
//! instruction table: what it prints assembles back to the same word.

use crate::inst::Inst;
use crate::table::{self, Operand};

/// Render a decoded instruction as assembly text.
///
/// `pc` resolves PC-relative targets to absolute addresses.
///
/// # Panics
///
/// Panics for `AluImm { op: Sub }`, which no instruction encodes.
#[must_use]
pub fn disassemble(inst: &Inst, pc: u32) -> String {
    let (row, f) = table::of(inst);
    let operands: Vec<String> = row
        .format
        .operands()
        .iter()
        .map(|operand| match operand {
            Operand::Rd => f.rd.to_string(),
            Operand::Rs1 => f.rs1.to_string(),
            Operand::Rs2 => f.rs2.to_string(),
            Operand::Imm | Operand::Shamt | Operand::Uimm => f.imm.to_string(),
            Operand::Mem => format!("{}({})", f.imm, f.rs1),
            Operand::Branch | Operand::Jump => format!("{:#x}", pc.wrapping_add(f.imm as u32)),
            Operand::Upper => format!("{:#x}", f.imm as u32 >> 12),
            Operand::Csr => format!("{:#x}", f.csr),
        })
        .collect();
    if operands.is_empty() {
        row.name.to_string()
    } else {
        format!("{} {}", row.name, operands.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    #[test]
    fn pc_relative_targets_are_absolute() {
        let inst = decode(0x0080_00EF, 0x100).unwrap(); // jal ra, +8
        assert_eq!(disassemble(&inst, 0x100), "jal ra, 0x108");
    }

    /// The forms the table prints, one per format.
    #[test]
    fn every_format_prints_like_the_assembler_reads() {
        for (word, text) in [
            (0x0000_0533, "add a0, zero, zero"),
            (0xFF01_0113, "addi sp, sp, -16"),
            (0x0085_2283, "lw t0, 8(a0)"),
            (0x0005_00E7, "jalr ra, 0(a0)"),
            (0x4035_5513, "srai a0, a0, 3"),
            (0x0055_2623, "sw t0, 12(a0)"),
            (0xFE05_0EE3, "beq a0, zero, 0xfc"),
            (0x1234_5537, "lui a0, 0x12345"),
            (0xB000_22F3, "csrrs t0, 0xb00, zero"),
            (0x3002_D073, "csrrwi zero, 0x300, 5"),
            (0x0010_0073, "ebreak"),
        ] {
            assert_eq!(disassemble(&decode(word, 0x100).unwrap(), 0x100), text);
        }
    }
}
