//! RV32IM + Zicsr instruction encoder over the instruction table.

use crate::inst::Inst;
use crate::table;

/// Encode a decoded instruction back to its 32-bit word.
///
/// Together with [`crate::decode::decode`] this forms an exact round trip
/// for all canonical encodings (tested on every table row).
///
/// # Panics
///
/// Panics for `AluImm { op: Sub }`: RV32I has no `subi`.
#[must_use]
pub fn encode(inst: &Inst) -> u32 {
    let (row, fields) = table::of(inst);
    row.encode(&fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluOp;
    use crate::reg::{A0, RA, SP};

    #[test]
    fn encode_matches_known_words() {
        assert_eq!(
            encode(&Inst::AluImm {
                op: AluOp::Add,
                rd: SP,
                rs1: SP,
                imm: -16
            }),
            0xFF01_0113
        );
        assert_eq!(encode(&Inst::Jal { rd: RA, offset: 8 }), 0x0080_00EF);
        assert_eq!(encode(&Inst::Ebreak), 0x0010_0073);
    }

    #[test]
    #[should_panic(expected = "subi")]
    fn sub_immediate_is_rejected() {
        let _ = encode(&Inst::AluImm {
            op: AluOp::Sub,
            rd: A0,
            rs1: A0,
            imm: 1,
        });
    }
}
