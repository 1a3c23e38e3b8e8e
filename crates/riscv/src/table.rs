//! The RV32IM + Zicsr instruction table: one row per real instruction.
//!
//! Every other view of the ISA derives from these rows. [`decode`]
//! finds the row whose key bits a word carries, [`encode`] the row of an
//! [`Inst`], [`disassemble`] prints a row's operands and the assembler
//! parses them — so an instruction exists for all four or for none.
//! The codecs are generic over the [`Format`]: how a row's operands sit
//! in the word and how they read in assembly text.
//!
//! [`decode`]: crate::decode::decode
//! [`encode`]: crate::encode::encode
//! [`disassemble`]: crate::disasm::disassemble

use crate::inst::{AluOp, BranchOp, CsrOp, Inst, MemWidth, MulOp};
use crate::reg::Reg;
use Format::{Csr as Cr, CsrImm as Ci, Load as Ld, Shift as Sh, B, I, J, R, S, U};
use Op::{Alu, AluImm, Branch as Br, Csr, CsrImm, Load, Mul, Store};

/// Where a format's operands sit in the word, and their order in text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `rd, rs1, rs2`.
    R,
    /// `rd, rs1, imm`.
    I,
    /// `rd, imm(rs1)`: the I layout, read as a memory operand (loads, `jalr`).
    Load,
    /// `rd, rs1, shamt`: the I layout with funct7 above a 5-bit amount.
    Shift,
    /// `rs2, imm(rs1)`.
    S,
    /// `rs1, rs2, target`.
    B,
    /// `rd, imm`, the upper 20 bits.
    U,
    /// `rd, target`.
    J,
    /// `rd, csr, rs1`.
    Csr,
    /// `rd, csr, uimm`: a 5-bit immediate in the rs1 field.
    CsrImm,
    /// No operands: the row's whole word.
    Fixed,
}

/// One operand of assembly text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    Rd,
    Rs1,
    Rs2,
    /// 12-bit signed immediate.
    Imm,
    /// 5-bit shift amount.
    Shamt,
    /// 5-bit CSR immediate.
    Uimm,
    /// `imm(rs1)`, a 12-bit signed offset.
    Mem,
    /// Branch target address.
    Branch,
    /// Jump target address.
    Jump,
    /// Upper immediate, written unshifted.
    Upper,
    /// CSR address or name.
    Csr,
}

impl Format {
    /// The operands of this format, in assembly-text order.
    #[must_use]
    pub fn operands(self) -> &'static [Operand] {
        use Operand::*;
        match self {
            Format::R => &[Rd, Rs1, Rs2],
            Format::I => &[Rd, Rs1, Imm],
            Format::Load => &[Rd, Mem],
            Format::Shift => &[Rd, Rs1, Shamt],
            Format::S => &[Rs2, Mem],
            Format::B => &[Rs1, Rs2, Branch],
            Format::U => &[Rd, Upper],
            Format::J => &[Rd, Jump],
            Format::Csr => &[Rd, Csr, Rs1],
            Format::CsrImm => &[Rd, Csr, Uimm],
            Format::Fixed => &[],
        }
    }

    /// The bits that tell this format's rows apart: opcode, plus funct3
    /// and funct7 where the format has them; every bit for a fixed word.
    const fn mask(self) -> u32 {
        match self {
            Format::U | Format::J => 0x7F,
            Format::R | Format::Shift => 0xFE00_707F,
            Format::Fixed => u32::MAX,
            _ => 0x707F,
        }
    }

    /// The operand bits of a word in this format.
    #[must_use]
    pub fn pack(self, f: &Fields) -> u32 {
        let reg = |r: Reg, at: u32| u32::from(r.index()) << at;
        let (rd, rs1, rs2) = (reg(f.rd, 7), reg(f.rs1, 15), reg(f.rs2, 20));
        let imm = f.imm as u32;
        let csr = u32::from(f.csr) << 20;
        match self {
            Format::R => rd | rs1 | rs2,
            Format::I | Format::Load => rd | rs1 | (imm << 20),
            Format::Shift => rd | rs1 | ((imm & 0x1F) << 20),
            Format::S => rs1 | rs2 | ((imm & 0xFE0) << 20) | ((imm & 0x1F) << 7),
            Format::B => {
                rs1 | rs2
                    | (((imm >> 12) & 1) << 31)
                    | (((imm >> 5) & 0x3F) << 25)
                    | (((imm >> 1) & 0xF) << 8)
                    | (((imm >> 11) & 1) << 7)
            }
            Format::U => rd | (imm & 0xFFFF_F000),
            Format::J => {
                rd | (((imm >> 20) & 1) << 31)
                    | (((imm >> 1) & 0x3FF) << 21)
                    | (((imm >> 11) & 1) << 20)
                    | (((imm >> 12) & 0xFF) << 12)
            }
            Format::Csr => rd | rs1 | csr,
            Format::CsrImm => rd | ((imm & 0x1F) << 15) | csr,
            Format::Fixed => 0,
        }
    }

    /// The operands of a word in this format, immediates sign-extended.
    /// Register and CSR fields are read whether or not the format has
    /// them; [`Op::inst`] takes only the ones its instruction names.
    #[inline]
    #[must_use]
    pub fn unpack(self, w: u32) -> Fields {
        let reg = |at: u32| Reg::new(((w >> at) & 0x1F) as u8);
        let imm = match self {
            Format::I | Format::Load => (w as i32) >> 20,
            Format::Shift => ((w >> 20) & 0x1F) as i32,
            Format::S => (((w & 0xFE00_0000) as i32) >> 20) | ((w >> 7) & 0x1F) as i32,
            Format::B => {
                (((w & 0x8000_0000) as i32) >> 19)
                    | (((w >> 7) & 1) << 11) as i32
                    | (((w >> 25) & 0x3F) << 5) as i32
                    | (((w >> 8) & 0xF) << 1) as i32
            }
            Format::U => (w & 0xFFFF_F000) as i32,
            Format::J => {
                (((w & 0x8000_0000) as i32) >> 11)
                    | (w & 0x000F_F000) as i32
                    | (((w >> 20) & 1) << 11) as i32
                    | (((w >> 21) & 0x3FF) << 1) as i32
            }
            Format::CsrImm => ((w >> 15) & 0x1F) as i32,
            Format::R | Format::Csr | Format::Fixed => 0,
        };
        let (rd, rs1, rs2, csr) = (reg(7), reg(15), reg(20), (w >> 20) as u16);
        Fields {
            rd,
            rs1,
            rs2,
            imm,
            csr,
        }
    }
}

impl Operand {
    /// The values the operand's field holds, inclusive: for a target,
    /// the offset from the pc; for an upper immediate, before its shift.
    #[must_use]
    pub fn range(self) -> (i64, i64) {
        match self {
            Operand::Rd | Operand::Rs1 | Operand::Rs2 | Operand::Shamt | Operand::Uimm => (0, 31),
            Operand::Imm | Operand::Mem => (-2048, 2047),
            Operand::Branch => (-4096, 4094),
            Operand::Jump => (-(1 << 20), (1 << 20) - 1),
            Operand::Upper => (0, 0xF_FFFF),
            Operand::Csr => (0, 0xFFF),
        }
    }
}

/// The operands of one instruction, whatever its format; the ones its
/// format lacks are zero. `imm` holds an upper immediate shifted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fields {
    pub rd: Reg,
    pub rs1: Reg,
    pub rs2: Reg,
    pub imm: i32,
    pub csr: u16,
}

/// The [`Inst`] variant a row decodes to, with its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lui,
    Auipc,
    Jal,
    Jalr,
    Branch(BranchOp),
    Load(MemWidth),
    Store(MemWidth),
    AluImm(AluOp),
    Alu(AluOp),
    Mul(MulOp),
    Csr(CsrOp),
    CsrImm(CsrOp),
    /// An instruction without operands.
    Fixed(Inst),
}

impl Op {
    /// The instruction with these operands.
    #[inline]
    #[must_use]
    pub fn inst(self, f: Fields) -> Inst {
        let Fields {
            rd,
            rs1,
            rs2,
            imm,
            csr,
        } = f;
        let (offset, uimm) = (imm, imm as u32);
        match self {
            Op::Lui => Inst::Lui { rd, imm: uimm },
            Op::Auipc => Inst::Auipc { rd, imm: uimm },
            Op::Jal => Inst::Jal { rd, offset },
            Op::Jalr => Inst::Jalr { rd, rs1, offset },
            Op::Branch(op) => Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            },
            Op::Load(width) => Inst::Load {
                width,
                rd,
                rs1,
                offset,
            },
            Op::Store(width) => Inst::Store {
                width,
                rs1,
                rs2,
                offset,
            },
            Op::AluImm(op) => Inst::AluImm { op, rd, rs1, imm },
            Op::Alu(op) => Inst::Alu { op, rd, rs1, rs2 },
            Op::Mul(op) => Inst::Mul { op, rd, rs1, rs2 },
            Op::Csr(op) => Inst::Csr { op, rd, rs1, csr },
            Op::CsrImm(op) => Inst::CsrImm {
                op,
                rd,
                imm: imm as u8,
                csr,
            },
            Op::Fixed(inst) => inst,
        }
    }

    /// The inverse of [`Op::inst`]. A store's width drops its extension
    /// (`ByteU` stores as `Byte`), since a store does not extend.
    #[must_use]
    pub fn split(inst: &Inst) -> (Op, Fields) {
        let op = match *inst {
            Inst::Lui { .. } => Op::Lui,
            Inst::Auipc { .. } => Op::Auipc,
            Inst::Jal { .. } => Op::Jal,
            Inst::Jalr { .. } => Op::Jalr,
            Inst::Branch { op, .. } => Op::Branch(op),
            Inst::Load { width, .. } => Op::Load(width),
            Inst::Store { width, .. } => Op::Store(width.stored()),
            Inst::AluImm { op, .. } => Op::AluImm(op),
            Inst::Alu { op, .. } => Op::Alu(op),
            Inst::Mul { op, .. } => Op::Mul(op),
            Inst::Csr { op, .. } => Op::Csr(op),
            Inst::CsrImm { op, .. } => Op::CsrImm(op),
            Inst::Fence | Inst::Ecall | Inst::Ebreak | Inst::Mret | Inst::Wfi => Op::Fixed(*inst),
        };
        let (imm, csr) = match *inst {
            Inst::Lui { imm, .. } | Inst::Auipc { imm, .. } => (imm as i32, 0),
            Inst::Jal { offset, .. }
            | Inst::Jalr { offset, .. }
            | Inst::Branch { offset, .. }
            | Inst::Load { offset, .. }
            | Inst::Store { offset, .. } => (offset, 0),
            Inst::AluImm { imm, .. } => (imm, 0),
            Inst::Csr { csr, .. } => (0, csr),
            Inst::CsrImm { imm, csr, .. } => (imm.into(), csr),
            _ => (0, 0),
        };
        let (rs1, rs2) = inst.sources();
        let [rd, rs1, rs2] = [inst.dest(), rs1, rs2].map(Option::unwrap_or_default);
        (
            op,
            Fields {
                rd,
                rs1,
                rs2,
                imm,
                csr,
            },
        )
    }
}

/// One real instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Assembly mnemonic.
    pub name: &'static str,
    /// Operand layout and syntax.
    pub format: Format,
    /// The word with every operand zero: opcode, funct3 and funct7, or
    /// the whole word of a fixed instruction.
    pub bits: u32,
    /// The bits of a word that must equal `bits` for it to decode here.
    pub mask: u32,
    /// What it decodes to.
    pub op: Op,
}

impl Row {
    /// The word of this instruction with operands `f`.
    #[must_use]
    pub fn encode(&self, f: &Fields) -> u32 {
        self.bits | self.format.pack(f)
    }
}

const fn row(name: &'static str, format: Format, opcode: u32, f3: u32, f7: u32, op: Op) -> Row {
    let (bits, mask) = ((f7 << 25) | (f3 << 12) | opcode, format.mask());
    Row {
        name,
        format,
        bits,
        mask,
        op,
    }
}

const fn word(name: &'static str, bits: u32, inst: Inst) -> Row {
    Row {
        mask: Format::Fixed.mask(),
        ..row(name, Format::Fixed, bits, 0, 0, Op::Fixed(inst))
    }
}

const LUI: u32 = 0b011_0111;
const AUIPC: u32 = 0b001_0111;
const JAL: u32 = 0b110_1111;
const JALR: u32 = 0b110_0111;
const BRANCH: u32 = 0b110_0011;
const LOAD: u32 = 0b000_0011;
const STORE: u32 = 0b010_0011;
const OP_IMM: u32 = 0b001_0011;
const OP: u32 = 0b011_0011;
const SYSTEM: u32 = 0b111_0011;

/// RV32I, RV32M, `mret`/`wfi` and Zicsr, in the spec's order.
pub static ROWS: [Row; 56] = [
    row("lui", U, LUI, 0, 0, Op::Lui),
    row("auipc", U, AUIPC, 0, 0, Op::Auipc),
    row("jal", J, JAL, 0, 0, Op::Jal),
    row("jalr", Ld, JALR, 0, 0, Op::Jalr),
    row("beq", B, BRANCH, 0b000, 0, Br(BranchOp::Eq)),
    row("bne", B, BRANCH, 0b001, 0, Br(BranchOp::Ne)),
    row("blt", B, BRANCH, 0b100, 0, Br(BranchOp::Lt)),
    row("bge", B, BRANCH, 0b101, 0, Br(BranchOp::Ge)),
    row("bltu", B, BRANCH, 0b110, 0, Br(BranchOp::Ltu)),
    row("bgeu", B, BRANCH, 0b111, 0, Br(BranchOp::Geu)),
    row("lb", Ld, LOAD, 0b000, 0, Load(MemWidth::Byte)),
    row("lh", Ld, LOAD, 0b001, 0, Load(MemWidth::Half)),
    row("lw", Ld, LOAD, 0b010, 0, Load(MemWidth::Word)),
    row("lbu", Ld, LOAD, 0b100, 0, Load(MemWidth::ByteU)),
    row("lhu", Ld, LOAD, 0b101, 0, Load(MemWidth::HalfU)),
    row("sb", S, STORE, 0b000, 0, Store(MemWidth::Byte)),
    row("sh", S, STORE, 0b001, 0, Store(MemWidth::Half)),
    row("sw", S, STORE, 0b010, 0, Store(MemWidth::Word)),
    row("addi", I, OP_IMM, 0b000, 0, AluImm(AluOp::Add)),
    row("slti", I, OP_IMM, 0b010, 0, AluImm(AluOp::Slt)),
    row("sltiu", I, OP_IMM, 0b011, 0, AluImm(AluOp::Sltu)),
    row("xori", I, OP_IMM, 0b100, 0, AluImm(AluOp::Xor)),
    row("ori", I, OP_IMM, 0b110, 0, AluImm(AluOp::Or)),
    row("andi", I, OP_IMM, 0b111, 0, AluImm(AluOp::And)),
    row("slli", Sh, OP_IMM, 0b001, 0b000_0000, AluImm(AluOp::Sll)),
    row("srli", Sh, OP_IMM, 0b101, 0b000_0000, AluImm(AluOp::Srl)),
    row("srai", Sh, OP_IMM, 0b101, 0b010_0000, AluImm(AluOp::Sra)),
    row("add", R, OP, 0b000, 0b000_0000, Alu(AluOp::Add)),
    row("sub", R, OP, 0b000, 0b010_0000, Alu(AluOp::Sub)),
    row("sll", R, OP, 0b001, 0b000_0000, Alu(AluOp::Sll)),
    row("slt", R, OP, 0b010, 0b000_0000, Alu(AluOp::Slt)),
    row("sltu", R, OP, 0b011, 0b000_0000, Alu(AluOp::Sltu)),
    row("xor", R, OP, 0b100, 0b000_0000, Alu(AluOp::Xor)),
    row("srl", R, OP, 0b101, 0b000_0000, Alu(AluOp::Srl)),
    row("sra", R, OP, 0b101, 0b010_0000, Alu(AluOp::Sra)),
    row("or", R, OP, 0b110, 0b000_0000, Alu(AluOp::Or)),
    row("and", R, OP, 0b111, 0b000_0000, Alu(AluOp::And)),
    // Any MISC-MEM word: one hart has one memory order.
    Row {
        mask: 0x7F,
        ..word("fence", 0x0FF0_000F, Inst::Fence)
    },
    word("ecall", 0x0000_0073, Inst::Ecall),
    word("ebreak", 0x0010_0073, Inst::Ebreak),
    row("mul", R, OP, 0b000, 0b000_0001, Mul(MulOp::Mul)),
    row("mulh", R, OP, 0b001, 0b000_0001, Mul(MulOp::Mulh)),
    row("mulhsu", R, OP, 0b010, 0b000_0001, Mul(MulOp::Mulhsu)),
    row("mulhu", R, OP, 0b011, 0b000_0001, Mul(MulOp::Mulhu)),
    row("div", R, OP, 0b100, 0b000_0001, Mul(MulOp::Div)),
    row("divu", R, OP, 0b101, 0b000_0001, Mul(MulOp::Divu)),
    row("rem", R, OP, 0b110, 0b000_0001, Mul(MulOp::Rem)),
    row("remu", R, OP, 0b111, 0b000_0001, Mul(MulOp::Remu)),
    word("mret", 0x3020_0073, Inst::Mret),
    word("wfi", 0x1050_0073, Inst::Wfi),
    row("csrrw", Cr, SYSTEM, 0b001, 0, Csr(CsrOp::Rw)),
    row("csrrs", Cr, SYSTEM, 0b010, 0, Csr(CsrOp::Rs)),
    row("csrrc", Cr, SYSTEM, 0b011, 0, Csr(CsrOp::Rc)),
    row("csrrwi", Ci, SYSTEM, 0b101, 0, CsrImm(CsrOp::Rw)),
    row("csrrsi", Ci, SYSTEM, 0b110, 0, CsrImm(CsrOp::Rs)),
    row("csrrci", Ci, SYSTEM, 0b111, 0, CsrImm(CsrOp::Rc)),
];

/// No row: an empty slot of [`BY_KEY`].
const NONE: u8 = u8::MAX;

/// Row indices by opcode and funct3 (`opcode * 8 + funct3`), at most
/// four candidates each, so a decode checks a handful of masks instead
/// of scanning the table.
static BY_KEY: [[u8; 4]; 1024] = index(&ROWS);

const fn index(rows: &[Row]) -> [[u8; 4]; 1024] {
    let mut by_key = [[NONE; 4]; 1024];
    let mut r = 0;
    while r < rows.len() {
        let row = &rows[r];
        let mut f3 = 0;
        while f3 < 8 {
            if row.mask & 0x7000 == 0 || (row.bits >> 12) & 7 == f3 {
                let slot = &mut by_key[(row.bits & 0x7F) as usize * 8 + f3 as usize];
                let mut k = 0;
                while slot[k] != NONE {
                    k += 1;
                }
                slot[k] = r as u8;
            }
            f3 += 1;
        }
        r += 1;
    }
    by_key
}

/// The row a word decodes by, if any: the first of its slot's
/// candidates whose key matches ([`NONE`] is past every row).
#[inline]
#[must_use]
pub fn find(word: u32) -> Option<&'static Row> {
    for &r in &BY_KEY[(word & 0x7F) as usize * 8 + ((word >> 12) & 7) as usize] {
        let row = ROWS.get(usize::from(r))?;
        if (word ^ row.bits) & row.mask == 0 {
            return Some(row);
        }
    }
    None
}

/// The row with this mnemonic, if any.
#[must_use]
pub fn named(name: &str) -> Option<&'static Row> {
    ROWS.iter().find(|row| row.name == name)
}

/// The row of an instruction and its operands.
///
/// # Panics
///
/// Panics for `AluImm { op: Sub }`, the one [`Inst`] with no row:
/// RV32I has no `subi`.
#[must_use]
pub fn of(inst: &Inst) -> (&'static Row, Fields) {
    let (op, fields) = Op::split(inst);
    match ROWS.iter().find(|row| row.op == op) {
        Some(row) => (row, fields),
        None => panic!("{inst:?} has no row: subi is not encodable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::decode::decode;
    use crate::disasm::disassemble;
    use crate::encode::encode;

    /// Operands for a row: every register in each slot, and the format's
    /// immediate (and CSR address) at min, max, -1, 0, 1 and each single
    /// bit, in steps of its alignment.
    fn samples(row: &Row) -> Vec<Fields> {
        let (lo, hi, step): (i64, i64, i64) = match row.format {
            Format::I | Format::Load | Format::S => (-2048, 2047, 1),
            Format::Shift | Format::CsrImm => (0, 31, 1),
            Format::B => (-4096, 4094, 2),
            Format::J => (-(1 << 20), (1 << 20) - 2, 2),
            Format::U => (i32::MIN.into(), 0x7FFF_F000, 1 << 12),
            Format::R | Format::Csr | Format::Fixed => (0, 0, 1),
        };
        let single_bits = (0..32).map(|b| 1i64 << b);
        let imms = [lo, hi, -step, 0, step].into_iter().chain(single_bits);
        let f = Fields::default();
        let mut out: Vec<Fields> = imms
            .filter(|v| (lo..=hi).contains(v) && v % step == 0)
            .map(|imm| Fields {
                imm: imm as i32,
                ..f
            })
            .collect();
        for reg in (0..32).map(Reg::new) {
            out.extend([
                Fields { rd: reg, ..f },
                Fields { rs1: reg, ..f },
                Fields { rs2: reg, ..f },
            ]);
        }
        if matches!(row.format, Format::Csr | Format::CsrImm) {
            let csrs = [0xFFF].into_iter().chain((0..12).map(|b| 1 << b));
            out.extend(csrs.map(|csr| Fields { csr, ..f }));
        }
        out
    }

    /// No two rows share a mnemonic, an `Op` or a word, and each row's
    /// own bits decode by it.
    #[test]
    fn the_table_is_well_formed() {
        assert_eq!(ROWS.len(), 56, "RV32I 40, RV32M 8, mret, wfi, Zicsr 6");
        for (i, a) in ROWS.iter().enumerate() {
            assert_eq!(find(a.bits), Some(a), "{}", a.name);
            for b in &ROWS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.op, b.op, "{} and {}", a.name, b.name);
                let shared = a.mask & b.mask;
                assert_ne!((a.bits ^ b.bits) & shared, 0, "{} and {}", a.name, b.name);
            }
        }
    }

    /// A store does not extend: a zero-extending width stores by its
    /// plain width's row.
    #[test]
    fn unsigned_store_widths_encode_as_plain_ones() {
        let f = Fields {
            imm: -4,
            ..Fields::default()
        };
        for (unsigned, plain) in [
            (MemWidth::ByteU, MemWidth::Byte),
            (MemWidth::HalfU, MemWidth::Half),
        ] {
            assert_eq!(
                encode(&Store(unsigned).inst(f)),
                encode(&Store(plain).inst(f))
            );
        }
    }

    /// `decode ∘ encode` is the identity on every row's operands, each
    /// word decodes by the row it came from, and that row is the one
    /// the instruction encodes by.
    #[test]
    fn decode_inverts_encode_on_every_row() {
        for row in &ROWS {
            for f in samples(row) {
                let inst = row.op.inst(f);
                let word = encode(&inst);
                assert_eq!(decode(word, 0), Ok(inst), "{} {word:#010x}", row.name);
                assert_eq!(find(word), Some(row));
                assert_eq!(of(&inst).0, row);
            }
        }
    }

    /// `encode ∘ decode` is the identity on canonical words: every
    /// operand bit alone and all of them at once. A fixed word is its
    /// own only canonical form (any MISC-MEM word decodes as `fence`).
    #[test]
    fn encode_inverts_decode_on_canonical_words() {
        for row in &ROWS {
            let operand_bits = if row.format == Format::Fixed {
                0
            } else {
                !row.mask
            };
            let singles = (0..32).map(|b| 1u32 << b).filter(|b| b & operand_bits != 0);
            for bits in singles.chain([0, operand_bits]) {
                let word = row.bits | bits;
                let inst = decode(word, 0).expect("a canonical word decodes");
                assert_eq!(encode(&inst), word, "{}", row.name);
            }
        }
    }

    /// What the disassembler prints, the assembler reads back to the
    /// same word, at the bottom of memory and where targets wrap.
    #[test]
    fn assemble_inverts_disassemble_on_every_row() {
        for pc in [0, 0xFFC] {
            for row in &ROWS {
                for f in samples(row) {
                    let inst = row.op.inst(f);
                    let text = disassemble(&inst, pc);
                    let image = assemble(&format!(".org {pc:#x}\n{text}"))
                        .unwrap_or_else(|e| panic!("`{text}` at {pc:#x}: {e}"));
                    assert_eq!(image.words(), [encode(&inst)], "`{text}` at {pc:#x}");
                }
            }
        }
    }
}
