//! Two-pass RISC-V assembler.
//!
//! The paper's toolflow converts NVDLA configuration files into "RISC-V
//! assembly code … compiled into machine code using the RISC-V core SDK".
//! This module is that SDK step: it assembles the generated bare-metal
//! programs (RV32IM + Zicsr plus the usual pseudo-instructions) into a
//! flat binary [`Image`] for the program memory.
//!
//! Supported directives: `.text`, `.org`, `.align`, `.word`, `.half`,
//! `.byte`, `.space`, `.equ`, `.global` (accepted and ignored).
//!
//! Supported pseudo-instructions: `nop`, `li`, `la`, `mv`, `not`, `neg`,
//! `seqz`, `snez`, `j`, `jr`, `ret`, `call`, `beqz`, `bnez`, `bgt`,
//! `ble`, `bgtu`, `bleu`, `csrr`, `csrw`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rvnv_util::Fnv;

use crate::csr;
use crate::encode::encode;
use crate::inst::{AluOp, BranchOp, CsrOp, Inst, MemWidth, MulOp};
use crate::reg::{Reg, RA, ZERO};

/// Assembly failure with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// An assembled flat binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    base: u32,
    data: Vec<u8>,
    symbols: BTreeMap<String, u32>,
    /// FNV-1a of the base and the bytes, folded once by the assembler.
    fingerprint: u64,
}

impl Image {
    /// Load address of the image (set by the first `.org`, default 0).
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Content identity of the image: FNV-1a over its base and bytes.
    /// O(1) — the assembler folds it once — so a caller that keys state
    /// on the image (the SoC's decoded-block cache) need not re-hash it
    /// every run.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The raw little-endian bytes, copied.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// The raw little-endian bytes, borrowed.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image contains no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Address of a label, if defined.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All defined symbols.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// The image as 32-bit words (zero-padded at the tail).
    #[must_use]
    pub fn words(&self) -> Vec<u32> {
        self.data
            .chunks(4)
            .map(|c| {
                let mut w = [0u8; 4];
                w[..c.len()].copy_from_slice(c);
                u32::from_le_bytes(w)
            })
            .collect()
    }
}

/// One parsed source statement.
#[derive(Debug, Clone)]
enum Stmt {
    Inst {
        mnemonic: String,
        operands: Vec<String>,
    },
    Directive {
        name: String,
        operands: Vec<String>,
    },
}

#[derive(Debug, Clone)]
struct Line {
    number: usize,
    labels: Vec<String>,
    stmt: Option<Stmt>,
}

fn tokenize_line(number: usize, raw: &str) -> Result<Line, AsmError> {
    // Strip comments (# or //), keeping it simple: no string literals
    // containing # are supported.
    let mut text = raw;
    if let Some(i) = text.find('#') {
        text = &text[..i];
    }
    if let Some(i) = text.find("//") {
        text = &text[..i];
    }
    let mut labels = Vec::new();
    let mut rest = text.trim();
    while let Some(colon) = rest.find(':') {
        let (head, tail) = rest.split_at(colon);
        let label = head.trim();
        if label.is_empty()
            || !label
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
        {
            break;
        }
        labels.push(label.to_string());
        rest = tail[1..].trim();
    }
    let stmt = if rest.is_empty() {
        None
    } else {
        let (mnemonic, args) = match rest.find(char::is_whitespace) {
            Some(i) => (&rest[..i], rest[i..].trim()),
            None => (rest, ""),
        };
        let operands: Vec<String> = if args.is_empty() {
            Vec::new()
        } else {
            args.split(',').map(|s| s.trim().to_string()).collect()
        };
        if operands.iter().any(String::is_empty) {
            return err(number, "empty operand");
        }
        let mnemonic = mnemonic.to_ascii_lowercase();
        if mnemonic.starts_with('.') {
            Some(Stmt::Directive {
                name: mnemonic,
                operands,
            })
        } else {
            Some(Stmt::Inst { mnemonic, operands })
        }
    };
    Ok(Line {
        number,
        labels,
        stmt,
    })
}

/// Parse an integer literal: decimal, `0x…`, `0b…`, optionally negative.
fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        body.replace('_', "").parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_csr_name(s: &str) -> Option<u16> {
    match s {
        "mstatus" => Some(csr::MSTATUS),
        "mtvec" => Some(csr::MTVEC),
        "mscratch" => Some(csr::MSCRATCH),
        "mepc" => Some(csr::MEPC),
        "mcause" => Some(csr::MCAUSE),
        "mcycle" => Some(csr::MCYCLE),
        "minstret" => Some(csr::MINSTRET),
        "mcycleh" => Some(csr::MCYCLEH),
        "minstreth" => Some(csr::MINSTRETH),
        "mhartid" => Some(csr::MHARTID),
        _ => parse_int(s).and_then(|v| u16::try_from(v).ok()),
    }
}

/// Split `li`-style immediates into a LUI part and a sign-adjusted
/// ADDI part such that `(hi << 12) + sext(lo) == value`.
fn hi_lo(value: u32) -> (u32, i32) {
    let lo = (value & 0xFFF) as i32;
    let lo = if lo >= 0x800 { lo - 0x1000 } else { lo };
    let hi = value.wrapping_sub(lo as u32);
    (hi, lo)
}

fn fits12(v: i64) -> bool {
    (-2048..=2047).contains(&v)
}

#[derive(Debug)]
struct Assembler<'a> {
    symbols: BTreeMap<String, u32>,
    equs: BTreeMap<String, i64>,
    lines: Vec<Line>,
    source: &'a str,
}

impl<'a> Assembler<'a> {
    fn parse(source: &'a str) -> Result<Self, AsmError> {
        let mut lines = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            lines.push(tokenize_line(i + 1, raw)?);
        }
        Ok(Assembler {
            symbols: BTreeMap::new(),
            equs: BTreeMap::new(),
            lines,
            source,
        })
    }

    /// Size in bytes of a statement (pass 1).
    fn stmt_size(&self, line: &Line, pc: u32) -> Result<u32, AsmError> {
        let Some(stmt) = &line.stmt else { return Ok(0) };
        match stmt {
            Stmt::Inst { mnemonic, operands } => Ok(match mnemonic.as_str() {
                "li" => {
                    let val = operands
                        .get(1)
                        .and_then(|s| self.resolve_int(s))
                        .unwrap_or(i64::MAX);
                    if fits12(val) {
                        4
                    } else {
                        8
                    }
                }
                "la" => 8,
                _ => 4,
            }),
            Stmt::Directive { name, operands } => match name.as_str() {
                ".word" => Ok(4 * operands.len() as u32),
                ".half" => Ok(2 * operands.len() as u32),
                ".byte" => Ok(operands.len() as u32),
                ".space" => {
                    let n = operands
                        .first()
                        .and_then(|s| self.resolve_int(s))
                        .unwrap_or(0);
                    Ok(n as u32)
                }
                ".align" => {
                    let n = operands
                        .first()
                        .and_then(|s| self.resolve_int(s))
                        .unwrap_or(2);
                    let align = 1u32 << n;
                    Ok((align - (pc % align)) % align)
                }
                ".org" => {
                    let target = self
                        .resolve_int(operands.first().map_or("", String::as_str))
                        .unwrap_or(0) as u32;
                    if target < pc {
                        return err(line.number, format!(".org {target:#x} moves backwards"));
                    }
                    Ok(target - pc)
                }
                _ => Ok(0),
            },
        }
    }

    /// Resolve a numeric literal or `.equ` constant (not labels).
    fn resolve_int(&self, s: &str) -> Option<i64> {
        parse_int(s).or_else(|| self.equs.get(s).copied())
    }

    /// Resolve any expression to a value: literal, `.equ`, label,
    /// `%hi(x)`, `%lo(x)`.
    fn resolve(&self, s: &str, line: usize) -> Result<i64, AsmError> {
        let s = s.trim();
        if let Some(inner) = s.strip_prefix("%hi(").and_then(|r| r.strip_suffix(')')) {
            let v = self.resolve(inner, line)? as u32;
            let (hi, _) = hi_lo(v);
            return Ok(i64::from(hi >> 12));
        }
        if let Some(inner) = s.strip_prefix("%lo(").and_then(|r| r.strip_suffix(')')) {
            let v = self.resolve(inner, line)? as u32;
            let (_, lo) = hi_lo(v);
            return Ok(i64::from(lo));
        }
        if let Some(v) = self.resolve_int(s) {
            return Ok(v);
        }
        // `symbol+offset` / `symbol-offset`.
        for (i, c) in s.char_indices().skip(1) {
            if c == '+' || c == '-' {
                let base = self.resolve(&s[..i], line)?;
                let off = self.resolve(&s[i + 1..], line)?;
                return Ok(if c == '+' { base + off } else { base - off });
            }
        }
        if let Some(&addr) = self.symbols.get(s) {
            return Ok(i64::from(addr));
        }
        err(line, format!("undefined symbol `{s}`"))
    }

    fn reg(&self, s: &str, line: usize) -> Result<Reg, AsmError> {
        Reg::parse(s.trim()).ok_or_else(|| AsmError {
            line,
            message: format!("unknown register `{s}`"),
        })
    }

    /// Parse `offset(reg)` memory operands.
    fn mem_operand(&self, s: &str, line: usize) -> Result<(i32, Reg), AsmError> {
        let s = s.trim();
        let open = s.rfind('(').ok_or_else(|| AsmError {
            line,
            message: format!("expected `offset(reg)`, got `{s}`"),
        })?;
        let close = s.rfind(')').filter(|&c| c > open).ok_or_else(|| AsmError {
            line,
            message: format!("unbalanced parentheses in `{s}`"),
        })?;
        let off_str = s[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            self.resolve(off_str, line)?
        };
        if !fits12(offset) {
            return err(line, format!("offset {offset} out of 12-bit range"));
        }
        let reg = self.reg(&s[open + 1..close], line)?;
        Ok((offset as i32, reg))
    }

    fn branch_target(&self, s: &str, pc: u32, line: usize) -> Result<i32, AsmError> {
        let target = self.resolve(s, line)? as u32;
        let offset = target.wrapping_sub(pc) as i32;
        if !(-4096..=4094).contains(&offset) {
            return err(line, format!("branch target {offset} out of range"));
        }
        Ok(offset)
    }

    fn jump_target(&self, s: &str, pc: u32, line: usize) -> Result<i32, AsmError> {
        let target = self.resolve(s, line)? as u32;
        let offset = target.wrapping_sub(pc) as i32;
        if !(-(1 << 20)..(1 << 20)).contains(&offset) {
            return err(line, format!("jump target {offset} out of range"));
        }
        Ok(offset)
    }

    #[allow(clippy::too_many_lines)]
    fn encode_inst(
        &self,
        mnemonic: &str,
        ops: &[String],
        pc: u32,
        line: usize,
    ) -> Result<Vec<Inst>, AsmError> {
        let n = ops.len();
        let want = |k: usize| -> Result<(), AsmError> {
            if n == k {
                Ok(())
            } else {
                err(line, format!("`{mnemonic}` expects {k} operands, got {n}"))
            }
        };
        let alu_ops = |op: AluOp| -> Result<Vec<Inst>, AsmError> {
            want(3)?;
            Ok(vec![Inst::Alu {
                op,
                rd: self.reg(&ops[0], line)?,
                rs1: self.reg(&ops[1], line)?,
                rs2: self.reg(&ops[2], line)?,
            }])
        };
        let alu_imm = |op: AluOp, shift: bool| -> Result<Vec<Inst>, AsmError> {
            want(3)?;
            let imm = self.resolve(&ops[2], line)?;
            if shift {
                if !(0..=31).contains(&imm) {
                    return err(line, format!("shift amount {imm} out of range"));
                }
            } else if !fits12(imm) {
                return err(line, format!("immediate {imm} out of 12-bit range"));
            }
            Ok(vec![Inst::AluImm {
                op,
                rd: self.reg(&ops[0], line)?,
                rs1: self.reg(&ops[1], line)?,
                imm: imm as i32,
            }])
        };
        let mul_ops = |op: MulOp| -> Result<Vec<Inst>, AsmError> {
            want(3)?;
            Ok(vec![Inst::Mul {
                op,
                rd: self.reg(&ops[0], line)?,
                rs1: self.reg(&ops[1], line)?,
                rs2: self.reg(&ops[2], line)?,
            }])
        };
        let branch = |op: BranchOp, swap: bool| -> Result<Vec<Inst>, AsmError> {
            want(3)?;
            let (a, b) = if swap { (1, 0) } else { (0, 1) };
            Ok(vec![Inst::Branch {
                op,
                rs1: self.reg(&ops[a], line)?,
                rs2: self.reg(&ops[b], line)?,
                offset: self.branch_target(&ops[2], pc, line)?,
            }])
        };
        let branch_zero = |op: BranchOp| -> Result<Vec<Inst>, AsmError> {
            want(2)?;
            Ok(vec![Inst::Branch {
                op,
                rs1: self.reg(&ops[0], line)?,
                rs2: ZERO,
                offset: self.branch_target(&ops[1], pc, line)?,
            }])
        };
        let load = |width: MemWidth| -> Result<Vec<Inst>, AsmError> {
            want(2)?;
            let (offset, rs1) = self.mem_operand(&ops[1], line)?;
            Ok(vec![Inst::Load {
                width,
                rd: self.reg(&ops[0], line)?,
                rs1,
                offset,
            }])
        };
        let store = |width: MemWidth| -> Result<Vec<Inst>, AsmError> {
            want(2)?;
            let (offset, rs1) = self.mem_operand(&ops[1], line)?;
            Ok(vec![Inst::Store {
                width,
                rs1,
                rs2: self.reg(&ops[0], line)?,
                offset,
            }])
        };

        match mnemonic {
            // --- U / J types -------------------------------------------------
            "lui" => {
                want(2)?;
                let imm = self.resolve(&ops[1], line)?;
                if !(0..=0xF_FFFF).contains(&imm) {
                    return err(line, format!("lui immediate {imm} out of 20-bit range"));
                }
                Ok(vec![Inst::Lui {
                    rd: self.reg(&ops[0], line)?,
                    imm: (imm as u32) << 12,
                }])
            }
            "auipc" => {
                want(2)?;
                let imm = self.resolve(&ops[1], line)?;
                Ok(vec![Inst::Auipc {
                    rd: self.reg(&ops[0], line)?,
                    imm: (imm as u32) << 12,
                }])
            }
            "jal" => match n {
                1 => Ok(vec![Inst::Jal {
                    rd: RA,
                    offset: self.jump_target(&ops[0], pc, line)?,
                }]),
                2 => Ok(vec![Inst::Jal {
                    rd: self.reg(&ops[0], line)?,
                    offset: self.jump_target(&ops[1], pc, line)?,
                }]),
                _ => err(line, "`jal` expects 1 or 2 operands"),
            },
            "jalr" => match n {
                1 => Ok(vec![Inst::Jalr {
                    rd: RA,
                    rs1: self.reg(&ops[0], line)?,
                    offset: 0,
                }]),
                3 => {
                    let off = self.resolve(&ops[2], line)?;
                    if !fits12(off) {
                        return err(line, "jalr offset out of range");
                    }
                    Ok(vec![Inst::Jalr {
                        rd: self.reg(&ops[0], line)?,
                        rs1: self.reg(&ops[1], line)?,
                        offset: off as i32,
                    }])
                }
                _ => err(line, "`jalr` expects 1 or 3 operands"),
            },
            // --- branches ----------------------------------------------------
            "beq" => branch(BranchOp::Eq, false),
            "bne" => branch(BranchOp::Ne, false),
            "blt" => branch(BranchOp::Lt, false),
            "bge" => branch(BranchOp::Ge, false),
            "bltu" => branch(BranchOp::Ltu, false),
            "bgeu" => branch(BranchOp::Geu, false),
            "bgt" => branch(BranchOp::Lt, true),
            "ble" => branch(BranchOp::Ge, true),
            "bgtu" => branch(BranchOp::Ltu, true),
            "bleu" => branch(BranchOp::Geu, true),
            "beqz" => branch_zero(BranchOp::Eq),
            "bnez" => branch_zero(BranchOp::Ne),
            "bltz" => branch_zero(BranchOp::Lt),
            "bgez" => branch_zero(BranchOp::Ge),
            // --- loads/stores ------------------------------------------------
            "lb" => load(MemWidth::Byte),
            "lbu" => load(MemWidth::ByteU),
            "lh" => load(MemWidth::Half),
            "lhu" => load(MemWidth::HalfU),
            "lw" => load(MemWidth::Word),
            "sb" => store(MemWidth::Byte),
            "sh" => store(MemWidth::Half),
            "sw" => store(MemWidth::Word),
            // --- ALU ---------------------------------------------------------
            "add" => alu_ops(AluOp::Add),
            "sub" => alu_ops(AluOp::Sub),
            "sll" => alu_ops(AluOp::Sll),
            "slt" => alu_ops(AluOp::Slt),
            "sltu" => alu_ops(AluOp::Sltu),
            "xor" => alu_ops(AluOp::Xor),
            "srl" => alu_ops(AluOp::Srl),
            "sra" => alu_ops(AluOp::Sra),
            "or" => alu_ops(AluOp::Or),
            "and" => alu_ops(AluOp::And),
            "addi" => alu_imm(AluOp::Add, false),
            "slti" => alu_imm(AluOp::Slt, false),
            "sltiu" => alu_imm(AluOp::Sltu, false),
            "xori" => alu_imm(AluOp::Xor, false),
            "ori" => alu_imm(AluOp::Or, false),
            "andi" => alu_imm(AluOp::And, false),
            "slli" => alu_imm(AluOp::Sll, true),
            "srli" => alu_imm(AluOp::Srl, true),
            "srai" => alu_imm(AluOp::Sra, true),
            // --- RV32M ---------------------------------------------------------
            "mul" => mul_ops(MulOp::Mul),
            "mulh" => mul_ops(MulOp::Mulh),
            "mulhsu" => mul_ops(MulOp::Mulhsu),
            "mulhu" => mul_ops(MulOp::Mulhu),
            "div" => mul_ops(MulOp::Div),
            "divu" => mul_ops(MulOp::Divu),
            "rem" => mul_ops(MulOp::Rem),
            "remu" => mul_ops(MulOp::Remu),
            // --- system --------------------------------------------------------
            "fence" => Ok(vec![Inst::Fence]),
            "ecall" => Ok(vec![Inst::Ecall]),
            "ebreak" => Ok(vec![Inst::Ebreak]),
            "mret" => Ok(vec![Inst::Mret]),
            "wfi" => Ok(vec![Inst::Wfi]),
            "csrrw" | "csrrs" | "csrrc" => {
                want(3)?;
                let op = match mnemonic {
                    "csrrw" => CsrOp::Rw,
                    "csrrs" => CsrOp::Rs,
                    _ => CsrOp::Rc,
                };
                let csr = parse_csr_name(&ops[1]).ok_or_else(|| AsmError {
                    line,
                    message: format!("unknown CSR `{}`", ops[1]),
                })?;
                Ok(vec![Inst::Csr {
                    op,
                    rd: self.reg(&ops[0], line)?,
                    rs1: self.reg(&ops[2], line)?,
                    csr,
                }])
            }
            "csrr" => {
                want(2)?;
                let csr = parse_csr_name(&ops[1]).ok_or_else(|| AsmError {
                    line,
                    message: format!("unknown CSR `{}`", ops[1]),
                })?;
                Ok(vec![Inst::Csr {
                    op: CsrOp::Rs,
                    rd: self.reg(&ops[0], line)?,
                    rs1: ZERO,
                    csr,
                }])
            }
            "csrw" => {
                want(2)?;
                let csr = parse_csr_name(&ops[0]).ok_or_else(|| AsmError {
                    line,
                    message: format!("unknown CSR `{}`", ops[0]),
                })?;
                Ok(vec![Inst::Csr {
                    op: CsrOp::Rw,
                    rd: ZERO,
                    rs1: self.reg(&ops[1], line)?,
                    csr,
                }])
            }
            // --- pseudo-instructions -------------------------------------------
            "nop" => Ok(vec![Inst::AluImm {
                op: AluOp::Add,
                rd: ZERO,
                rs1: ZERO,
                imm: 0,
            }]),
            "mv" => {
                want(2)?;
                Ok(vec![Inst::AluImm {
                    op: AluOp::Add,
                    rd: self.reg(&ops[0], line)?,
                    rs1: self.reg(&ops[1], line)?,
                    imm: 0,
                }])
            }
            "not" => {
                want(2)?;
                Ok(vec![Inst::AluImm {
                    op: AluOp::Xor,
                    rd: self.reg(&ops[0], line)?,
                    rs1: self.reg(&ops[1], line)?,
                    imm: -1,
                }])
            }
            "neg" => {
                want(2)?;
                Ok(vec![Inst::Alu {
                    op: AluOp::Sub,
                    rd: self.reg(&ops[0], line)?,
                    rs1: ZERO,
                    rs2: self.reg(&ops[1], line)?,
                }])
            }
            "seqz" => {
                want(2)?;
                Ok(vec![Inst::AluImm {
                    op: AluOp::Sltu,
                    rd: self.reg(&ops[0], line)?,
                    rs1: self.reg(&ops[1], line)?,
                    imm: 1,
                }])
            }
            "snez" => {
                want(2)?;
                Ok(vec![Inst::Alu {
                    op: AluOp::Sltu,
                    rd: self.reg(&ops[0], line)?,
                    rs1: ZERO,
                    rs2: self.reg(&ops[1], line)?,
                }])
            }
            "li" => {
                want(2)?;
                let rd = self.reg(&ops[0], line)?;
                let val = self.resolve(&ops[1], line)?;
                if !(-(1i64 << 31)..(1i64 << 32)).contains(&val) {
                    return err(line, format!("li immediate {val} out of 32-bit range"));
                }
                if fits12(val) {
                    Ok(vec![Inst::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: ZERO,
                        imm: val as i32,
                    }])
                } else {
                    let (hi, lo) = hi_lo(val as u32);
                    Ok(vec![
                        Inst::Lui { rd, imm: hi },
                        Inst::AluImm {
                            op: AluOp::Add,
                            rd,
                            rs1: rd,
                            imm: lo,
                        },
                    ])
                }
            }
            "la" => {
                want(2)?;
                let rd = self.reg(&ops[0], line)?;
                let val = self.resolve(&ops[1], line)? as u32;
                let (hi, lo) = hi_lo(val);
                Ok(vec![
                    Inst::Lui { rd, imm: hi },
                    Inst::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        imm: lo,
                    },
                ])
            }
            "j" => {
                want(1)?;
                Ok(vec![Inst::Jal {
                    rd: ZERO,
                    offset: self.jump_target(&ops[0], pc, line)?,
                }])
            }
            "jr" => {
                want(1)?;
                Ok(vec![Inst::Jalr {
                    rd: ZERO,
                    rs1: self.reg(&ops[0], line)?,
                    offset: 0,
                }])
            }
            "ret" => Ok(vec![Inst::Jalr {
                rd: ZERO,
                rs1: RA,
                offset: 0,
            }]),
            "call" => {
                want(1)?;
                Ok(vec![Inst::Jal {
                    rd: RA,
                    offset: self.jump_target(&ops[0], pc, line)?,
                }])
            }
            _ => err(line, format!("unknown mnemonic `{mnemonic}`")),
        }
    }

    fn pass1(&mut self) -> Result<(), AsmError> {
        let mut pc: u32 = 0;
        let lines = self.lines.clone();
        for line in &lines {
            // `.equ` defines constants usable in later sizing decisions.
            if let Some(Stmt::Directive { name, operands }) = &line.stmt {
                if name == ".equ" || name == ".set" {
                    if operands.len() != 2 {
                        return err(line.number, "`.equ` expects name, value");
                    }
                    let v = self.resolve(&operands[1], line.number)?;
                    self.equs.insert(operands[0].clone(), v);
                    continue;
                }
            }
            for label in &line.labels {
                if self.symbols.insert(label.clone(), pc).is_some() {
                    return err(line.number, format!("duplicate label `{label}`"));
                }
            }
            pc = pc
                .checked_add(self.stmt_size(line, pc)?)
                .ok_or_else(|| AsmError {
                    line: line.number,
                    message: "address overflow".into(),
                })?;
        }
        Ok(())
    }

    fn pass2(&self) -> Result<Image, AsmError> {
        let mut data: Vec<u8> = Vec::new();
        let mut pc: u32 = 0;
        let mut base: Option<u32> = None;
        for line in &self.lines {
            let Some(stmt) = &line.stmt else { continue };
            match stmt {
                Stmt::Directive { name, operands } => match name.as_str() {
                    ".equ" | ".set" | ".text" | ".data" | ".global" | ".globl" | ".section" => {}
                    ".org" => {
                        let target = self
                            .resolve(operands.first().map_or("", String::as_str), line.number)?
                            as u32;
                        if base.is_none() && data.is_empty() {
                            base = Some(target);
                            pc = target;
                        } else {
                            if target < pc {
                                return err(line.number, ".org moves backwards");
                            }
                            data.resize(data.len() + (target - pc) as usize, 0);
                            pc = target;
                        }
                    }
                    ".align" => {
                        let n = operands
                            .first()
                            .map_or(Ok(2), |s| self.resolve(s, line.number))?;
                        let align = 1u32 << n;
                        let pad = (align - (pc % align)) % align;
                        data.resize(data.len() + pad as usize, 0);
                        pc += pad;
                    }
                    ".word" => {
                        for op in operands {
                            let v = self.resolve(op, line.number)? as u32;
                            data.extend_from_slice(&v.to_le_bytes());
                            pc += 4;
                        }
                    }
                    ".half" => {
                        for op in operands {
                            let v = self.resolve(op, line.number)? as u16;
                            data.extend_from_slice(&v.to_le_bytes());
                            pc += 2;
                        }
                    }
                    ".byte" => {
                        for op in operands {
                            let v = self.resolve(op, line.number)? as u8;
                            data.push(v);
                            pc += 1;
                        }
                    }
                    ".space" => {
                        let n = self
                            .resolve(operands.first().map_or("0", String::as_str), line.number)?
                            as u32;
                        data.resize(data.len() + n as usize, 0);
                        pc += n;
                    }
                    other => return err(line.number, format!("unknown directive `{other}`")),
                },
                Stmt::Inst { mnemonic, operands } => {
                    let insts = self.encode_inst(mnemonic, operands, pc, line.number)?;
                    // Pseudo-expansion size must match pass 1.
                    let expect = self.stmt_size(line, pc)?;
                    if insts.len() as u32 * 4 != expect {
                        return err(
                            line.number,
                            format!(
                                "internal: pass1 sized `{mnemonic}` at {expect} bytes, pass2 at {}",
                                insts.len() * 4
                            ),
                        );
                    }
                    for inst in insts {
                        data.extend_from_slice(&encode(&inst).to_le_bytes());
                        pc += 4;
                    }
                }
            }
        }
        let _ = self.source;
        let base = base.unwrap_or(0);
        let mut fingerprint = Fnv::new();
        fingerprint.mix(u64::from(base));
        fingerprint.bytes(&data);
        Ok(Image {
            base,
            data,
            symbols: self.symbols.clone(),
            fingerprint: fingerprint.finish(),
        })
    }
}

/// Assemble a complete source file into a flat [`Image`].
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line on any syntax error,
/// unknown mnemonic/register/CSR, undefined symbol, or out-of-range
/// immediate.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), rvnv_riscv::AsmError> {
/// let image = rvnv_riscv::assemble(
///     "   li   a0, 0x100000   # DRAM base
///         lw   t0, 0(a0)
///         ebreak",
/// )?;
/// assert_eq!(image.len(), 16);
/// # Ok(())
/// # }
/// ```
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    let mut asm = Assembler::parse(source)?;
    asm.pass1()?;
    asm.pass2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn words(src: &str) -> Vec<u32> {
        assemble(src).unwrap().words()
    }

    #[test]
    fn empty_and_comment_only_sources() {
        assert!(assemble("").unwrap().is_empty());
        assert!(assemble("# just a comment\n   // another\n")
            .unwrap()
            .is_empty());
    }

    /// The fingerprint is the fold of the base and the bytes: equal
    /// images agree, and moving or changing one changes it.
    #[test]
    fn fingerprint_folds_the_base_and_the_bytes() {
        let img = assemble(".org 0x100\naddi a0, zero, 5\nebreak").unwrap();
        let mut fold = Fnv::new();
        fold.mix(0x100);
        fold.bytes(img.as_bytes());
        assert_eq!(img.fingerprint(), fold.finish());
        let same = assemble(".org 0x100\naddi a0, zero, 5\nebreak").unwrap();
        let moved = assemble(".org 0x200\naddi a0, zero, 5\nebreak").unwrap();
        let changed = assemble(".org 0x100\naddi a0, zero, 6\nebreak").unwrap();
        assert_eq!(same.fingerprint(), img.fingerprint());
        assert_ne!(moved.fingerprint(), img.fingerprint());
        assert_ne!(changed.fingerprint(), img.fingerprint());
    }

    #[test]
    fn basic_instructions_round_trip_through_decoder() {
        let ws = words(
            "   addi a0, zero, 5
                slli a0, a0, 3
                sw   a0, 8(sp)
                lw   a1, 8(sp)
                ebreak",
        );
        assert_eq!(ws.len(), 5);
        for (i, w) in ws.iter().enumerate() {
            decode(*w, (i * 4) as u32).unwrap();
        }
    }

    #[test]
    fn li_small_is_one_instruction() {
        assert_eq!(words("li a0, 100").len(), 1);
        assert_eq!(words("li a0, -2048").len(), 1);
    }

    #[test]
    fn li_large_is_lui_addi_pair() {
        let ws = words("li a0, 0x12345678");
        assert_eq!(ws.len(), 2);
        // Execute mentally: lui 0x12345 + 0x1000 adjust? check via decode.
        let lui = decode(ws[0], 0).unwrap();
        let addi = decode(ws[1], 4).unwrap();
        let (hi, lo) = match (lui, addi) {
            (
                Inst::Lui { imm, .. },
                Inst::AluImm {
                    op: AluOp::Add,
                    imm: lo,
                    ..
                },
            ) => (imm, lo),
            other => panic!("unexpected expansion {other:?}"),
        };
        assert_eq!(hi.wrapping_add(lo as u32), 0x1234_5678);
    }

    #[test]
    fn li_with_high_low_half_adjustment() {
        // 0xFFF in the low bits forces the +1 carry into LUI.
        let ws = words("li t0, 0x00100FFF");
        let lui = decode(ws[0], 0).unwrap();
        let addi = decode(ws[1], 4).unwrap();
        if let (Inst::Lui { imm, .. }, Inst::AluImm { imm: lo, .. }) = (lui, addi) {
            assert_eq!(imm.wrapping_add(lo as u32), 0x0010_0FFF);
        } else {
            panic!("bad expansion");
        }
    }

    #[test]
    fn labels_and_branches() {
        let img = assemble(
            "start:  li   t0, 3
             loop:   addi t0, t0, -1
                     bnez t0, loop
                     j    done
                     nop
             done:   ebreak",
        )
        .unwrap();
        assert_eq!(img.symbol("start"), Some(0));
        assert_eq!(img.symbol("loop"), Some(4));
        assert_eq!(img.symbol("done"), Some(20));
    }

    #[test]
    fn forward_references_resolve() {
        let img = assemble(
            "        j    end
                     nop
             end:    ebreak",
        )
        .unwrap();
        let ws = img.words();
        assert_eq!(
            decode(ws[0], 0).unwrap(),
            Inst::Jal {
                rd: ZERO,
                offset: 8
            }
        );
    }

    #[test]
    fn equ_constants_and_expressions() {
        let img = assemble(
            "   .equ DRAM_BASE, 0x100000
                .equ OFFSET, 16
                li a0, DRAM_BASE
                lw t0, OFFSET(a0)
                .word DRAM_BASE+4
            ",
        )
        .unwrap();
        let ws = img.words();
        assert_eq!(ws.len(), 4); // li expands to 2
        assert_eq!(ws[3], 0x0010_0004);
    }

    #[test]
    fn hi_lo_operators() {
        let ws = words(
            "   lui a0, %hi(0x12345FFF)
                addi a0, a0, %lo(0x12345FFF)",
        );
        let lui = decode(ws[0], 0).unwrap();
        let addi = decode(ws[1], 4).unwrap();
        if let (Inst::Lui { imm, .. }, Inst::AluImm { imm: lo, .. }) = (lui, addi) {
            assert_eq!(imm.wrapping_add(lo as u32), 0x1234_5FFF);
        } else {
            panic!("bad %hi/%lo");
        }
    }

    #[test]
    fn data_directives() {
        let img = assemble(
            "   .byte 1, 2, 3
                .align 2
                .half 0x1234
                .space 2
                .word 0xAABBCCDD",
        )
        .unwrap();
        let b = img.bytes();
        assert_eq!(&b[0..3], &[1, 2, 3]);
        assert_eq!(b[3], 0); // align pad
        assert_eq!(&b[4..6], &[0x34, 0x12]);
        assert_eq!(&b[6..8], &[0, 0]);
        assert_eq!(&b[8..12], &[0xDD, 0xCC, 0xBB, 0xAA]);
    }

    #[test]
    fn org_sets_base_and_pads() {
        let img = assemble(
            "   .org 0x80
                nop
                .org 0x90
                ebreak",
        )
        .unwrap();
        assert_eq!(img.base(), 0x80);
        assert_eq!(img.len(), 0x14); // 0x80..=0x90 + 4
    }

    #[test]
    fn csr_aliases() {
        let ws = words(
            "   csrr t0, mcycle
                csrw mscratch, t0
                csrrs t1, 0xB02, zero",
        );
        assert_eq!(ws.len(), 3);
        assert!(matches!(
            decode(ws[0], 0).unwrap(),
            Inst::Csr {
                op: CsrOp::Rs,
                csr: 0xB00,
                ..
            }
        ));
        assert!(matches!(
            decode(ws[2], 8).unwrap(),
            Inst::Csr { csr: 0xB02, .. }
        ));
    }

    #[test]
    fn error_reporting_includes_line() {
        let e = assemble("nop\n  frobnicate a0, a1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
        let e = assemble("addi a0, zero, 5000").unwrap_err();
        assert!(e.message.contains("12-bit"));
        let e = assemble("bne t0, t1, nowhere").unwrap_err();
        assert!(e.message.contains("undefined symbol"));
        let e = assemble("lw t0, 4[a0]").unwrap_err();
        assert!(e.message.contains("offset(reg)"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn branch_range_checked() {
        let mut src = String::from("start: nop\n");
        for _ in 0..2000 {
            src.push_str("nop\n");
        }
        src.push_str("beq zero, zero, start\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn pseudo_instructions_execute_correctly() {
        use crate::cpu::Core;
        use rvnv_bus::sram::Sram;
        let img = assemble(
            "       li   a0, 7
                    mv   a1, a0
                    neg  a2, a0
                    not  a3, zero
                    seqz a4, zero
                    snez a5, a0
                    call f
                    j    done
            f:      addi a1, a1, 1
                    ret
            done:   ebreak",
        )
        .unwrap();
        let mut core = Core::new(Sram::rom(img.bytes()), Sram::new(64));
        core.run(100).unwrap();
        assert_eq!(core.read_reg(crate::reg::A0), 7);
        assert_eq!(core.read_reg(crate::reg::A1), 8);
        assert_eq!(core.read_reg(crate::reg::A2), (-7i32) as u32);
        assert_eq!(core.read_reg(crate::reg::A3), u32::MAX);
        assert_eq!(core.read_reg(crate::reg::A4), 1);
        assert_eq!(core.read_reg(crate::reg::A5), 1);
    }
}
