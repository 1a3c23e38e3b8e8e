//! Two-pass RISC-V assembler.
//!
//! The paper's toolflow converts NVDLA configuration files into "RISC-V
//! assembly code … compiled into machine code using the RISC-V core SDK".
//! This module is that SDK step: it assembles the generated bare-metal
//! programs (RV32IM + Zicsr plus the usual pseudo-instructions) into a
//! flat binary [`Image`] for the program memory. A mnemonic assembles
//! exactly when it names a row of the instruction table (`table.rs`),
//! whose format says how its operands read, or a pseudo-instruction.
//!
//! Supported directives: `.text`, `.org`, `.align`, `.word`, `.half`,
//! `.byte`, `.space`, `.equ`, `.global` (accepted and ignored).
//!
//! Supported pseudo-instructions: `nop`, `li`, `la`, `mv`, `not`, `neg`,
//! `seqz`, `snez`, `j`, `jal` (one operand), `jr`, `jalr` (one or three
//! operands), `ret`, `call`, `beqz`, `bnez`, `bltz`, `bgez`, `bgt`, `ble`,
//! `bgtu`, `bleu`, `csrr`, `csrw`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rvnv_util::Fnv;

use crate::csr;
use crate::reg::{Reg, ZERO};
use crate::table::{self, Fields, Operand};

/// Pseudo-instructions by mnemonic and operand count, each rewritten
/// onto one real row; `{k}` stands for the k-th operand. `li` and `la`
/// are not here: their expansion depends on the value.
const PSEUDOS: [(&str, usize, &str); 23] = [
    ("nop", 0, "addi zero, zero, 0"),
    ("mv", 2, "addi {0}, {1}, 0"),
    ("not", 2, "xori {0}, {1}, -1"),
    ("neg", 2, "sub {0}, zero, {1}"),
    ("seqz", 2, "sltiu {0}, {1}, 1"),
    ("snez", 2, "sltu {0}, zero, {1}"),
    ("j", 1, "jal zero, {0}"),
    ("jal", 1, "jal ra, {0}"),
    ("jr", 1, "jalr zero, 0({0})"),
    ("jalr", 1, "jalr ra, 0({0})"),
    ("jalr", 3, "jalr {0}, {2}({1})"),
    ("ret", 0, "jalr zero, 0(ra)"),
    ("call", 1, "jal ra, {0}"),
    ("beqz", 2, "beq {0}, zero, {1}"),
    ("bnez", 2, "bne {0}, zero, {1}"),
    ("bltz", 2, "blt {0}, zero, {1}"),
    ("bgez", 2, "bge {0}, zero, {1}"),
    ("bgt", 3, "blt {1}, {0}, {2}"),
    ("ble", 3, "bge {1}, {0}, {2}"),
    ("bgtu", 3, "bltu {1}, {0}, {2}"),
    ("bleu", 3, "bgeu {1}, {0}, {2}"),
    ("csrr", 2, "csrrs {0}, {1}, zero"),
    ("csrw", 2, "csrrw zero, {0}, {1}"),
];

/// An operand template with each `{k}` replaced by `ops[k]`, borrowed
/// unless the operand is composed (`0({0})`).
fn rewrite<'a>(template: &'a str, ops: &'a [impl AsRef<str>]) -> Cow<'a, str> {
    let arg = |k: u8| ops[usize::from(k - b'0')].as_ref();
    match template.as_bytes() {
        [b'{', k, b'}'] => Cow::Borrowed(arg(*k)),
        _ if !template.contains('{') => Cow::Borrowed(template),
        _ => {
            let mut out = String::new();
            let mut rest = template;
            while let Some(open) = rest.find('{') {
                out.push_str(&rest[..open]);
                out.push_str(arg(rest.as_bytes()[open + 1]));
                rest = &rest[open + 3..];
            }
            out.push_str(rest);
            Cow::Owned(out)
        }
    }
}

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

fn parse_csr_name(s: &str) -> Option<i64> {
    let csr = match s {
        "mstatus" => csr::MSTATUS,
        "mtvec" => csr::MTVEC,
        "mscratch" => csr::MSCRATCH,
        "mepc" => csr::MEPC,
        "mcause" => csr::MCAUSE,
        "mcycle" => csr::MCYCLE,
        "minstret" => csr::MINSTRET,
        "mcycleh" => csr::MCYCLEH,
        "minstreth" => csr::MINSTRETH,
        "mhartid" => csr::MHARTID,
        _ => return parse_int(s),
    };
    Some(csr.into())
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
    fn mem_operand(&self, s: &str, line: usize) -> Result<(i64, Reg), AsmError> {
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
        Ok((offset, self.reg(&s[open + 1..close], line)?))
    }

    /// Read one operand of a real instruction into `f`.
    fn operand(
        &self,
        operand: Operand,
        s: &str,
        f: &mut Fields,
        pc: u32,
        line: usize,
    ) -> Result<(), AsmError> {
        let value = match operand {
            Operand::Rd | Operand::Rs1 | Operand::Rs2 => self.reg(s, line)?.index().into(),
            Operand::Mem => {
                let (offset, rs1) = self.mem_operand(s, line)?;
                f.rs1 = rs1;
                offset
            }
            Operand::Branch | Operand::Jump => {
                let target = self.resolve(s, line)? as u32;
                i64::from(target.wrapping_sub(pc) as i32)
            }
            Operand::Csr => parse_csr_name(s).ok_or_else(|| AsmError {
                line,
                message: format!("unknown CSR `{s}`"),
            })?,
            _ => self.resolve(s, line)?,
        };
        let (lo, hi) = operand.range();
        if !(lo..=hi).contains(&value) {
            return err(line, format!("`{s}` is {value}, out of range {lo}..={hi}"));
        }
        match operand {
            Operand::Rd => f.rd = Reg::new(value as u8),
            Operand::Rs1 => f.rs1 = Reg::new(value as u8),
            Operand::Rs2 => f.rs2 = Reg::new(value as u8),
            Operand::Csr => f.csr = value as u16,
            Operand::Upper => f.imm = (value << 12) as i32,
            _ => f.imm = value as i32,
        }
        Ok(())
    }

    /// The words of one instruction statement: `li`/`la` by their value,
    /// a pseudo-instruction by its rewrite, a real one by its row.
    fn encode_inst(
        &self,
        mnemonic: &str,
        ops: &[impl AsRef<str>],
        pc: u32,
        line: usize,
    ) -> Result<Vec<u32>, AsmError> {
        let n = ops.len();
        if mnemonic == "li" || mnemonic == "la" {
            return self.load_immediate(mnemonic, ops, line);
        }
        if let Some((_, _, template)) = PSEUDOS.iter().find(|p| p.0 == mnemonic && p.1 == n) {
            let (real, templates) = template.split_once(' ').unwrap_or((template, ""));
            let mut operands: [Cow<str>; 3] = Default::default();
            let mut k = 0;
            for t in templates.split(", ") {
                operands[k] = rewrite(t, ops);
                k += 1;
            }
            return self.encode_inst(real, &operands[..k], pc, line);
        }
        let row = table::named(mnemonic).ok_or_else(|| AsmError {
            line,
            message: format!("unknown mnemonic `{mnemonic}`"),
        })?;
        let operands = row.format.operands();
        if n != operands.len() {
            let k = operands.len();
            return err(line, format!("`{mnemonic}` expects {k} operands, got {n}"));
        }
        let mut f = Fields::default();
        for (&operand, s) in operands.iter().zip(ops) {
            self.operand(operand, s.as_ref(), &mut f, pc, line)?;
        }
        Ok(vec![row.encode(&f)])
    }

    /// `li`/`la`: `lui` + `addi`, or one `addi` for a `li` that fits 12
    /// bits.
    fn load_immediate(
        &self,
        mnemonic: &str,
        ops: &[impl AsRef<str>],
        line: usize,
    ) -> Result<Vec<u32>, AsmError> {
        if ops.len() != 2 {
            return err(
                line,
                format!("`{mnemonic}` expects 2 operands, got {}", ops.len()),
            );
        }
        let rd = self.reg(ops[0].as_ref(), line)?;
        let val = self.resolve(ops[1].as_ref(), line)?;
        let row = |name| table::named(name).expect("lui and addi are rows");
        let addi = |rs1, imm| {
            row("addi").encode(&Fields {
                rd,
                rs1,
                imm,
                ..Fields::default()
            })
        };
        if mnemonic == "li" {
            if !(-(1i64 << 31)..(1i64 << 32)).contains(&val) {
                return err(line, format!("li immediate {val} out of 32-bit range"));
            }
            if fits12(val) {
                return Ok(vec![addi(ZERO, val as i32)]);
            }
        }
        let (hi, lo) = hi_lo(val as u32);
        let lui = Fields {
            rd,
            imm: hi as i32,
            ..Fields::default()
        };
        Ok(vec![row("lui").encode(&lui), addi(rd, lo)])
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
                    let words = self.encode_inst(mnemonic, operands, pc, line.number)?;
                    // Pseudo-expansion size must match pass 1.
                    let expect = self.stmt_size(line, pc)?;
                    if words.len() as u32 * 4 != expect {
                        return err(
                            line.number,
                            format!(
                                "internal: pass1 sized `{mnemonic}` at {expect} bytes, pass2 at {}",
                                words.len() * 4
                            ),
                        );
                    }
                    for word in words {
                        data.extend_from_slice(&word.to_le_bytes());
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
    fn li_small_is_one_instruction() {
        assert_eq!(words("li a0, 100").len(), 1);
        assert_eq!(words("li a0, -2048").len(), 1);
    }

    /// A `li` that does not fit 12 bits is `lui` + `addi`, with the
    /// `lui` rounded up when the low half is negative.
    #[test]
    fn li_large_is_lui_addi_pair() {
        let pair = "lui a0, 0x12345\naddi a0, a0, 0x678";
        assert_eq!(words("li a0, 0x12345678"), words(pair));
        let carried = "lui t0, 0x101\naddi t0, t0, -1";
        assert_eq!(words("li t0, 0x00100FFF"), words(carried));
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
        let ws = words("j end\nnop\nend: ebreak");
        assert_eq!(ws[0], words("jal zero, 8")[0]);
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
        let split = "lui a0, %hi(0x12345FFF)\naddi a0, a0, %lo(0x12345FFF)";
        assert_eq!(words(split), words("lui a0, 0x12346\naddi a0, a0, -1"));
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
        let aliases = "csrr t0, mcycle\ncsrw mscratch, t0";
        let rows = "csrrs t0, 0xb00, zero\ncsrrw zero, 0x340, t0";
        assert_eq!(words(aliases), words(rows));
    }

    #[test]
    fn error_reporting_includes_line() {
        let e = assemble("nop\n  frobnicate a0, a1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
        let e = assemble("addi a0, zero, 5000").unwrap_err();
        assert!(e.message.contains("out of range -2048..=2047"), "{e}");
        let e = assemble("bne t0, t1, nowhere").unwrap_err();
        assert!(e.message.contains("undefined symbol"));
        let e = assemble("lw t0, 4[a0]").unwrap_err();
        assert!(e.message.contains("offset(reg)"));
    }

    /// The forms the disassembler prints for `jalr` and the CSR
    /// immediates are rows like any other, so they assemble.
    #[test]
    fn disassembler_forms_of_jalr_and_csr_immediates_assemble() {
        assert_eq!(words("jalr ra, 8(a0)"), [0x0085_00E7]);
        assert_eq!(words("jalr ra, a0, 8"), [0x0085_00E7]);
        assert_eq!(words("jalr a0"), [0x0005_00E7]);
        assert_eq!(words("csrrwi zero, 0x300, 5"), [0x3002_D073]);
        assert_eq!(words("csrrsi t0, mstatus, 31"), [0x300F_E2F3]);
        assert_eq!(words("csrrci a0, 0x7c0, 1"), [0x7C00_F573]);
        let e = assemble("csrrwi zero, 0x300, 32").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = assemble("csrrw zero, 0x1000, t0").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    /// The module doc lists exactly the pseudo-instructions there are.
    #[test]
    fn documented_pseudo_instructions_are_the_rewrite_list() {
        let src = include_str!("asm.rs");
        let doc = src
            .split("//! Supported pseudo-instructions:")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("the module doc lists the pseudo-instructions");
        let documented: std::collections::BTreeSet<&str> =
            doc.split('`').skip(1).step_by(2).collect();
        let mut listed: std::collections::BTreeSet<&str> = PSEUDOS.iter().map(|p| p.0).collect();
        listed.extend(["li", "la"]);
        assert_eq!(documented, listed);
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
