//! Integer register file and ABI register names.

use std::fmt;

/// One of the 32 integer registers, `x0`–`x31`; `x0` by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Construct from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "register index {index} out of range");
        Reg(index)
    }

    /// Construct from an index, returning `None` when out of range.
    #[must_use]
    pub fn try_new(index: u8) -> Option<Self> {
        (index < 32).then_some(Reg(index))
    }

    /// Register index, 0–31.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// The ABI name (`zero`, `ra`, `sp`, …).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Parse `x5`, `t0`, `s11`, `zero`, `fp`, … into a register.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        if let Some(rest) = name.strip_prefix('x') {
            if let Ok(n) = rest.parse::<u8>() {
                return Reg::try_new(n);
            }
        }
        if name == "fp" {
            return Some(S0);
        }
        ABI_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| Reg(i as u8))
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// `x0`, hardwired zero.
pub const ZERO: Reg = Reg(0);
/// `x1`, return address.
pub const RA: Reg = Reg(1);
/// `x2`, stack pointer.
pub const SP: Reg = Reg(2);
/// `x3`, global pointer.
pub const GP: Reg = Reg(3);
/// `x4`, thread pointer.
pub const TP: Reg = Reg(4);
/// `x5`, temporary.
pub const T0: Reg = Reg(5);
/// `x6`, temporary.
pub const T1: Reg = Reg(6);
/// `x7`, temporary.
pub const T2: Reg = Reg(7);
/// `x8`, saved register / frame pointer.
pub const S0: Reg = Reg(8);
/// `x9`, saved register.
pub const S1: Reg = Reg(9);
/// `x10`, argument/return.
pub const A0: Reg = Reg(10);
/// `x11`, argument/return.
pub const A1: Reg = Reg(11);
/// `x12`, argument.
pub const A2: Reg = Reg(12);
/// `x13`, argument.
pub const A3: Reg = Reg(13);
/// `x14`, argument.
pub const A4: Reg = Reg(14);
/// `x15`, argument.
pub const A5: Reg = Reg(15);
/// `x28`, temporary.
pub const T3: Reg = Reg(28);
/// `x29`, temporary.
pub const T4: Reg = Reg(29);
/// `x30`, temporary.
pub const T5: Reg = Reg(30);
/// `x31`, temporary.
pub const T6: Reg = Reg(31);

/// The architectural register file (x0 hardwired to zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// All registers zeroed.
    #[must_use]
    pub fn new() -> Self {
        RegFile { regs: [0; 32] }
    }

    /// Read a register (`x0` always reads 0).
    #[must_use]
    pub fn read(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Write a register (writes to `x0` are discarded).
    pub fn write(&mut self, r: Reg, value: u32) {
        if r != ZERO {
            self.regs[r.index() as usize] = value;
        }
    }
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut rf = RegFile::new();
        rf.write(ZERO, 0xFFFF_FFFF);
        assert_eq!(rf.read(ZERO), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut rf = RegFile::new();
        for i in 1..32u8 {
            rf.write(Reg::new(i), u32::from(i) * 3);
        }
        for i in 1..32u8 {
            assert_eq!(rf.read(Reg::new(i)), u32::from(i) * 3);
        }
    }

    #[test]
    fn parse_numeric_and_abi_names() {
        assert_eq!(Reg::parse("x0"), Some(ZERO));
        assert_eq!(Reg::parse("x31"), Some(T6));
        assert_eq!(Reg::parse("zero"), Some(ZERO));
        assert_eq!(Reg::parse("sp"), Some(SP));
        assert_eq!(Reg::parse("fp"), Some(S0));
        assert_eq!(Reg::parse("s11"), Some(Reg::new(27)));
        assert_eq!(Reg::parse("x32"), None);
        assert_eq!(Reg::parse("q7"), None);
    }

    #[test]
    fn display_uses_abi_name() {
        assert_eq!(T0.to_string(), "t0");
        assert_eq!(Reg::new(8).to_string(), "s0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_high_index() {
        let _ = Reg::new(32);
    }
}
