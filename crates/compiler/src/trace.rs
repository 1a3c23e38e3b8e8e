//! Register-command streams and the textual configuration-file format.
//!
//! The configuration file is the paper's central artifact: a sequence of
//! `write_reg` and `read_reg` commands that "directly configure NVDLA's
//! registers, serving as an execution control sequence". `read_reg`
//! stores the expected register value; for the interrupt-status register
//! this is a poll (read until `value & mask == expect`), which is exactly
//! how the generated assembly implements it.

use std::error::Error;
use std::fmt;

use rvnv_nvdla::regs::{self, Block};

/// One command of a configuration file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigCmd {
    /// Write `value` to the CSB register at `addr`.
    WriteReg {
        /// CSB byte address.
        addr: u32,
        /// Value to write.
        value: u32,
    },
    /// Read the CSB register at `addr` until `value & mask == expect`.
    /// A full-mask read with `expect == value` degenerates into the
    /// paper's "store the expected register value" check.
    ReadReg {
        /// CSB byte address.
        addr: u32,
        /// Bits to compare.
        mask: u32,
        /// Expected value of the masked bits.
        expect: u32,
    },
}

impl fmt::Display for ConfigCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigCmd::WriteReg { addr, value } => {
                write!(f, "write_reg {addr:#010x} {value:#010x}")
            }
            ConfigCmd::ReadReg { addr, mask, expect } => {
                write!(f, "read_reg {addr:#010x} {mask:#010x} {expect:#010x}")
            }
        }
    }
}

/// Error parsing a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config file line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Append the commands that run one operation: its register `writes`,
/// the `OP_ENABLE` of each engine in `launch`, the poll of their
/// interrupt bits and its write-1-to-clear.
pub fn push_launch(cmds: &mut Vec<ConfigCmd>, writes: Vec<(u32, u32)>, launch: &[Block]) {
    let writes = writes
        .into_iter()
        .chain(launch.iter().map(|b| (b.base() + regs::REG_OP_ENABLE, 1)));
    cmds.extend(writes.map(|(addr, value)| ConfigCmd::WriteReg { addr, value }));
    let bits = launch
        .iter()
        .filter_map(|b| b.intr_bit())
        .fold(0, |bits, bit| bits | 1 << bit);
    cmds.push(ConfigCmd::ReadReg {
        addr: regs::GLB_INTR_STATUS,
        mask: bits,
        expect: bits,
    });
    cmds.push(ConfigCmd::WriteReg {
        addr: regs::GLB_INTR_STATUS,
        value: bits,
    });
}

/// Serialize a command stream into the textual configuration-file
/// format (one command per line, `#` comments allowed).
#[must_use]
pub fn write_config_file(cmds: &[ConfigCmd]) -> String {
    let mut out = String::with_capacity(cmds.len() * 36);
    out.push_str("# NVDLA configuration file (write_reg/read_reg command sequence)\n");
    for c in cmds {
        out.push_str(&c.to_string());
        out.push('\n');
    }
    out
}

/// Parse a textual configuration file.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines.
pub fn parse_config_file(text: &str) -> Result<Vec<ConfigCmd>, ParseError> {
    let mut cmds = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut it = body.split_whitespace();
        let kind = it.next().expect("non-empty line has a token");
        let mut arg = |name: &str| -> Result<u32, ParseError> {
            let tok = it.next().ok_or_else(|| ParseError {
                line,
                message: format!("missing {name}"),
            })?;
            let hex = tok
                .strip_prefix("0x")
                .or_else(|| tok.strip_prefix("0X"))
                .unwrap_or(tok);
            u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                line,
                message: format!("bad {name} `{tok}`"),
            })
        };
        let cmd = match kind {
            "write_reg" => ConfigCmd::WriteReg {
                addr: arg("address")?,
                value: arg("value")?,
            },
            "read_reg" => ConfigCmd::ReadReg {
                addr: arg("address")?,
                mask: arg("mask")?,
                expect: arg("expect")?,
            },
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown command `{other}`"),
                })
            }
        };
        if it.next().is_some() {
            return Err(ParseError {
                line,
                message: "trailing tokens".into(),
            });
        }
        cmds.push(cmd);
    }
    Ok(cmds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let cmds = vec![
            ConfigCmd::WriteReg {
                addr: 0x5008,
                value: 1,
            },
            ConfigCmd::ReadReg {
                addr: 0xC,
                mask: 0b11,
                expect: 0b11,
            },
            ConfigCmd::WriteReg {
                addr: 0xC,
                value: 0b11,
            },
        ];
        let text = write_config_file(&cmds);
        let back = parse_config_file(&text).unwrap();
        assert_eq!(back, cmds);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nwrite_reg 0x10 0x20  # inline comment\n";
        let cmds = parse_config_file(text).unwrap();
        assert_eq!(
            cmds,
            vec![ConfigCmd::WriteReg {
                addr: 0x10,
                value: 0x20
            }]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_config_file("write_reg 0x10 0x20\nfrobnicate 1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_config_file("write_reg 0x10\n").unwrap_err();
        assert!(e.message.contains("missing value"));
        let e = parse_config_file("read_reg 0x10 0x1 0x1 0x9\n").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_config_file("write_reg zzz 0x1\n").unwrap_err();
        assert!(e.message.contains("bad address"));
    }

    #[test]
    fn display_format_is_stable() {
        let c = ConfigCmd::WriteReg {
            addr: 0x1234,
            value: 0xDEAD_BEEF,
        };
        assert_eq!(c.to_string(), "write_reg 0x00001234 0xdeadbeef");
    }

    #[test]
    fn plain_hex_without_prefix_accepted() {
        let cmds = parse_config_file("write_reg 10 20\n").unwrap();
        assert_eq!(
            cmds[0],
            ConfigCmd::WriteReg {
                addr: 0x10,
                value: 0x20
            }
        );
    }
}
