//! RV32IM instruction-set simulator modelling the Codasip µRISC-V core.
//!
//! The paper couples NVDLA to "a 32-bit, 4-stage pipelined RISC-V core
//! from Codasip called µRISC-V" that programs the accelerator with plain
//! load/store instructions over AHB-Lite. This crate provides:
//!
//! * `table` (crate-private) — the RV32IM + Zicsr instruction table,
//!   one row per instruction, from which [`decode()`]/[`encode()`], the
//!   assembler and the disassembler all derive,
//! * [`cpu`] — the core itself, with a 4-stage pipeline timing model
//!   ([`pipeline`]) and an AHB-Lite data port into the system bus,
//! * [`csr`] — the machine counters (`mcycle`, `minstret`) bare-metal
//!   firmware uses for self-timing,
//! * [`asm`] — a two-pass assembler (plus [`disasm`]) for the generated
//!   bare-metal programs, supporting the pseudo-instructions the paper's
//!   toolflow emits (`li`, `la`, `j`, `call`, …).
//!
//! # Example
//!
//! ```
//! use rvnv_riscv::asm::assemble;
//! use rvnv_riscv::cpu::{Core, StopReason};
//! use rvnv_bus::sram::Sram;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble(
//!     "   li   t0, 21
//!         slli t1, t0, 1      # t1 = 42
//!         ebreak
//!     ",
//! )?;
//! let mut core = Core::new(Sram::rom(image.bytes()), Sram::new(1024));
//! let stop = core.run(1_000)?;
//! assert_eq!(stop, StopReason::Ebreak);
//! assert_eq!(core.read_reg(rvnv_riscv::reg::T1), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod block_cache;
pub mod cpu;
pub mod csr;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod inst;
pub mod pipeline;
pub mod reg;
pub(crate) mod table;

pub use asm::{assemble, AsmError, Image};
pub use block_cache::{BlockCache, BlockCacheStats};
pub use cpu::{Core, CpuError, StopReason};
pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use inst::Inst;
pub use reg::Reg;
