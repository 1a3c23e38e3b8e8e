//! Register-level functional + timing model of the NVIDIA Deep Learning
//! Accelerator (NVDLA).
//!
//! The paper integrates the open-source NVDLA RTL (`nv_small` on the
//! FPGA, `nv_full` in simulation) behind an APB-to-CSB adapter and a
//! 64-bit AXI data backbone (DBB). This crate models the accelerator at
//! the same boundary the paper's bare-metal software sees:
//!
//! * a CSB register window ([`regs`]) with per-engine `D_*` config
//!   registers laid out by each operation's field table
//!   ([`descriptor`]), `OP_ENABLE` launches and `GLB_INTR_STATUS`
//!   polling,
//! * functional engines ([`engines`]): the convolution pipeline
//!   (CDMA/CSC/CMAC/CACC), SDP (bias/BN/ReLU/eltwise), PDP (pooling),
//!   CDP (LRN) and RUBIK/BDMA copies,
//! * a dataflow-accurate timing model: [`plan::plan`] turns each decoded
//!   launch into what it moves and costs on a hardware configuration
//!   ([`config::HwConfig`]), and the accelerator issues that plan,
//! * DMA through any [`rvnv_bus::Target`], so DRAM latency, width
//!   conversion and arbitration are inherited from the SoC's bus models.
//!
//! # Example
//!
//! Programming a pooling operation exactly as the bare-metal firmware
//! does — the descriptor's register writes, the `OP_ENABLE` launch,
//! then polling the interrupt status:
//!
//! ```
//! use rvnv_bus::{Request, Target};
//! use rvnv_bus::sram::Sram;
//! use rvnv_nvdla::descriptor::{Descriptor, PdpDesc};
//! use rvnv_nvdla::{config::HwConfig, regs, regs::Block, Nvdla};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dla = Nvdla::new(HwConfig::nv_small(), Sram::new(4096));
//! dla.dbb_mut().load(0x100, &[1, 5, 2, 3]).unwrap(); // 2x2 int8 plane
//! let pool = PdpDesc {
//!     src: 0x100,
//!     dst: 0x200,
//!     in_w: 2,
//!     in_h: 2,
//!     c: 1,
//!     k: 2,
//!     stride: 2,
//!     out_w: 1,
//!     out_h: 1,
//!     ..PdpDesc::default() // INT8 max pooling, no padding
//! };
//! let launch = (Block::Pdp.base() + regs::REG_OP_ENABLE, 1);
//! let mut t = 0;
//! for (addr, val) in pool.encode()?.into_iter().chain([launch]) {
//!     t = dla.access(&Request::write32(addr, val), t)?.done_at;
//! }
//! // Poll until the PDP interrupt bit rises.
//! let mut status = 0;
//! while status & (1 << 2) == 0 {
//!     let r = dla.access(&Request::read32(regs::GLB_INTR_STATUS), t)?;
//!     status = r.data32();
//!     t = r.done_at + 100;
//! }
//! assert_eq!(dla.dbb_mut().bytes()[0x200], 5); // max of the plane
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod descriptor;
pub mod engines;
pub mod plan;
pub mod regs;

mod nvdla;

pub use config::{HwConfig, Precision};
pub use nvdla::{EngineStats, Nvdla, NvdlaStats, OpTrace};
