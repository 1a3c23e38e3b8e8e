//! The bare-metal RISC-V + NVDLA SoC (the paper's primary contribution).
//!
//! This crate assembles every substrate into the system of Fig. 2/Fig. 4:
//! the µRISC-V core fetches generated bare-metal machine code from block
//! RAM and programs the NVDLA through the system-bus decoder
//! (NVDLA window `0x0..0xFFFFF`, DRAM window `0x100000..0x200FFFFF`),
//! an AHB→APB bridge and the APB-to-CSB adapter; NVDLA's 64-bit DBB
//! reaches the 32-bit DRAM through a data-width converter and the
//! arbiter; an AXI SmartConnect multiplexes the DRAM between the Zynq PS
//! (preload) and the SoC (inference).
//!
//! * [`soc`] — the co-simulated SoC and [`soc::InferenceResult`],
//! * [`firmware`] — configuration file → assembly → program-memory image,
//! * [`zynq`] — the Fig. 4 test harness (PS preload, SmartConnect switch),
//! * [`baseline`] — the Linux-driver runtime model used as the Table II
//!   comparison column (ref.\[8\], Ariane+NVDLA on ESP at 50 MHz),
//! * [`resources`] — the analytical FPGA resource model behind Table I,
//! * [`paper`] — Tables II and III as data: their set-ups, and the
//!   paper's every number beside ours,
//! * [`sweep`] — host-side worker fan-out for configuration sweeps,
//! * [`batch`] — the multi-model resident batch scheduler (several
//!   weight images pinned in one DRAM, frames interleaved across them),
//! * [`serve`] — open-loop inference serving on top of [`batch`]:
//!   seeded arrival traces, a bounded admission queue, a warm-SoC
//!   worker pool and SLO-percentile reporting,
//! * [`fleet`] — fleet-scale serving on top of [`serve`]: heterogeneous
//!   pools (`nv_small`/`nv_full`) behind a load balancer with pluggable
//!   routing, per-pool bounded admission, a reactive autoscaler, and
//!   spot-replay windows that pin the plan to real SoCs.
//!
//! # Example
//!
//! ```
//! use rvnv_soc::soc::{Soc, SocConfig};
//! use rvnv_compiler::{compile, CompileOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = rvnv_nn::zoo::lenet5(1);
//! let artifacts = compile(&net, &CompileOptions::int8())?;
//! let mut soc = Soc::new(SocConfig::zcu102_nv_small());
//! let input = rvnv_nn::Tensor::random(net.input_shape(), 42);
//! let result = soc.run_inference(&artifacts, &input)?;
//! assert!(result.cycles > 0);
//! assert_eq!(result.output.shape().c, 10);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod batch;
pub mod firmware;
pub mod fleet;
pub mod paper;
pub mod profile;
mod queueing;
pub mod resources;
pub mod serve;
pub mod soc;
pub mod sweep;
pub mod zynq;

pub use soc::{InferenceResult, Soc, SocConfig, SocError};
