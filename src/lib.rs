//! # rv-nvdla — Bare-Metal RISC-V + NVDLA SoC
//!
//! A full-system, cycle-approximate reproduction (in safe Rust) of the
//! SOCC 2025 paper *"Bare-Metal RISC-V + NVDLA SoC for Efficient Deep
//! Learning Inference"*: a 32-bit 4-stage RISC-V core tightly coupled to
//! the NVDLA accelerator, programmed by compiler-generated bare-metal
//! machine code instead of a Linux driver stack.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`rvnv_bus`] — AHB-Lite/APB/AXI fabric, bridges, arbiter, DRAM;
//! * [`rvnv_riscv`] — RV32IM ISS, 4-stage pipeline timing, assembler;
//! * [`rvnv_nn`] — tensors, the six-model zoo, golden executor, INT8/FP16;
//! * [`rvnv_nvdla`] — the register-level NVDLA model (`nv_small`/`nv_full`);
//! * [`rvnv_compiler`] — layer→engine lowering, traces, VP, codegen;
//! * [`rvnv_soc`] — the SoC, firmware, resource model, baselines;
//! * [`rvnv_obs`] — modeled-time span tracing + the unified metrics
//!   registry (Perfetto export, docs/OBSERVABILITY.md).
//!
//! # Quickstart
//!
//! ```
//! use rv_nvdla::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Model::LeNet5.build(42);
//! let mut opt = CompileOptions::int8();
//! opt.calib_inputs = 1;
//! let artifacts = compile(&net, &opt)?;
//! let mut soc = Soc::new(SocConfig::zcu102_nv_small());
//! let result = soc.run_inference(&artifacts, &Tensor::random(net.input_shape(), 7))?;
//! println!("{:.2} ms @100 MHz", result.latency_ms(100_000_000));
//! # Ok(())
//! # }
//! ```

pub use rvnv_bus;
pub use rvnv_compiler;
pub use rvnv_nn;
pub use rvnv_nvdla;
pub use rvnv_obs;
pub use rvnv_riscv;
pub use rvnv_soc;

/// Convenient re-exports for applications.
pub mod prelude {
    pub use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
    pub use rvnv_compiler::trace::{parse_config_file, write_config_file};
    pub use rvnv_compiler::{compile, ArtifactCache, Artifacts, CompileOptions, VirtualPlatform};
    pub use rvnv_nn::zoo::Model;
    pub use rvnv_nn::{Shape, Tensor};
    pub use rvnv_nvdla::{HwConfig, Nvdla, Precision};
    pub use rvnv_obs::{
        to_chrome_json, Json, MetricsRegistry, MetricsSnapshot, SpanKind, Trace, Tracer, TrackId,
        TrackKind,
    };
    pub use rvnv_soc::batch::{
        layout_models, run_parallel, BatchReport, BatchScheduler, Frame, FrameLatency,
        PipelinedScheduler, Policy,
    };
    pub use rvnv_soc::firmware::Firmware;
    pub use rvnv_soc::fleet::{
        parse_pools, shaped_trace, Fleet, FleetOutcome, FleetRecord, FleetReport, FleetSpec,
        PoolProfile, PoolReport, PoolSpec, RoutePolicy, SocClass, TrafficShape,
    };
    pub use rvnv_soc::serve::{
        ArrivalProcess, FaultReport, FaultSpec, LatencyStats, RequestTrace, ServeReport, ServeSpec,
        Server, ServiceModel,
    };
    pub use rvnv_soc::soc::{InferenceResult, Soc, SocConfig};
}
