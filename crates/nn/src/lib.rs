//! Neural-network models, golden executor and quantization.
//!
//! The paper evaluates its SoC on Caffe models (LeNet-5, ResNet-18,
//! ResNet-50 on the FPGA; MobileNet, GoogLeNet and AlexNet in `nv_full`
//! simulation). No Caffe model zoo is available offline, so this crate
//! provides:
//!
//! * [`tensor`] — NCHW tensors and weight tensors,
//! * [`graph`] — a Caffe-like layer DAG ([`Network`]),
//! * [`zoo`] — builders for all six evaluated architectures with
//!   deterministic pseudo-random weights,
//! * [`exec`] — a reference (golden) f32 executor used to verify the
//!   NVDLA model's arithmetic,
//! * [`conv`] — the one order-preserving f32 convolution kernel, under
//!   the golden executor and the NVDLA model's FP16 path alike,
//! * [`quant`] — symmetric INT8 quantization with max-abs calibration
//!   (the "calibration table" machinery the paper lists as future work),
//! * `f16` — software half-precision floats ([`F16`]) for `nv_full` FP16 runs,
//! * [`stats`] — parameter/MAC/size accounting used by the timing model
//!   and by the Table II/III "Model Size" columns.
//!
//! # Example
//!
//! ```
//! use rvnv_nn::zoo;
//! use rvnv_nn::exec::Executor;
//!
//! let net = zoo::lenet5(42);
//! let input = rvnv_nn::tensor::Tensor::random(net.input_shape(), 7);
//! let out = Executor::new(&net).run(&input).unwrap();
//! assert_eq!(out.shape().c, 10); // ten digit classes
//! ```

pub mod conv;
pub mod exec;
pub mod f16;
pub mod graph;
pub mod hash;
pub mod prototxt;
pub mod quant;
pub mod stats;
pub mod tensor;
pub mod zoo;

pub use f16::F16;
pub use graph::{Network, Node, NodeId, Op};
pub use tensor::{Shape, Tensor};
