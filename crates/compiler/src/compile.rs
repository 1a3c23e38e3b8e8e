//! The NVDLA compiler: network → register-command stream + weight file.
//!
//! Lowering rules (mirroring the official compiler's fusion behaviour):
//!
//! * `Conv2d`/`FullyConnected` (+ following single-consumer `BatchNorm`,
//!   `EltwiseAdd`, `ReLU`) → one conv-pipeline launch with a flying SDP
//!   that applies the per-channel scale/shift table, the residual add
//!   and ReLU on the way out;
//! * standalone `ReLU`/`BatchNorm`/`EltwiseAdd` → memory-source SDP;
//! * `Pool`/`GlobalAvgPool` → PDP;
//! * `Lrn` → CDP;
//! * `Concat` → no hardware op: producers write directly into the
//!   concatenated buffer at their channel offset (RUBIK copies are
//!   emitted only when a branch output has other consumers);
//! * `Softmax` → executed on the CPU side (argmax-preserving), exactly
//!   as the official flow emulates unsupported layers off-accelerator.
//!
//! INT8 mode derives per-tensor scales from a calibration run of the
//! golden executor (the "calibration tables" the paper names as the
//! missing piece for broader `nv_small` model support).

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use rvnv_nn::graph::{ConvParams, Network, Op, PoolKind};
use rvnv_nn::quant::{CalibrationTable, QuantTensor};
use rvnv_nn::tensor::{Shape, Tensor, WeightTensor};
use rvnv_nvdla::config::{HwConfig, Precision};
use rvnv_nvdla::descriptor::{
    CdpDesc, ConvDesc, CopyDesc, Descriptor, PdpDesc, PoolKind as HwPool, SdpDesc, SdpSrc,
};
use rvnv_nvdla::engines;
use rvnv_nvdla::regs;

use crate::layout::{Allocator, OutOfMemory, WeightImage};
use crate::trace::{self, ConfigCmd};

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target precision.
    pub precision: Precision,
    /// Target hardware (validates precision support, sizes CBUF passes).
    pub hw: HwConfig,
    /// Number of random calibration inputs (INT8 only).
    pub calib_inputs: usize,
    /// Calibration RNG seed.
    pub calib_seed: u64,
    /// First DRAM offset the model may use. Every address the compiler
    /// emits (weights, activations, input, output) lands in
    /// `[dram_base, dram_bytes)`, so models compiled at disjoint bases
    /// can be resident in one DRAM simultaneously — the multi-model
    /// batch layout (see `rvnv_soc::batch`).
    pub dram_base: u32,
    /// End of the DRAM data region in bytes (exclusive allocation limit).
    pub dram_bytes: u32,
    /// Fuse BatchNorm/EltwiseAdd/ReLU into the producing convolution's
    /// SDP pass. The paper's trace-replay flow executes each layer as
    /// its own register sequence, which corresponds to `fuse = false`;
    /// fusion is the optimization a smarter compiler performs.
    pub fuse: bool,
}

impl CompileOptions {
    /// INT8 on `nv_small` — the paper's FPGA configuration.
    #[must_use]
    pub fn int8() -> Self {
        CompileOptions {
            precision: Precision::Int8,
            hw: HwConfig::nv_small(),
            calib_inputs: 4,
            calib_seed: 0x5EED,
            dram_base: 0,
            dram_bytes: 512 << 20,
            fuse: true,
        }
    }

    /// FP16 on `nv_full` — the paper's simulation configuration.
    #[must_use]
    pub fn fp16() -> Self {
        CompileOptions {
            precision: Precision::Fp16,
            hw: HwConfig::nv_full(),
            calib_inputs: 0,
            calib_seed: 0,
            dram_base: 0,
            dram_bytes: 512 << 20,
            fuse: true,
        }
    }

    /// Place the model's whole DRAM footprint at `base` instead of 0,
    /// for laying several models out side by side (see
    /// `rvnv_soc::batch::layout_models`).
    #[must_use]
    pub fn at_dram_base(mut self, base: u32) -> Self {
        self.dram_base = base;
        self
    }

    /// Trace-replay fidelity: one register sequence per layer, as the
    /// paper's VP-log flow produces.
    #[must_use]
    pub fn unfused(mut self) -> Self {
        self.fuse = false;
        self
    }
}

/// Compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// The network uses something this backend cannot lower.
    Unsupported(String),
    /// Shape inference or calibration failed.
    Graph(rvnv_nn::graph::GraphError),
    /// The model does not fit in DRAM.
    OutOfMemory(OutOfMemory),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(s) => write!(f, "unsupported: {s}"),
            CompileError::Graph(e) => write!(f, "graph error: {e}"),
            CompileError::OutOfMemory(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Graph(e) => Some(e),
            CompileError::OutOfMemory(e) => Some(e),
            CompileError::Unsupported(_) => None,
        }
    }
}

impl From<rvnv_nn::graph::GraphError> for CompileError {
    fn from(e: rvnv_nn::graph::GraphError) -> Self {
        CompileError::Graph(e)
    }
}

impl From<OutOfMemory> for CompileError {
    fn from(e: OutOfMemory) -> Self {
        CompileError::OutOfMemory(e)
    }
}

/// Metadata about one emitted hardware operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// Name of the root graph node.
    pub name: String,
    /// Engine ("conv", "sdp", "pdp", "cdp", "rubik").
    pub engine: &'static str,
    /// MACs performed (conv only).
    pub macs: u64,
    /// Register writes emitted for this op.
    pub reg_writes: usize,
    /// Names of graph nodes fused into this op.
    pub fused: Vec<String>,
}

impl OpInfo {
    /// An unfused op with no MACs; [`Lowering::emit`] counts its writes.
    fn new(name: String, engine: &'static str) -> Self {
        OpInfo {
            name,
            engine,
            macs: 0,
            reg_writes: 0,
            fused: Vec::new(),
        }
    }
}

/// Everything the bare-metal flow needs to run one model.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Model name.
    pub model: String,
    /// Precision the model was compiled for.
    pub precision: Precision,
    /// The configuration-file command stream.
    pub commands: Vec<ConfigCmd>,
    /// Weight file (weights + bias/scale tables) to preload into DRAM.
    pub weights: WeightImage,
    /// DRAM offset of the input tensor.
    pub input_addr: u32,
    /// Input bytes expected at `input_addr`.
    pub input_len: usize,
    /// Input quantization scale (INT8; 1.0 in FP16).
    pub input_scale: f32,
    /// DRAM offset of the network output.
    pub output_addr: u32,
    /// Output length in bytes.
    pub output_len: usize,
    /// Output quantization scale.
    pub output_scale: f32,
    /// Output tensor shape.
    pub output_shape: Shape,
    /// Per-op metadata in launch order.
    pub ops: Vec<OpInfo>,
    /// First DRAM offset of the model's footprint
    /// ([`CompileOptions::dram_base`]); the model owns
    /// `[dram_base, dram_used)`.
    pub dram_base: u32,
    /// DRAM high-water mark in bytes (end of the model's footprint).
    pub dram_used: u32,
    /// Graph nodes executed on the CPU instead of NVDLA (softmax).
    pub cpu_layers: Vec<String>,
}

impl Artifacts {
    /// Quantize an input tensor into the bytes to preload at
    /// [`Artifacts::input_addr`].
    #[must_use]
    pub fn quantize_input(&self, t: &Tensor) -> Vec<u8> {
        engines::from_real(t.data(), self.precision, self.input_scale)
    }

    /// Dequantize raw output bytes into a tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` has the wrong length.
    #[must_use]
    pub fn dequantize_output(&self, bytes: &[u8]) -> Tensor {
        assert_eq!(bytes.len(), self.output_len, "output buffer length");
        let vals = engines::to_real(bytes, self.precision, self.output_scale);
        Tensor::from_vec(self.output_shape, vals)
    }

    /// Total register writes in the command stream.
    #[must_use]
    pub fn reg_writes(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, ConfigCmd::WriteReg { .. }))
            .count()
    }
}

/// Compile a network for the NVDLA.
///
/// # Errors
///
/// Returns [`CompileError`] when the precision is unsupported by the
/// target, a layer cannot be lowered, or DRAM is exhausted.
pub fn compile(net: &Network, options: &CompileOptions) -> Result<Artifacts, CompileError> {
    Lowering::new(net, options)?.run()
}

/// Result of [`Lowering::absorb_chain`]: the chain's last node, the
/// absorbed BatchNorm `(scale, shift)` parameters, the eltwise partner
/// node, and whether a ReLU was absorbed.
type AbsorbedChain = (usize, Option<(Vec<f32>, Vec<f32>)>, Option<usize>, bool);

struct Lowering<'a> {
    net: &'a Network,
    opt: &'a CompileOptions,
    shapes: Vec<Shape>,
    consumers: Vec<Vec<usize>>,
    scale: Vec<f32>,
    /// Node -> materialized DRAM buffer (keyed by value-producing node).
    buffers: BTreeMap<usize, u32>,
    /// Pre-assigned buffers (concat redirection).
    preassigned: BTreeMap<usize, u32>,
    /// Value aliases (softmax -> its input, absorbed nodes -> chain end).
    alias: BTreeMap<usize, usize>,
    absorbed: BTreeSet<usize>,
    alloc: Allocator,
    weights: WeightImage,
    commands: Vec<ConfigCmd>,
    ops: Vec<OpInfo>,
    cpu_layers: Vec<String>,
    /// Concat inputs that still need a RUBIK copy: (src node, dst addr, len).
    pending_copies: Vec<(usize, u32, u32)>,
}

impl<'a> Lowering<'a> {
    fn new(net: &'a Network, opt: &'a CompileOptions) -> Result<Self, CompileError> {
        if !opt.hw.supports(opt.precision) {
            return Err(CompileError::Unsupported(format!(
                "{} does not implement {}",
                opt.hw, opt.precision
            )));
        }
        let shapes = net.infer_shapes()?;
        let n = net.nodes().len();
        let mut consumers = vec![Vec::new(); n];
        for (i, node) in net.nodes().iter().enumerate() {
            for inp in &node.inputs {
                consumers[inp.index()].push(i);
            }
        }
        // Per-node value scales.
        let scale = match opt.precision {
            Precision::Fp16 => vec![1.0; n],
            Precision::Int8 => {
                if opt.calib_inputs == 0 {
                    return Err(CompileError::Unsupported(
                        "INT8 requires at least one calibration input".into(),
                    ));
                }
                let inputs: Vec<Tensor> = (0..opt.calib_inputs)
                    .map(|i| Tensor::random(net.input_shape(), opt.calib_seed + i as u64))
                    .collect();
                let table = CalibrationTable::calibrate(net, &inputs)?;
                (0..n).map(|i| table.scale(i).scale).collect()
            }
        };
        Ok(Lowering {
            net,
            opt,
            shapes,
            consumers,
            scale,
            buffers: BTreeMap::new(),
            preassigned: BTreeMap::new(),
            alias: BTreeMap::new(),
            absorbed: BTreeSet::new(),
            alloc: Allocator::new(opt.dram_base, opt.dram_bytes.saturating_sub(opt.dram_base)),
            weights: WeightImage::new(),
            commands: Vec::new(),
            ops: Vec::new(),
            cpu_layers: Vec::new(),
            pending_copies: Vec::new(),
        })
    }

    fn prec_bytes(&self) -> u32 {
        self.opt.precision.bytes()
    }

    fn resolve(&self, node: usize) -> usize {
        let mut cur = node;
        while let Some(&a) = self.alias.get(&cur) {
            cur = a;
        }
        cur
    }

    fn buffer_of(&self, node: usize) -> Result<u32, CompileError> {
        let r = self.resolve(node);
        self.buffers.get(&r).copied().ok_or_else(|| {
            CompileError::Unsupported(format!(
                "internal: node `{}` has no buffer",
                self.net.nodes()[r].name
            ))
        })
    }

    fn scale_of(&self, node: usize) -> f32 {
        self.scale[self.resolve(node)]
    }

    /// Allocate (or take the preassigned) output buffer for a value node.
    fn materialize(&mut self, node: usize, bytes: u32) -> Result<u32, CompileError> {
        let addr = match self.preassigned.get(&node) {
            Some(&a) => a,
            None => self.alloc.alloc(bytes)?,
        };
        self.buffers.insert(node, addr);
        Ok(addr)
    }

    /// Place a per-channel `(scale, shift)` table in the weight file
    /// (8 bytes per channel, as the SDP reads it); its address.
    fn push_table(&mut self, table: &[(f32, f32)]) -> Result<u32, CompileError> {
        let bytes: Vec<u8> = table
            .iter()
            .flat_map(|(s, sh)| [s.to_le_bytes(), sh.to_le_bytes()])
            .flatten()
            .collect();
        let addr = self.alloc.alloc(bytes.len() as u32)?;
        self.weights.push(addr, bytes);
        Ok(addr)
    }

    /// Program `desc` (after its flying SDP, for a convolution), launch
    /// its engines, wait for them, and record the op.
    fn emit<D: Descriptor>(
        &mut self,
        desc: &D,
        flying: Option<&SdpDesc>,
        mut info: OpInfo,
    ) -> Result<(), CompileError> {
        let unsupported = |e| CompileError::Unsupported(format!("`{}`: {e}", info.name));
        let mut writes = desc.encode().map_err(unsupported)?;
        if let Some(sdp) = flying {
            writes.extend(sdp.encode().map_err(unsupported)?);
        }
        let before = self.commands.len();
        trace::push_launch(&mut self.commands, writes, D::LAUNCH);
        info.reg_writes = self.commands.len() - before;
        self.ops.push(info);
        Ok(())
    }

    fn run(mut self) -> Result<Artifacts, CompileError> {
        // Input buffer first (the Zynq preload target).
        let in_shape = self.net.input_shape();
        let input_len = in_shape.elements() * self.prec_bytes() as usize;
        let input_addr = self.alloc.alloc(input_len as u32)?;
        self.buffers.insert(0, input_addr);

        self.plan_concats()?;

        let node_count = self.net.nodes().len();
        for i in 1..node_count {
            if self.absorbed.contains(&i) {
                continue;
            }
            let op = self.net.nodes()[i].op.clone();
            match op {
                Op::Input => {}
                Op::Conv2d(ref p) => self.emit_conv(i, p, None)?,
                Op::FullyConnected {
                    ref weights,
                    out,
                    input,
                    ref bias,
                } => {
                    // FC is a 1x1 convolution over the flattened input.
                    let p = ConvParams {
                        weights: WeightTensor::from_vec(out, input, 1, 1, weights.clone()),
                        bias: bias.clone(),
                        stride: 1,
                        pad: 0,
                        groups: 1,
                    };
                    let in_shape = Shape::new(input, 1, 1);
                    self.emit_conv(i, &p, Some(in_shape))?;
                }
                Op::Pool {
                    kind,
                    k,
                    stride,
                    pad,
                } => self.emit_pdp(i, kind, k, stride, pad)?,
                Op::GlobalAvgPool => {
                    let s = self.shapes[self.net.nodes()[i].inputs[0].index()];
                    if s.h != s.w {
                        return Err(CompileError::Unsupported(
                            "global average pooling requires a square feature map".into(),
                        ));
                    }
                    self.emit_pdp(i, PoolKind::Avg, s.h, s.h, 0)?;
                }
                Op::Relu => self.emit_sdp_standalone(i, regs::SDP_FLAG_RELU, None)?,
                Op::BatchNorm {
                    ref scale,
                    ref shift,
                } => {
                    let table: Vec<(f32, f32)> =
                        scale.iter().copied().zip(shift.iter().copied()).collect();
                    self.emit_sdp_standalone(i, regs::SDP_FLAG_BIAS, Some(table))?;
                }
                Op::EltwiseAdd => self.emit_sdp_standalone(i, regs::SDP_FLAG_ELTWISE, None)?,
                Op::Concat => self.emit_concat_copies(i)?,
                Op::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => self.emit_cdp(i, local_size, alpha, beta, k)?,
                Op::Softmax => {
                    // Monotonic; executed on the CPU in deployment.
                    let input = self.net.nodes()[i].inputs[0].index();
                    self.alias.insert(i, input);
                    self.cpu_layers.push(self.net.nodes()[i].name.clone());
                }
            }
        }

        let out_node = self.resolve(self.net.output().index());
        let out_shape = self.shapes[out_node];
        let output_addr = self.buffer_of(out_node)?;
        Ok(Artifacts {
            model: self.net.name().to_string(),
            precision: self.opt.precision,
            input_addr,
            input_len,
            input_scale: self.scale[0],
            output_addr,
            output_len: out_shape.elements() * self.prec_bytes() as usize,
            output_scale: self.scale_of(out_node),
            output_shape: out_shape,
            commands: self.commands,
            weights: self.weights,
            ops: self.ops,
            dram_base: self.opt.dram_base,
            dram_used: self.alloc.used(),
            cpu_layers: self.cpu_layers,
        })
    }

    /// Pre-allocate concat buffers and redirect single-consumer branch
    /// producers to write straight into them.
    fn plan_concats(&mut self) -> Result<(), CompileError> {
        let prec = self.prec_bytes();
        for (i, node) in self.net.nodes().iter().enumerate() {
            if !matches!(node.op, Op::Concat) {
                continue;
            }
            let out = self.shapes[i];
            let buf = self.alloc.alloc((out.elements() as u32) * prec)?;
            self.buffers.insert(i, buf);
            // Concat output scale stays the calibrated one; branches
            // requantize into it on their SDP write.
            let mut chan_off = 0u32;
            for inp in &node.inputs {
                let s = self.shapes[inp.index()];
                let bytes = (s.elements() as u32) * prec;
                let addr = buf + chan_off;
                let redirectable = self.consumers[inp.index()].len() == 1
                    && matches!(
                        self.net.nodes()[inp.index()].op,
                        Op::Conv2d(_)
                            | Op::FullyConnected { .. }
                            | Op::Relu
                            | Op::BatchNorm { .. }
                            | Op::EltwiseAdd
                    );
                if redirectable {
                    self.preassigned.insert(inp.index(), addr);
                    self.scale[inp.index()] = self.scale[i];
                } else {
                    self.pending_copies.push((inp.index(), addr, bytes));
                }
                chan_off += bytes;
            }
        }
        Ok(())
    }

    /// Chain absorption: starting from a conv at `root`, follow
    /// single-consumer edges through BatchNorm → EltwiseAdd → ReLU.
    fn absorb_chain(&mut self, root: usize) -> AbsorbedChain {
        let mut end = root;
        let mut bn = None;
        let mut elt = None;
        let mut relu = false;
        if !self.opt.fuse {
            return (end, bn, elt, relu);
        }
        loop {
            let cons = &self.consumers[end];
            if cons.len() != 1 {
                break;
            }
            let next = cons[0];
            // A redirected producer must remain the writer; absorbing it
            // further is fine (the chain writes to the redirect target
            // of its end node), but keep it simple: stop absorption at a
            // node that was preassigned a concat slot.
            if self.preassigned.contains_key(&end) {
                break;
            }
            match &self.net.nodes()[next].op {
                Op::BatchNorm { scale, shift } if bn.is_none() && elt.is_none() && !relu => {
                    bn = Some((scale.clone(), shift.clone()));
                }
                Op::EltwiseAdd if elt.is_none() && !relu => {
                    let other = self.net.nodes()[next]
                        .inputs
                        .iter()
                        .map(|n| n.index())
                        .find(|&x| x != end);
                    match other {
                        Some(o) if self.buffers.contains_key(&self.resolve(o)) => {
                            elt = Some(o);
                        }
                        _ => break,
                    }
                }
                Op::Relu if !relu => {
                    relu = true;
                }
                _ => break,
            }
            self.absorbed.insert(next);
            self.alias.insert(end, next);
            end = next;
        }
        (end, bn, elt, relu)
    }

    #[allow(clippy::too_many_lines)]
    fn emit_conv(
        &mut self,
        root: usize,
        p: &ConvParams,
        fc_in_shape: Option<Shape>,
    ) -> Result<(), CompileError> {
        let node_name = self.net.nodes()[root].name.clone();
        let input_node = self.net.nodes()[root].inputs[0].index();
        let in_shape = fc_in_shape.unwrap_or(self.shapes[input_node]);
        let (end, bn, elt, relu) = self.absorb_chain(root);
        let out_shape = self.shapes[end];
        let prec = self.opt.precision;

        // Quantize / pack weights.
        let (wt_bytes, wt_scale) = match prec {
            Precision::Int8 => {
                let q = QuantTensor::from_weights(&p.weights);
                (
                    q.data.iter().map(|&v| v as u8).collect::<Vec<u8>>(),
                    q.scale.scale,
                )
            }
            Precision::Fp16 => (
                engines::from_real(p.weights.data(), Precision::Fp16, 1.0),
                1.0,
            ),
        };
        let wt_addr = self.alloc.alloc(wt_bytes.len() as u32)?;
        let wt_len = wt_bytes.len() as u32;
        self.weights.push(wt_addr, wt_bytes);

        // Bias/scale table: y = x*scale + shift, folding conv bias and BN.
        let table: Vec<(f32, f32)> = (0..p.weights.out_c)
            .map(|c| match &bn {
                Some((s, sh)) => (s[c], p.bias[c] * s[c] + sh[c]),
                None => (1.0, p.bias[c]),
            })
            .collect();
        let bs_addr = self.push_table(&table)?;

        let in_buf = self.buffer_of(input_node)?;
        let in_scale = self.scale_of(input_node);
        let out_bytes = (out_shape.elements() as u32) * prec.bytes();
        let out_buf = self.materialize(end, out_bytes)?;
        let out_scale = self.scale_of(end);

        let mut flags = regs::SDP_FLAG_BIAS;
        if relu {
            flags |= regs::SDP_FLAG_RELU;
        }
        let (src2, in2_scale) = if let Some(o) = elt {
            flags |= regs::SDP_FLAG_ELTWISE;
            (self.buffer_of(o)?, self.scale_of(o))
        } else {
            (0, 1.0)
        };

        let conv = ConvDesc {
            src: in_buf,
            in_w: in_shape.w as u32,
            in_h: in_shape.h as u32,
            in_c: in_shape.c as u32,
            wt_addr,
            wt_bytes: wt_len,
            stride: p.stride as u32,
            pad: p.pad as u32,
            in_scale,
            wt_scale,
            out_w: out_shape.w as u32,
            out_h: out_shape.h as u32,
            out_c: p.weights.out_c as u32,
            kw: p.weights.kw as u32,
            kh: p.weights.kh as u32,
            groups: p.groups as u32,
            precision: prec,
        };
        let sdp = SdpDesc {
            src_mode: SdpSrc::Flying,
            src: 0,
            src2,
            dst: out_buf,
            w: out_shape.w as u32,
            h: out_shape.h as u32,
            c: out_shape.c as u32,
            bs_addr,
            flags,
            out_scale,
            in_scale: 1.0,
            in2_scale,
            precision: prec,
        };
        let info = OpInfo {
            macs: (p.weights.in_c * p.weights.kh * p.weights.kw * out_shape.elements()) as u64,
            fused: self.fused_names(root, end),
            ..OpInfo::new(node_name, "conv")
        };
        self.emit(&conv, Some(&sdp), info)
    }

    fn fused_names(&self, root: usize, end: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut cur = root;
        while cur != end {
            let next = self.alias.get(&cur).copied().expect("chain alias");
            names.push(self.net.nodes()[next].name.clone());
            cur = next;
        }
        names
    }

    fn emit_sdp_standalone(
        &mut self,
        node: usize,
        base_flag: u32,
        bn_table: Option<Vec<(f32, f32)>>,
    ) -> Result<(), CompileError> {
        let name = self.net.nodes()[node].name.clone();
        let inputs: Vec<usize> = self.net.nodes()[node]
            .inputs
            .iter()
            .map(|n| n.index())
            .collect();
        let shape = self.shapes[node];
        let prec = self.opt.precision;

        // Absorb a following ReLU if we are an eltwise/bn.
        let mut flags = base_flag;
        let mut end = node;
        if base_flag != regs::SDP_FLAG_RELU && self.opt.fuse {
            let cons = &self.consumers[node];
            if cons.len() == 1
                && matches!(self.net.nodes()[cons[0]].op, Op::Relu)
                && !self.preassigned.contains_key(&node)
            {
                flags |= regs::SDP_FLAG_RELU;
                self.absorbed.insert(cons[0]);
                self.alias.insert(node, cons[0]);
                end = cons[0];
            }
        }

        let bs_addr = match &bn_table {
            Some(table) => self.push_table(table)?,
            None => 0,
        };

        let src = self.buffer_of(inputs[0])?;
        let in_scale = self.scale_of(inputs[0]);
        let (src2, in2_scale) = if flags & regs::SDP_FLAG_ELTWISE != 0 {
            (self.buffer_of(inputs[1])?, self.scale_of(inputs[1]))
        } else {
            (0, 1.0)
        };
        let out_bytes = (shape.elements() as u32) * prec.bytes();
        let out_buf = self.materialize(end, out_bytes)?;
        let out_scale = self.scale_of(end);

        let sdp = SdpDesc {
            src_mode: SdpSrc::Memory,
            src,
            src2,
            dst: out_buf,
            w: shape.w as u32,
            h: shape.h as u32,
            c: shape.c as u32,
            bs_addr,
            flags,
            out_scale,
            in_scale,
            in2_scale,
            precision: prec,
        };
        let info = OpInfo {
            fused: self.fused_names(node, end),
            ..OpInfo::new(name, "sdp")
        };
        self.emit(&sdp, None, info)
    }

    fn emit_pdp(
        &mut self,
        node: usize,
        kind: PoolKind,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Result<(), CompileError> {
        let name = self.net.nodes()[node].name.clone();
        let input = self.net.nodes()[node].inputs[0].index();
        let in_shape = self.shapes[input];
        let out_shape = self.shapes[node];
        let prec = self.opt.precision;
        // Pooling preserves representation: output scale == input scale.
        self.scale[node] = self.scale_of(input);
        let src = self.buffer_of(input)?;
        let out_bytes = (out_shape.elements() as u32) * prec.bytes();
        let dst = self.materialize(node, out_bytes)?;
        let pdp = PdpDesc {
            src,
            dst,
            in_w: in_shape.w as u32,
            in_h: in_shape.h as u32,
            c: in_shape.c as u32,
            kind: match kind {
                PoolKind::Max => HwPool::Max,
                PoolKind::Avg => HwPool::Avg,
            },
            k: k as u32,
            stride: stride as u32,
            pad: pad as u32,
            out_w: out_shape.w as u32,
            out_h: out_shape.h as u32,
            precision: prec,
        };
        self.emit(&pdp, None, OpInfo::new(name, "pdp"))
    }

    fn emit_cdp(
        &mut self,
        node: usize,
        local_size: usize,
        alpha: f32,
        beta: f32,
        k: f32,
    ) -> Result<(), CompileError> {
        let name = self.net.nodes()[node].name.clone();
        let input = self.net.nodes()[node].inputs[0].index();
        let shape = self.shapes[node];
        let prec = self.opt.precision;
        let src = self.buffer_of(input)?;
        let in_scale = self.scale_of(input);
        let out_bytes = (shape.elements() as u32) * prec.bytes();
        let dst = self.materialize(node, out_bytes)?;
        let out_scale = self.scale_of(node);
        let cdp = CdpDesc {
            src,
            dst,
            w: shape.w as u32,
            h: shape.h as u32,
            c: shape.c as u32,
            local_size: local_size as u32,
            alpha,
            beta,
            k,
            precision: prec,
            in_scale,
            out_scale,
        };
        self.emit(&cdp, None, OpInfo::new(name, "cdp"))
    }

    /// Emit RUBIK copies for concat inputs that could not be redirected.
    fn emit_concat_copies(&mut self, node: usize) -> Result<(), CompileError> {
        let pending: Vec<(usize, u32, u32)> = self
            .pending_copies
            .iter()
            .copied()
            .filter(|(src, ..)| self.consumers[*src].contains(&node))
            .collect();
        for (src_node, dst, len) in pending {
            let name = format!("{}_copy_{}", self.net.nodes()[node].name, src_node);
            let src = self.buffer_of(src_node)?;
            let copy = CopyDesc { src, dst, len };
            self.emit(&copy, None, OpInfo::new(name, "rubik"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvnv_nn::zoo;

    #[test]
    fn lenet_compiles_to_expected_op_mix() {
        let net = zoo::lenet5(1);
        let a = compile(&net, &CompileOptions::int8()).unwrap();
        // conv1, pool1, conv2, pool2, ip1(+relu1), ip2 -> 4 conv + 2 pdp.
        let convs = a.ops.iter().filter(|o| o.engine == "conv").count();
        let pdps = a.ops.iter().filter(|o| o.engine == "pdp").count();
        assert_eq!(convs, 4);
        assert_eq!(pdps, 2);
        assert_eq!(a.cpu_layers, vec!["prob".to_string()]);
        // ip1's ReLU is fused.
        let ip1 = a.ops.iter().find(|o| o.name == "ip1").unwrap();
        assert_eq!(ip1.fused, vec!["relu1".to_string()]);
        assert!(a.reg_writes() > 100);
        assert!(a.weights.total_bytes() > 400_000, "int8 weights + tables");
    }

    #[test]
    fn resnet_fuses_conv_bn_add_relu() {
        let net = zoo::resnet18_cifar(1);
        let a = compile(&net, &CompileOptions::int8()).unwrap();
        // Find a block-ending conv: its fused list ends with add + relu.
        let op = a
            .ops
            .iter()
            .find(|o| o.name == "res2_0_conv2")
            .expect("res2_0_conv2 lowered");
        assert!(op.fused.contains(&"res2_0_bn2".to_string()));
        assert!(op.fused.contains(&"res2_0_add".to_string()));
        assert!(op.fused.contains(&"res2_0_relu2".to_string()));
        // No standalone SDP eltwise ops should remain.
        assert_eq!(a.ops.iter().filter(|o| o.engine == "sdp").count(), 0);
    }

    #[test]
    fn googlenet_concat_uses_redirection_not_copies() {
        let net = zoo::googlenet(1);
        let a = compile(&net, &CompileOptions::fp16()).unwrap();
        let rubiks = a.ops.iter().filter(|o| o.engine == "rubik").count();
        assert_eq!(rubiks, 0, "all inception branches redirect into concat");
        assert!(
            a.ops.iter().any(|o| o.engine == "cdp"),
            "LRN lowered to CDP"
        );
    }

    #[test]
    fn fp16_on_nv_small_rejected() {
        let net = zoo::lenet5(1);
        let mut opt = CompileOptions::fp16();
        opt.hw = HwConfig::nv_small();
        let e = compile(&net, &opt).unwrap_err();
        assert!(e.to_string().contains("does not implement"));
    }

    #[test]
    fn int8_without_calibration_rejected() {
        let net = zoo::lenet5(1);
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 0;
        assert!(compile(&net, &opt).is_err());
    }

    #[test]
    fn dram_exhaustion_detected() {
        let net = zoo::lenet5(1);
        let mut opt = CompileOptions::int8();
        opt.dram_bytes = 1 << 16; // 64 KB cannot hold LeNet
        let e = compile(&net, &opt).unwrap_err();
        assert!(matches!(e, CompileError::OutOfMemory(_)));
    }

    #[test]
    fn dram_base_shifts_the_whole_footprint() {
        let net = zoo::lenet5(1);
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let at0 = compile(&net, &opt).unwrap();
        let base = 4 << 20;
        let hi = compile(&net, &opt.clone().at_dram_base(base)).unwrap();
        assert_eq!(hi.dram_base, base);
        assert!(hi.input_addr >= base && hi.output_addr >= base);
        for seg in hi.weights.segments() {
            assert!(seg.addr >= base, "weight segment below the base");
        }
        // Same model, same footprint size, just relocated.
        assert_eq!(hi.dram_used - hi.dram_base, at0.dram_used - at0.dram_base);
        assert_eq!(hi.input_addr - base, at0.input_addr);
        assert_eq!(hi.commands.len(), at0.commands.len());
        assert!(hi.dram_used <= opt.dram_bytes);
    }

    #[test]
    fn dram_base_at_or_past_the_limit_is_out_of_memory() {
        let net = zoo::lenet5(1);
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        opt.dram_base = opt.dram_bytes;
        assert!(matches!(
            compile(&net, &opt).unwrap_err(),
            CompileError::OutOfMemory(_)
        ));
    }

    #[test]
    fn buffers_do_not_overlap_weights() {
        let net = zoo::lenet5(1);
        let a = compile(&net, &CompileOptions::int8()).unwrap();
        // Every weight segment must be disjoint from the input buffer.
        let in_end = a.input_addr + a.input_len as u32;
        for seg in a.weights.segments() {
            let seg_end = seg.addr + seg.bytes.len() as u32;
            assert!(
                seg_end <= a.input_addr || seg.addr >= in_end,
                "weight segment overlaps input"
            );
        }
        assert!(a.dram_used > a.weights.total_bytes() as u32);
    }

    #[test]
    fn command_stream_is_paired_launch_poll_clear() {
        let net = zoo::lenet5(1);
        let a = compile(&net, &CompileOptions::int8()).unwrap();
        // Every ReadReg poll is immediately followed by the w1c clear.
        for (i, c) in a.commands.iter().enumerate() {
            if let ConfigCmd::ReadReg { addr, mask, expect } = c {
                assert_eq!(*addr, regs::GLB_INTR_STATUS);
                assert_eq!(mask, expect);
                match a.commands[i + 1] {
                    ConfigCmd::WriteReg { addr, value } => {
                        assert_eq!(addr, regs::GLB_INTR_STATUS);
                        assert_eq!(value, *mask);
                    }
                    ConfigCmd::ReadReg { .. } => panic!("poll not followed by clear"),
                }
            }
        }
        // One poll per op.
        let polls = a
            .commands
            .iter()
            .filter(|c| matches!(c, ConfigCmd::ReadReg { .. }))
            .count();
        assert_eq!(polls, a.ops.len());
    }
}
