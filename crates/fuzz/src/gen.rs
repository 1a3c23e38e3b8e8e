//! The generator library: every random input the differential oracles
//! consume, derived from one [`SplitMix64`] stream per case so a bare
//! `u64` seed reproduces any of them bit-for-bit (the same discipline
//! as `rvnv_bus::fault::FaultPlan`).
//!
//! Generators here are shared surface — the fuzz targets in this crate
//! drive them, and the property suites in `crates/compiler/tests` and
//! `crates/nn/tests` reuse [`net_plan`] — so the grammar of "a random
//! small network" or "a random bus program" is defined exactly once.

use rvnv_nn::graph::{ConvParams, Network, Op, PoolKind};
use rvnv_nn::tensor::{Shape, WeightTensor};
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::descriptor::ConvDesc;
use rvnv_riscv::encode;
use rvnv_riscv::inst::{AluOp, BranchOp, CsrOp, Inst, MemWidth, MulOp};
use rvnv_riscv::reg::Reg;
use rvnv_util::SplitMix64;

fn reg(rng: &mut SplitMix64) -> Reg {
    Reg::new(rng.below(32) as u8)
}

/// A random *valid* instruction, biased toward control flow and memory
/// so streams actually loop, fault and hammer the decoded-block cache.
/// The distribution is fixed: a seed keeps deriving the same stream.
pub fn valid_inst(rng: &mut SplitMix64) -> Inst {
    match rng.below(12) {
        0 => Inst::Lui {
            rd: reg(rng),
            imm: rng.next_u32() & 0xFFFF_F000,
        },
        1 => Inst::AluImm {
            op: AluOp::Add,
            rd: reg(rng),
            rs1: reg(rng),
            imm: (rng.below(4096) as i32) - 2048,
        },
        2 => Inst::Alu {
            op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And][rng.below(4) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        3 => Inst::Mul {
            op: [MulOp::Mul, MulOp::Mulhu, MulOp::Div, MulOp::Rem][rng.below(4) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        4 => Inst::Load {
            width: [
                MemWidth::Byte,
                MemWidth::ByteU,
                MemWidth::Half,
                MemWidth::HalfU,
                MemWidth::Word,
            ][rng.below(5) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            offset: (rng.below(4096) as i32) - 2048,
        },
        5 => Inst::Store {
            width: [MemWidth::Byte, MemWidth::Half, MemWidth::Word][rng.below(3) as usize],
            rs1: reg(rng),
            rs2: reg(rng),
            offset: (rng.below(4096) as i32) - 2048,
        },
        6 => Inst::Branch {
            op: [BranchOp::Eq, BranchOp::Ne, BranchOp::Ltu, BranchOp::Geu][rng.below(4) as usize],
            rs1: reg(rng),
            rs2: reg(rng),
            // Short even offsets: mostly in-range, some past the end.
            offset: ((rng.below(32) as i32) - 8) * 4,
        },
        7 => Inst::Jal {
            rd: reg(rng),
            offset: ((rng.below(64) as i32) - 16) * 4,
        },
        8 => Inst::Jalr {
            rd: reg(rng),
            rs1: reg(rng),
            offset: ((rng.below(32) as i32) - 8) * 4,
        },
        9 => Inst::Csr {
            op: [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc][rng.below(3) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            // Cycle/instret/custom — whatever the CSR file makes of it.
            csr: [0xC00, 0xC02, 0x340, 0x305][rng.below(4) as usize],
        },
        10 => Inst::Fence,
        _ => Inst::Ebreak,
    }
}

/// A seeded instruction stream. One seed in three generates raw random
/// words (mostly illegal encodings), one generates all-valid streams,
/// one generates the mixed case — valid prefixes decaying into garbage,
/// the nastiest input for a decoded-block cache.
#[must_use]
pub fn instruction_stream(seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let flavor = rng.below(3);
    let len = rng.range(4, 120) as usize;
    (0..len)
        .map(|_| match flavor {
            0 => rng.next_u32(),
            1 => encode(&valid_inst(&mut rng)),
            _ => {
                if rng.chance(1, 3) {
                    rng.next_u32()
                } else {
                    encode(&valid_inst(&mut rng))
                }
            }
        })
        .collect()
}

/// One step of a random bus program over the SoC's composed DRAM path.
/// Plain data so the delete-chunk shrinker can drop steps and replay
/// the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// A single beat: read or write, any master, any size, sometimes a
    /// hostile (unowned / misaligned / out-of-range) address.
    Single {
        /// Index into the canonical `[Cpu, NvdlaDbb, ZynqPs]` order.
        master: u8,
        /// Write (true) or read.
        write: bool,
        /// Byte address.
        addr: u32,
        /// Index into `[Byte, Half, Word, Double]`.
        size: u8,
        /// Write data (ignored for reads).
        data: u64,
    },
    /// A block transfer: the DBB's through the width converter, the
    /// others' through the explicit-master arbiter ports.
    Burst {
        /// Index into the canonical `[Cpu, NvdlaDbb, ZynqPs]` order.
        master: u8,
        /// Write (true) or read.
        write: bool,
        /// Byte address.
        addr: u32,
        /// Transfer length in bytes (0 is legal and must succeed).
        len: u16,
        /// Largest constituent burst of a train, in bytes; 0 issues the
        /// transfer as one burst.
        burst: u16,
        /// Seed for the write payload.
        fill: u64,
        /// Issue the transfer length-only (`Data::Len`): same
        /// transaction, no bytes attached.
        len_only: bool,
    },
    /// Flip SmartConnect ownership.
    Switch {
        /// New owner: the SoC side (true) or the Zynq PS.
        soc: bool,
    },
    /// Board reset: DRAM zeroes, ownership back to the PS, stats clear.
    Reset,
    /// Let modeled time idle forward.
    Advance(u8),
    /// Issue the next transaction this many cycles before the last
    /// completion: a master whose clock trails the bus, so it finds
    /// another master's reservation still holding it.
    Lag(u16),
}

/// DRAM size every bus program runs against (1 MiB).
pub const BUS_DRAM_BYTES: usize = 1 << 20;

/// A random bus program and the fabric it runs on: the SoC clock
/// against the fixed 100 MHz DDR, whether a fault plan is armed, and
/// whether the DRAM starts with its two resident images. Only the steps
/// shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusProgram {
    /// Master-side clock of the clock crossing, MHz.
    pub soc_mhz: u16,
    /// Arm the fault shim with a latency-spike plan.
    pub armed: bool,
    /// Preload the two resident images; without them the DRAM starts
    /// unbacked, as a timing-only VP's does.
    pub images: bool,
    /// The steps.
    pub ops: Vec<BusOp>,
}

/// The SoC clocks the benchmark's clock sweep visits, MHz.
const SWEEP_MHZ: [u16; 8] = [50, 75, 100, 125, 150, 175, 200, 250];

/// SoC clocks at one to four times the 100 MHz DDR, MHz: the ratios at
/// which a train's middle bursts run in closed form.
const MULTIPLE_MHZ: [u16; 4] = [100, 200, 300, 400];

/// A seeded bus program: mostly singles, a quarter block
/// transfers (half of them burst trains, a third length-only, some
/// running off the end of DRAM, some starting in the row the previous
/// access left open), occasional ownership flips, resets, idle gaps
/// and lagging masters — at a multiple of the DDR clock, a sweep clock
/// or a random one, with faults armed two times in three and the
/// resident images preloaded three times in four. The images are drawn
/// last, so a seed's clock and steps do not depend on them.
#[must_use]
pub fn bus_program(seed: u64) -> BusProgram {
    let mut rng = SplitMix64::new(seed);
    let soc_mhz = match rng.below(3) {
        0 => *rng.pick(&MULTIPLE_MHZ),
        1 => *rng.pick(&SWEEP_MHZ),
        _ => rng.range(10, 400) as u16,
    };
    let armed = rng.chance(2, 3);
    let len = rng.range(4, 96) as usize;
    let mut last = 0u32;
    let ops = (0..len)
        .map(|_| match rng.below(100) {
            0..=54 => {
                let size = rng.below(4) as u8;
                let n = 1u32 << size;
                let addr = if rng.chance(1, 8) {
                    rng.next_u32() % (2 * BUS_DRAM_BYTES as u32)
                } else {
                    (rng.next_u32() % (BUS_DRAM_BYTES as u32 - 8)) & !(n - 1)
                };
                last = addr;
                BusOp::Single {
                    master: rng.below(3) as u8,
                    write: rng.chance(1, 2),
                    addr,
                    size,
                    data: rng.next_u64(),
                }
            }
            55..=79 => {
                let train = rng.chance(1, 2);
                let len = if rng.chance(1, 32) {
                    0
                } else {
                    rng.range(1, if train { 4096 } else { 512 })
                };
                let size = BUS_DRAM_BYTES as u32;
                let addr = match rng.below(8) {
                    0 => rng.next_u32() % (2 * size),
                    // Starts inside, ends outside: a train fails
                    // part-way.
                    1 => size - rng.below(len) as u32,
                    // Starts in the row the previous access opened.
                    2 => (last + rng.below(256) as u32) % (size - 4200),
                    _ => rng.next_u32() % (size - 4200),
                };
                last = addr;
                BusOp::Burst {
                    master: rng.below(3) as u8,
                    write: rng.chance(1, 2),
                    addr,
                    len: len as u16,
                    burst: match (train, rng.below(3)) {
                        (false, _) => 0,
                        (true, 0) => *rng.pick(&[128, 768, 1024]),
                        (true, _) => rng.range(1, 700) as u16,
                    },
                    fill: rng.next_u64(),
                    len_only: rng.chance(1, 3),
                }
            }
            80..=89 => BusOp::Switch {
                soc: rng.chance(1, 2),
            },
            90..=92 => BusOp::Reset,
            93..=96 => BusOp::Advance(rng.below(16) as u8),
            _ => BusOp::Lag(rng.range(1, 400) as u16),
        })
        .collect();
    BusProgram {
        soc_mhz,
        armed,
        images: rng.chance(3, 4),
        ops,
    }
}

/// One layer of a random small network, as plain data: the network is
/// rebuilt from the plan on every check, so the shrinker can delete
/// layers and the compiler sees a fresh consistent graph each time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerPlan {
    /// Square convolution; weights derived from the plan seed.
    Conv {
        /// Output channels.
        out_c: u8,
        /// Kernel size (square).
        k: u8,
        /// Stride.
        stride: u8,
        /// Zero padding.
        pad: u8,
    },
    /// Rectified linear unit.
    Relu,
    /// Folded batch-norm with seeded per-channel scale/shift.
    BatchNorm,
    /// k×k pooling at stride 2.
    Pool {
        /// Max (true) or average pooling.
        max: bool,
        /// Window: 2 or 3.
        k: u8,
    },
    /// Global average pooling down to 1×1.
    GlobalAvgPool,
    /// Fully connected head (terminal).
    Fc {
        /// Output dimension.
        out: u16,
    },
}

/// A buildable description of a random small network: input shape,
/// layer list, and the seed all weights derive from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPlan {
    /// Input channels.
    pub in_c: u8,
    /// Input height == width.
    pub in_hw: u8,
    /// Seed for every weight, bias, scale and shift tensor.
    pub weight_seed: u64,
    /// The layer sequence (applied in order; single chain).
    pub layers: Vec<LayerPlan>,
}

impl NetPlan {
    /// The input shape the plan starts from.
    #[must_use]
    pub fn input_shape(&self) -> Shape {
        Shape::new(self.in_c as usize, self.in_hw as usize, self.in_hw as usize)
    }

    /// Build the network, or explain why the plan is inconsistent (a
    /// shrunk plan may pool a 1×1 activation, feed an FC twice, …).
    /// Inconsistent plans are not counterexamples — the oracle treats
    /// a build error as a passing case.
    ///
    /// # Errors
    ///
    /// A human-readable reason the plan does not describe a network.
    pub fn build(&self) -> Result<Network, String> {
        let mut rng = SplitMix64::new(self.weight_seed);
        let mut net = Network::new("fuzz", self.input_shape());
        let (mut c, mut hw) = (self.in_c as usize, self.in_hw as usize);
        let mut prev = net.input();
        let mut done = false;
        for (i, layer) in self.layers.iter().enumerate() {
            if done {
                return Err("layer after the FC head".into());
            }
            let id = match *layer {
                LayerPlan::Conv {
                    out_c,
                    k,
                    stride,
                    pad,
                } => {
                    let (out_c, k, s, p) =
                        (out_c as usize, k as usize, stride as usize, pad as usize);
                    if out_c == 0 || k == 0 || s == 0 {
                        return Err(format!("degenerate conv at layer {i}"));
                    }
                    if hw + 2 * p < k {
                        return Err(format!("kernel {k} larger than input {hw}+2*{p}"));
                    }
                    let out_hw = (hw + 2 * p - k) / s + 1;
                    let bias: Vec<f32> = (0..out_c)
                        .map(|_| (rng.below(200) as f32 - 100.0) / 1000.0)
                        .collect();
                    let node = net.add(
                        format!("conv{i}"),
                        Op::Conv2d(ConvParams {
                            weights: WeightTensor::random(out_c, c, k, k, rng.next_u64()),
                            bias,
                            stride: s,
                            pad: p,
                            groups: 1,
                        }),
                        &[prev],
                    );
                    c = out_c;
                    hw = out_hw;
                    node
                }
                LayerPlan::Relu => net.add(format!("relu{i}"), Op::Relu, &[prev]),
                LayerPlan::BatchNorm => {
                    let scale: Vec<f32> = (0..c)
                        .map(|_| 0.5 + (rng.below(100) as f32) / 100.0)
                        .collect();
                    let shift: Vec<f32> = (0..c)
                        .map(|_| (rng.below(100) as f32 - 50.0) / 100.0)
                        .collect();
                    net.add(format!("bn{i}"), Op::BatchNorm { scale, shift }, &[prev])
                }
                LayerPlan::Pool { max, k } => {
                    let k = k as usize;
                    if hw < k || k == 0 {
                        return Err(format!(
                            "{k}×{k} pooling of a {hw}×{hw} activation at layer {i}"
                        ));
                    }
                    // Pool output uses Caffe ceil semantics, unlike conv.
                    hw = (hw - k).div_ceil(2) + 1;
                    net.add(
                        format!("pool{i}"),
                        Op::Pool {
                            kind: if max { PoolKind::Max } else { PoolKind::Avg },
                            k,
                            stride: 2,
                            pad: 0,
                        },
                        &[prev],
                    )
                }
                LayerPlan::GlobalAvgPool => {
                    hw = 1;
                    net.add(format!("gap{i}"), Op::GlobalAvgPool, &[prev])
                }
                LayerPlan::Fc { out } => {
                    let out = out as usize;
                    if out == 0 {
                        return Err(format!("zero-width FC at layer {i}"));
                    }
                    let input = c * hw * hw;
                    let bound = (2.0 / input as f32).sqrt();
                    let weights: Vec<f32> = (0..out * input)
                        .map(|_| (rng.below(2000) as f32 / 1000.0 - 1.0) * bound)
                        .collect();
                    let bias: Vec<f32> = (0..out)
                        .map(|_| (rng.below(200) as f32 - 100.0) / 1000.0)
                        .collect();
                    done = true;
                    c = out;
                    hw = 1;
                    net.add(
                        format!("fc{i}"),
                        Op::FullyConnected {
                            weights,
                            out,
                            input,
                            bias,
                        },
                        &[prev],
                    )
                }
            };
            prev = id.map_err(|e| format!("{}: {}", e.node, e.message))?;
        }
        if net.layer_count() == 0 {
            return Err("empty plan".into());
        }
        Ok(net)
    }
}

/// A seeded random small network plan: 1–5 layers over a tiny input
/// (≤ 4 channels, ≤ 14×14), convs/norms/pools in the body, optionally
/// an FC head of up to 10 outputs — or, on a third of the heads, of
/// enough outputs that its weights pass half the CBUF. Small enough
/// that a full compile + two simulated inferences per case stays in
/// the tens-of-milliseconds range.
#[must_use]
pub fn net_plan(seed: u64) -> NetPlan {
    let mut rng = SplitMix64::new(seed);
    let in_c = rng.range(1, 4) as u8;
    let in_hw = rng.range(6, 14) as u8;
    let body = rng.range(1, 4) as usize;
    let mut layers = Vec::new();
    let (mut c, mut hw) = (in_c as usize, in_hw as usize);
    for _ in 0..body {
        match rng.below(5) {
            0 | 1 => {
                let k = [1usize, 3, 5][rng.below(3) as usize];
                let pad = rng.below(u64::from(k as u32)) as usize % 3;
                let stride = rng.range(1, 2) as usize;
                if hw + 2 * pad < k {
                    continue;
                }
                let out_c = rng.range(1, 6) as u8;
                layers.push(LayerPlan::Conv {
                    out_c,
                    k: k as u8,
                    stride: stride as u8,
                    pad: pad as u8,
                });
                c = out_c as usize;
                hw = (hw + 2 * pad - k) / stride + 1;
            }
            2 => layers.push(LayerPlan::Relu),
            3 => layers.push(LayerPlan::BatchNorm),
            _ => {
                let k = rng.range(2, 3) as usize;
                if hw >= k {
                    layers.push(LayerPlan::Pool {
                        max: rng.chance(1, 2),
                        k: k as u8,
                    });
                    hw = (hw - k).div_ceil(2) + 1;
                }
            }
        }
    }
    if rng.chance(1, 3) {
        layers.push(LayerPlan::GlobalAvgPool);
        hw = 1;
    }
    if rng.chance(1, 2) || layers.is_empty() {
        layers.push(LayerPlan::Fc {
            out: rng.range(1, 10) as u16,
        });
    }
    let weight_seed = rng.next_u64();
    // One head in three carries more INT8 weights than half of
    // nv_small's 128 KiB CBUF, so the conv that lowers it re-fetches
    // its features. Drawn last: the rest of the plan is the seed's
    // either way.
    let least = (64 << 10) / (c * hw * hw) as u64 + 1;
    if let Some(LayerPlan::Fc { out }) = layers.last_mut() {
        if rng.chance(1, 3) && least < 1 << 15 {
            *out = rng.range(least, least + least / 4) as u16;
        }
    }
    NetPlan {
        in_c,
        in_hw,
        weight_seed,
        layers,
    }
}

/// One convolution for the `conv` target: nine dimensions, a
/// precision, and the seed its operand data derives from. The output
/// size is derived, never stored, so every shrunk case is either a
/// consistent convolution or none at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvCase {
    /// `[groups, in_per_group, out_per_group, in_h, in_w, kh, kw,
    /// stride, pad]`.
    pub dims: [u32; 9],
    /// FP16 on the engine side (else INT8).
    pub fp16: bool,
    /// Seed for features, weights and bias.
    pub data_seed: u64,
}

impl ConvCase {
    /// Smallest value each of [`ConvCase::dims`] may shrink to.
    pub const FLOORS: [u32; 9] = [1, 1, 1, 1, 1, 1, 1, 1, 0];

    /// The engine descriptor, or `None` when a dimension is below its
    /// floor or the padded input is smaller than the kernel.
    #[must_use]
    pub fn desc(&self) -> Option<ConvDesc> {
        let [groups, in_per_group, out_per_group, in_h, in_w, kh, kw, stride, pad] = self.dims;
        if self.dims.iter().zip(Self::FLOORS).any(|(&d, f)| d < f) {
            return None;
        }
        let out = |len: u32, k: u32| Some((len + 2 * pad).checked_sub(k)? / stride + 1);
        let precision = if self.fp16 {
            Precision::Fp16
        } else {
            Precision::Int8
        };
        Some(ConvDesc {
            in_w,
            in_h,
            in_c: groups * in_per_group,
            wt_bytes: groups * out_per_group * in_per_group * kh * kw * precision.bytes(),
            stride,
            pad,
            out_w: out(in_w, kw)?,
            out_h: out(in_h, kh)?,
            out_c: groups * out_per_group,
            kw,
            kh,
            groups,
            in_scale: 0.031,
            wt_scale: 0.27,
            precision,
            ..ConvDesc::default()
        })
    }
}

/// A seeded convolution: 1–4 groups (one in six depthwise-like, one
/// channel in and out), up to 20 output channels a group (across the
/// kernels' channel blocks), inputs up to 12×12 and now and then wider
/// than an accumulator tile, kernels up to 5×5 — not square, and larger
/// than the input when the padding makes up for it — stride 1–3, and
/// padding from none to beyond the kernel, so windows clip on every
/// edge.
#[must_use]
pub fn conv_case(seed: u64) -> ConvCase {
    let mut rng = SplitMix64::new(seed);
    let depthwise = rng.chance(1, 6);
    let groups = rng.range(1, 4) as u32;
    let in_per_group = if depthwise { 1 } else { rng.range(1, 6) as u32 };
    let out_per_group = if depthwise {
        1
    } else {
        rng.range(1, 20) as u32
    };
    let in_h = rng.range(1, 12) as u32;
    let in_w = if rng.chance(1, 8) {
        rng.range(250, 300) as u32
    } else {
        rng.range(1, 12) as u32
    };
    let (kh, kw) = (rng.range(1, 5) as u32, rng.range(1, 5) as u32);
    let stride = rng.range(1, 3) as u32;
    // Enough padding that the kernel fits, then up to two past it.
    let fit = (kh.saturating_sub(in_h))
        .max(kw.saturating_sub(in_w))
        .div_ceil(2);
    let pad = rng.range(u64::from(fit), u64::from(kh.max(kw) + 2)) as u32;
    ConvCase {
        dims: [
            groups,
            in_per_group,
            out_per_group,
            in_h,
            in_w,
            kh,
            kw,
            stride,
            pad,
        ],
        fp16: rng.chance(1, 2),
        data_seed: rng.next_u64(),
    }
}

/// A seeded interleaved frame stream over `models` resident models:
/// `(model index, input seed)` pairs, FIFO enqueue order.
#[must_use]
pub fn frame_stream(seed: u64, models: usize, max_frames: u64) -> Vec<(usize, u64)> {
    let mut rng = SplitMix64::new(seed);
    let len = rng.range(1, max_frames.max(1)) as usize;
    (0..len)
        .map(|_| (rng.below(models as u64) as usize, rng.next_u64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_replay_bit_identically() {
        for seed in 0..32u64 {
            assert_eq!(instruction_stream(seed), instruction_stream(seed));
            assert_eq!(bus_program(seed), bus_program(seed));
            assert_eq!(net_plan(seed), net_plan(seed));
            assert_eq!(frame_stream(seed, 2, 6), frame_stream(seed, 2, 6));
            assert_eq!(conv_case(seed), conv_case(seed));
        }
    }

    #[test]
    fn generated_net_plans_build() {
        let mut built = 0;
        for seed in 0..100u64 {
            let plan = net_plan(seed);
            match plan.build() {
                Ok(net) => {
                    net.infer_shapes().expect("generated plans infer");
                    built += 1;
                }
                Err(e) => panic!("seed {seed}: generator emitted unbuildable plan: {e}"),
            }
        }
        assert_eq!(built, 100);
    }

    /// The `net` target reaches the CBUF re-fetch path: enough plans
    /// end in an FC head whose INT8 weights pass half of nv_small's
    /// 128 KiB CBUF.
    #[test]
    fn generated_net_plans_reach_the_cbuf_refetch() {
        let refetching = (1..=500u64)
            .filter(|&seed| {
                let net = net_plan(seed).build().expect("generated plans build");
                net.nodes().iter().any(|n| match &n.op {
                    Op::FullyConnected { weights, .. } => weights.len() > 64 << 10,
                    _ => false,
                })
            })
            .count();
        assert!(refetching >= 25, "{refetching} of 500 plans re-fetch");
    }

    #[test]
    fn generated_conv_cases_are_consistent() {
        for seed in 0..200u64 {
            let case = conv_case(seed);
            assert!(case.desc().is_some(), "seed {seed}: {case:?}");
        }
    }

    /// Promoted regression: the first 100-seed sweep caught this
    /// module's shape tracker using floor division for pool outputs
    /// while the graph uses Caffe ceil semantics, so the FC head was
    /// sized off the wrong activation ("FC expects 18 inputs, got 32
    /// (2x4x4)"). Minimal input: an odd 7×7 activation pooled 2/2 —
    /// ceil gives 4×4, floor gave 3×3.
    #[test]
    fn regression_pool_tracking_uses_caffe_ceil() {
        let plan = NetPlan {
            in_c: 2,
            in_hw: 7,
            weight_seed: 1,
            layers: vec![
                LayerPlan::Pool { max: true, k: 2 },
                LayerPlan::Fc { out: 3 },
            ],
        };
        let net = plan.build().expect("a pooled 7×7 plan is consistent");
        // If the tracker drifts from the graph again, the FC head is
        // mis-sized and shape inference rejects the network.
        net.infer_shapes()
            .expect("tracker and graph must agree on pooled shapes");
    }
}
