//! Hardware operation descriptors decoded from CSB registers.
//!
//! When firmware writes `OP_ENABLE`, the engine latches its `D_*`
//! registers into one of these descriptors — the software-visible
//! contract between the compiler-generated traces and the hardware
//! model.

use crate::config::Precision;
use crate::regs::{self, Block};
use rvnv_nn::conv::ConvGeom;

/// Register-read function for a block (`offset -> value`).
pub(crate) type RegRead<'a> = &'a dyn Fn(Block, u32) -> u32;

fn f32_of(bits: u32) -> f32 {
    f32::from_bits(bits)
}

fn precision_of(bits: u32) -> Precision {
    if bits & 1 == 1 {
        Precision::Fp16
    } else {
        Precision::Int8
    }
}

fn unpack_wh(v: u32) -> (u32, u32) {
    (v & 0xFFFF, v >> 16)
}

/// A convolution launched through CDMA/CSC/CMAC/CACC.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvDesc {
    /// Input feature DRAM address.
    pub src: u32,
    /// Input width.
    pub in_w: u32,
    /// Input height.
    pub in_h: u32,
    /// Input channels (total).
    pub in_c: u32,
    /// Weight DRAM address.
    pub wt_addr: u32,
    /// Weight bytes.
    pub wt_bytes: u32,
    /// Stride.
    pub stride: u32,
    /// Zero padding.
    pub pad: u32,
    /// Output width.
    pub out_w: u32,
    /// Output height.
    pub out_h: u32,
    /// Output channels (total).
    pub out_c: u32,
    /// Kernel width.
    pub kw: u32,
    /// Kernel height.
    pub kh: u32,
    /// Group count.
    pub groups: u32,
    /// Input activation scale (INT8).
    pub in_scale: f32,
    /// Weight scale (INT8).
    pub wt_scale: f32,
    /// Operating precision.
    pub precision: Precision,
}

impl ConvDesc {
    pub(crate) fn decode(r: RegRead<'_>) -> Self {
        let (in_w, in_h) = unpack_wh(r(Block::Cdma, regs::CDMA_DATAIN_SIZE0));
        let (out_w, out_h) = unpack_wh(r(Block::Csc, regs::CSC_DATAOUT_SIZE0));
        let (kw, kh) = unpack_wh(r(Block::Csc, regs::CSC_WEIGHT_SIZE0));
        ConvDesc {
            src: r(Block::Cdma, regs::CDMA_DATAIN_ADDR),
            in_w,
            in_h,
            in_c: r(Block::Cdma, regs::CDMA_DATAIN_SIZE1),
            wt_addr: r(Block::Cdma, regs::CDMA_WEIGHT_ADDR),
            wt_bytes: r(Block::Cdma, regs::CDMA_WEIGHT_BYTES),
            stride: r(Block::Cdma, regs::CDMA_CONV_STRIDE).max(1),
            pad: r(Block::Cdma, regs::CDMA_ZERO_PADDING),
            out_w,
            out_h,
            out_c: r(Block::Csc, regs::CSC_DATAOUT_SIZE1),
            kw,
            kh,
            groups: r(Block::Csc, regs::CSC_GROUPS).max(1),
            in_scale: f32_of(r(Block::Cdma, regs::CDMA_IN_SCALE)),
            wt_scale: f32_of(r(Block::Cdma, regs::CDMA_WT_SCALE)),
            precision: precision_of(r(Block::Cmac, regs::CMAC_MISC)),
        }
    }

    /// Output elements.
    #[must_use]
    pub fn out_elems(&self) -> usize {
        (self.out_c * self.out_h * self.out_w) as usize
    }

    /// Input feature bytes at this precision.
    #[must_use]
    pub fn feature_bytes(&self) -> usize {
        (self.in_c * self.in_h * self.in_w * self.precision.bytes()) as usize
    }

    /// The convolution's shape, as the kernels take it.
    #[must_use]
    pub fn geom(&self) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c as usize,
            in_h: self.in_h as usize,
            in_w: self.in_w as usize,
            out_c: self.out_c as usize,
            out_h: self.out_h as usize,
            out_w: self.out_w as usize,
            kh: self.kh as usize,
            kw: self.kw as usize,
            stride: self.stride as usize,
            pad: self.pad as usize,
            groups: self.groups as usize,
        }
    }

    /// Multiply-accumulates for the whole operation.
    #[must_use]
    pub fn macs(&self) -> u64 {
        let in_per_group = u64::from(self.in_c / self.groups);
        u64::from(self.out_c)
            * u64::from(self.out_h)
            * u64::from(self.out_w)
            * in_per_group
            * u64::from(self.kh)
            * u64::from(self.kw)
    }
}

/// SDP source selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpSrc {
    /// On-the-fly from the convolution accumulator.
    Flying,
    /// From memory.
    Memory,
}

/// A single-point (bias/BN/ReLU/eltwise) operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SdpDesc {
    /// Data source.
    pub src_mode: SdpSrc,
    /// Source address (memory mode).
    pub src: u32,
    /// Second source (eltwise).
    pub src2: u32,
    /// Destination address.
    pub dst: u32,
    /// Width.
    pub w: u32,
    /// Height.
    pub h: u32,
    /// Channels.
    pub c: u32,
    /// Bias/scale table address (8 bytes per channel).
    pub bs_addr: u32,
    /// Flag bits ([`regs::SDP_FLAG_RELU`] …).
    pub flags: u32,
    /// Output scale (INT8).
    pub out_scale: f32,
    /// Input scale (INT8 memory mode).
    pub in_scale: f32,
    /// Second-input scale (INT8 eltwise).
    pub in2_scale: f32,
    /// Operating precision.
    pub precision: Precision,
}

impl SdpDesc {
    pub(crate) fn decode(r: RegRead<'_>) -> Self {
        let (w, h) = unpack_wh(r(Block::Sdp, regs::SDP_SIZE0));
        SdpDesc {
            src_mode: if r(Block::Sdp, regs::SDP_SRC) & 1 == 0 {
                SdpSrc::Flying
            } else {
                SdpSrc::Memory
            },
            src: r(Block::Sdp, regs::SDP_SRC_ADDR),
            src2: r(Block::Sdp, regs::SDP_SRC2_ADDR),
            dst: r(Block::Sdp, regs::SDP_DST_ADDR),
            w,
            h,
            c: r(Block::Sdp, regs::SDP_SIZE1),
            bs_addr: r(Block::Sdp, regs::SDP_BS_ADDR),
            flags: r(Block::Sdp, regs::SDP_FLAGS),
            out_scale: f32_of(r(Block::Sdp, regs::SDP_OUT_SCALE)),
            in_scale: f32_of(r(Block::Sdp, regs::SDP_IN_SCALE)),
            in2_scale: f32_of(r(Block::Sdp, regs::SDP_IN2_SCALE)),
            precision: precision_of(r(Block::Sdp, regs::SDP_PRECISION)),
        }
    }

    /// Surface elements.
    #[must_use]
    pub fn elems(&self) -> usize {
        (self.c * self.h * self.w) as usize
    }

    /// Whether flag `bit` is set.
    #[must_use]
    pub fn has(&self, bit: u32) -> bool {
        self.flags & bit != 0
    }
}

/// Pooling kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum.
    Max,
    /// Average (Caffe semantics: divide by k², padding included).
    Avg,
}

/// A planar (pooling) operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PdpDesc {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Input width.
    pub in_w: u32,
    /// Input height.
    pub in_h: u32,
    /// Channels.
    pub c: u32,
    /// Pooling kind.
    pub kind: PoolKind,
    /// Kernel size.
    pub k: u32,
    /// Stride.
    pub stride: u32,
    /// Padding.
    pub pad: u32,
    /// Output width.
    pub out_w: u32,
    /// Output height.
    pub out_h: u32,
    /// Operating precision.
    pub precision: Precision,
}

impl PdpDesc {
    pub(crate) fn decode(r: RegRead<'_>) -> Self {
        let (in_w, in_h) = unpack_wh(r(Block::Pdp, regs::PDP_SIZE_IN));
        let (out_w, out_h) = unpack_wh(r(Block::Pdp, regs::PDP_SIZE_OUT));
        let pooling = r(Block::Pdp, regs::PDP_POOLING);
        PdpDesc {
            src: r(Block::Pdp, regs::PDP_SRC_ADDR),
            dst: r(Block::Pdp, regs::PDP_DST_ADDR),
            in_w,
            in_h,
            c: r(Block::Pdp, regs::PDP_CHANNELS),
            kind: if pooling & 1 == 0 {
                PoolKind::Max
            } else {
                PoolKind::Avg
            },
            k: (pooling >> 8) & 0xFF,
            stride: ((pooling >> 16) & 0xFF).max(1),
            pad: (pooling >> 24) & 0xFF,
            out_w,
            out_h,
            precision: precision_of(r(Block::Pdp, regs::PDP_PRECISION)),
        }
    }

    /// Output elements.
    #[must_use]
    pub fn out_elems(&self) -> usize {
        (self.c * self.out_h * self.out_w) as usize
    }
}

/// A channel (LRN) operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CdpDesc {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Width.
    pub w: u32,
    /// Height.
    pub h: u32,
    /// Channels.
    pub c: u32,
    /// LRN window (odd).
    pub local_size: u32,
    /// Alpha.
    pub alpha: f32,
    /// Beta.
    pub beta: f32,
    /// K.
    pub k: f32,
    /// Operating precision.
    pub precision: Precision,
    /// Input scale (INT8).
    pub in_scale: f32,
    /// Output scale (INT8).
    pub out_scale: f32,
}

impl CdpDesc {
    pub(crate) fn decode(r: RegRead<'_>) -> Self {
        let (w, h) = unpack_wh(r(Block::Cdp, regs::CDP_SIZE));
        CdpDesc {
            src: r(Block::Cdp, regs::CDP_SRC_ADDR),
            dst: r(Block::Cdp, regs::CDP_DST_ADDR),
            w,
            h,
            c: r(Block::Cdp, regs::CDP_CHANNELS),
            local_size: r(Block::Cdp, regs::CDP_LRN_SIZE).max(1),
            alpha: f32_of(r(Block::Cdp, regs::CDP_ALPHA)),
            beta: f32_of(r(Block::Cdp, regs::CDP_BETA)),
            k: f32_of(r(Block::Cdp, regs::CDP_K)),
            precision: precision_of(r(Block::Cdp, regs::CDP_PRECISION)),
            in_scale: f32_of(r(Block::Cdp, regs::CDP_IN_SCALE)),
            out_scale: f32_of(r(Block::Cdp, regs::CDP_OUT_SCALE)),
        }
    }

    /// Surface elements.
    #[must_use]
    pub fn elems(&self) -> usize {
        (self.c * self.h * self.w) as usize
    }
}

/// A RUBIK/BDMA contiguous copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyDesc {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Bytes to move.
    pub len: u32,
}

impl CopyDesc {
    pub(crate) fn decode(block: Block, r: RegRead<'_>) -> Self {
        CopyDesc {
            src: r(block, regs::COPY_SRC_ADDR),
            dst: r(block, regs::COPY_DST_ADDR),
            len: r(block, regs::COPY_LEN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_desc_decodes_packed_fields() {
        let read = |b: Block, off: u32| -> u32 {
            match (b, off) {
                (Block::Cdma, regs::CDMA_DATAIN_SIZE0) => 28 | (14 << 16),
                (Block::Cdma, regs::CDMA_DATAIN_SIZE1) => 3,
                (Block::Csc, regs::CSC_DATAOUT_SIZE0) => 13 | (6 << 16),
                (Block::Csc, regs::CSC_DATAOUT_SIZE1) => 20,
                (Block::Csc, regs::CSC_WEIGHT_SIZE0) => 5 | (5 << 16),
                (Block::Csc, regs::CSC_GROUPS) => 0, // clamps to 1
                (Block::Cmac, regs::CMAC_MISC) => 1, // fp16
                (Block::Cdma, regs::CDMA_IN_SCALE) => 1.5f32.to_bits(),
                _ => 0,
            }
        };
        let d = ConvDesc::decode(&read);
        assert_eq!((d.in_w, d.in_h, d.in_c), (28, 14, 3));
        assert_eq!((d.out_w, d.out_h, d.out_c), (13, 6, 20));
        assert_eq!((d.kw, d.kh), (5, 5));
        assert_eq!(d.groups, 1);
        assert_eq!(d.stride, 1, "stride 0 clamps to 1");
        assert_eq!(d.precision, Precision::Fp16);
        assert_eq!(d.in_scale, 1.5);
        assert_eq!(d.macs(), 20 * 6 * 13 * 3 * 25);
    }

    #[test]
    fn pdp_pooling_word_unpacks() {
        let read = |_: Block, off: u32| -> u32 {
            match off {
                regs::PDP_POOLING => 1 | (3 << 8) | (2 << 16) | (1 << 24),
                regs::PDP_SIZE_IN => 8 | (8 << 16),
                regs::PDP_SIZE_OUT => 4 | (4 << 16),
                regs::PDP_CHANNELS => 16,
                _ => 0,
            }
        };
        let d = PdpDesc::decode(&read);
        assert_eq!(d.kind, PoolKind::Avg);
        assert_eq!((d.k, d.stride, d.pad), (3, 2, 1));
        assert_eq!(d.out_elems(), 16 * 16);
    }

    #[test]
    fn sdp_flags() {
        let read = |_: Block, off: u32| -> u32 {
            match off {
                regs::SDP_FLAGS => regs::SDP_FLAG_RELU | regs::SDP_FLAG_BIAS,
                regs::SDP_SRC => 1,
                _ => 0,
            }
        };
        let d = SdpDesc::decode(&read);
        assert!(d.has(regs::SDP_FLAG_RELU));
        assert!(d.has(regs::SDP_FLAG_BIAS));
        assert!(!d.has(regs::SDP_FLAG_ELTWISE));
        assert_eq!(d.src_mode, SdpSrc::Memory);
    }
}
