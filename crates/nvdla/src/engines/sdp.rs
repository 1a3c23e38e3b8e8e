//! Single-point data processor (SDP) functional model.
//!
//! Applies the per-channel bias/scale table (conv bias, folded
//! batch-norm), optional element-wise addition (ResNet shortcuts) and
//! ReLU, then converts to the output precision and format. This is the
//! engine that writes every layer result back to DRAM.

use crate::descriptor::SdpDesc;
use crate::regs;

/// Per-channel `(scale, shift)` pairs from the bias/scale table.
pub type BsTable = Vec<(f32, f32)>;

/// Parse a raw bias/scale table buffer (8 bytes per channel:
/// f32 scale, f32 shift, little-endian).
#[must_use]
pub fn parse_bs_table(bytes: &[u8]) -> BsTable {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let scale = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let shift = f32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            (scale, shift)
        })
        .collect()
}

/// Apply the SDP pipeline to a surface of real values.
///
/// `input` is in NCHW order with `desc.c * desc.h * desc.w` elements;
/// `input2` must be `Some` iff the eltwise flag is set; `bs` must be
/// `Some` iff the bias flag is set. Returns the packed output bytes at
/// the descriptor's precision.
///
/// # Panics
///
/// Panics if required operands are missing or sized wrong.
#[must_use]
pub fn apply(
    desc: &SdpDesc,
    input: Vec<f32>,
    input2: Option<Vec<f32>>,
    bs: Option<&BsTable>,
) -> Vec<u8> {
    let elems = desc.elems();
    assert_eq!(input.len(), elems, "SDP input size");
    let plane = (desc.h * desc.w) as usize;
    let mut vals = input;

    let table = desc.has(regs::SDP_FLAG_BIAS).then(|| {
        let table = bs.expect("bias flag set but no table");
        assert!(table.len() >= desc.c as usize, "bias table too short");
        table
    });
    let rhs = desc.has(regs::SDP_FLAG_ELTWISE).then(|| {
        let rhs = input2.expect("eltwise flag set but no second input");
        assert_eq!(rhs.len(), elems, "SDP eltwise size");
        rhs
    });
    let relu = desc.has(regs::SDP_FLAG_RELU);

    // One channel at a time, start to finish, so a plane is walked while
    // it is still in cache; each element still sees bias, eltwise, ReLU,
    // requantize in that order.
    let mut out = Vec::with_capacity(elems * desc.precision.bytes() as usize);
    for c in 0..desc.c as usize {
        let span = c * plane..(c + 1) * plane;
        let ch = &mut vals[span.clone()];
        if let Some(table) = table {
            let (scale, shift) = table[c];
            for v in ch.iter_mut() {
                *v = *v * scale + shift;
            }
        }
        if let Some(rhs) = &rhs {
            for (v, r) in ch.iter_mut().zip(&rhs[span]) {
                *v += r;
            }
        }
        if relu {
            for v in ch.iter_mut() {
                *v = v.max(0.0);
            }
        }
        super::extend_from_real(&mut out, ch, desc.precision, desc.out_scale);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    fn desc(c: u32, hw: u32, flags: u32, precision: Precision, out_scale: f32) -> SdpDesc {
        SdpDesc {
            w: hw,
            h: hw,
            c,
            flags,
            out_scale,
            precision,
            ..SdpDesc::default()
        }
    }

    #[test]
    fn bias_table_is_per_channel() {
        let d = desc(2, 1, regs::SDP_FLAG_BIAS, Precision::Fp16, 1.0);
        let bs = vec![(1.0, 10.0), (2.0, -1.0)];
        let out = apply(&d, vec![1.0, 3.0], None, Some(&bs));
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![11.0, 5.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let d = desc(1, 2, regs::SDP_FLAG_RELU, Precision::Fp16, 1.0);
        let out = apply(&d, vec![-3.0, 2.0, -0.5, 0.0], None, None);
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn eltwise_adds_then_relu() {
        let d = desc(
            1,
            1,
            regs::SDP_FLAG_ELTWISE | regs::SDP_FLAG_RELU,
            Precision::Fp16,
            1.0,
        );
        let out = apply(&d, vec![-3.0], Some(vec![1.0]), None);
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![0.0]);
    }

    #[test]
    fn int8_output_requantizes() {
        let d = desc(1, 1, 0, Precision::Int8, 0.5);
        let out = apply(&d, vec![10.0], None, None);
        assert_eq!(out[0] as i8, 20); // 10 / 0.5
        let d = desc(1, 1, 0, Precision::Int8, 0.01);
        let out = apply(&d, vec![10.0], None, None);
        assert_eq!(out[0] as i8, 127, "saturates");
    }

    #[test]
    fn bs_table_parses_pairs() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2.0f32.to_le_bytes());
        bytes.extend_from_slice(&(-1.0f32).to_le_bytes());
        bytes.extend_from_slice(&0.5f32.to_le_bytes());
        bytes.extend_from_slice(&3.0f32.to_le_bytes());
        let t = parse_bs_table(&bytes);
        assert_eq!(t, vec![(2.0, -1.0), (0.5, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "no second input")]
    fn missing_eltwise_operand_panics() {
        let d = desc(1, 1, regs::SDP_FLAG_ELTWISE, Precision::Fp16, 1.0);
        let _ = apply(&d, vec![1.0], None, None);
    }
}
