//! Single-point data processor (SDP) functional model.
//!
//! Applies the per-channel bias/scale table (conv bias, folded
//! batch-norm), optional element-wise addition (ResNet shortcuts) and
//! ReLU, then converts to the output precision and format. This is the
//! engine that writes every layer result back to DRAM.

use crate::descriptor::SdpDesc;
use crate::regs;

/// Apply the SDP pipeline to `input`, a surface of real values in NCHW
/// order, and return the packed output at the descriptor's precision.
/// `bias` is the per-channel table (8 bytes per channel: f32 scale, then
/// f32 shift, little-endian) and `eltwise` the packed second source;
/// each is read only when its flag is set.
///
/// # Panics
///
/// Panics if `input`, or an operand the flags call for, is shorter than
/// the surface.
#[must_use]
pub fn apply(desc: &SdpDesc, input: Vec<f32>, bias: &[u8], eltwise: &[u8]) -> Vec<u8> {
    let elems = desc.elems();
    assert_eq!(input.len(), elems, "SDP input size");
    let plane = (desc.h * desc.w) as usize;
    let mut vals = input;

    let table = desc.has(regs::SDP_FLAG_BIAS).then(|| {
        assert!(bias.len() >= desc.c as usize * 8, "bias table too short");
        bias
    });
    let rhs = desc.has(regs::SDP_FLAG_ELTWISE).then(|| {
        let rhs = super::to_real(eltwise, desc.precision, desc.in2_scale);
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
            let f32_at = |i: usize| f32::from_le_bytes([0, 1, 2, 3].map(|k| table[8 * c + i + k]));
            let (scale, shift) = (f32_at(0), f32_at(4));
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

    /// The table packs each channel's f32 scale then shift,
    /// little-endian.
    #[test]
    fn bias_table_is_per_channel() {
        let d = desc(2, 1, regs::SDP_FLAG_BIAS, Precision::Fp16, 1.0);
        let bs: Vec<u8> = [1.0f32, 10.0, 2.0, -1.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let out = apply(&d, vec![1.0, 3.0], &bs, &[]);
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![11.0, 5.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let d = desc(1, 2, regs::SDP_FLAG_RELU, Precision::Fp16, 1.0);
        let out = apply(&d, vec![-3.0, 2.0, -0.5, 0.0], &[], &[]);
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
        let rhs = super::super::from_real(&[1.0], Precision::Fp16, 1.0);
        let out = apply(&d, vec![-3.0], &[], &rhs);
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![0.0]);
    }

    #[test]
    fn int8_output_requantizes() {
        let d = desc(1, 1, 0, Precision::Int8, 0.5);
        let out = apply(&d, vec![10.0], &[], &[]);
        assert_eq!(out[0] as i8, 20); // 10 / 0.5
        let d = desc(1, 1, 0, Precision::Int8, 0.01);
        let out = apply(&d, vec![10.0], &[], &[]);
        assert_eq!(out[0] as i8, 127, "saturates");
    }

    #[test]
    #[should_panic(expected = "SDP eltwise size")]
    fn missing_eltwise_operand_panics() {
        let d = desc(1, 1, regs::SDP_FLAG_ELTWISE, Precision::Fp16, 1.0);
        let _ = apply(&d, vec![1.0], &[], &[]);
    }
}
