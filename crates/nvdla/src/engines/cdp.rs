//! Channel data processor (CDP): local response normalization.
//!
//! The RTL computes LRN with a look-up table; we compute the same
//! function (`x / (k + alpha/n * sum(x²))^beta`) in f32, dequantizing
//! and requantizing around it in INT8 mode — the same numeric contract
//! at table-resolution accuracy.

use crate::descriptor::CdpDesc;

/// Apply LRN to a packed surface; returns the packed output.
///
/// # Panics
///
/// Panics if `src` is smaller than the descriptor implies.
#[must_use]
pub fn compute(desc: &CdpDesc, src: &[u8]) -> Vec<u8> {
    let vals = super::to_real(src, desc.precision, desc.in_scale);
    let elems = desc.elems();
    assert!(vals.len() >= elems, "CDP source too small");
    let plane = (desc.h * desc.w) as usize;
    let c = desc.c as usize;
    let half = (desc.local_size / 2) as usize;
    let n = desc.local_size as f32;
    let mut out = vec![0.0f32; elems];
    for ch in 0..c {
        let lo = ch.saturating_sub(half);
        let hi = (ch + half).min(c - 1);
        for p in 0..plane {
            let mut sum_sq = 0.0f32;
            for cc in lo..=hi {
                let v = vals[cc * plane + p];
                sum_sq += v * v;
            }
            let denom = (desc.k + desc.alpha * sum_sq / n).powf(desc.beta);
            out[ch * plane + p] = vals[ch * plane + p] / denom;
        }
    }
    super::from_real(&out, desc.precision, desc.out_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;

    fn desc(c: u32, hw: u32, precision: Precision) -> CdpDesc {
        CdpDesc {
            w: hw,
            h: hw,
            c,
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 1.0,
            precision,
            in_scale: 1.0,
            out_scale: 1.0,
            ..CdpDesc::default()
        }
    }

    #[test]
    fn fp16_lrn_matches_reference_formula() {
        let d = desc(5, 1, Precision::Fp16);
        let vals = [1.0f32, 2.0, 3.0, -2.0, 0.5];
        let src = super::super::from_real(&vals, Precision::Fp16, 1.0);
        let out = compute(&d, &src);
        let got = super::super::to_real(&out, Precision::Fp16, 1.0);
        // Channel 2 sees the full window (all 5 channels).
        let sum_sq: f32 = vals.iter().map(|v| v * v).sum();
        let expect = 3.0 / (1.0 + 1e-4 * sum_sq / 5.0).powf(0.75);
        assert!((got[2] - expect).abs() < 2e-3, "{} vs {expect}", got[2]);
    }

    #[test]
    fn small_activations_pass_nearly_unchanged() {
        let d = desc(3, 2, Precision::Fp16);
        let vals = [0.01f32; 12];
        let src = super::super::from_real(&vals, Precision::Fp16, 1.0);
        let out = compute(&d, &src);
        let got = super::super::to_real(&out, Precision::Fp16, 1.0);
        for v in got {
            assert!((v - 0.01).abs() < 1e-4);
        }
    }

    #[test]
    fn int8_lrn_round_trips_scales() {
        let mut d = desc(3, 1, Precision::Int8);
        d.in_scale = 0.1;
        d.out_scale = 0.1;
        // Values 5, 10, 20 (quantized at 0.1): real 0.5, 1.0, 2.0.
        let src = vec![5u8, 10, 20];
        let out = compute(&d, &src);
        // LRN barely changes these magnitudes with alpha=1e-4.
        assert_eq!(out.len(), 3);
        let got: Vec<i8> = out.iter().map(|&b| b as i8).collect();
        assert!((i32::from(got[0]) - 5).abs() <= 1);
        assert!((i32::from(got[2]) - 20).abs() <= 1);
    }

    #[test]
    fn edge_channels_use_truncated_window() {
        let d = desc(5, 1, Precision::Fp16);
        let vals = [10.0f32, 0.0, 0.0, 0.0, 10.0];
        let src = super::super::from_real(&vals, Precision::Fp16, 1.0);
        let out = compute(&d, &src);
        let got = super::super::to_real(&out, Precision::Fp16, 1.0);
        // Symmetric input -> symmetric output.
        assert!((got[0] - got[4]).abs() < 1e-3);
        assert!(got[0] < 10.0);
    }
}
