//! Convolution pipeline (CDMA → CBUF → CSC → CMAC → CACC) functional
//! model.
//!
//! Computes the accumulator surface for one convolution descriptor.
//! INT8 accumulates exactly in `i32` (as the RTL's 34-bit accumulators
//! do) and converts to real values with the input×weight scale; FP16
//! accumulates in f32 (the RTL uses wider-than-fp16 accumulation too).
//!
//! * [`compute`] — the production path. One rule makes it fast and
//!   keeps it exact: **SIMD/ILP lanes run across independent outputs,
//!   never along one output's tap reduction**. FP16 decodes to f32 and
//!   calls [`rvnv_nn::conv::conv2d`], the kernel the golden executor
//!   runs, which keeps every output's `(ic, ky, kx)` add sequence and
//!   skips padding taps. INT8 sums are exact in any order, so that
//!   path may vectorize the reduction too: each window is gathered
//!   once into a zero-padded patch and reduced against four output
//!   channels' weight rows at a time.
//! * [`compute_reference`] — the naive tap-at-a-time loop, kept as the
//!   bit-exactness oracle for tests, the determinism fingerprint, the
//!   `conv` fuzz target and the perf harness.

use crate::config::Precision;
use crate::descriptor::ConvDesc;
use rvnv_nn::conv::{conv2d, conv2d_naive, ConvGeom};
use rvnv_nn::F16;

/// Compute the convolution accumulator as real (f32) values in NCHW
/// output order.
///
/// `feature` and `weights` are the packed DRAM buffers (NCHW / OIHW at
/// the descriptor's precision).
///
/// # Panics
///
/// Panics if the buffers are smaller than the descriptor implies.
#[must_use]
pub fn compute(desc: &ConvDesc, feature: &[u8], weights: &[u8]) -> Vec<f32> {
    let g = desc.geom();
    match desc.precision {
        Precision::Int8 => {
            let (f, w) = int8_operands(&g, feature, weights);
            let widen = |bytes: &[u8]| bytes.iter().map(|&b| i16::from(b as i8)).collect();
            let (f, w): (Vec<i16>, Vec<i16>) = (widen(f), widen(w));
            let acc_scale = desc.in_scale * desc.wt_scale;
            conv_int8(&g, &f, &w)
                .into_iter()
                .map(|acc| acc as f32 * acc_scale)
                .collect()
        }
        Precision::Fp16 => {
            let (f, w) = decode_f16(&g, feature, weights);
            conv2d(&g, &f, &w, None)
        }
    }
}

/// The original tap-at-a-time implementation — slow, obviously
/// correct, and the oracle [`compute`] is differentially tested
/// against (bit-identical output required).
///
/// # Panics
///
/// Panics if the buffers are smaller than the descriptor implies.
#[must_use]
pub fn compute_reference(desc: &ConvDesc, feature: &[u8], weights: &[u8]) -> Vec<f32> {
    let g = desc.geom();
    match desc.precision {
        Precision::Int8 => {
            let (f, w) = int8_operands(&g, feature, weights);
            let acc_scale = desc.in_scale * desc.wt_scale;
            reference_int8(&g, f, w)
                .into_iter()
                .map(|acc| acc as f32 * acc_scale)
                .collect()
        }
        Precision::Fp16 => {
            let (f, w) = decode_f16(&g, feature, weights);
            conv2d_naive(&g, &f, &w, None)
        }
    }
}

/// The INT8 feature and weight bytes the geometry covers.
fn int8_operands<'a>(g: &ConvGeom, feature: &'a [u8], weights: &'a [u8]) -> (&'a [u8], &'a [u8]) {
    assert!(feature.len() >= g.in_elems(), "feature buffer too small");
    assert!(weights.len() >= g.wt_elems(), "weight buffer too small");
    (&feature[..g.in_elems()], &weights[..g.wt_elems()])
}

fn decode_f16(g: &ConvGeom, feature: &[u8], weights: &[u8]) -> (Vec<f32>, Vec<f32>) {
    assert!(
        feature.len() >= g.in_elems() * 2,
        "feature buffer too small"
    );
    assert!(weights.len() >= g.wt_elems() * 2, "weight buffer too small");
    let decode = |bytes: &[u8]| {
        bytes
            .chunks_exact(2)
            .map(|p| F16::from_bits(u16::from_le_bytes([p[0], p[1]])).to_f32())
            .collect()
    };
    (
        decode(&feature[..g.in_elems() * 2]),
        decode(&weights[..g.wt_elems() * 2]),
    )
}

/// Output channels reduced against one gathered patch at a time.
const ROWS: usize = 4;

/// INT8 convolution over operands widened to `i16`, whose products the
/// compiler can form pairwise (`pmaddwd`) without leaving `i32`.
///
/// For each `(group, oy, ox)` the input window is gathered once into
/// `patch`, laid out exactly like an OIHW weight row with the padding
/// taps left zero (adding an integer zero is exact), and every block
/// of [`ROWS`] output channels of the group reduces that same patch
/// against its weight rows.
fn conv_int8(g: &ConvGeom, feature: &[i16], weights: &[i16]) -> Vec<i32> {
    let (ipg, opg, taps) = (g.in_per_group(), g.out_per_group(), g.taps());
    let (in_plane, out_plane) = (g.in_h * g.in_w, g.out_h * g.out_w);
    let mut out = vec![0i32; g.out_elems()];
    let mut patch = vec![0i16; taps];
    for group in 0..g.groups {
        let planes = &feature[group * ipg * in_plane..][..ipg * in_plane];
        let group_rows = &weights[group * opg * taps..][..opg * taps];
        for oy in 0..g.out_h {
            let kys = g.taps_inside(oy, g.in_h, g.kh);
            for ox in 0..g.out_w {
                let kxs = g.taps_inside(ox, g.in_w, g.kw);
                if kys.len() * kxs.len() < g.kh * g.kw {
                    patch.fill(0);
                }
                if !kxs.is_empty() {
                    let ix0 = ox * g.stride + kxs.start - g.pad;
                    for (ic, plane) in planes.chunks_exact(in_plane).enumerate() {
                        for ky in kys.clone() {
                            let iy = oy * g.stride + ky - g.pad;
                            patch[(ic * g.kh + ky) * g.kw + kxs.start..][..kxs.len()]
                                .copy_from_slice(&plane[iy * g.in_w + ix0..][..kxs.len()]);
                        }
                    }
                }
                let at = group * opg * out_plane + oy * g.out_w + ox;
                for (block, rows) in group_rows.chunks(ROWS * taps).enumerate() {
                    let sums = dot_rows(&patch, rows);
                    for (j, sum) in sums.into_iter().take(rows.len() / taps).enumerate() {
                        out[at + (block * ROWS + j) * out_plane] = sum;
                    }
                }
            }
        }
    }
    out
}

/// Dot products of `patch` with each of the (up to [`ROWS`]) weight
/// rows packed in `rows`; a missing row repeats the last one. Integer
/// addition is associative, so the compiler may vectorize each
/// reduction — int8 products cannot overflow a realistic `i32` sum.
fn dot_rows(patch: &[i16], rows: &[i16]) -> [i32; ROWS] {
    let n = patch.len();
    let last = rows.len() / n - 1;
    let rows: [&[i16]; ROWS] = std::array::from_fn(|j| &rows[j.min(last) * n..][..n]);
    let mut sums = [0i32; ROWS];
    for (i, &p) in patch.iter().enumerate() {
        for (sum, row) in sums.iter_mut().zip(rows) {
            *sum += i32::from(p) * i32::from(row[i]);
        }
    }
    sums
}

fn reference_int8(g: &ConvGeom, feature: &[u8], weights: &[u8]) -> Vec<i32> {
    let (ipg, opg) = (g.in_per_group(), g.out_per_group());
    let mut out = Vec::with_capacity(g.out_elems());
    for oc in 0..g.out_c {
        let in_base = oc / opg * ipg;
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let mut acc: i32 = 0;
                for ic in 0..ipg {
                    for ky in 0..g.kh {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.in_h {
                            continue;
                        }
                        for kx in 0..g.kw {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix < 0 || ix as usize >= g.in_w {
                                continue;
                            }
                            let f = feature
                                [((in_base + ic) * g.in_h + iy as usize) * g.in_w + ix as usize];
                            let w = weights[((oc * ipg + ic) * g.kh + ky) * g.kw + kx];
                            acc += i32::from(f as i8) * i32::from(w as i8);
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;

    #[allow(clippy::too_many_arguments)]
    fn desc(
        in_c: u32,
        in_hw: u32,
        out_c: u32,
        k: u32,
        stride: u32,
        pad: u32,
        groups: u32,
        precision: Precision,
    ) -> ConvDesc {
        let out_hw = (in_hw + 2 * pad - k) / stride + 1;
        ConvDesc {
            in_w: in_hw,
            in_h: in_hw,
            in_c,
            wt_bytes: out_c * (in_c / groups) * k * k * precision.bytes(),
            stride,
            pad,
            out_w: out_hw,
            out_h: out_hw,
            out_c,
            kw: k,
            kh: k,
            groups,
            in_scale: 1.0,
            wt_scale: 1.0,
            precision,
            ..ConvDesc::default()
        }
    }

    #[test]
    fn int8_sum_window() {
        // 3x3 input 1..9, 2x2 kernel of ones.
        let d = desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8);
        let feature: Vec<u8> = (1..=9i8).map(|v| v as u8).collect();
        let weights = vec![1u8; 4];
        let out = compute(&d, &feature, &weights);
        assert_eq!(out, vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn int8_scales_applied() {
        let mut d = desc(1, 1, 1, 1, 1, 0, 1, Precision::Int8);
        d.in_scale = 0.5;
        d.wt_scale = 0.25;
        let out = compute(&d, &[4i8 as u8], &[8i8 as u8]);
        // 4*8 = 32 raw; × 0.5×0.25 = 4.0 real.
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn padding_zeros_contribute_nothing() {
        let d = desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8);
        let out = compute(&d, &[5i8 as u8], &[1u8; 9]);
        // Only the center tap sees data.
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn grouped_convolution_separates_channels() {
        // 2 channels, 2 groups, 1x1 kernels [2] and [3].
        let d = desc(2, 2, 2, 1, 1, 0, 2, Precision::Int8);
        let feature = [1u8, 1, 1, 1, 1, 1, 1, 1];
        let weights = [2u8, 3];
        let out = compute(&d, &feature, &weights);
        assert_eq!(&out[..4], &[2.0; 4]);
        assert_eq!(&out[4..], &[3.0; 4]);
    }

    #[test]
    fn negative_int8_values() {
        let d = desc(1, 1, 1, 1, 1, 0, 1, Precision::Int8);
        let out = compute(&d, &[(-5i8) as u8], &[3u8]);
        assert_eq!(out, vec![-15.0]);
    }

    #[test]
    fn fp16_matches_f32_within_tolerance() {
        let d = desc(2, 4, 3, 3, 1, 1, 1, Precision::Fp16);
        // Build f16 buffers from a known pattern.
        let fvals: Vec<f32> = (0..2 * 4 * 4).map(|i| (i as f32 * 0.125) - 1.0).collect();
        let wvals: Vec<f32> = (0..3 * 2 * 9)
            .map(|i| ((i % 7) as f32 - 3.0) * 0.0625)
            .collect();
        let fbytes = super::super::from_real(&fvals, Precision::Fp16, 1.0);
        let wbytes = super::super::from_real(&wvals, Precision::Fp16, 1.0);
        let out = compute(&d, &fbytes, &wbytes);
        let slow = compute_reference(&d, &fbytes, &wbytes);
        assert_eq!(out.len(), 3 * 4 * 4);
        for (a, b) in out.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        // Spot check one output by direct f32 summation (the values
        // are exactly representable in f16).
        let mut expect = 0.0f32;
        for ic in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let iy = 1 + ky as isize - 1;
                    let ix = 1 + kx as isize - 1;
                    if iy < 0 || ix < 0 || iy > 3 || ix > 3 {
                        continue;
                    }
                    expect += fvals[ic * 16 + iy as usize * 4 + ix as usize]
                        * wvals[ic * 9 + ky * 3 + kx];
                }
            }
        }
        assert!((out[5] - expect).abs() < 1e-3, "{} vs {expect}", out[5]);
    }

    #[test]
    fn stride_subsamples() {
        let d = desc(1, 4, 1, 2, 2, 0, 1, Precision::Int8);
        let feature: Vec<u8> = (0..16i8).map(|v| v as u8).collect();
        let weights = [1u8, 0, 0, 0]; // picks top-left of each window
        let out = compute(&d, &feature, &weights);
        assert_eq!(out, vec![0.0, 2.0, 8.0, 10.0]);
    }

    /// Pseudo-random byte pattern over the shared SplitMix64 core.
    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        let mut rng = rvnv_util::SplitMix64::new(u64::from(seed));
        (0..len).map(|_| (rng.next_u64() >> 16) as u8).collect()
    }

    /// Replace f16 NaN encodings with max-normal values. A NaN *input*
    /// is the one case where IEEE leaves the result underdetermined
    /// (which operand's payload survives `NaN*NaN` is implementation-
    /// defined, and the compiler may commute `fmul`), and encoded
    /// model data never contains NaNs — `from_real` rounds finite
    /// reals. Everything else, including infinities and the canonical
    /// NaNs born from `inf*0`/`inf-inf`, is deterministic.
    fn strip_f16_nans(bytes: &mut [u8]) {
        for p in bytes.chunks_exact_mut(2) {
            let v = u16::from_le_bytes([p[0], p[1]]);
            if v & 0x7C00 == 0x7C00 && v & 0x03FF != 0 {
                let clean = (v & 0x8000) | 0x7BFF; // ±max normal
                p.copy_from_slice(&clean.to_le_bytes());
            }
        }
    }

    /// The blocked path must match the naive reference *bit for bit* —
    /// including fp16, where the summation order is the contract —
    /// across shapes that cover padding, stride, grouping and windows
    /// fully clipped off every edge.
    #[test]
    fn blocked_matches_reference_bit_exact() {
        let shapes = [
            desc(1, 3, 1, 2, 1, 0, 1, Precision::Int8),
            desc(3, 8, 4, 3, 1, 1, 1, Precision::Int8),
            desc(4, 7, 6, 5, 2, 2, 2, Precision::Int8),
            desc(1, 1, 1, 3, 1, 1, 1, Precision::Int8), // pad > data
            desc(2, 5, 2, 5, 1, 4, 1, Precision::Int8), // windows clip all edges
            desc(8, 4, 8, 1, 1, 0, 8, Precision::Int8), // depthwise
            desc(3, 8, 4, 3, 1, 1, 1, Precision::Fp16),
            desc(4, 6, 6, 5, 2, 2, 2, Precision::Fp16),
            desc(2, 5, 2, 5, 1, 4, 1, Precision::Fp16),
        ];
        let both = |d: ConvDesc| {
            let fp16 = ConvDesc {
                precision: Precision::Fp16,
                wt_bytes: d.wt_bytes * 2,
                ..d.clone()
            };
            [d, fp16]
        };
        let shapes = shapes.into_iter().chain(
            [
                desc(16, 14, 24, 1, 1, 0, 1, Precision::Int8), // pointwise
                desc(3, 9, 4, 3, 2, 1, 1, Precision::Int8),    // stride 2, pad, odd width
                desc(5, 7, 1, 3, 1, 1, 1, Precision::Int8),    // channels off the block
                desc(5, 7, 3, 3, 2, 1, 1, Precision::Int8),
                desc(4, 6, 10, 3, 1, 0, 2, Precision::Int8), // 5 per group
                desc(4, 6, 12, 3, 1, 0, 2, Precision::Int8), // 6 per group
                desc(16, 5, 10, 5, 1, 0, 1, Precision::Int8), // fc-style, out_w == 1
                desc(2, 4, 9, 3, 3, 4, 1, Precision::Int8),  // pad beyond the kernel
                desc(6, 5, 6, 3, 1, 1, 6, Precision::Int8),  // depthwise 3x3
            ]
            .into_iter()
            .flat_map(both),
        );
        for (i, mut d) in shapes.enumerate() {
            d.in_scale = 0.031;
            d.wt_scale = 0.27;
            let elem = d.precision.bytes() as usize;
            let mut feature = pattern(
                (d.in_c * d.in_h * d.in_w) as usize * elem,
                0xC0FE + i as u32,
            );
            let mut weights = pattern(d.wt_bytes as usize, 0xBEEF + i as u32);
            if d.precision == Precision::Fp16 {
                strip_f16_nans(&mut feature);
                strip_f16_nans(&mut weights);
            }
            let fast = compute(&d, &feature, &weights);
            let slow = compute_reference(&d, &feature, &weights);
            assert_eq!(fast.len(), slow.len(), "shape {i}");
            for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "shape {i} output {j}: {a} vs {b}");
            }
        }
    }
}
