//! Planar data processor (PDP): max/average pooling.
//!
//! Operates directly on the packed DRAM format. INT8 max pooling is
//! exact; INT8 average pooling accumulates in i32 and rounds once,
//! matching the RTL's wide adder tree. Average semantics follow Caffe
//! (divide by k², zero padding included), like the compiler expects.

use crate::config::Precision;
use crate::descriptor::{PdpDesc, PoolKind};
use rvnv_nn::F16;

/// Pool a packed surface; returns the packed output.
///
/// # Panics
///
/// Panics if `src` is smaller than the descriptor implies.
#[must_use]
pub fn compute(desc: &PdpDesc, src: &[u8]) -> Vec<u8> {
    match desc.precision {
        Precision::Int8 => compute_int8(desc, src),
        Precision::Fp16 => compute_fp16(desc, src),
    }
}

fn windows(desc: &PdpDesc, mut f: impl FnMut(usize, &[(usize, usize)])) {
    let (in_w, in_h) = (desc.in_w as usize, desc.in_h as usize);
    let (k, stride, pad) = (desc.k as usize, desc.stride as usize, desc.pad as isize);
    let mut taps: Vec<(usize, usize)> = Vec::with_capacity(k * k);
    let mut out_idx = 0usize;
    for _c in 0..desc.c as usize {
        for oy in 0..desc.out_h as usize {
            for ox in 0..desc.out_w as usize {
                taps.clear();
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad;
                    if iy < 0 || iy as usize >= in_h {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad;
                        if ix < 0 || ix as usize >= in_w {
                            continue;
                        }
                        taps.push((iy as usize, ix as usize));
                    }
                }
                f(out_idx, &taps);
                out_idx += 1;
            }
        }
    }
}

fn compute_int8(desc: &PdpDesc, src: &[u8]) -> Vec<u8> {
    let plane = (desc.in_w * desc.in_h) as usize;
    assert!(src.len() >= plane * desc.c as usize, "PDP source too small");
    let out_plane = (desc.out_w * desc.out_h) as usize;
    let mut out = vec![0u8; desc.out_elems()];
    let in_w = desc.in_w as usize;
    let k2 = (desc.k * desc.k) as i32;
    windows(desc, |out_idx, taps| {
        let c = out_idx / out_plane;
        let base = c * plane;
        match desc.kind {
            PoolKind::Max => {
                let mut best = i8::MIN;
                for &(y, x) in taps {
                    best = best.max(src[base + y * in_w + x] as i8);
                }
                // Empty window (all padding) yields 0.
                out[out_idx] = if taps.is_empty() { 0 } else { best as u8 };
            }
            PoolKind::Avg => {
                let mut sum: i32 = 0;
                for &(y, x) in taps {
                    sum += i32::from(src[base + y * in_w + x] as i8);
                }
                // Round-half-away like the RTL divider.
                let v = if sum >= 0 {
                    (sum + k2 / 2) / k2
                } else {
                    (sum - k2 / 2) / k2
                };
                out[out_idx] = v.clamp(-127, 127) as i8 as u8;
            }
        }
    });
    out
}

fn compute_fp16(desc: &PdpDesc, src: &[u8]) -> Vec<u8> {
    let plane = (desc.in_w * desc.in_h) as usize;
    assert!(
        src.len() >= plane * desc.c as usize * 2,
        "PDP source too small"
    );
    let out_plane = (desc.out_w * desc.out_h) as usize;
    let mut out = Vec::with_capacity(desc.out_elems() * 2);
    let in_w = desc.in_w as usize;
    let k2 = (desc.k * desc.k) as f32;
    let at = |i: usize| F16::from_bits(u16::from_le_bytes([src[2 * i], src[2 * i + 1]])).to_f32();
    windows(desc, |out_idx, taps| {
        let c = out_idx / out_plane;
        let base = c * plane;
        let v = match desc.kind {
            PoolKind::Max => taps
                .iter()
                .map(|&(y, x)| at(base + y * in_w + x))
                .fold(f32::NEG_INFINITY, f32::max),
            PoolKind::Avg => {
                let sum: f32 = taps.iter().map(|&(y, x)| at(base + y * in_w + x)).sum();
                sum / k2
            }
        };
        let v = if taps.is_empty() { 0.0 } else { v };
        out.extend_from_slice(&F16::from_f32(v).to_bits().to_le_bytes());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(c: u32, in_hw: u32, k: u32, stride: u32, pad: u32, kind: PoolKind) -> PdpDesc {
        let out_hw = ((in_hw + 2 * pad - k) as usize).div_ceil(stride as usize) as u32 + 1;
        PdpDesc {
            in_w: in_hw,
            in_h: in_hw,
            c,
            kind,
            k,
            stride,
            pad,
            out_w: out_hw,
            out_h: out_hw,
            ..PdpDesc::default()
        }
    }

    #[test]
    fn max_pool_2x2() {
        let d = desc(1, 4, 2, 2, 0, PoolKind::Max);
        let src: Vec<u8> = vec![1, 5, 2, 3, 4, 2, 1, 8, 0, 1, 2, 3, 4, 5, 6, 7];
        let out = compute(&d, &src);
        assert_eq!(out, vec![5, 8, 5, 7]);
    }

    #[test]
    fn max_pool_handles_negatives() {
        let d = desc(1, 2, 2, 2, 0, PoolKind::Max);
        let src = vec![(-5i8) as u8, (-3i8) as u8, (-8i8) as u8, (-4i8) as u8];
        let out = compute(&d, &src);
        assert_eq!(out[0] as i8, -3);
    }

    #[test]
    fn avg_pool_rounds() {
        let d = desc(1, 2, 2, 2, 0, PoolKind::Avg);
        let src = vec![1u8, 2, 3, 4]; // sum 10, /4 = 2.5 -> 3
        let out = compute(&d, &src);
        assert_eq!(out[0] as i8, 3);
    }

    #[test]
    fn global_avg_pool_via_full_kernel() {
        let d = desc(2, 4, 4, 4, 0, PoolKind::Avg);
        assert_eq!((d.out_w, d.out_h), (1, 1));
        let mut src = vec![8u8; 16];
        src.extend(vec![16u8; 16]);
        let out = compute(&d, &src);
        assert_eq!(out[0] as i8, 8);
        assert_eq!(out[1] as i8, 16);
    }

    #[test]
    fn per_channel_independence() {
        let d = desc(2, 2, 2, 2, 0, PoolKind::Max);
        let src = vec![1u8, 2, 3, 4, 10, 20, 30, 40];
        let out = compute(&d, &src);
        assert_eq!(out, vec![4, 40]);
    }

    #[test]
    fn fp16_avg_pool() {
        let mut d = desc(1, 2, 2, 2, 0, PoolKind::Avg);
        d.precision = Precision::Fp16;
        let src = super::super::from_real(&[1.0, 2.0, 3.0, 4.0], Precision::Fp16, 1.0);
        let out = compute(&d, &src);
        let vals = super::super::to_real(&out, Precision::Fp16, 1.0);
        assert_eq!(vals, vec![2.5]);
    }

    #[test]
    fn caffe_ceil_windows_with_padding() {
        // 3x3 input, k=2, stride 2, pad 0 -> Caffe out = ceil(1/2)+1 = 2.
        let d = desc(1, 3, 2, 2, 0, PoolKind::Max);
        assert_eq!((d.out_w, d.out_h), (2, 2));
        let src: Vec<u8> = (1..=9).collect();
        let out = compute(&d, &src);
        // Last column/row windows are partial.
        assert_eq!(out, vec![5, 6, 8, 9]);
    }
}
