//! The f32 convolution kernel, shared by the golden [`Executor`] and
//! (after f16 decode) the NVDLA model's FP16 engine path.
//!
//! f32 addition is not associative, so the *sequence* of adds into one
//! output is part of the contract: every output starts from its bias
//! (or `0.0`) and takes its taps in `(ic, ky, kx)` order, and a tap
//! that falls into the padding is skipped, never added as zero (adding
//! `0.0` could flip a `-0.0` partial sum to `+0.0`). [`conv2d`] keeps
//! that sequence exactly and gets its speed from one rule: **SIMD/ILP
//! lanes run across independent outputs, never along one output's tap
//! reduction**. [`conv2d_naive`] is the tap-at-a-time loop it must
//! match bit for bit. The one exception is NaN *inputs*, whose payload
//! propagation IEEE 754 (and the compiler) leaves underdetermined —
//! model data never contains them.
//!
//! [`Executor`]: crate::exec::Executor

use std::ops::Range;

/// Shape of one 2-D convolution: NCHW input, OIHW weights (the `I` is
/// per group), NCHW output, same stride and zero padding in both
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels (all groups).
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (all groups).
    pub out_c: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
    /// Group count; divides `in_c` and `out_c`.
    pub groups: usize,
}

impl ConvGeom {
    /// Input channels each output channel reads.
    #[must_use]
    pub fn in_per_group(&self) -> usize {
        self.in_c / self.groups
    }

    /// Output channels that share one group's input channels.
    #[must_use]
    pub fn out_per_group(&self) -> usize {
        self.out_c / self.groups
    }

    /// Weights (= taps, padding included) of one output channel.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.in_per_group() * self.kh * self.kw
    }

    /// Elements of the input tensor.
    #[must_use]
    pub fn in_elems(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Elements of the weight tensor.
    #[must_use]
    pub fn wt_elems(&self) -> usize {
        self.out_c * self.taps()
    }

    /// Elements of the output tensor.
    #[must_use]
    pub fn out_elems(&self) -> usize {
        self.out_c * self.out_h * self.out_w
    }

    /// Kernel taps `k` of output position `o` that land inside an
    /// input axis of `in_len` (`o * stride + k - pad` in `0..in_len`).
    #[must_use]
    pub fn taps_inside(&self, o: usize, in_len: usize, k_len: usize) -> Range<usize> {
        let first = o * self.stride;
        let end = (in_len + self.pad).saturating_sub(first).min(k_len);
        self.pad.saturating_sub(first).min(end)..end
    }

    fn check(&self, x: &[f32], w: &[f32], bias: Option<&[f32]>) {
        assert!(x.len() >= self.in_elems(), "input buffer too small");
        assert!(w.len() >= self.wt_elems(), "weight buffer too small");
        assert!(
            bias.is_none_or(|b| b.len() >= self.out_c),
            "bias buffer too small"
        );
    }

    /// A pointwise convolution (1×1, stride 1, no padding) maps plane
    /// offset to plane offset, so where a plane is cut into rows is
    /// arbitrary: take it as one long row and let the tiling cut it.
    fn with_planes_as_rows(mut self) -> Self {
        if (self.kh, self.kw, self.stride, self.pad) == (1, 1, 1, 0) {
            self.in_w *= self.in_h;
            self.in_h = 1;
            (self.out_h, self.out_w) = (self.in_h, self.in_w);
        }
        self
    }
}

/// Output channels accumulated side by side: the lanes.
const LANES: usize = 16;

/// Outputs of one row accumulated at a time; their accumulators
/// (`LANES` f32 each, 16 KB) stay in L1 beside the input row. They are
/// on the stack so that the output is the kernel's only allocation: a
/// small scratch buffer freed after it would sit in the allocator's
/// thread cache above every activation of a golden pass and keep the
/// whole pass resident once dropped (100 MB of ResNet-50's peak RSS).
const TILE: usize = 256;

/// Convolve `x` with `w`, each output starting from its `bias` (or
/// `0.0`), in exactly the add sequence of [`conv2d_naive`].
///
/// Per tile of an output row, 16 output channels (`LANES`) are accumulated
/// side by side: tap by tap, each output of the tile whose window holds
/// the tap takes it into all its lanes at once, so every add chain is
/// one output's own and no chain waits on another.
///
/// # Panics
///
/// Panics if a buffer is smaller than the geometry implies.
#[must_use]
pub fn conv2d(g: &ConvGeom, x: &[f32], w: &[f32], bias: Option<&[f32]>) -> Vec<f32> {
    g.check(x, w, bias);
    let g = g.with_planes_as_rows();
    let (ipg, opg, taps) = (g.in_per_group(), g.out_per_group(), g.taps());
    let (in_plane, out_plane) = (g.in_h * g.in_w, g.out_h * g.out_w);
    let mut out = vec![0.0f32; g.out_elems()];
    let mut acc = [[0.0f32; LANES]; TILE];
    for (oy, ox0) in
        (0..g.out_h).flat_map(|oy| (0..g.out_w).step_by(TILE).map(move |ox0| (oy, ox0)))
    {
        let kys = g.taps_inside(oy, g.in_h, g.kh);
        let tile = ox0..g.out_w.min(ox0 + TILE);
        let acc = &mut acc[..tile.len()];
        for group in 0..g.groups {
            let group_end = (group + 1) * opg;
            for oc0 in (group * opg..group_end).step_by(LANES) {
                // A block stops at its group's last channel; the idle
                // lanes repeat that channel and are never stored.
                let live = LANES.min(group_end - oc0);
                let lane_oc: [usize; LANES] = std::array::from_fn(|j| oc0 + j.min(live - 1));
                let rows = lane_oc.map(|oc| &w[oc * taps..][..taps]);
                acc.fill(lane_oc.map(|oc| bias.map_or(0.0, |b| b[oc])));
                for ic in 0..ipg {
                    let plane = &x[(group * ipg + ic) * in_plane..][..in_plane];
                    for ky in kys.clone() {
                        let in_row = &plane[(oy * g.stride + ky - g.pad) * g.in_w..][..g.in_w];
                        for kx in 0..g.kw {
                            let wv = rows.map(|r| r[(ic * g.kh + ky) * g.kw + kx]);
                            for (a, ox) in acc.iter_mut().zip(tile.clone()) {
                                // Left of the row wraps to a huge index:
                                // outside it, like right of the row.
                                let ix = (ox * g.stride + kx).wrapping_sub(g.pad);
                                let Some(&xv) = in_row.get(ix) else {
                                    continue;
                                };
                                for (a, wj) in a.iter_mut().zip(wv) {
                                    *a += xv * wj;
                                }
                            }
                        }
                    }
                }
                for (j, &oc) in lane_oc[..live].iter().enumerate() {
                    let out_tile = &mut out[oc * out_plane + oy * g.out_w + ox0..][..tile.len()];
                    for (o, a) in out_tile.iter_mut().zip(&*acc) {
                        *o = a[j];
                    }
                }
            }
        }
    }
    out
}

/// The tap-at-a-time loop: slow, obviously correct, and the oracle
/// [`conv2d`] is differentially tested against (bit-identical output
/// required).
///
/// # Panics
///
/// Panics if a buffer is smaller than the geometry implies.
#[must_use]
pub fn conv2d_naive(g: &ConvGeom, x: &[f32], w: &[f32], bias: Option<&[f32]>) -> Vec<f32> {
    g.check(x, w, bias);
    let (ipg, opg) = (g.in_per_group(), g.out_per_group());
    let mut out = Vec::with_capacity(g.out_elems());
    for oc in 0..g.out_c {
        let in_base = oc / opg * ipg;
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let mut acc = bias.map_or(0.0, |b| b[oc]);
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
                            acc += x
                                [((in_base + ic) * g.in_h + iy as usize) * g.in_w + ix as usize]
                                * w[((oc * ipg + ic) * g.kh + ky) * g.kw + kx];
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
    use rvnv_util::SplitMix64;

    fn square(
        in_c: usize,
        in_hw: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> ConvGeom {
        let out_hw = (in_hw + 2 * pad - k) / stride + 1;
        ConvGeom {
            in_c,
            in_h: in_hw,
            in_w: in_hw,
            out_c,
            out_h: out_hw,
            out_w: out_hw,
            kh: k,
            kw: k,
            stride,
            pad,
            groups,
        }
    }

    fn values(len: usize, seed: u64) -> Vec<f32> {
        rvnv_fuzz::conv::real_values(&mut SplitMix64::new(seed), len)
    }

    #[test]
    fn ranges_agree_with_the_tap_by_tap_test() {
        for (stride, pad, in_len, k_len) in [
            (1, 0, 5, 3),
            (1, 1, 4, 3),
            (2, 3, 7, 7),
            (3, 1, 1, 3),
            (1, 4, 2, 5),
            (2, 0, 9, 1),
        ] {
            let g = ConvGeom {
                stride,
                pad,
                ..square(1, 1, 1, 1, 1, 0, 1)
            };
            let out_len = (in_len + 2 * pad - k_len) / stride + 1;
            let inside = |o: usize, k: usize| (pad..pad + in_len).contains(&(o * stride + k));
            for o in 0..out_len {
                let want: Vec<usize> = (0..k_len).filter(|&k| inside(o, k)).collect();
                assert_eq!(g.taps_inside(o, in_len, k_len).collect::<Vec<_>>(), want);
            }
        }
    }

    /// The kernel against the tap-at-a-time loop, bit for bit, with a
    /// bias and without: pointwise (planes as rows, cut by the tile),
    /// rows wider than a tile, strides, padding past the kernel, windows
    /// clipped on every edge, one-wide outputs, channel counts off the
    /// lane block, grouped and depthwise.
    #[test]
    fn kernel_matches_naive_bit_for_bit() {
        let shapes = [
            square(16, 8, 24, 1, 1, 0, 1),
            square(5, 56, 3, 1, 1, 0, 1),
            ConvGeom {
                in_w: 2 * TILE + 44,
                out_w: 2 * TILE + 44,
                ..square(2, 3, 17, 3, 1, 1, 1)
            },
            square(3, 9, 4, 3, 2, 1, 1),
            square(3, 8, 5, 3, 1, 1, 1),
            square(4, 7, 6, 5, 2, 2, 2),
            square(1, 1, 1, 3, 1, 1, 1),
            square(2, 5, 2, 5, 1, 4, 1),
            square(2, 4, 9, 3, 3, 4, 1),
            square(16, 5, 10, 5, 1, 0, 1),
            square(6, 4, 6, 3, 1, 1, 6),
            square(6, 6, 18, 3, 2, 1, 3),
            square(4, 6, 1, 1, 2, 0, 1),
        ];
        for (i, g) in shapes.iter().enumerate() {
            let x = values(g.in_elems(), 0xC0FE + i as u64);
            let w = values(g.wt_elems(), 0xBEEF + i as u64);
            let bias = values(g.out_c, 0xB1A5 + i as u64);
            for bias in [None, Some(&bias[..])] {
                let fast = conv2d(g, &x, &w, bias);
                let slow = conv2d_naive(g, &x, &w, bias);
                assert_eq!(fast.len(), slow.len(), "shape {i}");
                for (j, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "shape {i} output {j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight buffer too small")]
    fn short_buffers_are_refused() {
        let g = square(2, 4, 2, 3, 1, 1, 1);
        let _ = conv2d(&g, &vec![0.0; g.in_elems()], &[0.0; 3], None);
    }
}
