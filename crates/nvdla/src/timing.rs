//! Engine timing model.
//!
//! Compute cycles follow the MAC-array dataflow: every cycle the CMAC
//! array consumes `atomic_c` input channels for `atomic_k` kernels at
//! one kernel tap, so a convolution needs
//! `out_h × out_w × kh × kw × ceil(in_c/atomic_c) × ceil(out_c/atomic_k)`
//! cycles per group. This is what makes shallow-channel layers (LeNet's
//! 1-channel input, depthwise convolutions) far less efficient than the
//! raw MAC count suggests — the behaviour responsible for the shape of
//! the paper's Tables II/III.

use crate::config::HwConfig;
use crate::descriptor::{CdpDesc, ConvDesc, PdpDesc, SdpDesc};

/// Compute cycles for one convolution (excluding DMA, which is timed by
/// the DBB transactions themselves).
#[must_use]
pub fn conv_cycles(cfg: &HwConfig, d: &ConvDesc) -> u64 {
    let in_per_group = (d.in_c / d.groups).max(1);
    let out_per_group = (d.out_c / d.groups).max(1);
    let c_steps = u64::from(in_per_group.div_ceil(cfg.atomic_c));
    let k_steps = u64::from(out_per_group.div_ceil(cfg.atomic_k));
    let taps = u64::from(d.kh) * u64::from(d.kw);
    let pixels = u64::from(d.out_h) * u64::from(d.out_w);
    let per_group = pixels * taps * c_steps * k_steps;
    per_group * u64::from(d.groups) + cfg.op_latency
}

/// Number of weight passes forced by the convolution buffer: weights
/// stream through half of CBUF (the other half holds feature data), so
/// oversized kernels are re-fetched per pass along with the feature
/// tile.
#[must_use]
pub fn cbuf_passes(cfg: &HwConfig, weight_bytes: u32) -> u32 {
    let half = cfg.cbuf_kib * 1024 / 2;
    weight_bytes.div_ceil(half).max(1)
}

/// Compute cycles for an SDP surface.
#[must_use]
pub fn sdp_cycles(cfg: &HwConfig, d: &SdpDesc) -> u64 {
    (d.elems() as u64).div_ceil(u64::from(cfg.pp_throughput)) + cfg.op_latency
}

/// Compute cycles for a pooling operation.
#[must_use]
pub fn pdp_cycles(cfg: &HwConfig, d: &PdpDesc) -> u64 {
    let window = u64::from(d.k) * u64::from(d.k);
    (d.out_elems() as u64 * window).div_ceil(u64::from(cfg.pp_throughput)) + cfg.op_latency
}

/// Compute cycles for an LRN operation.
#[must_use]
pub fn cdp_cycles(cfg: &HwConfig, d: &CdpDesc) -> u64 {
    (d.elems() as u64 * u64::from(d.local_size)).div_ceil(u64::from(cfg.pp_throughput))
        + cfg.op_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;

    fn conv_desc(in_c: u32, out_c: u32, hw: u32, k: u32, groups: u32) -> ConvDesc {
        ConvDesc {
            in_w: hw,
            in_h: hw,
            in_c,
            wt_bytes: out_c * (in_c / groups) * k * k,
            stride: 1,
            out_w: hw - k + 1,
            out_h: hw - k + 1,
            out_c,
            kw: k,
            kh: k,
            groups,
            ..ConvDesc::default()
        }
    }

    #[test]
    fn full_channels_hit_peak_rate() {
        let cfg = HwConfig::nv_small();
        // 8 in, 8 out exactly fills the 8x8 array: 1 MAC-cycle per tap.
        let d = conv_desc(8, 8, 10, 3, 1);
        let cycles = conv_cycles(&cfg, &d) - cfg.op_latency;
        assert_eq!(cycles, 8 * 8 * 9);
        // Equals MACs / peak MACs.
        assert_eq!(cycles, d.macs() / u64::from(cfg.macs(Precision::Int8)));
    }

    #[test]
    fn shallow_input_wastes_lanes() {
        let cfg = HwConfig::nv_small();
        // 1 input channel still occupies a full atomic-C slot.
        let d = conv_desc(1, 8, 10, 3, 1);
        let cycles = conv_cycles(&cfg, &d) - cfg.op_latency;
        let ideal = d.macs() / u64::from(cfg.macs(Precision::Int8));
        assert_eq!(cycles, 8 * 8 * 9);
        assert_eq!(cycles, ideal * 8, "1/8 utilization on 1-channel input");
    }

    #[test]
    fn depthwise_is_inefficient() {
        let cfg = HwConfig::nv_full();
        // Depthwise 64 channels: each group uses 1 of 64 lanes.
        let dw = conv_desc(64, 64, 16, 3, 64);
        let dense = conv_desc(64, 64, 16, 3, 1);
        // Per-group utilization is 1/(atomic_c) on the C axis and
        // 1/atomic_k on the K axis; expect a >25x penalty on the MAC
        // time itself (the fixed op latency is common to both).
        let dw_macs = conv_cycles(&cfg, &dw) - cfg.op_latency;
        let dense_macs = conv_cycles(&cfg, &dense) - cfg.op_latency;
        assert!(dw_macs > dense_macs * 25, "{dw_macs} vs {dense_macs}");
    }

    #[test]
    fn nv_full_is_faster_than_nv_small() {
        let small = HwConfig::nv_small();
        let full = HwConfig::nv_full();
        let d = conv_desc(64, 64, 32, 3, 1);
        let t_small = conv_cycles(&small, &d);
        let t_full = conv_cycles(&full, &d);
        assert!(
            t_small > t_full * 10,
            "small {t_small} vs full {t_full}: expect >10x"
        );
    }

    #[test]
    fn cbuf_passes_scale_with_weight_size() {
        let cfg = HwConfig::nv_small(); // 64 KiB half-buffer
        assert_eq!(cbuf_passes(&cfg, 0), 1);
        assert_eq!(cbuf_passes(&cfg, 64 * 1024), 1);
        assert_eq!(cbuf_passes(&cfg, 64 * 1024 + 1), 2);
        assert_eq!(cbuf_passes(&cfg, 400 * 1024), 7);
    }

    #[test]
    fn post_processor_throughput_divides() {
        let small = HwConfig::nv_small();
        let full = HwConfig::nv_full();
        let d = SdpDesc {
            w: 32,
            h: 32,
            c: 16,
            ..SdpDesc::default()
        };
        let ts = sdp_cycles(&small, &d) - small.op_latency;
        let tf = sdp_cycles(&full, &d) - full.op_latency;
        assert_eq!(ts, 16 * 32 * 32);
        assert_eq!(tf, 16 * 32 * 32 / 16);
    }
}
