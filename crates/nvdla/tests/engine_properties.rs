//! Property-based tests on the NVDLA engine kernels.

use proptest::prelude::*;

use rvnv_nvdla::config::Precision;
use rvnv_nvdla::descriptor::{ConvDesc, PdpDesc, PoolKind, SdpDesc, SdpSrc};
use rvnv_nvdla::engines::{conv, pdp, sdp};
use rvnv_nvdla::regs;

fn conv_desc(in_c: u32, hw: u32, out_c: u32, k: u32) -> ConvDesc {
    ConvDesc {
        in_w: hw,
        in_h: hw,
        in_c,
        wt_bytes: out_c * in_c * k * k,
        stride: 1,
        out_w: hw - k + 1,
        out_h: hw - k + 1,
        out_c,
        kw: k,
        kh: k,
        groups: 1,
        in_scale: 1.0,
        wt_scale: 1.0,
        ..ConvDesc::default()
    }
}

proptest! {
    /// Zero weights always give a zero accumulator.
    #[test]
    fn conv_zero_weights_zero_output(
        feature in proptest::collection::vec(any::<u8>(), 2 * 6 * 6..=2 * 6 * 6)
    ) {
        let d = conv_desc(2, 6, 3, 3);
        let weights = vec![0u8; (d.wt_bytes) as usize];
        let out = conv::compute(&d, &feature, &weights);
        prop_assert!(out.iter().all(|&v| v == 0.0));
    }

    /// INT8 accumulators are bounded by taps × 127².
    #[test]
    fn conv_accumulator_bounded(
        feature in proptest::collection::vec(any::<u8>(), 2 * 6 * 6..=2 * 6 * 6),
        weights in proptest::collection::vec(any::<u8>(), 3 * 2 * 9..=3 * 2 * 9),
    ) {
        let d = conv_desc(2, 6, 3, 3);
        let out = conv::compute(&d, &feature, &weights);
        let bound = (2 * 9) as f32 * 128.0 * 128.0;
        prop_assert!(out.iter().all(|v| v.abs() <= bound));
    }

    /// Convolution is linear in the input: int8 features doubled (within
    /// range) double the accumulator.
    #[test]
    fn conv_is_linear_in_input(
        small in proptest::collection::vec(-40i8..=40, 5 * 5..=5 * 5),
        weights in proptest::collection::vec(any::<u8>(), 2 * 9..=2 * 9),
    ) {
        let d = conv_desc(1, 5, 2, 3);
        let f1: Vec<u8> = small.iter().map(|&v| v as u8).collect();
        let f2: Vec<u8> = small.iter().map(|&v| (v * 2) as u8).collect();
        let a = conv::compute(&d, &f1, &weights);
        let b = conv::compute(&d, &f2, &weights);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((y - 2.0 * x).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Max pooling output values always come from the input set and
    /// dominate average pooling.
    #[test]
    fn max_pool_dominates_avg_pool(
        src in proptest::collection::vec(any::<u8>(), 16..=16)
    ) {
        let mk = |kind| PdpDesc {
            in_w: 4,
            in_h: 4,
            c: 1,
            kind,
            k: 2,
            stride: 2,
            out_w: 2,
            out_h: 2,
            ..PdpDesc::default()
        };
        let max_out = pdp::compute(&mk(PoolKind::Max), &src);
        let avg_out = pdp::compute(&mk(PoolKind::Avg), &src);
        let inputs: std::collections::BTreeSet<i8> =
            src.iter().map(|&b| b as i8).collect();
        for (m, a) in max_out.iter().zip(&avg_out) {
            prop_assert!(inputs.contains(&(*m as i8)), "max from input set");
            prop_assert!((*m as i8) >= (*a as i8) - 1, "max >= avg (rounding slack)");
        }
    }

    /// ReLU output is non-negative and idempotent.
    #[test]
    fn sdp_relu_non_negative_and_idempotent(
        vals in proptest::collection::vec(-100.0f32..100.0, 1..64)
    ) {
        let d = SdpDesc {
            w: vals.len() as u32,
            h: 1,
            c: 1,
            flags: regs::SDP_FLAG_RELU,
            out_scale: 1.0,
            precision: Precision::Fp16,
            ..SdpDesc::default()
        };
        let once = sdp::apply(&d, vals.clone(), &[], &[]);
        let once_vals = rvnv_nvdla::engines::to_real(&once, Precision::Fp16, 1.0);
        prop_assert!(once_vals.iter().all(|&v| v >= 0.0));
        let twice = sdp::apply(&d, once_vals.clone(), &[], &[]);
        prop_assert_eq!(once, twice, "relu is idempotent");
    }

    /// Eltwise addition commutes.
    #[test]
    fn sdp_eltwise_commutes(
        a in proptest::collection::vec(-10.0f32..10.0, 8..=8),
        b in proptest::collection::vec(-10.0f32..10.0, 8..=8),
    ) {
        let d = SdpDesc {
            src_mode: SdpSrc::Memory,
            w: 8,
            h: 1,
            c: 1,
            flags: regs::SDP_FLAG_ELTWISE,
            out_scale: 1.0,
            precision: Precision::Fp16,
            ..SdpDesc::default()
        };
        // The second source is packed FP16: round both to FP16 first.
        let pack = |v: &[f32]| rvnv_nvdla::engines::from_real(v, Precision::Fp16, 1.0);
        let round = |v: &[f32]| rvnv_nvdla::engines::to_real(&pack(v), Precision::Fp16, 1.0);
        let (a, b) = (round(&a), round(&b));
        let ab = sdp::apply(&d, a.clone(), &[], &pack(&b));
        let ba = sdp::apply(&d, b.clone(), &[], &pack(&a));
        prop_assert_eq!(ab, ba);
    }
}
