//! Property tests on the NVDLA engine kernels: each runs over 256
//! seeds of one SplitMix64 stream, and a failure names its seed and
//! input.

use rvnv_nvdla::config::Precision;
use rvnv_nvdla::descriptor::{ConvDesc, PdpDesc, PoolKind, SdpDesc, SdpSrc};
use rvnv_nvdla::engines::{conv, pdp, sdp};
use rvnv_nvdla::regs;
use rvnv_util::SplitMix64;

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

/// Zero weights always give a zero accumulator.
#[test]
fn conv_zero_weights_zero_output() {
    let d = conv_desc(2, 6, 3, 3);
    let weights = vec![0u8; d.wt_bytes as usize];
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let feature: Vec<u8> = (0..2 * 6 * 6).map(|_| rng.next_u64() as u8).collect();
        let out = conv::compute(&d, &feature, &weights);
        assert!(
            out.iter().all(|&v| v == 0.0),
            "seed {seed}: feature {feature:?}"
        );
    }
}

/// INT8 accumulators are bounded by taps × 127².
#[test]
fn conv_accumulator_bounded() {
    let d = conv_desc(2, 6, 3, 3);
    let bound = (2 * 9) as f32 * 128.0 * 128.0;
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let feature: Vec<u8> = (0..2 * 6 * 6).map(|_| rng.next_u64() as u8).collect();
        let weights: Vec<u8> = (0..3 * 2 * 9).map(|_| rng.next_u64() as u8).collect();
        let out = conv::compute(&d, &feature, &weights);
        assert!(
            out.iter().all(|v| v.abs() <= bound),
            "seed {seed}: feature {feature:?}, weights {weights:?}"
        );
    }
}

/// Convolution is linear in the input: int8 features doubled (within
/// range) double the accumulator.
#[test]
fn conv_is_linear_in_input() {
    let d = conv_desc(1, 5, 2, 3);
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let small: Vec<i8> = (0..5 * 5).map(|_| rng.below(81) as i8 - 40).collect();
        let weights: Vec<u8> = (0..2 * 9).map(|_| rng.next_u64() as u8).collect();
        let f1: Vec<u8> = small.iter().map(|&v| v as u8).collect();
        let f2: Vec<u8> = small.iter().map(|&v| (v * 2) as u8).collect();
        let a = conv::compute(&d, &f1, &weights);
        let b = conv::compute(&d, &f2, &weights);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (y - 2.0 * x).abs() < 1e-3,
                "seed {seed}: {x} vs {y}, features {small:?}, weights {weights:?}"
            );
        }
    }
}

/// Max pooling output values always come from the input set and
/// dominate average pooling.
#[test]
fn max_pool_dominates_avg_pool() {
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
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let src: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
        let max_out = pdp::compute(&mk(PoolKind::Max), &src);
        let avg_out = pdp::compute(&mk(PoolKind::Avg), &src);
        let inputs: std::collections::BTreeSet<i8> = src.iter().map(|&b| b as i8).collect();
        for (m, a) in max_out.iter().zip(&avg_out) {
            assert!(
                inputs.contains(&(*m as i8)),
                "seed {seed}: max {m} not from the input set {src:?}"
            );
            assert!(
                (*m as i8) >= (*a as i8) - 1,
                "seed {seed}: max {m} < avg {a} (rounding slack), input {src:?}"
            );
        }
    }
}

/// ReLU output is non-negative and idempotent.
#[test]
fn sdp_relu_non_negative_and_idempotent() {
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        // Hundredths in -100..100.
        let vals: Vec<f32> = (0..rng.range(1, 63))
            .map(|_| (rng.below(20_000) as f32 - 10_000.0) / 100.0)
            .collect();
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
        assert!(
            once_vals.iter().all(|&v| v >= 0.0),
            "seed {seed}: input {vals:?}"
        );
        let twice = sdp::apply(&d, once_vals.clone(), &[], &[]);
        assert_eq!(
            once, twice,
            "seed {seed}: relu is idempotent, input {vals:?}"
        );
    }
}

/// Eltwise addition commutes.
#[test]
fn sdp_eltwise_commutes() {
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
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        // Hundredths in -10..10.
        let mut draw = || -> Vec<f32> {
            (0..8)
                .map(|_| (rng.below(2_000) as f32 - 1_000.0) / 100.0)
                .collect()
        };
        let (a, b) = (round(&draw()), round(&draw()));
        let ab = sdp::apply(&d, a.clone(), &[], &pack(&b));
        let ba = sdp::apply(&d, b.clone(), &[], &pack(&a));
        assert_eq!(ab, ba, "seed {seed}: a {a:?}, b {b:?}");
    }
}
