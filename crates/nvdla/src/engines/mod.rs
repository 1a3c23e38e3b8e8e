//! Functional engine models: pure compute kernels consumed by the
//! register-level top ([`crate::Nvdla`]).

pub mod cdp;
pub mod conv;
pub mod pdp;
pub mod sdp;

use crate::config::Precision;
use crate::descriptor::Launch;
use rvnv_nn::F16;

/// Run `launch`'s kernel on the bytes its plan's reads fetched, indexed
/// by [`crate::plan::Purpose`], and return the bytes it writes back.
///
/// # Panics
///
/// Panics if an operand is shorter than the descriptor implies, which a
/// plan's reads rule out.
#[must_use]
pub fn run(launch: &Launch, operands: [Vec<u8>; 4]) -> Vec<u8> {
    let [feature, weight, bias, rhs] = operands;
    match launch {
        Launch::Conv(cd, d) => sdp::apply(d, conv::compute(cd, &feature, &weight), &bias, &rhs),
        Launch::Sdp(d) => sdp::apply(d, to_real(&feature, d.precision, d.in_scale), &bias, &rhs),
        Launch::Pdp(d) => pdp::compute(d, &feature),
        Launch::Cdp(d) => cdp::compute(d, &feature),
        Launch::Copy(..) => feature,
    }
}

/// Decode a packed byte buffer into real (f32) values.
///
/// INT8 buffers are scaled by `scale`; FP16 buffers are exact.
#[must_use]
pub fn to_real(bytes: &[u8], precision: Precision, scale: f32) -> Vec<f32> {
    match precision {
        Precision::Int8 => bytes.iter().map(|&b| f32::from(b as i8) * scale).collect(),
        Precision::Fp16 => bytes
            .chunks_exact(2)
            .map(|c| F16::from_bits(u16::from_le_bytes([c[0], c[1]])).to_f32())
            .collect(),
    }
}

/// `x.round().clamp(-127.0, 127.0) as i8`, bit for bit (NaN → 0,
/// halves away from zero), without `f32::round`: on baseline x86-64
/// that is a libm call per element which also keeps the loop scalar.
/// Clamping first makes the truncation and the remainder exact, so the
/// remainder alone decides the rounding.
#[inline]
fn quantize_i8(x: f32) -> i8 {
    let c = x.clamp(-127.0, 127.0);
    let t = c as i32;
    let d = c - t as f32;
    (t + i32::from(d >= 0.5) - i32::from(d <= -0.5)) as i8
}

/// Encode real values into a packed byte buffer.
///
/// INT8: `round(v / scale)` saturated to ±127. FP16: round-to-nearest.
#[must_use]
pub fn from_real(values: &[f32], precision: Precision, scale: f32) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * precision.bytes() as usize);
    extend_from_real(&mut out, values, precision, scale);
    out
}

/// [`from_real`], appending to `out` — lets the SDP encode a surface
/// one channel at a time.
pub fn extend_from_real(out: &mut Vec<u8>, values: &[f32], precision: Precision, scale: f32) {
    match precision {
        Precision::Int8 => out.extend(values.iter().map(|v| quantize_i8(v / scale) as u8)),
        Precision::Fp16 => out.extend(
            values
                .iter()
                .flat_map(|v| F16::from_f32(*v).to_bits().to_le_bytes()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_round_trip_with_scale() {
        let vals = [0.0f32, 0.5, -0.5, 1.0, -1.0];
        let bytes = from_real(&vals, Precision::Int8, 1.0 / 127.0);
        let back = to_real(&bytes, Precision::Int8, 1.0 / 127.0);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() < 1.0 / 127.0, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_saturates() {
        let bytes = from_real(&[10.0], Precision::Int8, 0.01);
        assert_eq!(bytes[0] as i8, 127);
        let bytes = from_real(&[-10.0], Precision::Int8, 0.01);
        assert_eq!(bytes[0] as i8, -127);
    }

    /// The libm-free requantizer is `round → clamp → as i8` exactly:
    /// every edge the rounding can turn on, then a million seeded draws
    /// across the magnitudes an SDP output takes.
    #[test]
    fn quantize_i8_is_round_clamp_cast_bit_for_bit() {
        let reference = |x: f32| x.round().clamp(-127.0, 127.0) as i8;
        let mut samples = vec![f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, f32::MAX, 1e-30];
        for edge in [
            0.0f32,
            0.499_999_97,
            0.5,
            0.500_000_06,
            1.5,
            2.5,
            126.5,
            127.0,
            127.5,
            128.0,
        ] {
            samples.extend([edge, f32::from_bits(edge.to_bits() + 1)]);
            samples.push(f32::from_bits(edge.to_bits().saturating_sub(1)));
        }
        for k in -255..=255 {
            samples.push(k as f32 * 0.5);
        }
        let mut rng = rvnv_util::SplitMix64::new(0x5D9);
        for i in 0..1_000_000u32 {
            let bits = rng.next_u32();
            // Raw bit patterns (all exponents, NaNs, infinities) and
            // values spread over the ±160 band where rounding matters.
            samples.push(match i % 4 {
                0 => f32::from_bits(bits),
                1 => (bits as f32 / u32::MAX as f32 - 0.5) * 320.0,
                2 => (bits % 512) as f32 * 0.5 - 128.0 + (i % 3) as f32 * f32::EPSILON,
                _ => (bits as f32 / u32::MAX as f32 - 0.5) * 4.0,
            });
        }
        assert!(samples.len() >= 1_000_000);
        for x in samples {
            for x in [x, -x] {
                assert_eq!(
                    quantize_i8(x),
                    reference(x),
                    "{x:e} ({:#010x})",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn fp16_round_trip_exact_for_representable() {
        let vals = [1.0f32, -0.5, 1024.0, 0.0];
        let bytes = from_real(&vals, Precision::Fp16, 1.0);
        assert_eq!(bytes.len(), 8);
        assert_eq!(to_real(&bytes, Precision::Fp16, 1.0), vals);
    }
}
