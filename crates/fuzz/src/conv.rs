//! `conv` target: seeded convolution shapes through both kernels and
//! their tap-at-a-time oracles. The standing contract (pinned for a
//! fixed shape list by the unit tests and the determinism fingerprint)
//! is that the fast kernels change nothing: the engine's
//! `conv::compute` equals `conv::compute_reference` and the golden
//! `conv2d` equals `conv2d_naive`, bit for bit — in f32 the order of
//! the adds into one output is part of the contract, so a reordered or
//! zero-added tap shows. Here the same equality must hold for shapes
//! nobody listed: grouped, strided, padded past the kernel, clipped on
//! every edge, channel counts off every block size.
//!
//! A case that is no convolution (the shrinker may cross one: a kernel
//! larger than the padded input) is a passing case.

use rvnv_nn::conv::{conv2d, conv2d_naive};
use rvnv_nn::F16;
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::engines::conv;
use rvnv_util::SplitMix64;

use crate::gen::{self, ConvCase};
use crate::{shrink, FuzzTarget};

/// Engine operand bytes. An f16 NaN becomes the max normal of its
/// sign: a NaN *input* is the one case IEEE 754 leaves underdetermined
/// (which payload survives), and encoded model data never holds one.
fn operand_bytes(rng: &mut SplitMix64, elems: usize, precision: Precision) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..elems * precision.bytes() as usize)
        .map(|_| rng.next_u32() as u8)
        .collect();
    if precision == Precision::Fp16 {
        for pair in bytes.chunks_exact_mut(2) {
            let bits = u16::from_le_bytes([pair[0], pair[1]]);
            if F16::from_bits(bits).to_f32().is_nan() {
                pair.copy_from_slice(&((bits & 0x8000) | F16::MAX.to_bits()).to_le_bytes());
            }
        }
    }
    bytes
}

/// Golden operands: both signs, eight decades of magnitude, and exact
/// zeros of both signs, so sums round differently in any other order.
#[must_use]
pub fn real_values(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(16) {
            0 => 0.0,
            1 => -0.0,
            _ => (rng.range(0, 2000) as f32 - 1000.0) * 10f32.powi(rng.range(0, 7) as i32 - 5),
        })
        .collect()
}

fn first_difference(what: &str, fast: &[f32], slow: &[f32]) -> Result<(), String> {
    if fast.len() != slow.len() {
        return Err(format!("{what}: {} outputs vs {}", fast.len(), slow.len()));
    }
    match fast
        .iter()
        .zip(slow)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: output {i} is {:e} ({:#010x}), the reference says {:e} ({:#010x})",
            fast[i],
            fast[i].to_bits(),
            slow[i],
            slow[i].to_bits()
        )),
    }
}

/// The kernels-vs-oracles differential target.
pub struct ConvTarget;

impl FuzzTarget for ConvTarget {
    type Input = ConvCase;
    const NAME: &'static str = "conv";

    fn generate(&self, seed: u64) -> ConvCase {
        gen::conv_case(seed)
    }

    fn check(&self, case: &ConvCase) -> Result<(), String> {
        let Some(desc) = case.desc() else {
            return Ok(());
        };
        let g = desc.geom();
        let mut rng = SplitMix64::new(case.data_seed);
        let feature = operand_bytes(&mut rng, g.in_elems(), desc.precision);
        let weights = operand_bytes(&mut rng, g.wt_elems(), desc.precision);
        first_difference(
            "engine",
            &conv::compute(&desc, &feature, &weights),
            &conv::compute_reference(&desc, &feature, &weights),
        )?;
        let x = real_values(&mut rng, g.in_elems());
        let w = real_values(&mut rng, g.wt_elems());
        let bias = real_values(&mut rng, g.out_c);
        first_difference(
            "golden",
            &conv2d(&g, &x, &w, Some(&bias)),
            &conv2d_naive(&g, &x, &w, Some(&bias)),
        )
    }

    fn shrink(&self, mut case: ConvCase, fails: &dyn Fn(&ConvCase) -> bool) -> ConvCase {
        // Halve each dimension toward its floor, round after round,
        // until none moves.
        loop {
            let before = case.clone();
            for (i, floor) in ConvCase::FLOORS.into_iter().enumerate() {
                let with = |v: u64| {
                    let mut cand = case.clone();
                    cand.dims[i] = v as u32;
                    cand
                };
                let min = shrink::shrink_scalar(u64::from(case.dims[i]), u64::from(floor), |v| {
                    fails(&with(v))
                });
                case = with(min);
            }
            if case == before {
                return case;
            }
        }
    }

    /// Multiply-accumulates (0 for a case that is no convolution).
    fn size(case: &ConvCase) -> usize {
        case.desc().map_or(0, |d| d.macs() as usize)
    }
}
