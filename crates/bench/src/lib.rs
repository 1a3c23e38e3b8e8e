//! What the determinism gate (`examples/determinism_fingerprint.rs`)
//! and the benchmark harness (`examples/benchmark/`) share: the
//! inference fingerprint, and the `nv_full` VP memory timing of Table III
//! under the name the harness imports.

use rvnv_bus::dram::DramTiming;
use rvnv_nn::hash::Fnv;
use rvnv_soc::soc::InferenceResult;

/// Determinism fingerprint of one simulated inference: a hash over
/// every observable the fast simulator kernels must not change — the
/// raw output bytes left in DRAM, the retired instruction count, and
/// the modeled cycle count. Two runs with the same fingerprint took
/// the same architectural path; the fast-kernel acceptance gate
/// asserts fingerprints are equal with the kernels on and off *before*
/// any timing is measured.
#[must_use]
pub fn inference_fingerprint(r: &InferenceResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&r.raw_output);
    h.mix(r.instructions);
    h.mix(r.cycles);
    h.finish()
}

/// [`DramTiming::nvdla_vp`], Table III's VP memory timing.
#[must_use]
pub fn nv_full_vp_timing() -> DramTiming {
    DramTiming::nvdla_vp()
}
