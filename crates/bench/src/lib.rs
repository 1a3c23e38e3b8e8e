//! What the paper printer (`examples/paper.rs`), the determinism gate
//! (`examples/determinism_fingerprint.rs`) and the benchmark harness
//! (`examples/benchmark/`) share: the inference fingerprint and the
//! `nv_full` VP memory timing of Table III.

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

/// Memory timing used for `nv_full` VP simulation.
///
/// The official VP's SystemC memory is a behavioral model that delivers
/// on the order of 4 bytes/cycle regardless of the configured DBB width
/// — visible in the paper's Table III, where AlexNet's 122 MB of FP16
/// weights take 35.5 M cycles (~3.4 B/cycle). We reproduce that
/// behaviour with a 32-bit-per-beat memory and moderate latencies.
#[must_use]
pub fn nv_full_vp_timing() -> DramTiming {
    DramTiming {
        cas: 6,
        rcd: 6,
        rp: 6,
        controller: 4,
        row_bytes: 2048,
        bytes_per_beat: 4,
    }
}
