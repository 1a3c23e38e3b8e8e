//! NVDLA hardware configurations (`nv_small`, `nv_full`).
//!
//! The paper evaluates both: `nv_small` (INT8 only, fits the ZCU102) on
//! the FPGA, and `nv_full` (adds FP16, too large for the ZCU102) in
//! simulation. The numbers below follow the official hardware
//! configuration headers: `nv_small` has an 8×8 INT8 MAC array and a
//! 128 KB convolution buffer with a 64-bit DBB; `nv_full` has a
//! 2048-MAC INT8 / 1024-MAC FP16 array, a 512 KB buffer and a 512-bit
//! DBB.

use std::fmt;

/// Numeric precision of an NVDLA operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 8-bit integer (supported by every configuration).
    #[default]
    Int8,
    /// 16-bit float (`nv_full` only).
    Fp16,
}

impl Precision {
    /// Bytes per element.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Precision::Int8 => 1,
            Precision::Fp16 => 2,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Int8 => write!(f, "int8"),
            Precision::Fp16 => write!(f, "fp16"),
        }
    }
}

/// A hardware configuration of the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwConfig {
    /// Configuration name (`nv_small`, `nv_full`).
    pub name: &'static str,
    /// Input channels processed per cycle (atomic-C).
    pub atomic_c: u32,
    /// Kernels (output channels) processed in parallel (atomic-K).
    pub atomic_k: u32,
    /// Convolution buffer size in KiB.
    pub cbuf_kib: u32,
    /// DBB (data backbone) width in bytes.
    pub dbb_bytes: u32,
    /// Whether FP16 is implemented.
    pub fp16: bool,
    /// Post-processing (SDP/PDP/CDP) throughput in elements per cycle.
    pub pp_throughput: u32,
    /// Fixed latency charged per hardware operation: CDMA
    /// initialization, pipeline fill/drain across the six conv stages,
    /// and interrupt delivery. Dominates tiny layers, which is why
    /// many-layer networks on small inputs (ResNet-18 at 32×32) run far
    /// below peak utilization.
    pub op_latency: u64,
    /// Maximum bytes per MCIF memory request; larger transfers split
    /// into multiple requests, each paying the controller round trip.
    pub mcif_burst_bytes: u32,
}

impl HwConfig {
    /// The `nv_small` configuration (64 INT8 MACs).
    #[must_use]
    pub fn nv_small() -> Self {
        HwConfig {
            name: "nv_small",
            atomic_c: 8,
            atomic_k: 8,
            cbuf_kib: 128,
            dbb_bytes: 8,
            fp16: false,
            pp_throughput: 1,
            op_latency: 2500,
            mcif_burst_bytes: 128,
        }
    }

    /// The `nv_full` configuration (2048 INT8 / 1024 FP16 MACs).
    #[must_use]
    pub fn nv_full() -> Self {
        HwConfig {
            name: "nv_full",
            atomic_c: 64,
            atomic_k: 32,
            cbuf_kib: 512,
            dbb_bytes: 64,
            fp16: true,
            pp_throughput: 16,
            op_latency: 4000,
            mcif_burst_bytes: 1024,
        }
    }

    /// Whether this configuration can execute at `precision`.
    #[must_use]
    pub fn supports(&self, precision: Precision) -> bool {
        match precision {
            Precision::Int8 => true,
            Precision::Fp16 => self.fp16,
        }
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::nv_small()
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_has_64_int8_macs() {
        let c = HwConfig::nv_small();
        assert_eq!(c.atomic_c * c.atomic_k, 64);
        assert!(!c.supports(Precision::Fp16));
    }

    #[test]
    fn full_has_2048_int8_macs_and_fp16() {
        let c = HwConfig::nv_full();
        assert_eq!(c.atomic_c * c.atomic_k, 2048);
        assert!(c.supports(Precision::Fp16));
    }

    #[test]
    fn full_is_strictly_bigger() {
        let s = HwConfig::nv_small();
        let f = HwConfig::nv_full();
        assert!(f.atomic_c > s.atomic_c);
        assert!(f.cbuf_kib > s.cbuf_kib);
        assert!(f.dbb_bytes > s.dbb_bytes);
        assert!(f.pp_throughput > s.pp_throughput);
    }
}
