//! CSB register address map: blocks, the GLB registers and the
//! registers every engine block shares.
//!
//! Follows the block layout of the official NVDLA address space (4 KB
//! per sub-unit, GLB first). Register offsets within blocks are this
//! model's own, documented layout: the paper's flow never hand-writes
//! addresses — they are produced by the compiler and consumed by the
//! trace player, so consistency (not bit-exactness with the RTL) is
//! what matters. The per-operation registers are the field tables in
//! [`crate::descriptor`]. All addresses are byte addresses within the
//! NVDLA CSB window (`0x0 .. 0xFFFFF` in the SoC map).

/// One functional sub-unit (register block) of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Block {
    /// Global: version, interrupt status.
    Glb,
    /// Convolution DMA (feature/weight fetch).
    Cdma,
    /// Convolution sequence controller.
    Csc,
    /// Convolution MAC array.
    Cmac,
    /// Convolution accumulator.
    Cacc,
    /// Single-point data processor (bias/BN/ReLU/eltwise, write DMA).
    Sdp,
    /// Planar data processor (pooling).
    Pdp,
    /// Channel data processor (LRN).
    Cdp,
    /// Data-reshape engine (used as channel-aware copy).
    Rubik,
    /// Bulk DMA engine.
    Bdma,
}

impl Block {
    /// All blocks in address order.
    pub const ALL: [Block; 10] = [
        Block::Glb,
        Block::Cdma,
        Block::Csc,
        Block::Cmac,
        Block::Cacc,
        Block::Sdp,
        Block::Pdp,
        Block::Cdp,
        Block::Rubik,
        Block::Bdma,
    ];

    /// Base byte address of the block in the CSB window: 4 KB per
    /// block, in [`Block::ALL`] order.
    #[must_use]
    pub fn base(self) -> u32 {
        (self as u32) << 12
    }

    /// Block decoding of a CSB byte address.
    #[must_use]
    pub fn of_addr(addr: u32) -> Option<Block> {
        Block::ALL.get((addr >> 12) as usize).copied()
    }

    /// Interrupt bit index in `GLB_INTR_STATUS` for engines that raise
    /// interrupts, CACC through BDMA in address order (`None` for
    /// pass-through blocks).
    #[must_use]
    pub fn intr_bit(self) -> Option<u32> {
        (self as u32).checked_sub(Block::Cacc as u32)
    }

    /// Short lower-case name as used in VP log lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 10] = [
            "glb", "cdma", "csc", "cmac_a", "cacc", "sdp", "pdp", "cdp", "rubik", "bdma",
        ];
        NAMES[self as usize]
    }
}

// --- GLB registers --------------------------------------------------------
/// Hardware version (RO).
pub const GLB_HW_VERSION: u32 = 0x0000;
/// Interrupt set (write 1 to raise, for tests).
pub const GLB_INTR_SET: u32 = 0x0008;
/// Interrupt status (write 1 to clear).
pub const GLB_INTR_STATUS: u32 = 0x000C;

/// Value read from [`GLB_HW_VERSION`].
pub const HW_VERSION_VALUE: u32 = 0x0001_51A0;

// --- Common per-engine register offsets (within each block) ---------------
/// Engine status (RO): 0 idle, 1 running.
pub const REG_STATUS: u32 = 0x00;
/// Operation enable: writing 1 launches the configured operation.
pub const REG_OP_ENABLE: u32 = 0x08;

// Each operation's `D_*` configuration registers (from offset 0x14) are
// its descriptor's field table in [`crate::descriptor`].

/// [`SdpDesc::flags`](crate::descriptor::SdpDesc::flags) bit: apply ReLU.
pub const SDP_FLAG_RELU: u32 = 1 << 0;
/// [`SdpDesc::flags`](crate::descriptor::SdpDesc::flags) bit: apply the
/// per-channel bias/scale table.
pub const SDP_FLAG_BIAS: u32 = 1 << 1;
/// [`SdpDesc::flags`](crate::descriptor::SdpDesc::flags) bit: element-wise
/// add of the second source.
pub const SDP_FLAG_ELTWISE: u32 = 1 << 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_4k_apart_and_decode() {
        for b in Block::ALL {
            assert_eq!(b.base() & 0xFFF, 0);
            assert_eq!(Block::of_addr(b.base()), Some(b));
            assert_eq!(Block::of_addr(b.base() + 0xFFC), Some(b));
        }
        assert_eq!(Block::of_addr(0xA000), None);
    }

    #[test]
    fn intr_bits_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for b in Block::ALL {
            if let Some(bit) = b.intr_bit() {
                assert!(seen.insert(bit), "duplicate intr bit {bit}");
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn glb_has_no_intr_bit() {
        assert_eq!(Block::Glb.intr_bit(), None);
        assert_eq!(Block::Cdma.intr_bit(), None);
    }
}
