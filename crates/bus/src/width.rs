//! AXI data-width converter.
//!
//! The NVDLA `nv_small` data backbone (DBB) is 64 bits wide while the data
//! memory port is 32 bits; the paper inserts an AXI data-width converter
//! between them (Fig. 2). Downconversion splits every wide beat into
//! `ratio` narrow beats, so the effective DBB bandwidth is divided by the
//! ratio — one of the dominant terms in `nv_small` layer latency.

use crate::{AccessSize, BusError, Cycle, Payload, Request, Reset, Response, Target};

/// A down-converting AXI width adapter (wide master → narrow slave).
#[derive(Debug)]
pub struct WidthConverter<T> {
    downstream: T,
    wide_bytes: u32,
    narrow_bytes: u32,
    beats_split: u64,
}

impl<T: Target> WidthConverter<T> {
    /// Packing/unpacking register latency per transaction.
    pub const PACK: Cycle = 1;

    /// Create a converter from `wide_bytes`-wide beats to
    /// `narrow_bytes`-wide beats.
    ///
    /// # Panics
    ///
    /// Panics if `wide_bytes` is not a positive multiple of `narrow_bytes`.
    pub fn new(downstream: T, wide_bytes: u32, narrow_bytes: u32) -> Self {
        assert!(
            narrow_bytes > 0
                && wide_bytes >= narrow_bytes
                && wide_bytes.is_multiple_of(narrow_bytes),
            "invalid width conversion {wide_bytes}->{narrow_bytes}"
        );
        WidthConverter {
            downstream,
            wide_bytes,
            narrow_bytes,
            beats_split: 0,
        }
    }

    /// The 64-bit → 32-bit converter used by the paper's SoC.
    pub fn dbb64_to_mem32(downstream: T) -> Self {
        Self::new(downstream, 8, 4)
    }

    /// Width ratio (narrow beats per wide beat).
    #[must_use]
    pub fn ratio(&self) -> u32 {
        self.wide_bytes / self.narrow_bytes
    }

    /// Wide beats that had to be split so far.
    pub fn beats_split(&self) -> u64 {
        self.beats_split
    }

    /// Access the wrapped downstream target directly (backdoor).
    pub fn downstream_mut(&mut self) -> &mut T {
        &mut self.downstream
    }
}

impl<T: Reset> Reset for WidthConverter<T> {
    /// Reset the split counter, then the narrow-side target.
    fn reset(&mut self) {
        self.beats_split = 0;
        self.downstream.reset();
    }
}

impl<T: Target> Target for WidthConverter<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let beat = req.size.bytes();
        if beat <= self.narrow_bytes {
            // Fits the narrow side unchanged.
            return self.downstream.access(req, now + Self::PACK);
        }
        // Split a wide beat into narrow beats (little-endian order).
        self.beats_split += 1;
        let narrow = AccessSize::from_bytes(self.narrow_bytes).expect("validated in constructor");
        let parts = beat / self.narrow_bytes;
        let mut t = now + Self::PACK;
        let mut data: u64 = 0;
        for i in 0..parts {
            // Wrapping like [`Target::burst`]'s beat walk: a wide
            // beat at the top of the 32-bit space must surface as the
            // downstream's typed rejection, not an overflow panic.
            let addr = req.addr.wrapping_add(i * self.narrow_bytes);
            let shift = i * self.narrow_bytes * 8;
            let sub = match req.kind {
                crate::AccessKind::Read => Request::read(addr, narrow).with_master(req.master),
                crate::AccessKind::Write(d) => {
                    Request::write(addr, d >> shift, narrow).with_master(req.master)
                }
            };
            let r = self.downstream.access(&sub, t)?;
            data |= (r.data & narrow.mask()) << shift;
            t = r.done_at;
        }
        Ok(Response { data, done_at: t })
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        // The narrow side streams at its own width; conversion adds the
        // packing register only, per constituent burst.
        self.downstream
            .burst(addr, payload.delayed(Self::PACK), now + Self::PACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn wide_beat_splits_into_two() {
        let mut c = WidthConverter::dbb64_to_mem32(Sram::new(64));
        let t = c
            .access(
                &Request::write(0, 0x1122_3344_5566_7788, AccessSize::Double),
                0,
            )
            .unwrap()
            .done_at;
        assert_eq!(c.beats_split(), 1);
        // Two SRAM beats + pack register.
        assert_eq!(t, 3);
        let r = c.access(&Request::read(0, AccessSize::Double), t).unwrap();
        assert_eq!(r.data, 0x1122_3344_5566_7788);
    }

    #[test]
    fn narrow_beats_pass_through() {
        let mut c = WidthConverter::dbb64_to_mem32(Sram::new(64));
        c.access(&Request::write32(8, 0xAABB_CCDD), 0).unwrap();
        assert_eq!(c.beats_split(), 0);
        assert_eq!(
            c.access(&Request::read32(8), 0).unwrap().data32(),
            0xAABB_CCDD
        );
    }

    #[test]
    fn little_endian_split_order() {
        let mut c = WidthConverter::dbb64_to_mem32(Sram::new(64));
        c.access(
            &Request::write(0, 0xDDCC_BBAA_4433_2211, AccessSize::Double),
            0,
        )
        .unwrap();
        // Low word lands at the low address.
        assert_eq!(
            c.downstream_mut()
                .access(&Request::read32(0), 0)
                .unwrap()
                .data32(),
            0x4433_2211
        );
        assert_eq!(
            c.downstream_mut()
                .access(&Request::read32(4), 0)
                .unwrap()
                .data32(),
            0xDDCC_BBAA
        );
    }

    #[test]
    #[should_panic(expected = "invalid width conversion")]
    fn rejects_non_multiple_ratio() {
        let _ = WidthConverter::new(Sram::new(4), 6, 4);
    }

    #[test]
    fn ratio_reported() {
        let c = WidthConverter::dbb64_to_mem32(Sram::new(4));
        assert_eq!(c.ratio(), 2);
    }

    #[test]
    fn blocks_round_trip() {
        let mut c = WidthConverter::dbb64_to_mem32(Sram::new(256));
        let data: Vec<u8> = (0..64).collect();
        c.write_block(0, &data, 0).unwrap();
        let mut out = vec![0u8; 64];
        c.read_block(0, &mut out, 0).unwrap();
        assert_eq!(out, data);
    }
}
