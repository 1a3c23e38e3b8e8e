//! On-chip SRAM / block-RAM model (used for the RISC-V program memory).

use std::borrow::Cow;

use crate::{AccessKind, BusError, Cycle, Request, Reset, Response, Target};

/// Single-cycle on-chip memory.
///
/// The paper's program memory is built from FPGA block RAMs and serves one
/// 32-bit word per cycle with no wait states; reads and writes both cost
/// [`Sram::LATENCY`] cycles.
///
/// Only the bytes up to the highest one written so far are backed;
/// every byte past them reads as zero, like the rest of a zeroed
/// memory. A program memory that holds a 60 KB firmware image then
/// costs that image, not its megabyte of capacity, each time it is
/// built.
#[derive(Debug, Clone)]
pub struct Sram {
    /// The backed prefix: bytes `0..data.len()`.
    data: Vec<u8>,
    size: usize,
    read_only: bool,
}

impl Sram {
    /// Access latency in cycles (BRAM synchronous read).
    pub const LATENCY: Cycle = 1;

    /// Create a zero-initialized RAM of `size` bytes.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Sram {
            data: Vec::new(),
            size,
            read_only: false,
        }
    }

    /// Create a ROM pre-loaded with `image` (writes are rejected).
    #[must_use]
    pub fn rom(image: Vec<u8>) -> Self {
        Sram {
            size: image.len(),
            data: image,
            read_only: true,
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The bytes at `offset..offset + n`, already range-checked, for
    /// writing: backs every byte up to their end first.
    fn backed_mut(&mut self, offset: usize, n: usize) -> &mut [u8] {
        if self.data.len() < offset + n {
            self.data.resize(offset + n, 0);
        }
        &mut self.data[offset..offset + n]
    }

    /// Bulk-load `image` at byte offset `offset` (backdoor, zero cycles) —
    /// models the simulation `$readmemh`/Zynq preload path.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] if the image does not fit.
    pub fn load(&mut self, offset: usize, image: &[u8]) -> Result<(), BusError> {
        let out_of_range = BusError::OutOfRange {
            addr: offset as u32,
            len: image.len(),
            size: self.size,
        };
        match offset.checked_add(image.len()) {
            Some(end) if end <= self.size => {
                self.backed_mut(offset, image.len()).copy_from_slice(image);
                Ok(())
            }
            _ => Err(out_of_range),
        }
    }

    /// Backdoor view of the memory contents (no cycles consumed):
    /// borrowed when every byte is backed, else a zero-padded copy.
    #[must_use]
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        if self.data.len() == self.size {
            Cow::Borrowed(&self.data)
        } else {
            let mut all = self.data.clone();
            all.resize(self.size, 0);
            Cow::Owned(all)
        }
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, BusError> {
        let offset = addr as usize;
        if offset + len as usize > self.size {
            return Err(BusError::OutOfRange {
                addr,
                len: len as usize,
                size: self.size,
            });
        }
        Ok(offset)
    }
}

impl Reset for Sram {
    /// Power-on reset in place: RAM contents return to zero; a ROM keeps
    /// its image (block-RAM initial contents survive reset on the FPGA).
    fn reset(&mut self) {
        if !self.read_only {
            self.data.clear();
        }
    }
}

impl Target for Sram {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        if !req.is_aligned() {
            return Err(BusError::Misaligned {
                addr: req.addr,
                align: req.size.bytes(),
            });
        }
        let n = req.size.bytes() as usize;
        let offset = self.check(req.addr, n as u32)?;
        let done_at = now + Self::LATENCY;
        match req.kind {
            AccessKind::Read => {
                // Past the backed prefix every byte is zero.
                let backed = self.data.get(offset..).unwrap_or_default();
                let mut v = [0u8; 8];
                let m = n.min(backed.len());
                v[..m].copy_from_slice(&backed[..m]);
                Ok(Response {
                    data: u64::from_le_bytes(v),
                    done_at,
                })
            }
            AccessKind::Write(d) => {
                if self.read_only {
                    return Err(BusError::SlaveError {
                        addr: req.addr,
                        reason: "write to read-only memory",
                    });
                }
                self.backed_mut(offset, n)
                    .copy_from_slice(&d.to_le_bytes()[..n]);
                Ok(Response::ack(done_at))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessSize;

    #[test]
    fn read_write_all_sizes() {
        let mut m = Sram::new(64);
        m.access(&Request::write(0, 0xA5, AccessSize::Byte), 0)
            .unwrap();
        m.access(&Request::write(2, 0xBEEF, AccessSize::Half), 0)
            .unwrap();
        m.access(&Request::write(4, 0xDEAD_BEEF, AccessSize::Word), 0)
            .unwrap();
        m.access(
            &Request::write(8, 0x0123_4567_89AB_CDEF, AccessSize::Double),
            0,
        )
        .unwrap();
        assert_eq!(
            m.access(&Request::read(0, AccessSize::Byte), 0)
                .unwrap()
                .data,
            0xA5
        );
        assert_eq!(
            m.access(&Request::read(2, AccessSize::Half), 0)
                .unwrap()
                .data,
            0xBEEF
        );
        assert_eq!(
            m.access(&Request::read(4, AccessSize::Word), 0)
                .unwrap()
                .data,
            0xDEAD_BEEF
        );
        assert_eq!(
            m.access(&Request::read(8, AccessSize::Double), 0)
                .unwrap()
                .data,
            0x0123_4567_89AB_CDEF
        );
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Sram::new(8);
        m.access(&Request::write32(0, 0x0403_0201), 0).unwrap();
        assert_eq!(m.bytes()[..4], [1, 2, 3, 4]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Sram::new(4);
        let e = m.access(&Request::read32(4), 0).unwrap_err();
        assert!(matches!(e, BusError::OutOfRange { .. }));
        // A word read straddling the end is also rejected.
        let e = m
            .access(&Request::read(2, AccessSize::Word), 0)
            .unwrap_err();
        assert!(matches!(
            e,
            BusError::Misaligned { .. } | BusError::OutOfRange { .. }
        ));
    }

    #[test]
    fn misaligned_rejected() {
        let mut m = Sram::new(16);
        let e = m
            .access(&Request::read(1, AccessSize::Word), 0)
            .unwrap_err();
        assert_eq!(e, BusError::Misaligned { addr: 1, align: 4 });
    }

    #[test]
    fn rom_rejects_writes() {
        let mut m = Sram::rom(vec![0x13, 0, 0, 0]);
        assert_eq!(m.access(&Request::read32(0), 0).unwrap().data, 0x13);
        let e = m.access(&Request::write32(0, 1), 0).unwrap_err();
        assert!(matches!(e, BusError::SlaveError { .. }));
    }

    #[test]
    fn load_backdoor() {
        let mut m = Sram::new(8);
        m.load(2, &[9, 8, 7]).unwrap();
        assert_eq!(&m.bytes()[2..5], &[9, 8, 7]);
        assert!(m.load(7, &[1, 2]).is_err());
    }

    /// Backed up to the highest byte written, zero past it: a RAM reads
    /// exactly as the zeroed memory it stands for, and faults exactly
    /// where that memory ends.
    #[test]
    fn unwritten_bytes_read_zero_up_to_the_end() {
        let mut m = Sram::new(64);
        m.load(8, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(m.data.len(), 13, "only the written prefix is backed");
        let word = |m: &mut Sram, addr| m.access(&Request::read32(addr), 0).map(|r| r.data);
        assert_eq!(word(&mut m, 12), Ok(5), "a word half past the prefix");
        assert_eq!(word(&mut m, 60), Ok(0));
        assert!(matches!(
            word(&mut m, 64),
            Err(BusError::OutOfRange { size: 64, .. })
        ));
        assert!(matches!(
            m.load(62, &[1; 4]),
            Err(BusError::OutOfRange { .. })
        ));
        m.access(&Request::write(40, 0xAB, AccessSize::Byte), 0)
            .unwrap();
        let all = m.bytes();
        assert_eq!(all.len(), 64);
        assert_eq!((&all[8..13], all[40]), (&[1, 2, 3, 4, 5][..], 0xAB));
        m.reset();
        assert!(m.data.is_empty() && m.bytes().iter().all(|&b| b == 0));
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn latency_is_one_cycle() {
        let mut m = Sram::new(8);
        let r = m.access(&Request::read32(0), 41).unwrap();
        assert_eq!(r.done_at, 42);
    }
}
