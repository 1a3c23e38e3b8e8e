//! Request/response types for transaction-level bus modeling.

use std::fmt;

/// Width of a single bus beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessSize {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
    /// 64-bit access (AXI/DBB only).
    Double,
}

impl AccessSize {
    /// Number of bytes moved by one beat of this size.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            AccessSize::Byte => 1,
            AccessSize::Half => 2,
            AccessSize::Word => 4,
            AccessSize::Double => 8,
        }
    }

    /// Mask keeping only the bits covered by this size.
    #[must_use]
    pub fn mask(self) -> u64 {
        match self {
            AccessSize::Byte => 0xFF,
            AccessSize::Half => 0xFFFF,
            AccessSize::Word => 0xFFFF_FFFF,
            AccessSize::Double => u64::MAX,
        }
    }

    /// Construct from a byte count.
    #[must_use]
    pub fn from_bytes(n: u32) -> Option<Self> {
        match n {
            1 => Some(AccessSize::Byte),
            2 => Some(AccessSize::Half),
            4 => Some(AccessSize::Word),
            8 => Some(AccessSize::Double),
            _ => None,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// Identifies which master issued a request; used by arbiters and
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MasterId {
    /// The µRISC-V core's AHB-Lite port.
    Cpu,
    /// NVDLA's data-backbone (DBB) DMA port.
    NvdlaDbb,
    /// The Zynq PS (used only during DRAM preload, Fig. 4).
    ZynqPs,
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MasterId::Cpu => write!(f, "cpu"),
            MasterId::NvdlaDbb => write!(f, "nvdla-dbb"),
            MasterId::ZynqPs => write!(f, "zynq-ps"),
        }
    }
}

/// Read or write, with write data packed little-endian in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read request.
    Read,
    /// Write request carrying the data to store.
    Write(u64),
}

/// A single bus transaction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Byte address of the transaction.
    pub addr: u32,
    /// Read or write (with data).
    pub kind: AccessKind,
    /// Beat width.
    pub size: AccessSize,
    /// Issuing master.
    pub master: MasterId,
}

impl Request {
    /// A read of the given size from the CPU master.
    #[must_use]
    pub fn read(addr: u32, size: AccessSize) -> Self {
        Request {
            addr,
            kind: AccessKind::Read,
            size,
            master: MasterId::Cpu,
        }
    }

    /// A write of the given size from the CPU master.
    #[must_use]
    pub fn write(addr: u32, data: u64, size: AccessSize) -> Self {
        Request {
            addr,
            kind: AccessKind::Write(data & size.mask()),
            size,
            master: MasterId::Cpu,
        }
    }

    /// Convenience 32-bit read.
    #[must_use]
    pub fn read32(addr: u32) -> Self {
        Self::read(addr, AccessSize::Word)
    }

    /// Convenience 32-bit write.
    #[must_use]
    pub fn write32(addr: u32, data: u32) -> Self {
        Self::write(addr, u64::from(data), AccessSize::Word)
    }

    /// Same request attributed to a different master.
    #[must_use]
    pub fn with_master(mut self, master: MasterId) -> Self {
        self.master = master;
        self
    }

    /// True if this is a write.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self.kind, AccessKind::Write(_))
    }

    /// Write payload, or `None` for reads.
    #[must_use]
    pub fn write_data(&self) -> Option<u64> {
        match self.kind {
            AccessKind::Write(d) => Some(d),
            AccessKind::Read => None,
        }
    }

    /// Whether `addr` is naturally aligned for `size`.
    #[must_use]
    pub fn is_aligned(&self) -> bool {
        self.addr.is_multiple_of(self.size.bytes())
    }
}

/// The completion of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Read data (zero for writes), packed little-endian.
    pub data: u64,
    /// Master-domain cycle at which the transaction completed.
    pub done_at: u64,
}

impl Response {
    /// A write acknowledgement completing at `done_at`.
    #[must_use]
    pub fn ack(done_at: u64) -> Self {
        Response { data: 0, done_at }
    }

    /// Read data as a 32-bit value.
    #[must_use]
    pub fn data32(&self) -> u32 {
        self.data as u32
    }
}

/// What a burst ([`crate::Target::burst`]) carries: its direction, its
/// length and — unless the caller only wants the timing — its bytes.
#[derive(Debug)]
pub enum Payload<'a> {
    /// Read `buf.len()` bytes into this buffer.
    Read(&'a mut [u8]),
    /// Write this slice.
    Write(&'a [u8]),
    /// Length only: the same burst with no bytes attached. Every layer
    /// does exactly what it does for the data burst of this length and
    /// direction — timing, arbitration, counters, fault draw, dirty
    /// marking — except move the bytes: a read returns nothing and a
    /// write leaves the memory contents as they were.
    Len {
        /// Burst length in bytes.
        len: usize,
        /// Direction: a write (true) or a read.
        write: bool,
    },
}

impl Payload<'_> {
    /// Burst length in bytes.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            Payload::Read(buf) => buf.len(),
            Payload::Write(buf) => buf.len(),
            Payload::Len { len, .. } => *len,
        }
    }

    /// Whether the burst writes memory.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, Payload::Write(_) | Payload::Len { write: true, .. })
    }

    /// The same kind of payload for the at most `max` bytes starting
    /// `off` bytes in — how a master cuts a transfer into bounded
    /// bursts, and (`slice(0, usize::MAX)`) how a layer lends the
    /// payload downstream and looks at the bytes afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `off` is past the end of a data payload.
    pub fn slice(&mut self, off: usize, max: usize) -> Payload<'_> {
        let end = self.len().min(off.saturating_add(max));
        match self {
            Payload::Read(buf) => Payload::Read(&mut buf[off..end]),
            Payload::Write(buf) => Payload::Write(&buf[off..end]),
            Payload::Len { write, .. } => Payload::Len {
                len: end.saturating_sub(off),
                write: *write,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_slices_keep_kind_and_clip_to_the_end() {
        let mut bytes = [1u8, 2, 3, 4, 5];
        let mut p = Payload::Read(&mut bytes);
        assert!(matches!(p.slice(4, 4), Payload::Read(b) if *b == [5]));
        let mut p = Payload::Write(&[9, 8, 7]);
        assert!(matches!(p.slice(0, usize::MAX), Payload::Write(b) if *b == [9, 8, 7]));
        let mut p = Payload::Len {
            len: 10,
            write: true,
        };
        assert!(p.is_write() && p.len() == 10);
        assert!(matches!(
            p.slice(8, 4),
            Payload::Len {
                len: 2,
                write: true
            }
        ));
    }

    #[test]
    fn size_round_trips() {
        for n in [1u32, 2, 4, 8] {
            assert_eq!(AccessSize::from_bytes(n).unwrap().bytes(), n);
        }
        assert_eq!(AccessSize::from_bytes(3), None);
        assert_eq!(AccessSize::from_bytes(0), None);
    }

    #[test]
    fn write_data_is_masked() {
        let r = Request::write(0, 0x1_FFFF, AccessSize::Byte);
        assert_eq!(r.write_data(), Some(0xFF));
        let r = Request::write(0, u64::MAX, AccessSize::Word);
        assert_eq!(r.write_data(), Some(0xFFFF_FFFF));
    }

    #[test]
    fn alignment_check() {
        assert!(Request::read(4, AccessSize::Word).is_aligned());
        assert!(!Request::read(2, AccessSize::Word).is_aligned());
        assert!(Request::read(2, AccessSize::Half).is_aligned());
        assert!(Request::read(1, AccessSize::Byte).is_aligned());
        assert!(!Request::read(4, AccessSize::Double).is_aligned());
        assert!(Request::read(8, AccessSize::Double).is_aligned());
    }

    #[test]
    fn master_attribution() {
        let r = Request::read32(0).with_master(MasterId::NvdlaDbb);
        assert_eq!(r.master, MasterId::NvdlaDbb);
        assert_eq!(r.master.to_string(), "nvdla-dbb");
    }
}
