//! Request/response types for transaction-level bus modeling.

use std::fmt;

use crate::{BusError, Cycle};

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

/// The bytes a transfer moves — or, length only, just how many.
#[derive(Debug)]
pub enum Data<'a> {
    /// Read `buf.len()` bytes into this buffer.
    Read(&'a mut [u8]),
    /// Write this slice.
    Write(&'a [u8]),
    /// Length only: the same transfer with no bytes attached. Every
    /// layer does exactly what it does for the data transfer of this
    /// length and direction — timing, arbitration, counters, fault
    /// draws, dirty marking — except move the bytes: a read returns
    /// nothing and a write leaves the memory contents as they were.
    Len {
        /// Transfer length in bytes.
        len: usize,
        /// Direction: a write (true) or a read.
        write: bool,
    },
}

/// How the layers above a device re-issue the next burst of a train.
/// Built by [`Payload::through`], one layer at a time.
pub(crate) trait Reissue {
    /// The device finished a burst of `bytes` bytes at `done`: when the
    /// next one reaches it.
    fn next(&mut self, done: Cycle, bytes: usize) -> Cycle;
    /// The constant `c` with `next(done, bytes) == done + c` for every
    /// *steady* burst — a full one, after the train's first — or `None`
    /// when some layer above times bursts otherwise.
    fn offset(&self) -> Option<Cycle>;
    /// Book `n` steady bursts of `bytes` each at every layer above, as
    /// `n` calls of `next` would, without timing them.
    fn skip(&mut self, n: u64, bytes: usize);
}

/// What one [`crate::Target::burst`] call carries: a transfer's bytes
/// ([`Data`]) and how the master cuts them into back-to-back bursts.
///
/// A transfer of several bursts is a **train**: the master issues each
/// burst when the previous one completes, so burst *k + 1* reaches a
/// layer at the cycle the layers above turn burst *k*'s completion
/// into. A train is that per-burst walk minus the walking: it crosses
/// each layer in one call and carries the recurrence with it. The
/// fabric's layers add their fixed delays and per-burst arithmetic to
/// it on the way down; the DRAM at the bottom runs the bursts, asking
/// the train when the next one arrives — or, when every layer above
/// re-issues at a constant offset (`Payload::offset`), computes the
/// middle ones in closed form; a layer with a per-burst side effect it
/// cannot aggregate falls back to [`Payload::walk`]. A single burst is
/// a train of one.
pub struct Payload<'a> {
    /// The bytes (or only their count).
    pub data: Data<'a>,
    /// Largest constituent burst, in bytes (`usize::MAX`: one burst).
    burst: usize,
    /// The layers above that time bursts per burst (`None`: the master
    /// re-issues the moment a burst completes) ...
    reissue: Option<&'a mut (dyn Reissue + 'a)>,
    /// ... followed by the fixed delays between them and this layer.
    lag: Cycle,
}

impl fmt::Debug for Payload<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("data", &self.data)
            .field("bursts", &self.bursts())
            .finish_non_exhaustive()
    }
}

/// One fabric layer's share of a burst's round trip. [`Payload::through`]
/// runs it once per constituent burst, in the order a per-burst walk
/// would: `issue` on the way down, `complete` on the way back up.
pub(crate) trait Hop {
    /// A burst reaches this layer at `now`: book it, and say when it
    /// reaches the layer below.
    fn issue(&mut self, now: Cycle) -> Cycle;
    /// The layer below finished that burst, `bytes` long, at `done`:
    /// book it, and say when it completes at this layer.
    fn complete(&mut self, done: Cycle, bytes: usize) -> Cycle;
    /// The layers above re-issue `up` cycles after this layer completes
    /// a steady burst: how long after the layer below completes it does
    /// the next one reach the layer below — or `None` when that is not
    /// a constant. Asked once the train's first burst has been issued.
    /// A steady burst takes at least a cycle below, and completes there
    /// after it arrived.
    fn offset(&self, up: Cycle) -> Option<Cycle>;
    /// Book `n` steady bursts of `bytes` each — `n` `complete`/`issue`
    /// pairs — without timing them. Only ever called after `offset`
    /// said the timing is a constant shift.
    fn skip(&mut self, n: u64, bytes: usize);
}

/// The re-issue of a train that crossed `hop`: the burst completes at
/// the hop, the layers above turn it around, the fixed delays between
/// them pass, and it is issued through the hop again.
struct Crossed<'h, 'u, H> {
    hop: &'h mut H,
    up: Option<&'u mut (dyn Reissue + 'u)>,
    lag: Cycle,
}

impl<H: Hop> Reissue for Crossed<'_, '_, H> {
    #[inline]
    fn next(&mut self, done: Cycle, bytes: usize) -> Cycle {
        let done = self.hop.complete(done, bytes);
        let again = match self.up.as_deref_mut() {
            Some(up) => up.next(done, bytes),
            None => done,
        };
        self.hop.issue(again + self.lag)
    }

    fn offset(&self) -> Option<Cycle> {
        let up = match self.up.as_deref() {
            Some(up) => up.offset()?,
            None => 0,
        };
        self.hop.offset(up + self.lag)
    }

    fn skip(&mut self, n: u64, bytes: usize) {
        self.hop.skip(n, bytes);
        if let Some(up) = self.up.as_deref_mut() {
            up.skip(n, bytes);
        }
    }
}

impl<'a> Payload<'a> {
    #[inline]
    fn single(data: Data<'a>) -> Self {
        Payload {
            data,
            burst: usize::MAX,
            reissue: None,
            lag: 0,
        }
    }

    /// One burst reading into `buf`.
    #[inline]
    pub fn read(buf: &'a mut [u8]) -> Self {
        Self::single(Data::Read(buf))
    }

    /// One burst writing `buf`.
    #[inline]
    pub fn write(buf: &'a [u8]) -> Self {
        Self::single(Data::Write(buf))
    }

    /// One length-only burst of `len` bytes ([`Data::Len`]).
    #[inline]
    pub fn length_only(len: usize, write: bool) -> Self {
        Self::single(Data::Len { len, write })
    }

    /// The same transfer as a train of back-to-back bursts of at most
    /// `bytes` each (at least one burst, even for an empty transfer).
    #[must_use]
    #[inline]
    pub fn in_bursts(mut self, bytes: usize) -> Self {
        self.burst = bytes.max(1);
        self
    }

    /// Transfer length in bytes.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            Data::Read(buf) => buf.len(),
            Data::Write(buf) => buf.len(),
            Data::Len { len, .. } => *len,
        }
    }

    /// Whether the transfer writes memory.
    #[must_use]
    #[inline]
    pub fn is_write(&self) -> bool {
        matches!(self.data, Data::Write(_) | Data::Len { write: true, .. })
    }

    /// Largest constituent burst in bytes.
    #[inline]
    pub(crate) fn burst_bytes(&self) -> usize {
        self.burst.min(self.len())
    }

    /// Number of constituent bursts (one for an empty transfer).
    #[must_use]
    #[inline]
    pub fn bursts(&self) -> usize {
        let len = self.len();
        if len <= self.burst {
            1
        } else {
            len.div_ceil(self.burst)
        }
    }

    /// Length of the last constituent burst.
    #[inline]
    fn last_burst(&self) -> usize {
        let len = self.len();
        if len <= self.burst {
            len
        } else {
            len - (len - 1) / self.burst * self.burst
        }
    }

    /// The same kind of data for the at most `max` bytes starting `off`
    /// bytes in, as one burst — how a walk cuts out each constituent
    /// burst, and (`slice(0, usize::MAX)`) how a layer lends a burst
    /// downstream and looks at the bytes afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `off` is past the end of a data payload.
    #[inline]
    pub fn slice(&mut self, off: usize, max: usize) -> Payload<'_> {
        let end = self.len().min(off.saturating_add(max));
        Payload::single(match &mut self.data {
            Data::Read(buf) => Data::Read(&mut buf[off..end]),
            Data::Write(buf) => Data::Write(&buf[off..end]),
            Data::Len { write, .. } => Data::Len {
                len: end.saturating_sub(off),
                write: *write,
            },
        })
    }

    /// When the next burst of the train reaches this layer, given that
    /// this layer finished the previous one — `bytes` long — at `done`.
    #[inline]
    pub(crate) fn reissue(&mut self, done: Cycle, bytes: usize) -> Cycle {
        let again = match self.reissue.as_deref_mut() {
            Some(up) => up.next(done, bytes),
            None => done,
        };
        again + self.lag
    }

    /// The constant `c` with `reissue(done, bytes) == done + c` for every
    /// steady burst of the train — a full one, after the first — or
    /// `None` when a layer above rounds (a clock crossing at a
    /// non-integer ratio). Ask it only after the first burst went out.
    pub(crate) fn offset(&self) -> Option<Cycle> {
        let up = match self.reissue.as_deref() {
            Some(up) => up.offset()?,
            None => 0,
        };
        Some(up + self.lag)
    }

    /// Book `n` steady bursts of `bytes` each at every layer above —
    /// grants, bytes, crossings — as `n` calls of `reissue` would,
    /// without timing them: the other half of [`Payload::offset`].
    pub(crate) fn skip(&mut self, n: u64, bytes: usize) {
        if let Some(up) = self.reissue.as_deref_mut() {
            up.skip(n, bytes);
        }
    }

    /// The same train one fixed pipeline delay further down (width
    /// packing, mux routing): every burst reaches the layer below `d`
    /// cycles after it reaches this one, and its completion passes back
    /// unchanged. Pass it down with `now + d`.
    ///
    /// A fixed delay is a [`Hop`] whose `issue` adds `d` and whose
    /// `complete` is the identity, but crossing it with
    /// [`Payload::through`] puts one more dynamic call per layer on every
    /// re-issue. Measured with the `WidthConverter` and `SmartConnect`
    /// delays written that way: `table3_fp16` `op_ms_p50` 4.62 → 4.99 ms
    /// (+8 %, slower in 10 of 10 alternating pairs, 2-core Xeon), so the
    /// delays fold into the re-issue as this one addition instead.
    #[inline]
    pub(crate) fn delayed(mut self, d: Cycle) -> Self {
        self.lag += d;
        self
    }

    /// Cross a layer: `hop` books and times the first burst on the way
    /// in, `down` hands the train to the layer below, and `hop` books
    /// and times the last burst on the way out. Every burst in between
    /// crosses `hop` (complete, then the layers above, then issue) when
    /// the device below asks for it — exactly the per-burst walk's
    /// order of events, one call deep — or, steady bursts under a
    /// constant offset, is booked at `hop` and above in one
    /// [`Hop::skip`].
    ///
    /// # Errors
    ///
    /// Whatever `down` returns; `hop` then saw the failing burst issued
    /// but not completed, as a walk would.
    pub(crate) fn through<H: Hop>(
        self,
        hop: &mut H,
        now: Cycle,
        down: impl FnOnce(Payload<'_>, Cycle) -> Result<Cycle, BusError>,
    ) -> Result<Cycle, BusError> {
        let last = self.last_burst();
        let first = hop.issue(now);
        let mut crossed = Crossed {
            hop,
            up: self.reissue,
            lag: self.lag,
        };
        let below = Payload {
            data: self.data,
            burst: self.burst,
            reissue: Some(&mut crossed),
            lag: 0,
        };
        let done = down(below, first)?;
        Ok(crossed.hop.complete(done, last))
    }

    /// Walk the train burst by burst: `one` moves each constituent
    /// burst, as a train of one, from the cycle it reaches this layer,
    /// and the layers above re-issue the next at its completion — the
    /// fallback of every layer with a per-burst side effect it cannot
    /// aggregate. Addresses advance wrapping, like the beat walk.
    ///
    /// # Errors
    ///
    /// The first failing burst's error; the bursts before it stay done.
    pub fn walk(
        mut self,
        addr: u32,
        now: Cycle,
        mut one: impl FnMut(u32, Payload<'_>, Cycle) -> Result<Cycle, BusError>,
    ) -> Result<Cycle, BusError> {
        let (len, burst) = (self.len(), self.burst_bytes());
        let mut at = now;
        let mut off = 0;
        loop {
            let n = burst.min(len - off);
            let done = one(addr.wrapping_add(off as u32), self.slice(off, n), at)?;
            off += n;
            if off >= len {
                return Ok(done);
            }
            at = self.reissue(done, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_slices_keep_kind_and_clip_to_the_end() {
        let mut bytes = [1u8, 2, 3, 4, 5];
        let mut p = Payload::read(&mut bytes);
        assert!(matches!(p.slice(4, 4).data, Data::Read(b) if *b == [5]));
        let mut p = Payload::write(&[9, 8, 7]);
        assert!(matches!(p.slice(0, usize::MAX).data, Data::Write(b) if *b == [9, 8, 7]));
        let mut p = Payload::length_only(10, true);
        assert!(p.is_write() && p.len() == 10);
        assert!(matches!(
            p.slice(8, 4).data,
            Data::Len {
                len: 2,
                write: true
            }
        ));
    }

    #[test]
    fn trains_count_their_bursts() {
        let p = Payload::length_only(300, false).in_bursts(128);
        assert_eq!((p.bursts(), p.burst_bytes(), p.last_burst()), (3, 128, 44));
        let p = Payload::length_only(256, false).in_bursts(128);
        assert_eq!((p.bursts(), p.last_burst()), (2, 128));
        let p = Payload::length_only(0, true).in_bursts(128);
        assert_eq!(
            (p.bursts(), p.last_burst()),
            (1, 0),
            "an empty train is one empty burst"
        );
        let p = Payload::length_only(40, true);
        assert_eq!((p.bursts(), p.burst_bytes()), (1, 40));
    }

    /// A layer hop that doubles time on the way in and logs its calls.
    struct Doubler(Vec<String>);

    impl Hop for Doubler {
        fn issue(&mut self, now: Cycle) -> Cycle {
            self.0.push(format!("issue {now}"));
            2 * now
        }
        fn complete(&mut self, done: Cycle, bytes: usize) -> Cycle {
            self.0.push(format!("complete {done} ({bytes} B)"));
            done + 1
        }
        fn offset(&self, _up: Cycle) -> Option<Cycle> {
            None
        }
        fn skip(&mut self, _n: u64, _bytes: usize) {
            unreachable!("a doubling hop has no constant offset");
        }
    }

    /// A layer hop that delays the issue by `by` and the completion by
    /// one cycle, counting the bursts it books.
    struct Shift {
        by: Cycle,
        bursts: u64,
    }

    impl Hop for Shift {
        fn issue(&mut self, now: Cycle) -> Cycle {
            self.bursts += 1;
            now + self.by
        }
        fn complete(&mut self, done: Cycle, _bytes: usize) -> Cycle {
            done + 1
        }
        fn offset(&self, up: Cycle) -> Option<Cycle> {
            Some(1 + up + self.by)
        }
        fn skip(&mut self, n: u64, _bytes: usize) {
            self.bursts += n;
        }
    }

    /// Constant offsets compose down the fabric: each hop maps the
    /// offset of the layers above through itself, the fixed delays in
    /// between add, and the composite is exactly what the real
    /// re-issue does to any completion. One non-constant hop anywhere
    /// above makes the whole train's offset unknown. A skip books its
    /// bursts at every hop crossed.
    #[test]
    fn constant_offsets_compose_through_hops_and_delays() {
        let (mut outer, mut inner) = (Shift { by: 5, bursts: 0 }, Shift { by: 7, bursts: 0 });
        let mut seen = None;
        Payload::length_only(64, false)
            .in_bursts(16)
            .delayed(2)
            .through(&mut outer, 0, |p, t| {
                p.delayed(3).through(&mut inner, t + 3, |p, t| {
                    let mut p = p.delayed(11);
                    let c = p.offset().expect("every hop is a shift");
                    for done in [10, 1000, 77_777] {
                        assert_eq!(p.reissue(done, 16), done + c);
                    }
                    p.skip(4, 16);
                    seen = Some(c);
                    Ok(t)
                })
            })
            .unwrap();
        // inner: 1 + (outer: 1 + 2 + 5) + 3 + 7, then the last delay.
        assert_eq!(seen, Some(1 + (1 + 2 + 5) + 3 + 7 + 11));
        // The first issue, three re-issues and four skipped bursts.
        assert_eq!((outer.bursts, inner.bursts), (1 + 3 + 4, 1 + 3 + 4));
        let mut doubler = Doubler(Vec::new());
        Payload::length_only(64, false)
            .in_bursts(16)
            .through(&mut doubler, 0, |p, t| {
                p.through(&mut inner, t, |p, t| {
                    assert_eq!(p.offset(), None, "a doubling hop above");
                    Ok(t)
                })
            })
            .unwrap();
    }

    /// A walk issues every constituent burst at the previous one's
    /// completion as the layers above turn it around: a train crossing
    /// a layer sees that layer's hop once per burst each way, in walk
    /// order, with the fixed delays below it added on every re-issue.
    #[test]
    fn walk_reissues_through_every_hop() {
        let mut hop = Doubler(Vec::new());
        let mut seen = Vec::new();
        let done = Payload::length_only(10, false)
            .in_bursts(4)
            .through(&mut hop, 50, |p, t| {
                p.delayed(3).walk(0x40, t + 3, |addr, b, at| {
                    seen.push((addr, b.len(), at));
                    Ok(at + 10)
                })
            })
            .unwrap();
        // 50 -> 100 (+3) -> done 113 -> 114 up, issue 114 -> 228 (+3) ...
        assert_eq!(seen, [(0x40, 4, 103), (0x44, 4, 231), (0x48, 2, 487)]);
        assert_eq!(done, 498);
        assert_eq!(
            hop.0,
            [
                "issue 50",
                "complete 113 (4 B)",
                "issue 114",
                "complete 241 (4 B)",
                "issue 242",
                "complete 497 (2 B)"
            ]
        );
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
