//! DDR4 DRAM model with open-row policy and burst-amortized timing.
//!
//! Models the 512 MB MIG-controlled DDR4 of the ZCU102 setup (Fig. 4).
//! Timing follows a simple open-page model: an access that hits the open
//! row pays only CAS latency; a miss pays precharge + activate + CAS.
//! Bursts stream one data beat per cycle once the row is open, which is
//! what makes large weight DMAs cheap per byte while keeping scattered
//! CPU accesses expensive — the behaviour the paper's Table II depends on.

use std::borrow::Cow;

use crate::{AccessKind, BusError, Cycle, Data, Payload, Request, Reset, Response, Target};

/// A sorted set of disjoint half-open byte ranges, coalescing
/// overlapping or touching neighbours on insert.
///
/// The DRAM model uses it to track *written extents*: a 512 MB device
/// can then be power-on reset by zeroing only the few hundred kilobytes
/// a run actually touched, instead of reallocating the whole backing
/// vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Sorted, pairwise-disjoint, non-touching `[start, end)` ranges.
    ranges: Vec<(usize, usize)>,
}

impl RangeSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `[start, end)`, merging with any overlapping or touching
    /// ranges. Empty ranges are ignored.
    pub fn insert(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        // First range whose end reaches `start` (may touch or overlap).
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        let mut lo = start;
        let mut hi = end;
        let mut j = i;
        while j < self.ranges.len() && self.ranges[j].0 <= hi {
            lo = lo.min(self.ranges[j].0);
            hi = hi.max(self.ranges[j].1);
            j += 1;
        }
        self.ranges.splice(i..j, [(lo, hi)]);
    }

    /// Remove `[start, end)`, splitting any range it cuts through.
    pub fn remove(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        // First range that extends past `start` (strictly — touching at
        // `start` is unaffected by the removal).
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        let mut replacement: Vec<(usize, usize)> = Vec::new();
        let mut j = i;
        while j < self.ranges.len() && self.ranges[j].0 < end {
            let (s, e) = self.ranges[j];
            if s < start {
                replacement.push((s, start));
            }
            if e > end {
                replacement.push((end, e));
            }
            j += 1;
        }
        if i < j {
            self.ranges.splice(i..j, replacement);
        }
    }

    /// Remove every byte of `other` from this set.
    pub fn subtract(&mut self, other: &RangeSet) {
        for (s, e) in other.iter() {
            self.remove(s, e);
        }
    }

    /// Insert every range of `other` into this set (set union).
    pub fn union_with(&mut self, other: &RangeSet) {
        for (s, e) in other.iter() {
            self.insert(s, e);
        }
    }

    /// Remove all ranges.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Whether the set contains no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of distinct ranges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes covered.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Iterate the `[start, end)` ranges in address order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges.iter().copied()
    }

    /// Whether any byte is covered by both sets (strict overlap;
    /// touching ranges do not count).
    #[must_use]
    pub fn overlaps(&self, other: &RangeSet) -> bool {
        // Walk the smaller set, binary-searching the larger.
        let (probe, base) = if self.ranges.len() <= other.ranges.len() {
            (self, other)
        } else {
            (other, self)
        };
        probe.ranges.iter().any(|&(s, e)| {
            let i = base.ranges.partition_point(|&(_, be)| be <= s);
            base.ranges.get(i).is_some_and(|&(bs, _)| bs < e)
        })
    }
}

/// Timing parameters of the DRAM + controller, in memory-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Column-access (CAS) latency.
    pub cas: Cycle,
    /// Row-to-column delay (activate).
    pub rcd: Cycle,
    /// Row precharge latency.
    pub rp: Cycle,
    /// Fixed controller/queueing overhead per transaction.
    pub controller: Cycle,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Data-bus beat width in bytes (MIG user interface).
    pub bytes_per_beat: u32,
}

impl DramTiming {
    /// Timing resembling the MIG DDR4 controller at 100 MHz on ZCU102.
    #[must_use]
    pub fn mig_ddr4() -> Self {
        DramTiming {
            cas: 11,
            rcd: 11,
            rp: 11,
            controller: 8,
            row_bytes: 2048,
            bytes_per_beat: 4,
        }
    }

    /// Memory timing of the `nv_full` virtual platform (Table III).
    ///
    /// The official VP's SystemC memory is a behavioral model that delivers
    /// on the order of 4 bytes/cycle regardless of the configured DBB width
    /// — visible in the paper's Table III, where AlexNet's 122 MB of FP16
    /// weights take 35.5 M cycles (~3.4 B/cycle). We reproduce that
    /// behaviour with a 32-bit-per-beat memory and moderate latencies.
    #[must_use]
    pub fn nvdla_vp() -> Self {
        DramTiming {
            cas: 6,
            rcd: 6,
            rp: 6,
            controller: 4,
            row_bytes: 2048,
            bytes_per_beat: 4,
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::mig_ddr4()
    }
}

/// Access statistics kept by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Single-beat transactions served.
    pub accesses: u64,
    /// Burst (block) transactions served.
    pub bursts: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activate needed).
    pub row_misses: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total cycles spent busy.
    pub busy_cycles: u64,
}

/// Host work the model itself performed: bytes it really moved, as
/// opposed to the modeled traffic [`DramStats`] counts, and how often
/// it entered its burst loop. Cumulative over the device's lifetime —
/// [`Reset::reset`] adds to it and never clears it — and deliberately
/// outside `DramStats`, which a length-only burst (or a train) must
/// keep equal to the data burst (or the walk) it stands for while
/// doing none of this work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramWork {
    /// Bytes copied into or out of the backing store (backdoor loads,
    /// single beats, data bursts). [`Dram::peek`] is not counted: it
    /// borrows, or hands back zeros while the device is unbacked.
    pub bytes_copied: u64,
    /// Bytes zeroed by resets and image evictions.
    pub bytes_zeroed: u64,
    /// Entries into the burst loop: a train counts once however many
    /// bursts it carries; a walked transfer (an armed fault plan, a
    /// train that runs off the end) counts once per burst.
    pub walks: u64,
    /// Bursts the loop stepped one by one. A train whose layers above
    /// re-issue at a constant offset steps its first and last burst and
    /// computes the rest in closed form; any other train steps them all.
    pub burst_steps: u64,
}

/// A DRAM's timing state — open row, busy-until and the [`DramStats`]
/// they produce — without its storage. [`Dram`] charges every beat and
/// burst through one; on its own it is the quiet model of the device:
/// a train on a fresh timeline costs what it costs a just-reset DRAM,
/// computed by the same loop (reads return zeros, nothing is stored,
/// and there is no end to run off).
#[derive(Debug, Clone)]
pub struct DramTimeline {
    timing: DramTiming,
    open_row: Option<u32>,
    busy_until: Cycle,
    stats: DramStats,
}

impl DramTimeline {
    /// A timeline in the post-reset state: no open row, idle, no stats.
    #[must_use]
    pub fn new(timing: DramTiming) -> Self {
        DramTimeline {
            timing,
            open_row: None,
            busy_until: 0,
            stats: DramStats::default(),
        }
    }

    fn row_of(&self, addr: u32) -> u32 {
        addr / self.timing.row_bytes
    }

    /// Data beats a burst of `len` bytes streams.
    fn beats(&self, len: usize) -> Cycle {
        (len as u64).div_ceil(u64::from(self.timing.bytes_per_beat))
    }

    /// Cycles to open `row` (0 on a hit), updating the open-row state.
    fn row_latency(&mut self, row: u32) -> Cycle {
        if self.open_row == Some(row) {
            self.stats.row_hits += 1;
            0
        } else {
            let penalty = if self.open_row.is_some() {
                self.timing.rp + self.timing.rcd
            } else {
                self.timing.rcd
            };
            self.open_row = Some(row);
            self.stats.row_misses += 1;
            penalty
        }
    }

    /// Serialize a request on the device timeline starting not before
    /// `now`, lasting `duration`; returns completion time.
    fn occupy(&mut self, now: Cycle, duration: Cycle) -> Cycle {
        let start = now.max(self.busy_until);
        let done = start + duration;
        self.busy_until = done;
        self.stats.busy_cycles += duration;
        done
    }

    /// One single-beat transaction of `bytes` at `addr`.
    fn beat(&mut self, addr: u32, write: bool, bytes: u64, now: Cycle) -> Cycle {
        let t = self.timing;
        let duration = t.controller + t.cas + self.row_latency(self.row_of(addr)) + 1;
        let done = self.occupy(now, duration);
        self.stats.accesses += 1;
        if write {
            self.stats.bytes_written += bytes;
        } else {
            self.stats.bytes_read += bytes;
        }
        done
    }

    /// One burst of `len` bytes at `addr` arriving at `now`, `beats`
    /// long on the data bus: the controller and CAS overhead, an
    /// activate for each row it touches that is not open, the beats,
    /// and a slot on the device timeline. Returns its completion.
    #[inline(always)]
    fn one_burst(&mut self, addr: u32, len: usize, beats: Cycle, now: Cycle) -> Cycle {
        let t = self.timing;
        let mut cycles = t.controller + t.cas + beats;
        for row in self.row_of(addr)..=self.row_of(addr + len.max(1) as u32 - 1) {
            cycles += self.row_latency(row);
        }
        self.stats.bursts += 1;
        self.occupy(now, cycles)
    }

    /// Every burst of `payload`'s train, back to back: the first at
    /// `now`, each later one when the layers above turn the previous
    /// completion into its arrival. Returns the last burst's completion
    /// and how many bursts it stepped one by one.
    ///
    /// When the layers above re-issue at a constant offset
    /// ([`Payload::offset`]) and the train does not wrap the address
    /// space, the bursts between the first and the last are
    /// [`DramTimeline::steady`] and booked above in one
    /// [`Payload::skip`]; the last still goes through the real
    /// re-issue, so every layer ends where the walk leaves it.
    #[inline]
    fn train(&mut self, addr: u32, payload: &mut Payload<'_>, now: Cycle) -> (Cycle, u64) {
        let (len, burst) = (payload.len(), payload.burst_bytes());
        let full = self.beats(burst);
        let mut done = self.one_burst(addr, burst, full, now);
        let mut off = burst;
        let mut steps = 1;
        let bursts = payload.bursts() as u64;
        if bursts > 2 && u64::from(addr) + len as u64 <= 1 << 32 {
            if let Some(offset) = payload.offset() {
                let n = bursts - 2;
                done = self.steady(u64::from(addr) + burst as u64, burst, n, offset, done);
                payload.skip(n, burst);
                off += n as usize * burst;
            }
        }
        while off < len {
            // Every burst but the last is a full one.
            let at = payload.reissue(done, burst);
            let n = burst.min(len - off);
            let beats = if n == burst { full } else { self.beats(n) };
            done = self.one_burst(addr.wrapping_add(off as u32), n, beats, at);
            off += n;
            steps += 1;
        }
        if payload.is_write() {
            self.stats.bytes_written += len as u64;
        } else {
            self.stats.bytes_read += len as u64;
        }
        (done, steps)
    }

    /// `n` full bursts of `burst` bytes back to back from `addr`, each
    /// arriving `offset` cycles after its predecessor completes (the
    /// first: after `done`) and finding that predecessor's last row
    /// open. Books them and returns the last one's completion.
    ///
    /// Each arrives after the device went idle, so it completes its
    /// own cost after arriving: the overhead and beats, plus RP + RCD
    /// for each row boundary in its bytes — on its first byte the
    /// previous burst's row is left, past it a row is crossed. The
    /// bursts cover `[addr, addr + n·burst)` without gaps, so the
    /// misses are the row boundaries in that range, and the hits are
    /// the bursts whose first byte is not on one — a row phase that
    /// repeats every `row_bytes / gcd(burst, row_bytes)` bursts.
    fn steady(&mut self, addr: u64, burst: usize, n: u64, offset: Cycle, done: Cycle) -> Cycle {
        let t = self.timing;
        let row = u64::from(t.row_bytes);
        let (b, end) = (burst as u64, addr + n * burst as u64);
        let misses = (end - 1) / row - (addr - 1) / row;
        // The first burst in the row phase's period to start on a
        // boundary, if any does; every period repeats it once.
        let period = row / crate::cdc::gcd(b, row);
        let aligned = (0..n.min(period))
            .find(|j| (addr + j * b).is_multiple_of(row))
            .map_or(0, |j| (n - 1 - j) / period + 1);
        let busy = n * (t.controller + t.cas + self.beats(burst)) + misses * (t.rp + t.rcd);
        self.stats.bursts += n;
        self.stats.row_hits += n - aligned;
        self.stats.row_misses += misses;
        self.stats.busy_cycles += busy;
        self.open_row = Some(((end - 1) / row) as u32);
        self.busy_until = done + n * offset + busy;
        self.busy_until
    }
}

impl Reset for DramTimeline {
    fn reset(&mut self) {
        *self = DramTimeline::new(self.timing);
    }
}

impl Target for DramTimeline {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let done_at = self.beat(req.addr, req.is_write(), u64::from(req.size.bytes()), now);
        Ok(Response::ack(done_at))
    }

    fn burst(
        &mut self,
        addr: u32,
        mut payload: Payload<'_>,
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        Ok(self.train(addr, &mut payload, now).0)
    }
}

/// The DRAM device.
///
/// Its contents are backed on the first byte stored or copied out, not
/// at construction: until then every byte reads as zero, [`Dram::peek`]
/// hands back zeros, and resets have nothing to zero. A device that
/// only ever sees length-only trains — a timing-only, unlogged VP
/// replay — never maps its storage. Once backed, it is the whole size,
/// zeroed, so no later store grows it.
#[derive(Debug, Clone)]
pub struct Dram {
    /// The contents: empty until backed, then `size` bytes.
    data: Vec<u8>,
    size: usize,
    timeline: DramTimeline,
    work: DramWork,
    /// Extents whose bytes may be nonzero (stored to since the contents
    /// were last all-zero). A length-only write stores nothing and so
    /// never enters this set.
    dirty: RangeSet,
    /// Resident weight images, disjoint from one another: preload
    /// contents that [`Reset::reset`] preserves, keyed by a caller-chosen
    /// image id ([`Dram::add_resident`]).
    resident: Vec<(u64, RangeSet)>,
    /// Extents written since residency went active (tracked only while
    /// at least one image is resident) — by data and length-only writes
    /// alike, so clobber detection cannot tell the two apart.
    run_writes: RangeSet,
    /// One-shot scoped-reset extents ([`Dram::preserve_across_reset`]):
    /// the next [`Reset::reset`] keeps these bytes (and their dirty
    /// marks) instead of zeroing them, then clears the set.
    preserve: RangeSet,
}

impl Dram {
    /// Create a zeroed DRAM of `size` bytes with the given timing.
    #[must_use]
    pub fn new(size: usize, timing: DramTiming) -> Self {
        Dram {
            data: Vec::new(),
            size,
            timeline: DramTimeline::new(timing),
            work: DramWork::default(),
            dirty: RangeSet::new(),
            resident: Vec::new(),
            run_writes: RangeSet::new(),
            preserve: RangeSet::new(),
        }
    }

    /// The device's timing parameters.
    #[must_use]
    pub fn timing(&self) -> DramTiming {
        self.timeline.timing
    }

    /// 512 MB DDR4 with MIG timing — the paper's configuration.
    #[must_use]
    pub fn zcu102() -> Self {
        Self::new(512 << 20, DramTiming::mig_ddr4())
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The contents, for moving bytes in or out: the first call backs
    /// the whole device with zeros.
    fn backed(&mut self) -> &mut [u8] {
        if self.data.is_empty() {
            self.data = vec![0; self.size];
        }
        &mut self.data
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.timeline.stats
    }

    /// Reset statistics (e.g. between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.timeline.stats = DramStats::default();
    }

    /// Host bytes moved and zeroed, and burst-loop entries, since
    /// construction.
    #[must_use]
    pub fn work(&self) -> DramWork {
        self.work
    }

    /// Record a write to `[offset, offset + len)`: always in the run
    /// tracker that clobber detection reads, and in the dirty tracker
    /// when bytes were `stored` (a length-only write leaves them as
    /// they were, so there is nothing for a reset to zero).
    fn note_write(&mut self, offset: usize, len: usize, stored: bool) {
        if stored {
            self.dirty.insert(offset, offset + len);
        }
        if !self.resident.is_empty() {
            self.run_writes.insert(offset, offset + len);
        }
    }

    /// Snapshot the current written extents as *resident*: preload
    /// contents (typically the weight image) that survive subsequent
    /// [`Reset::reset`] calls, so a compile-once/run-many caller pays
    /// the weight streaming exactly once. Replaces every existing image
    /// with a single image id 0 covering everything written so far; for
    /// several independent images use [`Dram::add_resident`].
    ///
    /// If a later run writes into a resident extent, the next reset
    /// detects the clobber, abandons that image and zeroes its extents —
    /// the caller observes [`Dram::is_resident`] go false and
    /// re-preloads.
    pub fn mark_resident(&mut self) {
        self.resident = vec![(0, self.dirty.clone())];
        self.run_writes.clear();
    }

    /// Register `extents` as resident image `id`: preload contents that
    /// survive subsequent [`Reset::reset`] calls, alongside any other
    /// registered image. The extents must already have been written
    /// (they are inserted into the dirty tracking either way) and must
    /// not overlap another image.
    ///
    /// Writes recorded since residency went active are forgiven inside
    /// `extents` (they *are* the preload), so the canonical sequence is
    /// `load` the image bytes, then `add_resident` them.
    ///
    /// # Errors
    ///
    /// [`BusError::ResidentOverlap`] if `extents` overlaps an existing
    /// image (including a previous image with the same id), or
    /// [`BusError::OutOfRange`] if it reaches past the end of the device.
    pub fn add_resident(&mut self, id: u64, extents: RangeSet) -> Result<(), BusError> {
        if let Some((s, e)) = extents.iter().find(|&(_, e)| e > self.size) {
            return Err(BusError::OutOfRange {
                addr: s as u32,
                len: e - s,
                size: self.size,
            });
        }
        if let Some(&(other, _)) = self.resident.iter().find(|(_, ext)| ext.overlaps(&extents)) {
            return Err(BusError::ResidentOverlap { image: other });
        }
        self.dirty.union_with(&extents);
        // The preload writes are protected contents, not run garbage.
        self.run_writes.subtract(&extents);
        self.resident.push((id, extents));
        Ok(())
    }

    /// Evict resident image `id`: its extents are zeroed immediately and
    /// no longer survive resets. Other images are untouched. Unknown ids
    /// are a no-op.
    pub fn remove_resident(&mut self, id: u64) {
        if let Some(i) = self.resident.iter().position(|(k, _)| *k == id) {
            let (_, extents) = self.resident.remove(i);
            self.zero_ranges(&extents);
            // The bytes are zero again: dropping them from the dirty
            // tracker keeps later resets from re-zeroing megabytes of
            // evicted weights on every frame.
            self.dirty.subtract(&extents);
            if self.resident.is_empty() {
                self.run_writes.clear();
            }
        }
    }

    /// Drop every resident mark (the next [`Reset::reset`] zeroes every
    /// written extent).
    pub fn clear_resident(&mut self) {
        self.resident.clear();
        self.run_writes.clear();
    }

    /// Scope the **next** [`Reset::reset`]: extents in `keep` survive it
    /// with their bytes and dirty marks intact, without being registered
    /// as resident images. One-shot — the reset consumes the set.
    ///
    /// This is the pipelined-frame primitive: frame N+1's input, streamed
    /// into its double-buffer slot while frame N computed, must outlive
    /// the inter-frame reset that zeroes frame N's input/activation/
    /// output extents. Unlike a resident image, a preserved extent has no
    /// identity and no clobber detection — it is whatever the last writer
    /// left there, protected exactly once.
    ///
    /// Preservation only shields bytes from the reset's zeroing; writes
    /// into *resident* images are still detected as clobbers by their own
    /// tracking, so preserving an extent can never resurrect a trampled
    /// weight image.
    pub fn preserve_across_reset(&mut self, keep: RangeSet) {
        self.preserve = keep;
    }

    /// Whether any resident image is active.
    #[must_use]
    pub fn is_resident(&self) -> bool {
        !self.resident.is_empty()
    }

    /// Whether image `id` is still resident (registered and not yet
    /// dropped by a clobbering reset or [`Dram::remove_resident`]).
    #[must_use]
    pub fn is_image_resident(&self, id: u64) -> bool {
        self.resident.iter().any(|(k, _)| *k == id)
    }

    /// Number of resident images.
    #[must_use]
    pub fn resident_images(&self) -> usize {
        self.resident.len()
    }

    /// Bytes covered by written extents (what a full reset would zero).
    #[must_use]
    pub fn dirty_bytes(&self) -> usize {
        self.dirty.total_bytes()
    }

    /// The written extents themselves (what a full reset would zero).
    #[must_use]
    pub fn dirty_extents(&self) -> &RangeSet {
        &self.dirty
    }

    /// Extents written since residency went active, data and
    /// length-only alike — what the next reset reads to find clobbered
    /// images (empty while no image is resident).
    #[must_use]
    pub fn run_writes(&self) -> &RangeSet {
        &self.run_writes
    }

    /// Zero every byte of the given range set (nothing to do while
    /// unbacked: every byte already reads as zero).
    fn zero_ranges(&mut self, ranges: &RangeSet) {
        if self.data.is_empty() {
            return;
        }
        for (s, e) in ranges.iter() {
            self.data[s..e].fill(0);
        }
        self.work.bytes_zeroed += ranges.total_bytes() as u64;
    }

    /// Backdoor bulk load (the Zynq PS preload path of Fig. 4 uses
    /// [`crate::smartconnect::SmartConnect`]; this is the zero-cycle test
    /// backdoor).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] if the image does not fit.
    pub fn load(&mut self, offset: usize, image: &[u8]) -> Result<(), BusError> {
        if offset + image.len() > self.size {
            return Err(BusError::OutOfRange {
                addr: offset as u32,
                len: image.len(),
                size: self.size,
            });
        }
        self.backed()[offset..offset + image.len()].copy_from_slice(image);
        self.work.bytes_copied += image.len() as u64;
        self.note_write(offset, image.len(), true);
        Ok(())
    }

    /// Backdoor read of memory contents: borrowed once the device is
    /// backed, else zeros (which never back it).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn peek(&self, offset: usize, len: usize) -> Cow<'_, [u8]> {
        assert!(offset + len <= self.size, "peek past the end of DRAM");
        if self.data.is_empty() {
            Cow::Owned(vec![0; len])
        } else {
            Cow::Borrowed(&self.data[offset..offset + len])
        }
    }

    fn check(&self, addr: u32, len: usize) -> Result<usize, BusError> {
        let offset = addr as usize;
        if offset + len > self.size {
            return Err(BusError::OutOfRange {
                addr,
                len,
                size: self.size,
            });
        }
        Ok(offset)
    }
}

impl Reset for Dram {
    /// Power-on reset **in place**: timing, statistics and the open-row
    /// state return to construction values, and contents return to the
    /// post-preload state — all-zero, except extents protected by
    /// [`Dram::add_resident`] / [`Dram::mark_resident`], which keep
    /// their bytes. Clobber detection is per image: an image whose
    /// extents were written into since it was registered is dropped and
    /// zeroed, while untouched images stay warm. Only the extents
    /// actually stored to are zeroed, so resetting a 512 MB device after
    /// a small-model inference costs microseconds, not a reallocation —
    /// and after a timing-only one, whose length-only writes stored
    /// nothing, only the input's worth.
    ///
    /// A set armed with [`Dram::preserve_across_reset`] additionally
    /// survives this one reset (bytes and dirty marks), scoping the
    /// zeroing to everything *else* the run wrote — the input/activation
    /// clearing of a pipelined frame boundary.
    fn reset(&mut self) {
        let keep = std::mem::take(&mut self.preserve);
        if self.resident.is_empty() {
            let mut to_zero = std::mem::take(&mut self.dirty);
            to_zero.subtract(&keep);
            self.zero_ranges(&to_zero);
            self.dirty = keep;
        } else {
            // Drop every image the run clobbered, then zero **all**
            // written bytes except the surviving images' extents. Keying
            // the zeroing on `dirty` (not on `run_writes`) guarantees
            // the post-reset invariant even for bytes written while
            // residency was momentarily inactive — e.g. between a
            // `remove_resident` and the next `add_resident` — which the
            // run tracker does not see.
            let run = std::mem::take(&mut self.run_writes);
            let survivors: Vec<(u64, RangeSet)> = std::mem::take(&mut self.resident)
                .into_iter()
                .filter(|(_, extents)| !run.overlaps(extents))
                .collect();
            let mut to_zero = std::mem::take(&mut self.dirty);
            for (_, extents) in &survivors {
                to_zero.subtract(extents);
            }
            to_zero.subtract(&keep);
            self.zero_ranges(&to_zero);
            for (_, extents) in &survivors {
                self.dirty.union_with(extents);
            }
            self.dirty.union_with(&keep);
            self.resident = survivors;
        }
        self.run_writes.clear();
        self.timeline.reset();
    }
}

impl Target for Dram {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        if !req.is_aligned() {
            return Err(BusError::Misaligned {
                addr: req.addr,
                align: req.size.bytes(),
            });
        }
        let n = req.size.bytes() as usize;
        let offset = self.check(req.addr, n)?;
        let done_at = self.timeline.beat(req.addr, req.is_write(), n as u64, now);
        self.work.bytes_copied += n as u64;
        match req.kind {
            AccessKind::Read => {
                let mut v = [0u8; 8];
                v[..n].copy_from_slice(&self.backed()[offset..offset + n]);
                Ok(Response {
                    data: u64::from_le_bytes(v),
                    done_at,
                })
            }
            AccessKind::Write(d) => {
                let bytes = d.to_le_bytes();
                self.backed()[offset..offset + n].copy_from_slice(&bytes[..n]);
                self.note_write(offset, n, true);
                Ok(Response::ack(done_at))
            }
        }
    }

    /// A train that fits runs in one pass of the timeline's burst loop,
    /// then moves its bytes with one copy and books its extent with one
    /// write record. A train that runs off the end is decided before
    /// anything moves and walked instead, so the bursts before the
    /// failing one land and the error is that burst's.
    fn burst(
        &mut self,
        addr: u32,
        mut payload: Payload<'_>,
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        let len = payload.len();
        let offset = match self.check(addr, len) {
            Ok(offset) => offset,
            Err(_) if payload.bursts() > 1 => {
                return payload.walk(addr, now, |a, p, t| self.burst(a, p, t));
            }
            Err(e) => return Err(e),
        };
        let (done, steps) = self.timeline.train(addr, &mut payload, now);
        self.work.walks += 1;
        self.work.burst_steps += steps;
        match payload.data {
            Data::Read(buf) => {
                buf.copy_from_slice(&self.backed()[offset..offset + len]);
                self.work.bytes_copied += len as u64;
            }
            Data::Write(buf) => {
                self.backed()[offset..offset + len].copy_from_slice(buf);
                self.work.bytes_copied += len as u64;
                self.note_write(offset, len, true);
            }
            Data::Len { write: true, .. } => self.note_write(offset, len, false),
            Data::Len { write: false, .. } => {}
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessSize;

    fn small() -> Dram {
        Dram::new(64 << 10, DramTiming::mig_ddr4())
    }

    #[test]
    fn round_trip() {
        let mut d = small();
        d.access(&Request::write32(0x100, 0xCAFE_F00D), 0).unwrap();
        let r = d.access(&Request::read32(0x100), 100).unwrap();
        assert_eq!(r.data32(), 0xCAFE_F00D);
    }

    #[test]
    fn row_hit_faster_than_miss() {
        let mut d = small();
        let miss = d.access(&Request::read32(0), 0).unwrap().done_at;
        let t0 = miss;
        let hit = d.access(&Request::read32(4), t0).unwrap().done_at - t0;
        assert!(
            hit < miss,
            "row hit ({hit}) must be faster than cold miss ({miss})"
        );
        // Different row: precharge + activate.
        let t1 = t0 + hit;
        let conflict = d.access(&Request::read32(8192), t1).unwrap().done_at - t1;
        assert!(
            conflict > miss,
            "row conflict ({conflict}) pays precharge too"
        );
    }

    #[test]
    fn burst_amortizes_per_byte_cost() {
        let mut d = small();
        let mut buf = vec![0u8; 4096];
        let burst = d.read_block(0, &mut buf, 0).unwrap();
        // Scattered single-beat reads of the same data.
        let mut d2 = small();
        let mut t = 0;
        for i in 0..1024u32 {
            t = d2.access(&Request::read32(i * 4), t).unwrap().done_at;
        }
        assert!(
            burst * 5 < t,
            "burst ({burst}) should be >5x cheaper than scattered reads ({t})"
        );
    }

    #[test]
    fn burst_spanning_rows_pays_extra_activations() {
        let mut d = small();
        let mut one_row = vec![0u8; 2048];
        let t1 = d.read_block(0, &mut one_row, 0).unwrap();
        let mut d2 = small();
        let mut two_rows = vec![0u8; 2048];
        // Start mid-row so the burst straddles a row boundary.
        let t2 = d2.read_block(1024, &mut two_rows, 0).unwrap();
        assert!(
            t2 > t1,
            "straddling burst ({t2}) costs more than in-row ({t1})"
        );
    }

    #[test]
    fn device_timeline_serializes_overlapping_requests() {
        let mut d = small();
        let a = d.access(&Request::read32(0), 0).unwrap().done_at;
        // Request issued "in the past" still queues behind the first.
        let b = d.access(&Request::read32(4), 0).unwrap().done_at;
        assert!(b > a);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = small();
        d.access(&Request::write32(0, 1), 0).unwrap();
        let mut buf = [0u8; 64];
        d.read_block(0, &mut buf, 0).unwrap();
        let s = d.stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.bursts, 1);
        assert_eq!(s.bytes_written, 4);
        assert_eq!(s.bytes_read, 64);
        d.reset_stats();
        assert_eq!(d.stats(), DramStats::default());
    }

    #[test]
    fn double_width_access() {
        let mut d = small();
        d.access(
            &Request::write(8, 0x1122_3344_5566_7788, AccessSize::Double),
            0,
        )
        .unwrap();
        let r = d
            .access(&Request::read(8, AccessSize::Double), 200)
            .unwrap();
        assert_eq!(r.data, 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_range() {
        let mut d = Dram::new(4096, DramTiming::mig_ddr4());
        assert!(d.access(&Request::read32(4096), 0).is_err());
        let mut buf = [0u8; 8];
        assert!(d.read_block(4092, &mut buf, 0).is_err());
    }

    #[test]
    fn rangeset_coalesces_and_measures() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.len(), 2);
        r.insert(20, 30); // touches both -> one range
        assert_eq!(r.len(), 1);
        assert_eq!(r.total_bytes(), 30);
        r.insert(5, 12); // overlap extends left
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(5, 40)]);
        r.insert(100, 100); // empty range ignored
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rangeset_overlap_is_strict() {
        let mut a = RangeSet::new();
        a.insert(0, 64);
        a.insert(128, 192);
        let mut b = RangeSet::new();
        b.insert(64, 128); // touches both, overlaps neither
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
        b.insert(191, 200);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn rangeset_remove_splits_and_trims() {
        let mut r = RangeSet::new();
        r.insert(0, 100);
        r.remove(40, 60); // split in two
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        r.remove(0, 10); // trim left edge
        r.remove(90, 200); // trim right edge past the end
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 40), (60, 90)]);
        r.remove(0, 5); // disjoint below: no-op
        r.remove(45, 50); // in the gap: no-op
        r.remove(50, 40); // empty range: no-op
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 40), (60, 90)]);
        r.remove(0, 1000); // covers everything
        assert!(r.is_empty());
    }

    #[test]
    fn rangeset_subtract_and_union() {
        let mut a = RangeSet::new();
        a.insert(0, 50);
        a.insert(100, 150);
        let mut b = RangeSet::new();
        b.insert(20, 120);
        let mut diff = a.clone();
        diff.subtract(&b);
        assert_eq!(diff.iter().collect::<Vec<_>>(), vec![(0, 20), (120, 150)]);
        let mut uni = a.clone();
        uni.union_with(&b);
        assert_eq!(uni.iter().collect::<Vec<_>>(), vec![(0, 150)]);
    }

    fn extents(ranges: &[(usize, usize)]) -> RangeSet {
        let mut r = RangeSet::new();
        for &(s, e) in ranges {
            r.insert(s, e);
        }
        r
    }

    #[test]
    fn two_resident_images_survive_reset_independently() {
        let mut d = small();
        d.load(0x100, &[1, 2, 3, 4]).unwrap();
        d.add_resident(7, extents(&[(0x100, 0x104)])).unwrap();
        d.load(0x800, &[5, 6, 7, 8]).unwrap();
        d.add_resident(8, extents(&[(0x800, 0x804)])).unwrap();
        assert_eq!(d.resident_images(), 2);
        // A run writes scratch data, then the fabric resets.
        d.write_block(0x2000, &[9; 64], 0).unwrap();
        d.reset();
        assert_eq!(*d.peek(0x100, 4), [1, 2, 3, 4], "image 7 warm");
        assert_eq!(*d.peek(0x800, 4), [5, 6, 7, 8], "image 8 warm");
        assert!(d.peek(0x2000, 64).iter().all(|&b| b == 0));
        assert_eq!(d.dirty_bytes(), 8, "only the two images stay dirty");
    }

    #[test]
    fn clobbering_one_image_keeps_the_other_warm() {
        let mut d = small();
        d.load(0x100, &[1, 2, 3, 4]).unwrap();
        d.add_resident(7, extents(&[(0x100, 0x104)])).unwrap();
        d.load(0x800, &[5, 6, 7, 8]).unwrap();
        d.add_resident(8, extents(&[(0x800, 0x804)])).unwrap();
        // The run tramples image 7's weights.
        d.access(&Request::write32(0x100, 0xDEAD_BEEF), 0).unwrap();
        d.reset();
        assert!(!d.is_image_resident(7), "clobbered image dropped");
        assert!(d.is_image_resident(8), "untouched image survives");
        assert!(
            d.peek(0x100, 4).iter().all(|&b| b == 0),
            "dropped image fully zeroed"
        );
        assert_eq!(*d.peek(0x800, 4), [5, 6, 7, 8]);
    }

    #[test]
    fn overlapping_image_registration_rejected() {
        let mut d = small();
        d.load(0x100, &[1; 64]).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x140)])).unwrap();
        let e = d.add_resident(2, extents(&[(0x13c, 0x200)])).unwrap_err();
        assert!(matches!(e, BusError::ResidentOverlap { image: 1 }));
        // Touching (not overlapping) images are fine.
        d.load(0x140, &[2; 16]).unwrap();
        d.add_resident(2, extents(&[(0x140, 0x150)])).unwrap();
        assert_eq!(d.resident_images(), 2);
        // Past the end of the device is rejected outright.
        let far = d.size();
        let e = d.add_resident(3, extents(&[(far, far + 4)])).unwrap_err();
        assert!(matches!(e, BusError::OutOfRange { .. }));
    }

    #[test]
    fn remove_resident_zeroes_and_keeps_others() {
        let mut d = small();
        d.load(0x100, &[1, 2, 3, 4]).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
        d.load(0x800, &[5, 6, 7, 8]).unwrap();
        d.add_resident(2, extents(&[(0x800, 0x804)])).unwrap();
        d.remove_resident(1);
        assert!(!d.is_image_resident(1));
        assert!(d.peek(0x100, 4).iter().all(|&b| b == 0), "evicted = zeroed");
        d.reset();
        assert_eq!(*d.peek(0x800, 4), [5, 6, 7, 8], "other image still warm");
        d.remove_resident(99); // unknown id: no-op
        assert_eq!(d.resident_images(), 1);
    }

    #[test]
    fn reset_zeroes_bytes_written_while_residency_was_inactive() {
        // Regression: writes that land while no image is resident are
        // not in `run_writes`; a later resident-mode reset must still
        // zero them (the zeroing keys on `dirty`, not the run tracker).
        let mut d = small();
        d.load(0x100, &[1, 2, 3, 4]).unwrap();
        d.load(0x900, &[9, 9, 9, 9]).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
        d.reset();
        assert!(d.is_image_resident(1));
        assert_eq!(*d.peek(0x100, 4), [1, 2, 3, 4]);
        assert!(
            d.peek(0x900, 4).iter().all(|&b| b == 0),
            "pre-residency write must be zeroed by reset"
        );
        assert_eq!(d.dirty_bytes(), 4, "only the image stays dirty");
        // The same invariant across an unload → re-register gap.
        d.load(0x2000, &[7; 8]).unwrap(); // run garbage (tracked)
        d.remove_resident(1); // residency momentarily inactive
        d.load(0x800, &[5, 6, 7, 8]).unwrap(); // untracked
        d.add_resident(2, extents(&[(0x800, 0x804)])).unwrap();
        d.reset();
        assert!(d.is_image_resident(2));
        assert_eq!(*d.peek(0x800, 4), [5, 6, 7, 8]);
        assert!(d.peek(0x2000, 8).iter().all(|&b| b == 0));
        assert_eq!(d.dirty_bytes(), 4);
    }

    #[test]
    fn preload_writes_are_not_run_garbage() {
        // Loading image B while image A is resident must not count as a
        // clobbering run write against B itself.
        let mut d = small();
        d.load(0x100, &[1; 4]).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
        d.load(0x800, &[2; 4]).unwrap();
        d.add_resident(2, extents(&[(0x800, 0x804)])).unwrap();
        d.reset();
        assert!(d.is_image_resident(1));
        assert!(d.is_image_resident(2), "own preload writes forgiven");
        assert_eq!(*d.peek(0x800, 4), [2; 4]);
    }

    #[test]
    fn reset_zeroes_only_written_extents_in_place() {
        let mut d = small();
        d.load(0x100, &[1, 2, 3, 4]).unwrap();
        d.access(&Request::write32(0x2000, 0xAAAA_AAAA), 0).unwrap();
        d.write_block(0x4000, &[0xFF; 64], 100).unwrap();
        assert_eq!(d.dirty_bytes(), 4 + 4 + 64);
        d.reset();
        assert_eq!(d.dirty_bytes(), 0);
        // Contents, timing and stats all back to power-on.
        assert!(d.peek(0, d.size()).iter().all(|&b| b == 0));
        assert_eq!(d.stats(), DramStats::default());
        let fresh = small().access(&Request::read32(0x100), 0).unwrap();
        let after = d.access(&Request::read32(0x100), 0).unwrap();
        assert_eq!(after.done_at, fresh.done_at, "cold row state restored");
    }

    /// A length-only burst is the data burst minus the `memcpy`: same
    /// completion cycles, statistics, `OutOfRange` and clobber verdict;
    /// the bytes stay where they were, so its dirty set is the data
    /// run's minus extents that hold only zeros, and its reset has that
    /// much less to zero.
    #[test]
    fn length_only_bursts_keep_the_books_and_leave_the_bytes() {
        let run = |data: bool| {
            let mut d = small();
            d.load(0x100, &[9, 8, 7, 6]).unwrap();
            d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
            d.load(0x800, &[5; 4]).unwrap();
            d.add_resident(2, extents(&[(0x800, 0x804)])).unwrap();
            let mut buf = [0u8; 64];
            let (read, write, clobber) = if data {
                (
                    d.burst(0x100, Payload::read(&mut buf), 0),
                    d.burst(0x3000, Payload::write(&[7; 48]), 40),
                    d.burst(0x7FE, Payload::write(&[7; 4]), 90),
                )
            } else {
                (
                    d.burst(0x100, Payload::length_only(64, false), 0),
                    d.burst(0x3000, Payload::length_only(48, true), 40),
                    d.burst(0x7FE, Payload::length_only(4, true), 90),
                )
            };
            let past_end = d.burst(0xFFF0, Payload::length_only(64, true), 0);
            let books = (read, write, clobber, past_end, d.stats());
            let dirty = d.dirty_extents().clone();
            let stored = d.peek(0x3000, 48).to_vec();
            let work = d.work();
            d.reset();
            let zeroed = d.work().bytes_zeroed - work.bytes_zeroed;
            assert_eq!(*d.peek(0x100, 4), [9, 8, 7, 6], "image 1 survives");
            assert!(d.peek(0x104, d.size() - 0x104).iter().all(|&b| b == 0));
            let resident = (d.is_image_resident(1), d.is_image_resident(2));
            (books, resident, dirty, stored, work.bytes_copied, zeroed)
        };
        let (data_books, data_res, data_dirty, data_stored, data_copied, data_zeroed) = run(true);
        let (len_books, len_res, len_dirty, len_stored, len_copied, len_zeroed) = run(false);
        assert_eq!(len_books, data_books);
        assert!(matches!(len_books.3, Err(BusError::OutOfRange { .. })));
        assert_eq!(len_res, data_res);
        assert_eq!(
            len_res,
            (true, false),
            "the write into image 2 is a clobber either way"
        );
        assert_eq!(data_stored, [7; 48]);
        assert_eq!(len_stored, [0; 48], "no bytes moved");
        // Only the two preloaded images are dirty in the length-only
        // run; the data run adds what its two writes stored.
        assert_eq!(len_dirty, extents(&[(0x100, 0x104), (0x800, 0x804)]));
        let mut union = data_dirty.clone();
        union.union_with(&len_dirty);
        assert_eq!(union, data_dirty, "length-only dirty is a subset");
        assert_eq!(data_dirty.total_bytes(), 4 + 48 + 6);
        assert_eq!((len_copied, data_copied), (8, 8 + 64 + 48 + 4));
        assert_eq!((len_zeroed, data_zeroed), (4, 48 + 6));
    }

    #[test]
    fn reset_preserves_resident_extents() {
        let mut d = small();
        d.load(0x100, &[9, 8, 7, 6]).unwrap(); // "weights"
        d.mark_resident();
        d.load(0x2000, &[1, 1, 1, 1]).unwrap(); // "input"
        d.write_block(0x3000, &[2; 32], 0).unwrap(); // "activations"
        d.reset();
        assert!(d.is_resident());
        assert_eq!(*d.peek(0x100, 4), [9, 8, 7, 6], "weights survive");
        assert!(d.peek(0x2000, 4).iter().all(|&b| b == 0));
        assert!(d.peek(0x3000, 32).iter().all(|&b| b == 0));
        assert_eq!(d.dirty_bytes(), 4, "only the resident extent is dirty");
    }

    #[test]
    fn clobbering_resident_extent_abandons_residency() {
        let mut d = small();
        d.load(0x100, &[9, 8, 7, 6]).unwrap();
        d.mark_resident();
        d.access(&Request::write32(0x100, 0xDEAD_BEEF), 0).unwrap();
        d.reset();
        assert!(!d.is_resident(), "clobbered weights cannot stay resident");
        assert!(d.peek(0x100, 4).iter().all(|&b| b == 0));
        assert_eq!(d.dirty_bytes(), 0);
    }

    #[test]
    fn preserve_across_reset_is_scoped_and_one_shot() {
        let mut d = small();
        d.load(0x100, &[9, 8, 7, 6]).unwrap(); // weights
        d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
        d.load(0x2000, &[1; 8]).unwrap(); // staged next input
        d.load(0x3000, &[2; 8]).unwrap(); // this frame's activations
        d.preserve_across_reset(extents(&[(0x2000, 0x2008)]));
        d.reset();
        assert_eq!(*d.peek(0x100, 4), [9, 8, 7, 6], "weights warm");
        assert_eq!(*d.peek(0x2000, 8), [1; 8], "staged input survives");
        assert!(d.peek(0x3000, 8).iter().all(|&b| b == 0), "scratch zeroed");
        assert_eq!(d.dirty_bytes(), 4 + 8, "image + preserved stay dirty");
        // One-shot: the next reset zeroes the previously preserved slot.
        d.reset();
        assert!(d.peek(0x2000, 8).iter().all(|&b| b == 0));
        assert_eq!(*d.peek(0x100, 4), [9, 8, 7, 6]);
    }

    #[test]
    fn preserve_without_residency_also_scopes_the_zeroing() {
        let mut d = small();
        d.load(0x400, &[5; 4]).unwrap();
        d.load(0x800, &[6; 4]).unwrap();
        d.preserve_across_reset(extents(&[(0x400, 0x404)]));
        d.reset();
        assert_eq!(*d.peek(0x400, 4), [5; 4]);
        assert!(d.peek(0x800, 4).iter().all(|&b| b == 0));
        assert_eq!(d.dirty_bytes(), 4);
    }

    #[test]
    fn preserve_cannot_resurrect_a_clobbered_image() {
        let mut d = small();
        d.load(0x100, &[1; 4]).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x104)])).unwrap();
        // The run tramples the image; preserving an unrelated extent
        // must not stop the clobber detection from dropping it.
        d.access(&Request::write32(0x100, 0xDEAD_BEEF), 0).unwrap();
        d.load(0x2000, &[7; 4]).unwrap();
        d.preserve_across_reset(extents(&[(0x2000, 0x2004)]));
        d.reset();
        assert!(!d.is_image_resident(1), "clobbered image still dropped");
        assert!(d.peek(0x100, 4).iter().all(|&b| b == 0));
        assert_eq!(*d.peek(0x2000, 4), [7; 4]);
    }

    /// The open-row model by hand, for a burst as the first post-reset
    /// transaction: controller 8 + CAS 11, an activate per row touched
    /// (RCD 11 for the first, RP + RCD 22 for each row it then
    /// replaces), one cycle per 4-byte beat.
    #[test]
    fn burst_timing_follows_the_open_row_model() {
        for (addr, len, cycles) in [
            (0u32, 64usize, 19 + 11 + 16),
            (0x100, 784, 19 + 11 + 196),
            (1024, 3072, 19 + 11 + 22 + 768),
            (2040, 16, 19 + 11 + 22 + 4), // straddles a row boundary
            (4096, 4096, 19 + 11 + 22 + 1024),
            (0, 0, 19 + 11),
        ] {
            let mut d = small();
            let buf = vec![0xA5; len];
            let done = d.write_block(addr, &buf, 0).unwrap();
            assert_eq!(done, cycles, "addr {addr:#x} len {len}");
        }
    }

    /// A train is its walk: one burst-loop entry instead of one per
    /// burst, the same completion, statistics, contents and extents —
    /// and a train that runs off the end lands the bursts before the
    /// failing one and fails with that burst's error.
    #[test]
    fn a_train_is_its_walk_in_one_entry() {
        for (addr, len) in [(0x7C0u32, 3000usize), (0xF000, 0x2000)] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8 | 1).collect();
            let mut walked = small();
            let mut want = Ok(0);
            let mut t = 5;
            for off in (0..len).step_by(128) {
                let end = (off + 128).min(len);
                want = walked.write_block(addr + off as u32, &bytes[off..end], t);
                match want {
                    Ok(done) => t = done,
                    Err(_) => break,
                }
            }
            let mut train = small();
            let got = train.burst(addr, Payload::write(&bytes).in_bursts(128), 5);
            assert_eq!(got, want, "addr {addr:#x}");
            assert_eq!(train.stats(), walked.stats());
            assert_eq!(train.dirty_extents(), walked.dirty_extents());
            assert_eq!(train.peek(0, train.size()), walked.peek(0, walked.size()));
            let entries = (train.work().walks, walked.work().walks);
            let steps = (train.work().burst_steps, walked.work().burst_steps);
            if want.is_ok() {
                assert_eq!(entries, (1, len.div_ceil(128) as u64));
                assert_eq!(
                    steps,
                    (2, len.div_ceil(128) as u64),
                    "first and last stepped"
                );
            } else {
                assert_eq!(entries.0, entries.1, "an overrun train is walked");
                assert_eq!(steps.0, steps.1, "an overrun train steps every burst");
            }
        }
    }

    /// Trains down the SoC's DRAM path against their walks, burst by
    /// burst, with the SoC clock at one to four times the memory clock
    /// (the closed form) and at 1.5 times (the loop): bursts that span
    /// two or three rows, that do not divide the row, of one or three
    /// bytes (a row phase longer than the train, and one that wraps),
    /// unaligned starts, short last bursts, a row another master left
    /// open and that master's reservation still holding the bus when
    /// the train arrives, then a second train behind the first.
    /// Completions, `DramStats`, both masters' `PortStats` and the
    /// crossings equal the walk's field by field; the closed form
    /// steps each train's first and last burst.
    #[test]
    fn trains_down_the_dram_path_are_their_walks() {
        use crate::arbiter::{Arbiter, PortStats};
        use crate::cdc::ClockCrossing;
        use crate::smartconnect::{Side, SmartConnect};
        use crate::MasterId;

        type Books = (Vec<Cycle>, DramStats, [PortStats; 2], u64, u64);
        let run = |soc_mhz: u64, addr: u32, len: usize, burst: usize, walked: bool| -> Books {
            let mut mux = SmartConnect::new(small());
            mux.switch_to(Side::Soc);
            let mut a = Arbiter::new(ClockCrossing::new(mux, soc_mhz * 1_000_000, 100_000_000, 2));
            // The CPU opens the train's first row and holds the bus
            // past the train's arrival at cycle 5.
            a.access(&Request::read32(addr & !3), 0).unwrap();
            let mut dones = Vec::new();
            let mut now = 5;
            for (at, write) in [(addr, true), (addr + len as u32, false)] {
                now = if walked {
                    (0..len).step_by(burst).fold(now, |t, off| {
                        let n = burst.min(len - off);
                        let p = Payload::length_only(n, write);
                        a.burst(at + off as u32, p, t).unwrap()
                    })
                } else {
                    let p = Payload::length_only(len, write).in_bursts(burst);
                    a.burst(at, p, now).unwrap()
                };
                dones.push(now);
            }
            let ports = [MasterId::Cpu, MasterId::NvdlaDbb].map(|m| a.port_stats(m));
            let crossings = a.downstream_mut().crossings();
            let dram = a.downstream_mut().downstream_mut().dram_mut();
            (
                dones,
                dram.stats(),
                ports,
                crossings,
                dram.work().burst_steps,
            )
        };
        for soc_mhz in [100, 200, 300, 400, 150] {
            for (addr, len, burst) in [
                (0x7C0, 3000, 768),
                (0x803, 9000, 768),
                (0x1000, 8192, 2048),
                (0x1100, 8192, 2048),
                (0xFFF, 10_000, 3000),
                (0x2004, 1001, 100),
                (0x3001, 700, 1),
                (0x4002, 7000, 3),
            ] {
                let case = format!("{soc_mhz} MHz, {len} B at {addr:#x} in {burst} B bursts");
                let (train, walk) = (
                    run(soc_mhz, addr, len, burst, false),
                    run(soc_mhz, addr, len, burst, true),
                );
                assert_eq!(train.0, walk.0, "completions: {case}");
                assert_eq!(train.1, walk.1, "DramStats: {case}");
                assert_eq!(train.2, walk.2, "PortStats: {case}");
                assert_eq!(train.3, walk.3, "crossings: {case}");
                let bursts = 2 * len.div_ceil(burst) as u64;
                assert_eq!(walk.4, bursts, "a walk steps every burst: {case}");
                let closed = soc_mhz % 100 == 0;
                assert_eq!(train.4, if closed { 4 } else { bursts }, "steps: {case}");
            }
        }
    }

    /// The closed form by hand, on a timeline with no layers above:
    /// five 768 B bursts from 0x7C0 on 2 KiB rows. The first opens row
    /// 0 and crosses into row 1 (RCD, then RP + RCD); the three middle
    /// ones start at 0xAC0, 0xDC0 and 0x10C0 — mid-row each, so each
    /// hits, and the second of them crosses into row 2 — and the last
    /// starts at 0x13C0 and ends in row 2.
    #[test]
    fn steady_bursts_follow_the_row_phase() {
        let mut t = DramTimeline::new(DramTiming::mig_ddr4());
        let done = t
            .burst(
                0x7C0,
                Payload::length_only(5 * 768, false).in_bursts(768),
                0,
            )
            .unwrap();
        let each = 19 + 192;
        assert_eq!(done, 5 * each + 11 + 22 + 22);
        let s = t.stats;
        assert_eq!((s.bursts, s.row_hits, s.row_misses), (5, 4, 3));
        assert_eq!(s.busy_cycles, done);
        assert_eq!(t.open_row, Some(2));
    }

    /// Length-only trains, resets, residency marks and peeks store
    /// nothing, so they leave the device unbacked, every byte reading
    /// zero and nothing copied or zeroed.
    #[test]
    fn a_device_that_stores_nothing_stays_unbacked() {
        let mut d = small();
        let read = Payload::length_only(4096, false).in_bursts(256);
        d.burst(0x100, read, 0).unwrap();
        d.burst(0x3000, Payload::length_only(64, true), 0).unwrap();
        d.add_resident(1, extents(&[(0x100, 0x200)])).unwrap();
        d.reset();
        d.remove_resident(1);
        d.reset();
        assert!(d.peek(0, d.size()).iter().all(|&b| b == 0));
        assert!(d.data.is_empty(), "nothing stored, nothing backed");
        assert_eq!(
            (d.size(), d.work().bytes_copied, d.work().bytes_zeroed),
            (64 << 10, 0, 0)
        );
    }

    /// The first data write, backdoor load or CPU beat — read or write
    /// — backs the whole device, and every byte then reads back as it
    /// was stored, with zeros everywhere else.
    #[test]
    fn the_first_byte_moved_backs_the_device() {
        // Each first move, and how many sevens it stores at 0x10.
        type Move = fn(&mut Dram);
        let first: [(Move, usize); 4] = [
            (
                |d| {
                    d.burst(0x10, Payload::write(&[7; 32]), 0).unwrap();
                },
                32,
            ),
            (|d| d.load(0x10, &[7; 32]).unwrap(), 32),
            (
                |d| {
                    d.access(&Request::write32(0x10, 0x0707_0707), 0).unwrap();
                },
                4,
            ),
            (
                |d| {
                    d.access(&Request::read32(0x10), 0).unwrap();
                },
                0,
            ),
        ];
        for (i, (moved, stored)) in first.into_iter().enumerate() {
            let mut d = small();
            moved(&mut d);
            assert_eq!(d.data.len(), d.size(), "case {i} backs all of it");
            let mut want = vec![0u8; d.size()];
            want[0x10..0x10 + stored].fill(7);
            d.load(0x8000, &[1, 2, 3]).unwrap();
            want[0x8000..0x8003].copy_from_slice(&[1, 2, 3]);
            assert!(*d.peek(0, d.size()) == want[..], "case {i}");
            let mut buf = vec![0u8; d.size()];
            d.read_block(0, &mut buf, 0).unwrap();
            assert_eq!(buf, want, "case {i}");
        }
    }

    /// Range checks do not depend on backing: every entry point fails
    /// past the end with the same error, unbacked or backed, and the
    /// failure backs nothing.
    #[test]
    fn out_of_range_is_the_same_unbacked_or_backed() {
        let errors = |d: &mut Dram| {
            let mut buf = [0u8; 8];
            [
                d.access(&Request::read32(4096), 0).map(|r| r.data),
                d.access(&Request::write32(4096, 1), 0).map(|r| r.data),
                d.read_block(4092, &mut buf, 0),
                d.write_block(4092, &[1; 8], 0),
                d.burst(4000, Payload::length_only(200, true).in_bursts(64), 0),
                d.load(4090, &[1; 8]).map(|()| 0),
                d.add_resident(1, extents(&[(4090, 4100)])).map(|()| 0),
            ]
        };
        let mut unbacked = Dram::new(4096, DramTiming::mig_ddr4());
        let got = errors(&mut unbacked);
        assert!(unbacked.data.is_empty(), "a refused store backs nothing");
        let mut backed = Dram::new(4096, DramTiming::mig_ddr4());
        backed.load(0, &[1]).unwrap();
        let want = errors(&mut backed);
        assert_eq!(got, want);
        assert!(got
            .iter()
            .all(|e| matches!(e, Err(BusError::OutOfRange { size: 4096, .. }))));
    }

    #[test]
    fn reset_timing_matches_fresh_device() {
        // A reset device must replay the exact same timeline as a new one.
        let mut used = small();
        let mut buf = vec![0u8; 4096];
        used.read_block(0, &mut buf, 0).unwrap();
        used.access(&Request::write32(8192, 7), 50).unwrap();
        used.reset();
        let mut fresh = small();
        for t in [0u64, 3, 10] {
            let a = used.access(&Request::read32(64 * t as u32), t).unwrap();
            let b = fresh.access(&Request::read32(64 * t as u32), t).unwrap();
            assert_eq!(a.done_at, b.done_at);
            assert_eq!(a.data, b.data);
        }
    }
}
