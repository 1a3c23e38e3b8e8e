//! `bus` target: seeded random programs over the SoC's composed DRAM
//! path — `Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>`
//! — checked against a host-side predicting mirror, the style of
//! `crates/bus/tests/fuzz_fabric.rs` made shrinkable: the program is
//! plain data ([`BusOp`] steps), so the delete-chunk pass can drop
//! steps and replay the remainder against a freshly-predicted mirror.
//!
//! Invariants per program: hostile accesses fail only with the exact
//! typed [`BusError`] the mirror predicts, successful reads match a
//! shadow DRAM byte-for-byte (so do the final contents), resident
//! images survive a reset exactly when the mirror saw no write land in
//! them, completion times never run backwards, the arbiter/DRAM
//! counters conserve, and a second execution of the same program
//! produces a bit-identical event fingerprint.
//!
//! **Length-only differential.** Every program also runs with each
//! burst's `len_only` flag flipped — data bursts become length-only
//! ones and the reverse. A length-only burst is the data burst minus
//! the `memcpy`, so the two runs must agree on every completion cycle
//! and typed error, on the arbiter port, DRAM and fault-shim counters
//! and on which resident images survive each reset; their final
//! contents may differ only inside burst writes, which carried bytes in
//! exactly one of the two runs. The fault shim runs an armed
//! latency-spike plan, so "draws from the lottery exactly once" is part
//! of what must agree.
//!
//! The dirty extents are *not* part of that agreement: a length-only
//! write stores nothing, so it marks nothing for the next reset to
//! zero. Each run is instead held to the mirror's model of what an
//! all-data run marks (`Residency::written`): the device's dirty set
//! is a subset of it, every byte in the difference is zero, and after
//! every reset the whole device equals the shadow — zero outside the
//! surviving images.

use rvnv_bus::arbiter::Arbiter;
use rvnv_bus::arbiter::PortStats;
use rvnv_bus::cdc::ClockCrossing;
use rvnv_bus::dram::{Dram, DramStats, DramTiming, RangeSet};
use rvnv_bus::fault::{FaultInjector, FaultPlan, FaultStats};
use rvnv_bus::smartconnect::{Side, SmartConnect};
use rvnv_bus::{AccessSize, BusError, Cycle, MasterId, Payload, Request, Reset, Target};
use rvnv_util::mix64;

use crate::gen::{self, BusOp, BUS_DRAM_BYTES};
use crate::{shrink, FuzzTarget};

type DramPath = Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>;

/// Two resident images `(id, offset, len)` preloaded under every
/// program — a sixteenth of the DRAM each, so random writes clobber
/// one often enough for the survival bookkeeping to matter.
const IMAGES: [(u64, usize, usize); 2] = [(1, 0x2_0000, 0x1_0000), (2, 0x8_0000, 0x1_0000)];

fn image_bytes(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|j| mix64(id ^ j as u64) as u8 | 1).collect()
}

fn build_path() -> DramPath {
    let mut dram = Dram::new(BUS_DRAM_BYTES, DramTiming::mig_ddr4());
    for (id, offset, len) in IMAGES {
        dram.load(offset, &image_bytes(id, len))
            .expect("image fits");
        let mut extents = RangeSet::new();
        extents.insert(offset, offset + len);
        dram.add_resident(id, extents).expect("images are disjoint");
    }
    let mut shim = FaultInjector::new(dram);
    // Spikes only: they stretch completions, which the mirror does not
    // predict, and leave data and outcomes alone, which it does.
    shim.arm(FaultPlan {
        seed: 0xB05,
        spike_per_million: 60_000,
        spike_cycles: 23,
        ..FaultPlan::default()
    });
    let mux = SmartConnect::new(shim);
    Arbiter::new(ClockCrossing::new(mux, 100_000_000, 100_000_000, 2))
}

fn mux_of(path: &mut DramPath) -> &mut SmartConnect<FaultInjector<Dram>> {
    path.downstream_mut().downstream_mut()
}

const MASTERS: [MasterId; 3] = [MasterId::Cpu, MasterId::NvdlaDbb, MasterId::ZynqPs];
const SIZES: [AccessSize; 4] = [
    AccessSize::Byte,
    AccessSize::Half,
    AccessSize::Word,
    AccessSize::Double,
];

fn side_of(master: MasterId) -> Side {
    match master {
        MasterId::ZynqPs => Side::ZynqPs,
        MasterId::Cpu | MasterId::NvdlaDbb => Side::Soc,
    }
}

fn midx(master: MasterId) -> usize {
    match master {
        MasterId::Cpu => 0,
        MasterId::NvdlaDbb => 1,
        MasterId::ZynqPs => 2,
    }
}

/// What the mirror predicts for one single-beat transaction, in fabric
/// order: the SmartConnect gates on ownership, then DRAM checks
/// alignment, then range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ok,
    WrongSide,
    Misaligned(u32),
    OutOfRange,
}

/// The fabric's books at one instant — everything a length-only burst
/// must keep exactly as the data burst it stands for would.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Books {
    ports: [PortStats; 3],
    dram: DramStats,
    faults: FaultStats,
    resident: [bool; 2],
}

fn books(path: &mut DramPath) -> Books {
    let ports = MASTERS.map(|m| path.port_stats(m));
    let shim = mux_of(path).dram_mut();
    Books {
        ports,
        dram: shim.inner().stats(),
        faults: shim.stats(),
        resident: IMAGES.map(|(id, ..)| shim.inner().is_image_resident(id)),
    }
}

/// Hold the device's dirty set to `written`, the extents an all-data
/// run would have marked: it may fall short of them only by extents
/// that length-only writes covered, which therefore hold zeros.
fn check_dirty(path: &mut DramPath, written: &RangeSet) -> Result<(), String> {
    let dram = mux_of(path).dram_mut().inner();
    let mut extra = dram.dirty_extents().clone();
    extra.subtract(written);
    if let Some((s, e)) = extra.iter().next() {
        return Err(format!(
            "dirty extent {s:#x}..{e:#x} lies outside everything written"
        ));
    }
    let mut unmarked = written.clone();
    unmarked.subtract(dram.dirty_extents());
    for (s, e) in unmarked.iter() {
        if dram.peek(s, e - s).iter().any(|&b| b != 0) {
            return Err(format!(
                "nonzero bytes in {s:#x}..{e:#x}, written but not marked dirty"
            ));
        }
    }
    Ok(())
}

/// What one execution of a program leaves behind.
struct Outcome {
    /// Event fingerprint (completion cycles, read data, error sites).
    fp: u64,
    /// Per transaction, in order: completion cycle or typed error.
    timeline: Vec<Result<Cycle, BusError>>,
    /// [`Books`] before and after every reset, and around a final one.
    books: Vec<Books>,
    /// DRAM contents when the program ended.
    contents: Vec<u8>,
    /// Burst writes that succeeded since the last reset.
    burst_writes: RangeSet,
}

/// The mirror's model of the resident images — alive until a reset
/// finds a write landed in them — and of the dirty set of an all-data
/// run: the surviving images plus every write since the last reset,
/// whether or not it carried bytes.
struct Residency {
    alive: [bool; 2],
    clobbered: [bool; 2],
    written: RangeSet,
}

impl Residency {
    fn note_write(&mut self, addr: usize, len: usize) {
        self.written.insert(addr, addr + len);
        for (i, (_, offset, size)) in IMAGES.into_iter().enumerate() {
            if len > 0 && addr < offset + size && offset < addr + len {
                self.clobbered[i] |= self.alive[i];
            }
        }
    }

    /// Apply a reset to the mirror: survivors keep their bytes,
    /// everything else zeroes.
    fn reset(&mut self, shadow: &mut [u8]) {
        shadow.fill(0);
        self.written.clear();
        for (i, (id, offset, len)) in IMAGES.into_iter().enumerate() {
            self.alive[i] &= !self.clobbered[i];
            self.clobbered[i] = false;
            if self.alive[i] {
                shadow[offset..offset + len].copy_from_slice(&image_bytes(id, len));
                self.written.insert(offset, offset + len);
            }
        }
    }
}

/// Reset the fabric and the mirror together, recording the books on
/// both sides of it and holding the device to the mirror's survivors,
/// dirty model and — after the reset — contents: zero everywhere but
/// the surviving images.
fn reset_both(
    path: &mut DramPath,
    shadow: &mut [u8],
    residency: &mut Residency,
    log: &mut Vec<Books>,
) -> Result<(), String> {
    log.push(books(path));
    check_dirty(path, &residency.written).map_err(|m| format!("before reset: {m}"))?;
    path.reset();
    residency.reset(shadow);
    let after = books(path);
    if after.resident != residency.alive {
        return Err(format!(
            "resident images after reset {:?}, mirror predicted {:?}",
            after.resident, residency.alive
        ));
    }
    check_dirty(path, &residency.written).map_err(|m| format!("after reset: {m}"))?;
    if mux_of(path).dram_mut().inner().peek(0, BUS_DRAM_BYTES) != shadow {
        return Err("reset left nonzero bytes outside the surviving images".into());
    }
    log.push(after);
    Ok(())
}

/// Deliberate oracle mutations, used only by the harness's own
/// planted-bug tests to prove the fuzzer catches and shrinks a real
/// oracle violation. Never set outside tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The faithful mirror.
    #[default]
    None,
    /// Predict that misaligned single beats succeed — the mirror bug
    /// the fuzzer must catch and shrink to a one-op program.
    IgnoreAlignment,
}

/// The predicting-mirror fabric target.
#[derive(Default)]
pub struct BusTarget {
    /// Planted-bug knob for the harness's own tests.
    #[doc(hidden)]
    pub mutation: Mutation,
}

impl BusTarget {
    fn classify(&self, owner: Side, master: MasterId, addr: u32, size: AccessSize) -> Expect {
        let n = size.bytes();
        if side_of(master) != owner {
            Expect::WrongSide
        } else if !addr.is_multiple_of(n) && self.mutation != Mutation::IgnoreAlignment {
            Expect::Misaligned(n)
        } else if addr as usize + n as usize > BUS_DRAM_BYTES {
            Expect::OutOfRange
        } else {
            Expect::Ok
        }
    }

    /// Execute the program once — with every burst's `len_only` flag
    /// inverted when `flip` — checking every prediction.
    fn execute(&self, ops: &[BusOp], flip: bool) -> Result<Outcome, String> {
        let mut path = build_path();
        mux_of(&mut path).switch_to(Side::Soc);
        let mut owner = Side::Soc;
        let mut shadow = vec![0u8; BUS_DRAM_BYTES];
        let mut residency = Residency {
            alive: [true; 2],
            clobbered: [false; 2],
            written: RangeSet::new(),
        };
        residency.reset(&mut shadow);
        let mut timeline = Vec::new();
        let mut log = Vec::new();
        let mut burst_writes = RangeSet::new();
        let mut attempts = [0u64; 3];
        let mut ok_bytes = [0u64; 3];
        let (mut singles_ok, mut bursts_ok) = (0u64, 0u64);
        let mut now: Cycle = 0;
        let mut fp = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                BusOp::Single {
                    master,
                    write,
                    addr,
                    size,
                    data,
                } => {
                    let master = MASTERS[master as usize % 3];
                    let size = SIZES[size as usize % 4];
                    let n = size.bytes();
                    let req = if write {
                        Request::write(addr, data, size)
                    } else {
                        Request::read(addr, size)
                    }
                    .with_master(master);
                    let expect = self.classify(owner, master, addr, size);
                    let mi = midx(master);
                    attempts[mi] += 1;
                    let result = path.access(&req, now);
                    timeline.push(result.as_ref().map(|r| r.done_at).map_err(Clone::clone));
                    match result {
                        Ok(resp) => {
                            if expect != Expect::Ok {
                                return Err(format!(
                                    "op {i}: mirror predicted {expect:?} at {addr:#x}, \
                                     fabric succeeded"
                                ));
                            }
                            if resp.done_at < now {
                                return Err(format!("op {i}: time ran backwards"));
                            }
                            let (o, n) = (addr as usize, n as usize);
                            if write {
                                shadow[o..o + n].copy_from_slice(&data.to_le_bytes()[..n]);
                                residency.note_write(o, n);
                            } else {
                                let mut want = [0u8; 8];
                                want[..n].copy_from_slice(&shadow[o..o + n]);
                                if resp.data != u64::from_le_bytes(want) {
                                    return Err(format!(
                                        "op {i}: read at {addr:#x} diverged from the shadow \
                                         model ({:#x} != {:#x})",
                                        resp.data,
                                        u64::from_le_bytes(want)
                                    ));
                                }
                            }
                            ok_bytes[mi] += n as u64;
                            singles_ok += 1;
                            fp = mix64(fp ^ resp.done_at ^ resp.data.rotate_left(17));
                            now = resp.done_at;
                        }
                        Err(e) => {
                            check_error(expect, addr, &e).map_err(|m| format!("op {i}: {m}"))?;
                            fp = mix64(fp ^ u64::from(addr));
                        }
                    }
                }
                BusOp::Burst {
                    master,
                    write,
                    addr,
                    len,
                    fill,
                    len_only,
                } => {
                    // Bursts bypass the ownership gate (the SoC switches
                    // the mux before streaming), so only range can fail.
                    let master = MASTERS[master as usize % 3];
                    let len = len as usize;
                    let in_range = addr as usize + len <= BUS_DRAM_BYTES;
                    let mi = midx(master);
                    attempts[mi] += 1;
                    let result = if len_only != flip {
                        path.burst_as(master, addr, Payload::Len { len, write }, now)
                    } else if write {
                        let buf: Vec<u8> = (0..len)
                            .map(|j| (mix64(fill ^ j as u64) & 0xFF) as u8)
                            .collect();
                        let r = path.write_block_as(master, addr, &buf, now);
                        if r.is_ok() {
                            shadow[addr as usize..addr as usize + len].copy_from_slice(&buf);
                        }
                        r
                    } else {
                        let mut buf = vec![0u8; len];
                        let r = path.read_block_as(master, addr, &mut buf, now);
                        if r.is_ok() && buf != shadow[addr as usize..addr as usize + len] {
                            return Err(format!(
                                "op {i}: burst read at {addr:#x}+{len} diverged from the \
                                 shadow model"
                            ));
                        }
                        r
                    };
                    timeline.push(result.clone());
                    match result {
                        Ok(done) => {
                            if !in_range {
                                return Err(format!(
                                    "op {i}: out-of-range burst at {addr:#x}+{len} succeeded"
                                ));
                            }
                            if done < now {
                                return Err(format!("op {i}: time ran backwards"));
                            }
                            if write {
                                residency.note_write(addr as usize, len);
                                burst_writes.insert(addr as usize, addr as usize + len);
                            }
                            ok_bytes[mi] += len as u64;
                            bursts_ok += 1;
                            fp = mix64(fp ^ done);
                            now = done;
                        }
                        Err(e) => {
                            if in_range {
                                return Err(format!(
                                    "op {i}: in-range burst at {addr:#x}+{len} failed: {e}"
                                ));
                            }
                            check_error(Expect::OutOfRange, addr, &e)
                                .map_err(|m| format!("op {i}: {m}"))?;
                            fp = mix64(fp ^ u64::from(addr));
                        }
                    }
                }
                BusOp::Switch { soc } => {
                    let side = if soc { Side::Soc } else { Side::ZynqPs };
                    mux_of(&mut path).switch_to(side);
                    owner = side;
                }
                BusOp::Reset => {
                    reset_both(&mut path, &mut shadow, &mut residency, &mut log)?;
                    burst_writes.clear();
                    owner = Side::ZynqPs;
                    attempts = [0; 3];
                    ok_bytes = [0; 3];
                    singles_ok = 0;
                    bursts_ok = 0;
                    // Modeled time is the master's clock; no rewind.
                }
                BusOp::Advance(d) => now += u64::from(d),
            }
        }
        // Conservation: the fabric's books against the mirror's.
        for (mi, master) in MASTERS.iter().enumerate() {
            let s = path.port_stats(*master);
            if s.grants != attempts[mi] {
                return Err(format!(
                    "grants {} != attempts {} for {master:?}",
                    s.grants, attempts[mi]
                ));
            }
            if s.bytes != ok_bytes[mi] {
                return Err(format!(
                    "bytes {} != moved bytes {} for {master:?}",
                    s.bytes, ok_bytes[mi]
                ));
            }
        }
        let dram = mux_of(&mut path).dram_mut().inner().stats();
        if dram.accesses != singles_ok {
            return Err(format!(
                "DRAM beats {} != successful beats {singles_ok}",
                dram.accesses
            ));
        }
        if dram.bursts != bursts_ok {
            return Err(format!(
                "DRAM bursts {} != successful bursts {bursts_ok}",
                dram.bursts
            ));
        }
        let contents = mux_of(&mut path)
            .dram_mut()
            .inner()
            .peek(0, BUS_DRAM_BYTES)
            .to_vec();
        if contents != shadow {
            return Err("final DRAM contents diverged from the shadow model".into());
        }
        reset_both(&mut path, &mut shadow, &mut residency, &mut log)?;
        Ok(Outcome {
            fp,
            timeline,
            books: log,
            contents,
            burst_writes,
        })
    }
}

/// Hold a program's two executions — as generated, and with data and
/// length-only bursts swapped — to the length-only contract.
fn check_length_only_contract(a: &Outcome, b: &Outcome) -> Result<(), String> {
    if let Some(i) = (0..a.timeline.len()).find(|&i| a.timeline[i] != b.timeline[i]) {
        return Err(format!(
            "length-only swap moved transaction {i}: {:?} as generated, {:?} swapped",
            a.timeline[i], b.timeline[i]
        ));
    }
    if let Some(i) = (0..a.books.len()).find(|&i| a.books[i] != b.books[i]) {
        return Err(format!(
            "length-only swap changed the books at snapshot {i}: {:?} as generated, \
             {:?} swapped",
            a.books[i], b.books[i]
        ));
    }
    // Outside the burst writes (bytes in exactly one of the two runs)
    // the contents must be equal: compare the gaps between them.
    let mut from = 0;
    for (start, end) in (a.burst_writes.iter()).chain([(BUS_DRAM_BYTES, BUS_DRAM_BYTES)]) {
        if a.contents[from..start] != b.contents[from..start] {
            return Err(format!(
                "length-only swap changed bytes in {from:#x}..{start:#x}, which no burst \
                 write covers"
            ));
        }
        from = end;
    }
    Ok(())
}

/// Assert an error is the typed variant the mirror predicted, with the
/// payload a recovery layer would need.
fn check_error(expect: Expect, addr: u32, err: &BusError) -> Result<(), String> {
    match (expect, err) {
        (Expect::WrongSide, BusError::SlaveError { addr: a, .. }) if *a == addr => Ok(()),
        (Expect::Misaligned(n), BusError::Misaligned { addr: a, align })
            if (*a, *align) == (addr, n) =>
        {
            Ok(())
        }
        (Expect::OutOfRange, BusError::OutOfRange { size, .. }) if *size == BUS_DRAM_BYTES => {
            Ok(())
        }
        _ => Err(format!(
            "mirror predicted {expect:?} at {addr:#x}, fabric returned {err}"
        )),
    }
}

impl FuzzTarget for BusTarget {
    type Input = Vec<BusOp>;
    const NAME: &'static str = "bus";

    fn generate(&self, seed: u64) -> Vec<BusOp> {
        gen::bus_program(seed)
    }

    fn check(&self, ops: &Vec<BusOp>) -> Result<(), String> {
        let first = self.execute(ops, false)?;
        let second = self.execute(ops, false)?;
        if first.fp != second.fp {
            return Err(format!(
                "replay diverged: fingerprint {:#x} then {:#x}",
                first.fp, second.fp
            ));
        }
        let swapped = self
            .execute(ops, true)
            .map_err(|m| format!("with data and length-only bursts swapped: {m}"))?;
        check_length_only_contract(&first, &swapped)
    }

    fn shrink(&self, input: Vec<BusOp>, fails: &dyn Fn(&Vec<BusOp>) -> bool) -> Vec<BusOp> {
        shrink::shrink_elements(input, |xs| fails(&xs.to_vec()))
    }

    fn size(input: &Vec<BusOp>) -> usize {
        input.len()
    }
}
