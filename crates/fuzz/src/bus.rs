//! `bus` target: seeded random programs over the SoC's composed DRAM
//! path — `Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>`,
//! with the DBB's 64→32 `WidthConverter` in front — checked against a
//! host-side predicting mirror, the style of
//! `crates/bus/tests/fuzz_fabric.rs` made shrinkable: the program is
//! plain data ([`BusOp`] steps), so the delete-chunk pass can drop
//! steps and replay the remainder against a freshly-predicted mirror.
//!
//! Invariants per program: hostile accesses fail only with the exact
//! typed [`BusError`] the mirror predicts, successful reads match a
//! shadow DRAM byte-for-byte (so do the final contents), resident
//! images survive a reset exactly when the mirror saw no write land in
//! them, completion times never run backwards, the arbiter/DRAM
//! counters conserve burst by burst, and a second execution of the same
//! program produces a bit-identical event fingerprint. A quarter of the
//! programs preload no images, so the DRAM starts unbacked and the
//! shadow holds it to losing no byte when it backs itself.
//!
//! **Length-only differential.** Every program also runs with each
//! transfer's `len_only` flag flipped — data transfers become
//! length-only ones and the reverse. A length-only transfer is the data
//! transfer minus the `memcpy`, so the two runs must agree on every
//! completion cycle and typed error, on the arbiter port, DRAM and
//! fault-shim counters and on which resident images survive each
//! reset; their final contents may differ only inside burst writes,
//! which carried bytes in exactly one of the two runs. With the fault
//! shim armed (two programs in three), "draws from the lottery exactly
//! once per burst" is part of what must agree.
//!
//! The dirty extents are *not* part of that agreement: a length-only
//! write stores nothing, so it marks nothing for the next reset to
//! zero. Each run is instead held to the mirror's model of what an
//! all-data run marks (`Residency::written`): the device's dirty set
//! is a subset of it, every byte in the difference is zero, and after
//! every reset the whole device equals the shadow — zero outside the
//! surviving images.
//!
//! **Train differential.** Every program runs once more with each
//! block transfer walked by the harness — its constituent bursts
//! issued one at a time, each at the previous one's completion, as a
//! master without trains would — instead of handed down as one train.
//! A train is the walk minus the walking, so the two runs must agree on
//! every completion cycle and typed error (a train that runs off the
//! end of DRAM lands the bursts before the failing one and fails with
//! its error), on the books — port, DRAM and fault stats, clock
//! crossings, split beats, surviving images — and, unlike the
//! length-only swap, on the dirty and run-write extents around every
//! reset and on the final contents. Programs run at one to four times
//! the 100 MHz DDR clock, at one of the clock sweep's SoC frequencies
//! or at a random one, and with the fault shim armed (it walks each
//! train itself) or disarmed (the device runs the whole train in one
//! pass). At an integer ratio with the shim disarmed every layer
//! re-issues a train's middle bursts at a constant offset, so the
//! DRAM computes them in closed form — bursts that do not divide the
//! row, unaligned starts, short last bursts, a row the previous access
//! left open, and a lagging master ([`BusOp::Lag`]) that finds another
//! master's reservation still holding the bus all meet it there; at
//! any other ratio the crossing rounds burst by burst and the DRAM
//! steps each one. Which of the two ran is checked too: the DRAM's
//! stepped-burst counter must equal the mirror's prediction.

use rvnv_bus::arbiter::{Arbiter, PortStats};
use rvnv_bus::cdc::ClockCrossing;
use rvnv_bus::dram::{Dram, DramStats, DramTiming, RangeSet};
use rvnv_bus::fault::{FaultInjector, FaultPlan, FaultStats};
use rvnv_bus::smartconnect::{Side, SmartConnect};
use rvnv_bus::width::WidthConverter;
use rvnv_bus::{AccessSize, BusError, Cycle, MasterId, Payload, Request, Reset, Target};
use rvnv_util::mix64;

use crate::gen::{self, BusOp, BusProgram, BUS_DRAM_BYTES};
use crate::{shrink, FuzzTarget};

type DramPath = Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>;
/// The path as the DBB sees it: behind the 64→32 width converter.
type Fabric = WidthConverter<DramPath>;

/// Two resident images `(id, offset, len)` preloaded under most
/// programs ([`BusProgram::images`]) — a sixteenth of the DRAM each, so
/// random writes clobber one often enough for the survival bookkeeping
/// to matter. The other programs start on an unbacked DRAM, which the
/// first byte stored or copied out must back without losing it.
const IMAGES: [(u64, usize, usize); 2] = [(1, 0x2_0000, 0x1_0000), (2, 0x8_0000, 0x1_0000)];

fn image_bytes(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|j| mix64(id ^ j as u64) as u8 | 1).collect()
}

fn build_fabric(prog: &BusProgram) -> Fabric {
    let mut dram = Dram::new(BUS_DRAM_BYTES, DramTiming::mig_ddr4());
    if prog.images {
        for (id, offset, len) in IMAGES {
            dram.load(offset, &image_bytes(id, len))
                .expect("image fits");
            let mut extents = RangeSet::new();
            extents.insert(offset, offset + len);
            dram.add_resident(id, extents).expect("images are disjoint");
        }
    }
    let mut shim = FaultInjector::new(dram);
    if prog.armed {
        // Spikes only: they stretch completions, which the mirror does
        // not predict, and leave data and outcomes alone, which it does.
        shim.arm(FaultPlan {
            seed: 0xB05,
            spike_per_million: 60_000,
            spike_cycles: 23,
            ..FaultPlan::default()
        });
    }
    let mux = SmartConnect::new(shim);
    let soc_hz = u64::from(prog.soc_mhz.max(1)) * 1_000_000;
    let path = Arbiter::new(ClockCrossing::new(mux, soc_hz, 100_000_000, 2));
    WidthConverter::new(path, 8, 4)
}

fn arbiter(f: &mut Fabric) -> &mut DramPath {
    f.downstream_mut()
}

fn mux_of(f: &mut Fabric) -> &mut SmartConnect<FaultInjector<Dram>> {
    arbiter(f).downstream_mut().downstream_mut()
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

/// The constituent bursts `(offset, len)` of a block transfer, in issue
/// order: one burst when `burst` is 0, else bursts of at most `burst`
/// bytes — at least one, even for an empty transfer.
fn bursts_of(len: usize, burst: u16) -> Vec<(usize, usize)> {
    let most = if burst == 0 {
        len.max(1)
    } else {
        usize::from(burst)
    };
    let mut out = Vec::new();
    let mut off = 0;
    loop {
        let n = most.min(len - off);
        out.push((off, n));
        off += n;
        if off >= len {
            return out;
        }
    }
}

/// Hand one payload to the fabric on `master`'s port: the DBB's through
/// the width converter (whose block API attributes to the DBB), the
/// other masters' through their explicit arbiter ports.
fn issue(
    f: &mut Fabric,
    master: MasterId,
    addr: u32,
    payload: Payload<'_>,
    now: Cycle,
) -> Result<Cycle, BusError> {
    if master == MasterId::NvdlaDbb {
        f.burst(addr, payload, now)
    } else {
        arbiter(f).burst_as(master, addr, payload, now)
    }
}

/// Move one block transfer: as one train, or — `walked` — burst by
/// burst, each issued at the previous one's completion and the first
/// failure ending the transfer.
fn transfer(
    f: &mut Fabric,
    master: MasterId,
    addr: u32,
    mut payload: Payload<'_>,
    burst: u16,
    walked: bool,
    now: Cycle,
) -> Result<Cycle, BusError> {
    if !walked {
        if burst > 0 {
            payload = payload.in_bursts(usize::from(burst));
        }
        return issue(f, master, addr, payload, now);
    }
    let mut t = now;
    for (off, n) in bursts_of(payload.len(), burst) {
        t = issue(f, master, addr + off as u32, payload.slice(off, n), t)?;
    }
    Ok(t)
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

/// The fabric's books at one instant — everything a length-only
/// transfer must keep exactly as the data transfer it stands for, and a
/// train exactly as its walk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Books {
    ports: [PortStats; 3],
    dram: DramStats,
    faults: FaultStats,
    crossings: u64,
    beats_split: u64,
    resident: [bool; 2],
}

/// The books plus the DRAM's write trackers at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    books: Books,
    dirty: RangeSet,
    run_writes: RangeSet,
}

fn snapshot(f: &mut Fabric) -> Snapshot {
    let beats_split = f.beats_split();
    let ports = MASTERS.map(|m| arbiter(f).port_stats(m));
    let crossings = arbiter(f).downstream_mut().crossings();
    let shim = mux_of(f).dram_mut();
    let dram = shim.inner();
    Snapshot {
        books: Books {
            ports,
            dram: dram.stats(),
            faults: shim.stats(),
            crossings,
            beats_split,
            resident: IMAGES.map(|(id, ..)| dram.is_image_resident(id)),
        },
        dirty: dram.dirty_extents().clone(),
        run_writes: dram.run_writes().clone(),
    }
}

/// Hold the device's dirty set to `written`, the extents an all-data
/// run would have marked: it may fall short of them only by extents
/// that length-only writes covered, which therefore hold zeros.
fn check_dirty(f: &mut Fabric, written: &RangeSet) -> Result<(), String> {
    let dram = mux_of(f).dram_mut().inner();
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
    /// [`Snapshot`]s before and after every reset, and around a final one.
    snapshots: Vec<Snapshot>,
    /// DRAM contents when the program ended.
    contents: Vec<u8>,
    /// Burst writes that landed since the last reset.
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

/// Reset the fabric and the mirror together, recording snapshots on
/// both sides of it and holding the device to the mirror's survivors,
/// dirty model and — after the reset — contents: zero everywhere but
/// the surviving images.
fn reset_both(
    f: &mut Fabric,
    shadow: &mut [u8],
    residency: &mut Residency,
    log: &mut Vec<Snapshot>,
) -> Result<(), String> {
    log.push(snapshot(f));
    check_dirty(f, &residency.written).map_err(|m| format!("before reset: {m}"))?;
    f.reset();
    residency.reset(shadow);
    let after = snapshot(f);
    if after.books.resident != residency.alive {
        return Err(format!(
            "resident images after reset {:?}, mirror predicted {:?}",
            after.books.resident, residency.alive
        ));
    }
    check_dirty(f, &residency.written).map_err(|m| format!("after reset: {m}"))?;
    if mux_of(f).dram_mut().inner().peek(0, BUS_DRAM_BYTES) != shadow {
        return Err("reset left nonzero bytes outside the surviving images".into());
    }
    log.push(after);
    Ok(())
}

/// How one execution issues the program's block transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// As generated: each transfer is one call, a train when it has
    /// several bursts.
    AsGenerated,
    /// Data and length-only transfers swapped.
    Swapped,
    /// Every transfer walked burst by burst by the harness.
    Walked,
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

    /// Execute the program once in `mode`, checking every prediction.
    fn execute(&self, prog: &BusProgram, mode: Mode) -> Result<Outcome, String> {
        let mut f = build_fabric(prog);
        mux_of(&mut f).switch_to(Side::Soc);
        let mut owner = Side::Soc;
        let mut shadow = vec![0u8; BUS_DRAM_BYTES];
        let mut residency = Residency {
            alive: [prog.images; 2],
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
        // A train's layers re-issue at a constant offset when the SoC
        // clock is a multiple of the DDR's: the DRAM then steps only
        // its first and last burst. Cumulative, like the counter.
        let closed_form = prog.soc_mhz.is_multiple_of(100);
        let mut predicted_steps = 0u64;
        let mut now: Cycle = 0;
        let mut fp = 0u64;
        for (i, op) in prog.ops.iter().enumerate() {
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
                    let result = arbiter(&mut f).access(&req, now);
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
                    burst,
                    fill,
                    len_only,
                } => {
                    // Block transfers bypass the ownership gate (the SoC
                    // switches the mux before streaming), so only range
                    // can fail: at the first burst that runs off the end,
                    // after the bursts before it landed.
                    let master = MASTERS[master as usize % 3];
                    let len = len as usize;
                    let shape = bursts_of(len, burst);
                    let failing = (shape.iter())
                        .position(|&(off, n)| addr as usize + off + n > BUS_DRAM_BYTES);
                    let landed = failing.map_or(len, |j| shape[j].0);
                    let mi = midx(master);
                    attempts[mi] += failing.map_or(shape.len(), |j| j + 1) as u64;
                    ok_bytes[mi] += landed as u64;
                    bursts_ok += failing.unwrap_or(shape.len()) as u64;
                    let walked = mode == Mode::Walked;
                    predicted_steps += if walked || prog.armed || failing.is_some() {
                        // One burst per DRAM entry: each one is stepped.
                        failing.unwrap_or(shape.len())
                    } else if shape.len() > 2 && closed_form {
                        2
                    } else {
                        shape.len()
                    } as u64;
                    let (o, end) = (addr as usize, addr as usize + landed);
                    let result = if len_only != (mode == Mode::Swapped) {
                        let payload = Payload::length_only(len, write);
                        transfer(&mut f, master, addr, payload, burst, walked, now)
                    } else if write {
                        let buf: Vec<u8> = (0..len)
                            .map(|j| (mix64(fill ^ j as u64) & 0xFF) as u8)
                            .collect();
                        let payload = Payload::write(&buf);
                        let r = transfer(&mut f, master, addr, payload, burst, walked, now);
                        if landed > 0 {
                            shadow[o..end].copy_from_slice(&buf[..landed]);
                        }
                        r
                    } else {
                        let mut buf = vec![0u8; len];
                        let payload = Payload::read(&mut buf);
                        let r = transfer(&mut f, master, addr, payload, burst, walked, now);
                        if landed > 0 && buf[..landed] != shadow[o..end] {
                            return Err(format!(
                                "op {i}: burst read at {addr:#x}+{len} diverged from the \
                                 shadow model"
                            ));
                        }
                        r
                    };
                    if write && landed > 0 {
                        residency.note_write(o, landed);
                        burst_writes.insert(o, end);
                    }
                    timeline.push(result.clone());
                    match result {
                        Ok(done) => {
                            if failing.is_some() {
                                return Err(format!(
                                    "op {i}: out-of-range transfer at {addr:#x}+{len} succeeded"
                                ));
                            }
                            if done < now {
                                return Err(format!("op {i}: time ran backwards"));
                            }
                            fp = mix64(fp ^ done);
                            now = done;
                        }
                        Err(e) => {
                            if failing.is_none() {
                                return Err(format!(
                                    "op {i}: in-range transfer at {addr:#x}+{len} failed: {e}"
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
                    mux_of(&mut f).switch_to(side);
                    owner = side;
                }
                BusOp::Reset => {
                    reset_both(&mut f, &mut shadow, &mut residency, &mut log)?;
                    burst_writes.clear();
                    owner = Side::ZynqPs;
                    attempts = [0; 3];
                    ok_bytes = [0; 3];
                    singles_ok = 0;
                    bursts_ok = 0;
                    // Modeled time is the master's clock; no rewind.
                }
                BusOp::Advance(d) => now += u64::from(d),
                BusOp::Lag(d) => now = now.saturating_sub(u64::from(d)),
            }
        }
        let steps = mux_of(&mut f).dram_mut().inner().work().burst_steps;
        if steps != predicted_steps {
            return Err(format!(
                "DRAM stepped {steps} bursts one by one, {predicted_steps} predicted"
            ));
        }
        // Conservation: the fabric's books against the mirror's, burst
        // by burst.
        for (mi, master) in MASTERS.iter().enumerate() {
            let s = arbiter(&mut f).port_stats(*master);
            if s.grants != attempts[mi] {
                return Err(format!(
                    "grants {} != attempted bursts {} for {master:?}",
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
        let dram = mux_of(&mut f).dram_mut().inner().stats();
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
        let contents = mux_of(&mut f)
            .dram_mut()
            .inner()
            .peek(0, BUS_DRAM_BYTES)
            .to_vec();
        if contents != shadow {
            return Err("final DRAM contents diverged from the shadow model".into());
        }
        reset_both(&mut f, &mut shadow, &mut residency, &mut log)?;
        Ok(Outcome {
            fp,
            timeline,
            snapshots: log,
            contents,
            burst_writes,
        })
    }
}

/// Fail on the first transaction two executions disagree on; `what`
/// names the difference and `how` the second execution.
fn first_divergence(a: &Outcome, b: &Outcome, what: &str, how: &str) -> Result<(), String> {
    match (0..a.timeline.len()).find(|&i| a.timeline[i] != b.timeline[i]) {
        Some(i) => Err(format!(
            "{what} moved transaction {i}: {:?} as generated, {:?} {how}",
            a.timeline[i], b.timeline[i]
        )),
        None => Ok(()),
    }
}

/// Hold a program's two executions — as generated, and with data and
/// length-only transfers swapped — to the length-only contract.
fn check_length_only_contract(a: &Outcome, b: &Outcome) -> Result<(), String> {
    first_divergence(a, b, "length-only swap", "swapped")?;
    let books = |o: &Outcome| {
        o.snapshots
            .iter()
            .map(|s| s.books.clone())
            .collect::<Vec<_>>()
    };
    let (a_books, b_books) = (books(a), books(b));
    if let Some(i) = (0..a_books.len()).find(|&i| a_books[i] != b_books[i]) {
        return Err(format!(
            "length-only swap changed the books at snapshot {i}: {:?} as generated, \
             {:?} swapped",
            a_books[i], b_books[i]
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

/// Hold a program's two executions — trains as generated, and every
/// transfer walked burst by burst — to the train contract: everything
/// equal, books, write trackers and bytes included.
fn check_train_contract(a: &Outcome, b: &Outcome) -> Result<(), String> {
    first_divergence(a, b, "walking the trains", "walked")?;
    for (i, (x, y)) in a.snapshots.iter().zip(&b.snapshots).enumerate() {
        if x.books != y.books {
            return Err(format!(
                "train != walk in the books at snapshot {i}: {:?} as trains, {:?} walked",
                x.books, y.books
            ));
        }
        if (&x.dirty, &x.run_writes) != (&y.dirty, &y.run_writes) {
            return Err(format!(
                "train != walk in the write trackers at snapshot {i}: dirty {:?}, run {:?} \
                 as trains; dirty {:?}, run {:?} walked",
                x.dirty, x.run_writes, y.dirty, y.run_writes
            ));
        }
    }
    if a.contents != b.contents {
        return Err("train != walk in the final DRAM contents".into());
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
    type Input = BusProgram;
    const NAME: &'static str = "bus";

    fn generate(&self, seed: u64) -> BusProgram {
        gen::bus_program(seed)
    }

    fn check(&self, prog: &BusProgram) -> Result<(), String> {
        let first = self.execute(prog, Mode::AsGenerated)?;
        let second = self.execute(prog, Mode::AsGenerated)?;
        if first.fp != second.fp {
            return Err(format!(
                "replay diverged: fingerprint {:#x} then {:#x}",
                first.fp, second.fp
            ));
        }
        let swapped = self
            .execute(prog, Mode::Swapped)
            .map_err(|m| format!("with data and length-only transfers swapped: {m}"))?;
        check_length_only_contract(&first, &swapped)?;
        let walked = self
            .execute(prog, Mode::Walked)
            .map_err(|m| format!("with every transfer walked burst by burst: {m}"))?;
        check_train_contract(&first, &walked)
    }

    fn shrink(&self, input: BusProgram, fails: &dyn Fn(&BusProgram) -> bool) -> BusProgram {
        let with = |ops: &[BusOp]| BusProgram {
            ops: ops.to_vec(),
            ..input.clone()
        };
        let ops = shrink::shrink_elements(input.ops.clone(), |ops| fails(&with(ops)));
        with(&ops)
    }

    fn size(input: &BusProgram) -> usize {
        input.ops.len()
    }
}
