//! `bus` target: seeded random programs over the SoC's composed DRAM
//! path — `Arbiter<ClockCrossing<SmartConnect<FaultInjector<Dram>>>>`,
//! with the DBB's 64→32 `WidthConverter` in front — checked against a
//! host-side predicting mirror. The program is plain data ([`BusOp`]
//! steps), so the delete-chunk pass can drop steps and replay the
//! remainder against a freshly-predicted mirror.
//!
//! Invariants per program: hostile accesses fail only with the exact
//! typed [`BusError`] the mirror predicts, successful reads match a
//! shadow DRAM byte-for-byte (so do the final contents), resident
//! images survive a reset exactly when the mirror saw no write land in
//! them, completion times never run backwards, the arbiter/DRAM
//! counters conserve burst by burst, and a second execution of the same
//! program produces a bit-identical event fingerprint. The DBB's single
//! beats cross the width converter, which splits each double into two
//! words: a double needs only word alignment there, a torn double at
//! the end of DRAM lands its first word, and the split counter equals
//! the doubles issued. A quarter of the
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
//!
//! **Chaos.** Every program runs twice more under `chaos_plan`: bit
//! flips, error responses and latency spikes, by the lottery and at
//! fixed access indices. Reads may now come back flipped, so read data
//! goes unchecked; writes land unflipped, so the shadow still holds
//! the device's contents. The mirror still predicts every wrong-side,
//! misaligned and out-of-range error; any other error must be
//! [`BusError::Injected`] at the address of a beat or burst the master
//! issued, no later than the mirror's own failure, and ends the
//! transaction there. The injector's ledger must balance the mirror's:
//! its accesses are the beats and bursts that passed the mux (a
//! wrong-side beat never reaches it), its errors the injected errors
//! the masters saw, and it never counts more faults than accesses. The
//! two runs' fingerprints must be equal. Whenever a plan is armed —
//! the chaos plan, or the spike plan of two programs in three — the
//! ledger is checked the same way.

use rvnv_bus::arbiter::{Arbiter, PortStats};
use rvnv_bus::cdc::ClockCrossing;
use rvnv_bus::dram::{Dram, DramStats, DramTiming, RangeSet};
use rvnv_bus::fault::{FaultInjector, FaultKind, FaultPlan, FaultStats};
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

/// The chaos leg's plan: bit flips, error responses and latency spikes
/// from the lottery, and one of each at a fixed access index.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        flip_per_million: 60_000,
        error_per_million: 60_000,
        spike_per_million: 40_000,
        spike_cycles: 700,
        ..FaultPlan::default()
    }
    .at(3, FaultKind::ErrorResponse)
    .at(11, FaultKind::BitFlip { mask: 0xFF })
    .at(23, FaultKind::LatencySpike { cycles: 1_234 })
}

fn build_fabric(prog: &BusProgram, mode: Mode) -> Fabric {
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
    if mode == Mode::Chaos {
        shim.arm(chaos_plan());
    } else if prog.armed {
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
    /// As generated, under [`chaos_plan`]: reads may come back flipped
    /// and any access may fail with an injected error.
    Chaos,
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
        let mut f = build_fabric(prog, mode);
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
        let (mut singles_ok, mut bursts_ok, mut splits) = (0u64, 0u64, 0u64);
        let chaos = mode == Mode::Chaos;
        let armed = chaos || prog.armed;
        // The injector's ledger, which survives resets: accesses that
        // passed the mux (wrong-side beats never reach the shim) and
        // the injected errors the masters saw.
        let (mut reached, mut injected) = (0u64, 0u64);
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
                    let n = size.bytes() as usize;
                    let req = if write {
                        Request::write(addr, data, size)
                    } else {
                        Request::read(addr, size)
                    }
                    .with_master(master);
                    // The DBB's beats cross the 64→32 converter, which
                    // splits a double into two words, issued in order.
                    let dbb = master == MasterId::NvdlaDbb;
                    let beats: &[(u32, AccessSize)] = if dbb && size == AccessSize::Double {
                        splits += 1;
                        &[(0, AccessSize::Word), (4, AccessSize::Word)]
                    } else {
                        &[(0, size)]
                    };
                    let at = |j: usize| addr.wrapping_add(beats[j].0);
                    let expect = |j: usize| self.classify(owner, master, at(j), beats[j].1);
                    let predicted = (0..beats.len()).find(|&j| expect(j) != Expect::Ok);
                    let result = if dbb {
                        f.access(&req, now)
                    } else {
                        arbiter(&mut f).access(&req, now)
                    };
                    timeline.push(result.as_ref().map(|r| r.done_at).map_err(Clone::clone));
                    // The beat that failed, if any: the mirror's, or the
                    // shim's under chaos — no later than the mirror's.
                    let failing = match &result {
                        Ok(_) => predicted.map_or(Ok(None), |j| {
                            Err(format!(
                                "mirror predicted {:?} at {:#x}, fabric succeeded",
                                expect(j),
                                at(j)
                            ))
                        }),
                        Err(BusError::Injected { addr: a, .. }) if chaos => (0..beats.len())
                            .find(|&j| at(j) == *a)
                            .filter(|&j| {
                                predicted.is_none_or(|k| j < k || expect(k) != Expect::WrongSide)
                            })
                            .map(Some)
                            .ok_or_else(|| format!("injected error at {a:#x}, issued {addr:#x}")),
                        Err(e) => {
                            let j = predicted.unwrap_or(0);
                            check_error(expect(j), at(j), e).map(|()| Some(j))
                        }
                    }
                    .map_err(|m| format!("op {i}: {m}"))?;
                    injected += u64::from(matches!(result, Err(BusError::Injected { .. })));
                    let tried = failing.map_or(beats.len(), |j| j + 1);
                    attempts[midx(master)] += tried as u64;
                    if side_of(master) == owner {
                        reached += tried as u64;
                    }
                    // The beats before the failing one landed.
                    for &(off, beat) in &beats[..failing.unwrap_or(beats.len())] {
                        let (off, m) = (off as usize, beat.bytes() as usize);
                        let o = addr as usize + off;
                        if write {
                            shadow[o..o + m].copy_from_slice(&data.to_le_bytes()[off..off + m]);
                            residency.note_write(o, m);
                        }
                        ok_bytes[midx(master)] += m as u64;
                        singles_ok += 1;
                    }
                    match result {
                        Ok(resp) => {
                            if resp.done_at < now {
                                return Err(format!("op {i}: time ran backwards"));
                            }
                            // Under chaos a read may come back flipped.
                            if !write && !chaos {
                                let (o, mut want) = (addr as usize, [0u8; 8]);
                                want[..n].copy_from_slice(&shadow[o..o + n]);
                                let want = u64::from_le_bytes(want);
                                if resp.data != want {
                                    return Err(format!(
                                        "op {i}: read at {addr:#x} diverged from the shadow \
                                         model ({:#x} != {want:#x})",
                                        resp.data
                                    ));
                                }
                            }
                            fp = mix64(fp ^ resp.done_at ^ resp.data.rotate_left(17));
                            now = resp.done_at;
                        }
                        Err(_) => fp = mix64(fp ^ u64::from(addr)),
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
                    let oor = (shape.iter())
                        .position(|&(off, n)| addr as usize + off + n > BUS_DRAM_BYTES);
                    let walked = mode == Mode::Walked;
                    let carried = len_only == (mode == Mode::Swapped);
                    let wbuf: Vec<u8> = if carried && write {
                        (0..len)
                            .map(|j| (mix64(fill ^ j as u64) & 0xFF) as u8)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let mut rbuf = vec![0u8; if carried && !write { len } else { 0 }];
                    let payload = if !carried {
                        Payload::length_only(len, write)
                    } else if write {
                        Payload::write(&wbuf)
                    } else {
                        Payload::read(&mut rbuf)
                    };
                    let result = transfer(&mut f, master, addr, payload, burst, walked, now);
                    timeline.push(result.clone());
                    // The burst that failed, if any: the mirror's, or the
                    // shim's under chaos — no later than the mirror's.
                    let failing = match &result {
                        Ok(_) => oor.map_or(Ok(None), |_| {
                            Err(format!(
                                "out-of-range transfer at {addr:#x}+{len} succeeded"
                            ))
                        }),
                        Err(BusError::Injected { addr: a, .. }) if chaos => (shape.iter())
                            .position(|&(off, _)| addr as usize + off == *a as usize)
                            .filter(|&j| oor.is_none_or(|k| j <= k))
                            .map(Some)
                            .ok_or_else(|| format!("injected error at {a:#x}, issued {addr:#x}")),
                        Err(e) if oor.is_none() => {
                            Err(format!("in-range transfer at {addr:#x}+{len} failed: {e}"))
                        }
                        Err(e) => check_error(Expect::OutOfRange, addr, e).map(|()| oor),
                    }
                    .map_err(|m| format!("op {i}: {m}"))?;
                    injected += u64::from(matches!(result, Err(BusError::Injected { .. })));
                    let landed_bursts = failing.unwrap_or(shape.len());
                    let landed = failing.map_or(len, |j| shape[j].0);
                    // Every burst tried passed the mux and reached the shim.
                    let (mi, tried) = (midx(master), failing.map_or(shape.len(), |j| j + 1));
                    attempts[mi] += tried as u64;
                    reached += tried as u64;
                    ok_bytes[mi] += landed as u64;
                    bursts_ok += landed_bursts as u64;
                    predicted_steps += if walked || armed || failing.is_some() {
                        // One burst per DRAM entry: each one is stepped.
                        landed_bursts
                    } else if shape.len() > 2 && closed_form {
                        2
                    } else {
                        shape.len()
                    } as u64;
                    let (o, end) = (addr as usize, addr as usize + landed);
                    if landed > 0 {
                        if !wbuf.is_empty() {
                            shadow[o..end].copy_from_slice(&wbuf[..landed]);
                        }
                        // Under chaos a read may come back flipped.
                        if !rbuf.is_empty() && !chaos && rbuf[..landed] != shadow[o..end] {
                            return Err(format!(
                                "op {i}: burst read at {addr:#x}+{len} diverged from the \
                                 shadow model"
                            ));
                        }
                        if write {
                            residency.note_write(o, landed);
                            burst_writes.insert(o, end);
                        }
                    }
                    match result {
                        Ok(done) => {
                            if done < now {
                                return Err(format!("op {i}: time ran backwards"));
                            }
                            fp = mix64(fp ^ done);
                            now = done;
                        }
                        Err(_) => fp = mix64(fp ^ u64::from(addr)),
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
                    splits = 0;
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
        if f.beats_split() != splits {
            return Err(format!(
                "width converter split {} beats, {splits} doubles issued",
                f.beats_split()
            ));
        }
        let faults = mux_of(&mut f).dram_mut().stats();
        if armed && (faults.accesses, faults.errors) != (reached, injected) {
            return Err(format!(
                "fault ledger {faults:?}, mirror saw {reached} accesses reach the shim \
                 and {injected} injected errors"
            ));
        }
        if faults.total() > faults.accesses {
            return Err(format!("more faults than accesses: {faults:?}"));
        }
        fp = mix64(fp ^ faults.flips ^ faults.spikes.rotate_left(32));
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
        check_train_contract(&first, &walked)?;
        let chaos =
            (self.execute(prog, Mode::Chaos)).map_err(|m| format!("under the chaos plan: {m}"))?;
        let again = (self.execute(prog, Mode::Chaos))
            .map_err(|m| format!("under the chaos plan, replayed: {m}"))?;
        if chaos.fp != again.fp {
            return Err(format!(
                "chaos replay diverged: fingerprint {:#x} then {:#x}",
                chaos.fp, again.fp
            ));
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    //! Named regressions: counterexamples found while fuzzing, and
    //! fabric behaviours the mirror relies on, pinned whatever the
    //! generator's distribution does later. Each is a [`BusProgram`]
    //! literal run through every leg of `check` where the fabric
    //! reaches the case, a direct call otherwise.

    use super::*;

    fn program(ops: Vec<BusOp>) -> BusProgram {
        BusProgram {
            soc_mhz: 100,
            armed: false,
            images: false,
            ops,
        }
    }

    fn read(master: u8, addr: u32, size: u8) -> BusOp {
        BusOp::Single {
            master,
            write: false,
            addr,
            size,
            data: 0,
        }
    }

    fn holds(ops: Vec<BusOp>) {
        let prog = program(ops);
        if let Err(m) = BusTarget::default().check(&prog) {
            panic!("{m}\n{prog:#?}");
        }
    }

    /// Found by the width-converter program: the converter computed
    /// sub-beat addresses with unchecked `+`, so a DBB double at the
    /// top of the 32-bit space panicked instead of surfacing the typed
    /// out-of-range rejection from below. A double straddling the end
    /// of DRAM is torn: its first word lands.
    #[test]
    fn regression_wide_beat_at_the_top_of_the_address_space_is_rejected_not_a_panic() {
        holds(vec![
            read(1, 0xFFFF_FFF8, 3),
            BusOp::Single {
                master: 1,
                write: true,
                addr: BUS_DRAM_BYTES as u32 - 4,
                size: 3,
                data: u64::MAX,
            },
        ]);
    }

    /// A CPU beat while the PS owns the SmartConnect is a typed
    /// rejection naming its address, and the arbiter still counts the
    /// grant (the master won the bus; the mux said no).
    #[test]
    fn regression_wrong_side_single_beat_is_a_typed_rejection() {
        holds(vec![BusOp::Switch { soc: false }, read(0, 0x100, 2)]);
    }

    /// An out-of-range burst reports the true device size, so a
    /// recovery layer can tell "bad pointer" from "model too small".
    #[test]
    fn regression_out_of_range_burst_reports_the_true_device_size() {
        holds(vec![BusOp::Burst {
            master: 1,
            write: false,
            addr: BUS_DRAM_BYTES as u32 - 32,
            len: 64,
            burst: 0,
            fill: 0,
            len_only: false,
        }]);
    }

    /// A zero-length burst completes, moves nothing and never goes
    /// backwards in time.
    #[test]
    fn regression_zero_length_burst_is_harmless() {
        holds(vec![
            BusOp::Advance(17),
            BusOp::Burst {
                master: 2,
                write: true,
                addr: 0x40,
                len: 0,
                burst: 0,
                fill: 0,
                len_only: false,
            },
        ]);
    }

    /// Behavioural pin: a double at a word- but not double-aligned
    /// address succeeds behind the 64→32 converter, which re-expresses
    /// it as two aligned words, and is `Misaligned` on a bare port.
    #[test]
    fn regression_misaligned_double_is_legal_behind_the_converter_only() {
        holds(vec![
            BusOp::Single {
                master: 1,
                write: true,
                addr: 0x14,
                size: 3,
                data: 0xAABB_CCDD_1122_3344,
            },
            read(1, 0x14, 3),
            read(0, 0x14, 3),
        ]);
    }

    /// The injector's fault stream survives a board reset by contract:
    /// the error scheduled at access 3 fires on the first access after
    /// the reset, and the ledger spans both sides of it.
    #[test]
    fn regression_fault_stream_survives_board_reset() {
        let ops = vec![
            read(0, 0, 2),
            read(0, 4, 2),
            read(0, 8, 2),
            BusOp::Reset,
            BusOp::Switch { soc: true },
            read(0, 0, 2),
        ];
        let out = (BusTarget::default().execute(&program(ops.clone()), Mode::Chaos))
            .expect("chaos leg holds");
        assert_eq!(
            out.timeline[3],
            Err(BusError::Injected { addr: 0, access: 3 })
        );
        holds(ops);
    }

    /// Promoted from the planted-mutation shakedown (base seed 0): a
    /// double at `0x1cbc6a` on the 1 MiB DRAM is both misaligned and
    /// out of range, and the fabric checks alignment first.
    #[test]
    fn regression_alignment_outranks_range_in_error_precedence() {
        holds(vec![read(0, 0x001c_bc6a, 3)]);
    }

    /// Disarming keeps the ledger for post-mortem reads and stops
    /// counting; re-arming restarts the access counter and the ledger,
    /// so the scheduled error fires at access 3 again.
    #[test]
    fn disarm_keeps_the_ledger_and_rearm_restarts_it() {
        let mut f = build_fabric(&program(Vec::new()), Mode::Chaos);
        mux_of(&mut f).switch_to(Side::Soc);
        let run = |f: &mut Fabric, n: u32| -> Vec<Result<u64, BusError>> {
            (0..n)
                .map(|a| {
                    arbiter(f)
                        .access(&Request::read32(4 * a), 0)
                        .map(|r| r.data)
                })
                .collect()
        };
        let first = run(&mut f, 4);
        assert!(matches!(
            first[3],
            Err(BusError::Injected { access: 3, .. })
        ));
        let ledger = mux_of(&mut f).dram_mut().stats();
        assert_eq!(ledger.accesses, 4);
        mux_of(&mut f).dram_mut().disarm();
        assert!(run(&mut f, 8).iter().all(Result::is_ok), "disarmed");
        assert_eq!(mux_of(&mut f).dram_mut().stats(), ledger, "disarm keeps it");
        mux_of(&mut f).dram_mut().arm(chaos_plan());
        assert_eq!(mux_of(&mut f).dram_mut().stats(), FaultStats::default());
        assert_eq!(run(&mut f, 4), first, "re-arm replays the stream");
        assert_eq!(mux_of(&mut f).dram_mut().stats(), ledger);
    }
}
