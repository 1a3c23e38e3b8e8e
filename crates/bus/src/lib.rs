//! Bus-fabric models for the bare-metal RISC-V + NVDLA SoC.
//!
//! This crate models, at transaction level with cycle-approximate timing,
//! every interconnect component of the SoC in Fig. 2 of the paper:
//!
//! * [`ahb`] — the AHB-Lite protocol used by the µRISC-V core,
//! * [`apb`] — the APB protocol in front of NVDLA's CSB adapter,
//! * [`axi`] — AXI used by the data memory and the NVDLA data backbone (DBB),
//! * [`bridge`] — the AHB→APB and AHB→AXI bridges,
//! * [`width`] — the 64-bit→32-bit AXI data-width converter,
//! * [`arbiter`] — the DRAM arbiter between the core and NVDLA's DBB,
//! * [`decoder`] — the system-bus address decoder (NVDLA at `0x0..0xF_FFFF`,
//!   DRAM at `0x10_0000..0x200F_FFFF`),
//! * [`sram`] / [`dram`] — program memory and the DDR4 data memory,
//! * [`smartconnect`] — the AXI SmartConnect mux between the Zynq PS and the SoC,
//! * [`cdc`] — the clock-domain-crossing model for the SoC↔DDR4 boundary,
//! * [`fault`] — a seeded fault-injection shim insertable on any fabric edge.
//!
//! # Timing model
//!
//! All transactions are expressed through the [`Target`] trait. A master
//! passes its current local cycle count (`now`) and receives a
//! [`Response`] whose `done_at` field says when the transaction completes
//! in the master's clock domain. Shared resources (DRAM behind the
//! [`arbiter::Arbiter`]) serialize requests with a busy-until timeline, so
//! contention between the core and NVDLA emerges naturally.
//!
//! # Example
//!
//! ```
//! use rvnv_bus::{Request, Target, sram::Sram};
//!
//! # fn main() -> Result<(), rvnv_bus::BusError> {
//! let mut mem = Sram::new(0x1000);
//! let done = mem.access(&Request::write32(0x10, 0xDEAD_BEEF), 0)?.done_at;
//! let resp = mem.access(&Request::read32(0x10), done)?;
//! assert_eq!(resp.data as u32, 0xDEAD_BEEF);
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod ahb;
pub mod apb;
pub mod arbiter;
pub mod axi;
pub mod bridge;
pub mod cdc;
pub mod decoder;
pub mod dram;
pub mod error;
pub mod fault;
pub mod smartconnect;
pub mod sram;
pub mod width;

pub(crate) use access::Hop;
pub use access::{AccessKind, AccessSize, Data, MasterId, Payload, Request, Response};
pub use error::BusError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultStats};

/// A cycle count in some clock domain.
pub type Cycle = u64;

/// A memory-mapped transaction target (slave device).
///
/// `now` is the master's current cycle; the returned [`Response::done_at`]
/// is when the transaction completes (always `>= now`). Implementations
/// must be deterministic: the same request sequence yields the same timing.
pub trait Target {
    /// Perform a single (≤ 8 byte) transaction.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] when the address decodes to nothing, the access
    /// is misaligned, or the device rejects the access.
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError>;

    /// Offer a *read lease* on `addr` to a polling master.
    ///
    /// Called by a master immediately after a successful read of `addr`
    /// whose request arrived here at cycle `now`. Returning
    /// `Some(until)` promises that an **identical repeat read** arriving
    /// at any cycle `t` with `now <= t < until`:
    ///
    /// * returns the same data,
    /// * completes with the same latency (`done_at - t` is constant),
    /// * and has no effect on any *observable* device or timing state.
    ///
    /// The master may then elide such repeats entirely and replay the
    /// recorded data and latency — this is what lets a firmware MMIO
    /// poll loop run at host speed without touching modeled cycles.
    /// Devices whose reads have side effects, or whose value/timing
    /// depends on anything other than "which pending completions have
    /// passed", must return `None` (the default). Fabric layers that
    /// add a fixed pipeline delay forward the query with `now` shifted
    /// by that delay and shift the bound back, so the promise stays
    /// expressed in the caller's clock.
    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        let _ = (addr, now);
        None
    }

    /// Move (or, for [`Data::Len`], only account) `payload.len()` bytes
    /// starting at `addr` as the payload's train of back-to-back bursts
    /// — the single block entry point a layer overrides; a single burst
    /// is a train of one. [`Target::read_block`] and
    /// [`Target::write_block`] are one-burst wrappers over it.
    ///
    /// A train is the per-burst walk minus the walking: every
    /// constituent burst's completion cycle, device timeline and row
    /// state, arbiter grant, statistic and fault draw, and the dirty and
    /// clobber bookkeeping are those of the master issuing the bursts
    /// one by one, each when the previous one completes — including,
    /// when a burst part-way fails, the bursts before it and the error.
    /// A length-only transfer is the data transfer minus the `memcpy`:
    /// identical in all of the above; only the bytes stay where they
    /// are. Together they let a timing-only run cost neither memory
    /// bandwidth nor a call per burst without moving a modeled cycle or
    /// counter.
    ///
    /// The default implementation walks the train ([`Payload::walk`])
    /// and each burst as one 32-bit beat per word; devices with real
    /// burst support (DRAM) override this with amortized timing. A beat
    /// cannot leave its data at home, so here a length-only read
    /// discards each word and a length-only write carries zeros.
    ///
    /// # Errors
    ///
    /// Propagates the first failing burst (here: beat).
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        payload.walk(addr, now, |a, p, t| beat_walk(self, a, p, t))
    }

    /// Read `buf.len()` bytes starting at `addr` as one burst.
    ///
    /// # Errors
    ///
    /// See [`Target::burst`].
    fn read_block(&mut self, addr: u32, buf: &mut [u8], now: Cycle) -> Result<Cycle, BusError> {
        self.burst(addr, Payload::read(buf), now)
    }

    /// Write `buf` starting at `addr` as one burst.
    ///
    /// # Errors
    ///
    /// See [`Target::burst`].
    fn write_block(&mut self, addr: u32, buf: &[u8], now: Cycle) -> Result<Cycle, BusError> {
        self.burst(addr, Payload::write(buf), now)
    }
}

/// One burst as a sequence of 32-bit beats ([`Target::burst`]'s default).
fn beat_walk<T: Target + ?Sized>(
    target: &mut T,
    addr: u32,
    mut payload: Payload<'_>,
    now: Cycle,
) -> Result<Cycle, BusError> {
    let mut t = now;
    for off in (0..payload.len()).step_by(4) {
        let a = addr.wrapping_add(off as u32);
        let mut beat = payload.slice(off, 4);
        let req = if beat.is_write() {
            let mut word = [0u8; 4];
            if let Data::Write(chunk) = &beat.data {
                word[..chunk.len()].copy_from_slice(chunk);
            }
            Request::write(a, u64::from(u32::from_le_bytes(word)), AccessSize::Word)
        } else {
            Request::read(a, AccessSize::Word)
        };
        let r = target.access(&req, t)?;
        if let Data::Read(chunk) = &mut beat.data {
            chunk.copy_from_slice(&(r.data as u32).to_le_bytes()[..chunk.len()]);
        }
        t = r.done_at;
    }
    Ok(t)
}

/// Devices that can return to their power-on state **in place**, without
/// reallocating backing storage.
///
/// Fabric wrappers ([`arbiter::Arbiter`], [`cdc::ClockCrossing`],
/// [`smartconnect::SmartConnect`], [`width::WidthConverter`], [`Shared`])
/// reset their own state and then propagate downstream, so resetting the
/// top of a fabric chain resets the whole path. This is what lets a SoC
/// be reused across inferences at host speed: a reset costs a handful of
/// field stores plus zeroing whatever memory extents the previous run
/// actually wrote, instead of reallocating (and re-faulting) hundreds of
/// megabytes of modeled DRAM.
///
/// Implementations must leave the device **bit-identical** (contents,
/// timing state and statistics) to a freshly constructed one, so that
/// reset-and-rerun yields the same cycle counts as build-and-run.
/// There are two deliberate exceptions: [`dram::Dram`]'s
/// resident-extent mechanism, which preserves registered preload
/// images (one or many) by contract — see [`dram::Dram::add_resident`]
/// and [`dram::Dram::mark_resident`] — and
/// [`fault::FaultInjector`]'s armed plan/counter/statistics, which
/// describe a fleet lifetime spanning per-frame resets.
pub trait Reset {
    /// Restore power-on state (contents, timing and statistics).
    fn reset(&mut self);
}

impl<T: Reset + ?Sized> Reset for &mut T {
    fn reset(&mut self) {
        (**self).reset();
    }
}

impl<T: Reset + ?Sized> Reset for Box<T> {
    fn reset(&mut self) {
        (**self).reset();
    }
}

impl<T: Target + ?Sized> Target for &mut T {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        (**self).access(req, now)
    }
    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        (**self).read_lease(addr, now)
    }
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        (**self).burst(addr, payload, now)
    }
}

impl<T: Target + ?Sized> Target for Box<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        (**self).access(req, now)
    }
    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        (**self).read_lease(addr, now)
    }
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        (**self).burst(addr, payload, now)
    }
}

/// A shared, thread-safe handle to a [`Target`].
///
/// The SoC wires several masters (the µRISC-V AHB port, the NVDLA DBB) to
/// the same slaves; `Shared` provides cheaply clonable ownership.
#[derive(Debug)]
pub struct Shared<T>(std::sync::Arc<std::sync::Mutex<T>>);

impl<T> Shared<T> {
    /// Wrap a target for shared ownership.
    pub fn new(inner: T) -> Self {
        Shared(std::sync::Arc::new(std::sync::Mutex::new(inner)))
    }

    /// Lock and access the inner device (a panicked holder's lock is taken over as is).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<T: Reset> Reset for Shared<T> {
    fn reset(&mut self) {
        self.lock().reset();
    }
}

impl<T: Target> Target for Shared<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        self.lock().access(req, now)
    }
    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        self.lock().read_lease(addr, now)
    }
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        self.lock().burst(addr, payload, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram::Sram;

    #[test]
    fn shared_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Shared<Sram>>();
        assert_sync::<Shared<Sram>>();
    }

    #[test]
    fn default_block_ops_round_trip() {
        let mut mem = Sram::new(256);
        let data: Vec<u8> = (0..64).collect();
        let t = mem.write_block(0x20, &data, 0).unwrap();
        assert!(t >= 16, "16 word beats must cost at least 16 cycles");
        let mut out = vec![0u8; 64];
        mem.read_block(0x20, &mut out, t).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn default_block_ops_handle_tail() {
        let mut mem = Sram::new(64);
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        mem.write_block(0, &data, 0).unwrap();
        let mut out = [0u8; 7];
        mem.read_block(0, &mut out, 0).unwrap();
        assert_eq!(out, data);
    }
}
