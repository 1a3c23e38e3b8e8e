//! DRAM arbiter between the µRISC-V core and NVDLA's DBB.
//!
//! The paper's arbiter "manages potential conflicts between the core and
//! NVDLA" for the shared data memory and "ensures mutual exclusion". This
//! model serializes all requests on a single busy-until timeline, applies
//! a fixed grant policy (CPU has priority, matching the single-master-
//! at-a-time AHB side), and charges a one-cycle turnaround when ownership
//! changes. Per-master wait statistics expose the contention that the
//! paper's tightly-coupled design minimizes (the core is parked in a
//! register poll loop while NVDLA streams weights).

use crate::{BusError, Cycle, Hop, MasterId, Payload, Request, Reset, Response, Target};

/// Per-master contention statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Transactions granted.
    pub grants: u64,
    /// Cycles spent waiting for the grant.
    pub wait_cycles: u64,
    /// Bytes moved.
    pub bytes: u64,
}

/// A two-or-more-port arbiter in front of a single target.
///
/// Requests identify their port via [`Request::master`]; the arbiter is
/// itself a [`Target`], so it can sit directly in the address map.
#[derive(Debug)]
pub struct Arbiter<T> {
    downstream: T,
    grants: Grants,
}

/// The grant timeline and per-port books: the arbiter minus the target
/// it guards.
#[derive(Debug, Default)]
struct Grants {
    busy_until: Cycle,
    last_owner: Option<MasterId>,
    /// Indexed by `MasterId as usize`.
    stats: [PortStats; 3],
}

impl Grants {
    /// Grant the bus: returns the cycle at which `master` may start.
    #[inline]
    fn grant(&mut self, master: MasterId, now: Cycle) -> Cycle {
        let turnaround = match self.last_owner {
            Some(prev) if prev != master => TURNAROUND,
            _ => 0,
        };
        let start = now.max(self.busy_until) + turnaround;
        let port = &mut self.stats[master as usize];
        port.grants += 1;
        port.wait_cycles += start - now;
        self.last_owner = Some(master);
        start
    }

    #[inline]
    fn release(&mut self, master: MasterId, done: Cycle, bytes: usize) {
        self.busy_until = self.busy_until.max(done);
        self.stats[master as usize].bytes += bytes as u64;
    }
}

/// One master's bursts crossing the arbiter: a grant on the way in, a
/// release on the way out — per constituent burst of a train.
struct Port<'a> {
    grants: &'a mut Grants,
    master: MasterId,
}

impl Hop for Port<'_> {
    #[inline]
    fn issue(&mut self, now: Cycle) -> Cycle {
        self.grants.grant(self.master, now)
    }
    #[inline]
    fn complete(&mut self, done: Cycle, bytes: usize) -> Cycle {
        self.grants.release(self.master, done, bytes);
        done
    }
    /// Once the train's first grant has made the master the owner, a
    /// steady burst's release leaves the bus free at its completion
    /// (the grant started after every earlier reservation), so the next
    /// grant waits 0 cycles and pays no turnaround: the identity.
    fn offset(&self, up: Cycle) -> Option<Cycle> {
        (self.grants.last_owner == Some(self.master)).then_some(up)
    }
    /// `n` grants with no wait, and their bytes. `busy_until` is left
    /// where it is: the next real release raises it to that burst's
    /// completion, past every steady one.
    fn skip(&mut self, n: u64, bytes: usize) {
        let port = &mut self.grants.stats[self.master as usize];
        port.grants += n;
        port.bytes += n * bytes as u64;
    }
}

const TURNAROUND: Cycle = 1;

impl<T: Target> Arbiter<T> {
    /// Bus-turnaround penalty when the granted master changes.
    pub const TURNAROUND: Cycle = TURNAROUND;

    /// Create an arbiter in front of `downstream`.
    pub fn new(downstream: T) -> Self {
        Arbiter {
            downstream,
            grants: Grants::default(),
        }
    }

    /// Statistics for one master (zeros if it never issued a request).
    pub fn port_stats(&self, master: MasterId) -> PortStats {
        self.grants.stats[master as usize]
    }

    /// Access the arbitrated target directly (backdoor, no arbitration).
    pub fn downstream_mut(&mut self) -> &mut T {
        &mut self.downstream
    }

    /// Unwrap, returning the downstream target.
    pub fn into_inner(self) -> T {
        self.downstream
    }

    /// [`Target::burst`] with an explicit requesting master, for ports
    /// the blanket DBB attribution does not fit — the Zynq PS streaming
    /// a pipelined input preload while the SoC computes. Every
    /// constituent burst of a train is granted and released as if
    /// issued alone; after the first (turnaround and wait included) a
    /// master re-issuing its own train finds the bus already its own.
    ///
    /// # Errors
    ///
    /// Propagates the downstream device's [`BusError`].
    pub fn burst_as(
        &mut self,
        master: MasterId,
        addr: u32,
        payload: Payload<'_>,
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        let downstream = &mut self.downstream;
        let mut port = Port {
            grants: &mut self.grants,
            master,
        };
        payload.through(&mut port, now, |p, t| downstream.burst(addr, p, t))
    }

    /// [`Arbiter::burst_as`] reading into `buf`.
    ///
    /// # Errors
    ///
    /// Propagates the downstream device's [`BusError`].
    pub fn read_block_as(
        &mut self,
        master: MasterId,
        addr: u32,
        buf: &mut [u8],
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        self.burst_as(master, addr, Payload::read(buf), now)
    }

    /// [`Arbiter::burst_as`] writing `buf`.
    ///
    /// # Errors
    ///
    /// Propagates the downstream device's [`BusError`].
    pub fn write_block_as(
        &mut self,
        master: MasterId,
        addr: u32,
        buf: &[u8],
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        self.burst_as(master, addr, Payload::write(buf), now)
    }
}

impl<T: Reset> Reset for Arbiter<T> {
    /// Reset the grant timeline and per-port statistics, then the
    /// arbitrated target.
    fn reset(&mut self) {
        self.grants = Grants::default();
        self.downstream.reset();
    }
}

impl<T: Target> Target for Arbiter<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let start = self.grants.grant(req.master, now);
        let resp = self.downstream.access(req, start)?;
        self.grants
            .release(req.master, resp.done_at, req.size.bytes() as usize);
        Ok(resp)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        // Block transfers on the trait API are attributed to the DBB:
        // only NVDLA issues them in this SoC, and the Target block API
        // carries no master id. Other ports (the Zynq PS preload) use
        // [`Arbiter::burst_as`].
        self.burst_as(MasterId::NvdlaDbb, addr, payload, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::Dram;
    use crate::sram::Sram;

    #[test]
    fn serializes_conflicting_masters() {
        let mut a = Arbiter::new(Sram::new(64));
        let cpu = Request::read32(0);
        let dla = Request::read32(4).with_master(MasterId::NvdlaDbb);
        let t_cpu = a.access(&cpu, 0).unwrap().done_at;
        // NVDLA issues at the same time; it must wait for the CPU grant
        // plus the turnaround cycle.
        let t_dla = a.access(&dla, 0).unwrap().done_at;
        assert!(t_dla > t_cpu);
        assert!(a.port_stats(MasterId::NvdlaDbb).wait_cycles > 0);
        assert_eq!(a.port_stats(MasterId::Cpu).wait_cycles, 0);
    }

    #[test]
    fn same_master_back_to_back_has_no_turnaround() {
        let mut a = Arbiter::new(Sram::new(64));
        let t0 = a.access(&Request::read32(0), 0).unwrap().done_at;
        let t1 = a.access(&Request::read32(4), t0).unwrap().done_at;
        assert_eq!(t1 - t0, 1, "no penalty when owner unchanged");
    }

    #[test]
    fn turnaround_on_owner_change() {
        let mut a = Arbiter::new(Sram::new(64));
        let t0 = a.access(&Request::read32(0), 0).unwrap().done_at;
        let dla = Request::read32(4).with_master(MasterId::NvdlaDbb);
        let t1 = a.access(&dla, t0).unwrap().done_at;
        assert_eq!(t1 - t0, 1 + Arbiter::<Sram>::TURNAROUND);
    }

    #[test]
    fn burst_blocks_subsequent_cpu_access() {
        let mut a = Arbiter::new(Dram::new(64 << 10, Default::default()));
        let mut buf = vec![0u8; 4096];
        let dma_done = a.read_block(0, &mut buf, 0).unwrap();
        // CPU poll arriving mid-DMA waits for the whole burst.
        let cpu_done = a.access(&Request::read32(0), 10).unwrap().done_at;
        assert!(cpu_done > dma_done);
        assert!(a.port_stats(MasterId::Cpu).wait_cycles > 0);
    }

    #[test]
    fn reset_restores_fresh_timing_through_the_chain() {
        use crate::cdc::ClockCrossing;
        use crate::smartconnect::{Side, SmartConnect};
        // The SoC's DRAM-path chain: arbiter -> CDC -> mux -> DRAM.
        let build = || {
            let mut sc = SmartConnect::new(Dram::new(64 << 10, Default::default()));
            sc.switch_to(Side::Soc);
            Arbiter::new(ClockCrossing::new(sc, 100, 100, 1))
        };
        let mut fresh = build();
        let mut used = build();
        // Age the used chain with traffic, then reset it in place.
        let mut buf = vec![0u8; 4096];
        used.read_block(0, &mut buf, 0).unwrap();
        used.access(&Request::write32(0x40, 1), 9000).unwrap();
        used.reset();
        // Reset hands the mux back to the PS (board reset state).
        assert_eq!(used.downstream_mut().downstream_mut().owner(), Side::ZynqPs);
        used.downstream_mut().downstream_mut().switch_to(Side::Soc);
        let a = used.access(&Request::read32(0x40), 0).unwrap();
        let b = fresh.access(&Request::read32(0x40), 0).unwrap();
        assert_eq!(a.done_at, b.done_at, "reset chain replays fresh timing");
        assert_eq!(a.data, b.data, "written data zeroed");
        assert_eq!(used.port_stats(MasterId::Cpu).grants, 1);
    }

    #[test]
    fn ps_burst_contends_with_dbb_and_is_attributed() {
        let mut a = Arbiter::new(Dram::new(64 << 10, Default::default()));
        // PS streams the next frame's input first (pipelined preload)...
        let ps_done = a
            .write_block_as(MasterId::ZynqPs, 0x2000, &[1u8; 1024], 0)
            .unwrap();
        // ...so NVDLA's DMA issued mid-preload waits for it plus the
        // ownership turnaround.
        let mut buf = [0u8; 64];
        let dma_done = a.read_block(0, &mut buf, 10).unwrap();
        assert!(dma_done > ps_done);
        let ps = a.port_stats(MasterId::ZynqPs);
        assert_eq!(ps.grants, 1);
        assert_eq!(ps.bytes, 1024);
        assert_eq!(ps.wait_cycles, 0, "preload issued on a quiet bus");
        assert!(a.port_stats(MasterId::NvdlaDbb).wait_cycles > 0);
    }

    #[test]
    fn byte_accounting_per_master() {
        let mut a = Arbiter::new(Sram::new(4096));
        a.access(&Request::write32(0, 1), 0).unwrap();
        a.write_block(0, &[0u8; 256], 0).unwrap();
        assert_eq!(a.port_stats(MasterId::Cpu).bytes, 4);
        assert_eq!(a.port_stats(MasterId::NvdlaDbb).bytes, 256);
    }
}
