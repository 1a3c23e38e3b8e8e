//! Clock-domain-crossing (CDC) model.
//!
//! In the full test setup (Fig. 4) an AXI Interconnect "reconciles
//! frequency mismatches" between the SoC (300 MHz) and the MIG DDR4
//! (100 MHz). This wrapper rescales master-domain cycles to the slave
//! domain, adds a synchronizer latency on each crossing, and rescales the
//! completion time back.

use crate::{BusError, Cycle, Payload, Request, Reset, Response, Target};

/// A frequency-translating bridge between two clock domains.
#[derive(Debug)]
pub struct ClockCrossing<T> {
    downstream: T,
    master_hz: u64,
    slave_hz: u64,
    sync_cycles: Cycle,
    crossings: u64,
}

impl<T: Target> ClockCrossing<T> {
    /// Create a crossing from a `master_hz` domain into a `slave_hz`
    /// domain with `sync_cycles` synchronizer stages (in slave cycles)
    /// per direction.
    ///
    /// # Panics
    ///
    /// Panics if either frequency is zero.
    pub fn new(downstream: T, master_hz: u64, slave_hz: u64, sync_cycles: Cycle) -> Self {
        assert!(master_hz > 0 && slave_hz > 0, "frequencies must be nonzero");
        ClockCrossing {
            downstream,
            master_hz,
            slave_hz,
            sync_cycles,
            crossings: 0,
        }
    }

    /// The paper's Fig. 4 configuration: 300 MHz SoC → 100 MHz DDR4,
    /// two synchronizer flops.
    pub fn soc300_to_ddr100(downstream: T) -> Self {
        Self::new(downstream, 300_000_000, 100_000_000, 2)
    }

    /// Convert a master-domain time to the slave domain (floor).
    #[must_use]
    pub fn to_slave(&self, master_cycle: Cycle) -> Cycle {
        ((u128::from(master_cycle) * u128::from(self.slave_hz)) / u128::from(self.master_hz))
            as Cycle
    }

    /// Convert a slave-domain time to the master domain (ceiling).
    #[must_use]
    pub fn to_master(&self, slave_cycle: Cycle) -> Cycle {
        ((u128::from(slave_cycle) * u128::from(self.master_hz)).div_ceil(u128::from(self.slave_hz)))
            as Cycle
    }

    /// Number of transactions that crossed domains.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Synchronizer stages per crossing direction, in slave cycles.
    #[must_use]
    pub fn sync_cycles(&self) -> Cycle {
        self.sync_cycles
    }

    /// Access the wrapped downstream target directly (backdoor).
    pub fn downstream_mut(&mut self) -> &mut T {
        &mut self.downstream
    }

    fn outbound(&mut self, now: Cycle) -> Cycle {
        self.crossings += 1;
        self.to_slave(now) + self.sync_cycles
    }

    fn inbound(&self, done_slave: Cycle) -> Cycle {
        self.to_master(done_slave + self.sync_cycles)
    }
}

impl<T: Reset> Reset for ClockCrossing<T> {
    /// Reset the crossing counter, then the slave-domain target. The
    /// frequency configuration is construction state and survives.
    fn reset(&mut self) {
        self.crossings = 0;
        self.downstream.reset();
    }
}

impl<T: Target> Target for ClockCrossing<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let t = self.outbound(now);
        let resp = self.downstream.access(req, t)?;
        Ok(Response {
            data: resp.data,
            done_at: self.inbound(resp.done_at).max(now + 1),
        })
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        let t = self.outbound(now);
        let done = self.downstream.burst(addr, payload, t)?;
        Ok(self.inbound(done).max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn slow_slave_cycles_cost_more_master_cycles() {
        // 300 MHz master, 100 MHz slave: one slave cycle = 3 master cycles.
        let mut c = ClockCrossing::soc300_to_ddr100(Sram::new(64));
        let r = c.access(&Request::read32(0), 0).unwrap();
        // Outbound sync (2 slave cyc) + SRAM (1) + inbound sync (2) =
        // 5 slave cycles = 15 master cycles.
        assert_eq!(r.done_at, 15);
    }

    #[test]
    fn conversions_round_trip_monotonically() {
        let c = ClockCrossing::new(Sram::new(4), 300, 100, 0);
        for t in [0u64, 1, 2, 3, 10, 99, 100, 12345] {
            let back = c.to_master(c.to_slave(t));
            assert!(back <= t + 3, "round trip close: {t} -> {back}");
            assert!(c.to_slave(t) <= t);
        }
    }

    #[test]
    fn equal_frequencies_add_only_sync() {
        let mut c = ClockCrossing::new(Sram::new(64), 100, 100, 1);
        let r = c.access(&Request::read32(0), 10).unwrap();
        assert_eq!(r.done_at, 13); // 1 out + 1 mem + 1 in
    }

    #[test]
    fn completion_never_before_issue() {
        let mut c = ClockCrossing::new(Sram::new(64), 100, 1_000_000, 0);
        let r = c.access(&Request::read32(0), 5).unwrap();
        assert!(r.done_at > 5);
    }

    #[test]
    fn data_passes_unchanged() {
        let mut c = ClockCrossing::soc300_to_ddr100(Sram::new(64));
        c.access(&Request::write32(0, 0xFEED_BEEF), 0).unwrap();
        assert_eq!(
            c.access(&Request::read32(0), 50).unwrap().data32(),
            0xFEED_BEEF
        );
        assert_eq!(c.crossings(), 2);
    }
}
