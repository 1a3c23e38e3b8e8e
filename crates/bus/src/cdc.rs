//! Clock-domain-crossing (CDC) model.
//!
//! In the full test setup (Fig. 4) an AXI Interconnect "reconciles
//! frequency mismatches" between the SoC (300 MHz) and the MIG DDR4
//! (100 MHz). This wrapper rescales master-domain cycles to the slave
//! domain, adds a synchronizer latency on each crossing, and rescales the
//! completion time back.

use crate::{BusError, Cycle, Hop, Payload, Request, Reset, Response, Target};

/// A frequency-translating bridge between two clock domains.
#[derive(Debug)]
pub struct ClockCrossing<T> {
    downstream: T,
    ratio: Ratio,
    sync_cycles: Cycle,
    crossings: u64,
}

/// The slave/master frequency ratio in lowest terms: the conversions
/// run in `u64` and widen to `u128` only when the product overflows.
/// Reducing the fraction changes no result — `t·S/M` and `t·s/m` are
/// the same rational — it only keeps the product small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    slave: u64,
    master: u64,
}

impl Ratio {
    fn new(master_hz: u64, slave_hz: u64) -> Self {
        let g = gcd(master_hz, slave_hz);
        Ratio {
            slave: slave_hz / g,
            master: master_hz / g,
        }
    }

    /// `floor(t · slave_hz / master_hz)`.
    #[inline]
    fn to_slave(self, t: Cycle) -> Cycle {
        match t.checked_mul(self.slave) {
            Some(x) if self.master == 1 => x,
            Some(x) => x / self.master,
            None => (u128::from(t) * u128::from(self.slave) / u128::from(self.master)) as Cycle,
        }
    }

    /// `ceil(t · master_hz / slave_hz)`.
    #[inline]
    fn to_master(self, t: Cycle) -> Cycle {
        match t.checked_mul(self.master) {
            Some(x) if self.slave == 1 => x,
            Some(x) => x.div_ceil(self.slave),
            None => {
                (u128::from(t) * u128::from(self.master)).div_ceil(u128::from(self.slave)) as Cycle
            }
        }
    }
}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A burst's two crossings: out to the slave domain behind the
/// synchronizer, and its completion back. Per constituent burst of a
/// train, so every burst of a train rounds exactly as it would alone.
struct Crossing<'a> {
    ratio: Ratio,
    sync: Cycle,
    crossings: &'a mut u64,
    /// Master-domain cycle the latest burst arrived at.
    issued: Cycle,
}

impl Hop for Crossing<'_> {
    #[inline]
    fn issue(&mut self, now: Cycle) -> Cycle {
        *self.crossings += 1;
        self.issued = now;
        self.ratio.to_slave(now) + self.sync
    }
    #[inline]
    fn complete(&mut self, done: Cycle, _bytes: usize) -> Cycle {
        self.ratio.to_master(done + self.sync).max(self.issued + 1)
    }
    /// A constant only when the master clock is an integer multiple `m`
    /// of the slave clock: a completion at slave cycle `d` returns at
    /// `(d + sync)·m` and the next issue, `up` later, reaches the slave
    /// at `d + sync + up / m + sync` for every `d`. (The `issued + 1`
    /// floor never binds on a steady burst: it completes below after
    /// it arrived there, and `(⌊t/m⌋ + 1)·m > t`.) Any other ratio
    /// rounds differently from burst to burst.
    fn offset(&self, up: Cycle) -> Option<Cycle> {
        (self.ratio.slave == 1).then(|| 2 * self.sync + up / self.ratio.master)
    }
    /// `n` more bursts crossed. `issued` stays stale: it only feeds the
    /// floor that steady bursts never reach, and the next real issue
    /// overwrites it.
    fn skip(&mut self, n: u64, _bytes: usize) {
        *self.crossings += n;
    }
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
            ratio: Ratio::new(master_hz, slave_hz),
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
        self.ratio.to_slave(master_cycle)
    }

    /// Convert a slave-domain time to the master domain (ceiling).
    #[must_use]
    pub fn to_master(&self, slave_cycle: Cycle) -> Cycle {
        self.ratio.to_master(slave_cycle)
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

    /// The crossing's hop and the slave-domain target, borrowed apart.
    fn split(&mut self) -> (Crossing<'_>, &mut T) {
        let hop = Crossing {
            ratio: self.ratio,
            sync: self.sync_cycles,
            crossings: &mut self.crossings,
            issued: 0,
        };
        (hop, &mut self.downstream)
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
        let (mut hop, downstream) = self.split();
        let resp = downstream.access(req, hop.issue(now))?;
        Ok(Response {
            data: resp.data,
            done_at: hop.complete(resp.done_at, req.size.bytes() as usize),
        })
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        let (mut hop, downstream) = self.split();
        payload.through(&mut hop, now, |p, t| downstream.burst(addr, p, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;
    use rvnv_util::SplitMix64;

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

    /// The reduced `u64` conversions are the `u128` formulas on the raw
    /// frequencies, bit for bit: at the edges (0, `u64::MAX`, products
    /// just either side of overflow) and at random cycles for the clock
    /// sweep's 50–250 MHz SoC against the 100 MHz DDR, both ways round.
    #[test]
    fn reduced_conversions_equal_the_u128_formulas() {
        let slave = |t: u64, m: u64, s: u64| (u128::from(t) * u128::from(s) / u128::from(m)) as u64;
        let master =
            |t: u64, m: u64, s: u64| (u128::from(t) * u128::from(m)).div_ceil(u128::from(s)) as u64;
        let mhz = [50, 100, 150, 200, 250, 300, 333];
        let mut rng = SplitMix64::new(0xCDC);
        for &a in &mhz {
            for (m, s) in [(a * 1_000_000, 100_000_000), (100_000_000, a * 1_000_000)] {
                let c = ClockCrossing::new(Sram::new(4), m, s, 0);
                let mut ts = vec![0, 1, 2, 3, u64::MAX, u64::MAX - 1, u64::MAX / 2];
                for k in [1u64, 2, 3, 5, 7, 100, 1_000_000] {
                    let edge = u64::MAX / k;
                    ts.extend([edge, edge.saturating_add(1), edge.saturating_sub(1)]);
                }
                ts.extend((0..200).map(|_| rng.next_u64()));
                ts.extend((0..200).map(|_| rng.next_u64() >> 20));
                for t in ts {
                    assert_eq!(c.to_slave(t), slave(t, m, s), "to_slave({t}) at {m}/{s}");
                    assert_eq!(c.to_master(t), master(t, m, s), "to_master({t}) at {m}/{s}");
                }
            }
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
