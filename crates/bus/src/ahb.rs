//! AHB-Lite master-port model.
//!
//! The µRISC-V core talks to the system bus over AHB-Lite. AHB-Lite
//! pipelines the address and data phases: a non-sequential (NONSEQ)
//! transfer costs one address cycle plus the slave's data-phase wait
//! states, while back-to-back sequential (SEQ) transfers overlap the next
//! address phase with the current data phase and so cost only the data
//! phase. This port wraps a downstream [`Target`] and adds that protocol
//! cost on top of the slave's own latency.

use crate::{BusError, Cycle, Payload, Request, Response, Target};

/// Transfer type as driven on `HTRANS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HTrans {
    /// Idle cycle.
    Idle,
    /// First transfer of a burst (or a single transfer).
    NonSeq,
    /// Continuation of a burst at the next sequential address.
    Seq,
}

/// Statistics recorded by an [`AhbPort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AhbStats {
    /// Total transfers issued.
    pub transfers: u64,
    /// Transfers classified SEQ (pipelined).
    pub seq_transfers: u64,
    /// Total wait-state cycles inserted by slaves.
    pub wait_cycles: u64,
}

/// An AHB-Lite master port in front of a downstream target.
#[derive(Debug)]
pub struct AhbPort<T> {
    downstream: T,
    last_addr: Option<u32>,
    last_write: bool,
    stats: AhbStats,
}

impl<T: Target> AhbPort<T> {
    /// Address-phase cost of a NONSEQ transfer.
    pub const NONSEQ_COST: Cycle = 1;

    /// Wrap `downstream` behind an AHB-Lite port.
    pub fn new(downstream: T) -> Self {
        AhbPort {
            downstream,
            last_addr: None,
            last_write: false,
            stats: AhbStats::default(),
        }
    }

    /// Classify the next transfer the way the bus matrix would.
    fn classify(&self, req: &Request) -> HTrans {
        match self.last_addr {
            Some(prev)
                if req.addr == prev.wrapping_add(req.size.bytes())
                    && req.is_write() == self.last_write =>
            {
                HTrans::Seq
            }
            _ => HTrans::NonSeq,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AhbStats {
        self.stats
    }

    /// Access the wrapped downstream target directly (backdoor).
    pub fn downstream_mut(&mut self) -> &mut T {
        &mut self.downstream
    }

    /// Unwrap, returning the downstream target.
    pub fn into_inner(self) -> T {
        self.downstream
    }
}

impl<T: Target> Target for AhbPort<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let trans = self.classify(req);
        let addr_phase = match trans {
            HTrans::NonSeq => Self::NONSEQ_COST,
            _ => 0,
        };
        let issued = now + addr_phase;
        let resp = self.downstream.access(req, issued)?;
        self.stats.transfers += 1;
        if trans == HTrans::Seq {
            self.stats.seq_transfers += 1;
        }
        self.stats.wait_cycles += resp.done_at.saturating_sub(issued + 1);
        self.last_addr = Some(req.addr);
        self.last_write = req.is_write();
        Ok(resp)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        // An AHB block transfer is an INCR burst: one NONSEQ + SEQ beats.
        payload.walk(addr, now, |a, p, t| {
            self.last_addr = None;
            let beats = (p.len() as u64).div_ceil(4);
            let done = self.downstream.burst(a, p, t + Self::NONSEQ_COST)?;
            self.stats.transfers += beats;
            Ok(done)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn nonseq_costs_extra_cycle() {
        let mut p = AhbPort::new(Sram::new(64));
        // Cold access: 1 (addr phase) + 1 (SRAM) = 2 cycles.
        let r = p.access(&Request::read32(0), 0).unwrap();
        assert_eq!(r.done_at, 2);
    }

    #[test]
    fn sequential_transfers_are_pipelined() {
        let mut p = AhbPort::new(Sram::new(64));
        let t0 = p.access(&Request::read32(0), 0).unwrap().done_at;
        let t1 = p.access(&Request::read32(4), t0).unwrap().done_at;
        // SEQ: no address-phase penalty, just the SRAM cycle.
        assert_eq!(t1 - t0, 1);
        assert_eq!(p.stats().seq_transfers, 1);
    }

    #[test]
    fn jumping_address_reverts_to_nonseq() {
        let mut p = AhbPort::new(Sram::new(64));
        let t0 = p.access(&Request::read32(0), 0).unwrap().done_at;
        let t1 = p.access(&Request::read32(32), t0).unwrap().done_at;
        assert_eq!(t1 - t0, 2);
        assert_eq!(p.stats().seq_transfers, 0);
    }

    #[test]
    fn direction_change_is_nonseq() {
        let mut p = AhbPort::new(Sram::new(64));
        let t0 = p.access(&Request::write32(0, 7), 0).unwrap().done_at;
        let t1 = p.access(&Request::read32(4), t0).unwrap().done_at;
        assert_eq!(t1 - t0, 2, "read after write at next addr is NONSEQ");
    }

    #[test]
    fn block_ops_pass_through() {
        let mut p = AhbPort::new(Sram::new(64));
        p.write_block(0, &[1, 2, 3, 4, 5, 6, 7, 8], 0).unwrap();
        let mut out = [0u8; 8];
        p.read_block(0, &mut out, 0).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(p.stats().transfers >= 4);
    }

    #[test]
    fn wait_cycles_counted() {
        let mut p = AhbPort::new(crate::dram::Dram::new(4096, Default::default()));
        p.access(&Request::read32(0), 0).unwrap();
        assert!(p.stats().wait_cycles > 0, "DRAM inserts wait states");
    }
}
