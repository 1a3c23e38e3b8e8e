//! AXI SmartConnect mux (Fig. 4).
//!
//! "At any given time, the DRAM is connected either to the Zynq core or
//! the SoC using an AXI SmartConnect, which functions as a multiplexer."
//! The Zynq PS owns the DRAM during preload (weights + input image); the
//! SoC owns it during inference. Accesses from the disconnected side are
//! rejected, which is exactly the mutual exclusion the paper relies on.

use crate::{BusError, Cycle, MasterId, Payload, Request, Reset, Response, Target};

/// Which side of the mux currently owns the DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The Zynq UltraScale+ processing system (preload path).
    ZynqPs,
    /// The RISC-V + NVDLA SoC (inference path).
    Soc,
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::ZynqPs => write!(f, "zynq-ps"),
            Side::Soc => write!(f, "soc"),
        }
    }
}

/// The SmartConnect multiplexer in front of the DRAM.
#[derive(Debug)]
pub struct SmartConnect<T> {
    dram: T,
    owner: Side,
    switches: u64,
    rejected: u64,
    /// Dual-port (pipelined) configuration: when set, the Zynq PS may
    /// stream preload bursts while the SoC side owns the mux. Like the
    /// clock configuration this survives [`Reset::reset`] — it models a
    /// synthesis-time crossbar topology, not run state.
    pipelined: bool,
    /// PS-side preload bursts admitted while the SoC owned the mux.
    ps_bursts: u64,
}

impl<T: Target> SmartConnect<T> {
    /// Routing latency added per transaction.
    pub const ROUTE: Cycle = 1;

    /// Create the mux with the PS side initially connected (board reset
    /// state: the PS must initialize DRAM first).
    pub fn new(dram: T) -> Self {
        SmartConnect {
            dram,
            owner: Side::ZynqPs,
            switches: 0,
            rejected: 0,
            pipelined: false,
            ps_bursts: 0,
        }
    }

    /// Currently connected side.
    pub fn owner(&self) -> Side {
        self.owner
    }

    /// Re-point the mux. Switching is a control-plane action (done from
    /// the PS in the paper) and costs no modeled SoC cycles.
    pub fn switch_to(&mut self, side: Side) {
        if self.owner != side {
            self.owner = side;
            self.switches += 1;
        }
    }

    /// Number of ownership switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of rejected (wrong-side) transactions.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Configure the dual-port (pipelined) topology: with `on`, the
    /// Zynq PS may stream preload bursts ([`SmartConnect::admit_ps_burst`])
    /// while the SoC side owns the mux — the AXI SmartConnect is a
    /// crossbar in hardware, and the strict mux is merely how the paper's
    /// harness drives it. Contention with the SoC's traffic is then
    /// resolved downstream on the shared device timeline, which is
    /// exactly what makes an overlapped preload cost real cycles.
    ///
    /// Configuration, not state: survives [`Reset::reset`].
    pub fn set_pipelined(&mut self, on: bool) {
        self.pipelined = on;
    }

    /// Whether the dual-port (pipelined) topology is configured.
    pub fn pipelined(&self) -> bool {
        self.pipelined
    }

    /// PS-side preload bursts admitted while the SoC owned the mux.
    pub fn ps_bursts(&self) -> u64 {
        self.ps_bursts
    }

    /// Gate one PS-side preload burst. While the PS owns the mux this is
    /// the ordinary preload path and always admits; while the SoC owns
    /// it, the burst is admitted (and counted) only in the pipelined
    /// topology.
    ///
    /// The block-transfer API is master-blind, so the SoC-level preload
    /// helper calls this explicitly before issuing the burst through the
    /// arbiter.
    ///
    /// # Errors
    ///
    /// [`BusError::SlaveError`] when the SoC owns the mux and pipelining
    /// is not configured.
    pub fn admit_ps_burst(&mut self, addr: u32) -> Result<(), BusError> {
        match self.owner {
            Side::ZynqPs => Ok(()),
            Side::Soc if self.pipelined => {
                self.ps_bursts += 1;
                Ok(())
            }
            Side::Soc => {
                self.rejected += 1;
                Err(BusError::SlaveError {
                    addr,
                    reason: "SmartConnect: PS burst while SoC owns the mux (not pipelined)",
                })
            }
        }
    }

    /// Access the DRAM directly (backdoor).
    pub fn dram_mut(&mut self) -> &mut T {
        &mut self.dram
    }

    fn side_of(master: MasterId) -> Side {
        match master {
            MasterId::ZynqPs => Side::ZynqPs,
            MasterId::Cpu | MasterId::NvdlaDbb => Side::Soc,
        }
    }

    fn check(&mut self, master: MasterId, addr: u32) -> Result<(), BusError> {
        if Self::side_of(master) == self.owner {
            Ok(())
        } else {
            self.rejected += 1;
            Err(BusError::SlaveError {
                addr,
                reason: "SmartConnect: DRAM owned by the other side",
            })
        }
    }
}

impl<T: Reset> Reset for SmartConnect<T> {
    /// Board reset: ownership returns to the Zynq PS (it must initialize
    /// DRAM first), counters clear, then the DRAM behind the mux resets.
    /// The pipelined topology flag is configuration and survives.
    fn reset(&mut self) {
        self.owner = Side::ZynqPs;
        self.switches = 0;
        self.rejected = 0;
        self.ps_bursts = 0;
        self.dram.reset();
    }
}

impl<T: Target> Target for SmartConnect<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        self.check(req.master, req.addr)?;
        self.dram.access(req, now + Self::ROUTE)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        // Bursts come from the DBB (SoC side) or PS preload; the Target
        // block API carries no master, so gate on the current owner by
        // allowing it — the SoC-level code switches ownership explicitly.
        self.dram
            .burst(addr, payload.delayed(Self::ROUTE), now + Self::ROUTE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn reset_state_is_ps_owned() {
        let sc = SmartConnect::new(Sram::new(64));
        assert_eq!(sc.owner(), Side::ZynqPs);
    }

    #[test]
    fn soc_rejected_while_ps_owns() {
        let mut sc = SmartConnect::new(Sram::new(64));
        let e = sc.access(&Request::read32(0), 0).unwrap_err();
        assert!(matches!(e, BusError::SlaveError { .. }));
        assert_eq!(sc.rejected(), 1);
    }

    #[test]
    fn preload_then_switch_then_infer() {
        let mut sc = SmartConnect::new(Sram::new(64));
        // PS preloads weights.
        let ps = Request::write32(0, 0x1234).with_master(MasterId::ZynqPs);
        sc.access(&ps, 0).unwrap();
        // Hand over to the SoC.
        sc.switch_to(Side::Soc);
        assert_eq!(sc.switches(), 1);
        // Now the PS is locked out and the SoC reads the preloaded data.
        let ps_read = Request::read32(0).with_master(MasterId::ZynqPs);
        assert!(sc.access(&ps_read, 0).is_err());
        assert_eq!(sc.access(&Request::read32(0), 0).unwrap().data32(), 0x1234);
        // NVDLA's DBB also counts as the SoC side.
        let dbb = Request::read32(0).with_master(MasterId::NvdlaDbb);
        assert_eq!(sc.access(&dbb, 0).unwrap().data32(), 0x1234);
    }

    #[test]
    fn redundant_switch_not_counted() {
        let mut sc = SmartConnect::new(Sram::new(4));
        sc.switch_to(Side::ZynqPs);
        assert_eq!(sc.switches(), 0);
    }

    #[test]
    fn ps_bursts_gated_on_pipelined_topology() {
        let mut sc = SmartConnect::new(Sram::new(64));
        // PS owns: the ordinary preload path, always admitted.
        sc.admit_ps_burst(0).unwrap();
        assert_eq!(sc.ps_bursts(), 0, "PS-owned preload is not an overlap");
        sc.switch_to(Side::Soc);
        // SoC owns, strict mux: rejected.
        assert!(sc.admit_ps_burst(0x2000).is_err());
        assert_eq!(sc.rejected(), 1);
        // SoC owns, pipelined crossbar: admitted and counted.
        sc.set_pipelined(true);
        sc.admit_ps_burst(0x2000).unwrap();
        assert_eq!(sc.ps_bursts(), 1);
        // Reset clears the counter but keeps the topology.
        sc.reset();
        assert!(sc.pipelined());
        assert_eq!(sc.ps_bursts(), 0);
    }

    #[test]
    fn routing_adds_latency() {
        let mut sc = SmartConnect::new(Sram::new(64));
        sc.switch_to(Side::Soc);
        let r = sc.access(&Request::read32(0), 0).unwrap();
        assert_eq!(r.done_at, 2); // 1 route + 1 SRAM
    }
}
