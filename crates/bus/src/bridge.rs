//! Interface bridges of the NVDLA wrapper (Fig. 2).
//!
//! * [`AhbToApb`] — the open-source ARM AHB→APB bridge in front of the
//!   APB-to-CSB adapter. Every register access crosses it, so its latency
//!   multiplies across the thousands of `write_reg` commands in a
//!   configuration trace.
//! * [`AhbToAxi`] — connects the core's AHB-Lite port to the AXI data
//!   memory.

use crate::apb::ApbPort;
use crate::axi::{AxiConfig, AxiPort};
use crate::{BusError, Cycle, Payload, Request, Response, Target};

/// AHB-Lite → APB bridge.
///
/// The bridge re-times the AHB transfer into the APB clock enable, adding
/// a fixed resynchronization cost on top of APB's SETUP+ACCESS phases.
#[derive(Debug)]
pub struct AhbToApb<T> {
    apb: ApbPort<T>,
    crossings: u64,
}

impl<T: Target> AhbToApb<T> {
    /// Resynchronization latency added by the bridge, per transfer.
    pub const RESYNC: Cycle = 2;

    /// Bridge to an APB peripheral.
    pub fn new(peripheral: T) -> Self {
        AhbToApb {
            apb: ApbPort::new(peripheral),
            crossings: 0,
        }
    }

    /// Total transfers that crossed the bridge.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Total AHB-side cycles one register access costs in steady state
    /// (bridge resync + APB setup + APB access), excluding the
    /// peripheral's own wait states.
    #[must_use]
    pub fn nominal_latency() -> Cycle {
        Self::RESYNC + ApbPort::<T>::SETUP + ApbPort::<T>::ACCESS
    }

    /// Access the wrapped peripheral directly (backdoor).
    pub fn peripheral_mut(&mut self) -> &mut T {
        self.apb.peripheral_mut()
    }
}

impl<T: Target> Target for AhbToApb<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        self.crossings += 1;
        self.apb.access(req, now + Self::RESYNC)
    }

    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        // A repeat issued here at `t` reaches the APB port at
        // `t + RESYNC`, so the bound shifts back by the same amount.
        self.apb
            .read_lease(addr, now + Self::RESYNC)
            .map(|until| until.saturating_sub(Self::RESYNC))
    }
}

/// AHB-Lite → AXI bridge.
///
/// Buffers one AHB transfer and replays it as a single-beat AXI burst;
/// block transfers become INCR bursts.
#[derive(Debug)]
pub struct AhbToAxi<T> {
    axi: AxiPort<T>,
    crossings: u64,
}

impl<T: Target> AhbToAxi<T> {
    /// Store-and-forward latency added by the bridge FIFO.
    pub const FIFO: Cycle = 1;

    /// Bridge to an AXI subordinate with the given port configuration.
    pub fn new(downstream: T, config: AxiConfig) -> Self {
        AhbToAxi {
            axi: AxiPort::new(downstream, config),
            crossings: 0,
        }
    }

    /// Total transfers that crossed the bridge.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Access the wrapped downstream target directly (backdoor).
    pub fn downstream_mut(&mut self) -> &mut T {
        self.axi.downstream_mut()
    }

    /// Statistics of the AXI side.
    pub fn axi_stats(&self) -> crate::axi::AxiStats {
        self.axi.stats()
    }
}

impl<T: Target> Target for AhbToAxi<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        self.crossings += 1;
        self.axi.access(req, now + Self::FIFO)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        payload.walk(addr, now, |a, p, t| {
            self.crossings += 1;
            self.axi.burst(a, p, t + Self::FIFO)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn ahb_to_apb_latency_stack() {
        let mut b = AhbToApb::new(Sram::new(64));
        let r = b.access(&Request::write32(0, 5), 0).unwrap();
        // RESYNC(2) + SETUP(1) + SRAM-as-ACCESS(1) = 4.
        assert_eq!(r.done_at, 4);
        assert_eq!(b.crossings(), 1);
    }

    #[test]
    fn nominal_latency_matches_observed_floor() {
        // Peripheral with zero extra wait states would still pay this.
        assert_eq!(AhbToApb::<Sram>::nominal_latency(), 4);
    }

    #[test]
    fn register_access_dearer_than_ram_access() {
        // The motivating asymmetry: a CSB register write (through the
        // bridge) costs multiple cycles; a program-memory fetch costs one.
        let mut bridge = AhbToApb::new(Sram::new(64));
        let reg = bridge.access(&Request::write32(0, 1), 0).unwrap().done_at;
        let mut ram = Sram::new(64);
        let mem = ram.access(&Request::write32(0, 1), 0).unwrap().done_at;
        assert!(reg >= 4 * mem);
    }

    #[test]
    fn ahb_to_axi_round_trip() {
        let mut b = AhbToAxi::new(Sram::new(256), AxiConfig::axi32());
        let t = b
            .access(&Request::write32(16, 0x55AA_55AA), 0)
            .unwrap()
            .done_at;
        let r = b.access(&Request::read32(16), t).unwrap();
        assert_eq!(r.data32(), 0x55AA_55AA);
        assert_eq!(b.crossings(), 2);
    }

    #[test]
    fn ahb_to_axi_block_uses_bursts() {
        let mut b = AhbToAxi::new(Sram::new(4096), AxiConfig::axi64());
        let data = vec![3u8; 1024];
        b.write_block(0, &data, 0).unwrap();
        assert_eq!(b.axi_stats().beats, 128);
        let mut out = vec![0u8; 1024];
        b.read_block(0, &mut out, 0).unwrap();
        assert_eq!(out, data);
    }
}
