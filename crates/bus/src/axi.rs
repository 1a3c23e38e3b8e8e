//! AXI4 port model with burst transactions.
//!
//! AXI separates address and data channels and moves data in bursts of up
//! to 256 beats. The model charges a channel-handshake latency per burst
//! plus one cycle per data beat at the port's data width; the downstream
//! device may add its own latency (DRAM row misses etc.). This is the
//! protocol of the data memory and of NVDLA's 64-bit data backbone (DBB).

use crate::{BusError, Cycle, Payload, Request, Response, Target};

/// Configuration of an AXI port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiConfig {
    /// Data-bus width in bytes per beat (4 = 32-bit, 8 = 64-bit DBB,
    /// 64 = 512-bit `nv_full` DBB).
    pub data_bytes: u32,
    /// AR/AW channel handshake latency per burst.
    pub handshake: Cycle,
    /// Maximum beats per burst (AXI4: 256).
    pub max_burst: u32,
}

impl AxiConfig {
    /// 32-bit AXI, as used toward the data memory.
    #[must_use]
    pub fn axi32() -> Self {
        AxiConfig {
            data_bytes: 4,
            handshake: 2,
            max_burst: 256,
        }
    }

    /// 64-bit AXI, the `nv_small` DBB width.
    #[must_use]
    pub fn axi64() -> Self {
        AxiConfig {
            data_bytes: 8,
            handshake: 2,
            max_burst: 256,
        }
    }

    /// 512-bit AXI, the `nv_full` DBB width.
    #[must_use]
    pub fn axi512() -> Self {
        AxiConfig {
            data_bytes: 64,
            handshake: 2,
            max_burst: 256,
        }
    }
}

impl Default for AxiConfig {
    fn default() -> Self {
        Self::axi32()
    }
}

/// Statistics recorded by an [`AxiPort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AxiStats {
    /// Bursts issued.
    pub bursts: u64,
    /// Total beats transferred.
    pub beats: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

/// An AXI manager port in front of a downstream target.
#[derive(Debug)]
pub struct AxiPort<T> {
    downstream: T,
    config: AxiConfig,
    stats: AxiStats,
}

impl<T: Target> AxiPort<T> {
    /// Wrap `downstream` behind an AXI port with `config`.
    pub fn new(downstream: T, config: AxiConfig) -> Self {
        AxiPort {
            downstream,
            config,
            stats: AxiStats::default(),
        }
    }

    /// Port configuration.
    pub fn config(&self) -> AxiConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AxiStats {
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

    /// Protocol cost (handshakes + beat streaming) of moving `len` bytes,
    /// excluding downstream latency.
    #[must_use]
    pub fn protocol_cycles(&self, len: usize) -> Cycle {
        if len == 0 {
            return 0;
        }
        let beats = (len as u64).div_ceil(u64::from(self.config.data_bytes));
        let bursts = beats.div_ceil(u64::from(self.config.max_burst));
        bursts * self.config.handshake + beats
    }

    fn record(&mut self, len: usize) {
        let beats = (len as u64).div_ceil(u64::from(self.config.data_bytes));
        self.stats.bursts += beats.div_ceil(u64::from(self.config.max_burst)).max(1);
        self.stats.beats += beats;
        self.stats.bytes += len as u64;
    }
}

impl<T: Target> Target for AxiPort<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        // A single transfer is a one-beat burst.
        let issued = now + self.config.handshake;
        let resp = self.downstream.access(req, issued)?;
        self.record(req.size.bytes() as usize);
        Ok(resp)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        payload.walk(addr, now, |a, p, t| {
            let len = p.len();
            let done = self.downstream.burst(a, p, t)?;
            self.record(len);
            // Protocol streaming and memory streaming overlap; the burst
            // takes whichever is longer.
            Ok(done.max(t + self.protocol_cycles(len)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn single_access_pays_handshake() {
        let mut p = AxiPort::new(Sram::new(64), AxiConfig::axi32());
        let r = p.access(&Request::read32(0), 0).unwrap();
        assert_eq!(r.done_at, 3); // 2 handshake + 1 SRAM
    }

    #[test]
    fn wider_bus_needs_fewer_protocol_cycles() {
        let narrow = AxiPort::new(Sram::new(64), AxiConfig::axi32());
        let wide = AxiPort::new(Sram::new(64), AxiConfig::axi512());
        assert!(wide.protocol_cycles(4096) < narrow.protocol_cycles(4096) / 8);
    }

    #[test]
    fn long_burst_splits_at_256_beats() {
        let p = AxiPort::new(Sram::new(64), AxiConfig::axi32());
        // 2048 bytes = 512 beats = 2 bursts => 2 handshakes + 512 beats.
        assert_eq!(p.protocol_cycles(2048), 2 * 2 + 512);
    }

    #[test]
    fn zero_length_costs_nothing() {
        let p = AxiPort::new(Sram::new(64), AxiConfig::axi64());
        assert_eq!(p.protocol_cycles(0), 0);
    }

    #[test]
    fn stats_track_beats_and_bytes() {
        let mut p = AxiPort::new(Sram::new(1024), AxiConfig::axi64());
        p.write_block(0, &vec![7u8; 256], 0).unwrap();
        let s = p.stats();
        assert_eq!(s.bytes, 256);
        assert_eq!(s.beats, 32); // 256 / 8
        assert_eq!(s.bursts, 1);
    }

    #[test]
    fn block_round_trip() {
        let mut p = AxiPort::new(Sram::new(1024), AxiConfig::axi64());
        let data: Vec<u8> = (0..128u8).collect();
        let t = p.write_block(64, &data, 0).unwrap();
        let mut out = vec![0u8; 128];
        p.read_block(64, &mut out, t).unwrap();
        assert_eq!(out, data);
    }
}
