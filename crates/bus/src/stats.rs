//! Generic transaction monitor.
//!
//! Wrap any [`Target`] in a [`Monitor`] to collect transaction counts,
//! byte totals and latency aggregates — the instrumentation used by the
//! Fig. 2 interconnect microbenchmarks.

use crate::{BusError, Cycle, Payload, Request, Response, Target};

/// Aggregated transaction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Read transactions observed.
    pub reads: u64,
    /// Write transactions observed.
    pub writes: u64,
    /// Bytes read (including block reads).
    pub bytes_read: u64,
    /// Bytes written (including block writes).
    pub bytes_written: u64,
    /// Sum of per-transaction latencies (cycles).
    pub total_latency: u64,
    /// Largest single-transaction latency (cycles).
    pub max_latency: u64,
    /// Errors propagated.
    pub errors: u64,
}

impl MonitorStats {
    /// Mean latency per transaction, rounded down (0 when idle).
    #[must_use]
    pub fn mean_latency(&self) -> u64 {
        let n = self.reads + self.writes;
        self.total_latency.checked_div(n).unwrap_or(0)
    }
}

/// A pass-through wrapper that observes all traffic to a target.
#[derive(Debug)]
pub struct Monitor<T> {
    inner: T,
    label: String,
    stats: MonitorStats,
}

impl<T: Target> Monitor<T> {
    /// Wrap `inner`, labelling the monitor for reports.
    pub fn new(label: impl Into<String>, inner: T) -> Self {
        Monitor {
            inner,
            label: label.into(),
            stats: MonitorStats::default(),
        }
    }

    /// The monitor's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Clear collected statistics.
    pub fn reset(&mut self) {
        self.stats = MonitorStats::default();
    }

    /// Access the wrapped target (backdoor).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwrap, returning the inner target.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Count one successful transaction of `bytes` completing at `done`.
    fn observe(&mut self, write: bool, bytes: u64, now: Cycle, done: Cycle) {
        if write {
            self.stats.writes += 1;
            self.stats.bytes_written += bytes;
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += bytes;
        }
        let lat = done - now;
        self.stats.total_latency += lat;
        self.stats.max_latency = self.stats.max_latency.max(lat);
    }
}

impl<T: Target> Target for Monitor<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        match self.inner.access(req, now) {
            Ok(resp) => {
                let bytes = u64::from(req.size.bytes());
                self.observe(req.is_write(), bytes, now, resp.done_at);
                Ok(resp)
            }
            Err(e) => {
                self.stats.errors += 1;
                Err(e)
            }
        }
    }

    /// Observes every constituent burst of a train, so walks it.
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        payload.walk(addr, now, |a, p, t| {
            let (write, bytes) = (p.is_write(), p.len() as u64);
            match self.inner.burst(a, p, t) {
                Ok(done) => {
                    self.observe(write, bytes, t, done);
                    Ok(done)
                }
                Err(e) => {
                    self.stats.errors += 1;
                    Err(e)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    #[test]
    fn counts_reads_writes_and_bytes() {
        let mut m = Monitor::new("dram", Sram::new(256));
        m.access(&Request::write32(0, 1), 0).unwrap();
        m.access(&Request::read32(0), 0).unwrap();
        m.write_block(0, &[0u8; 16], 0).unwrap();
        let s = m.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 20);
        assert_eq!(s.bytes_read, 4);
        assert_eq!(s.errors, 0);
        assert_eq!(m.label(), "dram");
    }

    #[test]
    fn latency_aggregates() {
        let mut m = Monitor::new("x", Sram::new(64));
        m.access(&Request::read32(0), 0).unwrap();
        m.access(&Request::read32(4), 100).unwrap();
        let s = m.stats();
        assert_eq!(s.total_latency, 2);
        assert_eq!(s.max_latency, 1);
        assert_eq!(s.mean_latency(), 1);
    }

    #[test]
    fn errors_counted_and_propagated() {
        let mut m = Monitor::new("x", Sram::new(4));
        assert!(m.access(&Request::read32(64), 0).is_err());
        assert_eq!(m.stats().errors, 1);
    }

    #[test]
    fn reset_clears() {
        let mut m = Monitor::new("x", Sram::new(4));
        m.access(&Request::read32(0), 0).unwrap();
        m.reset();
        assert_eq!(m.stats(), MonitorStats::default());
    }

    #[test]
    fn mean_latency_idle_is_zero() {
        let m = Monitor::new("x", Sram::new(4));
        assert_eq!(m.stats().mean_latency(), 0);
    }
}
