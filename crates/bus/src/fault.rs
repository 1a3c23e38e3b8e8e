//! Deterministic fault injection for any fabric edge.
//!
//! A [`FaultInjector`] wraps any [`Target`] and, driven by a seeded
//! [`FaultPlan`], corrupts read data (bit flips), returns typed
//! [`BusError::Injected`] responses, or stretches transaction latency
//! (spikes). With no plan armed the shim is one branch on the hot path
//! and otherwise forwards everything untouched — the faults-off timing
//! and data are bit- and cycle-identical to an unwrapped device.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(seed, access index)`
//! via SplitMix64 — never of host time, thread scheduling, or the
//! *addresses* involved. Two runs that issue the same transaction
//! sequence to the injector therefore observe the same faults at the
//! same points, which is what lets a chaos-serving run be replayed
//! with zero divergence and lets a fuzz counterexample be promoted to
//! a fixed-seed regression test.
//!
//! Probability rates are expressed in **events per million accesses**
//! so plans stay integer-only (no float drift across platforms). A
//! [`FaultPlan::at`] schedule pins faults to exact access indices on
//! top of (or instead of) the probabilistic stream — handy for tests
//! that need "access #3 of this frame returns a bus error".
//!
//! # Reset semantics
//!
//! Resetting a `FaultInjector` resets the device underneath but
//! deliberately preserves the injector's access counter, plan and
//! statistics. This is the second documented exception to the
//! [`Reset`] bit-identity contract (after [`crate::dram::Dram`]
//! residency): a chaos plan describes a *fleet lifetime*, not one
//! frame, so the fault stream must keep advancing across the per-frame
//! resets a warm SoC performs. Disarm (or re-arm) the plan explicitly
//! to return to a pristine fault state.

use crate::{BusError, Cycle, Data, Payload, Request, Reset, Response, Target};

/// One scheduled fault: at global access index `access`, apply `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Zero-based index in the injector's access stream.
    pub access: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// The kinds of fault the shim can inject on a single transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR the read data with `mask` (silent corruption; writes and
    /// timing are untouched). On a write this is a no-op.
    BitFlip {
        /// XOR mask applied to the 64-bit read data.
        mask: u64,
    },
    /// Fail the transaction with [`BusError::Injected`] before it
    /// reaches the device (no device state changes).
    ErrorResponse,
    /// Let the transaction proceed, then stretch its completion by
    /// `cycles` (models a refresh collision, a retrained link, or —
    /// with a huge value — a hang that a watchdog must catch).
    LatencySpike {
        /// Extra cycles added to `done_at`.
        cycles: u64,
    },
}

/// A seeded description of which accesses fault and how.
///
/// Rates are per-million-accesses; `schedule` entries fire exactly at
/// their access index and take precedence over the probabilistic
/// stream. The default plan injects nothing (all rates zero).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the per-access fault lottery.
    pub seed: u64,
    /// Bit-flip rate, events per million accesses.
    pub flip_per_million: u32,
    /// Error-response rate, events per million accesses.
    pub error_per_million: u32,
    /// Latency-spike rate, events per million accesses.
    pub spike_per_million: u32,
    /// Magnitude of probabilistic latency spikes, in cycles.
    pub spike_cycles: u64,
    /// Exact-index faults, applied on top of the probabilistic stream.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that injects nothing but still runs the decision path —
    /// used to prove the armed-but-quiet overhead is negligible.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add a scheduled fault at `access`, returning `self` for chaining.
    #[must_use]
    pub fn at(mut self, access: u64, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault { access, kind });
        self
    }

    /// True when the plan can never fire (no rates, no schedule).
    pub fn is_quiet(&self) -> bool {
        self.flip_per_million == 0
            && self.error_per_million == 0
            && self.spike_per_million == 0
            && self.schedule.is_empty()
    }

    /// Decide the fault (if any) for access index `n`.
    fn decide(&self, n: u64) -> Option<FaultKind> {
        if let Some(s) = self.schedule.iter().find(|s| s.access == n) {
            return Some(s.kind);
        }
        let total = u64::from(self.flip_per_million)
            + u64::from(self.error_per_million)
            + u64::from(self.spike_per_million);
        if total == 0 {
            return None;
        }
        let h = mix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let draw = h % 1_000_000;
        if draw >= total {
            return None;
        }
        if draw < u64::from(self.flip_per_million) {
            // Derive a nonzero mask from an independent hash lane.
            let mask = mix64(h) | 1;
            Some(FaultKind::BitFlip { mask })
        } else if draw < u64::from(self.flip_per_million) + u64::from(self.error_per_million) {
            Some(FaultKind::ErrorResponse)
        } else {
            Some(FaultKind::LatencySpike {
                cycles: self.spike_cycles,
            })
        }
    }
}

/// Fault-stream statistics (what actually fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total transactions seen while a plan was armed.
    pub accesses: u64,
    /// Read-data bit flips applied.
    pub flips: u64,
    /// Typed error responses injected.
    pub errors: u64,
    /// Latency spikes applied.
    pub spikes: u64,
}

impl FaultStats {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.flips + self.errors + self.spikes
    }

    /// Counter-wise difference since `earlier` (same injector, later in
    /// time) — the repo-wide snapshot-delta convention
    /// (`BlockCacheStats::since`).
    #[must_use]
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            accesses: self.accesses - earlier.accesses,
            flips: self.flips - earlier.flips,
            errors: self.errors - earlier.errors,
            spikes: self.spikes - earlier.spikes,
        }
    }

    /// Publish these counters into a [`rvnv_obs::MetricsRegistry`]
    /// under the `fault.*` namespace. Call with a delta ([`FaultStats::since`])
    /// to publish one run's share, or with cumulative stats once.
    pub fn publish(&self, metrics: &rvnv_obs::MetricsRegistry) {
        metrics.counter("fault.accesses", self.accesses);
        metrics.counter("fault.flips", self.flips);
        metrics.counter("fault.errors", self.errors);
        metrics.counter("fault.spikes", self.spikes);
    }
}

/// The injection shim. Wraps a downstream [`Target`]; see the module
/// docs for determinism and reset semantics.
#[derive(Debug)]
pub struct FaultInjector<T> {
    inner: T,
    plan: Option<FaultPlan>,
    access: u64,
    stats: FaultStats,
}

impl<T> FaultInjector<T> {
    /// Wrap `inner` with faults disabled (pure passthrough).
    pub fn new(inner: T) -> Self {
        FaultInjector {
            inner,
            plan: None,
            access: 0,
            stats: FaultStats::default(),
        }
    }

    /// Arm a fault plan; restarts the access counter and statistics so
    /// the stream is reproducible from this point.
    pub fn arm(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.access = 0;
        self.stats = FaultStats::default();
    }

    /// Disarm: back to the untouched fast path. Statistics survive for
    /// post-mortem reads until the next [`FaultInjector::arm`].
    pub fn disarm(&mut self) {
        self.plan = None;
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// What has fired since the plan was armed.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Direct access to the wrapped device (backdoors bypass injection).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Shared access to the wrapped device.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Draw the fault decision for the next access and advance the
    /// stream. Returns `None` both when disarmed and when the armed
    /// plan stays quiet for this index.
    fn next_fault(&mut self, _addr: u32) -> (u64, Option<FaultKind>) {
        let n = self.access;
        match &self.plan {
            None => (n, None),
            Some(plan) => {
                self.access += 1;
                self.stats.accesses += 1;
                (n, plan.decide(n))
            }
        }
    }
}

/// SplitMix64 mix function (Steele, Lea, Flood 2014) — now the
/// workspace-shared copy in `rvnv_util`, re-exported under its old
/// path so higher layers (the serving simulator's per-attempt fault
/// lottery, the fabric fuzz fingerprints) keep the exact same mixer
/// without growing a second, subtly different one.
pub use rvnv_util::mix64;

impl<T: Target> Target for FaultInjector<T> {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let (n, fault) = self.next_fault(req.addr);
        match fault {
            None => self.inner.access(req, now),
            Some(FaultKind::ErrorResponse) => {
                self.stats.errors += 1;
                Err(BusError::Injected {
                    addr: req.addr,
                    access: n,
                })
            }
            Some(FaultKind::BitFlip { mask }) => {
                let mut resp = self.inner.access(req, now)?;
                if !req.is_write() {
                    self.stats.flips += 1;
                    resp.data ^= mask & req.size.mask();
                }
                Ok(resp)
            }
            Some(FaultKind::LatencySpike { cycles }) => {
                let mut resp = self.inner.access(req, now)?;
                self.stats.spikes += 1;
                resp.done_at = resp.done_at.saturating_add(cycles);
                Ok(resp)
            }
        }
    }

    /// A lease promises repeat reads are stable; an armed plan can
    /// break that promise at any index, so leases are only forwarded
    /// on the untouched fast path.
    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        if self.plan.is_some() {
            return None;
        }
        self.inner.read_lease(addr, now)
    }

    /// Disarmed, a train passes through untouched. Armed, every
    /// constituent burst draws from the lottery once, so the train is
    /// walked: each burst meets its own fate, and an error stops the
    /// train there.
    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        if self.plan.is_none() {
            return self.inner.burst(addr, payload, now);
        }
        payload.walk(addr, now, |a, p, t| self.faulted_burst(a, p, t))
    }
}

impl<T: Target> FaultInjector<T> {
    /// One burst under the armed plan.
    fn faulted_burst(
        &mut self,
        addr: u32,
        mut payload: Payload<'_>,
        now: Cycle,
    ) -> Result<Cycle, BusError> {
        let (n, fault) = self.next_fault(addr);
        match fault {
            None => self.inner.burst(addr, payload, now),
            Some(FaultKind::ErrorResponse) => {
                self.stats.errors += 1;
                Err(BusError::Injected { addr, access: n })
            }
            Some(FaultKind::BitFlip { mask }) => {
                let done = self.inner.burst(addr, payload.slice(0, usize::MAX), now)?;
                // Flips target read data; a flipped write is modeled as
                // a flip on whatever read observes it later, so a write
                // proceeds untouched. A length-only read counts the flip
                // it has no bytes to apply to.
                if !payload.is_write() {
                    self.stats.flips += 1;
                }
                if let Data::Read(buf) = payload.data {
                    // Flip within the first 8 bytes of the burst.
                    for (b, m) in buf.iter_mut().zip(mask.to_le_bytes()) {
                        *b ^= m;
                    }
                }
                Ok(done)
            }
            Some(FaultKind::LatencySpike { cycles }) => {
                let done = self.inner.burst(addr, payload, now)?;
                self.stats.spikes += 1;
                Ok(done.saturating_add(cycles))
            }
        }
    }
}

impl<T: Reset> Reset for FaultInjector<T> {
    /// Resets the device underneath; the fault stream (plan, counter,
    /// stats) survives by contract — see the module docs.
    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;
    use crate::AccessSize;

    fn mem() -> FaultInjector<Sram> {
        let mut m = Sram::new(0x100);
        for a in (0..0x100u32).step_by(4) {
            m.access(&Request::write32(a, 0xA5A5_A5A5), 0).unwrap();
        }
        FaultInjector::new(m)
    }

    #[test]
    fn disarmed_is_passthrough() {
        let mut f = mem();
        let r = f.access(&Request::read32(0x10), 7).unwrap();
        assert_eq!(r.data as u32, 0xA5A5_A5A5);
        assert_eq!(f.stats(), FaultStats::default());
        assert_eq!(f.access, 0, "disarmed shim must not even count");
    }

    #[test]
    fn scheduled_faults_fire_at_exact_indices() {
        let mut f = mem();
        f.arm(
            FaultPlan::default()
                .at(1, FaultKind::ErrorResponse)
                .at(2, FaultKind::BitFlip { mask: 0xFF })
                .at(3, FaultKind::LatencySpike { cycles: 1000 }),
        );
        assert_eq!(
            f.access(&Request::read32(0x0), 0).unwrap().data as u32,
            0xA5A5_A5A5
        );
        let e = f.access(&Request::read32(0x4), 0).unwrap_err();
        assert_eq!(
            e,
            BusError::Injected {
                addr: 0x4,
                access: 1
            }
        );
        let flipped = f.access(&Request::read32(0x8), 0).unwrap();
        assert_eq!(flipped.data as u32, 0xA5A5_A55A);
        let slow = f.access(&Request::read32(0xC), 0).unwrap();
        assert!(slow.done_at >= 1000);
        assert_eq!(
            f.stats(),
            FaultStats {
                accesses: 4,
                flips: 1,
                errors: 1,
                spikes: 1
            }
        );
    }

    #[test]
    fn probabilistic_stream_is_deterministic_and_seed_sensitive() {
        let run = |seed: u64| {
            let mut f = mem();
            f.arm(FaultPlan {
                seed,
                flip_per_million: 50_000,
                error_per_million: 50_000,
                spike_per_million: 50_000,
                spike_cycles: 100,
                schedule: vec![],
            });
            let mut log = Vec::new();
            for i in 0..2000u32 {
                let r = f.access(&Request::read32((i % 64) * 4), 0);
                log.push(r.is_err());
            }
            (log, f.stats())
        };
        let (a1, s1) = run(7);
        let (a2, s2) = run(7);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert!(s1.total() > 0, "15% composite rate must fire in 2000 draws");
        let (b1, sb) = run(8);
        assert!(
            a1 != b1 || s1 != sb,
            "a different seed must move the faults"
        );
    }

    #[test]
    fn rates_land_near_the_requested_per_million() {
        let mut f = mem();
        f.arm(FaultPlan {
            seed: 42,
            error_per_million: 100_000, // 10%
            ..FaultPlan::default()
        });
        let n = 10_000u64;
        for i in 0..n {
            let _ = f.access(&Request::read32(((i % 64) * 4) as u32), 0);
        }
        let rate = f.stats().errors as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "10% requested, got {rate}");
    }

    #[test]
    fn flips_do_not_touch_writes_and_leases_vanish_when_armed() {
        let mut f = mem();
        assert!(
            f.read_lease(0x10, 0).is_none(),
            "sram offers no lease anyway"
        );
        f.arm(FaultPlan::default().at(0, FaultKind::BitFlip { mask: 0xFF }));
        // Access #0 is a write: the flip must not corrupt stored data.
        f.access(&Request::write32(0x10, 0x1234_5678), 0).unwrap();
        assert!(f.read_lease(0x10, 0).is_none());
        let r = f.access(&Request::read32(0x10), 1).unwrap();
        assert_eq!(r.data as u32, 0x1234_5678);
        assert_eq!(f.stats().flips, 0);
    }

    #[test]
    fn block_ops_fault_too() {
        let mut f = mem();
        f.arm(
            FaultPlan::default()
                .at(0, FaultKind::ErrorResponse)
                .at(2, FaultKind::LatencySpike { cycles: 500 }),
        );
        let mut buf = [0u8; 16];
        let e = f.read_block(0x0, &mut buf, 0).unwrap_err();
        assert!(matches!(e, BusError::Injected { access: 0, .. }));
        let clean = f.read_block(0x0, &mut buf, 0).unwrap();
        assert_eq!(buf, [0xA5; 16]);
        let slow = f.write_block(0x0, &buf, 0).unwrap();
        assert!(slow >= clean + 500 - 16, "spike must stretch the burst");
    }

    /// A length-only burst draws from the lottery exactly once and
    /// meets the same fate as the data burst it stands for.
    #[test]
    fn length_only_bursts_draw_the_same_faults() {
        let plan = FaultPlan::default()
            .at(0, FaultKind::ErrorResponse)
            .at(1, FaultKind::BitFlip { mask: 0xFF })
            .at(2, FaultKind::BitFlip { mask: 0xFF })
            .at(3, FaultKind::LatencySpike { cycles: 500 });
        let run = |data: bool| {
            let mut f = mem();
            f.arm(plan.clone());
            let mut buf = [0u8; 16];
            let outcomes: Vec<_> = [false, false, true, true]
                .into_iter()
                .map(|write| {
                    let payload = match (data, write) {
                        (true, false) => Payload::read(&mut buf),
                        (true, true) => Payload::write(&[1; 16]),
                        (false, write) => Payload::length_only(16, write),
                    };
                    f.burst(0, payload, 0)
                })
                .collect();
            (outcomes, f.stats())
        };
        let (outcomes, stats) = run(false);
        assert_eq!((outcomes.clone(), stats), run(true));
        assert!(matches!(
            outcomes[0],
            Err(BusError::Injected { access: 0, .. })
        ));
        assert_eq!((stats.accesses, stats.flips, stats.spikes), (4, 1, 1));
    }

    #[test]
    fn reset_preserves_the_fault_stream() {
        let mut f = mem();
        f.arm(FaultPlan::default().at(1, FaultKind::ErrorResponse));
        f.access(&Request::read32(0x0), 0).unwrap();
        f.reset();
        assert_eq!(f.access, 1, "counter survives reset by contract");
        let e = f.access(&Request::read32(0x0), 0).unwrap_err();
        assert!(matches!(e, BusError::Injected { access: 1, .. }));
    }

    #[test]
    fn quiet_plan_counts_but_never_fires() {
        let mut f = mem();
        f.arm(FaultPlan::quiet(9));
        assert!(f.plan().unwrap().is_quiet());
        for i in 0..100u32 {
            f.access(&Request::read32((i % 64) * 4), 0).unwrap();
        }
        assert_eq!(f.stats().accesses, 100);
        assert_eq!(f.stats().total(), 0);
    }

    #[test]
    fn size_masked_flip_never_widens_a_narrow_read() {
        let mut f = mem();
        f.arm(FaultPlan::default().at(0, FaultKind::BitFlip { mask: !0 }));
        let r = f.access(&Request::read(0x10, AccessSize::Byte), 0).unwrap();
        assert!(
            r.data <= 0xFF,
            "flipped byte read must stay a byte: {:#x}",
            r.data
        );
    }
}
