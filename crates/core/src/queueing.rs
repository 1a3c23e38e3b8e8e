//! The queueing kernel under [`serve`](crate::serve) and
//! [`fleet`](crate::fleet).
//!
//! A [`Station`] is one pool of identical workers behind a bounded
//! admission queue, stepped event by event in modeled time over a
//! calibrated [`ServiceModel`]. It owns what every layer above a single
//! SoC shares: admission (straight to an idle worker, else queue, else
//! drop), the [`Policy`] pick over its queues, the serial dispatch arm
//! with its retry loop and fault lottery, the pipelined arm, span
//! emission, and the dispatch log the real-SoC replays are checked
//! against. It does not know where requests come from or what a report
//! looks like: the caller owns the [`RequestRecord`] ledger and the
//! clock, calls [`Station::advance`] up to each arrival and
//! [`Station::offer`] with it, and reads the ledger, the worker
//! statistics and the log back afterwards.
//!
//! `serve` drives one station with a queue per model. `fleet` drives
//! one station per pool with a single queue — on which every [`Policy`]
//! is arrival order — and adds and drains workers as its autoscaler
//! decides.

use std::cmp::Reverse;
use std::collections::VecDeque;

use rvnv_obs::{SpanKind, Tracer, TrackId, TrackKind};
use rvnv_util::mix64;

use crate::batch::Policy;
use crate::serve::{
    FaultReport, FaultSpec, RequestOutcome, RequestRecord, ServiceModel, WorkerStats,
};

/// What one frame attempt drew from the chaos lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    /// Silent output corruption, caught by the fingerprint check.
    Flip,
    /// Typed mid-frame bus error.
    BusErr,
    /// The frame completes but takes a latency spike.
    Spike,
    /// The firmware hangs; only the watchdog recovers the worker.
    Hang,
    /// The worker crashes mid-frame and must re-warm.
    Crash,
}

/// Draw the fault (if any) for one `(request, attempt)` — a pure
/// function of the spec's seed, so fault traces replay bit-identically.
fn draw_fault(f: &FaultSpec, request: usize, attempt: u32) -> Option<FrameFault> {
    let h = mix64(
        mix64(f.seed ^ (request as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ u64::from(attempt),
    );
    let lot = h % 1_000_000;
    let mut edge = u64::from(f.flip_per_million);
    if lot < edge {
        return Some(FrameFault::Flip);
    }
    edge += u64::from(f.error_per_million);
    if lot < edge {
        return Some(FrameFault::BusErr);
    }
    edge += u64::from(f.spike_per_million);
    if lot < edge {
        return Some(FrameFault::Spike);
    }
    edge += u64::from(f.hang_per_million);
    if lot < edge {
        return Some(FrameFault::Hang);
    }
    edge += u64::from(f.crash_per_million);
    if lot < edge {
        return Some(FrameFault::Crash);
    }
    None
}

/// A station's fault plan, recovery policy and ledger. The default is
/// the quiet plan: no fault ever fires, no watchdog, so every attempt is
/// the first and runs to completion.
#[derive(Debug, Default)]
pub(crate) struct Chaos {
    /// The armed plan (`None` = never faults; a timeout alone can still
    /// abort attempts).
    pub faults: Option<FaultSpec>,
    /// Spike magnitude in cycles.
    pub spike_cycles: u64,
    /// Per-attempt timeout in cycles (0 = none).
    pub timeout: u64,
    /// Retry budget per request.
    pub retries: u32,
    /// Shed a retry once a request is this many cycles past arrival.
    pub shed_after: u64,
    /// Attempts consumed by requests that crashed and failed over,
    /// indexed by request (grown on the first crash; absent = 0), so a
    /// requeued request never re-draws the fault that killed it.
    pub attempts: Vec<u32>,
    /// What the machinery observed and did.
    pub report: FaultReport,
}

/// Where a station's spans land. With a disarmed tracer every track is
/// [`TrackId::NONE`], `names` may be empty, and every emission site is
/// one `is_armed` branch.
pub(crate) struct Probe<'a> {
    pub tracer: &'a Tracer,
    /// Span labels, by the station's model index.
    pub names: &'a [String],
    /// Worker `k` (counted over the station's lifetime, never reused)
    /// gets the sync track named `{worker_prefix}{k}`.
    pub worker_prefix: &'a str,
    /// The async track of admission-queue waits (waits overlap).
    pub queue: TrackId,
}

/// Event-driven state of one worker.
pub(crate) struct Worker {
    /// When the worker's next decision point occurs.
    pub free_at: u64,
    /// Pipelined mode: the request whose input is (being) staged and
    /// whose compute starts at `free_at`.
    staged: Option<usize>,
    /// Completion cycle of the previous frame in the open burst.
    burst_prev_completion: u64,
    /// The next frame to compute is the first of a new burst.
    opens_burst: bool,
    pub stats: WorkerStats,
    track: TrackId,
}

/// One served frame, in dispatch order: the plan a replay on a real
/// SoC must reproduce.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dispatch {
    /// Index of the worker at dispatch time.
    pub worker: usize,
    /// Index of the request in the ledger.
    pub request: usize,
    /// The modeled per-frame latency
    /// ([`crate::batch::FrameLatency`] semantics) of the clean frame.
    pub predicted: u64,
    /// First frame of a pipelined burst (it carries the pipeline fill).
    /// Never set on a serial station: all of a worker's frames are one
    /// burst.
    pub opens_burst: bool,
}

/// One pool of workers behind a bounded admission queue. See the
/// [module docs](self).
pub(crate) struct Station<'a> {
    service: &'a ServiceModel,
    policy: Policy,
    pipelined: bool,
    queue_depth: usize,
    /// FIFOs of admitted request indices: one per model, or a single
    /// one shared by every model.
    queues: Vec<VecDeque<usize>>,
    queued: usize,
    /// Round-robin rotation cursor.
    cursor: usize,
    /// Workers that ever joined (names the next worker's track).
    joined: usize,
    pub workers: Vec<Worker>,
    pub chaos: Chaos,
    pub log: Vec<Dispatch>,
    pub probe: Probe<'a>,
}

impl<'a> Station<'a> {
    /// An empty station (no workers yet — see [`Station::add_worker`])
    /// over `queues` FIFOs: `service.models()` of them for per-model
    /// queues the policy picks among, 1 for plain arrival order.
    pub(crate) fn new(
        service: &'a ServiceModel,
        policy: Policy,
        pipelined: bool,
        queue_depth: usize,
        queues: usize,
        chaos: Chaos,
        probe: Probe<'a>,
    ) -> Self {
        Station {
            service,
            policy,
            pipelined,
            queue_depth,
            queues: vec![VecDeque::new(); queues],
            queued: 0,
            cursor: 0,
            joined: 0,
            workers: Vec::new(),
            chaos,
            log: Vec::new(),
            probe,
        }
    }

    /// A worker joins at `now` and takes work from `now + warmup` on;
    /// the warm-up (streaming the resident weight images in) counts as
    /// busy time.
    pub(crate) fn add_worker(&mut self, now: u64, warmup: u64) {
        let tracer = self.probe.tracer;
        let track = if tracer.is_armed() {
            let name = format!("{}{}", self.probe.worker_prefix, self.joined);
            tracer.track(&name, TrackKind::Sync)
        } else {
            TrackId::NONE
        };
        tracer.span(track, SpanKind::Rewarm, now, now + warmup, "scale-up");
        self.joined += 1;
        self.workers.push(Worker {
            free_at: now + warmup,
            staged: None,
            burst_prev_completion: 0,
            opens_burst: false,
            stats: WorkerStats {
                frames: 0,
                busy_cycles: warmup,
            },
            track,
        });
    }

    /// The most-loaded worker (latest `free_at`, lowest index on ties)
    /// leaves: its in-flight frame was accounted at dispatch, so it
    /// simply takes no more work. Returns its statistics. For serial
    /// stations — a pipelined worker's staged request would leave with
    /// it.
    pub(crate) fn drain_worker(&mut self) -> WorkerStats {
        let victim = (0..self.workers.len())
            .max_by_key(|&w| (self.workers[w].free_at, Reverse(w)))
            .expect("a station never drains its last worker");
        self.workers.remove(victim).stats
    }

    /// Workers busy at `now` plus the queued backlog (after
    /// [`Station::advance`] to `now`).
    pub(crate) fn load(&self, now: u64) -> u64 {
        let busy = self.workers.iter().filter(|w| w.free_at > now).count();
        (busy + self.queued) as u64
    }

    /// Let every worker process its decision points up to `until`.
    pub(crate) fn advance(&mut self, until: u64, records: &mut [RequestRecord]) {
        loop {
            let backlog = self.queued > 0;
            // The earliest decision point, lowest index first on ties
            // (`min_by_key` keeps the first minimum).
            let ready = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| backlog || w.staged.is_some())
                .min_by_key(|(_, w)| w.free_at);
            match ready {
                Some((w, worker)) if worker.free_at <= until => self.step(w, records),
                _ => break,
            }
        }
    }

    /// Request `req` arrives, the station already advanced to its
    /// arrival: the lowest-index idle worker takes it on the spot (its
    /// clock catching up to the arrival), else it queues, else — queue
    /// full — it is turned away and `false` comes back with the ledger
    /// untouched.
    pub(crate) fn offer(&mut self, req: usize, records: &mut [RequestRecord]) -> bool {
        let RequestRecord { model, arrival, .. } = records[req];
        let idle = self
            .workers
            .iter()
            .position(|w| w.free_at <= arrival && w.staged.is_none());
        if let Some(w) = idle {
            // `advance` left no backlog behind an idle worker, so the
            // step below dispatches exactly this request.
            self.workers[w].free_at = arrival;
            self.queue_of(model).push_back(req);
            self.queued += 1;
            self.step(w, records);
        } else if self.queued < self.queue_depth {
            self.queue_of(model).push_back(req);
            self.queued += 1;
        } else {
            return false;
        }
        true
    }

    /// The FIFO a request for `model` waits in.
    fn queue_of(&mut self, model: usize) -> &mut VecDeque<usize> {
        let q = if self.queues.len() == 1 { 0 } else { model };
        &mut self.queues[q]
    }

    /// Pick the queue to serve next, mirroring [`Policy`]'s semantics
    /// in [`crate::batch`]: `current` is the model about to compute
    /// while the picked request's input streams behind it (pipelined);
    /// estimates come from the calibrated profile rather than batch's
    /// last-observed cycles, since a server knows its residents. With
    /// per-model queues the queue index is the model; on a single queue
    /// every policy picks it, i.e. arrival order. `None` when nothing
    /// is queued.
    fn pick(&mut self, current: Option<usize>) -> Option<usize> {
        let n = self.queues.len();
        let waiting = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty());
        match self.policy {
            Policy::RoundRobin => {
                let pick = (0..n)
                    .map(|off| (self.cursor + off) % n)
                    .find(|&m| !self.queues[m].is_empty())?;
                self.cursor = (pick + 1) % n;
                Some(pick)
            }
            Policy::ShortestQueueFirst => {
                waiting.min_by_key(|(m, q)| (q.len(), *m)).map(|(m, _)| m)
            }
            Policy::EarliestFinish => {
                let service = self.service;
                let hide = current.map_or(0, |c| service.compute[c]);
                waiting
                    .min_by_key(|(m, _)| (service.preload[*m].max(hide) + service.compute[*m], *m))
                    .map(|(m, _)| m)
            }
        }
    }

    /// Dequeue the request the policy picks next.
    fn pop(&mut self, current: Option<usize>) -> Option<usize> {
        let q = self.pick(current)?;
        self.queued -= 1;
        self.queues[q].pop_front()
    }

    /// Emit one span on worker `w`'s track, labeled with `model`'s name.
    fn work_span(&self, w: usize, kind: SpanKind, start: u64, end: u64, model: usize) {
        let p = &self.probe;
        if p.tracer.is_armed() {
            p.tracer
                .span(self.workers[w].track, kind, start, end, &p.names[model]);
        }
    }

    /// Request `req` was served by worker `w`: write the ledger, emit
    /// its queue wait (`[arrival, dispatch]`; the tracer drops
    /// zero-length spans) and log the frame for the replay.
    fn served(
        &mut self,
        w: usize,
        req: usize,
        rec: &mut RequestRecord,
        dispatch: u64,
        service: u64,
        predicted: u64,
    ) {
        let p = &self.probe;
        if p.tracer.is_armed() {
            let label = format!("req {req}");
            p.tracer
                .span(p.queue, SpanKind::QueueWait, rec.arrival, dispatch, &label);
        }
        rec.outcome = RequestOutcome::Served {
            worker: w,
            queue_wait: dispatch - rec.arrival,
            service,
            completion: dispatch + service,
        };
        self.workers[w].stats.frames += 1;
        let opens_burst = std::mem::take(&mut self.workers[w].opens_burst);
        self.log.push(Dispatch {
            worker: w,
            request: req,
            predicted,
            opens_burst,
        });
    }

    /// Advance worker `w`'s state machine at its decision point.
    fn step(&mut self, w: usize, records: &mut [RequestRecord]) {
        if self.pipelined {
            self.step_pipelined(w, records);
        } else {
            self.step_serial(w, records);
        }
    }

    /// A pipelined worker alternates two decision points: a burst start
    /// (dequeue, stream the fill on a quiet fabric) and a compute start
    /// (the staged request computes while the next pick's input streams
    /// behind it; with nothing to pick the burst ends).
    fn step_pipelined(&mut self, w: usize, records: &mut [RequestRecord]) {
        let service = self.service;
        let now = self.workers[w].free_at;
        if let Some(req) = self.workers[w].staged.take() {
            // The staged request computes now; try to overlap the next
            // pick's preload behind it.
            let m = records[req].model;
            let next = self.pop(Some(m));
            self.workers[w].staged = next;
            let (compute, window) = match next {
                Some(nr) => {
                    let c = service.compute_with[m][records[nr].model];
                    (c, c.max(service.preload_done[m][records[nr].model]))
                }
                None => (service.compute[m], service.compute[m]),
            };
            let completion = now + compute;
            let predicted = completion - self.workers[w].burst_prev_completion;
            self.served(w, req, &mut records[req], now, compute, predicted);
            self.work_span(w, SpanKind::Compute, now, completion, m);
            if let Some(nr) = next {
                // Past `completion`, the staged successor's input is
                // still streaming after this frame's compute retired.
                let streaming = records[nr].model;
                self.work_span(w, SpanKind::PsBurst, completion, now + window, streaming);
            }
            let worker = &mut self.workers[w];
            worker.burst_prev_completion = completion;
            worker.stats.busy_cycles += window;
            worker.free_at = now + window;
        } else {
            // Burst start: dequeue and stream the fill.
            let req = self.pop(None).expect("step called with work");
            let fill = service.fill[records[req].model];
            self.work_span(w, SpanKind::PsBurst, now, now + fill, records[req].model);
            let worker = &mut self.workers[w];
            worker.staged = Some(req);
            worker.opens_burst = true;
            worker.burst_prev_completion = now;
            worker.stats.busy_cycles += fill;
            worker.free_at = now + fill;
        }
    }

    /// The worker holds the request through a bounded retry loop on its
    /// own modeled timeline (retry affinity — failed attempts and
    /// backoffs burn this worker's cycles, they never go back through
    /// the queue). Under the quiet [`Chaos`] the loop takes its first
    /// exit: one clean attempt, served.
    fn step_serial(&mut self, w: usize, records: &mut [RequestRecord]) {
        let service = self.service;
        let now = self.workers[w].free_at;
        let req = self.pop(None).expect("step called with work");
        let RequestRecord {
            model: m, arrival, ..
        } = records[req];
        let svc = service.preload[m] + service.compute[m];
        // A crash-requeued request can land on a worker whose clock is
        // still behind the request's arrival (it sat idle through the
        // crash and its clock never advanced); the frame physically
        // starts once both the worker and the request exist.
        let dispatch = now.max(arrival);
        let mut start = dispatch;
        let mut served: Option<u64> = None;
        let mut crashed = false;
        let mut attempt = self.chaos.attempts.get(req).copied().unwrap_or(0);
        let chaos = &mut self.chaos;
        let tracer = self.probe.tracer;
        let track = self.workers[w].track;
        loop {
            let fault = chaos
                .faults
                .as_ref()
                .and_then(|f| draw_fault(f, req, attempt));
            let burn = match fault {
                None | Some(FrameFault::Spike) => {
                    let dur = if fault == Some(FrameFault::Spike) {
                        chaos.report.spikes += 1;
                        svc.saturating_add(chaos.spike_cycles)
                    } else {
                        svc
                    };
                    if chaos.timeout > 0 && dur > chaos.timeout {
                        // The watchdog aborts the attempt at the
                        // deadline.
                        chaos.report.timeouts += 1;
                        chaos.timeout
                    } else {
                        served = Some(dur);
                        dur
                    }
                }
                Some(FrameFault::BusErr) => {
                    // A typed bus error surfaces mid-frame.
                    chaos.report.bus_errors += 1;
                    svc / 2
                }
                Some(FrameFault::Flip) => {
                    // Silent corruption: the frame runs to completion;
                    // the output fingerprint check catches it there.
                    chaos.report.corruptions_detected += 1;
                    svc
                }
                Some(FrameFault::Hang) => {
                    // A hung poll loop: only the watchdog (the
                    // validated-nonzero timeout) gets us back.
                    chaos.report.hangs += 1;
                    chaos.report.timeouts += 1;
                    chaos.timeout
                }
                Some(FrameFault::Crash) => {
                    chaos.report.crashes += 1;
                    crashed = true;
                    svc / 2
                }
            };
            if served.is_some() {
                break;
            }
            // The failed attempt's burn, labeled by what killed it.
            let label = match fault {
                None | Some(FrameFault::Spike) => "timeout",
                Some(FrameFault::BusErr) => "bus_err",
                Some(FrameFault::Flip) => "corrupt",
                Some(FrameFault::Hang) => "hang",
                Some(FrameFault::Crash) => "crash",
            };
            tracer.span(track, SpanKind::Retry, start, start + burn, label);
            start += burn;
            if crashed {
                break;
            }
            // The attempt failed: exhaust, shed, or back off and retry
            // on this same worker.
            if attempt >= chaos.retries {
                chaos.report.exhausted += 1;
                break;
            }
            let backoff = (chaos.timeout / 2).saturating_mul(1u64 << attempt.min(20));
            if start.saturating_sub(arrival).saturating_add(backoff) > chaos.shed_after {
                chaos.report.sheds += 1;
                break;
            }
            chaos.report.retries += 1;
            tracer.span(track, SpanKind::Retry, start, start + backoff, "backoff");
            start += backoff;
            attempt += 1;
        }
        let free = if let Some(dur) = served {
            // The replay runs the clean frame: fault burns exist only
            // in modeled time (their bus-level realism is pinned by the
            // soc chaos tests), so the predicted frame latency stays
            // the clean cost — which is what keeps replay divergence at
            // zero under faults.
            self.served(w, req, &mut records[req], start, dur, svc);
            let computing = start + service.preload[m];
            self.work_span(w, SpanKind::Preload, start, computing, m);
            self.work_span(w, SpanKind::Compute, computing, start + dur, m);
            start + dur
        } else if crashed {
            // Failover: the in-flight request goes back to the head of
            // its queue — it was admitted and dequeued once, so it must
            // not lose its place — keeping its attempt history (a
            // serially-crashing request exhausts its budget rather than
            // ping-ponging forever), if the admission bound still has
            // room; the worker pays the re-warm recovery before taking
            // more work either way.
            if attempt >= self.chaos.retries {
                self.chaos.report.exhausted += 1;
            } else if self.queued < self.queue_depth {
                let attempts = &mut self.chaos.attempts;
                if attempts.len() <= req {
                    attempts.resize(req + 1, 0);
                }
                attempts[req] = attempt + 1;
                self.queue_of(m).push_front(req);
                self.queued += 1;
                self.chaos.report.failovers += 1;
            } else {
                self.chaos.report.sheds += 1;
            }
            let free = start.saturating_add(service.rewarm);
            self.work_span(w, SpanKind::Rewarm, start, free, m);
            free
        } else {
            // Shed or exhausted: the request stays dropped; the worker
            // only burned the failed attempts.
            start
        };
        self.workers[w].stats.busy_cycles += free - dispatch;
        self.workers[w].free_at = free;
    }
}
