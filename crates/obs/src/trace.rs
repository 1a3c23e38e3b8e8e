//! Typed spans in modeled cycles, recorded through a zero-cost-when-disarmed
//! [`Tracer`] handle.
//!
//! The tracer follows the same one-branch discipline as the bus fabric's
//! `FaultInjector`: a disarmed handle is `sink: None`, so every recording
//! call is a single `Option` test and an immediate return. Emission never
//! computes anything the simulation did not already compute — spans carry
//! timestamps that exist regardless of whether anyone is listening — which
//! is what makes the bit- and cycle-identity contract (tracing on ==
//! tracing off) structural rather than aspirational.

use std::sync::{Arc, Mutex};

/// What a span *is*, drawn from the fixed cross-layer taxonomy
/// (docs/OBSERVABILITY.md). Every phase of modeled time the stack spends —
/// from one NVDLA op inside a firmware run up to a fleet autoscaling
/// decision — maps onto exactly one of these kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Host-side model compilation (zero modeled cycles; recorded as an
    /// instant so traces still show *when* artifacts were produced).
    Compile,
    /// Weight/input preload into the accelerator's address space.
    Preload,
    /// Firmware execution on the SoC (NVDLA ops run as child spans).
    Compute,
    /// A request sitting in an admission queue before dispatch.
    QueueWait,
    /// A failed attempt being burned or backed off under chaos.
    Retry,
    /// A worker re-warming after a crash or an autoscale-up.
    Rewarm,
    /// An autoscaler decision point (instant).
    Autoscale,
    /// A PS→SoC streaming burst (pipelined input fill).
    PsBurst,
    /// A whole batch drain (parent of its frames' compute spans).
    Drain,
}

impl SpanKind {
    /// Every kind, in declaration order (stable — the metrics schema and
    /// the CI trace checker iterate this).
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Compile,
        SpanKind::Preload,
        SpanKind::Compute,
        SpanKind::QueueWait,
        SpanKind::Retry,
        SpanKind::Rewarm,
        SpanKind::Autoscale,
        SpanKind::PsBurst,
        SpanKind::Drain,
    ];

    /// Stable lowercase name (used as the Chrome-trace `cat` field and in
    /// the metrics schema).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::Preload => "preload",
            SpanKind::Compute => "compute",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Retry => "retry",
            SpanKind::Rewarm => "rewarm",
            SpanKind::Autoscale => "autoscale",
            SpanKind::PsBurst => "ps_burst",
            SpanKind::Drain => "drain",
        }
    }
}

/// How a track lays out its spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackKind {
    /// One lane of exclusive occupancy (a worker, a SoC): spans must not
    /// overlap, and [`Trace::validate`] enforces it.
    Sync,
    /// Overlap allowed (an admission queue holds many waiting requests at
    /// once). Exported as Chrome async events.
    Async,
}

/// Index of a track inside a [`Trace`]. A disarmed tracer hands out
/// [`TrackId::NONE`]; recording against it is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(pub u32);

impl TrackId {
    /// The id a disarmed tracer returns; never resolves to a real track.
    pub const NONE: TrackId = TrackId(u32::MAX);
}

/// Opaque handle to an emitted span, for parent refs ([`Tracer::child`])
/// and open-span completion ([`Tracer::end`]). A disarmed tracer returns
/// an empty ref; using it later stays a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRef(pub(crate) Option<u32>);

impl SpanRef {
    /// The ref a disarmed tracer hands out.
    pub const NONE: SpanRef = SpanRef(None);
}

/// One recorded span: `[start, end]` in modeled cycles on one track.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Track the span lives on.
    pub track: TrackId,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// First cycle of the phase.
    pub start: u64,
    /// One-past-the-last cycle of the phase (`end >= start`; `end ==
    /// start` is an instant).
    pub end: u64,
    /// Human label (model name, fault type, …).
    pub label: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Cycles covered (`end - start`).
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// One named lane in the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Track {
    /// Display name (also the Chrome `thread_name`).
    pub name: String,
    /// Sync (exclusive) or async (overlapping).
    pub kind: TrackKind,
}

/// A finished recording: tracks plus the spans on them. Obtained from
/// [`Tracer::snapshot`]; exported with
/// [`to_chrome_json`](crate::chrome::to_chrome_json).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Track table; [`TrackId`] indexes into it.
    pub tracks: Vec<Track>,
    /// All spans, in emission order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Look a track up by display name.
    pub fn track_named(&self, name: &str) -> Option<TrackId> {
        self.tracks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TrackId(i as u32))
    }

    /// All spans on one track, in emission order.
    pub fn spans_on(&self, track: TrackId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Total cycles covered by spans on `track`, counting only spans with
    /// no parent (children subdivide their parent's time; summing both
    /// would double-book).
    pub fn sum_cycles(&self, track: TrackId) -> u64 {
        self.spans_on(track)
            .filter(|s| s.parent.is_none())
            .map(Span::cycles)
            .sum()
    }

    /// Total cycles covered by top-level spans of one kind, across all
    /// tracks.
    pub fn sum_kind(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.parent.is_none())
            .map(Span::cycles)
            .sum()
    }

    /// Number of spans of one kind (instants included).
    pub fn count_kind(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Structural well-formedness, shared by the property tests, the
    /// fuzz targets and the CI trace checker:
    ///
    /// * every span's track id resolves and `end >= start`,
    /// * every child lies within `[parent.start, parent.end]` and its
    ///   parent index refers backwards,
    /// * on every [`TrackKind::Sync`] track, top-level spans do not
    ///   overlap (shared endpoints are fine).
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.track.0 as usize >= self.tracks.len() {
                return Err(format!("span {i} on unknown track {}", s.track.0));
            }
            if s.end < s.start {
                return Err(format!("span {i} ends before it starts: {s:?}"));
            }
            if let Some(p) = s.parent {
                if p as usize >= i {
                    return Err(format!("span {i} has forward parent ref {p}"));
                }
                let parent = &self.spans[p as usize];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} [{}, {}] escapes parent {p} [{}, {}]",
                        s.start, s.end, parent.start, parent.end
                    ));
                }
            }
        }
        for (t, track) in self.tracks.iter().enumerate() {
            if track.kind != TrackKind::Sync {
                continue;
            }
            let mut spans: Vec<&Span> = self
                .spans_on(TrackId(t as u32))
                .filter(|s| s.parent.is_none() && s.end > s.start)
                .collect();
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                if w[1].start < w[0].end {
                    return Err(format!(
                        "track '{}' overlaps: [{}, {}] then [{}, {}]",
                        track.name, w[0].start, w[0].end, w[1].start, w[1].end
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The recording handle threaded through the stack. Cheap to clone (an
/// `Arc` at most); a [`Tracer::disarmed`] handle costs one branch per
/// call and allocates nothing, ever.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<Trace>>>,
}

impl Tracer {
    /// A no-op handle: every method is one `Option` test.
    pub fn disarmed() -> Tracer {
        Tracer { sink: None }
    }

    /// A live handle recording into a fresh [`Trace`].
    pub fn armed() -> Tracer {
        Tracer {
            sink: Some(Arc::new(Mutex::new(Trace::default()))),
        }
    }

    /// Whether spans are being recorded. Emission sites that would build
    /// labels (`format!`) check this first so a disarmed run allocates
    /// nothing.
    pub fn is_armed(&self) -> bool {
        self.sink.is_some()
    }

    /// Register (or look up) a track by name. Names are unique: asking
    /// twice returns the same id, so layers can share lanes without
    /// coordinating.
    pub fn track(&self, name: &str, kind: TrackKind) -> TrackId {
        let Some(sink) = &self.sink else {
            return TrackId::NONE;
        };
        let mut trace = sink.lock().unwrap();
        if let Some(id) = trace.track_named(name) {
            return id;
        }
        trace.tracks.push(Track {
            name: name.to_string(),
            kind,
        });
        TrackId((trace.tracks.len() - 1) as u32)
    }

    /// Record a closed span `[start, end]`. Zero-length spans are
    /// dropped (use [`Tracer::instant`] for explicit markers) so the
    /// trace stays uncluttered and sums stay exact.
    pub fn span(
        &self,
        track: TrackId,
        kind: SpanKind,
        start: u64,
        end: u64,
        label: &str,
    ) -> SpanRef {
        let Some(sink) = &self.sink else {
            return SpanRef::NONE;
        };
        if end <= start || track == TrackId::NONE {
            return SpanRef::NONE;
        }
        let mut trace = sink.lock().unwrap();
        trace.spans.push(Span {
            track,
            kind,
            start,
            end,
            label: label.to_string(),
            parent: None,
        });
        SpanRef(Some((trace.spans.len() - 1) as u32))
    }

    /// Record a closed span nested under `parent` (an explicit parent
    /// ref, per the taxonomy — e.g. NVDLA ops under their firmware run).
    pub fn child(
        &self,
        parent: SpanRef,
        track: TrackId,
        kind: SpanKind,
        start: u64,
        end: u64,
        label: &str,
    ) -> SpanRef {
        let Some(sink) = &self.sink else {
            return SpanRef::NONE;
        };
        if end <= start || track == TrackId::NONE {
            return SpanRef::NONE;
        }
        let mut trace = sink.lock().unwrap();
        trace.spans.push(Span {
            track,
            kind,
            start,
            end,
            label: label.to_string(),
            parent: parent.0,
        });
        SpanRef(Some((trace.spans.len() - 1) as u32))
    }

    /// Open a span whose end is not known yet; close it with
    /// [`Tracer::end`]. Until closed it reads as an instant at `start`.
    pub fn begin(&self, track: TrackId, kind: SpanKind, start: u64, label: &str) -> SpanRef {
        let Some(sink) = &self.sink else {
            return SpanRef::NONE;
        };
        if track == TrackId::NONE {
            return SpanRef::NONE;
        }
        let mut trace = sink.lock().unwrap();
        trace.spans.push(Span {
            track,
            kind,
            start,
            end: start,
            label: label.to_string(),
            parent: None,
        });
        SpanRef(Some((trace.spans.len() - 1) as u32))
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&self, span: SpanRef, end: u64) {
        let Some(sink) = &self.sink else {
            return;
        };
        if let Some(i) = span.0 {
            let mut trace = sink.lock().unwrap();
            let s = &mut trace.spans[i as usize];
            s.end = s.end.max(end);
        }
    }

    /// Record a zero-length marker (autoscale decisions, compile stamps).
    pub fn instant(&self, track: TrackId, kind: SpanKind, at: u64, label: &str) {
        let Some(sink) = &self.sink else {
            return;
        };
        if track == TrackId::NONE {
            return;
        }
        let mut trace = sink.lock().unwrap();
        trace.spans.push(Span {
            track,
            kind,
            start: at,
            end: at,
            label: label.to_string(),
            parent: None,
        });
    }

    /// Clone out everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        match &self.sink {
            Some(sink) => sink.lock().unwrap().clone(),
            None => Trace::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_records_nothing_and_hands_out_none() {
        let t = Tracer::disarmed();
        assert!(!t.is_armed());
        let track = t.track("w0", TrackKind::Sync);
        assert_eq!(track, TrackId::NONE);
        let s = t.span(track, SpanKind::Compute, 0, 10, "x");
        assert_eq!(s, SpanRef::NONE);
        t.instant(track, SpanKind::Autoscale, 5, "up");
        assert_eq!(t.snapshot(), Trace::default());
    }

    #[test]
    fn tracks_dedupe_by_name() {
        let t = Tracer::armed();
        let a = t.track("worker 0", TrackKind::Sync);
        let b = t.track("worker 0", TrackKind::Sync);
        assert_eq!(a, b);
        assert_eq!(t.snapshot().tracks.len(), 1);
    }

    #[test]
    fn sums_skip_children_and_zero_spans() {
        let t = Tracer::armed();
        let w = t.track("w", TrackKind::Sync);
        let parent = t.span(w, SpanKind::Compute, 100, 200, "run");
        t.child(parent, w, SpanKind::Compute, 110, 150, "op0");
        t.span(w, SpanKind::Preload, 200, 200, "empty"); // dropped
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.sum_cycles(w), 100);
        assert_eq!(trace.sum_kind(SpanKind::Compute), 100);
        trace.validate().expect("well-formed");
    }

    #[test]
    fn validate_rejects_overlap_and_escaping_children() {
        let t = Tracer::armed();
        let w = t.track("w", TrackKind::Sync);
        t.span(w, SpanKind::Compute, 0, 10, "a");
        t.span(w, SpanKind::Compute, 5, 15, "b");
        assert!(t.snapshot().validate().is_err());

        let t = Tracer::armed();
        let w = t.track("w", TrackKind::Sync);
        let p = t.span(w, SpanKind::Compute, 0, 10, "p");
        t.child(p, w, SpanKind::Compute, 5, 20, "escapes");
        assert!(t.snapshot().validate().is_err());

        // Async tracks may overlap freely.
        let t = Tracer::armed();
        let q = t.track("queue", TrackKind::Async);
        t.span(q, SpanKind::QueueWait, 0, 10, "r0");
        t.span(q, SpanKind::QueueWait, 5, 15, "r1");
        t.snapshot().validate().expect("async overlap is legal");
    }

    #[test]
    fn begin_end_closes_the_open_span() {
        let t = Tracer::armed();
        let w = t.track("w", TrackKind::Sync);
        let d = t.begin(w, SpanKind::Drain, 0, "drain");
        t.end(d, 500);
        let trace = t.snapshot();
        assert_eq!(trace.spans[0].end, 500);
        assert_eq!(trace.sum_kind(SpanKind::Drain), 500);
    }
}
