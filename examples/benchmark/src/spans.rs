//! Host-clock spans and the small statistics the ledger reports.
//!
//! Spans here live in the *host* clock domain (nanoseconds of this
//! process's wall time) and in this harness's own file; they never
//! touch the `rvnv_obs` modeled-cycle tracks. A disarmed recorder costs
//! one branch per call, so the untraced timed phase runs the very same
//! op code as the traced one.

use std::collections::BTreeMap;
use std::time::Instant;

use rv_nvdla::rvnv_obs::Json;

/// One recorded host span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 = set-up / outside any op).
    pub op: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory host span recorder.
pub struct Spans {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder; disarmed ones record nothing.
    pub fn new(armed: bool) -> Self {
        Spans {
            armed,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation (a *round*): the spans that follow
    /// carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.armed {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Move every span of `other` into this recorder (set-up spans join
    /// the traced phase's file).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Per round, the total ms spent in spans called `name`; then the
    /// median over the rounds that have one, and how many those were.
    pub fn median_round_ms(&self, name: &str) -> Option<(f64, usize)> {
        let mut per_round: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_round.entry(s.op).or_default() += s.ns();
        }
        let ms: Vec<f64> = per_round.values().map(|&ns| ns as f64 / 1e6).collect();
        (!ms.is_empty()).then(|| (median(&ms), ms.len()))
    }

    /// Median self time in ms of the spans called `name`.
    pub fn median_self_ms(&self, name: &str) -> Option<(f64, usize)> {
        let own = self.self_ns();
        let ms: Vec<f64> = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        (!ms.is_empty()).then(|| (median(&ms), ms.len()))
    }

    /// Self time of each span: its duration minus what its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Per span name: count, total ms, self ms — the "where did the op
    /// go" table of a traced run.
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of the spans:
    /// complete events on one thread, µs timestamps, with the op id,
    /// parent index and self time in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut events = vec![obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            (
                "args",
                obj([("name", Json::Str(format!("host clock: {workload}")))]),
            ),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("op", Json::Int(s.op)),
                ("self_us", Json::Float(own[i] as f64 / 1e3)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Int(p as u64)));
            }
            events.push(obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str("host".into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float(s.ns() as f64 / 1e3)),
                ("args", obj(args)),
            ]));
        }
        obj([("traceEvents", Json::Arr(events))]).to_string()
    }
}

/// Build a JSON object from `(key, value)` pairs.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)`; with ten samples or fewer, the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n > 10 {
        (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
    } else {
        (100.0, v[n - 1])
    }
}

/// Time `f` repeatedly for about `budget_ms`, at least `min_reps`
/// times, and return the median ms per call and the call count.
pub fn time_median_ms(budget_ms: f64, min_reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() * 1e3 < budget_ms {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&samples), samples.len())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Largest peak resident set, in MB, among the child processes this
/// process has waited for so far (`RUSAGE_CHILDREN`, Linux kB units).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage::default();
    // SAFETY: `RUsage` mirrors the x86-64/aarch64 Linux `struct rusage`
    // (two `timeval`s of two longs each, then fourteen longs), is fully
    // initialised, and outlives the call; `getrusage` only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
