//! Causal span tracing: per-query trace IDs, parent-linked spans, and
//! exporters for Chrome trace-event JSON and folded-stack flamegraphs.
//!
//! The [`SpanRecorder`] is the tracing twin of the event journal: spans are
//! begun and ended against the same injectable [`TimeSource`], so a pipeline
//! running on the simulated device clock produces byte-identical traces run
//! after run. The recorder is lock-light — span IDs come from atomics, and a
//! single mutex guards the open-span table and the bounded ring of closed
//! spans (one lock keeps the lock hierarchy trivial). Each pipeline role
//! (READ, WRITE, each pool worker, everything else) draws span IDs from its
//! own sequence, so IDs do not depend on how the roles' threads interleave.
//!
//! Propagation uses two mechanisms:
//!
//! * **Explicit context** — [`SpanCtx`] (a `Copy` pair of trace + span id)
//!   travels in request structs and channel messages across thread
//!   boundaries.
//! * **Thread-local current span** — within a thread, [`set_current`] pins
//!   the ambient context and [`SpanRecorder::enter_current`] opens children
//!   under it without any parameter threading. Guards restore the previous
//!   context on drop, so nesting is automatic.
//!
//! A finished query's spans are extracted (non-destructively) as a
//! [`QueryTrace`], which validates tree shape and exports to Chrome
//! trace-event JSON (loadable in Perfetto / `about://tracing`) or folded
//! stacks for flamegraph tools.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::journal::TimeSource;
use crate::json;
use crate::json::Value;

/// Identifies one query's causal tree. Minted by [`SpanRecorder::next_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The propagatable pair (trace, span): everything a child span needs to
/// attach itself to the tree. `Copy`, so it travels freely through request
/// structs and channel messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    pub trace: TraceId,
    pub span: SpanId,
}

/// One recorded span: name, parent link, device-clock start/end, and
/// free-form tags (worker id, chunk id, source, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub trace: TraceId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Option<Duration>,
    pub tags: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Wall (device-clock) duration; zero while the span is still open.
    pub fn duration(&self) -> Duration {
        self.end
            .map(|e| e.saturating_sub(self.start))
            .unwrap_or(Duration::ZERO)
    }

    /// The value of a tag, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

struct SpanStore {
    open: HashMap<u64, SpanRecord>,
    closed: VecDeque<SpanRecord>,
    dropped: u64,
}

/// Span-id lanes: one per pipeline role (see [`span_lane`]).
const LANES: usize = 16;
/// A span id is `lane << LANE_SHIFT | sequence within the lane`.
const LANE_SHIFT: u32 = 40;

struct RecorderInner {
    store: Mutex<SpanStore>,
    next_span: [AtomicU64; LANES],
    next_trace: AtomicU64,
    enabled: AtomicBool,
    now: TimeSource,
    capacity: usize,
}

/// Retained closed spans; enough for several large traced queries.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Lock-light span sink shared by every layer of one operator/engine.
///
/// Cloning shares state. Begin/end are cheap: one clock read, one short
/// mutex hold. When disabled (see [`SpanRecorder::set_enabled`]) `begin`
/// records nothing and the whole subsystem costs two atomic loads per span
/// site.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        // effect-ok: the explicitly wall-clock default; deterministic traces inject with_time_source
        let epoch = Instant::now();
        SpanRecorder::with_time_source(Arc::new(move || epoch.elapsed()))
    }
}

impl SpanRecorder {
    /// Wall-clock timestamps relative to creation.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Timestamps come from `now` — e.g. the simulated device clock, making
    /// traces deterministic under simio.
    pub fn with_time_source(now: TimeSource) -> Self {
        SpanRecorder {
            inner: Arc::new(RecorderInner {
                store: Mutex::new(SpanStore {
                    // effect-ok: open-span map is keyed-access; exports emit in tree order, never map order
                    open: HashMap::new(),
                    closed: VecDeque::new(),
                    dropped: 0,
                }),
                next_span: std::array::from_fn(|_| AtomicU64::new(1)),
                next_trace: AtomicU64::new(1),
                enabled: AtomicBool::new(true),
                now,
                capacity: DEFAULT_SPAN_CAPACITY,
            }),
        }
    }

    /// Turns recording on/off. Off, `begin` is a near-no-op; callers that
    /// gate trace minting on [`SpanRecorder::enabled`] pay nothing at all.
    pub fn set_enabled(&self, on: bool) {
        // relaxed-ok: the flag is an independent sample; stale reads only delay the toggle by one span
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        // relaxed-ok: the flag is an independent sample; stale reads only delay the toggle by one span
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Mints a fresh trace id for one query.
    pub fn next_trace(&self) -> TraceId {
        // relaxed-ok: ids only need uniqueness, not ordering across threads
        TraceId(self.inner.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a span. Returns a fresh id even when disabled (in which case
    /// nothing is recorded and the eventual `end` is a no-op).
    pub fn begin(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) -> SpanId {
        let lane = span_lane();
        // relaxed-ok: ids only need uniqueness, not ordering across threads
        let seq = self.inner.next_span[lane].fetch_add(1, Ordering::Relaxed);
        let id = SpanId((lane as u64) << LANE_SHIFT | seq);
        if !self.enabled() {
            return id;
        }
        let start = (self.inner.now)();
        let record = SpanRecord {
            id,
            trace,
            parent,
            name,
            start,
            end: None,
            tags,
        };
        let mut store = self.inner.store.lock().expect("span store lock");
        store.open.insert(id.0, record);
        id
    }

    /// Closes a span; unknown ids (disabled at begin, or already closed) are
    /// ignored.
    pub fn end(&self, id: SpanId) {
        let end = (self.inner.now)();
        let mut store = self.inner.store.lock().expect("span store lock");
        if let Some(mut record) = store.open.remove(&id.0) {
            record.end = Some(end);
            if store.closed.len() == self.inner.capacity {
                store.closed.pop_front();
                store.dropped += 1;
            }
            store.closed.push_back(record);
        }
    }

    /// Appends a tag to a still-open span. Streaming reads discover their
    /// chunk id only after the device returns, so the span is opened bare
    /// and attributed here; unknown or already-closed ids are ignored.
    pub fn add_tag(&self, id: SpanId, key: &'static str, value: String) {
        let mut store = self.inner.store.lock().expect("span store lock");
        if let Some(record) = store.open.get_mut(&id.0) {
            record.tags.push((key, value));
        }
    }

    /// Opens a child of an explicit context and makes it the thread's
    /// current span until the guard drops.
    pub fn enter(
        &self,
        ctx: SpanCtx,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) -> SpanGuard {
        let id = self.begin(ctx.trace, Some(ctx.span), name, tags);
        SpanGuard::install(
            self.clone(),
            SpanCtx {
                trace: ctx.trace,
                span: id,
            },
        )
    }

    /// Opens a root span (no parent) for a trace and makes it current.
    pub fn enter_root(
        &self,
        trace: TraceId,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) -> SpanGuard {
        let id = self.begin(trace, None, name, tags);
        SpanGuard::install(self.clone(), SpanCtx { trace, span: id })
    }

    /// Opens a child of the thread's current span, if one is pinned;
    /// otherwise records nothing and returns `None`.
    pub fn enter_current(
        &self,
        name: &'static str,
        tags: Vec<(&'static str, String)>,
    ) -> Option<SpanGuard> {
        current().map(|ctx| self.enter(ctx, name, tags))
    }

    /// Records a zero-duration marker span under the current span, if any.
    pub fn instant_current(&self, name: &'static str, tags: Vec<(&'static str, String)>) {
        if let Some(ctx) = current() {
            let id = self.begin(ctx.trace, Some(ctx.span), name, tags);
            self.end(id);
        }
    }

    /// Total spans (open + closed) recorded for a trace.
    pub fn span_count(&self, trace: TraceId) -> u64 {
        let store = self.inner.store.lock().expect("span store lock");
        let open = store.open.values().filter(|s| s.trace == trace).count();
        let closed = store.closed.iter().filter(|s| s.trace == trace).count();
        (open + closed) as u64
    }

    /// Closed spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.inner.store.lock().expect("span store lock").dropped
    }

    /// Non-destructive extraction of one trace's spans (open spans included,
    /// with `end: None`), sorted by start time then id.
    pub fn trace(&self, trace: TraceId) -> QueryTrace {
        let store = self.inner.store.lock().expect("span store lock");
        let mut spans: Vec<SpanRecord> = store
            .closed
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect();
        spans.extend(store.open.values().filter(|s| s.trace == trace).cloned());
        drop(store);
        spans.sort_by_key(|a| (a.start, a.id));
        QueryTrace { trace, spans }
    }
}

/// Best-effort worker label derived from the current thread's name: pipeline
/// worker threads follow the `…-worker-<table>-<n>` convention, whose
/// trailing index becomes the label; `…-read-…` threads map to `read`;
/// anything else (including unnamed threads) is `inline`.
pub fn worker_label() -> String {
    match std::thread::current().name() {
        Some(name) => match name.rsplit_once('-') {
            Some((head, index)) if head.contains("worker") => index.to_string(),
            _ if name.contains("-read-") => "read".to_string(),
            _ => "inline".to_string(),
        },
        None => "inline".to_string(),
    }
}

thread_local! {
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
    static LANE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's span-id lane, from its pipeline role (the thread-name
/// convention [`worker_label`] reads): READ, WRITE, and one lane per pool
/// worker; every other thread — the engine's among them — shares
/// lane 0. Per-lane ids keep a trace's ids, and so its span order at equal
/// timestamps, independent of how the roles' threads interleave: a
/// virtual-clock trace reproduces exactly whenever each role's own span
/// sequence does.
fn span_lane() -> usize {
    LANE.with(|cached| {
        if let Some(lane) = cached.get() {
            return lane;
        }
        let lane = match std::thread::current().name() {
            Some(name) if name.contains("-read-") => 1,
            Some(name) if name.contains("-write-") => 2,
            Some(name) => match name.rsplit_once('-') {
                Some((head, index)) if head.contains("worker") => {
                    3 + index.parse::<usize>().unwrap_or(0)
                }
                _ => 0,
            },
            None => 0,
        }
        .min(LANES - 1);
        cached.set(Some(lane));
        lane
    })
}

/// The thread's ambient span context, if one is pinned.
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(Cell::get)
}

/// Pins `ctx` as the thread's current span without opening a new one; the
/// previous context is restored when the guard drops. Used at the top of
/// pipeline threads that receive their context over a channel.
pub fn set_current(ctx: SpanCtx) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    CurrentGuard { prev }
}

/// Restores the previous thread-local context on drop.
pub struct CurrentGuard {
    prev: Option<SpanCtx>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An open span pinned as the thread's current context; ends the span and
/// restores the previous context on drop.
pub struct SpanGuard {
    recorder: SpanRecorder,
    ctx: SpanCtx,
    prev: Option<SpanCtx>,
}

impl SpanGuard {
    fn install(recorder: SpanRecorder, ctx: SpanCtx) -> SpanGuard {
        let prev = CURRENT.with(|c| c.replace(Some(ctx)));
        SpanGuard {
            recorder,
            ctx,
            prev,
        }
    }

    /// The context of the span this guard holds open — hand it to children
    /// on other threads.
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.recorder.end(self.ctx.span);
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// One query's validated span tree plus its exporters.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub trace: TraceId,
    /// Sorted by (start, id); open spans carry `end: None`.
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// The root span (no parent), when the tree is well-formed.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Spans with a given name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Checks the tree is well-formed: non-empty, exactly one root, every
    /// span closed with `end >= start`, and every parent present and opened
    /// no later than its child (timestamps are monotone on the device
    /// clock).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.spans.is_empty() {
            return Err(format!("trace {} has no spans", self.trace.0));
        }
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id.0, s)).collect();
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return Err(format!(
                "trace {} has {roots} root spans (expected 1)",
                self.trace.0
            ));
        }
        for span in &self.spans {
            let end = span
                .end
                .ok_or_else(|| format!("span {} `{}` was never closed", span.id.0, span.name))?;
            if end < span.start {
                return Err(format!(
                    "span {} `{}` ends before it starts",
                    span.id.0, span.name
                ));
            }
            if let Some(parent) = span.parent {
                let p = by_id.get(&parent.0).ok_or_else(|| {
                    format!(
                        "span {} `{}` references missing parent {}",
                        span.id.0, span.name, parent.0
                    )
                })?;
                if p.start > span.start {
                    return Err(format!(
                        "span {} `{}` starts before its parent `{}`",
                        span.id.0, span.name, p.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON: an array of `B`/`E` duration events (plus
    /// `M` thread-name metadata), loadable in Perfetto or
    /// `about://tracing`. Spans are laid out on virtual threads by pipeline
    /// role: control (query/scan/merge) on tid 1, READ on tid 2, WRITE on
    /// tid 3, conversion/exec workers on tid 100+w; retries, fallbacks, and
    /// disk ops inherit their parent's lane. Within each lane events are
    /// emitted in tree order, so `B`/`E` pairs nest correctly even when the
    /// virtual clock produces equal timestamps.
    // lint-zone: deterministic
    pub fn to_chrome_json(&self) -> Value {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id.0, s)).collect();
        // effect-ok: keyed memo for lane lookup; events are emitted in span tree order
        let mut tid_memo: HashMap<u64, u64> = HashMap::new();
        for span in &self.spans {
            tid_of(span, &by_id, &mut tid_memo);
        }

        // Children in (start, id) order, per parent.
        // effect-ok: keyed lookup during the tree walk; per-parent Vecs keep insertion order
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children.entry(parent.0).or_default().push(span);
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|a| (a.start, a.id));
        }

        let mut lanes: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for span in &self.spans {
            let tid = tid_memo[&span.id.0];
            let is_lane_root = match span.parent {
                None => true,
                Some(p) => tid_memo.get(&p.0).copied() != Some(tid),
            };
            if is_lane_root {
                lanes.entry(tid).or_default().push(span);
            }
        }

        let mut events: Vec<Value> = Vec::new();
        for &tid in lanes.keys() {
            events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane_name(tid)},
            }));
        }
        for (&tid, roots) in &lanes {
            let mut roots: Vec<&SpanRecord> = roots.clone();
            roots.sort_by_key(|a| (a.start, a.id));
            for root in roots {
                emit_lane(root, tid, &children, &tid_memo, &mut events);
            }
        }
        Value::Array(events)
    }

    /// Folded-stack flamegraph text: one `root;...;leaf <self-nanos>` line
    /// per unique path, sorted, weights aggregated. Feed to any
    /// flamegraph renderer that accepts Brendan Gregg's folded format.
    pub fn to_folded(&self) -> String {
        let mut child_total: HashMap<u64, u64> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_total.entry(parent.0).or_default() +=
                    u64::try_from(span.duration().as_nanos()).unwrap_or(u64::MAX);
            }
        }
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id.0, s)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in &self.spans {
            let total = u64::try_from(span.duration().as_nanos()).unwrap_or(u64::MAX);
            let own = total.saturating_sub(child_total.get(&span.id.0).copied().unwrap_or(0));
            let mut path = vec![span.name];
            let mut cursor = span.parent;
            while let Some(parent) = cursor {
                match by_id.get(&parent.0) {
                    Some(p) => {
                        path.push(p.name);
                        cursor = p.parent;
                    }
                    None => break,
                }
            }
            path.reverse();
            *folded.entry(path.join(";")).or_default() += own;
        }
        let mut out = String::new();
        for (path, nanos) in folded {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }
}

/// Virtual-thread assignment for the Chrome export; see
/// [`QueryTrace::to_chrome_json`].
fn tid_of(
    span: &SpanRecord,
    by_id: &HashMap<u64, &SpanRecord>,
    memo: &mut HashMap<u64, u64>,
) -> u64 {
    if let Some(&tid) = memo.get(&span.id.0) {
        return tid;
    }
    let tid = match span.name {
        "query" | "scan" | "merge" => 1,
        "read.chunk" => 2,
        "write.chunk" => 3,
        "tokenize.chunk" | "parse.chunk" | "exec.chunk" => span
            .tag("worker")
            .and_then(|w| w.parse::<u64>().ok())
            .map(|w| 100 + w)
            .unwrap_or(1),
        _ => span
            .parent
            .and_then(|p| by_id.get(&p.0).copied())
            .map(|p| tid_of(p, by_id, memo))
            .unwrap_or(1),
    };
    memo.insert(span.id.0, tid);
    tid
}

fn lane_name(tid: u64) -> String {
    match tid {
        1 => "control".to_string(),
        2 => "read".to_string(),
        3 => "write".to_string(),
        w if w >= 100 => format!("worker-{}", w - 100),
        other => format!("lane-{other}"),
    }
}

fn emit_lane(
    span: &SpanRecord,
    tid: u64,
    children: &HashMap<u64, Vec<&SpanRecord>>,
    tid_memo: &HashMap<u64, u64>,
    events: &mut Vec<Value>,
) {
    let micros = |d: Duration| d.as_nanos() as f64 / 1_000.0;
    let mut args = Value::Object(Default::default());
    args["trace"] = Value::from(span.trace.0);
    args["span"] = Value::from(span.id.0);
    for (key, value) in &span.tags {
        args[*key] = Value::Str(value.clone());
    }
    events.push(json!({
        "name": span.name,
        "ph": "B",
        "pid": 1,
        "tid": tid,
        "ts": micros(span.start),
        "args": args,
    }));
    if let Some(kids) = children.get(&span.id.0) {
        for kid in kids {
            if tid_memo.get(&kid.id.0).copied() == Some(tid) {
                emit_lane(kid, tid, children, tid_memo, events);
            }
        }
    }
    events.push(json!({
        "name": span.name,
        "ph": "E",
        "pid": 1,
        "tid": tid,
        "ts": micros(span.end.unwrap_or(span.start)),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as ClockCell;

    fn ticking_recorder() -> (SpanRecorder, Arc<ClockCell>) {
        let tick = Arc::new(ClockCell::new(0));
        let t = tick.clone();
        let recorder = SpanRecorder::with_time_source(Arc::new(move || {
            // relaxed-ok: test clock; each read advances one microsecond
            Duration::from_micros(t.fetch_add(1, Ordering::Relaxed))
        }));
        (recorder, tick)
    }

    #[test]
    fn begin_end_builds_a_closed_span() {
        let (recorder, _) = ticking_recorder();
        let trace = recorder.next_trace();
        let root = recorder.begin(trace, None, "query", vec![("table", "t".to_string())]);
        let child = recorder.begin(trace, Some(root), "scan", vec![]);
        recorder.end(child);
        recorder.end(root);
        let qt = recorder.trace(trace);
        assert_eq!(qt.spans.len(), 2);
        qt.validate().expect("well-formed");
        assert_eq!(qt.root().unwrap().name, "query");
        assert_eq!(qt.root().unwrap().tag("table"), Some("t"));
    }

    #[test]
    fn guards_nest_and_restore_current() {
        let (recorder, _) = ticking_recorder();
        let trace = recorder.next_trace();
        assert!(current().is_none());
        {
            let root = recorder.enter_root(trace, "query", vec![]);
            assert_eq!(current(), Some(root.ctx()));
            {
                let child = recorder.enter_current("scan", vec![]).expect("current set");
                assert_eq!(current(), Some(child.ctx()));
                recorder.instant_current("db.fallback", vec![]);
            }
            assert_eq!(current(), Some(root.ctx()));
        }
        assert!(current().is_none());
        let qt = recorder.trace(trace);
        qt.validate().expect("well-formed");
        assert_eq!(qt.spans.len(), 3);
        let fallback = qt.spans_named("db.fallback").next().expect("marker span");
        let scan = qt.spans_named("scan").next().expect("scan span");
        assert_eq!(fallback.parent, Some(scan.id));
    }

    #[test]
    fn enter_current_without_context_records_nothing() {
        let (recorder, _) = ticking_recorder();
        assert!(recorder.enter_current("scan", vec![]).is_none());
        recorder.instant_current("db.fallback", vec![]);
        let trace = recorder.next_trace();
        assert_eq!(recorder.trace(trace).spans.len(), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let (recorder, _) = ticking_recorder();
        recorder.set_enabled(false);
        let trace = recorder.next_trace();
        let id = recorder.begin(trace, None, "query", vec![]);
        recorder.end(id);
        assert_eq!(recorder.trace(trace).spans.len(), 0);
        recorder.set_enabled(true);
        let id = recorder.begin(trace, None, "query", vec![]);
        recorder.end(id);
        assert_eq!(recorder.trace(trace).spans.len(), 1);
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let (recorder, _) = ticking_recorder();
        let trace = recorder.next_trace();
        assert!(recorder.trace(trace).validate().is_err(), "empty trace");

        let root = recorder.begin(trace, None, "query", vec![]);
        assert!(
            recorder.trace(trace).validate().is_err(),
            "open span must fail validation"
        );
        recorder.end(root);
        recorder.trace(trace).validate().expect("closed root ok");

        // A second root breaks single-root shape.
        let stray = recorder.begin(trace, None, "scan", vec![]);
        recorder.end(stray);
        assert!(recorder.trace(trace).validate().is_err(), "two roots");
    }

    #[test]
    fn chrome_export_pairs_and_nests_events() {
        let (recorder, _) = ticking_recorder();
        let trace = recorder.next_trace();
        let root = recorder.begin(trace, None, "query", vec![]);
        let scan = recorder.begin(trace, Some(root), "scan", vec![]);
        let tok = recorder.begin(
            trace,
            Some(scan),
            "tokenize.chunk",
            vec![("worker", "0".to_string()), ("chunk", "3".to_string())],
        );
        recorder.end(tok);
        recorder.end(scan);
        recorder.end(root);

        let doc = recorder.trace(trace).to_chrome_json();
        let parsed = json::parse(&doc.to_json()).expect("chrome json parses");
        let events = parsed.as_array().expect("array of events");
        // Per-tid B/E stack discipline.
        let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
        let mut durations = 0;
        for event in events {
            let ph = event["ph"].as_str().unwrap();
            if ph == "M" {
                continue;
            }
            assert_eq!(event["pid"].as_u64(), Some(1));
            let tid = event["tid"].as_u64().expect("tid");
            assert!(event["ts"].as_f64().is_some(), "ts present");
            let name = event["name"].as_str().unwrap().to_string();
            match ph {
                "B" => {
                    stacks.entry(tid).or_default().push(name);
                    durations += 1;
                }
                "E" => {
                    let top = stacks.get_mut(&tid).and_then(Vec::pop);
                    assert_eq!(top.as_deref(), Some(name.as_str()), "E matches open B");
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stacks.values().all(Vec::is_empty), "every B closed");
        assert_eq!(durations, 3);
        // The worker-tagged span landed on its own lane.
        let tok_b = events
            .iter()
            .find(|e| e["name"].as_str() == Some("tokenize.chunk") && e["ph"].as_str() == Some("B"))
            .unwrap();
        assert_eq!(tok_b["tid"].as_u64(), Some(100));
        assert_eq!(tok_b["args"]["chunk"].as_str(), Some("3"));
    }

    #[test]
    fn folded_output_aggregates_self_time() {
        let (recorder, tick) = ticking_recorder();
        let trace = recorder.next_trace();
        let root = recorder.begin(trace, None, "query", vec![]);
        let scan = recorder.begin(trace, Some(root), "scan", vec![]);
        tick.fetch_add(100, Ordering::Relaxed);
        recorder.end(scan);
        recorder.end(root);
        let folded = recorder.trace(trace).to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("query "), "{folded}");
        assert!(lines[1].starts_with("query;scan "), "{folded}");
        let scan_nanos: u64 = lines[1].rsplit(' ').next().unwrap().parse().unwrap();
        assert!(scan_nanos >= 100_000, "{folded}");
    }

    #[test]
    fn closed_ring_is_bounded() {
        let (recorder, _) = ticking_recorder();
        let trace = recorder.next_trace();
        for _ in 0..(DEFAULT_SPAN_CAPACITY + 10) {
            let id = recorder.begin(trace, None, "scan", vec![]);
            recorder.end(id);
        }
        assert_eq!(recorder.dropped(), 10);
        assert_eq!(recorder.trace(trace).spans.len(), DEFAULT_SPAN_CAPACITY);
    }

    #[test]
    fn span_ids_are_drawn_per_pipeline_role() {
        let recorder = SpanRecorder::new();
        let trace = recorder.next_trace();
        let root = recorder.begin(trace, None, "query", vec![]);
        let r = recorder.clone();
        let read_ids: Vec<u64> = std::thread::Builder::new()
            .name("scanraw-read-t".into())
            .spawn(move || {
                (0..3)
                    .map(|_| r.begin(trace, Some(root), "read.chunk", vec![]).0)
                    .collect()
            })
            .expect("spawn")
            .join()
            .expect("join");
        assert_eq!(read_ids, [1, 2, 3].map(|s| 1 << LANE_SHIFT | s));
        // The READ thread's spans took nothing from this thread's sequence.
        let next = recorder.begin(trace, Some(root), "exec.chunk", vec![]);
        assert_eq!(next.0, root.0 + 1);
    }
}
