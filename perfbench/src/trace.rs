//! The benchmark's own span recorder.
//!
//! Spans are opened in this package around each call into a layer's public
//! functions; nothing inside the program is instrumented. Spans stay in
//! memory until the run ends, then [`Tracer::write_jsonl`] writes them out
//! and [`Tracer::self_times`] folds them into per-name busy and self time.
//! A disabled tracer records nothing and costs one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end_s = self.tracer.epoch.elapsed().as_secs_f64();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end_s = end_s;
            }
            OPEN.with(|open| {
                open.borrow_mut().pop();
            });
        }
    }
}

/// Busy and self time of every span with one name.
#[derive(Default)]
pub struct NameTime {
    pub count: u64,
    pub busy_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` under the calling thread's innermost open
    /// span. Spans must close in LIFO order per thread (guards do that).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_s = self.epoch.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let id = spans.len();
            spans.push(SpanRec {
                id,
                parent,
                name,
                start_s,
                end_s: start_s,
            });
            id
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Per-name totals. A span's self time is its duration minus the time
    /// its direct children cover (children of one thread never overlap).
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTime> {
        let spans = self.spans();
        let mut child_cover = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_s - s.start_s;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.busy_s += dur;
            t.self_s += (dur - child_cover[s.id]).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
                self.run_id, s.id, parent, s.name, s.start_s, s.end_s
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true, "t".into());
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let times = t.self_times();
        let outer = &times["outer"];
        let inner = &times["inner"];
        assert!(inner.self_s >= 0.004);
        assert!(outer.self_s < inner.self_s);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false, "t".into());
        t.time("x", || ());
        assert!(t.spans().is_empty());
    }
}
