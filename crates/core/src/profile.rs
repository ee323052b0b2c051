//! Pipeline stage timing: one RAII guard per unit of stage work.
//!
//! "The code contains special function calls to harness detailed profiling
//! data" (paper §5, Implementation). Here that call is [`StageTimer::enter`]:
//! the guard it returns opens the stage's trace span (when a trace is
//! current) and, on drop, observes the stage's
//! `pipeline.stage.<stage>.nanos` histogram. The histograms' exact `sum` and
//! `count` are the only stage totals: per-stage time per chunk (Figure 5),
//! EXPLAIN ANALYZE, and the resource manager's CPU-vs-I/O advice (§3.3) all
//! read them.
//!
//! Clock rule: the device stages (READ, WRITE, DELIVER) are timed on the
//! device clock, so a simulated device charges its simulated I/O cost; the
//! CPU stages (TOKENIZE, PARSE, EXEC) are timed on the host clock, because
//! under a virtual device clock CPU work would take no time at all.

use scanraw_obs::trace::{self, SpanCtx, SpanGuard};
use scanraw_obs::{Histogram, HistogramSnapshot, Obs, SpanRecorder};
use scanraw_simio::SharedClock;
use std::time::{Duration, Instant};

/// Pipeline stages that are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    Read,
    Tokenize,
    Parse,
    Write,
    /// Delivery of cache/database chunks (no conversion).
    Deliver,
    /// Consumer-side query execution (predicate + partial aggregation) of
    /// one chunk, on the worker pool or inline on the querying thread.
    Exec,
}

impl Stage {
    pub const ALL: [Stage; 6] = [
        Stage::Read,
        Stage::Tokenize,
        Stage::Parse,
        Stage::Write,
        Stage::Deliver,
        Stage::Exec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "READ",
            Stage::Tokenize => "TOKENIZE",
            Stage::Parse => "PARSE",
            Stage::Write => "WRITE",
            Stage::Deliver => "DELIVER",
            Stage::Exec => "EXEC",
        }
    }

    /// The trace span one unit of this stage's work opens.
    fn span_name(self) -> &'static str {
        match self {
            Stage::Read | Stage::Deliver => "read.chunk",
            Stage::Tokenize => "tokenize.chunk",
            Stage::Parse => "parse.chunk",
            Stage::Write => "write.chunk",
            Stage::Exec => "exec.chunk",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The operator's stage timer: one duration histogram per stage plus the
/// span recorder and device clock its guards use.
pub struct StageTimer {
    histograms: [Histogram; 6],
    trace: SpanRecorder,
    device_clock: SharedClock,
}

impl StageTimer {
    /// Registers `pipeline.stage.<stage>.nanos` for every stage in `obs`;
    /// device stages are timed on `device_clock`.
    pub fn new(obs: &Obs, device_clock: SharedClock) -> Self {
        StageTimer {
            histograms: Stage::ALL.map(|s| {
                obs.metrics.duration_histogram(&format!(
                    "pipeline.stage.{}.nanos",
                    s.name().to_lowercase()
                ))
            }),
            trace: obs.trace.clone(),
            device_clock,
        }
    }

    /// Times one unit of `stage` work under the thread's current span.
    pub fn enter(&self, stage: Stage, tags: Vec<(&'static str, String)>) -> StageGuard<'_> {
        self.enter_under(trace::current(), stage, tags)
    }

    /// Times one unit of `stage` work; its span (if `ctx` is set) is a child
    /// of `ctx` and the thread's current span until the guard drops.
    pub fn enter_under(
        &self,
        ctx: Option<SpanCtx>,
        stage: Stage,
        tags: Vec<(&'static str, String)>,
    ) -> StageGuard<'_> {
        let span = ctx.map(|ctx| self.trace.enter(ctx, stage.span_name(), tags));
        let start = match stage {
            Stage::Read | Stage::Write | Stage::Deliver => Start::Device(self.device_clock.now()),
            // effect-ok: CPU stage time for the stage histograms, never in scan output
            Stage::Tokenize | Stage::Parse | Stage::Exec => Start::Host(Instant::now()),
        };
        StageGuard {
            timer: self,
            stage,
            start,
            span,
        }
    }

    /// Everything `stage`'s histogram has observed so far.
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.histograms[stage.index()].snapshot()
    }

    /// Total time spent in `stage` across all chunks and workers.
    pub fn total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.snapshot(stage).sum)
    }
}

enum Start {
    Device(Duration),
    Host(Instant),
}

/// One unit of stage work in progress; dropping it records the stage time
/// and closes the span.
pub struct StageGuard<'a> {
    timer: &'a StageTimer,
    stage: Stage,
    start: Start,
    span: Option<SpanGuard>,
}

impl StageGuard<'_> {
    /// Tags the open span. Streaming reads learn their chunk id only after
    /// the device returns.
    pub fn tag(&self, key: &'static str, value: String) {
        if let Some(span) = &self.span {
            self.timer.trace.add_tag(span.ctx().span, key, value);
        }
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let elapsed = match self.start {
            Start::Device(t0) => self.timer.device_clock.now().saturating_sub(t0),
            Start::Host(t0) => t0.elapsed(),
        };
        self.timer.histograms[self.stage.index()].observe_duration(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_simio::VirtualClock;

    #[test]
    fn guard_observes_the_stage_histogram_on_drop() {
        let obs = Obs::new();
        let clock = VirtualClock::shared();
        let stages = StageTimer::new(&obs, clock.clone());
        for ms in [10, 30] {
            let _g = stages.enter(Stage::Write, vec![]);
            clock.sleep(Duration::from_millis(ms));
        }
        let write = obs
            .metrics
            .histogram_snapshot("pipeline.stage.write.nanos")
            .expect("registered");
        assert_eq!(write.count, 2);
        assert_eq!(stages.total(Stage::Write), Duration::from_millis(40));
        // Stages that never ran stay at zero.
        assert_eq!(stages.snapshot(Stage::Read).count, 0);
    }

    #[test]
    fn cpu_stages_ignore_the_device_clock() {
        let obs = Obs::new();
        let clock = VirtualClock::shared();
        let stages = StageTimer::new(&obs, clock.clone());
        {
            let _g = stages.enter(Stage::Parse, vec![]);
            clock.sleep(Duration::from_secs(3600));
        }
        assert_eq!(stages.snapshot(Stage::Parse).count, 1);
        assert!(stages.total(Stage::Parse) < Duration::from_secs(3600));
    }

    #[test]
    fn spans_open_only_under_a_context() {
        let obs = Obs::new();
        let stages = StageTimer::new(&obs, VirtualClock::shared());
        let trace = obs.trace.next_trace();
        drop(stages.enter(Stage::Deliver, vec![]));
        {
            let root = obs.trace.enter_root(trace, "scan", vec![]);
            let g = stages.enter(Stage::Read, vec![("source", "raw".to_string())]);
            g.tag("chunk", "3".to_string());
            drop(g);
            drop(stages.enter_under(Some(root.ctx()), Stage::Exec, vec![]));
        }
        let spans = obs.trace.trace(trace).spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["scan", "read.chunk", "exec.chunk"]);
        assert_eq!(spans[1].tag("chunk"), Some("3"));
        // Every guard was timed, traced or not.
        assert_eq!(stages.snapshot(Stage::Deliver).count, 1);
        assert_eq!(stages.snapshot(Stage::Read).count, 1);
        assert_eq!(stages.snapshot(Stage::Exec).count, 1);
    }

    #[test]
    fn stage_names() {
        assert_eq!(Stage::Tokenize.name(), "TOKENIZE");
        assert_eq!(Stage::Exec.name(), "EXEC");
        assert_eq!(Stage::Deliver.span_name(), "read.chunk");
        assert_eq!(Stage::ALL.len(), 6);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
