//! Shared set-up: devices, tables, checked query execution, and the
//! self-checks every scan must pass.

use crate::data::{matches, Checked};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use scanraw_repro::core::{ScanRaw, ScanSummary};
use scanraw_repro::engine::{ExecRequest, QueryOutcome, ServeConfig, Session};
use scanraw_repro::rawfile::TextDialect;
use scanraw_repro::simio::{AccessKind, DiskConfig, RealClock, SimDisk};
use scanraw_repro::types::{ScanRawConfig, Schema, WritePolicy};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline workers per scan, matching the 2-core host this benchmark is
/// sized for.
pub const WORKERS: usize = 2;

/// A broken layer invariant: the run refuses to report.
pub type Fatal = String;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// `(key, JSON value)` pairs describing the inputs and settings.
    pub env: Vec<(&'static str, String)>,
}

impl Report {
    pub fn env(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.env.push((key, value.to_string()));
    }

    pub fn env_str(&mut self, key: &'static str, value: &str) {
        self.env.push((key, format!("\"{value}\"")));
    }

    /// Records the table's shape and the operator settings.
    pub fn env_table(&mut self, spec: &RawSpec, raw_bytes: u64, cfg: &ScanRawConfig) {
        self.env_str("device", PAPER_DEVICE);
        self.env("rows", spec.rows);
        self.env("columns", spec.schema.len());
        self.env("raw_bytes", raw_bytes);
        self.env("chunk_rows", spec.chunk_rows);
        self.env("chunks", spec.chunks());
        self.env("cache_chunks", cfg.binary_cache_chunks);
        self.env("workers", cfg.workers);
        let serve = ServeConfig::default();
        self.env("probe_dispatchers", serve.dispatchers);
        self.env("probe_batch_window", serve.batch_window);
    }

    /// `query_ms.p50` and `query_ms.p90` over `ms`. The tail quantile is
    /// fixed, not picked from the sample count, so a faster program that
    /// fits more queries into a run is still compared on the same statistic.
    pub fn latency(&mut self, ms: &[f64]) {
        self.e2e
            .push(metric("query_ms.p50", quantile(ms, 0.5), "ms"));
        self.e2e
            .push(metric("query_ms.p90", quantile(ms, TAIL_Q), "ms"));
        self.env("query_ms_samples", ms.len());
        self.env("query_ms_tail_quantile", TAIL_Q);
    }
}

/// The tail quantile of `query_ms`: a closed-loop run holds tens of
/// queries, too few for a p99.
pub const TAIL_Q: f64 = 0.9;

/// The paper's device: 436 MB/s reads and writes on the real clock, with
/// the page-cache model off so every raw-file read pays the device.
pub fn paper_disk() -> SimDisk {
    SimDisk::new(
        DiskConfig {
            page_cache_bytes: 0,
            ..DiskConfig::default()
        },
        RealClock::shared(),
    )
}

pub const PAPER_DEVICE: &str = "436 MiB/s read+write, 5 ms seek, real clock, page cache off";

/// Rows per chunk: the operator's shipped default, so per-chunk fixed costs
/// (events, commit records, catalog updates) weigh as they do for a user.
pub fn default_chunk_rows() -> u32 {
    ScanRawConfig::default().chunk_rows
}

/// Every workload's operator configuration: speculative loading with the
/// end-of-scan safeguard on.
pub fn scan_config(chunk_rows: u32, cache_chunks: usize) -> ScanRawConfig {
    ScanRawConfig::default()
        .with_chunk_rows(chunk_rows)
        .with_workers(WORKERS)
        .with_cache_chunks(cache_chunks)
        .with_policy(WritePolicy::speculative())
}

/// A raw file's shape, as the benchmark generated it.
pub struct RawSpec {
    pub name: &'static str,
    pub file: &'static str,
    pub schema: Schema,
    pub dialect: TextDialect,
    pub rows: u64,
    pub chunk_rows: u32,
}

impl RawSpec {
    pub fn chunks(&self) -> usize {
        self.rows.div_ceil(u64::from(self.chunk_rows)) as usize
    }
}

/// Stages `bytes` on `disk` and registers it as a table of a new session.
pub fn open_table(
    disk: SimDisk,
    spec: &RawSpec,
    bytes: Vec<u8>,
    config: ScanRawConfig,
) -> Result<Session, Fatal> {
    disk.storage().put(spec.file, bytes);
    let session = Session::open(disk);
    session
        .register_table(
            spec.name,
            spec.file,
            spec.schema.clone(),
            spec.dialect,
            config,
        )
        .map_err(|e| format!("register_table: {e}"))?;
    Ok(session)
}

/// The program's set-up before a table's first query: stage the file,
/// open a session, register the table and create its operator. Returns the
/// session, its operator and the set-up time in seconds.
pub fn set_up(
    spec: &RawSpec,
    bytes: Vec<u8>,
    config: ScanRawConfig,
    tr: &Tracer,
) -> Result<(Session, Arc<ScanRaw>, f64), Fatal> {
    let disk = paper_disk();
    let t = Instant::now();
    let (session, op) = tr.time("setup.stage_register", || {
        let session = open_table(disk, spec, bytes, config)?;
        let op = session
            .engine()
            .operator(spec.name)
            .map_err(|e| format!("operator: {e}"))?;
        Ok::<_, Fatal>((session, op))
    })?;
    Ok((session, op, t.elapsed().as_secs_f64()))
}

/// Queries attempted and failed (errors, wrong answers, rejections).
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one answer; logs the first few failures.
    pub fn record(&mut self, label: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("query {label} failed: {}", detail());
            }
        }
    }
}

/// Runs `q` through `Session::run`, checks it against the oracle and the
/// scan invariants, and returns its wall time with the outcome (`None` when
/// the query failed or answered wrongly).
pub fn run_checked(
    session: &Session,
    q: &Checked,
    chunks: usize,
    tally: &mut Tally,
    tr: &Tracer,
) -> Result<(f64, Option<QueryOutcome>), Fatal> {
    let t0 = Instant::now();
    let res = tr.time("engine.session.run", || {
        session.run(ExecRequest::query(q.query.clone()))
    });
    let secs = t0.elapsed().as_secs_f64();
    match res {
        Ok(out) => {
            let out = out.into_single();
            check_scan(&out.scan, chunks)?;
            let ok = matches(&out.result, &q.expected);
            tally.record(q.label, ok, || "answer differs from the oracle".into());
            Ok((secs, ok.then_some(out)))
        }
        Err(e) => {
            tally.record(q.label, false, || e.to_string());
            Ok((secs, None))
        }
    }
}

/// The per-scan layer invariants: every chunk has exactly one source, and
/// every queued write has exactly one cause.
pub fn check_scan(s: &ScanSummary, chunks: usize) -> Result<(), Fatal> {
    let sources = s.from_cache + s.from_db + s.from_raw + s.from_hybrid + s.skipped;
    if sources != chunks {
        return Err(format!(
            "self-check: chunk sources sum to {sources}, table has {chunks} chunks ({s:?})"
        ));
    }
    let causes = s.speculative_writes + s.safeguard_writes + s.eviction_writes;
    if s.writes_queued != causes {
        return Err(format!(
            "self-check: {} writes queued but {causes} have a cause ({s:?})",
            s.writes_queued
        ));
    }
    Ok(())
}

/// Device writes must cover what the column store holds.
pub fn check_write_bytes(disk: &SimDisk, stored: u64) -> Result<(), Fatal> {
    let written = disk.stats().bytes(AccessKind::Write);
    if written < stored {
        return Err(format!(
            "self-check: device wrote {written} bytes but the store holds {stored}"
        ));
    }
    Ok(())
}

/// Catalog loaded fraction of `table`'s (chunk, column) cells.
pub fn loaded_fraction(session: &Session, table: &str) -> f64 {
    session
        .database()
        .catalog()
        .table(table)
        .map_or(0.0, |t| t.read().loaded_fraction())
}

/// Per-pass layer counts read from the program's own counters.
#[derive(Default)]
pub struct PassCounts {
    pub passes: u64,
    pub read_busy_s: f64,
    pub write_busy_s: f64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub ops: u64,
    pub speculative_writes: u64,
    pub safeguard_writes: u64,
    pub sources: [u64; 5],
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub loaded_frac: Vec<f64>,
    pub stored_per_raw: Vec<f64>,
    pub write_amp: Vec<f64>,
    pub drain_s: Vec<f64>,
}

impl PassCounts {
    pub fn add_scan(&mut self, s: &ScanSummary) {
        self.speculative_writes += s.speculative_writes;
        self.safeguard_writes += s.safeguard_writes;
        self.sources[0] += s.from_cache as u64;
        self.sources[1] += s.from_db as u64;
        self.sources[2] += s.from_raw as u64;
        self.sources[3] += s.from_hybrid as u64;
        self.sources[4] += s.skipped as u64;
    }

    /// Device and store totals of one finished pass on its own disk.
    pub fn add_pass(
        &mut self,
        session: &Session,
        table: &str,
        raw_bytes: u64,
    ) -> Result<(), Fatal> {
        let disk = session.database().disk();
        let stats = disk.stats();
        let stored = session.database().store().stored_bytes(table);
        check_write_bytes(disk, stored)?;
        let written = stats.bytes(AccessKind::Write);
        self.passes += 1;
        self.read_busy_s += stats.busy(AccessKind::Read).as_secs_f64();
        self.write_busy_s += stats.busy(AccessKind::Write).as_secs_f64();
        self.read_bytes += stats.bytes(AccessKind::Read);
        self.write_bytes += written;
        self.ops += stats.op_count() as u64;
        if let Ok(op) = session.engine().operator(table) {
            let c = op.cache().counters();
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
        }
        self.stored_per_raw.push(stored as f64 / raw_bytes as f64);
        if stored > 0 {
            self.write_amp.push(written as f64 / stored as f64);
        }
        Ok(())
    }

    /// Per-pass means of the counts, as per-layer metrics.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let n = self.passes.max(1) as f64;
        let per = |x: u64| x as f64 / n;
        out.push(metric("simio.read_busy_s", self.read_busy_s / n, "s"));
        out.push(metric("simio.write_busy_s", self.write_busy_s / n, "s"));
        out.push(metric("simio.read_bytes", per(self.read_bytes), "B"));
        out.push(metric("simio.write_bytes", per(self.write_bytes), "B"));
        out.push(metric("simio.ops", per(self.ops), "count"));
        out.push(metric(
            "storage.loaded_frac",
            median(&self.loaded_frac),
            "fraction",
        ));
        out.push(metric(
            "storage.stored_per_raw_byte",
            median(&self.stored_per_raw),
            "ratio",
        ));
        out.push(metric(
            "storage.write_amp",
            median(&self.write_amp),
            "ratio",
        ));
        out.push(metric("core.scheduler.drain_s", median(&self.drain_s), "s"));
        out.push(metric(
            "core.scheduler.speculative_writes",
            per(self.speculative_writes),
            "count",
        ));
        out.push(metric(
            "core.scheduler.safeguard_writes",
            per(self.safeguard_writes),
            "count",
        ));
        let probes = self.cache_hits + self.cache_misses;
        let hit_rate = if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        };
        out.push(metric("core.cache.hit_rate", hit_rate, "fraction"));
        let names = [
            "core.source.cache",
            "core.source.db",
            "core.source.raw",
            "core.source.hybrid",
            "core.source.skipped",
        ];
        for (name, &v) in names.iter().zip(&self.sources) {
            out.push(metric(name, per(v), "count"));
        }
    }
}
