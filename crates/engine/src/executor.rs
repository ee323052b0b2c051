//! The engine: plans scans over ScanRaw operators and folds aggregates.

use crate::parallel::{pushdown_rows, AggSpec, AggState};
use crate::query::{Query, QueryResult, ResultRow};
use parking_lot::Mutex;
use scanraw::{
    ChunkStream, ConvertScope, ExecTask, OperatorRegistry, ScanRaw, ScanRequest, ScanSummary, Stage,
};
use scanraw_obs::trace::worker_label;
use scanraw_obs::{json, HistogramSnapshot, JournalEntry, ObsEvent, QueryTrace, TraceId};
use scanraw_rawfile::TextDialect;
use scanraw_storage::{Database, RecoveryReport};
use scanraw_types::{BinaryChunk, Error, RangePredicate, Result, ScanRawConfig, Schema};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Where the engine folds delivered chunks. Both modes run the same
/// columnar kernels — one partial `AggState` per chunk, merged in
/// ascending chunk order — so they differ in parallelism alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Each chunk's task runs inline on the calling thread.
    Serial,
    /// Each chunk's task is submitted to the operator's TOKENIZE/PARSE
    /// worker pool (inline when the scan runs without a pool).
    #[default]
    Parallel,
}

/// Result of running a query through the engine: the rows plus what the scan
/// did underneath (chunk sources, writes triggered, elapsed time).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub result: QueryResult,
    pub scan: ScanSummary,
}

/// Outcomes of a shared-scan batch plus the traces it minted: the carrier
/// trace (shared scan, exec tasks, merge) and one trace per query whose root
/// `query` span covers pipeline attach → that query's fold completing. The
/// trace fields are `None` when tracing is disabled on the operator's
/// recorder.
#[derive(Debug, Clone)]
pub struct SharedOutcome {
    pub outcomes: Vec<QueryOutcome>,
    /// Trace carrying the shared scan's spans (root span `query.batch`).
    pub batch_trace: Option<TraceId>,
    /// Per-query traces, parallel to `outcomes`; each holds one root span
    /// named `query`, tagged with the table, `mode=shared`, and a `batch`
    /// tag naming `batch_trace`.
    pub query_traces: Vec<Option<TraceId>>,
}

/// Plan report for a query: what the scan would do and what the optimizer
/// statistics predict (paper §3.3, cardinality estimation).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    pub table: String,
    /// Columns the scan must provide.
    pub projection: Vec<usize>,
    /// True when the filter is range-expressible and chunk skipping applies.
    pub uses_chunk_skipping: bool,
    /// Estimated fraction of rows matching the filter (1.0 without one, or
    /// without statistics).
    pub estimated_selectivity: f64,
    /// Estimated matching rows (None before the first scan established the
    /// layout/row counts).
    pub estimated_rows: Option<u64>,
    /// Chunks expected from each source given current cache/catalog state.
    /// `expect_from_hybrid` counts chunks with *some* (not all) projected
    /// columns loaded, delivered as a database-read + raw-reparse merge when
    /// hybrid reads are enabled.
    pub expect_from_cache: usize,
    pub expect_from_db: usize,
    pub expect_from_hybrid: usize,
    pub expect_from_raw: usize,
}

/// `EXPLAIN ANALYZE` output: the plan-time [`ExplainReport`] plus what the
/// scan actually did, measured from the operator's metrics registry and
/// event journal over this query alone.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The plan as predicted before execution.
    pub explain: ExplainReport,
    /// Rows produced and the scan summary (chunk sources, writes, elapsed).
    pub outcome: QueryOutcome,
    /// Actual total time per pipeline stage during this query, in
    /// [`Stage::ALL`] order (READ, TOKENIZE, PARSE, WRITE, DELIVER, EXEC —
    /// the last being consumer-side query execution, pooled or inline): the
    /// `sum` of this query's window of each stage histogram.
    pub stage_durations: Vec<(&'static str, Duration)>,
    /// Per-chunk latency percentiles `[p50, p95, p99]` in nanoseconds for
    /// each stage, over this query's window of the stage histograms (same
    /// order as `stage_durations`). Zeroes for stages that never ran.
    pub stage_percentiles: Vec<(&'static str, [u64; 3])>,
    /// End-to-end `[p50, p95, p99]` scan latency in nanoseconds over every
    /// query this operator has served so far, `None` before the first.
    pub query_latency_percentiles: Option<[u64; 3]>,
    /// Chunks the speculative policy wrote during this query.
    pub speculative_chunks_written: u64,
    /// Chunks the end-of-scan safeguard flushed during this query.
    pub safeguard_chunks_written: u64,
    /// hits / (hits + misses) over this query; `None` when the cache was
    /// never consulted.
    pub cache_hit_rate: Option<f64>,
    /// Device operations re-issued after transient faults during this query.
    pub io_retries: u64,
    /// Database reads that fell back to raw-file conversion.
    pub db_fallbacks: u64,
    /// True when a permanent device fault degraded the operator to
    /// external-table mode during this query.
    pub load_degraded: bool,
    /// Journal entries recorded while the query ran.
    pub events: Vec<JournalEntry>,
}

impl AnalyzeReport {
    /// The whole report as one JSON document (same schema family as
    /// `Obs::snapshot_json`).
    pub fn to_json(&self) -> scanraw_obs::Value {
        let scan = &self.outcome.scan;
        json!({
            "table": self.explain.table.clone(),
            "projection": self.explain.projection.clone(),
            "estimated_rows": self.explain.estimated_rows,
            "estimated_selectivity": self.explain.estimated_selectivity,
            "expected_sources": {
                "cache": self.explain.expect_from_cache as u64,
                "db": self.explain.expect_from_db as u64,
                "hybrid": self.explain.expect_from_hybrid as u64,
                "raw": self.explain.expect_from_raw as u64,
            },
            "actual_sources": {
                "cache": scan.from_cache as u64,
                "db": scan.from_db as u64,
                "raw": scan.from_raw as u64,
                "hybrid": scan.from_hybrid as u64,
                "skipped": scan.skipped as u64,
            },
            "rows_scanned": self.outcome.result.rows_scanned,
            "elapsed_micros": scan.elapsed.as_micros() as u64,
            "stage_micros": self
                .stage_durations
                .iter()
                .zip(&self.stage_percentiles)
                .map(|((name, d), (_, p))| json!({
                    "stage": *name,
                    "micros": d.as_micros() as u64,
                    "p50_nanos": p[0],
                    "p95_nanos": p[1],
                    "p99_nanos": p[2],
                }))
                .collect::<Vec<_>>(),
            "query_latency_percentiles": self.query_latency_percentiles.map(|p| json!({
                "p50_nanos": p[0],
                "p95_nanos": p[1],
                "p99_nanos": p[2],
            })),
            "speculative_chunks_written": self.speculative_chunks_written,
            "safeguard_chunks_written": self.safeguard_chunks_written,
            "cache_hit_rate": self.cache_hit_rate,
            "io_retries": self.io_retries,
            "db_fallbacks": self.db_fallbacks,
            "load_degraded": self.load_degraded,
            "events": self.events.iter().map(|e| e.to_json()).collect::<Vec<_>>(),
        })
    }
}

/// Table registration data.
struct TableDef {
    raw_file: String,
    schema: Schema,
    dialect: TextDialect,
    config: ScanRawConfig,
}

/// The execution engine façade.
///
/// Holds the database, the ScanRaw operator registry ("when a new query
/// arrives, the execution engine first checks the existence of a
/// corresponding ScanRaw operator", paper §3.3), and table definitions.
pub struct Engine {
    db: Database,
    registry: OperatorRegistry,
    tables: Mutex<HashMap<String, TableDef>>,
    /// Convert scope applied to scans (paper default: all columns).
    /// Interior-mutable so one engine can be tuned and shared behind `Arc`.
    convert_scope: Mutex<ConvertScope>,
    /// Where chunks are folded; [`ExecMode::Parallel`] by default.
    exec_mode: Mutex<ExecMode>,
    /// Table and trace id of the most recently completed traced query.
    last_trace: Mutex<Option<(String, TraceId)>>,
}

impl Engine {
    pub fn new(db: Database) -> Self {
        Engine {
            db,
            registry: OperatorRegistry::new(),
            // effect-ok: the table map is keyed-access only; nothing iterates it into output
            tables: Mutex::new(HashMap::new()),
            convert_scope: Mutex::new(ConvertScope::AllColumns),
            exec_mode: Mutex::new(ExecMode::default()),
            last_trace: Mutex::new(None),
        }
    }

    /// Where queries fold their chunks. Each query samples it once at entry,
    /// so a concurrent [`Engine::set_exec_mode`] never splits one query
    /// across modes.
    pub fn exec_mode(&self) -> ExecMode {
        *self.exec_mode.lock()
    }

    /// Switches where queries that start from now on fold their chunks.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        *self.exec_mode.lock() = mode;
    }

    /// The convert scope applied to scans.
    pub fn convert_scope(&self) -> ConvertScope {
        *self.convert_scope.lock()
    }

    /// Changes the convert scope for scans that start from now on.
    pub fn set_convert_scope(&self, scope: ConvertScope) {
        *self.convert_scope.lock() = scope;
    }

    /// Mints a per-query trace and opens its root span, or `None` when
    /// tracing is disabled on the operator's span recorder. The guard pins
    /// the root span as the calling thread's current context. `extra` tags
    /// (tenant id, batch size) are appended after the standard table/mode
    /// pair.
    fn begin_trace(
        &self,
        op: &Arc<ScanRaw>,
        table: &str,
        name: &'static str,
        mode: &'static str,
        extra: Vec<(&'static str, String)>,
    ) -> Option<scanraw_obs::trace::SpanGuard> {
        if !op.obs().trace.enabled() {
            return None;
        }
        let trace = op.obs().trace.next_trace();
        op.obs().event(ObsEvent::TraceStarted {
            trace: trace.0,
            table: table.to_string(),
        });
        let mut tags = vec![("table", table.to_string()), ("mode", mode.to_string())];
        tags.extend(extra);
        Some(op.obs().trace.enter_root(trace, name, tags))
    }

    /// Closes a query's root span, journals the completion, and remembers the
    /// trace for [`Engine::take_last_trace`].
    fn end_trace(&self, op: &Arc<ScanRaw>, table: &str, guard: scanraw_obs::trace::SpanGuard) {
        let ctx = guard.ctx();
        drop(guard);
        op.obs().event(ObsEvent::TraceCompleted {
            trace: ctx.trace.0,
            spans: op.obs().trace.span_count(ctx.trace),
        });
        *self.last_trace.lock() = Some((table.to_string(), ctx.trace));
    }

    /// The span tree of the most recently completed traced query, extracted
    /// from the owning operator's recorder. Late write-back spans may still
    /// be open; call the operator's `drain_writes` first for a closed tree
    /// (the [`crate::Session`] wrapper does).
    pub fn last_query_trace(&self) -> Option<QueryTrace> {
        let (table, trace) = self.last_trace.lock().clone()?;
        let op = self.operator(&table).ok()?;
        Some(op.obs().trace.trace(trace))
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn registry(&self) -> &OperatorRegistry {
        &self.registry
    }

    /// Registers a raw file as a queryable table.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        raw_file: impl Into<String>,
        schema: Schema,
        dialect: TextDialect,
        config: ScanRawConfig,
    ) -> Result<()> {
        config.validate()?;
        let name = name.into();
        let mut tables = self.tables.lock();
        if tables.contains_key(&name) {
            return Err(Error::query(format!("table '{name}' already registered")));
        }
        tables.insert(
            name,
            TableDef {
                raw_file: raw_file.into(),
                schema,
                dialect,
                config,
            },
        );
        Ok(())
    }

    /// Fetches (or creates) the ScanRaw operator backing a table.
    pub fn operator(&self, table: &str) -> Result<Arc<ScanRaw>> {
        let tables = self.tables.lock();
        let def = tables
            .get(table)
            .ok_or_else(|| Error::query(format!("unknown table '{table}'")))?;
        self.registry.get_or_create(&def.raw_file, || {
            ScanRaw::create(
                self.db.clone(),
                table,
                def.schema.clone(),
                def.dialect,
                def.raw_file.clone(),
                def.config.clone(),
            )
        })
    }

    /// Rebuilds a registered table's loaded state from its commit log after
    /// a simulated crash/restart: only chunk runs whose payload passes its
    /// checksum are re-marked loaded; uncommitted or corrupt runs are
    /// dropped. The outcome lands in the operator's journal as an
    /// [`ObsEvent::RecoveryCompleted`] event.
    ///
    /// # Errors
    ///
    /// Fails for unregistered tables, when the commit log cannot be read, or
    /// when catalog-level metadata is corrupt.
    pub fn recover_table(&self, table: &str) -> Result<RecoveryReport> {
        let (raw_file, schema) = {
            let tables = self.tables.lock();
            let def = tables
                .get(table)
                .ok_or_else(|| Error::query(format!("unknown table '{table}'")))?;
            (def.raw_file.clone(), def.schema.clone())
        };
        let report = self.db.recover_table(table, schema, &raw_file)?;
        let op = self.operator(table)?;
        op.obs().event(ObsEvent::RecoveryCompleted {
            committed: report.committed_cells as u64,
            dropped: (report.dropped_corrupt + report.dropped_malformed) as u64,
        });
        Ok(report)
    }

    /// Explains a query without running it: projection, chunk sources, and
    /// statistics-based cardinality estimates.
    pub fn explain(&self, query: &Query) -> Result<ExplainReport> {
        let op = self.operator(&query.table)?;
        let projection = query.effective_projection();
        let range = query.filter.as_ref().and_then(|f| f.extract_range());
        let entry = op.database().catalog().table(&query.table)?;
        let entry = entry.read();
        let (selectivity, total_rows) = match &range {
            Some(pred) => (
                entry.estimate_selectivity(pred),
                entry.layout().map(|l| l.total_rows()),
            ),
            None => (1.0, entry.layout().map(|l| l.total_rows())),
        };
        let mut from_cache = 0;
        let mut from_db = 0;
        let mut from_hybrid = 0;
        let mut from_raw = 0;
        if let Some(layout) = entry.layout() {
            for meta in layout.iter() {
                if op.cache().covers(meta.id, &projection) {
                    from_cache += 1;
                } else if entry.is_loaded(meta.id, &projection) {
                    from_db += 1;
                } else if op.config().hybrid_reads
                    && !entry.loaded_columns(meta.id, &projection).is_empty()
                {
                    from_hybrid += 1;
                } else {
                    from_raw += 1;
                }
            }
        }
        Ok(ExplainReport {
            table: query.table.clone(),
            projection,
            uses_chunk_skipping: range.is_some(),
            estimated_selectivity: selectivity,
            estimated_rows: total_rows.map(|r| (r as f64 * selectivity).round() as u64),
            expect_from_cache: from_cache,
            expect_from_db: from_db,
            expect_from_hybrid: from_hybrid,
            expect_from_raw: from_raw,
        })
    }

    /// Runs a batch of queries over the *same* table with a single shared
    /// scan — the paper's §7 future work ("extending ScanRaw with support
    /// for multi-query processing over raw files"). The raw file is read and
    /// converted once; every query folds its own filter and aggregates over
    /// the shared chunk stream.
    ///
    /// Restrictions: all queries must target one table; chunk skipping is
    /// applied only when every query shares the same extractable range (the
    /// scan must deliver a superset of what each query needs).
    pub fn execute_shared(&self, queries: &[Query]) -> Result<Vec<QueryOutcome>> {
        Ok(self
            .execute_shared_inner(queries, None, None, None)?
            .outcomes)
    }

    /// Shared execution on behalf of the serving layer: per-query root spans
    /// are tagged with the submitting tenant ids and the serving batch
    /// label. `tenants` must be parallel to `queries`.
    pub(crate) fn execute_shared_for_tenants(
        &self,
        queries: &[Query],
        tenants: &[u64],
        batch: u64,
    ) -> Result<SharedOutcome> {
        debug_assert_eq!(queries.len(), tenants.len());
        self.execute_shared_inner(queries, Some(tenants), Some(batch), None)
    }

    pub(crate) fn execute_shared_inner(
        &self,
        queries: &[Query],
        tenants: Option<&[u64]>,
        batch_label: Option<u64>,
        mode_override: Option<ExecMode>,
    ) -> Result<SharedOutcome> {
        let first = queries
            .first()
            .ok_or_else(|| Error::query("shared execution needs at least one query"))?;
        if queries.iter().any(|q| q.table != first.table) {
            return Err(Error::query("shared execution requires a single table"));
        }
        if queries.iter().any(|q| q.pushdown) {
            return Err(Error::query(
                "push-down selection cannot be shared across queries",
            ));
        }
        let op = self.operator(&first.table)?;
        for q in queries {
            q.validate(op.schema().len())?;
        }
        let clock = self.db.disk().clock().clone();
        let mode = mode_override.unwrap_or_else(|| self.exec_mode());

        // Union of all projections.
        let mut projection: Vec<usize> = queries
            .iter()
            .flat_map(|q| q.effective_projection())
            .collect();
        projection.sort_unstable();
        projection.dedup();

        // A skip predicate is only safe when every query would skip the
        // same chunks.
        let ranges: Vec<_> = queries
            .iter()
            .map(|q| q.filter.as_ref().and_then(|f| f.extract_range()))
            .collect();
        let skip_predicate = match ranges.split_first() {
            Some((head, tail)) if tail.iter().all(|r| r == head) => head.clone(),
            _ => None,
        };
        let range = skip_predicate.clone();

        // The carrier trace: the shared scan, exec tasks, and merge hang off
        // this root, which represents the batch rather than any one caller.
        let trace_guard = self.begin_trace(
            &op,
            &first.table,
            "query.batch",
            "shared",
            vec![("queries", queries.len().to_string())],
        );
        let batch_trace = trace_guard.as_ref().map(|g| g.ctx().trace);
        // One `query` root span per batched query, each in its own trace, so
        // per-caller (and per-tenant) traces stay causal under batching: the
        // `batch` tag links each root to the carrier trace doing the work.
        let recorder = op.obs().trace.clone();
        let query_roots: Vec<Option<(TraceId, scanraw_obs::SpanId)>> = queries
            .iter()
            .enumerate()
            .map(|(i, _)| {
                batch_trace?;
                let trace = recorder.next_trace();
                op.obs().event(ObsEvent::TraceStarted {
                    trace: trace.0,
                    table: first.table.clone(),
                });
                let mut tags = vec![
                    ("table", first.table.clone()),
                    ("mode", "shared".to_string()),
                ];
                if let Some(bt) = batch_trace {
                    tags.push(("batch", bt.0.to_string()));
                }
                if let Some(label) = batch_label {
                    tags.push(("serve.batch", label.to_string()));
                }
                if let Some(ts) = tenants {
                    tags.push(("tenant", ts[i].to_string()));
                }
                Some((trace, recorder.begin(trace, None, "query", tags)))
            })
            .collect();
        // Closes query i's root span and journals its trace completion.
        let finish_root = |i: usize| {
            if let Some((trace, span)) = query_roots[i] {
                recorder.end(span);
                op.obs().event(ObsEvent::TraceCompleted {
                    trace: trace.0,
                    spans: recorder.span_count(trace),
                });
            }
        };

        let request = ScanRequest {
            projection,
            convert: self.convert_scope(),
            skip_predicate,
            cols_mapped: None,
            pushdown: None,
            trace: trace_guard.as_ref().map(|g| g.ctx()),
        };
        let mut stream = op.scan(request)?;
        // Per-query durations run from pipeline attach (the consumers join
        // the shared stream here) to each query's own fold completing — not
        // from the engine-side planning that preceded the scan.
        let attached = clock.now();
        let specs: Vec<Arc<AggSpec>> = queries.iter().map(AggSpec::of).collect();
        let states = self.fold_chunks(&op, &mut stream, &specs, range.as_ref(), mode)?;
        let outcomes: Vec<(Vec<ResultRow>, u64, Duration)> = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let rows_scanned = state.rows_seen;
                let rows = state.finish()?;
                finish_root(i);
                Ok((rows, rows_scanned, clock.now().saturating_sub(attached)))
            })
            .collect::<Result<_>>()?;
        let scan = stream.finish()?;
        if let Some(guard) = trace_guard {
            self.end_trace(&op, &first.table, guard);
        }
        Ok(SharedOutcome {
            outcomes: outcomes
                .into_iter()
                .map(|(rows, rows_scanned, elapsed)| QueryOutcome {
                    result: QueryResult {
                        rows,
                        rows_scanned,
                        elapsed,
                    },
                    scan: scan.clone(),
                })
                .collect(),
            batch_trace,
            query_traces: query_roots.iter().map(|r| r.map(|(t, _)| t)).collect(),
        })
    }

    /// `EXPLAIN ANALYZE`: runs the query and reports the plan alongside the
    /// observed behaviour — per-stage durations, actual chunk sources,
    /// speculative-loading progress, and the cache hit rate, all scoped to
    /// this query via before/after snapshots of the operator's metrics and
    /// the journal sequence number.
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzeReport> {
        let op = self.operator(&query.table)?;
        let explain = self.explain(query)?;

        let stage_before: Vec<HistogramSnapshot> = Stage::ALL
            .iter()
            .map(|&s| op.stages().snapshot(s))
            .collect();
        let cache_before = op.cache().counters();
        let journal_since = op.obs().journal.total_recorded();

        let outcome = self.execute(query)?;
        // The safeguard flush overlaps the next query; drain it so the
        // journal and write counters cover everything this query caused.
        op.drain_writes();

        // This query's window of each stage histogram: its `sum` is the
        // stage duration, its buckets interpolate per-chunk percentiles.
        let (stage_durations, stage_percentiles): (Vec<_>, Vec<_>) = Stage::ALL
            .iter()
            .zip(&stage_before)
            .map(|(&s, before)| {
                let w = op.stages().snapshot(s).saturating_diff(before);
                let p = [w.quantile(0.50), w.quantile(0.95), w.quantile(0.99)];
                ((s.name(), Duration::from_nanos(w.sum)), (s.name(), p))
            })
            .unzip();
        let query_latency_percentiles = op
            .obs()
            .metrics
            .histogram_snapshot("query.latency.nanos")
            .filter(|s| s.count > 0)
            .map(|s| [s.quantile(0.50), s.quantile(0.95), s.quantile(0.99)]);
        let cache_after = op.cache().counters();
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        let cache_hit_rate = if hits + misses > 0 {
            Some(hits as f64 / (hits + misses) as f64)
        } else {
            None
        };
        let events: Vec<JournalEntry> = op
            .obs()
            .journal
            .entries()
            .into_iter()
            .filter(|e| e.seq >= journal_since)
            .collect();
        // Fault-tolerance telemetry, derived from the same journal window.
        let mut io_retries = 0u64;
        let mut db_fallbacks = 0u64;
        let mut load_degraded = false;
        for e in &events {
            match &e.event {
                ObsEvent::IoRetry { .. } => io_retries += 1,
                ObsEvent::DbReadFallback { .. } => db_fallbacks += 1,
                ObsEvent::LoadDegraded { .. } => load_degraded = true,
                // Only fault telemetry is summarized here; every other event
                // is listed so a new journal event forces a decision on
                // whether the report should count it (L007).
                ObsEvent::QueryStart { .. }
                | ObsEvent::QueryEnd { .. }
                | ObsEvent::ReadBlocked { .. }
                | ObsEvent::SpeculativeWriteTriggered { .. }
                | ObsEvent::SafeguardFlush { .. }
                | ObsEvent::WriteQueued { .. }
                | ObsEvent::CacheHit { .. }
                | ObsEvent::CacheMiss { .. }
                | ObsEvent::CacheEvict { .. }
                | ObsEvent::ChunkSkipped { .. }
                | ObsEvent::WorkerScaled { .. }
                | ObsEvent::RecoveryCompleted { .. }
                | ObsEvent::ColumnCellLoaded { .. }
                | ObsEvent::TraceStarted { .. }
                | ObsEvent::TraceCompleted { .. }
                | ObsEvent::QueryAdmitted { .. }
                | ObsEvent::QueryRejected { .. }
                | ObsEvent::BatchFormed { .. }
                | ObsEvent::QueryServed { .. } => {}
            }
        }
        Ok(AnalyzeReport {
            explain,
            speculative_chunks_written: outcome.scan.speculative_writes,
            safeguard_chunks_written: outcome.scan.safeguard_writes,
            cache_hit_rate,
            stage_durations,
            stage_percentiles,
            query_latency_percentiles,
            io_retries,
            db_fallbacks,
            load_degraded,
            events,
            outcome,
        })
    }

    /// Runs an aggregate query.
    ///
    /// Delivered chunks are evaluated with the columnar kernels, one partial
    /// aggregate per chunk, merged in ascending chunk order — on the
    /// operator's worker pool under [`ExecMode::Parallel`] (the default),
    /// inline under [`ExecMode::Serial`]. Both modes give bit-for-bit the
    /// same result.
    pub fn execute(&self, query: &Query) -> Result<QueryOutcome> {
        Ok(self.execute_inner(query, None, None)?.0)
    }

    /// [`Engine::execute`] on behalf of the serving layer: the query's root
    /// span carries a `tenant` tag so single-query dispatches stay
    /// attributable alongside batched ones.
    pub(crate) fn execute_for_tenant(
        &self,
        query: &Query,
        tenant: Option<u64>,
    ) -> Result<QueryOutcome> {
        Ok(self.execute_inner(query, tenant, None)?.0)
    }

    /// Core single-query path. Returns the outcome together with the trace
    /// this query minted (`None` when tracing is disabled), so concurrent
    /// callers can fetch *their own* span tree instead of racing on the
    /// engine-wide "last trace" slot.
    pub(crate) fn execute_inner(
        &self,
        query: &Query,
        tenant: Option<u64>,
        mode_override: Option<ExecMode>,
    ) -> Result<(QueryOutcome, Option<TraceId>)> {
        let op = self.operator(&query.table)?;
        query.validate(op.schema().len())?;
        let clock = self.db.disk().clock().clone();
        let mode = mode_override.unwrap_or_else(|| self.exec_mode());
        let started = clock.now();
        let trace_guard = self.begin_trace(
            &op,
            &query.table,
            "query",
            match mode {
                ExecMode::Serial => "serial",
                ExecMode::Parallel => "parallel",
            },
            tenant
                .map(|t| ("tenant", t.to_string()))
                .into_iter()
                .collect(),
        );

        let mut request = ScanRequest {
            projection: query.effective_projection(),
            convert: self.convert_scope(),
            skip_predicate: None,
            cols_mapped: None,
            pushdown: None,
            trace: trace_guard.as_ref().map(|g| g.ctx()),
        };
        if let Some(f) = &query.filter {
            request.skip_predicate = f.extract_range();
            if query.pushdown {
                let pred = f.clone();
                request.pushdown = Some(Arc::new(scanraw::operator::PushdownFilter {
                    columns: f.columns(),
                    select: Arc::new(move |batch: &BinaryChunk| pushdown_rows(&pred, batch)),
                }));
            }
        }
        let range = request.skip_predicate.clone();

        let mut stream = op.scan(request)?;
        let specs = [AggSpec::of(query)];
        let state = self
            .fold_chunks(&op, &mut stream, &specs, range.as_ref(), mode)?
            .pop()
            .expect("one state per spec");
        let rows_scanned = state.rows_seen;
        let rows = state.finish()?;
        let scan = stream.finish()?;
        let trace_id = trace_guard.as_ref().map(|g| g.ctx().trace);
        if let Some(guard) = trace_guard {
            self.end_trace(&op, &query.table, guard);
        }
        let elapsed = clock.now().saturating_sub(started);
        Ok((
            QueryOutcome {
                result: QueryResult {
                    rows,
                    rows_scanned,
                    elapsed,
                },
                scan,
            },
            trace_id,
        ))
    }

    /// Folds the delivered chunks of `stream` through the columnar kernels:
    /// one [`ExecTask`] per chunk, each producing one partial [`AggState`]
    /// per spec, then merges the partials in ascending chunk order
    /// (deterministic float accumulation). Under [`ExecMode::Parallel`] the
    /// tasks go to the operator's worker pool; they run inline on the
    /// calling thread under [`ExecMode::Serial`], when the scan runs without
    /// a pool (`workers = 0`), or when a worker rejects the task during
    /// teardown.
    ///
    /// Also the second chance for min/max chunk skipping: chunks whose
    /// statistics only materialized *during* this scan (first conversion)
    /// are dropped here before any evaluation, counted in
    /// `scanraw.exec.skipped_chunks`.
    fn fold_chunks(
        &self,
        op: &Arc<ScanRaw>,
        stream: &mut ChunkStream,
        specs: &[Arc<AggSpec>],
        range: Option<&RangePredicate>,
        mode: ExecMode,
    ) -> Result<Vec<AggState>> {
        let handle = match mode {
            ExecMode::Parallel => stream.exec_handle(),
            ExecMode::Serial => None,
        };
        // When the query is traced the root span is the engine thread's
        // current context; exec tasks run on pool workers, so the context is
        // captured here and passed into each closure explicitly.
        let query_ctx = scanraw_obs::trace::current();
        let recorder = op.obs().trace.clone();
        let stages = op.stages();
        let parallel_ctr = op.obs().metrics.counter("scanraw.exec.parallel_chunks");
        let skipped_ctr = op.obs().metrics.counter("scanraw.exec.skipped_chunks");
        let table = op.table();
        let entry = match range {
            Some(_) if op.config().chunk_skipping => Some(op.database().catalog().table(table)?),
            _ => None,
        };

        let (res_tx, res_rx) = mpsc::channel::<(u32, Result<Vec<AggState>>)>();
        while let Some(chunk) = stream.next_chunk() {
            if let (Some(pred), Some(entry)) = (range, entry.as_ref()) {
                let e = entry.read();
                if let Some(Some((lo, hi))) = e
                    .stats(chunk.id)
                    .and_then(|stats| stats.bounds.get(pred.column))
                {
                    if !pred.may_overlap(lo, hi) {
                        skipped_ctr.inc();
                        op.obs().event(ObsEvent::ChunkSkipped {
                            chunk: chunk.id.0 as u64,
                        });
                        continue;
                    }
                }
            }
            let specs = specs.to_vec();
            let tx = res_tx.clone();
            let id = chunk.id.0;
            let stages = stages.clone();
            let task: ExecTask = Box::new(move || {
                // The stage ends before the send, so EXEC is recorded by the
                // time the engine has every partial.
                let out = {
                    let _stage = stages.enter_under(
                        query_ctx,
                        Stage::Exec,
                        vec![("chunk", id.to_string()), ("worker", worker_label())],
                    );
                    specs
                        .iter()
                        .map(|s| {
                            let mut st = AggState::new(s.clone());
                            st.consume_chunk(&chunk).map(|()| st)
                        })
                        .collect::<Result<Vec<_>>>()
                };
                // Receiver gone only when the engine already bailed out.
                let _ = tx.send((id, out));
            });
            match &handle {
                Some(h) => {
                    parallel_ctr.inc();
                    if let Err(task) = h.submit(task) {
                        task();
                    }
                }
                None => task(),
            }
        }
        drop(res_tx);
        drop(handle);

        let mut partials: Vec<(u32, Result<Vec<AggState>>)> = Vec::new();
        while let Ok(r) = res_rx.recv() {
            partials.push(r);
        }
        // Ascending chunk order makes the merge — and therefore float
        // accumulation — independent of worker scheduling.
        let _merge_span = query_ctx.map(|ctx| {
            recorder.enter(ctx, "merge", vec![("partials", partials.len().to_string())])
        });
        partials.sort_by_key(|(id, _)| *id);
        let mut merged: Vec<AggState> = specs.iter().map(|s| AggState::new(s.clone())).collect();
        for (_, result) in partials {
            for (m, s) in merged.iter_mut().zip(result?) {
                m.merge(s)?;
            }
        }
        Ok(merged)
    }
}
