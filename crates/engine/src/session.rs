//! [`Session`] — the high-level entry point for querying raw files.
//!
//! A session owns one engine over one simulated disk/database and exposes
//! the whole register → query → inspect → recover lifecycle through a
//! single type, so typical programs never touch [`Engine`], the operator
//! registry, or the database plumbing directly. [`Engine`] remains public
//! as the low-level API for callers that need to reach the operator layer
//! (custom convert scopes, direct registry access).
//!
//! ```no_run
//! use scanraw_engine::{ExecRequest, Query, Session};
//! use scanraw_rawfile::TextDialect;
//! use scanraw_simio::SimDisk;
//! use scanraw_types::{ScanRawConfig, Schema};
//!
//! let session = Session::open(SimDisk::instant());
//! session
//!     .register_table(
//!         "t",
//!         "data.csv",
//!         Schema::uniform_ints(4),
//!         TextDialect::CSV,
//!         ScanRawConfig::default(),
//!     )
//!     .unwrap();
//! let outcome = session
//!     .run(ExecRequest::query(Query::sum_of_columns("t", 0..4)))
//!     .unwrap()
//!     .into_single();
//! println!("{:?}", outcome.result.scalar());
//! ```

use crate::executor::{AnalyzeReport, Engine, ExecMode, ExplainReport, QueryOutcome};
use crate::expr::Col;
use crate::query::Query;
use crate::serve::{ServeConfig, Server};
use scanraw_obs::QueryTrace;
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_storage::{Database, RecoveryReport};
use scanraw_types::{Error, Result, ScanRawConfig, Schema};
use std::sync::Arc;

/// One execution request: a single query or a shared-scan batch, plus how to
/// run it — per-request exec-mode override, tracing, widened projection.
/// Build a request, hand it to [`Session::run`].
///
/// ```ignore
/// let out = session.run(
///     ExecRequest::query(q).traced().mode(ExecMode::Serial),
/// )?;
/// ```
#[derive(Debug, Clone)]
pub struct ExecRequest {
    queries: Vec<Query>,
    shared: bool,
    traced: bool,
    mode: Option<ExecMode>,
}

impl ExecRequest {
    /// A request running one query on its own scan.
    pub fn query(q: Query) -> Self {
        ExecRequest {
            queries: vec![q],
            shared: false,
            traced: false,
            mode: None,
        }
    }

    /// A request answering a batch of same-table queries with one shared
    /// scan (see [`Engine::execute_shared`] for the restrictions).
    pub fn batch(queries: impl IntoIterator<Item = Query>) -> Self {
        ExecRequest {
            queries: queries.into_iter().collect(),
            shared: true,
            traced: false,
            mode: None,
        }
    }

    /// Collect the causal span tree(s) the request mints. [`Session::run`]
    /// then fails when tracing is disabled on the table's recorder.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Override where this request folds its chunks (see [`ExecMode`]); the
    /// session default applies otherwise.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Set an explicit projection on every query in the request (see
    /// [`Query::select`]): the scan materializes these columns in addition
    /// to the referenced ones, pre-heating them for speculative loading.
    pub fn select(mut self, cols: impl IntoIterator<Item = impl Into<Col>>) -> Self {
        let cols: Vec<Col> = cols.into_iter().map(Into::into).collect();
        for q in &mut self.queries {
            q.projection = Some(cols.clone());
        }
        self
    }
}

/// What [`Session::run`] produced: one [`QueryOutcome`] per query in the
/// request, with span trees alongside when the request was
/// [`ExecRequest::traced`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One outcome per query, in request order.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-query span trees, parallel to `outcomes`; `None` entries unless
    /// the request was traced.
    pub query_traces: Vec<Option<QueryTrace>>,
    /// The carrier trace of a traced shared batch (scan/exec/merge spans);
    /// `None` for single queries and untraced batches.
    pub batch_trace: Option<QueryTrace>,
}

impl ExecOutcome {
    /// The only outcome of a single-query request.
    ///
    /// # Panics
    ///
    /// Panics when called on the outcome of a multi-query batch.
    pub fn into_single(mut self) -> QueryOutcome {
        assert_eq!(
            self.outcomes.len(),
            1,
            "into_single on a {}-query outcome",
            self.outcomes.len()
        );
        self.outcomes.pop().expect("one outcome")
    }

    /// The span tree of a traced single-query request.
    pub fn into_traced_single(mut self) -> (QueryOutcome, QueryTrace) {
        assert_eq!(self.outcomes.len(), 1, "into_traced_single on a batch");
        let outcome = self.outcomes.pop().expect("one outcome");
        let trace = self
            .query_traces
            .pop()
            .flatten()
            .expect("request was not traced");
        (outcome, trace)
    }
}

/// High-level query session: the single public entry point wrapping engine
/// construction, table registration, execution, plan inspection, and crash
/// recovery.
///
/// A session is `Send + Sync`: every piece of engine state (catalog, chunk
/// cache, loaded bitmaps, operator registry, exec mode) is interior-mutable
/// behind its own lock, so one session can be shared across threads in an
/// [`Arc`] and queried concurrently — or put behind a [`Server`] (see
/// [`Session::serve`]) for admission control, per-tenant fairness, and
/// automatic shared-scan batching.
pub struct Session {
    engine: Engine,
}

// The whole point of the serving layer: one session, many threads. A
// compile-time check so a non-Sync field can never sneak back in.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Session>();
};

impl Session {
    /// Opens a session over a fresh database on the given disk.
    pub fn open(disk: SimDisk) -> Self {
        Session::new(Database::new(disk))
    }

    /// Opens a session over an existing database (e.g. after a simulated
    /// restart, before calling [`Session::recover_table`]).
    pub fn new(db: Database) -> Self {
        Session {
            engine: Engine::new(db),
        }
    }

    /// Switches where queries fold their chunks (parallel by default);
    /// chainable at construction time.
    pub fn with_exec_mode(self, mode: ExecMode) -> Self {
        self.engine.set_exec_mode(mode);
        self
    }

    /// Switches where queries that start from now on fold their chunks.
    /// Safe on a shared session: each in-flight query keeps the mode it
    /// sampled at entry.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        self.engine.set_exec_mode(mode);
    }

    /// Where queries currently fold their chunks.
    pub fn exec_mode(&self) -> ExecMode {
        self.engine.exec_mode()
    }

    /// Starts a serving front over this session: bounded admission,
    /// round-robin tenant fairness, and shared-scan batching. See
    /// [`crate::serve`].
    pub fn serve(self: &Arc<Self>, config: ServeConfig) -> Result<Server> {
        Server::start(Arc::clone(self), config)
    }

    /// Registers a raw file as a queryable table.
    ///
    /// # Errors
    ///
    /// Fails on an invalid configuration or a duplicate table name.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        raw_file: impl Into<String>,
        schema: Schema,
        dialect: TextDialect,
        config: ScanRawConfig,
    ) -> Result<()> {
        self.engine
            .register_table(name, raw_file, schema, dialect, config)
    }

    /// Runs an [`ExecRequest`]: one query or a shared-scan batch, with
    /// per-request exec-mode, tracing, and projection options. This is the
    /// session's single execution entry point.
    ///
    /// # Errors
    ///
    /// Fails when any query fails validation or execution, when the request
    /// holds no query, or when it is [`ExecRequest::traced`] but tracing is
    /// disabled on the table's span recorder
    /// (`op.obs().trace.set_enabled(false)`).
    pub fn run(&self, req: ExecRequest) -> Result<ExecOutcome> {
        let ExecRequest {
            queries,
            shared,
            traced,
            mode,
        } = req;
        if shared {
            let out = self
                .engine
                .execute_shared_inner(&queries, None, None, mode)?;
            if !traced {
                let n = out.outcomes.len();
                return Ok(ExecOutcome {
                    outcomes: out.outcomes,
                    query_traces: vec![None; n],
                    batch_trace: None,
                });
            }
            let table = &queries.first().expect("batch validated non-empty").table;
            let op = self.engine.operator(table)?;
            if out.batch_trace.is_none() {
                return Err(Error::query("tracing is disabled on this table's recorder"));
            }
            // Pending write-backs would leave open spans in the trees.
            op.drain_writes();
            Ok(ExecOutcome {
                query_traces: out
                    .query_traces
                    .iter()
                    .map(|t| t.map(|t| op.obs().trace.trace(t)))
                    .collect(),
                batch_trace: out.batch_trace.map(|t| op.obs().trace.trace(t)),
                outcomes: out.outcomes,
            })
        } else {
            let query = queries
                .into_iter()
                .next()
                .ok_or_else(|| Error::query("ExecRequest holds no query"))?;
            // The trace id travels back with the outcome (instead of reading
            // the engine-wide "last trace" slot) so concurrent callers on a
            // shared session always get their *own* span tree.
            let (outcome, trace_id) = self.engine.execute_inner(&query, None, mode)?;
            let query_traces = if traced {
                let trace_id = trace_id
                    .ok_or_else(|| Error::query("tracing is disabled on this table's recorder"))?;
                let op = self.engine.operator(&query.table)?;
                op.drain_writes();
                vec![Some(op.obs().trace.trace(trace_id))]
            } else {
                vec![None]
            };
            Ok(ExecOutcome {
                outcomes: vec![outcome],
                query_traces,
                batch_trace: None,
            })
        }
    }

    /// The span tree of the most recently completed traced query, or `None`
    /// when no traced query has run. Drains `table`'s pending write-backs
    /// first so late `write.chunk` spans are closed in the returned tree.
    pub fn last_trace(&self, table: &str) -> Option<QueryTrace> {
        if let Ok(op) = self.engine.operator(table) {
            op.drain_writes();
        }
        self.engine.last_query_trace()
    }

    /// Explains a query without running it. See [`Engine::explain`].
    pub fn explain(&self, query: &Query) -> Result<ExplainReport> {
        self.engine.explain(query)
    }

    /// `EXPLAIN ANALYZE`: runs the query and reports plan vs. observed
    /// behaviour. See [`Engine::explain_analyze`].
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzeReport> {
        self.engine.explain_analyze(query)
    }

    /// Rebuilds a table's loaded state from its commit log after a simulated
    /// crash. See [`Engine::recover_table`].
    pub fn recover_table(&self, table: &str) -> Result<RecoveryReport> {
        self.engine.recover_table(table)
    }

    /// The underlying low-level engine, for operator/registry access.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The database the session runs over.
    pub fn database(&self) -> &Database {
        self.engine.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_rawfile::generate::{stage_csv, CsvSpec};
    use scanraw_types::Value;

    #[test]
    fn session_lifecycle() {
        let disk = SimDisk::instant();
        let spec = CsvSpec::new(1_000, 3, 7);
        stage_csv(&disk, "t.csv", &spec);
        let session = Session::open(disk);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(3),
                TextDialect::CSV,
                ScanRawConfig::default().with_chunk_rows(200),
            )
            .unwrap();
        let q = Query::sum_of_columns("t", 0..3);
        let explain = session.explain(&q).unwrap();
        assert_eq!(explain.projection, vec![0, 1, 2]);
        let outcome = session.run(ExecRequest::query(q)).unwrap().into_single();
        assert_eq!(outcome.result.rows_scanned, 1_000);
        assert!(matches!(outcome.result.scalar(), Some(Value::Int(_))));
    }

    #[test]
    fn batches_and_mode_overrides_agree_with_run() {
        let disk = SimDisk::instant();
        stage_csv(&disk, "t.csv", &CsvSpec::new(500, 2, 3));
        let session = Session::open(disk);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(2),
                TextDialect::CSV,
                ScanRawConfig::default().with_chunk_rows(100),
            )
            .unwrap();
        let q = Query::sum_of_columns("t", 0..2);
        let via_run = session
            .run(ExecRequest::query(q.clone()))
            .unwrap()
            .into_single();
        let batch = session
            .run(ExecRequest::batch(vec![q.clone(), q.clone()]))
            .unwrap();
        assert_eq!(batch.outcomes.len(), 2);
        assert_eq!(batch.outcomes[0].result.rows, via_run.result.rows);
        // Per-request mode override answers identically.
        let serial = session
            .run(ExecRequest::query(q).mode(ExecMode::Serial))
            .unwrap()
            .into_single();
        assert_eq!(serial.result.rows, via_run.result.rows);
    }

    #[test]
    fn session_exec_mode_toggle() {
        let session = Session::open(SimDisk::instant()).with_exec_mode(ExecMode::Serial);
        assert_eq!(session.exec_mode(), ExecMode::Serial);
    }
}
