//! Differential suite for column-granular loading (PR 10, satellite 3).
//!
//! A table is *partially* loaded — a priming projection query plus the
//! speculative write-back persists only the primed columns' cells — and a
//! seeded stream of projection queries then runs over the resulting mix of
//! db-resident and raw-only cells. Every answer must be bit-identical to a
//! full-reparse oracle: a clean twin device under
//! [`WritePolicy::ExternalTables`], which never touches the database and
//! re-tokenizes/re-parses the raw file for every query.
//!
//! The differential sweeps both [`ExecMode`]s, both hybrid-read settings
//! (including the mixed db-column + raw-reparse delivery of §3.2.1), and —
//! with `--features fault-inject` — 16 seeded fault schedules tearing and
//! failing database writes mid-sweep. A torn write may lose a column cell,
//! but it must never produce a half-loaded cell the catalog claims is
//! loaded, and it must never change an answer.

use scanraw_repro::engine::query::ResultRow;
use scanraw_repro::prelude::*;
use scanraw_repro::rawfile::generate::{stage_csv, CsvSpec};

const COLS: usize = 8;
const ROWS: u64 = 480;
const CHUNK_ROWS: u32 = 60; // → 8 chunks
const QUERIES_PER_SEED: usize = 5;

/// SplitMix64 — deterministic query-stream generation per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A non-empty random column subset, sorted.
    fn col_subset(&mut self) -> Vec<usize> {
        loop {
            let mask = self.below(1 << COLS);
            if mask != 0 {
                return (0..COLS).filter(|c| mask & (1 << c) != 0).collect();
            }
        }
    }
}

/// One seeded projection query: a random aggregate column set, an optional
/// half-selective filter on a random column, and (sometimes) an explicit
/// [`Query::select`] widening the projection beyond the referenced columns.
fn seeded_query(rng: &mut Rng) -> Query {
    let mut q = Query::sum_of_columns("t", rng.col_subset());
    if rng.below(2) == 0 {
        let col = rng.below(COLS as u64) as usize;
        q = q.with_filter(Predicate::between(col, 0i64, 1i64 << 30));
    }
    if rng.below(5) < 2 {
        q = q.select(rng.col_subset());
    }
    q
}

fn register(session: &Session, config: ScanRawConfig) {
    session
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(COLS),
            TextDialect::CSV,
            config.with_chunk_rows(CHUNK_ROWS).with_cache_chunks(3),
        )
        .unwrap();
}

/// The oracle: every query re-parsed from raw text on a clean twin, serial,
/// database never consulted.
fn full_reparse_oracle(spec: &CsvSpec, queries: &[Query]) -> Vec<(Vec<ResultRow>, u64)> {
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", spec);
    let session = Session::open(disk);
    register(
        &session,
        ScanRawConfig::default().with_policy(WritePolicy::ExternalTables),
    );
    queries
        .iter()
        .map(|q| {
            let out = session
                .run(ExecRequest::query(q.clone()).mode(ExecMode::Serial))
                .expect("oracle is fault-free")
                .into_single();
            (out.result.rows, out.result.rows_scanned)
        })
        .collect()
}

/// A session over a *partially loaded* table: one priming projection query
/// on columns {1, 4} under the speculative policy loads exactly those cells.
fn partially_loaded_session(spec: &CsvSpec, hybrid: bool, workers: usize) -> Session {
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", spec);
    let session = Session::open(disk);
    register(
        &session,
        ScanRawConfig::default()
            .with_workers(workers)
            .with_policy(WritePolicy::speculative())
            .with_hybrid_reads(hybrid),
    );
    session
        .run(ExecRequest::query(Query::sum_of_columns("t", [1usize, 4])))
        .expect("priming query")
        .into_single();
    let op = session.engine().operator("t").unwrap();
    op.drain_writes();
    op.cache().clear(); // force db/raw (not cache) delivery in the sweep
    let db = session.engine().database();
    let cells = db.catalog().table("t").unwrap().read().loaded_cell_count();
    assert!(cells > 0, "priming must load some cells");
    assert!(
        !db.fully_loaded("t").unwrap(),
        "table must stay partially loaded: only primed columns persist"
    );
    session
}

#[test]
fn projection_over_partially_loaded_tables_matches_full_reparse() {
    let mut hybrid_chunks = 0usize;
    for seed in 0..8u64 {
        let spec = CsvSpec::new(ROWS, COLS, seed.wrapping_mul(0x9e37_79b9));
        let mut rng = Rng::new(seed);
        let queries: Vec<Query> = (0..QUERIES_PER_SEED)
            .map(|_| seeded_query(&mut rng))
            .collect();
        let oracle = full_reparse_oracle(&spec, &queries);

        for (mode, workers) in [(ExecMode::Serial, 0), (ExecMode::Parallel, 2)] {
            for hybrid in [false, true] {
                let session = partially_loaded_session(&spec, hybrid, workers);
                for (qi, q) in queries.iter().enumerate() {
                    let out = session
                        .run(ExecRequest::query(q.clone()).mode(mode))
                        .unwrap()
                        .into_single();
                    assert_eq!(
                        (out.result.rows, out.result.rows_scanned),
                        oracle[qi],
                        "seed {seed} query {qi} diverged ({mode:?}, hybrid={hybrid})"
                    );
                    if hybrid {
                        hybrid_chunks += out.scan.from_hybrid;
                    } else {
                        assert_eq!(
                            out.scan.from_hybrid, 0,
                            "hybrid delivery requires opting in"
                        );
                    }
                }
            }
        }
    }
    assert!(
        hybrid_chunks > 0,
        "the sweep must exercise mixed db-column + raw-reparse delivery"
    );
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use scanraw_repro::simio::{FaultConfig, FaultPlan};
    use scanraw_repro::types::ChunkId;

    /// Every (chunk, column) cell the catalog marks loaded must read back
    /// through its checksum: torn column stores never fake loading.
    fn assert_loaded_cells_readable(db: &Database) {
        let entry = db.catalog().table("t").unwrap();
        let all: Vec<usize> = (0..COLS).collect();
        let per_chunk: Vec<(u32, Vec<usize>)> = {
            let t = entry.read();
            (0..t.n_chunks() as u32)
                .map(|id| (id, t.loaded_columns(ChunkId(id), &all)))
                .collect()
        };
        for (id, loaded) in per_chunk {
            if !loaded.is_empty() {
                db.load_chunk("t", ChunkId(id), &loaded)
                    .unwrap_or_else(|e| panic!("loaded cell unreadable: chunk {id}: {e}"));
            }
        }
    }

    /// 16 seeded schedules: transient + torn faults on the database region
    /// while projection queries run over a partially loaded, hybrid-reading
    /// table in both exec modes. Faults throttle loading; they never change
    /// answers and never leave a half-written cell marked loaded.
    #[test]
    fn faulted_projection_sweep_stays_oracle_identical_across_16_schedules() {
        for seed in 0..16u64 {
            let spec = CsvSpec::new(ROWS, COLS, seed.wrapping_mul(0x517c_c1b7));
            let mut rng = Rng::new(seed ^ 0xdead_beef);
            let queries: Vec<Query> = (0..QUERIES_PER_SEED)
                .map(|_| seeded_query(&mut rng))
                .collect();
            let oracle = full_reparse_oracle(&spec, &queries);

            let workers = (seed % 3) as usize;
            let mode = if seed % 2 == 0 {
                ExecMode::Serial
            } else {
                ExecMode::Parallel
            };
            let session = partially_loaded_session(&spec, true, workers);
            let disk = session.engine().database().disk().clone();
            disk.set_fault_plan(FaultPlan::new(FaultConfig {
                target: "db/".into(),
                p_transient: 0.25,
                p_torn: 0.25,
                max_consecutive: 3,
                ..FaultConfig::seeded(seed)
            }));
            for (qi, q) in queries.iter().enumerate() {
                let out = session
                    .run(ExecRequest::query(q.clone()).mode(mode))
                    .unwrap_or_else(|e| panic!("seed {seed} query {qi}: {e}"))
                    .into_single();
                assert_eq!(
                    (out.result.rows, out.result.rows_scanned),
                    oracle[qi],
                    "seed {seed} query {qi} diverged under faults"
                );
                session.engine().operator("t").unwrap().drain_writes();
            }
            disk.clear_fault_plan();
            assert_loaded_cells_readable(session.engine().database());
        }
    }
}
