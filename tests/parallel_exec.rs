//! Differential suite for chunk-parallel query execution.
//!
//! Every test runs the same workload through [`ExecMode::Serial`] (the
//! columnar kernels run inline on the querying thread) and
//! [`ExecMode::Parallel`] (the same kernels fanned out to the conversion
//! worker pool, partials merged in ascending chunk order) and asserts
//! identical answers — rows, grouping, and `rows_scanned`. The seeded
//! workloads and the SAM LIKE/group-by case also check a third, independent
//! arm: the generated raw text parsed by `rawfile::parse::reference` and
//! folded row by row by `engine::reference`. Elapsed times are execution
//! artifacts and are not compared. All data is integer-valued so float
//! aggregates (AVG promotes to f64) are exact under any summation order
//! below 2^53; determinism of the merge order itself is exercised
//! separately by the repeated-run stress case.

use scanraw_repro::engine::predicate::CmpOp;
use scanraw_repro::engine::query::ResultRow;
use scanraw_repro::engine::reference;
use scanraw_repro::prelude::*;
use scanraw_repro::rawfile::generate::{csv_bytes, stage_csv, CsvSpec};
use scanraw_repro::rawfile::parse::reference::parse_rows;
use scanraw_repro::types::Error;

fn engine_for(disk: &SimDisk, cols: usize, config: ScanRawConfig, mode: ExecMode) -> Engine {
    let engine = Engine::new(Database::new(disk.clone()));
    engine.set_exec_mode(mode);
    engine
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(cols),
            TextDialect::CSV,
            config,
        )
        .unwrap();
    engine
}

/// Every row of `text`, parsed by the reference parser.
fn reference_rows(text: &[u8], dialect: TextDialect, schema: &Schema) -> Vec<Vec<Value>> {
    let text = std::str::from_utf8(text).expect("generated text is UTF-8");
    let all: Vec<usize> = (0..schema.len()).collect();
    parse_rows(text, dialect, schema, &all).expect("reference parse")
}

/// The row-wise oracle's answer to `query` over `rows`.
fn reference_answer(rows: &[Vec<Value>], query: &Query) -> (Vec<ResultRow>, u64) {
    reference::fold(query, rows.iter().map(Vec::as_slice)).expect("reference fold")
}

/// Runs each query through a fresh serial engine and a fresh parallel engine
/// over twin instant disks staged with the same file, asserting rows and row
/// counts identical to each other and to the row-wise reference,
/// query-by-query (and across the repeat, so cache/db delivery regimes are
/// covered too).
fn assert_modes_agree(spec: &CsvSpec, cols: usize, config: &ScanRawConfig, queries: &[Query]) {
    let runs: Vec<Vec<(Vec<ResultRow>, u64)>> = [ExecMode::Serial, ExecMode::Parallel]
        .into_iter()
        .map(|mode| {
            let disk = SimDisk::instant();
            stage_csv(&disk, "t.csv", spec);
            let engine = engine_for(&disk, cols, config.clone(), mode);
            queries
                .iter()
                .flat_map(|q| {
                    // Twice per query: first raw/streaming, then cache/db.
                    (0..2).map(|_| {
                        let out = engine.execute(q).expect("query runs");
                        (out.result.rows, out.result.rows_scanned)
                    })
                })
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "serial and parallel answers diverged");
    let rows = reference_rows(&csv_bytes(spec), TextDialect::CSV, &spec.schema());
    let oracle: Vec<(Vec<ResultRow>, u64)> = queries
        .iter()
        .flat_map(|q| {
            let answer = reference_answer(&rows, q);
            [answer.clone(), answer]
        })
        .collect();
    assert_eq!(
        runs[0], oracle,
        "engine answers diverged from the reference"
    );
}

fn seeded_queries(cols: usize, seed: u64) -> Vec<Query> {
    vec![
        // The paper's micro-benchmark: SUM over all columns.
        Query::sum_of_columns("t", 0..cols),
        // Range filter (drives chunk skipping) + several aggregate kinds.
        Query {
            table: "t".into(),
            filter: Some(Predicate::between(
                0,
                1i64 << 20,
                (1i64 << 30) + (seed as i64) * 1_000_003,
            )),
            group_by: vec![],
            aggregates: vec![
                AggExpr::count(),
                AggExpr::sum(Expr::col(1)),
                AggExpr::min(Expr::col(2)),
                AggExpr::max(Expr::col(2)),
                AggExpr::avg(Expr::col(1)),
            ],
            pushdown: false,
            projection: None,
        },
        // Group by a column while aggregating another.
        Query {
            table: "t".into(),
            filter: Some(Predicate::between(1, 0i64, i64::MAX)),
            group_by: vec![Col(cols - 1)],
            aggregates: vec![AggExpr::count(), AggExpr::sum(Expr::col(0))],
            pushdown: false,
            projection: None,
        },
    ]
}

#[test]
fn serial_and_parallel_agree_on_seeded_workloads() {
    for seed in 0..6u64 {
        let cols = 3 + (seed % 3) as usize;
        let rows = 2_000 + (seed % 4) * 777;
        let spec = CsvSpec::new(rows, cols, seed.wrapping_mul(0x9e37_79b9).max(1));
        let config = ScanRawConfig::default()
            .with_chunk_rows(200 + (seed % 3) as u32 * 130)
            .with_workers((seed % 4) as usize) // includes the no-pool regime
            .with_policy(WritePolicy::speculative());
        assert_modes_agree(&spec, cols, &config, &seeded_queries(cols, seed));
    }
}

#[test]
fn pushdown_agrees_across_modes() {
    let cols = 4;
    let spec = CsvSpec::new(3_000, cols, 41);
    let config = ScanRawConfig::default()
        .with_chunk_rows(500)
        .with_workers(3);
    let q = Query::sum_of_columns("t", 0..cols)
        .with_filter(Predicate::between(0, 0i64, 1i64 << 29))
        .with_pushdown();
    assert_modes_agree(&spec, cols, &config, &[q]);
}

/// A push-down predicate that errors on some rows fails the query with the
/// same typed error as the plan without push-down, in both modes: push-down
/// keeps every row of a chunk its selection fails on, so the post-scan
/// filter raises the error instead of rows silently disappearing.
#[test]
fn pushdown_eval_error_fails_like_the_plan_without_pushdown() {
    let cols = 3;
    let spec = CsvSpec::new(2_000, cols, 17);
    let config = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2);
    // `c0 * 2^33` overflows i64 exactly when c0 >= 2^30: about half the rows.
    let overflowing = Predicate::Cmp(
        Expr::Mul(Box::new(Expr::col(0)), Box::new(Expr::lit(1i64 << 33))),
        CmpOp::Gt,
        Expr::lit(0i64),
    );
    let plain = Query::sum_of_columns("t", 0..cols).with_filter(overflowing);
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let errors: Vec<Error> = [plain.clone(), plain.clone().with_pushdown()]
            .iter()
            .map(|q| {
                let disk = SimDisk::instant();
                stage_csv(&disk, "t.csv", &spec);
                let engine = engine_for(&disk, cols, config.clone(), mode);
                engine.execute(q).expect_err("the predicate overflows")
            })
            .collect();
        assert!(
            matches!(&errors[0], Error::Query(m) if m.contains("integer overflow")),
            "{mode:?}: {:?}",
            errors[0]
        );
        assert_eq!(
            errors[0], errors[1],
            "{mode:?}: push-down changed the error"
        );
    }
}

/// A push-down predicate that errors on no row answers exactly like the
/// plan without push-down (and the reference), in both modes.
#[test]
fn pushdown_without_eval_errors_matches_the_plan_without_pushdown() {
    let cols = 4;
    let spec = CsvSpec::new(3_000, cols, 29);
    let config = ScanRawConfig::default()
        .with_chunk_rows(400)
        .with_workers(2);
    // Exercises every combinator; `c0 * 2` cannot overflow on 31-bit data.
    let filter = Predicate::And(
        Box::new(Predicate::Or(
            Box::new(Predicate::Cmp(
                Expr::Mul(Box::new(Expr::col(0)), Box::new(Expr::lit(2i64))),
                CmpOp::Lt,
                Expr::lit(1i64 << 30),
            )),
            Box::new(Predicate::like(1, "%")),
        )),
        Box::new(Predicate::Not(Box::new(Predicate::Cmp(
            Expr::col(2),
            CmpOp::Ge,
            Expr::lit(3i64 << 29),
        )))),
    );
    let plain = Query {
        table: "t".into(),
        filter: Some(filter),
        group_by: vec![],
        aggregates: vec![AggExpr::count(), AggExpr::sum(Expr::col(3))],
        pushdown: false,
        projection: None,
    };
    assert_modes_agree(
        &spec,
        cols,
        &config,
        &[plain.clone(), plain.with_pushdown()],
    );
}

#[test]
fn parallel_group_by_with_like_predicate_agrees() {
    use scanraw_repro::rawfile::sam::{field, sam_bytes, sam_schema, stage_sam, SamSpec};
    let spec = SamSpec {
        reads: 4_000,
        seed: 9,
        read_len: 60,
        ref_len: 1_000_000,
    };
    let query = Query {
        table: "reads".into(),
        filter: Some(Predicate::And(
            Box::new(Predicate::like(field::SEQ, "%ACGT%")),
            Box::new(Predicate::between(field::POS, 1i64, 600_000i64)),
        )),
        group_by: vec![Col(field::CIGAR)],
        aggregates: vec![AggExpr::count()],
        pushdown: false,
        projection: None,
    };
    let mut answers = Vec::new();
    let mut text = Vec::new();
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let disk = SimDisk::instant();
        let (reads, _) = stage_sam(&disk, "r.sam", &spec);
        text = sam_bytes(&reads);
        let engine = Engine::new(Database::new(disk.clone()));
        engine.set_exec_mode(mode);
        engine
            .register_table(
                "reads",
                "r.sam",
                sam_schema(),
                TextDialect::TSV,
                ScanRawConfig::default()
                    .with_chunk_rows(512)
                    .with_workers(4),
            )
            .unwrap();
        let out = engine.execute(&query).unwrap();
        assert!(
            out.result.rows_scanned > 0,
            "predicate must match something"
        );
        answers.push((out.result.rows, out.result.rows_scanned));
    }
    assert_eq!(answers[0], answers[1]);
    let rows = reference_rows(&text, TextDialect::TSV, &sam_schema());
    assert_eq!(answers[0], reference_answer(&rows, &query));
}

/// Merge determinism under schedule stress: the same parallel query repeated
/// on fresh engines must yield bit-for-bit identical rows every time, even
/// for order-sensitive float aggregates (AVG), because partials are merged
/// in ascending chunk order regardless of which worker finished first.
#[test]
fn parallel_merge_is_deterministic_across_runs() {
    let cols = 4;
    let spec = CsvSpec::new(5_000, cols, 1234);
    let query = Query {
        table: "t".into(),
        filter: Some(Predicate::between(0, 0i64, 1i64 << 30)),
        group_by: vec![Col(3)],
        aggregates: vec![AggExpr::avg(Expr::col(1)), AggExpr::sum(Expr::col(2))],
        pushdown: false,
        projection: None,
    };
    let mut reference: Option<(Vec<ResultRow>, u64)> = None;
    for _ in 0..20 {
        let disk = SimDisk::instant();
        stage_csv(&disk, "t.csv", &spec);
        let engine = engine_for(
            &disk,
            cols,
            ScanRawConfig::default()
                .with_chunk_rows(250)
                .with_workers(4),
            ExecMode::Parallel,
        );
        let out = engine.execute(&query).unwrap();
        let got = (out.result.rows, out.result.rows_scanned);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(*r, got, "parallel run diverged across repeats"),
        }
    }
}

/// The parallel path actually runs on the pool (the `parallel_chunks`
/// counter moves) and exec-level min/max skipping composes with plan-time
/// skipping without changing answers.
#[test]
fn parallel_chunks_counter_and_skipping() {
    let disk = SimDisk::instant();
    // Clustered first column: chunk i holds [i*10_000, i*10_000 + rows).
    let chunks = 8i64;
    let rows_per_chunk = 1_000i64;
    let mut text = String::new();
    for c in 0..chunks {
        for r in 0..rows_per_chunk {
            let key = c * 10_000 + r;
            text.push_str(&format!("{key},{},{}\n", key % 97, key % 7));
        }
    }
    disk.storage().put("t.csv", text.into_bytes());
    let engine = Engine::new(Database::new(disk.clone()));
    engine.set_exec_mode(ExecMode::Parallel);
    engine
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(3),
            TextDialect::CSV,
            ScanRawConfig::default()
                .with_chunk_rows(rows_per_chunk as u32)
                .with_workers(4),
        )
        .unwrap();
    let narrow =
        Query::sum_of_columns("t", [0, 2]).with_filter(Predicate::between(0, 30_000i64, 30_999i64));

    // First scan streams the whole file (layout unknown): every delivered
    // chunk is either submitted to the pool or exec-level skipped.
    let out = engine.execute(&narrow).unwrap();
    assert_eq!(out.result.rows_scanned, rows_per_chunk as u64);
    let op = engine.operator("t").unwrap();
    let submitted = op
        .obs()
        .metrics
        .counter_value("scanraw.exec.parallel_chunks")
        .unwrap_or(0);
    let exec_skipped = op
        .obs()
        .metrics
        .counter_value("scanraw.exec.skipped_chunks")
        .unwrap_or(0);
    assert!(submitted > 0, "no chunk went through the parallel path");
    assert_eq!(
        submitted + exec_skipped,
        chunks as u64,
        "every chunk of the streaming scan is either executed or skipped"
    );

    // Second scan plans from the catalog: min/max statistics now exist, so
    // plan-time skipping drops the non-matching chunks and the answer is
    // unchanged.
    let again = engine.execute(&narrow).unwrap();
    assert_eq!(again.result.rows, out.result.rows);
    assert_eq!(again.scan.skipped as i64, chunks - 1);
}

/// Typed query validation rejects malformed queries before any scan work.
#[test]
fn invalid_queries_fail_typed_and_early() {
    use scanraw_repro::types::Error;
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", &CsvSpec::new(100, 3, 5));
    let engine = engine_for(
        &disk,
        3,
        ScanRawConfig::default().with_chunk_rows(50),
        ExecMode::Parallel,
    );
    // Out-of-range column.
    let q = Query::sum_of_columns("t", [7]);
    match engine.execute(&q) {
        Err(Error::InvalidQuery(m)) => assert!(m.contains("column 7"), "{m}"),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    // Empty aggregate list is unrepresentable through the builder.
    match Query::builder("t").build() {
        Err(Error::InvalidQuery(m)) => assert!(m.contains("no aggregates"), "{m}"),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
}

/// Shared scans fan out once and each consumer merges its own partials;
/// parallel and serial shared execution agree, and per-query durations are
/// measured per query (attach-to-finish), not copied from the batch start.
#[test]
fn shared_scan_agrees_across_modes() {
    let cols = 5;
    let spec = CsvSpec::new(4_000, cols, 99);
    let queries = vec![
        Query::sum_of_columns("t", 0..cols),
        Query {
            table: "t".into(),
            filter: Some(Predicate::between(0, 0i64, 1i64 << 29)),
            group_by: vec![],
            aggregates: vec![AggExpr::count(), AggExpr::avg(Expr::col(1))],
            pushdown: false,
            projection: None,
        },
        Query {
            table: "t".into(),
            filter: None,
            group_by: vec![Col(4)],
            aggregates: vec![AggExpr::min(Expr::col(2)), AggExpr::max(Expr::col(2))],
            pushdown: false,
            projection: None,
        },
    ];
    let mut answers = Vec::new();
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let disk = SimDisk::instant();
        stage_csv(&disk, "t.csv", &spec);
        let engine = engine_for(
            &disk,
            cols,
            ScanRawConfig::default()
                .with_chunk_rows(400)
                .with_workers(4),
            mode,
        );
        let outcomes = engine.execute_shared(&queries).unwrap();
        answers.push(
            outcomes
                .iter()
                .map(|o| (o.result.rows.clone(), o.result.rows_scanned))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(answers[0], answers[1]);
}

/// Under fault injection, parallel execution returns the same answers as
/// serial execution on the same faulty device schedule — faults may change
/// performance and chunk sources, never results.
#[cfg(feature = "fault-inject")]
#[test]
fn parallel_matches_serial_under_fault_schedules() {
    use scanraw_repro::simio::{FaultConfig, FaultPlan};
    for seed in 0..16u64 {
        let cols = 3;
        let spec = CsvSpec::new(600, cols, seed.max(1));
        let config = ScanRawConfig::default()
            .with_chunk_rows(60)
            .with_workers((seed % 3) as usize)
            .with_policy(WritePolicy::speculative());
        let fault = FaultConfig {
            p_transient: 0.25,
            max_consecutive: 3,
            ..FaultConfig::seeded(seed)
        };
        let queries = seeded_queries(cols, seed);
        let mut answers = Vec::new();
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let disk = SimDisk::instant();
            stage_csv(&disk, "t.csv", &spec);
            disk.set_fault_plan(FaultPlan::new(fault.clone()));
            let engine = engine_for(&disk, cols, config.clone(), mode);
            answers.push(
                queries
                    .iter()
                    .map(|q| {
                        let out = engine.execute(q).expect("retries absorb transients");
                        (out.result.rows, out.result.rows_scanned)
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(answers[0], answers[1], "seed {seed} diverged");
    }
}
