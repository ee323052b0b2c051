//! Hybrid database+raw column reads (paper §3.2.1): for chunks with only
//! some of the required columns loaded, the loaded columns are read from the
//! database and only the missing ones are converted from the raw file.

use scanraw::{ConvertScope, ScanRaw, ScanRequest};
use scanraw_rawfile::generate::{expected_column_sums, stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_storage::Database;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};
use std::sync::Arc;

const COLS: usize = 4;

/// Builds an operator whose database holds only column 0 of every chunk
/// (projection-only eager load), with an empty cache.
fn partially_loaded(hybrid: bool) -> (Arc<ScanRaw>, CsvSpec) {
    let disk = SimDisk::instant();
    let spec = CsvSpec::new(2000, COLS, 12);
    stage_csv(&disk, "p.csv", &spec);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_cache_chunks(1)
        .with_policy(WritePolicy::Eager)
        .with_hybrid_reads(hybrid);
    let op = ScanRaw::create(
        Database::new(disk),
        "p",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "p.csv",
        cfg,
    )
    .unwrap();
    // Projection-only scan of column 0 under eager loading: every chunk gets
    // exactly column 0 stored.
    let req = ScanRequest {
        projection: vec![0],
        convert: ConvertScope::ProjectionOnly,
        skip_predicate: None,
        cols_mapped: None,
        pushdown: None,
        trace: None,
    };
    op.scan(req).unwrap().finish().unwrap();
    op.drain_writes();
    op.cache().clear();
    (op, spec)
}

fn sums(op: &Arc<ScanRaw>, req: ScanRequest) -> (Vec<i64>, scanraw::ScanSummary) {
    let cols = req.projection.clone();
    let mut stream = op.scan(req).unwrap();
    let mut out = vec![0i64; cols.len()];
    while let Some(chunk) = stream.next_chunk() {
        for (i, &c) in cols.iter().enumerate() {
            if let scanraw_types::ColumnData::Int64(v) = chunk.column(c).unwrap() {
                out[i] += v.iter().sum::<i64>();
            }
        }
    }
    (out, stream.finish().unwrap())
}

#[test]
fn hybrid_merges_database_and_raw_columns() {
    let (op, spec) = partially_loaded(true);
    let expected = expected_column_sums(&spec);
    let req = ScanRequest::projected(vec![0, 2]);
    let (s, summary) = sums(&op, req);
    assert_eq!(s, vec![expected[0], expected[2]]);
    assert_eq!(summary.from_hybrid, 8, "{summary:?}");
    assert_eq!(summary.from_raw, 0, "no full raw conversions needed");
}

#[test]
fn without_hybrid_partial_chunks_go_back_to_raw() {
    let (op, spec) = partially_loaded(false);
    let expected = expected_column_sums(&spec);
    let req = ScanRequest::projected(vec![0, 2]);
    let (s, summary) = sums(&op, req);
    assert_eq!(s, vec![expected[0], expected[2]]);
    assert_eq!(summary.from_hybrid, 0);
    assert_eq!(summary.from_raw, 8);
}

#[test]
fn hybrid_results_are_loadable_and_complete_the_columns() {
    // After a hybrid scan under eager loading, the freshly converted column
    // is stored too — the table's loaded set grows column by column.
    let (op, _) = partially_loaded(true);
    let req = ScanRequest::projected(vec![0, 2]);
    sums(&op, req);
    op.drain_writes();
    let entry = op.database().catalog().table("p").unwrap();
    let entry = entry.read();
    for i in 0..entry.n_chunks() {
        let id = scanraw_types::ChunkId(i as u32);
        assert!(entry.is_loaded(id, &[0, 2]), "chunk {i} incomplete");
    }
    // A follow-up query over {0, 2} is served from the database alone.
    op.cache().clear();
    let (_, summary) = sums(&op, ScanRequest::projected(vec![0, 2]));
    assert_eq!(summary.from_db, 8, "{summary:?}");
}

#[test]
fn hybrid_sequential_mode_works_too() {
    let disk = SimDisk::instant();
    let spec = CsvSpec::new(500, COLS, 3);
    stage_csv(&disk, "s.csv", &spec);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(100)
        .with_workers(0) // sequential regime
        .with_cache_chunks(1)
        .with_policy(WritePolicy::Eager)
        .with_hybrid_reads(true);
    let op = ScanRaw::create(
        Database::new(disk),
        "s",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "s.csv",
        cfg,
    )
    .unwrap();
    let req = ScanRequest {
        projection: vec![1],
        convert: ConvertScope::ProjectionOnly,
        skip_predicate: None,
        cols_mapped: None,
        pushdown: None,
        trace: None,
    };
    op.scan(req).unwrap().finish().unwrap();
    op.drain_writes();
    op.cache().clear();
    let expected = expected_column_sums(&spec);
    let (s, summary) = sums(&op, ScanRequest::projected(vec![1, 3]));
    assert_eq!(s, vec![expected[1], expected[3]]);
    assert_eq!(summary.from_hybrid, 5, "{summary:?}");
}

#[test]
fn pushdown_rejected_when_hybrid_enabled() {
    let (op, _) = partially_loaded(true);
    let req = ScanRequest::projected(vec![0, 2]).with_pushdown(scanraw::PushdownFilter {
        columns: vec![0],
        select: Arc::new(|batch| (0..batch.rows).collect()),
    });
    assert!(op.scan(req).is_err());
}
