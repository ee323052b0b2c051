//! Per-layer probes of the traced run, each on the workload's own input.
//!
//! Kernel and storage replays run single-threaded on an instant device, so
//! they time host work only. The stream and load-overhead probes run on the
//! paper's device like the workload itself. Every probe calls public
//! functions only and wraps each call in a span of its own.

use crate::common::{
    check_scan, metric, open_table, paper_disk, run_checked, scan_config, Fatal, Metric, RawSpec,
    Tally,
};
use crate::data::{matches, Checked};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use scanraw_repro::core::ScanRequest;
use scanraw_repro::engine::{ServeConfig, Session};
use scanraw_repro::rawfile::{parse_chunk_projected, tokenize_chunk, ChunkReader};
use scanraw_repro::simio::SimDisk;
use scanraw_repro::storage::Database;
use scanraw_repro::types::{BinaryChunk, ColumnData, ScanRawConfig, WritePolicy};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// `ChunkReader::next_chunk`, `tokenize_chunk` and `parse_chunk_projected`
/// replayed over the whole file; returns the parsed chunks for the storage
/// replay.
pub fn rawfile(
    spec: &RawSpec,
    bytes: &[u8],
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<Vec<BinaryChunk>, Fatal> {
    let disk = SimDisk::instant();
    disk.storage().put(spec.file, bytes.to_vec());
    let all: Vec<usize> = (0..spec.schema.len()).collect();
    let (mut chunk_s, mut tok_s, mut parse_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut parsed = Vec::new();
    for _ in 0..REPS {
        let mut reader = ChunkReader::new(disk.clone(), spec.file, spec.chunk_rows)
            .map_err(|e| format!("ChunkReader::new: {e}"))?;
        let mut texts = Vec::new();
        let t = Instant::now();
        while let Some(c) = tr
            .time("rawfile.chunker.next_chunk", || reader.next_chunk())
            .map_err(|e| format!("next_chunk: {e}"))?
        {
            texts.push(c);
        }
        chunk_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut maps = Vec::with_capacity(texts.len());
        for c in &texts {
            let m = tr
                .time("rawfile.tokenize_chunk", || {
                    tokenize_chunk(c, spec.dialect, spec.schema.len())
                })
                .map_err(|e| format!("tokenize_chunk: {e}"))?;
            maps.push(m);
        }
        tok_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        parsed.clear();
        for (c, m) in texts.iter().zip(&maps) {
            let b = tr
                .time("rawfile.parse_chunk_projected", || {
                    parse_chunk_projected(c, m, spec.dialect, &spec.schema, &all)
                })
                .map_err(|e| format!("parse_chunk_projected: {e}"))?;
            parsed.push(b);
        }
        parse_s.push(t.elapsed().as_secs_f64());
    }
    let mib = bytes.len() as f64 / MIB;
    let mfields = (spec.rows * spec.schema.len() as u64) as f64 / 1e6;
    out.push(metric(
        "rawfile.chunker.mib_per_s",
        mib / median(&chunk_s),
        "MiB/s",
    ));
    out.push(metric(
        "rawfile.tokenize.mib_per_s",
        mib / median(&tok_s),
        "MiB/s",
    ));
    out.push(metric(
        "rawfile.parse.mfields_per_s",
        mfields / median(&parse_s),
        "Mfield/s",
    ));
    Ok(parsed)
}

/// `Database::store_chunk` then `Database::load_chunk` over the parsed
/// chunks, each replay on a fresh database.
pub fn storage(
    spec: &RawSpec,
    chunks: &[BinaryChunk],
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), Fatal> {
    let all: Vec<usize> = (0..spec.schema.len()).collect();
    let (mut store_s, mut load_s) = (Vec::new(), Vec::new());
    let mut stored = 0u64;
    for _ in 0..REPS {
        let db = Database::new(SimDisk::instant());
        db.create_table(spec.name, spec.schema.clone(), spec.file)
            .map_err(|e| format!("create_table: {e}"))?;
        let t = Instant::now();
        for c in chunks {
            tr.time("storage.store_chunk", || db.store_chunk(spec.name, c))
                .map_err(|e| format!("store_chunk: {e}"))?;
        }
        store_s.push(t.elapsed().as_secs_f64());
        stored = db.store().stored_bytes(spec.name);

        let t = Instant::now();
        for c in chunks {
            let back = tr
                .time("storage.load_chunk", || {
                    db.load_chunk(spec.name, c.id, &all)
                })
                .map_err(|e| format!("load_chunk: {e}"))?;
            if back.columns != c.columns {
                return Err(format!(
                    "self-check: {:?} read back differs from what was stored",
                    c.id
                ));
            }
        }
        load_s.push(t.elapsed().as_secs_f64());
    }
    let mib = stored as f64 / MIB;
    out.push(metric(
        "storage.store.mib_per_s",
        mib / median(&store_s),
        "MiB/s",
    ));
    out.push(metric(
        "storage.load.mib_per_s",
        mib / median(&load_s),
        "MiB/s",
    ));
    Ok(())
}

/// Drives `Operator::scan` on fresh copies of the file and times the
/// stream: first chunk, and the time the consumer spent blocked in
/// `ChunkStream::next_chunk`. The consumer sums column `check_col` and
/// compares it with `expected_sum`.
#[allow(clippy::too_many_arguments)]
pub fn stream(
    spec: &RawSpec,
    bytes: &[u8],
    cfg: &ScanRawConfig,
    projection: &[usize],
    check_col: usize,
    expected_sum: i64,
    tally: &mut Tally,
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), Fatal> {
    let (mut first_ms, mut wait_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let session = open_table(paper_disk(), spec, bytes.to_vec(), cfg.clone())?;
        let op = session
            .engine()
            .operator(spec.name)
            .map_err(|e| format!("operator: {e}"))?;
        let t0 = Instant::now();
        let mut stream = tr
            .time("core.operator.scan", || {
                op.scan(ScanRequest::all_columns(projection))
            })
            .map_err(|e| format!("scan: {e}"))?;
        let (mut first, mut wait, mut sum) = (None, 0.0, 0i64);
        loop {
            let t = Instant::now();
            let next = tr.time("core.stream.next_chunk", || stream.next_chunk());
            wait += t.elapsed().as_secs_f64();
            let Some(chunk) = next else { break };
            first.get_or_insert_with(|| t0.elapsed().as_secs_f64() * 1e3);
            if let Some(ColumnData::Int64(v)) = &chunk.columns[check_col] {
                sum += v.iter().sum::<i64>();
            }
        }
        let summary = tr
            .time("core.stream.finish", || stream.finish())
            .map_err(|e| format!("finish: {e}"))?;
        check_scan(&summary, spec.chunks())?;
        tally.record("stream_probe", sum == expected_sum, || {
            format!("column {check_col} sums to {sum}, oracle says {expected_sum}")
        });
        tr.time("core.drain_writes", || op.drain_writes());
        first_ms.push(first.unwrap_or(f64::NAN));
        wait_s.push(wait);
    }
    out.push(metric(
        "core.stream.first_chunk_ms",
        median(&first_ms),
        "ms",
    ));
    out.push(metric("core.stream.wait_s", median(&wait_s), "s"));
    Ok(())
}

/// The paper's "loading is free" claim: first-query time under speculative
/// loading over first-query time as an external table, same file, medians
/// of alternating pairs.
pub fn load_overhead(
    spec: &RawSpec,
    bytes: &[u8],
    cfg: &ScanRawConfig,
    first: &Checked,
    tally: &mut Tally,
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), Fatal> {
    let (mut spec_s, mut ext_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for policy in [WritePolicy::speculative(), WritePolicy::ExternalTables] {
            let cfg = cfg.clone().with_policy(policy);
            let session = open_table(paper_disk(), spec, bytes.to_vec(), cfg)?;
            let (secs, _) = run_checked(&session, first, spec.chunks(), tally, tr)?;
            if policy == WritePolicy::ExternalTables {
                ext_s.push(secs);
            } else {
                spec_s.push(secs);
            }
            if let Ok(op) = session.engine().operator(spec.name) {
                op.drain_writes();
            }
        }
    }
    out.push(metric(
        "core.scheduler.load_overhead_ratio",
        median(&spec_s) / median(&ext_s),
        "ratio",
    ));
    Ok(())
}

/// `Session::run` of the workload's cache-served queries on a table that is
/// fully cache-resident; returns the warm session for the serving probe.
pub fn exec(
    spec: &RawSpec,
    bytes: &[u8],
    queries: &[Checked],
    tally: &mut Tally,
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<Arc<Session>, Fatal> {
    let cfg = scan_config(spec.chunk_rows, spec.chunks() + 1);
    let session = open_table(SimDisk::instant(), spec, bytes.to_vec(), cfg)?;
    let warm: Vec<&Checked> = queries.iter().filter(|q| !q.query.pushdown).collect();
    for q in &warm {
        run_checked(&session, q, spec.chunks(), tally, tr)?;
    }
    let mut rows = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.5 {
        for q in &warm {
            run_checked(&session, q, spec.chunks(), tally, tr)?;
            rows += spec.rows;
        }
    }
    out.push(metric(
        "engine.exec.rows_per_s",
        rows as f64 / t.elapsed().as_secs_f64(),
        "rows/s",
    ));
    Ok(Arc::new(session))
}

/// Rounds of the workload's cache-served queries, all submitted at once,
/// through a `Server` with the default configuration: queue wait and
/// shared-scan batching on this workload's own query mix. At least one
/// query must join another's scan, or the probe measured nothing.
pub fn serve_burst(
    session: &Arc<Session>,
    spec: &RawSpec,
    queries: &[Checked],
    tally: &mut Tally,
    tr: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), Fatal> {
    let server = session
        .serve(ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let warm: Vec<&Checked> = queries.iter().filter(|q| !q.query.pushdown).collect();
    let mut waits = Vec::new();
    let mut rejected = 0u64;
    for round in 0..8u64 {
        let t0 = Instant::now();
        let mut tickets = Vec::new();
        for (i, q) in warm.iter().enumerate() {
            match tr.time("engine.serve.submit", || {
                server.submit((round + i as u64) % 4, &q.query)
            }) {
                Ok(t) => tickets.push((q, t)),
                Err(e) => {
                    rejected += 1;
                    tally.record(q.label, false, || e.to_string());
                }
            }
        }
        for (q, ticket) in tickets {
            match tr.time("engine.serve.wait", || ticket.wait()) {
                Ok(o) => {
                    check_scan(&o.scan, spec.chunks())?;
                    let lat = t0.elapsed().as_secs_f64();
                    waits.push((lat - o.result.elapsed.as_secs_f64()).max(0.0) * 1e3);
                    tally.record(q.label, matches(&o.result, &q.expected), || {
                        "served answer differs".into()
                    });
                }
                Err(e) => tally.record(q.label, false, || e.to_string()),
            }
        }
    }
    let c = server.counters();
    server.shutdown();
    // Every dispatch counts its queries in `batched_queries`, a lone query
    // too; the queries beyond the first of each dispatch joined a shared
    // scan.
    let joined = c.batched_queries.saturating_sub(c.batches);
    if joined == 0 {
        return Err(format!(
            "self-check: no query of {} shared a scan ({c:?})",
            c.completed
        ));
    }
    out.push(metric(
        "engine.serve.queue_wait_ms.p50",
        quantile(&waits, 0.5),
        "ms",
    ));
    out.push(metric(
        "engine.serve.queue_wait_ms.p99",
        quantile(&waits, 0.99),
        "ms",
    ));
    out.push(metric(
        "engine.serve.batched_share",
        joined as f64 / c.completed.max(1) as f64,
        "fraction",
    ));
    out.push(metric("engine.serve.rejected", rejected as f64, "count"));
    Ok(())
}
