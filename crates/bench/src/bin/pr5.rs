//! PR5 — serial vs parallel consumer-side query execution.
//!
//! Two workloads, each run once per [`ExecMode`]:
//!
//! * **warm CPU-bound** (Figure 5 regime): a wide integer table whose chunks
//!   are fully resident in the binary cache after a warm-up scan, queried
//!   with a filter plus a fat aggregate list. Delivery is nearly free, so
//!   the run measures consumer-side evaluation — the columnar kernels run
//!   inline on the querying thread against the same kernels fanned out
//!   chunk-parallel over the worker pool.
//! * **cold first scan** (Figure 4 regime): a fresh file converted on the
//!   fly, where TOKENIZE/PARSE shares the worker pool with EXEC and the
//!   question is whether overlapping execution with conversion pays off.
//!
//! Timings use `std::time::Instant` (host wall clock) because the simulated
//! device clock is free to be instantaneous. Results land in
//! `BENCH_PR5.json` at the working directory (the `cargo xtask bench`
//! entry point runs this from the workspace root) and, for convention with
//! the figure benches, in `results/BENCH_PR5.json`.
//!
//! ```sh
//! cargo xtask bench            # full run
//! cargo xtask bench --smoke    # small sizes for CI
//! ```

use scanraw_bench::{env_u64, print_table, write_json};
use scanraw_engine::{AggExpr, ExecMode, ExecRequest, Expr, Predicate, Query, Session};
use scanraw_obs::Value as JsonValue;
use scanraw_rawfile::generate::{stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};
use std::time::Instant;

struct Workload {
    rows: u64,
    cols: usize,
    chunk_rows: u32,
    workers: usize,
    runs: usize,
}

struct ModeStats {
    best_secs: f64,
    rows_per_sec: f64,
    cache_hit_rate: Option<f64>,
    parallel_chunks: u64,
}

/// The CPU-bound query: a pass-everything range filter (evaluated per row
/// serially, per column slice in parallel mode) plus an aggregate per
/// column and a few extras, so consumer-side evaluation dominates.
fn cpu_bound_query(table: &str, cols: usize) -> Query {
    let mut aggregates: Vec<AggExpr> = (0..cols).map(|c| AggExpr::sum(Expr::col(c))).collect();
    aggregates.push(AggExpr::count());
    aggregates.push(AggExpr::avg(Expr::sum_of_columns([0, cols - 1])));
    aggregates.push(AggExpr::min(Expr::col(1)));
    aggregates.push(AggExpr::max(Expr::col(1)));
    Query {
        table: table.into(),
        filter: Some(Predicate::between(0, i64::MIN / 4, i64::MAX / 4)),
        group_by: vec![],
        aggregates,
        pushdown: false,
        projection: None,
    }
}

fn session_for(disk: &SimDisk, w: &Workload, mode: ExecMode) -> Session {
    let chunks = w.rows.div_ceil(w.chunk_rows as u64) as usize;
    let session = Session::open(disk.clone()).with_exec_mode(mode);
    session
        .register_table(
            "wide",
            "wide.csv",
            Schema::uniform_ints(w.cols),
            TextDialect::CSV,
            ScanRawConfig::default()
                .with_chunk_rows(w.chunk_rows)
                .with_workers(w.workers)
                .with_cache_chunks(chunks + 1)
                .with_policy(WritePolicy::speculative()),
        )
        .expect("register");
    session
}

/// Warm regime: warm the cache with one scan, then time `runs` repetitions
/// and keep the best.
fn run_warm(w: &Workload, mode: ExecMode) -> ModeStats {
    let disk = SimDisk::instant();
    let spec = CsvSpec::new(w.rows, w.cols, 5151);
    stage_csv(&disk, "wide.csv", &spec);
    let session = session_for(&disk, w, mode);
    let query = cpu_bound_query("wide", w.cols);
    let warm = session
        .run(ExecRequest::query(query.clone()))
        .expect("warm-up scan")
        .into_single();
    assert_eq!(warm.result.rows_scanned, w.rows, "warm-up scans every row");

    let mut best = f64::INFINITY;
    let mut expected = None;
    for _ in 0..w.runs {
        let t0 = Instant::now();
        let out = session
            .run(ExecRequest::query(query.clone()))
            .expect("warm query")
            .into_single();
        best = best.min(t0.elapsed().as_secs_f64());
        let scalars = out.result.rows[0].aggregates.clone();
        if let Some(prev) = &expected {
            assert_eq!(prev, &scalars, "warm runs must agree");
        }
        expected = Some(scalars);
    }

    let op = session.engine().operator("wide").expect("operator");
    let counters = op.cache().counters();
    let hit_rate = if counters.hits + counters.misses > 0 {
        Some(counters.hits as f64 / (counters.hits + counters.misses) as f64)
    } else {
        None
    };
    let parallel_chunks = op
        .obs()
        .metrics
        .counter_value("scanraw.exec.parallel_chunks")
        .unwrap_or(0);
    ModeStats {
        best_secs: best,
        rows_per_sec: w.rows as f64 / best,
        cache_hit_rate: hit_rate,
        parallel_chunks,
    }
}

/// Cold regime: a fresh disk per trial; time the first streaming scan,
/// where conversion and execution share the worker pool.
fn run_cold(w: &Workload, mode: ExecMode) -> ModeStats {
    let mut best = f64::INFINITY;
    for _ in 0..w.runs {
        let disk = SimDisk::instant();
        let spec = CsvSpec::new(w.rows, w.cols, 5151);
        stage_csv(&disk, "wide.csv", &spec);
        let session = session_for(&disk, w, mode);
        let query = cpu_bound_query("wide", w.cols);
        let t0 = Instant::now();
        let out = session
            .run(ExecRequest::query(query.clone()))
            .expect("cold query")
            .into_single();
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(out.result.rows_scanned, w.rows);
    }
    ModeStats {
        best_secs: best,
        rows_per_sec: w.rows as f64 / best,
        cache_hit_rate: None,
        parallel_chunks: 0,
    }
}

fn stats_json(s: &ModeStats) -> JsonValue {
    scanraw_obs::json!({
        "best_secs": s.best_secs,
        "rows_per_sec": s.rows_per_sec,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke") || std::env::var("PR5_SMOKE").is_ok();
    let (def_rows, def_runs) = if smoke { (49_152, 2) } else { (393_216, 3) };
    let w = Workload {
        rows: env_u64("PR5_ROWS", def_rows),
        cols: env_u64("PR5_COLS", 12) as usize,
        chunk_rows: env_u64("PR5_CHUNK_ROWS", 8_192) as u32,
        workers: env_u64("PR5_WORKERS", 4) as usize,
        runs: env_u64("PR5_RUNS", def_runs) as usize,
    };
    println!(
        "PR5 bench: {} rows x {} cols, {}-row chunks, {} workers, best of {}{}",
        w.rows,
        w.cols,
        w.chunk_rows,
        w.workers,
        w.runs,
        if smoke { " (smoke)" } else { "" }
    );

    let warm_serial = run_warm(&w, ExecMode::Serial);
    let warm_parallel = run_warm(&w, ExecMode::Parallel);
    let warm_speedup = warm_parallel.rows_per_sec / warm_serial.rows_per_sec;

    let cold_serial = run_cold(&w, ExecMode::Serial);
    let cold_parallel = run_cold(&w, ExecMode::Parallel);
    let cold_speedup = cold_parallel.rows_per_sec / cold_serial.rows_per_sec;

    let row = |name: &str, s: &ModeStats, speedup: f64| {
        vec![
            name.to_string(),
            format!("{:.4}", s.best_secs),
            format!("{:.0}", s.rows_per_sec),
            format!("{speedup:.2}x"),
        ]
    };
    print_table(
        "PR5 — warm CPU-bound (fig5 regime)",
        &["mode", "best (s)", "rows/sec", "speedup"],
        &[
            row("serial", &warm_serial, 1.0),
            row("parallel", &warm_parallel, warm_speedup),
        ],
    );
    print_table(
        "PR5 — cold first scan (fig4 regime)",
        &["mode", "best (s)", "rows/sec", "speedup"],
        &[
            row("serial", &cold_serial, 1.0),
            row("parallel", &cold_parallel, cold_speedup),
        ],
    );
    if let Some(rate) = warm_parallel.cache_hit_rate {
        println!(
            "warm parallel: {:.0}% cache hit rate, {} chunks fanned out",
            100.0 * rate,
            warm_parallel.parallel_chunks
        );
    }

    let mut json = scanraw_obs::json!({
        "smoke": smoke,
        "rows": w.rows,
        "cols": w.cols,
        "chunk_rows": w.chunk_rows,
        "workers": w.workers,
        "runs": w.runs,
        "warm_cpu_bound": {
            "serial": stats_json(&warm_serial),
            "parallel": stats_json(&warm_parallel),
            "speedup": warm_speedup,
            "parallel_chunks": warm_parallel.parallel_chunks,
        },
        "cold_first_scan": {
            "serial": stats_json(&cold_serial),
            "parallel": stats_json(&cold_parallel),
            "speedup": cold_speedup,
        },
    });
    if let Some(rate) = warm_parallel.cache_hit_rate {
        json["warm_cpu_bound"]["cache_hit_rate"] = scanraw_obs::json!(rate);
    }
    std::fs::write("BENCH_PR5.json", json.to_json_pretty()).expect("write BENCH_PR5.json");
    println!("wrote BENCH_PR5.json");
    write_json("BENCH_PR5", &json);
}
