//! `cold-load`: a stream of fresh 12-integer-column CSV files on the
//! paper's device. Each file gets its first query (an all-column aggregate)
//! and a drain of the loading it triggered, then one later query and a
//! final drain. The binary cache holds about a third of the chunks.

use crate::common::{
    default_chunk_rows, loaded_fraction, metric, run_checked, scan_config, set_up, Fatal,
    PassCounts, RawSpec, Report, Tally,
};
use crate::data::{Checked, IntTable};
use crate::layers;
use crate::stats::{derive, median, overhead_pct, rows_per_s};
use crate::trace::Tracer;
use crate::Ctx;
use scanraw_repro::rawfile::TextDialect;
use scanraw_repro::types::Schema;
use std::time::Instant;

/// The size measured when this workload was chosen: 393,216 rows of 12
/// integers, about 48 MB of text, 24 chunks at the default chunk size.
const ROWS: u64 = 393_216;
const COLS: usize = 12;
/// Latency limit of one query, for goodput.
const LIMIT_MS: f64 = 1000.0;
const MIN_PASSES: u64 = 3;

pub fn run(ctx: &Ctx) -> Result<Report, Fatal> {
    let spec = RawSpec {
        name: "t",
        file: "t.csv",
        schema: Schema::uniform_ints(COLS),
        dialect: TextDialect::CSV,
        rows: ROWS,
        chunk_rows: default_chunk_rows(),
    };
    let cfg = scan_config(spec.chunk_rows, spec.chunks().div_ceil(3));
    let off = Tracer::new(false, String::new());
    let mut tally = Tally::default();
    let mut counts = PassCounts::default();
    let (mut setup, mut first, mut loaded, mut later, mut seq) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut generate = Vec::new();
    let (mut traced_seq, mut plain_seq) = (Vec::new(), Vec::new());
    let (mut on_time, mut raw_bytes) = (0u64, 0u64);
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        // In a traced run every other pass is traced; the untraced ones
        // give the tracing overhead.
        let traced = ctx.trace && pass % 2 == 1;
        let tr = if traced { &ctx.tr } else { &off };
        let _span = tr.span("bench.pass");

        let t = Instant::now();
        let table = tr.time("setup.generate", || {
            IntTable::generate(ROWS, COLS, derive(ctx.seed, pass))
        });
        generate.push(t.elapsed().as_secs_f64());
        let query = table.all_column_sums(spec.name);
        // The oracle's columns are no longer needed; free them before the
        // program runs so they do not count in its peak memory.
        let IntTable { csv, cols, .. } = table;
        drop(cols);
        raw_bytes = csv.len() as u64;
        let (session, op, setup_s) = set_up(&spec, csv, cfg.clone(), tr)?;
        setup.push(setup_s);

        let t0 = Instant::now();
        let (q1, out1) = run_checked(&session, &query, spec.chunks(), &mut tally, tr)?;
        counts
            .loaded_frac
            .push(loaded_fraction(&session, spec.name));
        let t = Instant::now();
        tr.time("core.drain_writes", || op.drain_writes());
        let drain = t.elapsed().as_secs_f64();
        let (q2, out2) = run_checked(&session, &query, spec.chunks(), &mut tally, tr)?;
        tr.time("core.drain_writes", || op.drain_writes());
        let seq_s = t0.elapsed().as_secs_f64();

        for (secs, out) in [(q1, out1), (q2, out2)] {
            if let Some(o) = out {
                counts.add_scan(&o.scan);
                on_time += u64::from(secs * 1e3 <= LIMIT_MS);
            }
        }
        counts.drain_s.push(drain);
        counts.add_pass(&session, spec.name, raw_bytes)?;
        first.push(q1);
        loaded.push(q1 + drain);
        later.push(q2);
        seq.push(seq_s);
        if traced {
            traced_seq.push(seq_s);
        } else {
            plain_seq.push(seq_s);
        }
        pass += 1;
    }

    let first_ms: Vec<f64> = first.iter().map(|s| s * 1e3).collect();
    let mut r = Report {
        e2e: vec![
            metric("setup_s", median(&setup), "s"),
            metric("first_query_rows_per_s", rows_per_s(ROWS, &first), "rows/s"),
            metric("loaded_rows_per_s", rows_per_s(ROWS, &loaded), "rows/s"),
            metric("sequence_s", median(&seq), "s"),
            metric("later_rows_per_s", rows_per_s(ROWS, &later), "rows/s"),
            metric(
                "goodput_qps",
                on_time as f64 / seq.iter().sum::<f64>(),
                "1/s",
            ),
        ],
        ..Report::default()
    };
    r.latency(&first_ms);

    if ctx.trace {
        // The probes replay the last file; regenerating it is cheaper than
        // keeping a copy of every file while it is queried.
        let table = IntTable::generate(ROWS, COLS, derive(ctx.seed, pass - 1));
        let query = table.all_column_sums(spec.name);
        let col0: i64 = table.cols[0].iter().sum();
        let (csv, tr, out) = (&table.csv, &ctx.tr, &mut r.layers);
        counts.metrics(out);
        let chunks = layers::rawfile(&spec, csv, tr, out)?;
        layers::storage(&spec, &chunks, tr, out)?;
        drop(chunks);
        let all: Vec<usize> = (0..COLS).collect();
        layers::stream(&spec, csv, &cfg, &all, 0, col0, &mut tally, tr, out)?;
        layers::load_overhead(&spec, csv, &cfg, &query, &mut tally, tr, out)?;
        let queries = std::slice::from_ref(&query);
        let warm = layers::exec(&spec, csv, queries, &mut tally, tr, out)?;
        // The serving burst needs several queries per round, or no scan
        // can be shared.
        let mix = serve_mix(&table, spec.name, query);
        layers::serve_burst(&warm, &spec, &mix, &mut tally, tr, out)?;
        out.push(metric(
            "bench.trace_overhead_pct",
            overhead_pct(&traced_seq, &plain_seq),
            "%",
        ));
    }

    r.tally = tally;
    r.env_table(&spec, raw_bytes, &cfg);
    r.env("files", pass);
    r.env("generate_s", median(&generate));
    r.env("latency_limit_ms", LIMIT_MS);
    Ok(r)
}

/// Seven queries for the serving burst: the workload's own aggregate and
/// 2-column sums, range counts and min/max over the same table.
fn serve_mix(table: &IntTable, name: &str, all_sums: Checked) -> Vec<Checked> {
    let half = 1i64 << 30;
    vec![
        all_sums,
        table.sum2(name, 0, 1),
        table.sum2(name, 2, 3),
        table.range_count(name, 4, 0, half),
        table.range_count(name, 5, half / 2, half + half / 2),
        table.min_max(name, 6),
        table.min_max(name, 7),
    ]
}
