//! `query-sequence`: a coordinate-sorted synthetic SAM file (6 string and
//! 5 integer fields) on the paper's device, queried by a fixed sequence of
//! eight queries and drained at the end. Each pass uses a fresh file. The
//! binary cache holds about a third of the chunks, so later queries mix
//! cache, database and raw sources, and position ranges skip chunks.

use crate::common::{
    default_chunk_rows, loaded_fraction, metric, run_checked, scan_config, set_up, Fatal,
    PassCounts, RawSpec, Report, Tally,
};
use crate::data::SamFile;
use crate::layers;
use crate::stats::{derive, median, overhead_pct, rows_per_s};
use crate::trace::Tracer;
use crate::Ctx;
use scanraw_repro::rawfile::sam::{field, sam_schema};
use scanraw_repro::rawfile::TextDialect;
use std::time::Instant;

/// Twelve chunks of the default 16,384 rows: about 50 MB of text, enough
/// chunks for position ranges to skip most of them and for a cache of a
/// third to hold four.
const READS: u64 = 12 * 16_384;
/// Latency limit of one query, for goodput.
const LIMIT_MS: f64 = 1000.0;
const MIN_PASSES: u64 = 3;

pub fn run(ctx: &Ctx) -> Result<Report, Fatal> {
    let spec = RawSpec {
        name: "reads",
        file: "reads.sam",
        schema: sam_schema(),
        dialect: TextDialect::TSV,
        rows: READS,
        chunk_rows: default_chunk_rows(),
    };
    let cfg = scan_config(spec.chunk_rows, spec.chunks().div_ceil(3));
    let off = Tracer::new(false, String::new());
    let mut tally = Tally::default();
    let mut counts = PassCounts::default();
    let (mut setup, mut first, mut seq) = (Vec::new(), Vec::new(), Vec::new());
    let mut generate = Vec::new();
    let (mut traced_seq, mut plain_seq) = (Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let (mut later_s, mut later_rows) = (0.0, 0u64);
    let (mut on_time, mut raw_bytes, mut n_queries) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && pass % 2 == 1;
        let tr = if traced { &ctx.tr } else { &off };
        let _span = tr.span("bench.pass");

        let file_seed = derive(ctx.seed, pass);
        let t = Instant::now();
        let sam = tr.time("setup.generate", || SamFile::generate(READS, file_seed));
        let queries = sam.sequence(spec.name, file_seed);
        n_queries = queries.len();
        // The oracle's reads are no longer needed; free them before the
        // program runs so they do not count in its peak memory. Freeing
        // about a million small strings leaves the allocator to sort them
        // on its next large request; make that request here, so the cost
        // counts as generation and not as the program's set-up.
        let SamFile { reads, text, .. } = sam;
        drop(reads);
        drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
        generate.push(t.elapsed().as_secs_f64());
        raw_bytes = text.len() as u64;
        let (session, op, setup_s) = set_up(&spec, text, cfg.clone(), tr)?;
        setup.push(setup_s);

        let t0 = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            let (secs, out) = run_checked(&session, q, spec.chunks(), &mut tally, tr)?;
            if i == 0 {
                first.push(secs);
                counts
                    .loaded_frac
                    .push(loaded_fraction(&session, spec.name));
            } else {
                later_s += secs;
                later_rows += READS;
            }
            latencies_ms.push(secs * 1e3);
            if let Some(o) = out {
                counts.add_scan(&o.scan);
                on_time += u64::from(secs * 1e3 <= LIMIT_MS);
            }
        }
        let t = Instant::now();
        tr.time("core.drain_writes", || op.drain_writes());
        counts.drain_s.push(t.elapsed().as_secs_f64());
        let seq_s = t0.elapsed().as_secs_f64();
        counts.add_pass(&session, spec.name, raw_bytes)?;
        seq.push(seq_s);
        if traced {
            traced_seq.push(seq_s);
        } else {
            plain_seq.push(seq_s);
        }
        pass += 1;
    }

    let mut r = Report {
        e2e: vec![
            metric("setup_s", median(&setup), "s"),
            metric(
                "first_query_rows_per_s",
                rows_per_s(READS, &first),
                "rows/s",
            ),
            metric("loaded_rows_per_s", rows_per_s(READS, &seq), "rows/s"),
            metric("sequence_s", median(&seq), "s"),
            metric("later_rows_per_s", later_rows as f64 / later_s, "rows/s"),
            metric(
                "goodput_qps",
                on_time as f64 / seq.iter().sum::<f64>(),
                "1/s",
            ),
        ],
        ..Report::default()
    };
    r.latency(&latencies_ms);

    if ctx.trace {
        // The probes replay the last file, regenerated from its seed.
        let file_seed = derive(ctx.seed, pass - 1);
        let sam = SamFile::generate(READS, file_seed);
        let queries = sam.sequence(spec.name, file_seed);
        let pos_sum: i64 = sam.reads.iter().map(|r| r.pos).sum();
        let (text, tr, out) = (&sam.text, &ctx.tr, &mut r.layers);
        counts.metrics(out);
        let chunks = layers::rawfile(&spec, text, tr, out)?;
        layers::storage(&spec, &chunks, tr, out)?;
        drop(chunks);
        let all: Vec<usize> = (0..spec.schema.len()).collect();
        let pos = field::POS;
        layers::stream(&spec, text, &cfg, &all, pos, pos_sum, &mut tally, tr, out)?;
        layers::load_overhead(&spec, text, &cfg, &queries[0], &mut tally, tr, out)?;
        let warm = layers::exec(&spec, text, &queries, &mut tally, tr, out)?;
        layers::serve_burst(&warm, &spec, &queries, &mut tally, tr, out)?;
        out.push(metric(
            "bench.trace_overhead_pct",
            overhead_pct(&traced_seq, &plain_seq),
            "%",
        ));
    }

    r.tally = tally;
    r.env_table(&spec, raw_bytes, &cfg);
    r.env("files", pass);
    r.env("queries_per_pass", n_queries);
    r.env("generate_s", median(&generate));
    r.env("latency_limit_ms", LIMIT_MS);
    Ok(r)
}
