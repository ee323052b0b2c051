//! Criterion micro-benchmarks of the individual pipeline stages.
//!
//! These are the per-stage numbers behind Figure 5 and the calibration of
//! the cost model: TOKENIZE (full and selective), PARSE (full and
//! projected), the chunker, the LZSS codec of the BAM-sim container, the
//! chunk cache, and the storage codec — CRC-32 over 1 MiB plus
//! `store_chunk`/`load_chunk` of one default-size chunk (16,384 rows of 12
//! integers, or 16,384 SAM reads) on an instant device, so the numbers are
//! the codec's CPU cost alone. `cargo bench --bench stages -- --test` runs
//! each benchmark once as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use scanraw::ChunkCache;
use scanraw_engine::bamscan::map_reads;
use scanraw_rawfile::bamsim::lzss;
use scanraw_rawfile::chunker::ChunkReader;
use scanraw_rawfile::generate::{csv_bytes, CsvSpec};
use scanraw_rawfile::sam::{generate_reads, sam_schema, SamSpec};
use scanraw_rawfile::{
    parse_chunk, parse_chunk_projected, tokenize_chunk, tokenize_chunk_selective, TextDialect,
};
use scanraw_simio::SimDisk;
use scanraw_storage::{crc32, ColumnStore};
use scanraw_types::{BinaryChunk, ChunkId, ColumnData, Schema, TextChunk};
use std::sync::Arc;

const ROWS: u64 = 1 << 12;
const COLS: usize = 16;

fn text_chunk() -> (TextChunk, Schema) {
    let spec = CsvSpec::new(ROWS, COLS, 99);
    let bytes = csv_bytes(&spec);
    (
        TextChunk {
            id: ChunkId(0),
            file_offset: 0,
            first_row: 0,
            rows: ROWS as u32,
            data: bytes::Bytes::from(bytes),
        },
        Schema::uniform_ints(COLS),
    )
}

fn bench_tokenize(c: &mut Criterion) {
    let (chunk, _) = text_chunk();
    let mut g = c.benchmark_group("tokenize");
    g.throughput(Throughput::Bytes(chunk.len_bytes() as u64));
    g.bench_function("full", |b| {
        b.iter(|| tokenize_chunk(&chunk, TextDialect::CSV, COLS).expect("ok"))
    });
    g.bench_function("selective_prefix2", |b| {
        b.iter(|| tokenize_chunk_selective(&chunk, TextDialect::CSV, COLS, 2).expect("ok"))
    });
    g.finish();
}

fn bench_parse(c: &mut Criterion) {
    let (chunk, schema) = text_chunk();
    let map = tokenize_chunk(&chunk, TextDialect::CSV, COLS).expect("ok");
    let mut g = c.benchmark_group("parse");
    g.throughput(Throughput::Elements(ROWS * COLS as u64));
    g.bench_function("all_columns", |b| {
        b.iter(|| parse_chunk(&chunk, &map, TextDialect::CSV, &schema).expect("ok"))
    });
    g.bench_function("projected_2_of_16", |b| {
        b.iter(|| {
            parse_chunk_projected(&chunk, &map, TextDialect::CSV, &schema, &[0, 15]).expect("ok")
        })
    });
    g.finish();
}

fn bench_chunker(c: &mut Criterion) {
    let spec = CsvSpec::new(ROWS * 8, COLS, 7);
    let disk = SimDisk::instant();
    let len = scanraw_rawfile::generate::stage_csv(&disk, "b.csv", &spec);
    let mut g = c.benchmark_group("chunker");
    g.throughput(Throughput::Bytes(len));
    g.bench_function("stream_whole_file", |b| {
        b.iter(|| {
            ChunkReader::new(disk.clone(), "b.csv", ROWS as u32)
                .expect("ok")
                .read_all()
                .expect("ok")
        })
    });
    g.finish();
}

fn bench_lzss(c: &mut Criterion) {
    let reads = scanraw_rawfile::sam::generate_reads(&scanraw_rawfile::sam::SamSpec {
        reads: 512,
        ..Default::default()
    });
    let mut raw = Vec::new();
    for r in &reads {
        raw.extend_from_slice(r.to_line().as_bytes());
        raw.push(b'\n');
    }
    let comp = lzss::compress(&raw);
    let mut g = c.benchmark_group("lzss");
    g.throughput(Throughput::Bytes(raw.len() as u64));
    g.bench_function("compress", |b| b.iter(|| lzss::compress(&raw)));
    g.bench_function("decompress", |b| {
        b.iter(|| lzss::decompress(&comp, raw.len()).expect("ok"))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_cache");
    g.bench_function("insert_evict_1k", |b| {
        b.iter_batched(
            || ChunkCache::new(64),
            |cache| {
                for i in 0..1024u32 {
                    let mut chunk = BinaryChunk::empty(ChunkId(i), 0, 1, 1);
                    chunk.columns[0] = Some(ColumnData::Int64(vec![i as i64]));
                    let loaded: &[usize] = if i % 3 == 0 { &[0] } else { &[] };
                    cache.insert(Arc::new(chunk), loaded);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Rows of one stored chunk: the operator's default chunk size.
const STORE_ROWS: usize = 16 * 1024;

fn int_chunk() -> (BinaryChunk, Schema) {
    let cols = 12;
    let columns = (0..cols)
        .map(|c| {
            let v = (0..STORE_ROWS as i64).map(|r| r * 7919 + c).collect();
            Some(ColumnData::Int64(v))
        })
        .collect();
    let chunk = BinaryChunk {
        id: ChunkId(0),
        first_row: 0,
        rows: STORE_ROWS as u32,
        columns,
    };
    (chunk, Schema::uniform_ints(cols as usize))
}

fn sam_chunk() -> (BinaryChunk, Schema) {
    let reads = generate_reads(&SamSpec {
        reads: STORE_ROWS as u64,
        ..Default::default()
    });
    (map_reads(&reads, ChunkId(0), 0), sam_schema())
}

fn bench_storage(c: &mut Criterion) {
    let data: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8)
        .collect();
    let mut g = c.benchmark_group("storage");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc32_1mib", |b| b.iter(|| crc32(black_box(&data))));
    for (name, (chunk, schema)) in [("int12", int_chunk()), ("sam", sam_chunk())] {
        g.throughput(Throughput::Bytes(chunk.size_bytes() as u64));
        g.bench_function(&format!("store_chunk_{name}"), |b| {
            b.iter_batched(
                || ColumnStore::new(SimDisk::instant()),
                |store| store.store_chunk("t", &chunk).expect("ok"),
                BatchSize::SmallInput,
            )
        });
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t", &chunk).expect("ok");
        let cols: Vec<usize> = (0..schema.len()).collect();
        g.bench_function(&format!("load_chunk_{name}"), |b| {
            b.iter(|| {
                store
                    .load_chunk("t", &schema, ChunkId(0), 0, &cols)
                    .expect("ok")
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = stages;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tokenize, bench_parse, bench_chunker, bench_lzss, bench_cache, bench_storage
}
criterion_main!(stages);
