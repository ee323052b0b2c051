//! Property-style tests over the core data structures and the conversion
//! pipeline invariants.
//!
//! Originally written against proptest; rewritten on seeded `StdRng` case
//! generation so the suite runs in the offline build environment. Each
//! property keeps its original contract and exercises a fixed number of
//! pseudo-random cases, deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scanraw_repro::core::ChunkCache;
use scanraw_repro::rawfile::bamsim::lzss;
use scanraw_repro::rawfile::chunker::ChunkReader;
use scanraw_repro::rawfile::parse::reference;
use scanraw_repro::rawfile::{parse_chunk_projected, tokenize_chunk_selective, TextDialect};
use scanraw_repro::simio::SimDisk;
use scanraw_repro::types::{BinaryChunk, ChunkId, ColumnData, Schema, TextChunk, Value};
use std::sync::Arc;

const CASES: usize = 64;

/// A rectangular table of i64 values, 1..=8 columns, 1..=50 rows.
fn int_table(rng: &mut StdRng) -> Vec<Vec<i64>> {
    let cols = rng.gen_range(1usize..=8);
    let rows = rng.gen_range(1usize..=50);
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen::<i64>()).collect())
        .collect()
}

fn to_csv(table: &[Vec<i64>]) -> String {
    table
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn chunk_of(text: &str, rows: u32) -> TextChunk {
    TextChunk {
        id: ChunkId(0),
        file_offset: 0,
        first_row: 0,
        rows,
        data: bytes::Bytes::from(text.as_bytes().to_vec()),
    }
}

/// tokenize→parse equals the naive reference parser for any integer table,
/// any mapped-prefix width, and any projection.
#[test]
fn tokenize_parse_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let table = int_table(&mut rng);
        let cols = table[0].len();
        let rows = table.len() as u32;
        let text = to_csv(&table);
        let chunk = chunk_of(&text, rows);
        let schema = Schema::uniform_ints(cols);
        let prefix = rng.gen_range(1usize..=8).min(cols);
        // Pseudo-random non-empty projection.
        let proj_seed = rng.gen::<u64>();
        let projection: Vec<usize> = (0..cols)
            .filter(|c| (proj_seed >> (c % 60)) & 1 == 1)
            .collect();
        let projection = if projection.is_empty() {
            vec![cols - 1]
        } else {
            projection
        };

        let map = tokenize_chunk_selective(&chunk, TextDialect::CSV, cols, prefix).unwrap();
        let fast =
            parse_chunk_projected(&chunk, &map, TextDialect::CSV, &schema, &projection).unwrap();
        fast.validate(&schema).unwrap();
        let slow = reference::parse_rows(&text, TextDialect::CSV, &schema, &projection).unwrap();
        for (r, slow_row) in slow.iter().enumerate() {
            for (i, &c) in projection.iter().enumerate() {
                assert_eq!(
                    fast.column(c).unwrap().value(r).unwrap(),
                    slow_row[i].clone()
                );
            }
        }
    }
}

/// The chunker partitions any byte content exactly: offsets are dense,
/// concatenated chunk bytes equal the file, row counts match line counts.
#[test]
fn chunker_partitions_exactly() {
    let mut rng = StdRng::seed_from_u64(0xC4A9);
    const LINE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789,";
    for _ in 0..CASES {
        let n_lines = rng.gen_range(0usize..40);
        let lines: Vec<String> = (0..n_lines)
            .map(|_| {
                let len = rng.gen_range(0usize..=20);
                (0..len)
                    .map(|_| LINE_CHARS[rng.gen_range(0..LINE_CHARS.len())] as char)
                    .collect()
            })
            .collect();
        let chunk_rows = rng.gen_range(1u32..10);
        let mut content = lines.join("\n");
        if !lines.is_empty() {
            content.push('\n');
        }
        let disk = SimDisk::instant();
        disk.storage().put("f", content.as_bytes().to_vec());
        let (chunks, layout) = ChunkReader::new(disk, "f", chunk_rows)
            .unwrap()
            .with_block_bytes(7) // tiny device reads stress the carry logic
            .read_all()
            .unwrap();
        let mut reassembled = Vec::new();
        let mut next_row = 0u64;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id, ChunkId(i as u32));
            assert_eq!(c.first_row, next_row);
            next_row += c.rows as u64;
            reassembled.extend_from_slice(&c.data);
        }
        assert_eq!(reassembled, content.as_bytes().to_vec());
        assert_eq!(layout.total_rows(), lines.len() as u64);
    }
}

/// LZSS decompress(compress(x)) == x for arbitrary bytes.
#[test]
fn lzss_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x1255);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..2000);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let comp = lzss::compress(&data);
        assert_eq!(lzss::decompress(&comp, data.len()).unwrap(), data);
    }
}

/// Cache invariants: size bound, eviction only when full, unloaded cells
/// surface in insertion order and marking every cell loaded empties the
/// unloaded view.
#[test]
fn cache_invariants() {
    const CACHE_COLS: usize = 2;
    let present_chunk = |id: u32| {
        let mut chunk = BinaryChunk::empty(ChunkId(id), 0, 1, CACHE_COLS);
        for col in chunk.columns.iter_mut() {
            *col = Some(ColumnData::Int64(vec![id as i64]));
        }
        Arc::new(chunk)
    };
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for _ in 0..CASES {
        let cap = rng.gen_range(1usize..8);
        let n_ops = rng.gen_range(1usize..100);
        let ops: Vec<(u32, bool)> = (0..n_ops)
            .map(|_| (rng.gen_range(0u32..30), rng.gen_bool(0.5)))
            .collect();
        let cache = ChunkCache::new(cap);
        // Model: per-id (first-insertion seq, loaded). Reinserts keep the
        // original seq and union loaded bits; evictions (observed via the
        // insert return) drop the entry, so a comeback gets a fresh seq.
        let mut model: std::collections::HashMap<u32, (usize, bool)> =
            std::collections::HashMap::new();
        let mut next_seq = 0usize;
        for (id, loaded) in &ops {
            let cols: &[usize] = if *loaded { &[0, 1] } else { &[] };
            if let Some(victim) = cache.insert(present_chunk(*id), cols) {
                model.remove(&victim.id.0);
            }
            assert!(cache.len() <= cap);
            model
                .entry(*id)
                .and_modify(|(_, l)| *l |= *loaded)
                .or_insert_with(|| {
                    next_seq += 1;
                    (next_seq, *loaded)
                });
        }
        // Unloaded cells are exactly the model's not-fully-loaded entries,
        // oldest (first inserted) first, each listing its missing columns.
        let mut expected: Vec<(usize, u32)> = model
            .iter()
            .filter(|(_, (_, loaded))| !loaded)
            .map(|(id, (seq, _))| (*seq, *id))
            .collect();
        expected.sort_unstable();
        let unloaded = cache.unloaded_cells();
        assert_eq!(
            unloaded.iter().map(|(c, _)| c.id.0).collect::<Vec<_>>(),
            expected.iter().map(|(_, id)| *id).collect::<Vec<_>>(),
            "unloaded cells ordered by first insertion"
        );
        for (_, cols) in &unloaded {
            assert_eq!(cols, &[0, 1], "both cells of an unloaded chunk are missing");
        }
        // Marking every cell loaded empties the unloaded view.
        for id in cache.cached_ids() {
            cache.mark_loaded(id, &[0, 1]);
        }
        assert!(cache.unloaded_cells().is_empty());
    }
}

/// Column statistics bound every value in the chunk.
#[test]
fn min_max_bounds_every_value() {
    let mut rng = StdRng::seed_from_u64(0x3141);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..100);
        let values: Vec<i64> = (0..len).map(|_| rng.gen::<i64>()).collect();
        let col = ColumnData::Int64(values.clone());
        let (lo, hi) = col.min_max().unwrap();
        for v in values {
            assert!(Value::Int(v) >= lo.clone());
            assert!(Value::Int(v) <= hi.clone());
        }
    }
}

/// Column-store persistence round-trips arbitrary typed columns.
#[test]
fn colstore_roundtrip() {
    use scanraw_repro::storage::ColumnStore;
    use scanraw_repro::types::{DataType, Field};
    let mut rng = StdRng::seed_from_u64(0xC057);
    for _ in 0..CASES {
        let n_ints = rng.gen_range(1usize..50);
        let n_strs = rng.gen_range(1usize..50);
        let ints: Vec<i64> = (0..n_ints).map(|_| rng.gen::<i64>()).collect();
        let strs: Vec<String> = (0..n_strs)
            .map(|_| {
                let len = rng.gen_range(0usize..=12);
                // Printable ASCII (space..tilde), as the proptest regex did.
                (0..len)
                    .map(|_| rng.gen_range(0x20u8..=0x7e) as char)
                    .collect()
            })
            .collect();
        let rows = ints.len().min(strs.len());
        let chunk = BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: rows as u32,
            columns: vec![
                Some(ColumnData::Int64(ints[..rows].to_vec())),
                Some(ColumnData::Utf8(strs[..rows].iter().collect())),
            ],
        };
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        let store = ColumnStore::new(SimDisk::instant());
        store.store_chunk("t", &chunk).unwrap();
        let back = store
            .load_chunk("t", &schema, ChunkId(0), 0, &[0, 1])
            .unwrap();
        assert_eq!(back.column(0), chunk.column(0));
        assert_eq!(back.column(1), chunk.column(1));
    }
}

/// Engine sum over a random table equals a direct computation, under every
/// write policy.
#[test]
fn engine_sum_matches_direct() {
    use scanraw_repro::prelude::*;
    let mut rng = StdRng::seed_from_u64(0xE9019E);
    // Fewer cases: each one spins up a full engine + operator.
    for case in 0..20 {
        let table = int_table(&mut rng);
        let cols = table[0].len();
        let text = to_csv(&table);
        let disk = SimDisk::instant();
        disk.storage().put("p.csv", text.into_bytes());
        let policy = [
            WritePolicy::ExternalTables,
            WritePolicy::Eager,
            WritePolicy::Buffered,
            WritePolicy::Invisible {
                chunks_per_query: 1,
            },
            WritePolicy::speculative(),
        ][case % 5];
        let engine = Engine::new(Database::new(disk));
        engine
            .register_table(
                "p",
                "p.csv",
                Schema::uniform_ints(cols),
                TextDialect::CSV,
                ScanRawConfig::default()
                    .with_chunk_rows(7)
                    .with_workers(2)
                    .with_policy(policy),
            )
            .unwrap();
        // Sum a single column to avoid row-level overflow in the expression.
        let q = Query::sum_of_columns("p", [0]);
        let out = engine.execute(&q).unwrap();
        // any::<i64> analogue can overflow SUM; the engine promotes to
        // float on overflow, so the direct computation applies the same
        // promotion rule.
        let mut acc: i64 = 0;
        let mut promoted = false;
        for row in &table {
            match acc.checked_add(row[0]) {
                Some(s) if !promoted => acc = s,
                _ => promoted = true,
            }
        }
        if promoted {
            assert!(matches!(out.result.scalar().unwrap(), Value::Float(_)));
        } else {
            assert_eq!(out.result.scalar().unwrap(), &Value::Int(acc));
        }
    }
}

/// Pipeline simulator conservation: every planned chunk is delivered
/// exactly once per query, loading is monotone across a sequence, and
/// cache+db+raw partitions the file.
#[test]
fn simulator_conservation() {
    use scanraw_repro::pipesim::{CostModel, FileSpec, SimConfig, Simulator};
    use scanraw_repro::types::WritePolicy;
    let mut rng = StdRng::seed_from_u64(0x51A7);
    for case in 0..CASES {
        let workers = rng.gen_range(0usize..8);
        let cache = rng.gen_range(1usize..16);
        let n_chunks = rng.gen_range(1usize..40);
        let policy = [
            WritePolicy::ExternalTables,
            WritePolicy::Eager,
            WritePolicy::Buffered,
            WritePolicy::Invisible {
                chunks_per_query: 2,
            },
            WritePolicy::speculative(),
        ][case % 5];
        let file = FileSpec::synthetic(n_chunks as u64 * 64, 4, 64);
        let mut cfg = SimConfig::new(workers, policy, CostModel::nominal());
        cfg.cache_chunks = cache;
        let mut sim = Simulator::new(cfg, file);
        let mut last_loaded = 0usize;
        for _ in 0..3 {
            let r = sim.run_sequence(1).remove(0);
            assert_eq!(r.from_cache + r.from_db + r.from_raw, file.n_chunks);
            assert!(r.loaded_after >= last_loaded, "loading is monotone");
            last_loaded = r.loaded_after;
            assert!(r.elapsed_secs >= 0.0);
        }
    }
}

/// Under seeded device faults (transient errors, torn writes, read-side bit
/// flips) the engine returns exactly the rows a fault-free oracle returns,
/// across random cache sizes, chunk sizes, and worker counts (ISSUE 3).
#[cfg(feature = "fault-inject")]
#[test]
fn faulted_engine_matches_fault_free_oracle() {
    use scanraw_repro::prelude::*;
    use scanraw_repro::simio::{FaultConfig, FaultPlan};
    let mut rng = StdRng::seed_from_u64(0xFA017);
    // Fewer cases: each one spins up two full engines.
    for case in 0..20 {
        // Bounded values: an overflowing SUM promotes to float, whose
        // accumulation order (and thus rounding) varies with the pipeline
        // schedule — exact Int sums make the oracle comparison strict.
        let cols = rng.gen_range(1usize..=8);
        let rows = rng.gen_range(1usize..=50);
        let table: Vec<Vec<i64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| rng.gen_range(-1_000_000i64..1_000_000))
                    .collect()
            })
            .collect();
        let text = to_csv(&table);
        let config = ScanRawConfig::default()
            .with_chunk_rows(rng.gen_range(3u32..12))
            .with_cache_chunks(rng.gen_range(1usize..8))
            .with_workers(rng.gen_range(0usize..3))
            .with_policy(WritePolicy::speculative());
        let run = |fault: Option<FaultConfig>| {
            let disk = SimDisk::instant();
            disk.storage().put("p.csv", text.clone().into_bytes());
            if let Some(f) = fault {
                disk.set_fault_plan(FaultPlan::new(f));
            }
            let engine = Engine::new(Database::new(disk));
            engine
                .register_table(
                    "p",
                    "p.csv",
                    Schema::uniform_ints(cols),
                    TextDialect::CSV,
                    config.clone(),
                )
                .unwrap();
            // Two passes: the second may serve from cache or the database,
            // so loading-path faults are exercised too.
            let q = Query::sum_of_columns("p", [0]);
            let a = engine.execute(&q).unwrap().result.rows;
            engine.operator("p").unwrap().drain_writes();
            let b = engine.execute(&q).unwrap().result.rows;
            (a, b)
        };
        let oracle = run(None);
        let faulted = run(Some(FaultConfig {
            p_transient: 0.25,
            p_torn: 0.2,
            p_bitflip: 0.15,
            max_consecutive: 3,
            ..FaultConfig::seeded(0xFA017 + case as u64)
        }));
        assert_eq!(faulted, oracle, "case {case} diverged under faults");
    }
}
