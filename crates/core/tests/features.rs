//! Tests of the optional operator features: positional-map caching,
//! resource advice, and stage-histogram introspection.

use scanraw::profile::Stage;
use scanraw::{ResourceAdvice, ScanRaw, ScanRequest};
use scanraw_rawfile::generate::{expected_column_sums, stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::{DiskConfig, SimDisk, VirtualClock};
use scanraw_storage::Database;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};
use std::sync::Arc;
use std::time::Duration;

fn operator(config: ScanRawConfig, disk: SimDisk) -> (Arc<ScanRaw>, CsvSpec) {
    let spec = CsvSpec::new(2000, 4, 8);
    stage_csv(&disk, "f.csv", &spec);
    let op = ScanRaw::create(
        Database::new(disk),
        "f",
        Schema::uniform_ints(4),
        TextDialect::CSV,
        "f.csv",
        config,
    )
    .unwrap();
    (op, spec)
}

fn full_scan(op: &Arc<ScanRaw>) -> Vec<i64> {
    let mut stream = op.scan(ScanRequest::all_columns(vec![0, 1, 2, 3])).unwrap();
    let mut sums = vec![0i64; 4];
    while let Some(chunk) = stream.next_chunk() {
        for (i, s) in sums.iter_mut().enumerate() {
            if let scanraw_types::ColumnData::Int64(v) = chunk.column(i).unwrap() {
                *s += v.iter().sum::<i64>();
            }
        }
    }
    stream.finish().unwrap();
    sums
}

#[test]
fn positional_map_cache_skips_repeat_tokenizing() {
    // Tiny binary cache forces repeat scans back to the raw file; the map
    // cache then removes TOKENIZE work entirely.
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_cache_chunks(1)
        .with_policy(WritePolicy::ExternalTables)
        .with_positional_map_cache(true);
    let (op, spec) = operator(cfg, SimDisk::instant());
    let expected = expected_column_sums(&spec);

    assert_eq!(full_scan(&op), expected);
    let tokenized_first = op.stages().snapshot(Stage::Tokenize).count;
    assert_eq!(tokenized_first, 8, "first scan tokenizes every chunk");

    assert_eq!(full_scan(&op), expected, "results stay correct from maps");
    let tokenized_second = op.stages().snapshot(Stage::Tokenize).count;
    assert_eq!(
        tokenized_second, tokenized_first,
        "second scan reuses cached positional maps (no new TOKENIZE work)"
    );
    // Parsing still happened for the re-read chunks.
    assert!(op.stages().snapshot(Stage::Parse).count > 8);
}

#[test]
fn without_map_cache_repeat_scans_retokenize() {
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_cache_chunks(1)
        .with_policy(WritePolicy::ExternalTables);
    let (op, _) = operator(cfg, SimDisk::instant());
    full_scan(&op);
    let first = op.stages().snapshot(Stage::Tokenize).count;
    full_scan(&op);
    assert!(op.stages().snapshot(Stage::Tokenize).count > first);
}

fn throttled(read_bw: u64) -> SimDisk {
    SimDisk::new(
        DiskConfig {
            read_bw,
            write_bw: read_bw,
            cached_read_bw: u64::MAX / 4,
            seek_latency: Duration::ZERO,
            page_cache_bytes: 0,
            page_bytes: 256 * 1024,
        },
        VirtualClock::shared(),
    )
}

#[test]
fn resource_advice_detects_io_bound() {
    // A very slow device with plenty of workers: conversion keeps up easily.
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(4)
        .with_policy(WritePolicy::ExternalTables);
    let (op, _) = operator(cfg, throttled(256 * 1024)); // 256 KiB/s virtual
    full_scan(&op);
    match op.resource_advice() {
        ResourceAdvice::IoBound { sufficient_workers } => {
            assert!(sufficient_workers <= 4);
        }
        other => panic!("expected IoBound, got {other:?}"),
    }
}

#[test]
fn resource_advice_unknown_before_any_scan() {
    let cfg = ScanRawConfig::default().with_workers(2);
    let (op, _) = operator(cfg, SimDisk::instant());
    assert_eq!(op.resource_advice(), ResourceAdvice::Unknown);
}

#[test]
fn resource_advice_detects_cpu_bound() {
    // An (almost) infinitely fast device: conversion time dominates.
    // SimDisk::instant gives ~zero I/O time, which reads as Unknown/CpuBound;
    // use a fast-but-nonzero device so both sides are measured.
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(1)
        .with_policy(WritePolicy::ExternalTables);
    let (op, _) = operator(cfg, throttled(10 * 1024 * 1024 * 1024));
    full_scan(&op);
    match op.resource_advice() {
        ResourceAdvice::CpuBound { suggested_workers } => {
            assert!(suggested_workers >= 1);
        }
        // On extremely fast test machines the virtual I/O can still dominate
        // the tiny real conversion cost; accept Balanced but never IoBound
        // with an expansion suggestion below the current worker count.
        ResourceAdvice::Balanced => {}
        other => panic!("expected CpuBound/Balanced, got {other:?}"),
    }
}
