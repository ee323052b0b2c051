//! Query execution over BAM-sim files through the sequential reader library.
//!
//! This is the paper's Table 1 BAM configuration: "for BAM file processing,
//! we use BAMTools to extract the tuples from binary and implement only MAP
//! in ScanRaw". Records come out of [`BamReader`] one at a time — sequential
//! I/O and sequential decompression in the calling thread — and MAP batches
//! them into columnar [`BinaryChunk`]s that fold through the same columnar
//! kernels (`AggState`) the text path uses. There is deliberately no
//! pipeline parallelism here; that is the point of the comparison.

use crate::parallel::{AggSpec, AggState};
use crate::query::{Query, QueryResult};
use scanraw_rawfile::bamsim::BamReader;
use scanraw_rawfile::sam::{sam_schema, SamRead};
use scanraw_simio::SimDisk;
use scanraw_types::{BinaryChunk, ChunkId, ColumnData, Result};

/// Rows per MAP batch.
pub const MAP_BATCH: usize = 16 * 1024;

/// MAP: organizes a batch of reader records into the columnar processing
/// representation (the only conversion stage on the BAM path).
pub fn map_reads(batch: &[SamRead], id: ChunkId, first_row: u64) -> BinaryChunk {
    let mut qname = Vec::with_capacity(batch.len());
    let mut flag = Vec::with_capacity(batch.len());
    let mut rname = Vec::with_capacity(batch.len());
    let mut pos = Vec::with_capacity(batch.len());
    let mut mapq = Vec::with_capacity(batch.len());
    let mut cigar = Vec::with_capacity(batch.len());
    let mut rnext = Vec::with_capacity(batch.len());
    let mut pnext = Vec::with_capacity(batch.len());
    let mut tlen = Vec::with_capacity(batch.len());
    let mut seq = Vec::with_capacity(batch.len());
    let mut qual = Vec::with_capacity(batch.len());
    for r in batch {
        qname.push(r.qname.clone());
        flag.push(r.flag);
        rname.push(r.rname.clone());
        pos.push(r.pos);
        mapq.push(r.mapq);
        cigar.push(r.cigar.clone());
        rnext.push(r.rnext.clone());
        pnext.push(r.pnext);
        tlen.push(r.tlen);
        seq.push(r.seq.clone());
        qual.push(r.qual.clone());
    }
    BinaryChunk {
        id,
        first_row,
        rows: batch.len() as u32,
        columns: vec![
            Some(ColumnData::Utf8(qname)),
            Some(ColumnData::Int64(flag)),
            Some(ColumnData::Utf8(rname)),
            Some(ColumnData::Int64(pos)),
            Some(ColumnData::Int64(mapq)),
            Some(ColumnData::Utf8(cigar)),
            Some(ColumnData::Utf8(rnext)),
            Some(ColumnData::Int64(pnext)),
            Some(ColumnData::Int64(tlen)),
            Some(ColumnData::Utf8(seq)),
            Some(ColumnData::Utf8(qual)),
        ],
    }
}

/// Executes an aggregate query over a BAM-sim file, sequentially.
///
/// The query's `table` field is ignored; column indices refer to the SAM
/// schema ([`sam_schema`]).
pub fn execute_over_bam(disk: &SimDisk, file: &str, query: &Query) -> Result<QueryResult> {
    query.validate(sam_schema().len())?;
    let clock = disk.clock().clone();
    let started = clock.now();
    let mut reader = BamReader::open(disk.clone(), file)?;
    let mut agg = AggState::new(AggSpec::of(query));
    let mut batch: Vec<SamRead> = Vec::with_capacity(MAP_BATCH);
    let mut chunk_no = 0u32;
    let mut first_row = 0u64;
    let flush = |batch: &mut Vec<SamRead>,
                 chunk_no: &mut u32,
                 first_row: &mut u64,
                 agg: &mut AggState|
     -> Result<()> {
        let chunk = map_reads(batch, ChunkId(*chunk_no), *first_row);
        agg.consume_chunk(&chunk)?;
        *first_row += batch.len() as u64;
        *chunk_no += 1;
        batch.clear();
        Ok(())
    };
    loop {
        match reader.next_read()? {
            Some(r) => {
                batch.push(r);
                if batch.len() == MAP_BATCH {
                    flush(&mut batch, &mut chunk_no, &mut first_row, &mut agg)?;
                }
            }
            None => {
                if !batch.is_empty() {
                    flush(&mut batch, &mut chunk_no, &mut first_row, &mut agg)?;
                }
                break;
            }
        }
    }
    let rows_scanned = agg.rows_seen;
    let rows = agg.finish()?;
    Ok(QueryResult {
        rows,
        rows_scanned,
        elapsed: clock.now().saturating_sub(started),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggExpr;
    use crate::expr::Expr;
    use scanraw_rawfile::bamsim::stage_bam;
    use scanraw_rawfile::sam::{field, generate_reads, SamSpec};
    use scanraw_types::Value;

    #[test]
    fn map_preserves_fields() {
        let reads = generate_reads(&SamSpec {
            reads: 5,
            ..Default::default()
        });
        let chunk = map_reads(&reads, ChunkId(0), 0);
        assert_eq!(chunk.rows, 5);
        for (i, r) in reads.iter().enumerate() {
            assert_eq!(
                chunk.column(field::CIGAR).unwrap().value(i).unwrap(),
                Value::Str(r.cigar.clone())
            );
            assert_eq!(
                chunk.column(field::POS).unwrap().value(i).unwrap(),
                Value::Int(r.pos)
            );
        }
    }

    #[test]
    fn bam_query_counts_all_reads() {
        let disk = SimDisk::instant();
        let reads = generate_reads(&SamSpec {
            reads: 1000,
            read_len: 30,
            ..Default::default()
        });
        stage_bam(&disk, "x.bam", &reads);
        let q = Query {
            table: "ignored".into(),
            filter: None,
            group_by: vec![],
            aggregates: vec![AggExpr::count()],
            pushdown: false,
            projection: None,
        };
        let r = execute_over_bam(&disk, "x.bam", &q).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1000)));
    }

    #[test]
    fn bam_sum_matches_direct_computation() {
        let disk = SimDisk::instant();
        let reads = generate_reads(&SamSpec {
            reads: 500,
            read_len: 20,
            ..Default::default()
        });
        stage_bam(&disk, "x.bam", &reads);
        let expected: i64 = reads.iter().map(|r| r.pos).sum();
        let q = Query {
            table: "ignored".into(),
            filter: None,
            group_by: vec![],
            aggregates: vec![AggExpr::sum(Expr::col(field::POS))],
            pushdown: false,
            projection: None,
        };
        let r = execute_over_bam(&disk, "x.bam", &q).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(expected)));
    }

    #[test]
    fn column_out_of_range_rejected() {
        let disk = SimDisk::instant();
        stage_bam(&disk, "x.bam", &[]);
        let q = Query {
            table: "ignored".into(),
            filter: None,
            group_by: vec![],
            aggregates: vec![AggExpr::sum(Expr::col(99))],
            pushdown: false,
            projection: None,
        };
        assert!(execute_over_bam(&disk, "x.bam", &q).is_err());
    }
}
