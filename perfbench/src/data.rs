//! Inputs and their oracles.
//!
//! The benchmark generates every input itself from `--seed` and computes
//! each query's expected answer from what it generated, never from the
//! program: integer CSV tables keep their columns in memory, SAM files keep
//! their `SamRead`s, and a reference fold over those gives the answer.

use crate::stats::Rng;
use scanraw_repro::engine::{AggExpr, Expr, Predicate, Query, QueryResult};
use scanraw_repro::rawfile::sam::{self, field, SamRead, SamSpec};
use scanraw_repro::types::Value;
use std::collections::BTreeMap;

/// One answer: `(group keys, aggregates)` per result row, sorted by key.
pub type Answer = Vec<(Vec<Value>, Vec<Value>)>;

/// True when the engine's result equals the oracle's answer exactly.
pub fn matches(result: &QueryResult, expected: &Answer) -> bool {
    let mut got: Answer = result
        .rows
        .iter()
        .map(|r| (r.keys.clone(), r.aggregates.clone()))
        .collect();
    got.sort_by(|a, b| a.0.cmp(&b.0));
    &got == expected
}

/// A query with the answer the oracle computed for it.
pub struct Checked {
    pub label: &'static str,
    pub query: Query,
    pub expected: Answer,
}

// ---------------------------------------------------------------- CSV ----

/// A table of uniform integers in `[0, 2^31)`, as the paper's synthetic
/// files, with its CSV text.
pub struct IntTable {
    pub rows: u64,
    pub cols: Vec<Vec<i64>>,
    pub csv: Vec<u8>,
}

impl IntTable {
    pub fn generate(rows: u64, n_cols: usize, seed: u64) -> IntTable {
        let mut rng = Rng::new(seed);
        let mut cols = vec![Vec::with_capacity(rows as usize); n_cols];
        let mut csv = Vec::with_capacity(rows as usize * n_cols * 11);
        for _ in 0..rows {
            for (c, col) in cols.iter_mut().enumerate() {
                let v = rng.below(1 << 31) as i64;
                if c > 0 {
                    csv.push(b',');
                }
                push_decimal(&mut csv, v as u64);
                col.push(v);
            }
            csv.push(b'\n');
        }
        IntTable { rows, cols, csv }
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// `SELECT SUM(c0), …, SUM(cn), COUNT(*)`: every column, every row.
    pub fn all_column_sums(&self, table: &str) -> Checked {
        let mut aggregates: Vec<AggExpr> = (0..self.n_cols())
            .map(|c| AggExpr::sum(Expr::col(c)))
            .collect();
        aggregates.push(AggExpr::count());
        let mut expected: Vec<Value> = self
            .cols
            .iter()
            .map(|col| Value::Int(col.iter().sum()))
            .collect();
        expected.push(Value::Int(self.rows as i64));
        Checked {
            label: "all_column_sums",
            query: Query {
                table: table.into(),
                filter: None,
                group_by: vec![],
                aggregates,
                pushdown: false,
                projection: None,
            },
            expected: vec![(vec![], expected)],
        }
    }

    /// `SELECT SUM(ca + cb)`.
    pub fn sum2(&self, table: &str, a: usize, b: usize) -> Checked {
        let s: i64 = self.cols[a]
            .iter()
            .zip(&self.cols[b])
            .map(|(x, y)| x + y)
            .sum();
        Checked {
            label: "sum2",
            query: Query::sum_of_columns(table, [a, b]),
            expected: vec![(vec![], vec![Value::Int(s)])],
        }
    }

    /// `SELECT COUNT(*) WHERE c BETWEEN lo AND hi`.
    pub fn range_count(&self, table: &str, c: usize, lo: i64, hi: i64) -> Checked {
        let n = self.cols[c].iter().filter(|&&v| v >= lo && v <= hi).count();
        let query = Query::builder(table)
            .filter(Predicate::between(c, lo, hi))
            .aggregate(AggExpr::count())
            .build()
            .expect("query has an aggregate");
        Checked {
            label: "range_count",
            query,
            expected: vec![(vec![], vec![Value::Int(n as i64)])],
        }
    }

    /// `SELECT MIN(c), MAX(c)`.
    pub fn min_max(&self, table: &str, c: usize) -> Checked {
        let col = &self.cols[c];
        let min = col.iter().copied().min().expect("table has rows");
        let max = col.iter().copied().max().expect("table has rows");
        let query = Query::builder(table)
            .aggregate(AggExpr::min(Expr::col(c)))
            .aggregate(AggExpr::max(Expr::col(c)))
            .build()
            .expect("query has an aggregate");
        Checked {
            label: "min_max",
            query,
            expected: vec![(vec![], vec![Value::Int(min), Value::Int(max)])],
        }
    }
}

/// Appends the decimal digits of `v`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

// ---------------------------------------------------------------- SAM ----

/// A coordinate-sorted synthetic SAM file: reads ordered by reference name,
/// then position, as aligners write them.
pub struct SamFile {
    pub reads: Vec<SamRead>,
    pub text: Vec<u8>,
    pub ref_len: u64,
}

impl SamFile {
    pub fn generate(reads: u64, seed: u64) -> SamFile {
        let spec = SamSpec {
            reads,
            seed,
            read_len: 100,
            ref_len: 10_000_000,
        };
        let mut reads = sam::generate_reads(&spec);
        reads.sort_by(|a, b| (&a.rname, a.pos).cmp(&(&b.rname, b.pos)));
        let text = sam::sam_bytes(&reads);
        SamFile {
            reads,
            text,
            ref_len: spec.ref_len,
        }
    }

    /// Groups the reads passing `keep` by `key` and folds `aggs` per group.
    fn fold(
        &self,
        keep: impl Fn(&SamRead) -> bool,
        key: impl Fn(&SamRead) -> Vec<Value>,
        aggs: &[Fold],
    ) -> Answer {
        let mut groups: BTreeMap<Vec<Value>, Vec<Acc>> = BTreeMap::new();
        for r in self.reads.iter().filter(|r| keep(r)) {
            let accs = groups
                .entry(key(r))
                .or_insert_with(|| aggs.iter().map(|_| Acc::default()).collect());
            for (acc, f) in accs.iter_mut().zip(aggs) {
                acc.add(f.value(r));
            }
        }
        groups
            .into_iter()
            .map(|(k, accs)| {
                let vals = accs.iter().zip(aggs).map(|(a, f)| a.finish(f)).collect();
                (k, vals)
            })
            .collect()
    }

    /// The query sequence: about eight queries mixing wide and narrow
    /// projections, position ranges (chunk skipping on the sorted file),
    /// LIKE on SEQ, group-by on FLAG/RNAME and CIGAR, and one push-down
    /// query. Range bounds follow from `seed`.
    pub fn sequence(&self, table: &str, seed: u64) -> Vec<Checked> {
        use field::*;
        let mut rng = Rng::new(seed);
        let width = self.ref_len as i64 / 25;
        let mut range = || {
            let lo = 1 + rng.below(self.ref_len - width as u64) as i64;
            (lo, lo + width)
        };
        let (lo1, hi1) = range();
        let (lo2, hi2) = range();
        let none = |_: &SamRead| Vec::new();
        let all = |_: &SamRead| true;
        let mut out = Vec::new();

        let aggs = [
            Fold::Count,
            Fold::Sum(POS),
            Fold::Sum(TLEN),
            Fold::Sum(MAPQ),
        ];
        out.push(Checked {
            label: "wide_scan",
            query: q(table, None, &[], &aggs).select(0..11),
            expected: self.fold(all, none, &aggs),
        });

        let aggs = [
            Fold::Count,
            Fold::Sum(MAPQ),
            Fold::Min(TLEN),
            Fold::Max(TLEN),
        ];
        out.push(Checked {
            label: "pos_range",
            query: q(table, Some(Predicate::between(POS, lo1, hi1)), &[], &aggs),
            expected: self.fold(|r| r.pos >= lo1 && r.pos <= hi1, none, &aggs),
        });

        let aggs = [Fold::Count, Fold::Sum(POS)];
        out.push(Checked {
            label: "seq_like",
            query: q(table, Some(Predicate::like(SEQ, "%GATTA%")), &[], &aggs),
            expected: self.fold(|r| r.seq.contains("GATTA"), none, &aggs),
        });

        let aggs = [Fold::Count, Fold::Sum(TLEN)];
        out.push(Checked {
            label: "group_flag_rname",
            query: q(table, None, &[FLAG, RNAME], &aggs),
            expected: self.fold(
                all,
                |r| vec![Value::Int(r.flag), Value::Str(r.rname.clone())],
                &aggs,
            ),
        });

        let aggs = [Fold::Count];
        out.push(Checked {
            label: "cigar_in_range",
            query: q(
                table,
                Some(Predicate::between(POS, lo2, hi2)),
                &[CIGAR],
                &aggs,
            ),
            expected: self.fold(
                |r| r.pos >= lo2 && r.pos <= hi2,
                |r| vec![Value::Str(r.cigar.clone())],
                &aggs,
            ),
        });

        let aggs = [Fold::Count, Fold::Sum(POS)];
        out.push(Checked {
            label: "pushdown_mapq",
            query: q(table, Some(Predicate::between(MAPQ, 55, 60)), &[], &aggs).with_pushdown(),
            expected: self.fold(|r| r.mapq >= 55 && r.mapq <= 60, none, &aggs),
        });

        let aggs = [Fold::Sum(PNEXT)];
        out.push(Checked {
            label: "narrow_sum",
            query: q(table, None, &[], &aggs),
            expected: self.fold(all, none, &aggs),
        });

        let aggs = [Fold::Count, Fold::Sum(FLAG), Fold::Min(POS), Fold::Max(POS)];
        out.push(Checked {
            label: "wide_rname",
            query: q(table, None, &[RNAME], &aggs).select(0..11),
            expected: self.fold(all, |r| vec![Value::Str(r.rname.clone())], &aggs),
        });
        out
    }
}

fn q(table: &str, filter: Option<Predicate>, group_by: &[usize], aggs: &[Fold]) -> Query {
    Query {
        table: table.into(),
        filter,
        group_by: group_by.iter().map(|&c| c.into()).collect(),
        aggregates: aggs.iter().map(Fold::agg).collect(),
        pushdown: false,
        projection: None,
    }
}

/// An aggregate over one integer SAM field, as the oracle folds it.
#[derive(Clone, Copy)]
enum Fold {
    Count,
    Sum(usize),
    Min(usize),
    Max(usize),
}

impl Fold {
    fn agg(&self) -> AggExpr {
        match *self {
            Fold::Count => AggExpr::count(),
            Fold::Sum(c) => AggExpr::sum(Expr::col(c)),
            Fold::Min(c) => AggExpr::min(Expr::col(c)),
            Fold::Max(c) => AggExpr::max(Expr::col(c)),
        }
    }

    fn value(&self, r: &SamRead) -> i64 {
        let c = match *self {
            Fold::Count => return 1,
            Fold::Sum(c) | Fold::Min(c) | Fold::Max(c) => c,
        };
        match c {
            field::FLAG => r.flag,
            field::POS => r.pos,
            field::MAPQ => r.mapq,
            field::PNEXT => r.pnext,
            field::TLEN => r.tlen,
            other => unreachable!("SAM field {other} is not an integer"),
        }
    }
}

#[derive(Default)]
struct Acc {
    n: i64,
    sum: i64,
    min: Option<i64>,
    max: Option<i64>,
}

impl Acc {
    fn add(&mut self, v: i64) {
        self.n += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    fn finish(&self, f: &Fold) -> Value {
        Value::Int(match f {
            Fold::Count => self.n,
            Fold::Sum(_) => self.sum,
            Fold::Min(_) => self.min.expect("group is non-empty"),
            Fold::Max(_) => self.max.expect("group is non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_through_text() {
        let t = IntTable::generate(50, 3, 9);
        let text = String::from_utf8(t.csv.clone()).unwrap();
        let first: Vec<i64> = text
            .lines()
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(first, t.cols[0]);
    }

    #[test]
    fn sam_is_coordinate_sorted() {
        let f = SamFile::generate(500, 3);
        assert!(f
            .reads
            .windows(2)
            .all(|w| (&w[0].rname, w[0].pos) <= (&w[1].rname, w[1].pos)));
        assert_eq!(f.sequence("s", 1).len(), 8);
    }
}
