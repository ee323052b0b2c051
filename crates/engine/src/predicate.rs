//! Boolean predicates: comparisons, SQL LIKE, boolean combinators.
//!
//! The genomic workload of paper §5.2 is "a group-by aggregate query with a
//! pattern matching predicate" — [`Predicate::Like`] provides the pattern
//! matching (`%` = any sequence, `_` = any single character).

use crate::expr::{Col, Expr};
use scanraw_types::{RangePredicate, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A boolean predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Cmp(Expr, CmpOp, Expr),
    /// SQL LIKE over a string column: `%` any run, `_` any char.
    Like(Col, String),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column BETWEEN lo AND hi` (inclusive).
    pub fn between(
        column: impl Into<Col>,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Predicate {
        let column = column.into();
        Predicate::And(
            Box::new(Predicate::Cmp(
                Expr::col(column),
                CmpOp::Ge,
                Expr::lit(lo.into()),
            )),
            Box::new(Predicate::Cmp(
                Expr::col(column),
                CmpOp::Le,
                Expr::lit(hi.into()),
            )),
        )
    }

    /// `column LIKE pattern` (`%` any run, `_` one char).
    pub fn like(column: impl Into<Col>, pattern: impl Into<String>) -> Predicate {
        Predicate::Like(column.into(), pattern.into())
    }

    /// Columns referenced by the predicate (sorted, deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Predicate::Cmp(a, _, b) => {
                out.extend(a.columns());
                out.extend(b.columns());
            }
            Predicate::Like(c, _) => out.push(c.index()),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Best-effort extraction of a single-column value range usable for
    /// chunk skipping via catalog min/max statistics. Conservative: returns
    /// `None` whenever the predicate cannot be *exactly* summarized by one
    /// range (the scan then reads every chunk and the row filter stays
    /// authoritative).
    pub fn extract_range(&self) -> Option<RangePredicate> {
        use std::ops::Bound;
        match self {
            Predicate::Cmp(Expr::Column(c), op, Expr::Literal(v)) => {
                let (low, high) = match op {
                    CmpOp::Eq => (Bound::Included(v.clone()), Bound::Included(v.clone())),
                    CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(v.clone())),
                    CmpOp::Le => (Bound::Unbounded, Bound::Included(v.clone())),
                    CmpOp::Gt => (Bound::Excluded(v.clone()), Bound::Unbounded),
                    CmpOp::Ge => (Bound::Included(v.clone()), Bound::Unbounded),
                    CmpOp::Ne => return None,
                };
                Some(RangePredicate {
                    column: c.index(),
                    low,
                    high,
                })
            }
            // Mirror image: literal op column.
            Predicate::Cmp(Expr::Literal(v), op, Expr::Column(c)) => {
                let flipped = match op {
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Ne => CmpOp::Ne,
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                };
                Predicate::Cmp(Expr::Column(*c), flipped, Expr::Literal(v.clone())).extract_range()
            }
            Predicate::And(a, b) => {
                // Intersect two ranges over the same column, or pass one
                // side through when only one side is range-expressible.
                match (a.extract_range(), b.extract_range()) {
                    (Some(ra), Some(rb)) if ra.column == rb.column => Some(RangePredicate {
                        column: ra.column,
                        low: tighter_low(ra.low, rb.low),
                        high: tighter_high(ra.high, rb.high),
                    }),
                    (Some(ra), None) => Some(ra),
                    (None, Some(rb)) => Some(rb),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

fn tighter_low(a: std::ops::Bound<Value>, b: std::ops::Bound<Value>) -> std::ops::Bound<Value> {
    use std::ops::Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.max(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.max(y)),
        (Included(x), Excluded(y)) | (Excluded(y), Included(x)) => {
            if y >= x {
                Excluded(y)
            } else {
                Included(x)
            }
        }
    }
}

fn tighter_high(a: std::ops::Bound<Value>, b: std::ops::Bound<Value>) -> std::ops::Bound<Value> {
    use std::ops::Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.min(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.min(y)),
        (Included(x), Excluded(y)) | (Excluded(y), Included(x)) => {
            if y <= x {
                Excluded(y)
            } else {
                Included(x)
            }
        }
    }
}

/// Iterative SQL-LIKE matcher (`%` any run, `_` one char), O(n·m) worst case
/// with the classic two-pointer backtracking technique. Shared by the
/// columnar kernels in `parallel` and the `reference` oracle.
pub(crate) fn like_match(pattern: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == b'_' || pattern[p] == text[t]) {
            p += 1;
            t += 1;
        } else if p < pattern.len() && pattern[p] == b'%' {
            star_p = p;
            star_t = t;
            p += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            p = star_p + 1;
            t = star_t;
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'%' {
        p += 1;
    }
    p == pattern.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::{columnar_rows, reference_rows};
    use scanraw_types::{BinaryChunk, ChunkId, ColumnData};

    fn chunk() -> BinaryChunk {
        BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: 3,
            columns: vec![
                Some(ColumnData::Int64(vec![5, 10, 15])),
                Some(ColumnData::Utf8(
                    ["100M", "50M2I48M", "10S90M"].into_iter().collect(),
                )),
            ],
        }
    }

    /// The rows of `c` satisfying `p`, asserting the columnar kernel and the
    /// reference evaluator agree.
    fn rows(p: &Predicate, c: &BinaryChunk) -> Vec<u32> {
        let columnar = columnar_rows(p, c).unwrap();
        assert_eq!(columnar, reference_rows(p, c).unwrap(), "{p:?}");
        columnar
    }

    #[test]
    fn comparisons() {
        let c = chunk();
        let p = Predicate::Cmp(Expr::col(0), CmpOp::Gt, Expr::lit(7i64));
        assert_eq!(rows(&p, &c), vec![1, 2]);
        let p = Predicate::Cmp(Expr::col(0), CmpOp::Eq, Expr::lit(15i64));
        assert_eq!(rows(&p, &c), vec![2]);
    }

    #[test]
    fn boolean_combinators() {
        let c = chunk();
        let p = Predicate::between(0, 6i64, 12i64);
        assert_eq!(rows(&p, &c), vec![1]);
        let n = Predicate::Not(Box::new(p.clone()));
        assert_eq!(rows(&n, &c), vec![0, 2]);
        let o = Predicate::Or(
            Box::new(p),
            Box::new(Predicate::Cmp(Expr::col(0), CmpOp::Eq, Expr::lit(5i64))),
        );
        assert_eq!(rows(&o, &c), vec![0, 1]);
    }

    #[test]
    fn like_basics() {
        assert!(like_match(b"100M", b"100M"));
        assert!(!like_match(b"100M", b"101M"));
        assert!(like_match(b"%M", b"100M"));
        assert!(like_match(b"%2I%", b"50M2I48M"));
        assert!(like_match(b"1_S%", b"10S90M"));
        assert!(!like_match(b"%2I%", b"100M"));
        assert!(like_match(b"%", b""));
        assert!(like_match(b"%%", b"x"));
        assert!(!like_match(b"_", b""));
    }

    #[test]
    fn like_predicate_on_strings() {
        let c = chunk();
        let p = Predicate::like(1, "%I%");
        assert_eq!(rows(&p, &c), vec![1]);
        // LIKE on a non-string column is simply false.
        let p = Predicate::like(0, "%");
        assert!(rows(&p, &c).is_empty());
    }

    #[test]
    fn range_extraction_simple() {
        let p = Predicate::Cmp(Expr::col(2), CmpOp::Ge, Expr::lit(10i64));
        let r = p.extract_range().unwrap();
        assert_eq!(r.column, 2);
        assert!(r.contains(&Value::Int(10)));
        assert!(!r.contains(&Value::Int(9)));
    }

    #[test]
    fn range_extraction_between() {
        let p = Predicate::between(1, 10i64, 20i64);
        let r = p.extract_range().unwrap();
        assert!(r.contains(&Value::Int(10)));
        assert!(r.contains(&Value::Int(20)));
        assert!(!r.contains(&Value::Int(21)));
    }

    #[test]
    fn range_extraction_flipped_literal() {
        // 10 <= col3  ⇔  col3 >= 10
        let p = Predicate::Cmp(Expr::lit(10i64), CmpOp::Le, Expr::col(3));
        let r = p.extract_range().unwrap();
        assert_eq!(r.column, 3);
        assert!(r.contains(&Value::Int(11)));
        assert!(!r.contains(&Value::Int(9)));
    }

    #[test]
    fn no_range_for_disjunction_or_ne() {
        let p = Predicate::Or(
            Box::new(Predicate::between(0, 1i64, 2i64)),
            Box::new(Predicate::between(0, 8i64, 9i64)),
        );
        assert!(p.extract_range().is_none());
        let p = Predicate::Cmp(Expr::col(0), CmpOp::Ne, Expr::lit(1i64));
        assert!(p.extract_range().is_none());
    }

    #[test]
    fn predicate_columns() {
        let p = Predicate::And(
            Box::new(Predicate::like(5, "%M")),
            Box::new(Predicate::between(3, 0i64, 9i64)),
        );
        assert_eq!(p.columns(), vec![3, 5]);
    }
}
