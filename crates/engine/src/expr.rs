//! Scalar expressions over table columns, evaluated by the columnar kernels
//! in `parallel`.

use scanraw_types::Value;
use std::fmt;

/// Typed zero-based column index.
///
/// Converts from `usize` (and therefore from integer literals at every
/// `impl Into<Col>` call site), so query text stays terse while the type
/// system keeps column indices from mixing with other integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Col(pub usize);

impl Col {
    /// The underlying zero-based column index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for Col {
    fn from(i: usize) -> Col {
        Col(i)
    }
}

impl fmt::Display for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a table column by index.
    Column(Col),
    /// A constant.
    Literal(Value),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    pub fn col(i: impl Into<Col>) -> Expr {
        Expr::Column(i.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `c0 + c1 + … + ck` — the paper's micro-benchmark aggregate argument.
    pub fn sum_of_columns(cols: impl IntoIterator<Item = impl Into<Col>>) -> Expr {
        let mut it = cols.into_iter();
        let first = Expr::Column(it.next().expect("at least one column").into());
        it.fold(first, |acc, c| {
            Expr::Add(Box::new(acc), Box::new(Expr::Column(c.into())))
        })
    }

    /// Columns referenced anywhere in the tree (sorted, deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(c) => out.push(c.index()),
            Expr::Literal(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::columnar_values;
    use crate::reference;
    use scanraw_types::{BinaryChunk, ChunkId, ColumnData};

    fn chunk() -> BinaryChunk {
        BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: 2,
            columns: vec![
                Some(ColumnData::Int64(vec![10, 20])),
                Some(ColumnData::Int64(vec![1, 2])),
                Some(ColumnData::Float64(vec![0.5, 1.5])),
            ],
        }
    }

    /// `expr` on every row of `c`, asserting the columnar kernel and the
    /// reference evaluator agree (on the values, or on failing).
    fn eval(expr: &Expr, c: &BinaryChunk) -> Option<Vec<Value>> {
        let oracle: Option<Vec<Value>> = reference::chunk_rows(c)
            .iter()
            .map(|row| reference::eval_expr(expr, row).ok())
            .collect();
        let columnar = columnar_values(expr, c).ok();
        assert_eq!(
            columnar, oracle,
            "columnar and reference disagree on {expr:?}"
        );
        columnar
    }

    #[test]
    fn column_and_literal() {
        let c = chunk();
        assert_eq!(eval(&Expr::col(0), &c).unwrap()[1], Value::Int(20));
        assert_eq!(eval(&Expr::lit(7i64), &c).unwrap()[0], Value::Int(7));
    }

    #[test]
    fn arithmetic_int() {
        let c = chunk();
        let e = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        assert_eq!(eval(&e, &c).unwrap()[0], Value::Int(11));
        let e = Expr::Mul(Box::new(Expr::col(0)), Box::new(Expr::lit(3i64)));
        assert_eq!(eval(&e, &c).unwrap()[1], Value::Int(60));
    }

    #[test]
    fn arithmetic_mixed_promotes_to_float() {
        let c = chunk();
        let e = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(2)));
        assert_eq!(eval(&e, &c).unwrap()[0], Value::Float(10.5));
    }

    #[test]
    fn sum_of_columns_builder() {
        let c = chunk();
        let e = Expr::sum_of_columns([0, 1]);
        assert_eq!(eval(&e, &c).unwrap()[1], Value::Int(22));
        assert_eq!(e.columns(), vec![0, 1]);
    }

    #[test]
    fn columns_deduplicated_sorted() {
        let e = Expr::Add(
            Box::new(Expr::sum_of_columns([3, 1])),
            Box::new(Expr::col(1)),
        );
        assert_eq!(e.columns(), vec![1, 3]);
    }

    #[test]
    fn overflow_detected() {
        let c = BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: 1,
            columns: vec![Some(ColumnData::Int64(vec![i64::MAX]))],
        };
        let e = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(1i64)));
        assert!(eval(&e, &c).is_none());
    }

    #[test]
    fn missing_column_is_query_error() {
        let c = chunk();
        assert!(eval(&Expr::col(9), &c).is_none());
    }
}
