//! The row-wise reference evaluator: the test oracle for the columnar
//! kernels.
//!
//! Test-only. No query path calls this module: every query — serial,
//! parallel, shared, push-down, BAM — is evaluated by the columnar kernels
//! in `parallel`. This module evaluates one row of [`Value`]s at a time
//! (`row[c]` holds column `c`) with the plain semantics those kernels must
//! reproduce: checked integer arithmetic promoting to float only for mixed
//! operands, `Value`'s `PartialEq` for `=`/`!=` and its `Ord` for the range
//! operators, short-circuiting `AND`/`OR`, and `LIKE` false on non-strings.
//! [`fold`] is the matching grouped aggregation. Like
//! `scanraw_rawfile::parse::reference`, it is slow and obviously correct.

use crate::aggregate::Accumulator;
use crate::expr::Expr;
use crate::predicate::{like_match, CmpOp, Predicate};
use crate::query::{Query, ResultRow};
#[cfg(test)]
use scanraw_types::BinaryChunk;
use scanraw_types::{Error, Result, Value};
use std::collections::BTreeMap;

/// Evaluates `expr` over one row.
pub fn eval_expr(expr: &Expr, row: &[Value]) -> Result<Value> {
    match expr {
        Expr::Column(c) => row
            .get(c.index())
            .cloned()
            .ok_or_else(|| Error::query(format!("column {c} absent from row"))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Add(a, b) => numeric(eval_expr(a, row)?, eval_expr(b, row)?, "+", |x, y| x + y),
        Expr::Sub(a, b) => numeric(eval_expr(a, row)?, eval_expr(b, row)?, "-", |x, y| x - y),
        Expr::Mul(a, b) => numeric(eval_expr(a, row)?, eval_expr(b, row)?, "*", |x, y| x * y),
    }
}

/// Evaluates `pred` over one row.
pub fn eval_predicate(pred: &Predicate, row: &[Value]) -> Result<bool> {
    match pred {
        Predicate::Cmp(a, op, b) => {
            let (x, y) = (eval_expr(a, row)?, eval_expr(b, row)?);
            Ok(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        Predicate::Like(col, pattern) => Ok(match eval_expr(&Expr::col(*col), row)?.as_str() {
            Some(s) => like_match(pattern.as_bytes(), s.as_bytes()),
            None => false,
        }),
        Predicate::And(a, b) => Ok(eval_predicate(a, row)? && eval_predicate(b, row)?),
        Predicate::Or(a, b) => Ok(eval_predicate(a, row)? || eval_predicate(b, row)?),
        Predicate::Not(p) => Ok(!eval_predicate(p, row)?),
    }
}

/// Folds `rows` through `query`'s filter, grouping and aggregates. Returns
/// the result rows sorted by group key (the engine's output order) and the
/// number of rows that passed the filter (`rows_scanned`).
pub fn fold<'a>(
    query: &Query,
    rows: impl IntoIterator<Item = &'a [Value]>,
) -> Result<(Vec<ResultRow>, u64)> {
    let fresh = || -> Vec<Accumulator> {
        query
            .aggregates
            .iter()
            .map(|a| Accumulator::new(a.func))
            .collect()
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
    let mut passed = 0u64;
    for row in rows {
        if let Some(f) = &query.filter {
            if !eval_predicate(f, row)? {
                continue;
            }
        }
        passed += 1;
        let key = query
            .group_by
            .iter()
            .map(|&c| eval_expr(&Expr::Column(c), row))
            .collect::<Result<Vec<_>>>()?;
        let accs = groups.entry(key).or_insert_with(fresh);
        for (acc, a) in accs.iter_mut().zip(&query.aggregates) {
            acc.update(eval_expr(&a.expr, row)?)?;
        }
    }
    // An aggregate without GROUP BY returns one row even on empty input.
    if query.group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), fresh());
    }
    let rows = groups
        .into_iter()
        .map(|(keys, accs)| {
            Ok(ResultRow {
                keys,
                aggregates: accs
                    .into_iter()
                    .map(Accumulator::finish)
                    .collect::<Result<_>>()?,
            })
        })
        .collect::<Result<_>>()?;
    Ok((rows, passed))
}

/// The rows of a chunk whose columns are all present, as `Value` rows.
#[cfg(test)]
pub(crate) fn chunk_rows(chunk: &BinaryChunk) -> Vec<Vec<Value>> {
    (0..chunk.rows as usize)
        .map(|r| {
            chunk
                .columns
                .iter()
                .map(|c| {
                    c.as_ref()
                        .and_then(|c| c.value(r))
                        .expect("every column present")
                })
                .collect()
        })
        .collect()
}

/// Applies an arithmetic op, keeping integers integral (and overflow an
/// error) when both sides are, promoting to float otherwise.
fn numeric(a: Value, b: Value, op: &str, f: fn(f64, f64) -> f64) -> Result<Value> {
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => {
            let r = match op {
                "+" => x.checked_add(*y),
                "-" => x.checked_sub(*y),
                "*" => x.checked_mul(*y),
                _ => None,
            };
            r.map(Value::Int)
                .ok_or_else(|| Error::query(format!("integer overflow in {op}")))
        }
        _ => {
            let (x, y) = (
                a.as_f64()
                    .ok_or_else(|| Error::query(format!("non-numeric operand to {op}")))?,
                b.as_f64()
                    .ok_or_else(|| Error::query(format!("non-numeric operand to {op}")))?,
            );
            Ok(Value::Float(f(x, y)))
        }
    }
}
