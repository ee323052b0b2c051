//! The engine's evaluator: columnar predicate evaluation and partial
//! aggregation, mergeable across chunks.
//!
//! Every query path folds through these kernels — single queries, shared
//! scans, push-down selection during PARSE, and the BAM path. Each chunk is
//! evaluated with a columnar inner loop (column slices and selection
//! vectors, not one `Value` per cell) into an [`AggState`] partial, and the
//! executor merges partials deterministically in ascending chunk order via
//! [`AggState::merge`]. Whether a chunk's partial is computed on the
//! operator's worker pool or inline on the calling thread is the executor's
//! choice ([`crate::ExecMode`]); the kernel is the same.
//!
//! This is the only evaluator; [`crate::reference`] is its row-wise oracle.
//! The kernels implement exactly the oracle's semantics — checked integer
//! arithmetic (overflow is an error), mixed int/float promotion,
//! type-tag-ordered cross-type comparisons (matching `Value`'s `Ord`),
//! `And`/`Or` short-circuiting (the right side is only evaluated for rows
//! the left side did not decide), and identical error messages.
//! `tests/parallel_exec.rs` holds the differential suite.

use crate::aggregate::{Accumulator, AggExpr};
use crate::expr::Expr;
use crate::predicate::{CmpOp, Predicate};
use crate::query::{Query, ResultRow};
use scanraw_types::{BinaryChunk, ColumnData, Error, Result, Utf8Column, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Row selection inside one chunk: either every row or a sorted subset.
#[derive(Debug, Clone)]
pub(crate) enum Sel {
    /// All rows `0..n`.
    All(usize),
    /// A sorted, deduplicated subset of row indices.
    Rows(Vec<u32>),
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::Rows(r) => r.len(),
        }
    }

    fn iter(&self) -> SelIter<'_> {
        match self {
            Sel::All(n) => SelIter::All(0, *n),
            Sel::Rows(r) => SelIter::Rows(r.iter()),
        }
    }

    fn into_rows(self) -> Vec<u32> {
        match self {
            Sel::All(n) => (0..n as u32).collect(),
            Sel::Rows(r) => r,
        }
    }
}

enum SelIter<'a> {
    All(usize, usize),
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(i, n) => {
                if i < n {
                    let r = *i;
                    *i += 1;
                    Some(r)
                } else {
                    None
                }
            }
            SelIter::Rows(it) => it.next().map(|&r| r as usize),
        }
    }
}

/// An expression evaluated over a selection: one entry per selected row
/// (or a constant covering all of them).
enum ColVec<'a> {
    /// Borrowed column slice — only valid when the selection is `Sel::All`.
    IntSlice(&'a [i64]),
    FloatSlice(&'a [f64]),
    StrSlice(&'a Utf8Column),
    /// Gathered / computed per selected row.
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    Strs(Vec<&'a str>),
    /// A literal, broadcast over the selection.
    ConstInt(i64),
    ConstFloat(f64),
    ConstStr(&'a str),
}

/// Type class of a [`ColVec`], mirroring `Value`'s type tags. Cross-class
/// comparisons are decided by tag rank alone (Int < Float < Str), exactly
/// like `Value`'s `Ord`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Int,
    Float,
    Str,
}

impl ColVec<'_> {
    fn class(&self) -> Class {
        match self {
            ColVec::IntSlice(_) | ColVec::Ints(_) | ColVec::ConstInt(_) => Class::Int,
            ColVec::FloatSlice(_) | ColVec::Floats(_) | ColVec::ConstFloat(_) => Class::Float,
            ColVec::StrSlice(_) | ColVec::Strs(_) | ColVec::ConstStr(_) => Class::Str,
        }
    }

    fn int_at(&self, i: usize) -> i64 {
        match self {
            ColVec::IntSlice(s) => s[i],
            ColVec::Ints(v) => v[i],
            ColVec::ConstInt(x) => *x,
            _ => unreachable!("int_at on non-int column"),
        }
    }

    fn float_at(&self, i: usize) -> f64 {
        match self {
            ColVec::FloatSlice(s) => s[i],
            ColVec::Floats(v) => v[i],
            ColVec::ConstFloat(x) => *x,
            _ => unreachable!("float_at on non-float column"),
        }
    }

    /// Numeric value as f64 (int or float class).
    fn f64_at(&self, i: usize) -> f64 {
        match self.class() {
            Class::Int => self.int_at(i) as f64,
            Class::Float => self.float_at(i),
            Class::Str => unreachable!("f64_at on string column"),
        }
    }

    fn str_at(&self, i: usize) -> &str {
        match self {
            ColVec::StrSlice(s) => s.get(i),
            ColVec::Strs(v) => v[i],
            ColVec::ConstStr(x) => x,
            _ => unreachable!("str_at on non-string column"),
        }
    }

    fn value_at(&self, i: usize) -> Value {
        match self.class() {
            Class::Int => Value::Int(self.int_at(i)),
            Class::Float => Value::Float(self.float_at(i)),
            Class::Str => Value::Str(self.str_at(i).to_string()),
        }
    }

    fn is_const(&self) -> bool {
        matches!(
            self,
            ColVec::ConstInt(_) | ColVec::ConstFloat(_) | ColVec::ConstStr(_)
        )
    }
}

/// Evaluates `expr` over the selected rows of `chunk`, columnar.
fn eval_columnar<'a>(expr: &'a Expr, chunk: &'a BinaryChunk, sel: &Sel) -> Result<ColVec<'a>> {
    match expr {
        Expr::Column(c) => {
            let col = chunk
                .column(c.index())
                .ok_or_else(|| Error::query(format!("column {c} absent from chunk")))?;
            Ok(match (col, sel) {
                (ColumnData::Int64(v), Sel::All(_)) => ColVec::IntSlice(v),
                (ColumnData::Float64(v), Sel::All(_)) => ColVec::FloatSlice(v),
                (ColumnData::Utf8(v), Sel::All(_)) => ColVec::StrSlice(v),
                (ColumnData::Int64(v), Sel::Rows(rows)) => {
                    ColVec::Ints(rows.iter().map(|&r| v[r as usize]).collect())
                }
                (ColumnData::Float64(v), Sel::Rows(rows)) => {
                    ColVec::Floats(rows.iter().map(|&r| v[r as usize]).collect())
                }
                (ColumnData::Utf8(v), Sel::Rows(rows)) => {
                    ColVec::Strs(rows.iter().map(|&r| v.get(r as usize)).collect())
                }
            })
        }
        Expr::Literal(v) => Ok(match v {
            Value::Int(x) => ColVec::ConstInt(*x),
            Value::Float(x) => ColVec::ConstFloat(*x),
            Value::Str(s) => ColVec::ConstStr(s),
        }),
        Expr::Add(a, b) => arith(
            eval_columnar(a, chunk, sel)?,
            eval_columnar(b, chunk, sel)?,
            "+",
            sel.len(),
        ),
        Expr::Sub(a, b) => arith(
            eval_columnar(a, chunk, sel)?,
            eval_columnar(b, chunk, sel)?,
            "-",
            sel.len(),
        ),
        Expr::Mul(a, b) => arith(
            eval_columnar(a, chunk, sel)?,
            eval_columnar(b, chunk, sel)?,
            "*",
            sel.len(),
        ),
    }
}

/// Columnar arithmetic with the exact `numeric()` semantics: checked integer
/// ops (per-element error on overflow), int+float promotion, strings
/// rejected.
fn arith<'a>(a: ColVec<'a>, b: ColVec<'a>, op: &str, n: usize) -> Result<ColVec<'a>> {
    if a.class() == Class::Str || b.class() == Class::Str {
        // Identical message to `numeric()` on a string operand.
        return Err(Error::query(format!("non-numeric operand to {op}")));
    }
    if a.class() == Class::Int && b.class() == Class::Int {
        let f = |x: i64, y: i64| -> Option<i64> {
            match op {
                "+" => x.checked_add(y),
                "-" => x.checked_sub(y),
                "*" => x.checked_mul(y),
                _ => None,
            }
        };
        if a.is_const() && b.is_const() {
            return f(a.int_at(0), b.int_at(0))
                .map(ColVec::ConstInt)
                .ok_or_else(|| Error::query(format!("integer overflow in {op}")));
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match f(a.int_at(i), b.int_at(i)) {
                Some(v) => out.push(v),
                None => return Err(Error::query(format!("integer overflow in {op}"))),
            }
        }
        return Ok(ColVec::Ints(out));
    }
    // Mixed or all-float: promote to f64.
    let f = |x: f64, y: f64| -> f64 {
        match op {
            "+" => x + y,
            "-" => x - y,
            _ => x * y,
        }
    };
    if a.is_const() && b.is_const() {
        return Ok(ColVec::ConstFloat(f(a.f64_at(0), b.f64_at(0))));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(f(a.f64_at(i), b.f64_at(i)));
    }
    Ok(ColVec::Floats(out))
}

/// Per-row comparison over two evaluated columns, matching `Value`'s `Ord`:
/// same-class compares naturally (floats via `partial_cmp` defaulting to
/// `Equal`, like `Value`), cross-class by type-tag rank alone.
fn cmp_at(a: &ColVec<'_>, b: &ColVec<'_>, i: usize) -> Ordering {
    match (a.class(), b.class()) {
        (Class::Int, Class::Int) => a.int_at(i).cmp(&b.int_at(i)),
        (Class::Float, Class::Float) => a
            .float_at(i)
            .partial_cmp(&b.float_at(i))
            .unwrap_or(Ordering::Equal),
        (Class::Str, Class::Str) => a.str_at(i).cmp(b.str_at(i)),
        (ca, cb) => ca.cmp(&cb),
    }
}

fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Equality matching `Value`'s `PartialEq` (NOT its `Ord`): `Value` derives
/// `PartialEq`, so cross-type values are simply unequal and float equality
/// is IEEE (`NaN != NaN`) — whereas `Ord`-based comparison would call two
/// NaNs equal. `Eq`/`Ne` must use this, the ordered operators use `cmp_at`.
fn eq_at(a: &ColVec<'_>, b: &ColVec<'_>, i: usize) -> bool {
    match (a.class(), b.class()) {
        (Class::Int, Class::Int) => a.int_at(i) == b.int_at(i),
        (Class::Float, Class::Float) => a.float_at(i) == b.float_at(i),
        (Class::Str, Class::Str) => a.str_at(i) == b.str_at(i),
        _ => false,
    }
}

/// Sorted-set difference: rows in `all` not in `keep` (both sorted).
fn diff_rows(all: &[u32], keep: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(all.len() - keep.len().min(all.len()));
    let mut k = 0usize;
    for &r in all {
        while k < keep.len() && keep[k] < r {
            k += 1;
        }
        if k < keep.len() && keep[k] == r {
            k += 1;
        } else {
            out.push(r);
        }
    }
    out
}

/// Sorted-set union of two disjoint sorted row lists.
// lint-zone: deterministic
fn merge_rows(a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Filters `sel` down to the rows satisfying `pred`, preserving the row-wise
/// short-circuit structure: `And` evaluates its right side only over the
/// left side's survivors, `Or` only over the left side's failures — so a row
/// the reference evaluator never evaluates an operand for cannot produce a
/// spurious error here either.
fn filter_sel(pred: &Predicate, chunk: &BinaryChunk, sel: Sel) -> Result<Sel> {
    match pred {
        Predicate::Cmp(a, op, b) => {
            let va = eval_columnar(a, chunk, &sel)?;
            let vb = eval_columnar(b, chunk, &sel)?;
            let mut out = Vec::new();
            let eq_like = matches!(op, CmpOp::Eq | CmpOp::Ne);
            for (i, row) in sel.iter().enumerate() {
                let hit = if eq_like {
                    let eq = eq_at(&va, &vb, i);
                    (*op == CmpOp::Eq) == eq
                } else {
                    cmp_holds(*op, cmp_at(&va, &vb, i))
                };
                if hit {
                    out.push(row as u32);
                }
            }
            Ok(Sel::Rows(out))
        }
        Predicate::Like(col, pattern) => {
            let col_expr = Expr::col(*col);
            let v = eval_columnar(&col_expr, chunk, &sel)?;
            let mut out = Vec::new();
            if v.class() == Class::Str {
                for (i, row) in sel.iter().enumerate() {
                    if crate::predicate::like_match(pattern.as_bytes(), v.str_at(i).as_bytes()) {
                        out.push(row as u32);
                    }
                }
            }
            // Non-string column: LIKE is simply false for every row.
            Ok(Sel::Rows(out))
        }
        Predicate::And(a, b) => {
            let left = filter_sel(a, chunk, sel)?;
            filter_sel(b, chunk, left)
        }
        Predicate::Or(a, b) => {
            let all = sel.clone().into_rows();
            let left = filter_sel(a, chunk, sel)?.into_rows();
            let rest = diff_rows(&all, &left);
            let right = filter_sel(b, chunk, Sel::Rows(rest))?.into_rows();
            Ok(Sel::Rows(merge_rows(left, right)))
        }
        Predicate::Not(p) => {
            let all = sel.clone().into_rows();
            let kept = filter_sel(p, chunk, sel)?.into_rows();
            Ok(Sel::Rows(diff_rows(&all, &kept)))
        }
    }
}

/// Push-down selection over a mini-batch holding the predicate's columns:
/// the qualifying rows of `chunk`, ascending. An evaluation error keeps
/// every row, so the exact post-scan filter raises it instead of push-down
/// silently dropping rows the plan without push-down would have failed on.
pub(crate) fn pushdown_rows(pred: &Predicate, chunk: &BinaryChunk) -> Vec<u32> {
    let all = Sel::All(chunk.rows as usize);
    // lint-ok: L017 Err keeps every row; the post-scan filter surfaces it
    filter_sel(pred, chunk, all.clone())
        .unwrap_or(all)
        .into_rows()
}

/// Immutable description of what to aggregate — shared across all per-chunk
/// partials of one query.
#[derive(Debug)]
pub(crate) struct AggSpec {
    pub group_by: Vec<usize>,
    pub aggregates: Vec<AggExpr>,
    pub filter: Option<Predicate>,
}

impl AggSpec {
    /// Snapshot of a query's aggregation shape, shareable with worker tasks.
    pub fn of(q: &Query) -> Arc<AggSpec> {
        Arc::new(AggSpec {
            group_by: q.group_by.iter().map(|c| c.index()).collect(),
            aggregates: q.aggregates.clone(),
            filter: q.filter.clone(),
        })
    }
}

/// Partial aggregation state over a set of chunks; combined with
/// [`AggState::merge`]. This is the unit of work the executor ships to the
/// worker pool (one state per chunk) and the unit it folds afterwards.
pub(crate) struct AggState {
    spec: Arc<AggSpec>,
    groups: HashMap<Vec<Value>, Vec<Accumulator>>,
    pub rows_seen: u64,
}

impl AggState {
    pub fn new(spec: Arc<AggSpec>) -> Self {
        AggState {
            spec,
            // effect-ok: keyed fold; `finish` sorts the rows, so hasher randomness never shows
            groups: HashMap::new(),
            rows_seen: 0,
        }
    }

    fn fresh_accumulators(&self) -> Vec<Accumulator> {
        self.spec
            .aggregates
            .iter()
            .map(|a| Accumulator::new(a.func))
            .collect()
    }

    /// Consumes one chunk with a columnar inner loop: filter once over the
    /// whole chunk, evaluate each aggregate expression over the surviving
    /// selection, then update accumulators per value.
    // lint-zone: deterministic
    pub fn consume_chunk(&mut self, chunk: &BinaryChunk) -> Result<()> {
        let rows = chunk.rows as usize;
        let sel = match &self.spec.filter {
            Some(p) => filter_sel(p, chunk, Sel::All(rows))?,
            None => Sel::All(rows),
        };
        let n = sel.len();
        self.rows_seen += n as u64;
        if n == 0 {
            return Ok(());
        }
        let agg_cols: Vec<ColVec<'_>> = self
            .spec
            .aggregates
            .iter()
            .map(|a| eval_columnar(&a.expr, chunk, &sel))
            .collect::<Result<_>>()?;
        if self.spec.group_by.is_empty() {
            let accs = match self.groups.get_mut(&Vec::new() as &Vec<Value>) {
                Some(a) => a,
                None => {
                    let fresh = self.fresh_accumulators();
                    self.groups.entry(Vec::new()).or_insert(fresh)
                }
            };
            for (acc, col) in accs.iter_mut().zip(&agg_cols) {
                update_batch(acc, col, n)?;
            }
            return Ok(());
        }
        let key_cols: Vec<&ColumnData> = self
            .spec
            .group_by
            .iter()
            .map(|&c| {
                chunk
                    .column(c)
                    .ok_or_else(|| Error::query(format!("group column {c} absent")))
            })
            .collect::<Result<_>>()?;
        for (i, row) in sel.iter().enumerate() {
            let key: Vec<Value> = key_cols
                .iter()
                .map(|c| c.value(row).ok_or_else(|| Error::query("row out of range")))
                .collect::<Result<_>>()?;
            let accs = match self.groups.get_mut(&key) {
                Some(a) => a,
                None => {
                    let fresh = self.fresh_accumulators();
                    self.groups.entry(key).or_insert(fresh)
                }
            };
            for (acc, col) in accs.iter_mut().zip(&agg_cols) {
                acc.update(col.value_at(i))?;
            }
        }
        Ok(())
    }

    /// Folds `other` into `self`. Order-deterministic: the executor calls
    /// this in ascending chunk order, so float accumulation order — the only
    /// order-sensitive part — is identical on every run.
    ///
    /// # Errors
    ///
    /// Propagates accumulator-merge mismatches (impossible for partials of
    /// the same spec).
    // lint-zone: deterministic
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        self.rows_seen += other.rows_seen;
        // Keyed fold: every group key is merged exactly once per partial, so
        // cross-key visitation order cannot reach any accumulator. The
        // order-sensitive part is the executor's ascending chunk-id merge
        // sequence, which is deterministic.
        // lint-ok: L014 keyed fold, each key merged exactly once per partial
        for (key, accs) in other.groups {
            match self.groups.get_mut(&key) {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(accs) {
                        a.merge(b)?;
                    }
                }
                None => {
                    self.groups.insert(key, accs);
                }
            }
        }
        Ok(())
    }

    /// Finishes into result rows sorted by group key.
    // lint-zone: deterministic
    pub fn finish(mut self) -> Result<Vec<ResultRow>> {
        if self.spec.group_by.is_empty() && self.groups.is_empty() {
            // Global aggregate over zero rows still yields one row
            // (SUM = 0, COUNT = 0, MIN/MAX/AVG error).
            let fresh = self.fresh_accumulators();
            self.groups.insert(Vec::new(), fresh);
        }
        let mut rows: Vec<(Vec<Value>, Vec<Accumulator>)> = self.groups.into_iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter()
            .map(|(keys, accs)| {
                Ok(ResultRow {
                    keys,
                    aggregates: accs
                        .into_iter()
                        .map(Accumulator::finish)
                        .collect::<Result<_>>()?,
                })
            })
            .collect()
    }
}

/// Batched accumulator update with fast paths for the hot integer/float SUM
/// loops; semantics identical to per-value [`Accumulator::update`] (checked
/// add per element, mid-stream promotion to float on overflow).
fn update_batch(acc: &mut Accumulator, col: &ColVec<'_>, n: usize) -> Result<()> {
    match (&mut *acc, col.class()) {
        (Accumulator::SumInt(_), Class::Int) => {
            for i in 0..n {
                let x = col.int_at(i);
                match acc {
                    Accumulator::SumInt(a) => match a.checked_add(x) {
                        Some(s) => *a = s,
                        None => *acc = Accumulator::SumFloat(*a as f64 + x as f64),
                    },
                    Accumulator::SumFloat(a) => *a += x as f64,
                    _ => unreachable!("SUM accumulator changed class"),
                }
            }
            Ok(())
        }
        (Accumulator::SumFloat(a), Class::Int) => {
            for i in 0..n {
                *a += col.int_at(i) as f64;
            }
            Ok(())
        }
        (Accumulator::SumFloat(a), Class::Float) => {
            for i in 0..n {
                *a += col.float_at(i);
            }
            Ok(())
        }
        (Accumulator::Count(c), _) => {
            *c += n as u64;
            Ok(())
        }
        (Accumulator::Avg { sum, n: cnt }, Class::Int) => {
            for i in 0..n {
                *sum += col.int_at(i) as f64;
            }
            *cnt += n as u64;
            Ok(())
        }
        (Accumulator::Avg { sum, n: cnt }, Class::Float) => {
            for i in 0..n {
                *sum += col.float_at(i);
            }
            *cnt += n as u64;
            Ok(())
        }
        _ => {
            // Generic path (MIN/MAX, SUM over mixed/string — the latter
            // errors exactly like `Accumulator::update`).
            for i in 0..n {
                acc.update(col.value_at(i))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::Col;
    use crate::reference;
    use scanraw_types::ChunkId;

    /// The columnar kernel's value of `expr` on every row of `chunk`.
    pub(crate) fn columnar_values(expr: &Expr, chunk: &BinaryChunk) -> Result<Vec<Value>> {
        let sel = Sel::All(chunk.rows as usize);
        let v = eval_columnar(expr, chunk, &sel)?;
        Ok((0..sel.len()).map(|i| v.value_at(i)).collect())
    }

    /// The rows of `chunk` the columnar kernel selects for `pred`.
    pub(crate) fn columnar_rows(pred: &Predicate, chunk: &BinaryChunk) -> Result<Vec<u32>> {
        filter_sel(pred, chunk, Sel::All(chunk.rows as usize)).map(Sel::into_rows)
    }

    /// The rows of `chunk` the reference evaluator selects for `pred`.
    pub(crate) fn reference_rows(pred: &Predicate, chunk: &BinaryChunk) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        for (i, row) in reference::chunk_rows(chunk).iter().enumerate() {
            if reference::eval_predicate(pred, row)? {
                out.push(i as u32);
            }
        }
        Ok(out)
    }

    fn chunk(id: u32, ints: Vec<i64>, floats: Vec<f64>, strs: Vec<&str>) -> BinaryChunk {
        let rows = ints.len() as u32;
        BinaryChunk {
            id: ChunkId(id),
            first_row: 0,
            rows,
            columns: vec![
                Some(ColumnData::Int64(ints)),
                Some(ColumnData::Float64(floats)),
                Some(ColumnData::Utf8(strs.into_iter().collect())),
            ],
        }
    }

    fn query(filter: Option<Predicate>, group_by: Vec<usize>, aggregates: Vec<AggExpr>) -> Query {
        Query {
            table: "t".into(),
            filter,
            group_by: group_by.into_iter().map(Col).collect(),
            aggregates,
            pushdown: false,
            projection: None,
        }
    }

    /// Folds `chunks` as the executor does: one partial per chunk, merged in
    /// ascending chunk order.
    fn columnar_fold(q: &Query, chunks: &[BinaryChunk]) -> (Vec<ResultRow>, u64) {
        let spec = AggSpec::of(q);
        let mut total = AggState::new(spec.clone());
        for c in chunks {
            let mut part = AggState::new(spec.clone());
            part.consume_chunk(c).unwrap();
            total.merge(part).unwrap();
        }
        let rows_seen = total.rows_seen;
        (total.finish().unwrap(), rows_seen)
    }

    fn reference_fold(q: &Query, chunks: &[BinaryChunk]) -> (Vec<ResultRow>, u64) {
        let rows: Vec<Vec<Value>> = chunks.iter().flat_map(reference::chunk_rows).collect();
        reference::fold(q, rows.iter().map(Vec::as_slice)).unwrap()
    }

    #[test]
    fn columnar_matches_reference_with_filter() {
        let chunks = vec![
            chunk(0, vec![1, 5, 9], vec![0.5, 1.5, 2.5], vec!["a", "b", "c"]),
            chunk(1, vec![2, 6, 10], vec![3.5, 4.5, 5.5], vec!["d", "e", "f"]),
        ];
        let expr = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        let q = query(
            Some(Predicate::between(0, 2i64, 9i64)),
            vec![],
            vec![AggExpr::sum(expr)],
        );
        let (rows, rows_seen) = columnar_fold(&q, &chunks);
        assert_eq!((rows.clone(), rows_seen), reference_fold(&q, &chunks));
        assert_eq!(rows_seen, 4);
        assert_eq!(rows[0].aggregates[0], Value::Float(6.5 + 11.5 + 5.5 + 10.5));
    }

    #[test]
    fn or_and_not_short_circuit_structure() {
        // Row 0 passes the left arm; the right arm would error on eval
        // (overflow) only for row 0 — the reference never evaluates it there.
        let c = chunk(0, vec![1, i64::MAX], vec![0.0, 0.0], vec!["x", "y"]);
        let or = Predicate::Or(
            Box::new(Predicate::Cmp(Expr::col(0), CmpOp::Eq, Expr::lit(1i64))),
            Box::new(Predicate::Cmp(
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(i64::MAX))),
                CmpOp::Gt,
                Expr::lit(0i64),
            )),
        );
        // Reference: row 0 → left true, right skipped. Row 1 → left false,
        // right evaluated → overflow error. Columnar must agree.
        let rows = reference::chunk_rows(&c);
        assert!(reference::eval_predicate(&or, &rows[0]).unwrap());
        assert!(reference::eval_predicate(&or, &rows[1]).is_err());
        let err = columnar_rows(&or, &c).unwrap_err();
        assert!(err.to_string().contains("integer overflow"), "{err}");

        // Restricting the selection to row 0 must succeed.
        match filter_sel(&or, &c, Sel::Rows(vec![0])).unwrap() {
            Sel::Rows(r) => assert_eq!(r, vec![0]),
            Sel::All(_) => unreachable!(),
        }
    }

    #[test]
    fn pushdown_keeps_every_row_when_evaluation_fails() {
        let c = chunk(0, vec![1, i64::MAX, 3], vec![0.0; 3], vec!["x", "y", "z"]);
        let overflowing = Predicate::Cmp(
            Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(i64::MAX))),
            CmpOp::Gt,
            Expr::lit(0i64),
        );
        assert!(columnar_rows(&overflowing, &c).is_err());
        assert_eq!(pushdown_rows(&overflowing, &c), vec![0, 1, 2]);
        // Without an error, push-down selects exactly the kernel's rows.
        let odd = Predicate::Cmp(Expr::col(0), CmpOp::Ne, Expr::lit(i64::MAX));
        assert_eq!(pushdown_rows(&odd, &c), reference_rows(&odd, &c).unwrap());
        assert_eq!(pushdown_rows(&odd, &c), vec![0, 2]);
    }

    #[test]
    fn cross_type_comparison_matches_value_ord() {
        // Value's Ord ranks Int < Float regardless of magnitude; the
        // columnar comparator must agree with the reference evaluator.
        let c = chunk(0, vec![i64::MAX], vec![f64::MIN], vec!["s"]);
        let lt = Predicate::Cmp(Expr::col(0), CmpOp::Lt, Expr::col(1));
        assert_eq!(columnar_rows(&lt, &c).unwrap(), vec![0]);
        assert_eq!(reference_rows(&lt, &c).unwrap(), vec![0]);
        // But equality follows PartialEq: cross-type is unequal, so Ne holds.
        let ne = Predicate::Cmp(Expr::col(0), CmpOp::Ne, Expr::col(1));
        assert_eq!(columnar_rows(&ne, &c).unwrap(), vec![0]);
        assert_eq!(reference_rows(&ne, &c).unwrap(), vec![0]);
    }

    #[test]
    fn group_by_merge_matches_single_state_and_reference() {
        let chunks = vec![
            chunk(0, vec![1, 2, 1], vec![1.0, 2.0, 3.0], vec!["a", "b", "a"]),
            chunk(1, vec![2, 1, 3], vec![4.0, 5.0, 6.0], vec!["b", "a", "c"]),
        ];
        let q = query(
            None,
            vec![0],
            vec![AggExpr::sum(Expr::col(1)), AggExpr::count()],
        );
        // One state consuming everything vs merged per-chunk partials.
        let mut whole = AggState::new(AggSpec::of(&q));
        for c in &chunks {
            whole.consume_chunk(c).unwrap();
        }
        let (merged, _) = columnar_fold(&q, &chunks);
        assert_eq!(whole.finish().unwrap(), merged);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged, reference_fold(&q, &chunks).0);
    }

    #[test]
    fn like_filter_columnar() {
        let c = chunk(0, vec![1, 2, 3], vec![0.0; 3], vec!["100M", "50I", "90M"]);
        let p = Predicate::like(2, "%M");
        assert_eq!(columnar_rows(&p, &c).unwrap(), vec![0, 2]);
        assert_eq!(reference_rows(&p, &c).unwrap(), vec![0, 2]);
        // LIKE over a non-string column: false everywhere.
        let p = Predicate::like(0, "%");
        assert!(columnar_rows(&p, &c).unwrap().is_empty());
        assert!(reference_rows(&p, &c).unwrap().is_empty());
    }

    #[test]
    fn sum_overflow_promotes_mid_chunk() {
        let chunks = vec![chunk(
            0,
            vec![i64::MAX, 1, 1],
            vec![0.0; 3],
            vec!["x", "y", "z"],
        )];
        let q = query(None, vec![], vec![AggExpr::sum(Expr::col(0))]);
        let (rows, _) = columnar_fold(&q, &chunks);
        match &rows[0].aggregates[0] {
            Value::Float(f) => assert!(*f > 9.2e18, "{f}"),
            other => panic!("expected promoted float, got {other:?}"),
        }
        assert_eq!(rows, reference_fold(&q, &chunks).0);
    }
}
