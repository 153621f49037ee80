//! Column-major run batches and vectorized operator kernels.
//!
//! PR 4 made execution batch-at-a-time, but a batch was still a `Vec` of
//! row [`Tuple`]s: every operator hop loops over pointer-chasing rows, and
//! every join result pays an `Arc<[Value]>` allocation.  This module adds the
//! column-major alternative: a [`ColumnBatch`] stores a timestamp-contiguous
//! run as per-field typed column vectors (`Int`/`Float`/`Bool` as flat
//! primitive vectors, `Str` as shared `Arc<str>` handles, with validity masks
//! for `Null`s and a `Mixed` fallback for heterogeneous fields), plus
//! parallel per-row metadata columns (timestamp, stream, origin span, role,
//! lineage).
//!
//! Conversion at executor boundaries is as close to zero-copy as the row
//! representation allows: primitives are memcpy'd and string payloads are
//! reference-counted handles, never deep copies
//! ([`ColumnBatch::push_tuple`], [`ColumnBatch::materialize`]).
//!
//! Two operator kernels run as tight per-column loops:
//!
//! * **predicate evaluation** ([`eval_predicate`]) produces a *selection
//!   vector* of passing row indices.  Counting is exactly per-row
//!   [`Predicate::eval_counted`]'s: `And` refines the selection (the right
//!   operand is evaluated — and counted — only on rows the left passed),
//!   `Or` evaluates the right operand only on the left's complement, `Not`
//!   complements.  Filter-comparison counters are therefore bit-identical to
//!   the row path's.
//! * **row-range append** ([`ColumnBatch::push_rows_from`]) copies a
//!   contiguous row range of one batch onto another with one
//!   `extend_from_slice` per column — how the order-preserving union
//!   re-coalesces what it releases — leaving exactly the columns, masks and
//!   `Mixed` degradations appending the rows one by one would.

use std::ops::Range;
use std::sync::Arc;

use crate::predicate::{CmpOp, Predicate};
use crate::time::{TimeDelta, Timestamp};
use crate::tuple::{StreamId, Tuple, TupleRole, Value};

/// Typed storage of one payload field across the rows of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Flat 64-bit integers.
    Int(Vec<i64>),
    /// Flat 64-bit floats.
    Float(Vec<f64>),
    /// Shared string handles (cloning a batch or materializing a row bumps
    /// reference counts, never copies payload bytes).
    Str(Vec<Arc<str>>),
    /// Flat booleans.
    Bool(Vec<bool>),
    /// Heterogeneous fallback: rows of this field carried differently-typed
    /// values, so they are stored as plain [`Value`]s (including `Null`s).
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional validity mask (`false` = the row's
/// value is `Null`).  A missing mask means every row is valid.  `Mixed`
/// columns never use a mask — they store `Value::Null` inline.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedColumn {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl TypedColumn {
    /// A fresh column holding `v` as its only row.  The first value picks the
    /// column type; a leading `Null` starts `Mixed` (no type to commit to).
    fn with_first(v: &Value) -> TypedColumn {
        let mut col = TypedColumn {
            data: match v {
                Value::Int(_) => ColumnData::Int(Vec::new()),
                Value::Float(_) => ColumnData::Float(Vec::new()),
                Value::Str(_) => ColumnData::Str(Vec::new()),
                Value::Bool(_) => ColumnData::Bool(Vec::new()),
                Value::Null => ColumnData::Mixed(Vec::new()),
            },
            validity: None,
        };
        col.push(v);
        col
    }

    fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(xs) => xs.len(),
            ColumnData::Float(xs) => xs.len(),
            ColumnData::Str(xs) => xs.len(),
            ColumnData::Bool(xs) => xs.len(),
            ColumnData::Mixed(xs) => xs.len(),
        }
    }

    /// Append a value, degrading to `Mixed` if it does not fit the column
    /// type (a `Null` fits any typed column via the validity mask).
    fn push(&mut self, v: &Value) {
        if let ColumnData::Mixed(xs) = &mut self.data {
            xs.push(v.clone());
            return;
        }
        let compatible = matches!(
            (&self.data, v),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_))
                | (ColumnData::Str(_), Value::Str(_))
                | (ColumnData::Bool(_), Value::Bool(_))
                | (_, Value::Null)
        );
        if !compatible {
            self.degrade_to_mixed();
            if let ColumnData::Mixed(xs) = &mut self.data {
                xs.push(v.clone());
            }
            return;
        }
        let len = self.len();
        match (&mut self.data, v) {
            (ColumnData::Int(xs), Value::Int(x)) => xs.push(*x),
            (ColumnData::Int(xs), _) => xs.push(0),
            (ColumnData::Float(xs), Value::Float(x)) => xs.push(*x),
            (ColumnData::Float(xs), _) => xs.push(0.0),
            (ColumnData::Str(xs), Value::Str(s)) => xs.push(Arc::clone(s)),
            (ColumnData::Str(xs), _) => xs.push(Arc::from("")),
            (ColumnData::Bool(xs), Value::Bool(b)) => xs.push(*b),
            (ColumnData::Bool(xs), _) => xs.push(false),
            (ColumnData::Mixed(_), _) => unreachable!("mixed handled above"),
        }
        if matches!(v, Value::Null) {
            self.validity
                .get_or_insert_with(|| vec![true; len])
                .push(false);
        } else if let Some(mask) = &mut self.validity {
            mask.push(true);
        }
    }

    /// Append rows `range` of `src` — exactly what pushing
    /// `src.value_at(i)` for each `i` would leave behind, mask and `Mixed`
    /// degradation included, but one `extend_from_slice` per column when
    /// both sides store the same type.
    fn extend_from(&mut self, src: &TypedColumn, range: Range<usize>) {
        let old_len = self.len();
        match (&mut self.data, &src.data) {
            (ColumnData::Int(dst), ColumnData::Int(xs)) => {
                dst.extend_from_slice(&xs[range.clone()])
            }
            (ColumnData::Float(dst), ColumnData::Float(xs)) => {
                dst.extend_from_slice(&xs[range.clone()])
            }
            (ColumnData::Str(dst), ColumnData::Str(xs)) => {
                dst.extend_from_slice(&xs[range.clone()])
            }
            (ColumnData::Bool(dst), ColumnData::Bool(xs)) => {
                dst.extend_from_slice(&xs[range.clone()])
            }
            (ColumnData::Mixed(dst), ColumnData::Mixed(xs)) => {
                dst.extend_from_slice(&xs[range]);
                return; // `Mixed` stores its nulls inline
            }
            _ => {
                // Different types: row by row, degrading where a row forces it.
                for i in range {
                    self.push(&src.value_at(i));
                }
                return;
            }
        }
        match (&src.validity, &mut self.validity) {
            (Some(src_mask), _) if src_mask[range.clone()].contains(&false) => self
                .validity
                .get_or_insert_with(|| vec![true; old_len])
                .extend_from_slice(&src_mask[range]),
            (_, Some(mask)) => mask.resize(old_len + range.len(), true),
            _ => {}
        }
    }

    fn degrade_to_mixed(&mut self) {
        let values: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
        self.data = ColumnData::Mixed(values);
        self.validity = None;
    }

    /// The row's value as a [`Value`] (primitives by copy, strings by
    /// reference-count bump).
    pub fn value_at(&self, i: usize) -> Value {
        if let Some(mask) = &self.validity {
            if !mask[i] {
                return Value::Null;
            }
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Float(xs) => Value::Float(xs[i]),
            ColumnData::Str(xs) => Value::Str(Arc::clone(&xs[i])),
            ColumnData::Bool(xs) => Value::Bool(xs[i]),
            ColumnData::Mixed(xs) => xs[i].clone(),
        }
    }

    /// Gather the given rows into a new column.
    fn gather(&self, rows: &[u32]) -> TypedColumn {
        let data = match &self.data {
            ColumnData::Int(xs) => ColumnData::Int(rows.iter().map(|&r| xs[r as usize]).collect()),
            ColumnData::Float(xs) => {
                ColumnData::Float(rows.iter().map(|&r| xs[r as usize]).collect())
            }
            ColumnData::Str(xs) => {
                ColumnData::Str(rows.iter().map(|&r| Arc::clone(&xs[r as usize])).collect())
            }
            ColumnData::Bool(xs) => {
                ColumnData::Bool(rows.iter().map(|&r| xs[r as usize]).collect())
            }
            ColumnData::Mixed(xs) => {
                ColumnData::Mixed(rows.iter().map(|&r| xs[r as usize].clone()).collect())
            }
        };
        let validity = self
            .validity
            .as_ref()
            .map(|mask| rows.iter().map(|&r| mask[r as usize]).collect());
        TypedColumn { data, validity }
    }

    /// The typed data vector (read-only; for kernels and benches).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }
}

/// A timestamp-contiguous run of tuples in column-major layout.
///
/// Rows must be appended in timestamp order (the same operator contract as
/// everywhere else in this tree); [`ColumnBatch::first_ts`] is the batch's
/// position in the global order.  All rows share one payload arity — an
/// append of a different arity is rejected (`false`) so the caller can flush
/// the batch and start a new one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    ts: Vec<Timestamp>,
    stream: Vec<StreamId>,
    origin_span: Vec<TimeDelta>,
    role: Vec<TupleRole>,
    lineage: Vec<u32>,
    columns: Vec<TypedColumn>,
}

impl ColumnBatch {
    /// An empty batch.  The first appended row fixes the payload arity.
    pub fn new() -> ColumnBatch {
        ColumnBatch::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// `true` if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Payload arity (0 for an empty batch).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Timestamp of the first row — the batch's position in the stream's
    /// global timestamp order.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.ts.first().copied()
    }

    /// Timestamp of the last row.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.ts.last().copied()
    }

    /// Timestamp of row `i`.
    pub fn ts_at(&self, i: usize) -> Timestamp {
        self.ts[i]
    }

    /// The rows' timestamps, in row order.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.ts
    }

    /// The rows' streams, in row order.
    pub fn streams(&self) -> &[StreamId] {
        &self.stream
    }

    /// The rows' origin spans (`|Ta - Tb|` of joined rows), in row order.
    pub fn origin_spans(&self) -> &[TimeDelta] {
        &self.origin_span
    }

    /// The payload columns.
    pub fn columns(&self) -> &[TypedColumn] {
        &self.columns
    }

    /// Append a row copied out of a [`Tuple`].  Returns `false` (appending
    /// nothing) if the tuple's arity differs from the batch's.
    pub fn push_tuple(&mut self, t: &Tuple) -> bool {
        if !self.push_payload(t.values.iter(), t.arity()) {
            return false;
        }
        self.ts.push(t.ts);
        self.stream.push(t.stream);
        self.origin_span.push(t.origin_span);
        self.role.push(t.role);
        self.lineage.push(t.lineage);
        true
    }

    /// Append the join of two tuples — the columnar form of [`Tuple::join`]
    /// (max timestamp, |Ta-Tb| origin span, `Regular` role, min lineage,
    /// concatenated payload) without the per-row `Arc<[Value]>` allocation
    /// that makes the row path's result handling hot.
    pub fn push_join(&mut self, left: &Tuple, right: &Tuple, out_stream: StreamId) -> bool {
        let arity = left.arity() + right.arity();
        if !self.push_payload(left.values.iter().chain(right.values.iter()), arity) {
            return false;
        }
        self.ts.push(left.ts.max(right.ts));
        self.stream.push(out_stream);
        self.origin_span.push(left.ts.abs_diff(right.ts));
        self.role.push(TupleRole::Regular);
        self.lineage.push(left.lineage.min(right.lineage));
        true
    }

    /// Append row `i` of another batch.  Returns `false` on arity mismatch.
    /// The row-at-a-time reference [`ColumnBatch::push_rows_from`] is tested
    /// against.
    pub fn push_row_from(&mut self, src: &ColumnBatch, i: usize) -> bool {
        if self.ts.is_empty() {
            self.columns = src
                .columns
                .iter()
                .map(|c| TypedColumn::with_first(&c.value_at(i)))
                .collect();
        } else if src.columns.len() != self.columns.len() {
            return false;
        } else {
            for (dst, sc) in self.columns.iter_mut().zip(&src.columns) {
                dst.push(&sc.value_at(i));
            }
        }
        self.ts.push(src.ts[i]);
        self.stream.push(src.stream[i]);
        self.origin_span.push(src.origin_span[i]);
        self.role.push(src.role[i]);
        self.lineage.push(src.lineage[i]);
        true
    }

    /// Append rows `range` of another batch column-wise: the same rows, masks
    /// and column types repeated [`ColumnBatch::push_row_from`] would leave,
    /// at one `extend_from_slice` per column where the types agree.  Returns
    /// `false` (appending nothing) on arity mismatch; an empty range appends
    /// nothing and succeeds.
    pub fn push_rows_from(&mut self, src: &ColumnBatch, range: Range<usize>) -> bool {
        if range.is_empty() {
            return true;
        }
        let mut rest = range.clone();
        if self.ts.is_empty() {
            // The first row picks the column types, as a row append would.
            self.columns = src
                .columns
                .iter()
                .map(|c| TypedColumn::with_first(&c.value_at(range.start)))
                .collect();
            rest.start += 1;
        } else if src.columns.len() != self.columns.len() {
            return false;
        }
        for (dst, sc) in self.columns.iter_mut().zip(&src.columns) {
            dst.extend_from(sc, rest.clone());
        }
        self.ts.extend_from_slice(&src.ts[range.clone()]);
        self.stream.extend_from_slice(&src.stream[range.clone()]);
        self.origin_span
            .extend_from_slice(&src.origin_span[range.clone()]);
        self.role.extend_from_slice(&src.role[range.clone()]);
        self.lineage.extend_from_slice(&src.lineage[range]);
        true
    }

    fn push_payload<'a>(&mut self, values: impl Iterator<Item = &'a Value>, arity: usize) -> bool {
        if self.ts.is_empty() {
            self.columns = values.map(TypedColumn::with_first).collect();
            true
        } else if arity != self.columns.len() {
            false
        } else {
            for (col, v) in self.columns.iter_mut().zip(values) {
                col.push(v);
            }
            true
        }
    }

    /// Build a batch from a slice of tuples.  `None` if the slice is empty
    /// or the tuples disagree on arity.
    pub fn from_tuples(tuples: &[Tuple]) -> Option<ColumnBatch> {
        if tuples.is_empty() {
            return None;
        }
        let mut batch = ColumnBatch::new();
        for t in tuples {
            if !batch.push_tuple(t) {
                return None;
            }
        }
        Some(batch)
    }

    /// Materialize row `i` as a [`Tuple`].
    pub fn row(&self, i: usize) -> Tuple {
        let values: Arc<[Value]> = self.columns.iter().map(|c| c.value_at(i)).collect();
        Tuple {
            ts: self.ts[i],
            stream: self.stream[i],
            values,
            origin_span: self.origin_span[i],
            role: self.role[i],
            lineage: self.lineage[i],
            key_hash: None,
        }
    }

    /// Materialize every row, in order.
    pub fn materialize(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// Gather the given rows (ascending batch indices) into a new batch.
    pub fn gather(&self, rows: &[u32]) -> ColumnBatch {
        ColumnBatch {
            ts: rows.iter().map(|&r| self.ts[r as usize]).collect(),
            stream: rows.iter().map(|&r| self.stream[r as usize]).collect(),
            origin_span: rows.iter().map(|&r| self.origin_span[r as usize]).collect(),
            role: rows.iter().map(|&r| self.role[r as usize]).collect(),
            lineage: rows.iter().map(|&r| self.lineage[r as usize]).collect(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
        }
    }
}

/// Evaluate `pred` over every row of `batch`, returning the selection vector
/// of passing row indices (ascending) and adding the number of value
/// comparisons to `comparisons` — exactly the count the row path's
/// [`Predicate::eval_counted`] would report over the same rows.
pub fn eval_predicate(pred: &Predicate, batch: &ColumnBatch, comparisons: &mut u64) -> Vec<u32> {
    let scope: Vec<u32> = (0..batch.len() as u32).collect();
    let mut out = Vec::with_capacity(batch.len());
    eval_predicate_into(pred, batch, &scope, &mut out, comparisons);
    out
}

/// Evaluate `pred` over the rows listed in `scope` (ascending), writing the
/// passing subset into `out` (cleared first, order preserved).
///
/// Counting matches short-circuit row evaluation exactly: `And(a, b)` counts
/// `b` only on rows that passed `a`, `Or(a, b)` counts `b` only on rows that
/// failed `a`, and a `Compare`/`CompareFields` counts one comparison per
/// scoped row (even when the field is out of range — the row path counts
/// before it looks the field up).
pub fn eval_predicate_into(
    pred: &Predicate,
    batch: &ColumnBatch,
    scope: &[u32],
    out: &mut Vec<u32>,
    comparisons: &mut u64,
) {
    out.clear();
    match pred {
        Predicate::True => out.extend_from_slice(scope),
        Predicate::False => {}
        Predicate::Compare { field, op, value } => {
            *comparisons += scope.len() as u64;
            if let Some(col) = batch.columns.get(*field) {
                compare_const(col, scope, *op, value, out);
            }
        }
        Predicate::CompareFields { left, op, right } => {
            *comparisons += scope.len() as u64;
            if let (Some(a), Some(b)) = (batch.columns.get(*left), batch.columns.get(*right)) {
                compare_fields(a, b, scope, *op, out);
            }
        }
        Predicate::And(a, b) => {
            let mut pass_a = Vec::new();
            eval_predicate_into(a, batch, scope, &mut pass_a, comparisons);
            eval_predicate_into(b, batch, &pass_a, out, comparisons);
        }
        Predicate::Or(a, b) => {
            let mut pass_a = Vec::new();
            eval_predicate_into(a, batch, scope, &mut pass_a, comparisons);
            let mut fail_a = Vec::new();
            complement(scope, &pass_a, &mut fail_a);
            let mut pass_b = Vec::new();
            eval_predicate_into(b, batch, &fail_a, &mut pass_b, comparisons);
            merge_sorted(&pass_a, &pass_b, out);
        }
        Predicate::Not(p) => {
            let mut pass = Vec::new();
            eval_predicate_into(p, batch, scope, &mut pass, comparisons);
            complement(scope, &pass, out);
        }
    }
}

/// Tight per-column compare-against-constant loop.  The `Int`/`Float`
/// no-null fast paths inline the primitive comparison; everything else goes
/// through [`Value::compare`], whose semantics they replicate exactly.
fn compare_const(col: &TypedColumn, scope: &[u32], op: CmpOp, konst: &Value, out: &mut Vec<u32>) {
    match (&col.data, konst, &col.validity) {
        (ColumnData::Int(xs), Value::Int(k), None) => {
            for &r in scope {
                if op.apply(xs[r as usize].cmp(k)) {
                    out.push(r);
                }
            }
        }
        (ColumnData::Float(xs), Value::Float(k), None) => {
            for &r in scope {
                let ord = xs[r as usize]
                    .partial_cmp(k)
                    .unwrap_or(std::cmp::Ordering::Equal);
                if op.apply(ord) {
                    out.push(r);
                }
            }
        }
        _ => {
            for &r in scope {
                if op.apply(col.value_at(r as usize).compare(konst)) {
                    out.push(r);
                }
            }
        }
    }
}

fn compare_fields(a: &TypedColumn, b: &TypedColumn, scope: &[u32], op: CmpOp, out: &mut Vec<u32>) {
    match (&a.data, &a.validity, &b.data, &b.validity) {
        (ColumnData::Int(xs), None, ColumnData::Int(ys), None) => {
            for &r in scope {
                if op.apply(xs[r as usize].cmp(&ys[r as usize])) {
                    out.push(r);
                }
            }
        }
        _ => {
            for &r in scope {
                if op.apply(a.value_at(r as usize).compare(&b.value_at(r as usize))) {
                    out.push(r);
                }
            }
        }
    }
}

/// `out` = `scope` minus `subset` (`subset` ⊆ `scope`, both ascending).
fn complement(scope: &[u32], subset: &[u32], out: &mut Vec<u32>) {
    let mut j = 0;
    for &r in scope {
        if j < subset.len() && subset[j] == r {
            j += 1;
        } else {
            out.push(r);
        }
    }
}

/// Merge two disjoint ascending index lists into `out` (ascending).
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64, vals: &[i64]) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, vals)
    }

    fn tv(secs: u64, vals: Vec<Value>) -> Tuple {
        Tuple::new(Timestamp::from_secs(secs), StreamId::B, vals)
    }

    #[test]
    fn round_trip_preserves_rows() {
        let mut rows = vec![
            tv(1, vec![Value::Int(1), Value::str("a"), Value::Bool(true)]),
            tv(2, vec![Value::Int(2), Value::str("b"), Value::Null]),
            tv(3, vec![Value::Null, Value::str("c"), Value::Bool(false)]),
        ];
        rows[1].role = TupleRole::Male;
        rows[2].lineage = 4;
        rows[2].origin_span = TimeDelta::from_secs(7);
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.first_ts(), Some(Timestamp::from_secs(1)));
        assert_eq!(batch.last_ts(), Some(Timestamp::from_secs(3)));
        assert_eq!(batch.materialize(), rows);
    }

    #[test]
    fn column_types_degrade_to_mixed_when_needed() {
        let rows = vec![
            tv(1, vec![Value::Int(1)]),
            tv(2, vec![Value::Null]),
            tv(3, vec![Value::str("x")]),
            tv(4, vec![Value::Float(2.5)]),
        ];
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        assert!(matches!(batch.columns()[0].data(), ColumnData::Mixed(_)));
        assert_eq!(batch.materialize(), rows);
        // A pure Int-with-null column keeps its typed layout and a mask.
        let rows = vec![tv(1, vec![Value::Int(1)]), tv(2, vec![Value::Null])];
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        assert!(matches!(batch.columns()[0].data(), ColumnData::Int(_)));
        assert_eq!(batch.materialize(), rows);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut batch = ColumnBatch::new();
        assert!(batch.push_tuple(&t(1, &[1, 2])));
        assert!(!batch.push_tuple(&t(2, &[1])));
        assert_eq!(batch.len(), 1);
        assert!(ColumnBatch::from_tuples(&[t(1, &[1, 2]), t(2, &[3])]).is_none());
        assert!(ColumnBatch::from_tuples(&[]).is_none());
    }

    #[test]
    fn push_join_matches_tuple_join() {
        let pairs = [
            (t(5, &[7, 1]), t(2, &[7, 9])),
            (t(3, &[8, 2]), t(6, &[8, 0])),
        ];
        let mut batch = ColumnBatch::new();
        for (l, r) in &pairs {
            assert!(batch.push_join(l, r, StreamId(9)));
        }
        let want: Vec<Tuple> = pairs
            .iter()
            .map(|(l, r)| Tuple::join(l, r, StreamId(9)))
            .collect();
        assert_eq!(batch.materialize(), want);
    }

    #[test]
    fn push_row_from_copies_rows_across_batches() {
        let rows = vec![
            tv(1, vec![Value::Int(1), Value::str("a")]),
            tv(2, vec![Value::Null, Value::str("b")]),
            tv(3, vec![Value::Int(3), Value::str("c")]),
        ];
        let src = ColumnBatch::from_tuples(&rows).unwrap();
        let mut dst = ColumnBatch::new();
        assert!(dst.push_row_from(&src, 2));
        assert!(dst.push_row_from(&src, 0));
        assert_eq!(dst.materialize(), vec![rows[2].clone(), rows[0].clone()]);
        let other_arity = ColumnBatch::from_tuples(&[t(9, &[1])]).unwrap();
        assert!(!dst.push_row_from(&other_arity, 0));
    }

    #[test]
    fn push_rows_from_equals_repeated_push_row_from() {
        // Typed Int/Float/Str/Bool columns, a masked column, and a column
        // that is `Mixed` in the source.
        let typed: Vec<Tuple> = (0..6)
            .map(|i| {
                tv(
                    i,
                    vec![
                        Value::Int(i as i64),
                        Value::Float(i as f64 / 2.0),
                        Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                        Value::Bool(i % 3 == 0),
                        if i == 2 || i == 3 {
                            Value::Null
                        } else {
                            Value::Int(10 * i as i64)
                        },
                    ],
                )
            })
            .collect();
        let typed = ColumnBatch::from_tuples(&typed).unwrap();
        assert!(typed.columns()[4].validity.is_some(), "column 4 is masked");
        // Same arity, but column 0 turns to `Str` at row 2: appending rows
        // 1..4 of it to `typed`'s Int column degrades that column mid-range.
        let degrading: Vec<Tuple> = (0..5)
            .map(|i| {
                let first = if i < 2 {
                    Value::Int(100 + i as i64)
                } else {
                    Value::str("late")
                };
                tv(
                    10 + i,
                    vec![
                        first,
                        Value::Float(0.5),
                        Value::str("s"),
                        Value::Bool(true),
                        Value::Null,
                    ],
                )
            })
            .collect();
        let degrading = ColumnBatch::from_tuples(&degrading).unwrap();
        assert!(matches!(
            degrading.columns()[0].data(),
            ColumnData::Mixed(_)
        ));

        // Every sequence of appends must leave the same batch either way —
        // rows, column types and masks (`ColumnBatch: PartialEq` sees all).
        let sequences: [&[(&ColumnBatch, Range<usize>)]; 6] = [
            &[(&typed, 0..6)],
            &[(&typed, 0..2), (&typed, 2..6)], // the mask starts mid-append
            &[(&typed, 2..4), (&typed, 0..2)], // leading Null: starts `Mixed`
            &[(&typed, 4..6), (&typed, 3..3), (&typed, 0..1)], // empty range
            &[(&typed, 0..3), (&degrading, 1..4), (&typed, 3..5)],
            &[(&degrading, 0..2), (&typed, 1..4)], // typed rows onto `Mixed`
        ];
        for appends in sequences {
            let mut by_range = ColumnBatch::new();
            let mut by_row = ColumnBatch::new();
            for (src, range) in appends {
                assert!(by_range.push_rows_from(src, range.clone()));
                for i in range.clone() {
                    assert!(by_row.push_row_from(src, i));
                }
            }
            assert_eq!(by_range, by_row, "appends {appends:?}");
            assert_eq!(by_range.materialize(), by_row.materialize());
        }

        // After the degrading append column 0 is `Mixed`, the rest typed.
        let mut dst = ColumnBatch::new();
        assert!(dst.push_rows_from(&typed, 0..3));
        assert!(matches!(dst.columns()[0].data(), ColumnData::Int(_)));
        assert!(dst.push_rows_from(&degrading, 1..4));
        assert!(matches!(dst.columns()[0].data(), ColumnData::Mixed(_)));
        assert!(matches!(dst.columns()[1].data(), ColumnData::Float(_)));

        // Arity mismatch: rejected, nothing appended.
        let before = dst.clone();
        let narrow = ColumnBatch::from_tuples(&[t(9, &[1])]).unwrap();
        assert!(!dst.push_rows_from(&narrow, 0..1));
        assert_eq!(dst, before);
        assert!(dst.push_rows_from(&typed, 5..6));
        assert_eq!(dst.len(), before.len() + 1);
    }

    #[test]
    fn predicate_kernel_matches_row_eval_exactly() {
        // Pseudo-random rows, a zoo of predicates: the kernel's pass set AND
        // its comparison count must equal per-row eval_counted.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let rows: Vec<Tuple> = (0..200)
            .map(|i| {
                let a = (next() % 10) as i64;
                let b = (next() % 10) as i64;
                let v = if next() % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int((next() % 100) as i64)
                };
                tv(i, vec![Value::Int(a), Value::Int(b), v])
            })
            .collect();
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        let preds = [
            Predicate::True,
            Predicate::False,
            Predicate::gt(0, 4i64),
            Predicate::eq(2, 50i64),
            Predicate::cmp(2, CmpOp::Le, Value::Null),
            Predicate::gt(7, 0i64), // out-of-range field
            Predicate::CompareFields {
                left: 0,
                op: CmpOp::Lt,
                right: 1,
            },
            Predicate::gt(0, 4i64).and(Predicate::le(1, 6i64)),
            Predicate::gt(0, 7i64).or(Predicate::le(1, 2i64)),
            Predicate::gt(0, 4i64).negate(),
            Predicate::gt(0, 2i64)
                .and(Predicate::le(1, 8i64).or(Predicate::eq(2, 3i64)))
                .and(Predicate::gt(7, 0i64).negate()),
        ];
        for pred in &preds {
            let mut kernel_count = 0u64;
            let selection = eval_predicate(pred, &batch, &mut kernel_count);
            let mut row_count = 0u64;
            let want: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| pred.eval_counted(r, &mut row_count))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(selection, want, "selection mismatch for {pred:?}");
            assert_eq!(kernel_count, row_count, "count mismatch for {pred:?}");
        }
    }

    #[test]
    fn gather_subsets_rows_and_keeps_key_classes() {
        let rows = vec![t(1, &[7, 0]), t(2, &[8, 1]), t(3, &[7, 2]), t(4, &[9, 3])];
        let batch = ColumnBatch::from_tuples(&rows).unwrap();
        let sub = batch.gather(&[0, 2]);
        assert_eq!(
            sub.materialize(),
            vec![batch.row(0), batch.row(2)],
            "gathered rows"
        );
        // The key column keeps its type and the gathered rows' values.
        assert_eq!(sub.columns()[0].data(), &ColumnData::Int(vec![7, 7]));
    }
}
