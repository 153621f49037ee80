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
//! * **multi-source gather** ([`gather_rows`]) fills batches of exact size
//!   with rows picked from several batches in any order, a column at a
//!   time — how the order-preserving union re-coalesces what it releases —
//!   leaving exactly the columns, masks and `Mixed` degradations appending
//!   the rows one by one would.
//!
//! A sliced chain delivers each query's rows as *views* (`view_rows`):
//! batches that name their rows as `(source, row)` pairs over its slices'
//! result buffers, shared behind one `Arc`, and copy nothing until read.
//! Which reads gather:
//!
//! * **through the pairs, nothing gathered:** [`ColumnBatch::len`],
//!   [`ColumnBatch::is_empty`], [`ColumnBatch::arity`],
//!   [`ColumnBatch::ts_at`], [`ColumnBatch::for_each_ts`],
//!   [`ColumnBatch::first_ts`] and [`ColumnBatch::last_ts`] — all a
//!   counting sink reads;
//! * **gathered once, then read from the gathered batch:**
//!   [`ColumnBatch::timestamps`], [`ColumnBatch::streams`],
//!   [`ColumnBatch::origin_spans`], [`ColumnBatch::columns`],
//!   [`ColumnBatch::row`], [`ColumnBatch::materialize`],
//!   [`ColumnBatch::gather`], the [`eval_predicate`] kernels, a
//!   [`gather_rows`] over the view, and equality and `Debug`;
//! * **writes** ([`ColumnBatch::push_tuple`], [`ColumnBatch::push_join`],
//!   `drain_front`) first make the view its gathered batch.
//!
//! The gathered batch is [`gather_rows`]'s, so a view and the batch a gather
//! of the same rows builds are indistinguishable to every reader.

use std::fmt;
use std::iter::zip;
use std::sync::{Arc, OnceLock};

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

    /// Make `v` the column's only row, exactly as [`TypedColumn::with_first`]
    /// would, but in the column's own storage when `v` picks its type.
    fn restart(&mut self, v: &Value) {
        let same_type = matches!(
            (&self.data, v),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_))
                | (ColumnData::Str(_), Value::Str(_))
                | (ColumnData::Bool(_), Value::Bool(_))
                | (ColumnData::Mixed(_), Value::Null)
        );
        if same_type {
            // A column of an empty batch holds no rows.
            self.validity = None;
            self.push(v);
        } else {
            *self = TypedColumn::with_first(v);
        }
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

    /// Remove the first `n` rows, keeping the storage.
    fn drain_front(&mut self, n: usize) {
        match &mut self.data {
            ColumnData::Int(xs) => drop(xs.drain(..n)),
            ColumnData::Float(xs) => drop(xs.drain(..n)),
            ColumnData::Str(xs) => drop(xs.drain(..n)),
            ColumnData::Bool(xs) => drop(xs.drain(..n)),
            ColumnData::Mixed(xs) => drop(xs.drain(..n)),
        }
        if let Some(mask) = &mut self.validity {
            mask.drain(..n);
        }
    }

    /// Append a value: one match stores a value of the column's own type;
    /// a `Null` goes under the validity mask of a typed column, and any
    /// other value degrades the column to `Mixed`.
    fn push(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (ColumnData::Int(xs), Value::Int(x)) => xs.push(*x),
            (ColumnData::Float(xs), Value::Float(x)) => xs.push(*x),
            (ColumnData::Str(xs), Value::Str(s)) => xs.push(Arc::clone(s)),
            (ColumnData::Bool(xs), Value::Bool(b)) => xs.push(*b),
            (ColumnData::Mixed(xs), _) => {
                xs.push(v.clone());
                return;
            }
            (_, Value::Null) => {
                self.push_null();
                return;
            }
            _ => {
                self.degrade_to_mixed();
                self.push(v);
                return;
            }
        }
        if let Some(mask) = &mut self.validity {
            mask.push(true);
        }
    }

    /// Append a `Null`: a typed column stores a placeholder under a cleared
    /// mask bit, a `Mixed` one the `Null` itself.
    fn push_null(&mut self) {
        let len = self.len();
        match &mut self.data {
            ColumnData::Int(xs) => xs.push(0),
            ColumnData::Float(xs) => xs.push(0.0),
            ColumnData::Str(xs) => xs.push(Arc::from("")),
            ColumnData::Bool(xs) => xs.push(false),
            ColumnData::Mixed(xs) => {
                xs.push(Value::Null);
                return;
            }
        }
        self.validity
            .get_or_insert_with(|| vec![true; len])
            .push(false);
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

    /// Column `c` of the rows `order` indexes in `sources`, as
    /// [`TypedColumn::with_first`] and repeated [`TypedColumn::push`] of
    /// their values build it.  When every source with rows keeps the column
    /// as the first row's type and that row is not `Null`, the values are
    /// copied in one typed pass; otherwise they are pushed one by one.
    fn gather(sources: &[&ColumnBatch], c: usize, order: &[(u32, u32)]) -> TypedColumn {
        let column = |s: u32| &sources[s as usize].columns[c];
        let (s0, r0) = (column(order[0].0), order[0].1 as usize);
        let data = if s0.validity.as_ref().is_some_and(|mask| !mask[r0]) {
            None
        } else {
            // Each typed variant: its data in every source, copied.
            macro_rules! copy_typed {
                ($variant:ident) => {
                    typed_slices(sources, c, |d| match d {
                        ColumnData::$variant(xs) => Some(xs.as_slice()),
                        _ => None,
                    })
                    .map(|xs| ColumnData::$variant(pick(order, &xs)))
                };
            }
            match &s0.data {
                ColumnData::Int(_) => copy_typed!(Int),
                ColumnData::Float(_) => copy_typed!(Float),
                ColumnData::Str(_) => copy_typed!(Str),
                ColumnData::Bool(_) => copy_typed!(Bool),
                ColumnData::Mixed(_) => None,
            }
        };
        let Some(data) = data else {
            let mut out = TypedColumn::with_first(&s0.value_at(r0));
            for &(s, r) in &order[1..] {
                out.push(&column(s).value_at(r as usize));
            }
            return out;
        };
        // A typed copy keeps a mask only if some gathered row is `Null`.
        let masked = sources.iter().any(|b| {
            let column = b.columns.get(c).filter(|_| !b.is_empty());
            column.is_some_and(|c| c.validity.is_some())
        });
        let valid = |&(s, r): &(u32, u32)| {
            let mask = column(s).validity.as_ref();
            mask.is_none_or(|mask| mask[r as usize])
        };
        let validity = masked
            .then(|| order.iter().map(valid).collect::<Vec<bool>>())
            .filter(|mask| mask.contains(&false));
        TypedColumn { data, validity }
    }

    /// The typed data vector (read-only; for kernels and benches).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }
}

/// Each source's column `c` as typed data `get` accepts (an empty source:
/// no data), or `None` if a source with rows stores it otherwise.
fn typed_slices<'a, T>(
    sources: &[&'a ColumnBatch],
    c: usize,
    get: impl Fn(&'a ColumnData) -> Option<&'a [T]>,
) -> Option<Vec<&'a [T]>> {
    let slice = |b: &&'a ColumnBatch| match b.is_empty() {
        true => Some(&[][..]),
        false => get(&b.columns.get(c)?.data),
    };
    sources.iter().map(slice).collect()
}

/// The values `order` indexes in `slices`, in order.
fn pick<T: Clone>(order: &[(u32, u32)], slices: &[&[T]]) -> Vec<T> {
    let value = |&(s, r): &(u32, u32)| slices[s as usize][r as usize].clone();
    order.iter().map(value).collect()
}

/// A timestamp-contiguous run of tuples in column-major layout.
///
/// Rows must be appended in timestamp order (the same operator contract as
/// everywhere else in this tree); [`ColumnBatch::first_ts`] is the batch's
/// position in the global order.  All rows share one payload arity — an
/// append of a different arity is rejected (`false`) so the caller can flush
/// the batch and start a new one.
///
/// A batch may also be a *view* (`view_rows`): `(source, row)` pairs over
/// batches shared behind one `Arc`, gathered into columns of its own only
/// when something reads them (the module docs list which reads gather).
/// Equality compares rows, whichever the representation.
#[derive(Clone, Default)]
pub struct ColumnBatch {
    ts: Vec<Timestamp>,
    stream: Vec<StreamId>,
    origin_span: Vec<TimeDelta>,
    role: Vec<TupleRole>,
    lineage: Vec<u32>,
    columns: Vec<TypedColumn>,
    /// A view's rows; the fields above then stay empty.
    view: Option<Box<View>>,
}

/// The rows of a view: `order` indexes `sources`, all rows of one arity,
/// and `gathered` holds them as a batch of its own once a read needed it.
#[derive(Clone)]
struct View {
    sources: Arc<Vec<ColumnBatch>>,
    order: Vec<(u32, u32)>,
    gathered: OnceLock<ColumnBatch>,
}

impl View {
    fn gather(&self) -> ColumnBatch {
        let sources: Vec<&ColumnBatch> = self.sources.iter().map(ColumnBatch::eager).collect();
        ColumnBatch::gather_stretch(&sources, &self.order)
    }

    fn ts_of(&self, &(s, r): &(u32, u32)) -> Timestamp {
        self.sources[s as usize].ts_at(r as usize)
    }
}

impl PartialEq for ColumnBatch {
    fn eq(&self, other: &ColumnBatch) -> bool {
        let (a, b) = (self.eager(), other.eager());
        a.ts == b.ts
            && a.stream == b.stream
            && a.origin_span == b.origin_span
            && a.role == b.role
            && a.lineage == b.lineage
            && a.columns == b.columns
    }
}

impl fmt::Debug for ColumnBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.eager();
        f.debug_struct("ColumnBatch")
            .field("ts", &b.ts)
            .field("stream", &b.stream)
            .field("origin_span", &b.origin_span)
            .field("role", &b.role)
            .field("lineage", &b.lineage)
            .field("columns", &b.columns)
            .finish()
    }
}

impl ColumnBatch {
    /// An empty batch.  The first appended row fixes the payload arity.
    pub fn new() -> ColumnBatch {
        ColumnBatch::default()
    }

    /// The rows `order` indexes in `sources` — all of one arity, at least
    /// one — as a view: nothing is gathered until a column is read.
    fn view(sources: Arc<Vec<ColumnBatch>>, order: Vec<(u32, u32)>) -> ColumnBatch {
        let view = View {
            sources,
            order,
            gathered: OnceLock::new(),
        };
        ColumnBatch {
            view: Some(Box::new(view)),
            ..ColumnBatch::default()
        }
    }

    /// The batch with columns of its own: itself, or a view's rows gathered
    /// (at the first call).
    fn eager(&self) -> &ColumnBatch {
        match &self.view {
            None => self,
            Some(view) => view.gathered.get_or_init(|| view.gather()),
        }
    }

    /// Replace a view with its gathered rows before an append or a drain.
    fn own(&mut self) {
        if self.view.is_some() {
            self.own_view();
        }
    }

    /// Out of line: the appends on the chain's walk never meet a view.
    #[cold]
    fn own_view(&mut self) {
        if let Some(view) = self.view.take() {
            let mut view = *view;
            *self = view.gathered.take().unwrap_or_else(|| view.gather());
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.view {
            None => self.ts.len(),
            Some(view) => view.order.len(),
        }
    }

    /// `true` if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload arity (0 for an empty batch).
    pub fn arity(&self) -> usize {
        match &self.view {
            None => self.columns.len(),
            Some(view) => view.sources[view.order[0].0 as usize].arity(),
        }
    }

    /// Timestamp of the first row — the batch's position in the stream's
    /// global timestamp order.
    pub fn first_ts(&self) -> Option<Timestamp> {
        (!self.is_empty()).then(|| self.ts_at(0))
    }

    /// Timestamp of the last row.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.len().checked_sub(1).map(|last| self.ts_at(last))
    }

    /// Timestamp of row `i`.
    pub fn ts_at(&self, i: usize) -> Timestamp {
        match &self.view {
            None => self.ts[i],
            Some(view) => view.ts_of(&view.order[i]),
        }
    }

    /// Call `f` with each row's timestamp, in row order: a view reads them
    /// through its pairs, gathering nothing.
    pub fn for_each_ts(&self, mut f: impl FnMut(Timestamp)) {
        match &self.view {
            None => self.ts.iter().for_each(|&ts| f(ts)),
            Some(view) => {
                // Up to 16 sources with columns of their own: each one's
                // timestamps looked up by index, with no branch per row.
                let mut sources = [&[][..]; 16];
                let resolved = view.sources.len() <= sources.len()
                    && zip(&mut sources, view.sources.iter()).all(|(slot, b)| {
                        *slot = &b.ts;
                        b.view.is_none()
                    });
                for row @ &(s, r) in &view.order {
                    f(match resolved {
                        true => sources[s as usize][r as usize],
                        false => view.ts_of(row),
                    });
                }
            }
        }
    }

    /// The rows' timestamps, in row order.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.eager().ts
    }

    /// The rows' streams, in row order.
    pub fn streams(&self) -> &[StreamId] {
        &self.eager().stream
    }

    /// The rows' origin spans (`|Ta - Tb|` of joined rows), in row order.
    pub fn origin_spans(&self) -> &[TimeDelta] {
        &self.eager().origin_span
    }

    /// The payload columns.
    pub fn columns(&self) -> &[TypedColumn] {
        &self.eager().columns
    }

    /// Append a row copied out of a [`Tuple`].  Returns `false` (appending
    /// nothing) if the tuple's arity differs from the batch's.
    pub fn push_tuple(&mut self, t: &Tuple) -> bool {
        self.own();
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
    /// that makes the row path's result handling hot.  Each side's values
    /// go straight into their own columns.
    pub fn push_join(&mut self, left: &Tuple, right: &Tuple, out_stream: StreamId) -> bool {
        self.own();
        let split = left.arity();
        if self.ts.is_empty() {
            let values = left.values.iter().chain(right.values.iter());
            self.push_payload(values, split + right.arity());
        } else if self.columns.len() != split + right.arity() {
            return false;
        } else {
            let (left_columns, right_columns) = self.columns.split_at_mut(split);
            for (col, v) in left_columns.iter_mut().zip(left.values.iter()) {
                col.push(v);
            }
            for (col, v) in right_columns.iter_mut().zip(right.values.iter()) {
                col.push(v);
            }
        }
        self.ts.push(left.ts.max(right.ts));
        self.stream.push(out_stream);
        self.origin_span.push(left.ts.abs_diff(right.ts));
        self.role.push(TupleRole::Regular);
        self.lineage.push(left.lineage.min(right.lineage));
        true
    }

    /// Append a row's payload; the first row of an empty batch picks the
    /// column types, in the columns' own storage where it can.
    fn push_payload<'a>(&mut self, values: impl Iterator<Item = &'a Value>, arity: usize) -> bool {
        if !self.ts.is_empty() && arity != self.columns.len() {
            false
        } else if !self.ts.is_empty() {
            for (col, v) in self.columns.iter_mut().zip(values) {
                col.push(v);
            }
            true
        } else if arity == self.columns.len() {
            for (col, v) in self.columns.iter_mut().zip(values) {
                col.restart(v);
            }
            true
        } else {
            self.columns = values.map(TypedColumn::with_first).collect();
            true
        }
    }

    /// Remove the first `n` rows, keeping every column's storage for the
    /// rows appended next.
    pub(crate) fn drain_front(&mut self, n: usize) {
        self.own();
        self.ts.drain(..n);
        self.stream.drain(..n);
        self.origin_span.drain(..n);
        self.role.drain(..n);
        self.lineage.drain(..n);
        for col in &mut self.columns {
            col.drain_front(n);
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
        let b = self.eager();
        let values: Arc<[Value]> = b.columns.iter().map(|c| c.value_at(i)).collect();
        Tuple {
            ts: b.ts[i],
            stream: b.stream[i],
            values,
            origin_span: b.origin_span[i],
            role: b.role[i],
            lineage: b.lineage[i],
            key_hash: None,
        }
    }

    /// Materialize every row, in order.
    pub fn materialize(&self) -> Vec<Tuple> {
        let b = self.eager();
        (0..b.len()).map(|i| b.row(i)).collect()
    }

    /// Gather the given rows (batch indices) into a new batch.
    pub fn gather(&self, rows: &[u32]) -> ColumnBatch {
        let order: Vec<(u32, u32)> = rows.iter().map(|&r| (0, r)).collect();
        let mut out = ColumnBatch::new();
        gather_rows(&[self], &order, |batch| out = batch);
        out
    }

    /// The rows `order` indexes in `sources` — batches with columns of
    /// their own — all of one arity, as one batch of exactly their number of
    /// rows, filled one column at a time.
    fn gather_stretch(sources: &[&ColumnBatch], order: &[(u32, u32)]) -> ColumnBatch {
        macro_rules! meta {
            ($field:ident) => {{
                let field: Vec<&[_]> = sources.iter().map(|b| &b.$field[..]).collect();
                pick(order, &field)
            }};
        }
        ColumnBatch {
            ts: meta!(ts),
            stream: meta!(stream),
            origin_span: meta!(origin_span),
            role: meta!(role),
            lineage: meta!(lineage),
            columns: (0..sources[order[0].0 as usize].columns.len())
                .map(|c| TypedColumn::gather(sources, c, order))
                .collect(),
            view: None,
        }
    }

    /// `true` while the batch is a view nothing has gathered yet.
    #[cfg(test)]
    pub(crate) fn is_ungathered_view(&self) -> bool {
        self.view
            .as_ref()
            .is_some_and(|v| v.gathered.get().is_none())
    }
}

/// Gather the rows `order` indexes — `(source, row)` pairs into `sources` —
/// into new batches, in order, handing each to `emit`: exactly the batches
/// appending the rows one by one builds, column types, masks and `Mixed`
/// degradation included, a batch ending where the next row's arity
/// differs.  Each batch is allocated at its exact size and filled one
/// column at a time, in a single pass per column.
pub fn gather_rows(
    sources: &[&ColumnBatch],
    order: &[(u32, u32)],
    mut emit: impl FnMut(ColumnBatch),
) {
    let sources: Vec<&ColumnBatch> = sources.iter().map(|b| b.eager()).collect();
    let mut rest = order;
    while !rest.is_empty() {
        let len = stretch_len(rest, |s| sources[s].columns.len());
        let (stretch, tail) = rest.split_at(len);
        emit(ColumnBatch::gather_stretch(&sources, stretch));
        rest = tail;
    }
}

/// The rows `order` indexes in `sources` as views, in order, handing each
/// to `emit`: a view ends where the next row's arity differs, as a batch of
/// [`gather_rows`] does, and gathers into that batch when read.
pub(crate) fn view_rows(
    sources: &Arc<Vec<ColumnBatch>>,
    mut order: Vec<(u32, u32)>,
    mut emit: impl FnMut(ColumnBatch),
) {
    while !order.is_empty() {
        let rest = order.split_off(stretch_len(&order, |s| sources[s].arity()));
        emit(ColumnBatch::view(Arc::clone(sources), order));
        order = rest;
    }
}

/// How many of the rows `order` starts with share the first one's arity.
fn stretch_len(order: &[(u32, u32)], arity: impl Fn(usize) -> usize) -> usize {
    let first = arity(order[0].0 as usize);
    order
        .iter()
        .position(|&(s, _)| arity(s as usize) != first)
        .unwrap_or(order.len())
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
    let batch = batch.eager();
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

    impl ColumnBatch {
        /// Append row `i` of another batch.  Returns `false` on arity mismatch.
        /// The row-at-a-time reference [`gather_rows`] is tested against.
        fn push_row_from(&mut self, src: &ColumnBatch, i: usize) -> bool {
            let src = src.eager();
            self.own();
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
    }

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
    fn gathering_rows_equals_appending_them_one_by_one() {
        let mut seed = 0x51_7cc1_b727_220au64;
        let mut next = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let value = |kind, x: i64| match kind {
            'i' => Value::Int(x),
            'f' => Value::Float(x as f64 / 4.0),
            's' => Value::str(["a", "b", "c"][x as usize % 3]),
            'b' => Value::Bool(x % 2 == 0),
            _ => Value::Null,
        };
        // Per source, each column's value kind by row: typed columns, a
        // masked one, `Mixed` ones (alternating types, a leading `Null`),
        // types that differ between sources, and one narrower source.
        let shapes: [&[&str]; 7] = [
            &["iiiiiiii", "ssssssss"],
            &["ii-ii-ii", "ssssssss"],
            &["isisisis", "ssssssss"],
            &["ffffffff", "ssssssss"],
            &["iiiiiiii"],
            &["-iiiiiii", "sss-ssss"],
            &["iiiiiiii", "bbbbbbbb"],
        ];
        let sources: Vec<ColumnBatch> = shapes
            .iter()
            .enumerate()
            .map(|(s, columns)| {
                let rows: Vec<Tuple> = (0..8)
                    .map(|r| {
                        let kinds = columns.iter().map(|c| c.as_bytes()[r] as char);
                        let values = kinds.map(|k| value(k, (10 * s + r) as i64)).collect();
                        let mut t = tv(r as u64, values);
                        t.lineage = s as u32;
                        t
                    })
                    .collect();
                ColumnBatch::from_tuples(&rows).unwrap()
            })
            .collect();
        let refs: Vec<&ColumnBatch> = sources.iter().collect();
        let shared = Arc::new(sources.clone());
        let pred = Predicate::gt(0, 13i64).or(Predicate::eq(1, Value::str("b")));
        let (mut typed, mut masked, mut mixed, mut flushed) = (0, 0, 0, 0);
        let mut reused = ColumnBatch::new();
        for _ in 0..400 {
            // Draw from one source, two agreeing ones, or any.
            let pool: &[u32] = match next(4) {
                0 => &[0],
                1 => &[0, 1],
                2 => &[0, 1, 4],
                _ => &[0, 1, 2, 3, 4, 5, 6],
            };
            // Random rows, half of them the row after the previous one.
            let mut order: Vec<(u32, u32)> = Vec::new();
            for _ in 0..1 + next(30) {
                let row = match order.last() {
                    Some(&(s, r)) if r < 7 && next(2) == 0 => (s, r + 1),
                    _ => (pool[next(pool.len() as u64) as usize], next(8) as u32),
                };
                order.push(row);
            }
            let mut want = vec![ColumnBatch::new()];
            for &(s, r) in &order {
                let last = want.last_mut().unwrap();
                if !last.push_row_from(refs[s as usize], r as usize) {
                    let mut fresh = ColumnBatch::new();
                    assert!(fresh.push_row_from(refs[s as usize], r as usize));
                    want.push(fresh);
                }
            }
            let mut got = Vec::new();
            gather_rows(&refs, &order, |batch| got.push(batch));
            assert_eq!(got, want, "order {order:?}");
            flushed += got.len() - 1;
            for col in got.iter().flat_map(|batch| batch.columns()) {
                match (&col.data, &col.validity) {
                    (ColumnData::Mixed(_), _) => mixed += 1,
                    (_, Some(_)) => masked += 1,
                    (_, None) => typed += 1,
                }
            }
            // The same rows as views over the shared sources: each read
            // below starts from views nothing has gathered.
            let views = || {
                let mut views = Vec::new();
                view_rows(&shared, order.clone(), |view| views.push(view));
                assert_eq!(views.len(), got.len(), "order {order:?}");
                views.into_iter().zip(&got)
            };
            for (view, eager) in views() {
                assert_eq!(view.len(), eager.len());
                assert_eq!(view.arity(), eager.arity());
                assert_eq!(view.first_ts(), eager.first_ts());
                assert_eq!(view.last_ts(), eager.last_ts());
                assert!((0..view.len()).all(|i| view.ts_at(i) == eager.ts_at(i)));
                assert!(view.is_ungathered_view(), "reading timestamps gathered");
                assert_eq!(&view, eager, "order {order:?}");
                assert!(!view.is_ungathered_view());
            }
            for (view, eager) in views() {
                assert_eq!(view.materialize(), eager.materialize());
            }
            for (view, eager) in views() {
                let (mut got_count, mut want_count) = (0, 0);
                let selection = eval_predicate(&pred, &view, &mut got_count);
                assert_eq!(selection, eval_predicate(&pred, eager, &mut want_count));
                assert_eq!(got_count, want_count);
            }
            for (view, eager) in views() {
                let rows: Vec<u32> = (0..view.len() as u32).rev().step_by(2).collect();
                assert_eq!(view.gather(&rows), eager.gather(&rows));
            }
            for (view, eager) in views() {
                // A lazy source beside an eager one.
                let mut pairs: Vec<(u32, u32)> = (0..view.len() as u32).map(|r| (0, r)).collect();
                pairs.push((1, 3));
                let (mut from_view, mut from_eager) = (Vec::new(), Vec::new());
                gather_rows(&[&view, refs[0]], &pairs, |batch| from_view.push(batch));
                gather_rows(&[eager, refs[0]], &pairs, |batch| from_eager.push(batch));
                assert_eq!(from_view, from_eager);
            }
            for (mut view, eager) in views() {
                let mut eager = eager.clone();
                let row = eager.row(eager.len() - 1);
                assert!(view.push_tuple(&row) && eager.push_tuple(&row));
                assert_eq!(view, eager);
            }
            for (mut view, eager) in views() {
                let mut eager = eager.clone();
                view.drain_front(1);
                eager.drain_front(1);
                assert_eq!(view, eager);
            }
            // A drained batch refilled with the same rows equals a fresh one.
            let rows = want[0].materialize();
            reused.drain_front(reused.len());
            for row in &rows {
                assert!(reused.push_tuple(row));
            }
            assert_eq!(reused, want[0]);
        }
        assert!(typed > 0 && masked > 0 && mixed > 0 && flushed > 0);
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
