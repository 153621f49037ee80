//! The window join: one operator for every join over a window slice.
//!
//! A sliced window join `A[start, end) ⋈ˢ B` (Definitions 1 and 3 of the
//! paper) pairs an A and a B tuple whose timestamp distance lies in the
//! slice `[start, end)`.  A chain of slices pipelines each slice's purged
//! state tuples and propagated probe tuples into the next one, and the union
//! of the chain's outputs is the regular join over the whole window
//! (Theorems 1–2).  A regular sliding-window join (Figure 1) is the
//! one-slice chain `[0, W)` — [`SliceJoinOp::window_join`] — so the chains,
//! the baseline plans and the reference runs all execute this one operator.
//!
//! The [`Direction`] decides what a slice stores and what probes:
//!
//! * **two-way** (Figures 8–9): the chain head splits every `Regular`
//!   arrival into a *male* copy — which cross-purges and probes the opposite
//!   state and is then propagated to the next slice — and a *female* copy —
//!   which is inserted into this slice's state and travels on only when
//!   purged.  The copies share their payload (`Arc`).  Later slices act on
//!   the roles they receive.
//! * **one-way** (Figures 5–6): only stream A is stored; stream B purges,
//!   probes and is propagated.  Tuples are routed by stream, not by role.
//!
//! A tuple's stream decides its side; the input port never does.  A chain
//! slice has one input port carrying the chain's logical queue (both
//! streams, in emission order); the regular window join has two, A on port 0
//! and B on port 1.  Outputs go to [`PORT_RESULTS`] — joined results plus
//! one punctuation per run standing for its last probe (the paper's
//! Section 4.3 observation that male tuples act as punctuations for the
//! order-preserving union) — and [`PORT_NEXT_SLICE`], the logical queue
//! feeding the next slice.
//!
//! Two primitives do a slice's work: [`SliceJoinOp::probe`] purges the
//! opposite state into the caller's hands and appends the probe's result
//! rows to a caller-owned, reused column buffer, and [`SliceJoinOp::store`]
//! inserts a tuple into its stream's state.  The sliced chain
//! ([`ChainJoinOp`](crate::ops::ChainJoinOp)) calls them as it walks each
//! input tuple through its slices, storing each purged tuple straight into
//! the next slice's state.  The [`Operator`] impl, for the baselines and
//! standalone slices, calls them over a run, forwarding what the chain
//! would walk on, and then sends the run's rows — all in batches or all as
//! rows, punctuations in their place — and its forwarded items.

use crate::checkpoint::{NodeState, WindowState};
use std::ops::Range;

use crate::columnar::{gather_rows, ColumnBatch};
use crate::error::{Result, StreamError};
use crate::join_state::{equi_key_fields, memoize_key, JoinState, StoredTuple};
use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::JoinCondition;
use crate::punctuation::Punctuation;
use crate::queue::StreamItem;
use crate::stats::CostCounters;
use crate::time::Timestamp;
use crate::tuple::{StreamId, Tuple, TupleRole};
use crate::window::{SliceWindow, WindowSpec};

/// Output port carrying joined results and punctuations.
pub const PORT_RESULTS: PortId = 0;
/// Output port carrying the logical queue towards the next slice.
pub const PORT_NEXT_SLICE: PortId = 1;

/// Stream id of every joined result tuple.
pub const RESULT_STREAM: StreamId = StreamId(101);

/// Results at which a delivery travels as [`ColumnBatch`]es instead of one
/// row [`Tuple`] each: where results leave an operator — a chain query's
/// rows of one call, a standalone slice's rows of one run — the exact count
/// being delivered decides, so a delivery is all batches or all rows.  A
/// batch is one queue item and one sink visit whatever its row count, but
/// costs 6 + arity `Vec`s, so a delivery of a few results is cheaper as row
/// tuples.  The value comes from a sweep over 4–64 (EXPERIMENTS, "Result
/// transport at both ends"), taken when each slice chose from its previous
/// run's count; it was kept, not re-tuned, when the choice moved here.
pub(crate) const COLUMNAR_MIN_RUN_RESULTS: u64 = 16;

/// A slice's result rows, appended run after run until the owner drains
/// them: column batches, a new one started only when the result arity
/// changes, and the punctuations of the runs, each with the number of rows
/// it follows.  Row numbers count across the batches.
#[derive(Debug)]
pub(crate) struct SliceResults {
    /// The batches the rows are kept in, in row order; never empty: rows
    /// are appended to the last one.
    pub(crate) batches: Vec<ColumnBatch>,
    pub(crate) puncts: Vec<(usize, Punctuation)>,
}

impl Default for SliceResults {
    fn default() -> Self {
        SliceResults {
            batches: vec![ColumnBatch::new()],
            puncts: Vec::new(),
        }
    }
}

impl SliceResults {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    /// The batch holding row `row` (past the last row: the last batch), and
    /// the row's index in it.
    pub(crate) fn locate(&self, mut row: usize) -> (usize, usize) {
        let last = self.batches.len() - 1;
        for (b, batch) in self.batches[..last].iter().enumerate() {
            if row < batch.len() {
                return (b, row);
            }
            row -= batch.len();
        }
        (last, row)
    }

    /// Timestamp of row `row`.
    pub(crate) fn ts(&self, row: usize) -> Timestamp {
        let (batch, i) = self.locate(row);
        self.batches[batch].ts_at(i)
    }

    /// Row `row` as a row tuple.
    pub(crate) fn row(&self, row: usize) -> Tuple {
        let (batch, i) = self.locate(row);
        self.batches[batch].row(i)
    }

    fn push_join(&mut self, left: &Tuple, right: &Tuple) {
        let last = self.batches.len() - 1;
        if !self.batches[last].push_join(left, right, RESULT_STREAM) {
            let mut batch = ColumnBatch::new();
            batch.push_join(left, right, RESULT_STREAM);
            self.batches.push(batch);
        }
    }

    /// Drop the rows before `row` and every punctuation, keeping the
    /// storage: row `row` becomes row 0.
    pub(crate) fn drain_front(&mut self, row: usize) {
        let (batch, i) = self.locate(row);
        self.batches.drain(..batch);
        self.batches[0].drain_front(i);
        self.puncts.clear();
    }

    /// Send rows `range` on `port` of `ctx`: as column batches, one per
    /// stretch of one arity, when `columnar`, and as row tuples otherwise.
    /// Rows that fill the one batch they are kept in leave as that batch.
    fn emit(&mut self, range: Range<usize>, columnar: bool, ctx: &mut OpContext, port: PortId) {
        if range.is_empty() {
            return;
        }
        if !columnar {
            range.for_each(|row| ctx.emit(port, self.row(row)));
            return;
        }
        if self.batches.len() == 1 && range == (0..self.batches[0].len()) {
            ctx.emit(port, std::mem::take(&mut self.batches[0]));
            return;
        }
        let at = |row| {
            let (batch, i) = self.locate(row);
            (batch as u32, i as u32)
        };
        let order: Vec<(u32, u32)> = range.map(at).collect();
        let sources: Vec<&ColumnBatch> = self.batches.iter().collect();
        gather_rows(&sources, &order, |batch| ctx.emit(port, batch));
    }
}

/// Which streams a slice stores and which probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `A ⋈ B`: both streams are stored and both probe; roles decide.
    TwoWay,
    /// `A ⋉ B`: only stream A is stored; only stream B purges, probes and
    /// is propagated.
    OneWay,
}

/// A window join over one slice `[start, end)` of the window.
#[derive(Debug)]
pub struct SliceJoinOp {
    name: String,
    window: SliceWindow,
    condition: JoinCondition,
    direction: Direction,
    /// 1 on a chain's logical queue, 2 for the regular window join.
    input_ports: usize,
    state_a: JoinState,
    state_b: JoinState,
    peak_state: usize,
    results: u64,
    /// First join of a chain: splits regular tuples into male/female copies
    /// and memoises each arrival's equi-key hash.
    chain_head: bool,
    /// Last join of a chain: discards instead of forwarding to a next slice.
    has_next: bool,
    /// Results that left as rows of a [`ColumnBatch`], counted per delivery.
    pub(crate) batch_results: u64,
    /// The [`Operator`] wrapper's result and next-slice buffers, reused
    /// across calls.
    emit_buf: (SliceResults, Vec<StreamItem>),
}

impl SliceJoinOp {
    /// A two-way join of streams `A` and `B` over the window slice
    /// `window`: a mid-chain slice with one input port.
    pub fn for_ab(name: impl Into<String>, window: SliceWindow, condition: JoinCondition) -> Self {
        // State A stores the left side of condition evaluations, state B the
        // right side; each is hash- or band-indexed when the condition allows.
        let state_a = JoinState::for_condition(&condition, true);
        let state_b = JoinState::for_condition(&condition, false);
        SliceJoinOp {
            name: name.into(),
            window,
            condition,
            direction: Direction::TwoWay,
            input_ports: 1,
            state_a,
            state_b,
            peak_state: 0,
            results: 0,
            chain_head: false,
            has_next: true,
            batch_results: 0,
            emit_buf: Default::default(),
        }
    }

    /// The regular sliding-window join `A[W] ⋈ B[W]`: the slice `[0, W)`,
    /// head and last of its one-slice chain, with stream A on input port 0
    /// and stream B on input port 1.
    pub fn window_join(
        name: impl Into<String>,
        window: WindowSpec,
        condition: JoinCondition,
    ) -> Self {
        let mut op = SliceJoinOp::for_ab(name, window.as_slice(), condition)
            .chain_head()
            .last_in_chain();
        op.input_ports = 2;
        op
    }

    /// Make this a one-way slice `A[start, end) ⋉ˢ B`.
    pub fn one_way(mut self) -> Self {
        self.direction = Direction::OneWay;
        self
    }

    /// Mark this as the head of its chain: incoming `Regular` tuples are
    /// split into male and female reference copies here.
    pub fn chain_head(mut self) -> Self {
        self.chain_head = true;
        self
    }

    /// Mark this as the last slice: nothing is forwarded to a next slice.
    pub fn last_in_chain(mut self) -> Self {
        self.has_next = false;
        self
    }

    /// Drop the hash/band index and probe by linear scan, keeping the stored
    /// tuples — the reference side of the index equivalence suites
    /// (`core::verify::scan_only`).
    pub fn drop_index(&mut self) {
        let (side_a, side_b) = (self.state_a.drain_ordered(), self.state_b.drain_ordered());
        self.state_a = JoinState::linear();
        self.state_b = JoinState::linear();
        self.load_states(side_a, side_b);
    }

    /// The window slice `[W_start, W_end)` of this join.
    pub fn window(&self) -> SliceWindow {
        self.window
    }

    /// The join condition.
    pub fn condition(&self) -> &JoinCondition {
        &self.condition
    }

    /// `true` if this join forwards purged / propagated tuples to a next slice.
    pub fn has_next(&self) -> bool {
        self.has_next
    }

    /// `true` if this join's state is hash-indexed on the equi-join key
    /// (`false` after [`SliceJoinOp::drop_index`] or for conditions
    /// with no equi component).
    pub fn is_indexed(&self) -> bool {
        self.state_a.is_indexed()
    }

    /// `true` if this join's state is band-indexed (value-ordered order
    /// index; conditions with an inequality theta but no equi component).
    pub fn is_band_indexed(&self) -> bool {
        self.state_a.is_band_indexed() || self.state_b.is_band_indexed()
    }

    /// `true` if both states' indexes equal a from-scratch rebuild over
    /// their stored tuples ([`JoinState::index_matches_rebuild`]).
    pub fn index_matches_rebuild(&self) -> bool {
        self.state_a.index_matches_rebuild() && self.state_b.index_matches_rebuild()
    }

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// How many of [`SliceJoinOp::results`] left as rows of a
    /// [`ColumnBatch`], counted once per delivery (a chain slice's result
    /// two queries receive in batches counts twice); the rest left as row
    /// tuples.
    pub fn batch_results(&self) -> u64 {
        self.batch_results
    }

    /// Current state size (both streams), in tuples.
    pub fn state_len(&self) -> usize {
        self.state_a.len() + self.state_b.len()
    }

    /// Current state size of the A side.
    pub fn state_a_len(&self) -> usize {
        self.state_a.len()
    }

    /// Current state size of the B side.
    pub fn state_b_len(&self) -> usize {
        self.state_b.len()
    }

    /// Peak combined state size.
    pub fn peak_state(&self) -> usize {
        self.peak_state
    }

    /// Replace both states with timestamp-ordered tuples, rebuilding the
    /// index.
    fn load_states(&mut self, state_a: Vec<Tuple>, state_b: Vec<Tuple>) {
        self.state_a.load_ordered(state_a);
        self.state_b.load_ordered(state_b);
        self.track_peak();
    }

    /// Timestamps currently held in the two states (oldest first); test and
    /// verification aid.
    pub fn state_timestamps(&self) -> (Vec<Timestamp>, Vec<Timestamp>) {
        (
            self.state_a.iter().map(|t| t.ts).collect(),
            self.state_b.iter().map(|t| t.ts).collect(),
        )
    }

    /// Copies of the tuples currently held in the two states (oldest first);
    /// test and verification aid.
    pub fn state_tuples(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        (
            self.state_a.iter().cloned().collect(),
            self.state_b.iter().cloned().collect(),
        )
    }

    /// A read-only copy of this slice's stored tuples — the capture behind
    /// [`Operator::node_state`], and what chain migration re-cuts.
    pub fn window_state(&self) -> WindowState {
        let (side_a, side_b) = self.state_tuples();
        WindowState {
            window: self.window,
            side_a,
            side_b,
        }
    }

    fn track_peak(&mut self) {
        self.peak_state = self.peak_state.max(self.state_len());
    }

    /// Probe with a male (or a one-way B tuple): cross-purge the opposite
    /// state, handing each purged tuple to `purged` — the next slice's, or
    /// nowhere at the end of a chain — then probe it — an equi probe touches
    /// only its key bucket, O(1 + matches) — appending the results to
    /// `results`.  The probe is the caller's to forward.
    ///
    /// Purging first makes every older candidate younger than `end`, and in
    /// a chain no stored tuple is newer than the probe nor younger than
    /// `start` (Lemma 1), so the probe is a pure value comparison.  Only a
    /// join fed on two ports can hold tuples *newer* than the probe — when
    /// one port lags the other — so while the opposite state's newest tuple
    /// is ahead of the probe, candidates a whole window ahead are skipped.
    pub(crate) fn probe(
        &mut self,
        probe: &Tuple,
        purged: impl FnMut(StoredTuple),
        results: &mut SliceResults,
        counters: &mut CostCounters,
    ) {
        let probe_is_a = probe.stream == StreamId::A;
        let opposite = if probe_is_a {
            &mut self.state_b
        } else {
            &mut self.state_a
        };
        let window = self.window;
        counters.purge_comparisons +=
            opposite.purge_expired(|front| window.expired(probe.ts, front.ts), purged);
        let ahead = opposite.back().is_some_and(|newest| newest.ts > probe.ts);
        for stored in opposite.probe_candidates(probe) {
            if ahead && stored.ts.saturating_sub(probe.ts) >= window.end {
                continue;
            }
            let (left, right) = if probe_is_a {
                (probe, stored)
            } else {
                (stored, probe)
            };
            if self
                .condition
                .eval_counted(left, right, &mut counters.probe_comparisons)
            {
                self.results += 1;
                results.push_join(left, right);
            }
        }
    }

    /// Insert a female (or a one-way A tuple, or a tuple the previous slice
    /// purged) into its stream's state.
    pub(crate) fn store(&mut self, tuple: impl Into<StoredTuple>) {
        let stored = tuple.into();
        if stored.tuple.stream == StreamId::A {
            self.state_a.push(stored);
        } else {
            self.state_b.push(stored);
        }
        self.track_peak();
    }

    /// The equi-key field of a tuple from `stream` (its probe key against the
    /// opposite state and its stored key in its own state are the same side
    /// of the condition), or `None` for non-equi conditions.
    fn key_field_of(&self, stream: StreamId) -> Option<usize> {
        let (left, right) = equi_key_fields(&self.condition, true)?;
        Some(if stream == StreamId::A { left } else { right })
    }

    /// The role a tuple arriving at this slice plays: its own in a two-way
    /// slice, by stream in a one-way one (A is stored, B probes).
    ///
    /// The chain head computes each arrival's canonical equi-key hash once;
    /// the probe and the stored copy share the memo, so every downstream
    /// slice's probe and insert — and the shard router before the chain —
    /// reuse it instead of rehashing.
    pub(crate) fn arrive(&self, t: &mut Tuple) -> TupleRole {
        if self.chain_head {
            if let Some(field) = self.key_field_of(t.stream) {
                memoize_key(t, field);
            }
        }
        match self.direction {
            Direction::TwoWay => t.role,
            Direction::OneWay if t.stream == StreamId::A => TupleRole::Female,
            Direction::OneWay => TupleRole::Male,
        }
    }

    /// Process one tuple of a standalone run: store a female; otherwise
    /// purge into `next`, probe, and forward the probe as a male copy.
    ///
    /// The last probe is recorded in `last_probe`; the caller emits one
    /// coalesced punctuation for the whole run.
    fn process_tuple(
        &mut self,
        mut t: Tuple,
        last_probe: &mut Option<(Timestamp, StreamId)>,
        (results, next): &mut (SliceResults, Vec<StreamItem>),
        counters: &mut CostCounters,
    ) {
        counters.tuples_processed += 1;
        let role = self.arrive(&mut t);
        if role == TupleRole::Female {
            return self.store(t);
        }
        *last_probe = Some((t.ts, t.stream));
        let has_next = self.has_next;
        let forward = |stored: StoredTuple| {
            if has_next {
                next.push(stored.tuple.into());
            }
        };
        self.probe(&t, forward, results, counters);
        if role == TupleRole::Male {
            if has_next {
                next.push(t.into());
            }
            return;
        }
        // Split a regular tuple into reference copies: the male purges and
        // probes first, then the female fills the state — this matches
        // Fig. 9, where an arriving tuple never joins with itself.  At the
        // chain head this is the paper's split; mid-chain slices should only
        // ever see tagged copies, but treating a stray untagged tuple the
        // same way keeps standalone use working.
        if has_next {
            next.push(t.with_role(TupleRole::Male).into());
        }
        t.role = TupleRole::Female;
        self.store(t);
    }

    /// The [`Operator`] path: run the items — a statically dispatched tight
    /// loop with the per-probe union punctuations coalesced into **one
    /// punctuation per run** after its rows (a punctuation is a monotone
    /// progress promise, so the run's last probe promises everything the
    /// per-probe punctuations would) — then send the results on
    /// [`PORT_RESULTS`] — all in batches or all as rows, by the run's result
    /// count — and the forwarded items on [`PORT_NEXT_SLICE`].
    ///
    /// The cross-purge stays interleaved per probe: a purged tuple must
    /// enter the next slice's logical queue *before* the probe whose arrival
    /// expired it (Fig. 9's emission order), or results would shift between
    /// slices.  Run length is invisible in results, counters and final
    /// states (`tests/batch_equivalence.rs`).
    fn run(&mut self, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let mut out = std::mem::take(&mut self.emit_buf);
        let mut last_probe = None;
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    self.process_tuple(t, &mut last_probe, &mut out, &mut ctx.counters)
                }
                StreamItem::Batch(b) => {
                    // Roles travel per row: process an input batch's rows
                    // one by one.
                    for t in b.materialize() {
                        self.process_tuple(t, &mut last_probe, &mut out, &mut ctx.counters);
                    }
                }
                StreamItem::Punctuation(p) => {
                    out.0.puncts.push((out.0.len(), p));
                    if self.has_next {
                        out.1.push(p.into());
                    }
                }
            }
        }
        let (results, next) = &mut out;
        if let Some((ts, stream)) = last_probe {
            let punctuation = Punctuation::from_stream(ts, stream);
            results.puncts.push((results.len(), punctuation));
        }
        let rows = results.len();
        let columnar = rows as u64 >= COLUMNAR_MIN_RUN_RESULTS;
        if columnar {
            self.batch_results += rows as u64;
        }
        let mut from = 0;
        let puncts = std::mem::take(&mut results.puncts);
        for &(at, punctuation) in &puncts {
            results.emit(from..at, columnar, ctx, PORT_RESULTS);
            ctx.emit(PORT_RESULTS, punctuation);
            from = at;
        }
        results.emit(from..rows, columnar, ctx, PORT_RESULTS);
        results.puncts = puncts;
        results.drain_front(results.len());
        for item in next.drain(..) {
            ctx.emit(PORT_NEXT_SLICE, item);
        }
        self.emit_buf = out;
    }
}

impl Operator for SliceJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_input_ports(&self) -> usize {
        self.input_ports
    }

    fn num_output_ports(&self) -> usize {
        2
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        self.run(std::iter::once(item), ctx);
    }

    fn process_batch(&mut self, _port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.run(items.drain(..), ctx);
    }

    fn state_size(&self) -> usize {
        self.state_len()
    }

    fn state_bytes(&self) -> usize {
        self.state_a.live_bytes() + self.state_b.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.state_a.capacity_bytes() + self.state_b.capacity_bytes()
    }

    fn node_state(&self) -> Result<NodeState> {
        Ok(NodeState::Window(self.window_state()))
    }

    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        match state {
            NodeState::Window(state) if state.window == self.window => {
                self.load_states(state.side_a, state.side_b);
                Ok(())
            }
            NodeState::Window(state) => Err(StreamError::Checkpoint(format!(
                "window state of slice {} cannot restore into '{}' over {}",
                state.window, self.name, self.window
            ))),
            other => Err(other.mismatch(&self.name)),
        }
    }

    fn slice_joins(&self) -> &[SliceJoinOp] {
        std::slice::from_ref(self)
    }

    fn slice_joins_mut(&mut self) -> &mut [SliceJoinOp] {
        std::slice::from_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    #[test]
    fn a_restored_slice_keeps_its_index_mode_but_no_emission_history() {
        let theta = |op, right_field| JoinCondition::Theta {
            left_field: 0,
            op,
            right_field,
        };
        let band = JoinCondition::And(Box::new(theta(CmpOp::Ge, 1)), Box::new(theta(CmpOp::Le, 2)));
        let window = SliceWindow::from_secs(0, 100);
        let shapes = || {
            let mut linear = SliceJoinOp::for_ab("linear", window, JoinCondition::equi(0));
            linear.drop_index();
            [
                SliceJoinOp::for_ab("hash", window, JoinCondition::equi(0)).chain_head(),
                SliceJoinOp::for_ab("band", window, band.clone()).last_in_chain(),
                linear,
                SliceJoinOp::for_ab("one-way", window, JoinCondition::Cross).one_way(),
                SliceJoinOp::window_join(
                    "regular",
                    WindowSpec::from_secs(100),
                    JoinCondition::Cross,
                ),
            ]
        };
        let mode = |op: &SliceJoinOp| (op.is_indexed(), op.is_band_indexed());
        let (plain, hashed, banded) = ((false, false), (true, false), (false, true));
        assert_eq!(
            shapes().each_ref().map(mode),
            [hashed, banded, plain, plain, plain]
        );
        for (mut op, mut fresh) in shapes().into_iter().zip(shapes()) {
            // A dense first run: 20 stored tuples × 1 probe = 20 results.
            let tuple = |s, stream| Tuple::of_ints(Timestamp::from_secs(s), stream, &[0, 0, 0]);
            let mut run: Vec<StreamItem> = (0..20).map(|s| tuple(s, StreamId::A).into()).collect();
            run.push(tuple(30, StreamId::B).into());
            let mut ctx = OpContext::new();
            op.process_batch(0, &mut run, &mut ctx);
            assert_eq!(op.results(), 20, "{}", op.name());
            // A migration restores the captured window into a freshly
            // planned twin, which keeps its own index mode.
            fresh.restore_state(op.node_state().unwrap()).unwrap();
            assert_eq!(mode(&fresh), mode(&op), "{}", op.name());
            assert_eq!(fresh.state_tuples(), op.state_tuples());
            assert_eq!(fresh.results(), 0);
            fresh.process(0, tuple(31, StreamId::B).into(), &mut ctx);
            assert_eq!(fresh.results(), 20);
            // Its first run's 20 results leave in a batch, as any run's
            // 16 or more do.
            assert_eq!(fresh.batch_results(), 20);
            // Dropping the index keeps every stored tuple.
            let stored = fresh.state_tuples();
            fresh.drop_index();
            assert_eq!(mode(&fresh), plain);
            assert_eq!(fresh.state_tuples(), stored);
        }
    }

    /// What a run put on [`PORT_RESULTS`], item by item.
    #[derive(Debug, PartialEq)]
    enum Out {
        Row(Tuple),
        Batch(Vec<Tuple>),
        Punctuation,
    }

    fn results_out(ctx: &mut OpContext) -> Vec<Out> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_RESULTS)
            .map(|(_, item)| match item {
                StreamItem::Tuple(t) => Out::Row(t),
                StreamItem::Batch(b) => Out::Batch(b.materialize()),
                StreamItem::Punctuation(_) => Out::Punctuation,
            })
            .collect()
    }

    #[test]
    fn a_row_run_that_turns_dense_switches_to_a_batch_at_its_16th_result() {
        let at =
            |s, stream, fields: &[i64]| Tuple::of_ints(Timestamp::from_secs(s), stream, fields);
        // Six stored A tuples, the third one wider: every probe's results
        // change arity twice.
        let stored: Vec<Tuple> = (1..=6)
            .map(|s| at(s, StreamId::A, if s == 3 { &[0, 9] } else { &[0] }))
            .collect();
        let probe = |s| at(s, StreamId::B, &[0]);
        let joined = |i: usize, s| Tuple::join(&stored[i], &probe(s), RESULT_STREAM);
        let slice = || {
            SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 100), JoinCondition::Cross)
                .chain_head()
                .last_in_chain()
        };
        // 4 probes × 6 stored = 24 results in one run, with a punctuation
        // after the third probe.
        let mut run: Vec<StreamItem> = stored.iter().cloned().map(StreamItem::from).collect();
        run.extend([
            probe(10).into(),
            probe(11).into(),
            probe(12).into(),
            Punctuation::new(Timestamp::from_secs(12)).into(),
            probe(13).into(),
        ]);
        let mut op = slice();
        let mut ctx = OpContext::new();
        op.process_batch(0, &mut run.clone(), &mut ctx);
        let got = results_out(&mut ctx);
        // 24 ≥ 16: every result leaves in a batch, from the run's first
        // one.  A batch ends at each arity change — rows of equal arity
        // from consecutive probes share one — and before each punctuation.
        let batch =
            |rows: &[(usize, u64)]| Out::Batch(rows.iter().map(|&(i, s)| joined(i, s)).collect());
        let want = vec![
            batch(&[(0, 10), (1, 10)]),
            batch(&[(2, 10)]),
            batch(&[(3, 10), (4, 10), (5, 10), (0, 11), (1, 11)]),
            batch(&[(2, 11)]),
            batch(&[(3, 11), (4, 11), (5, 11), (0, 12), (1, 12)]),
            batch(&[(2, 12)]),
            batch(&[(3, 12), (4, 12), (5, 12)]),
            Out::Punctuation,
            batch(&[(0, 13), (1, 13)]),
            batch(&[(2, 13)]),
            batch(&[(3, 13), (4, 13), (5, 13)]),
            Out::Punctuation,
        ];
        assert_eq!(got, want);
        assert_eq!((op.results(), op.batch_results()), (24, 24));
        // The rows come in the order of an all-rows run: item at a time,
        // no run reaches 16 results.
        let mut reference = slice();
        for item in run {
            reference.process(0, item, &mut ctx);
        }
        let rows = |outs: Vec<Out>| -> Vec<Tuple> {
            outs.into_iter()
                .flat_map(|out| match out {
                    Out::Row(t) => vec![t],
                    Out::Batch(rows) => rows,
                    Out::Punctuation => vec![],
                })
                .collect()
        };
        assert_eq!(rows(results_out(&mut ctx)), rows(got));
        assert_eq!(reference.batch_results(), 0);
        // The run after a dense one follows its own count: six results
        // leave as rows.
        op.process(0, probe(14).into(), &mut ctx);
        let mut want: Vec<Out> = (0..6).map(|i| Out::Row(joined(i, 14))).collect();
        want.push(Out::Punctuation);
        assert_eq!(results_out(&mut ctx), want);
        assert_eq!((op.results(), op.batch_results()), (30, 24));
    }

    #[test]
    fn capturing_a_slice_reads_its_state_without_touching_it() {
        let theta = |op, right_field| JoinCondition::Theta {
            left_field: 0,
            op,
            right_field,
        };
        let band = JoinCondition::And(Box::new(theta(CmpOp::Ge, 1)), Box::new(theta(CmpOp::Le, 2)));
        let tuple = |s, stream, key: i64| {
            Tuple::of_ints(Timestamp::from_secs(s), stream, &[key, key - 2, key + 2])
        };
        let run = |op: &mut SliceJoinOp, items: &[StreamItem]| {
            let mut ctx = OpContext::new();
            op.process_batch(0, &mut items.to_vec(), &mut ctx);
            let c = ctx.counters;
            (c.probe_comparisons, c.purge_comparisons, op.results())
        };
        // Live bytes, held bytes, and every key's probe candidates.
        let observe = |op: &SliceJoinOp| {
            let candidates: Vec<Vec<Timestamp>> = (0..7)
                .map(|k| {
                    let probe = tuple(300, StreamId::B, k);
                    op.state_a.probe_candidates(&probe).map(|t| t.ts).collect()
                })
                .collect();
            (op.state_bytes(), op.state_capacity_bytes(), candidates)
        };
        // 300 A tuples, then a B probe at 300 s that purges the 251 older
        // than the 50 s window: the queue keeps the buffer it grew for 300
        // tuples, so it holds slack beyond the 49 survivors.
        let mut setup: Vec<StreamItem> = (0..300)
            .map(|s| tuple(s, StreamId::A, (s % 7) as i64).into())
            .collect();
        setup.push(tuple(300, StreamId::B, 3).into());
        let next: Vec<StreamItem> = (301..320)
            .map(|s| tuple(s, StreamId::B, (s % 7) as i64).into())
            .collect();
        for (name, condition) in [("hash", JoinCondition::equi(0)), ("band", band)] {
            let [mut captured, mut twin] = [(); 2].map(|_| {
                SliceJoinOp::for_ab(name, SliceWindow::from_secs(0, 50), condition.clone())
                    .chain_head()
                    .last_in_chain()
            });
            assert_eq!(run(&mut captured, &setup), run(&mut twin, &setup));
            let before = observe(&captured);
            assert!(before.1 > before.0, "{name}: no purged slack to disturb");
            let Ok(NodeState::Window(WindowState { side_a, side_b, .. })) = captured.node_state()
            else {
                panic!("{name}: a slice captures window state");
            };
            assert_eq!((side_a.len(), side_b.len()), (49, 1), "{name}");
            assert_eq!(observe(&captured), before, "{name}");
            // The captured slice goes on exactly as its uncaptured twin.
            assert_eq!(run(&mut captured, &next), run(&mut twin, &next), "{name}");
            assert_eq!(observe(&captured), observe(&twin), "{name}");
        }
    }
}
