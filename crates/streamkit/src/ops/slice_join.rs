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
//! **Where a slice's state lives.**  No slice owns a state.  Its stored
//! tuples are a range of a [`RunStore`] that a [`SliceChain`] keeps per
//! stream for each run of consecutive slices no lineage gate can split for
//! that stream: gates test only stream A, so stream B is one store per
//! chain.  Inside a run a purge moves a cursor, and a probe is one index
//! lookup whose candidates go to their slices by sequence number.  The
//! sliced chain ([`ChainJoinOp`](crate::ops::ChainJoinOp)) holds a
//! [`SliceChain`] of all its slices, and the standalone [`SliceJoinOp`] —
//! the baselines' joins and the paper's two-slice trace — a one-slice one,
//! so both run `SliceChain::walk` and `SliceChain::store`.  The
//! standalone operator calls them over a run, forwarding what a chain would
//! walk on, and then sends the run's rows — all in batches or all as rows,
//! punctuations in their place — and its forwarded items.  Per-slice
//! readers ([`SliceRef`], through [`Plan::slice_joins`]) read the run stores.
//!
//! [`Plan::slice_joins`]: crate::plan::Plan::slice_joins

use crate::checkpoint::{NodeState, WindowState};
use std::ops::Range;

use crate::columnar::{gather_rows, ColumnBatch};
use crate::error::{Result, StreamError};
use crate::join_state::{equi_key_fields, memoize_key, JoinState, RunStore, StoredTuple};
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
///
/// A sliced chain lends its slices' batches to the views it delivers: from
/// a delivery of views to its next call they sit, moved out of here, behind
/// one `Arc` the views share, and the call takes them back — a copy only if
/// a view is still alive — before any row is appended or drained.
#[derive(Debug)]
pub(crate) struct SliceResults {
    /// The batches the rows are kept in, in row order; never empty, rows
    /// appended to the last one, but while a chain lends them out.
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

/// `true` if `t` may enter a slice whose lineage gate requires `level`:
/// the gate tests stream-A tuples only.
fn passes(t: &Tuple, level: u32) -> bool {
    t.stream != StreamId::A || t.lineage >= level
}

/// The side of a [`SliceChain`]'s stores holding `stream`: 0 for A, 1 for
/// every other stream.
fn side_of(stream: StreamId) -> usize {
    usize::from(stream != StreamId::A)
}

/// One slice of a chain, without its state: its window, condition and
/// place in the chain, and its result counts.
#[derive(Debug)]
pub(crate) struct SliceCore {
    name: String,
    window: SliceWindow,
    condition: JoinCondition,
    direction: Direction,
    /// First join of a chain: splits regular tuples into male/female copies
    /// and memoises each arrival's equi-key hash.
    chain_head: bool,
    /// Last join of a chain: discards instead of forwarding to a next slice.
    has_next: bool,
    results: u64,
    /// Results that left as rows of a [`ColumnBatch`], counted per delivery.
    pub(crate) batch_results: u64,
}

impl SliceCore {
    /// The equi-key field of a tuple from `stream` (its probe key against the
    /// opposite state and its stored key in its own state are the same side
    /// of the condition), or `None` for non-equi conditions.
    fn key_field_of(&self, stream: StreamId) -> Option<usize> {
        let (left, right) = equi_key_fields(&self.condition, true)?;
        Some(if stream == StreamId::A { left } else { right })
    }
}

/// The slices an operator runs, in chain order, with their stored tuples:
/// per stream, one [`RunStore`] for each run of consecutive slices that no
/// lineage gate (stream A only), change of condition or chain end splits.
///
/// A walking tuple purges its way through the slices — inside a run by
/// cursor steps, across a run boundary by a pop, the gate's check and a
/// push — and then probes each run store it reached once.  Every slice's
/// comparison counts, results, result order, stored tuples and bytes are
/// those of a state of its own (Figure 9's emission order: each slice sees
/// the tuples purged ahead of a probe before that probe).
#[derive(Debug)]
pub struct SliceChain {
    pub(crate) cores: Vec<SliceCore>,
    /// `min_level[k]`: the lineage a stream-A tuple needs to enter slice `k`
    /// (0: slice `k` has no gate).
    min_level: Vec<u32>,
    /// `runs[side]`: the stream's run stores in chain order, each with its
    /// first slice (side 0: A, 1: B).
    runs: [Vec<(usize, RunStore)>; 2],
    /// `at[side][k]`: the run holding slice `k`'s tuples of the stream and
    /// the slice's part in it.
    at: [Vec<(usize, usize)>; 2],
}

impl SliceChain {
    /// A chain of `cores` (head first) with no gates and empty stores.
    pub(crate) fn new(cores: Vec<SliceCore>) -> SliceChain {
        let mut chain = SliceChain {
            min_level: vec![0; cores.len()],
            cores,
            runs: Default::default(),
            at: Default::default(),
        };
        chain.build_runs();
        chain
    }

    /// Cut each stream's empty run stores.
    fn build_runs(&mut self) {
        for side in 0..2 {
            let (cores, min_level) = (&self.cores, &self.min_level);
            let splits = |k: usize| {
                k == 0
                    || cores[k].condition != cores[k - 1].condition
                    || !cores[k - 1].has_next
                    || (side == 0 && min_level[k] > 0)
            };
            let firsts: Vec<usize> = (0..cores.len()).filter(|&k| splits(k)).collect();
            self.runs[side] = firsts
                .iter()
                .enumerate()
                .map(|(r, &first)| {
                    let end = firsts.get(r + 1).copied().unwrap_or(cores.len());
                    let state = JoinState::for_condition(&cores[first].condition, side == 0);
                    (first, RunStore::new(state, end - first))
                })
                .collect();
            self.at[side] = firsts
                .iter()
                .enumerate()
                .flat_map(|(r, &first)| {
                    let end = firsts.get(r + 1).copied().unwrap_or(cores.len());
                    (0..end - first).map(move |j| (r, j))
                })
                .collect();
        }
    }

    /// Gate slice `k`: a stream-A tuple enters it only with lineage
    /// `>= level`.  The stores are re-cut around the gate, keeping every
    /// slice's tuples.
    ///
    /// # Panics
    ///
    /// Panics if the chain has no slice `k`: a plan construction bug.
    pub(crate) fn set_gate(&mut self, k: usize, level: u32) {
        let states = self.window_states();
        self.min_level[k] = level;
        self.build_runs();
        self.load(states);
    }

    /// The lineage level slice `k`'s gate requires (0: no gate).
    pub fn min_level(&self, k: usize) -> u32 {
        self.min_level[k]
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// `true` if the chain has no slice.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Slice `k`.
    ///
    /// # Panics
    ///
    /// Panics if the chain has no slice `k`.
    pub fn slice(&self, k: usize) -> SliceRef<'_> {
        assert!(k < self.len(), "no slice {k} in a chain of {}", self.len());
        SliceRef { chain: self, k }
    }

    /// The slices, in chain order.
    pub fn iter(&self) -> impl Iterator<Item = SliceRef<'_>> {
        (0..self.len()).map(|k| SliceRef { chain: self, k })
    }

    /// Every run store, stream A's first.
    pub fn stores(&self) -> impl Iterator<Item = &RunStore> {
        self.runs.iter().flatten().map(|(_, store)| store)
    }

    /// Stored tuples, both streams, every slice.
    pub fn state_len(&self) -> usize {
        self.stores().map(|store| store.state().len()).sum()
    }

    /// [`JoinState::live_bytes`] over every store.
    pub fn live_bytes(&self) -> usize {
        self.stores().map(|store| store.state().live_bytes()).sum()
    }

    /// [`JoinState::capacity_bytes`] over every store.
    pub fn capacity_bytes(&self) -> usize {
        self.stores()
            .map(|store| store.state().capacity_bytes())
            .sum()
    }

    /// Every slice's window state, in chain order: each store split at its
    /// cursors.
    pub fn window_states(&self) -> Vec<WindowState> {
        self.iter().map(|slice| slice.window_state()).collect()
    }

    /// Restore one window state per slice, in chain order, into the chain
    /// `owner`: a chain cut into other slices is refused before any store
    /// changes.  Each store is rebuilt from its slices' tuples — the index
    /// and the cursors with it — unless it holds them already, which leaves
    /// it alone, index included.
    pub fn restore(&mut self, owner: &str, states: Vec<WindowState>) -> Result<()> {
        if states.len() != self.len() {
            return Err(StreamError::Checkpoint(format!(
                "chain '{owner}' has {} slices but the checkpoint holds {}",
                self.len(),
                states.len()
            )));
        }
        for (core, state) in self.cores.iter().zip(&states) {
            if core.window != state.window {
                return Err(StreamError::Checkpoint(format!(
                    "window state of slice {} cannot restore into '{}' of '{owner}' over {}",
                    state.window, core.name, core.window
                )));
            }
        }
        self.load(states);
        Ok(())
    }

    /// Load one window state per slice into the stores, skipping a store
    /// that holds its slices' tuples already.
    fn load(&mut self, states: Vec<WindowState>) {
        let (side_a, side_b): (Vec<_>, Vec<_>) =
            states.into_iter().map(|s| (s.side_a, s.side_b)).unzip();
        for (runs, mut sides) in self.runs.iter_mut().zip([side_a, side_b]) {
            for (first, store) in runs.iter_mut() {
                let parts: Vec<Vec<Tuple>> = sides[*first..*first + store.parts()]
                    .iter_mut()
                    .map(std::mem::take)
                    .collect();
                let held = (0..store.parts()).all(|j| store.part(j).eq(parts[j].iter()));
                if !held {
                    store.load(parts);
                }
            }
        }
    }

    /// Drop every store's index and probe by linear scan, keeping the stored
    /// tuples — the reference side of the index equivalence suites
    /// (`core::verify::scan_only`).
    pub fn drop_index(&mut self) {
        self.runs
            .iter_mut()
            .flatten()
            .for_each(|(_, store)| store.drop_index());
    }

    /// The role a tuple arriving at the chain head plays: its own in a
    /// two-way slice, by stream in a one-way one (A is stored, B probes).
    ///
    /// The chain head computes each arrival's canonical equi-key hash once;
    /// the probe and the stored copy share the memo, so every downstream
    /// slice's probe and insert — and the shard router before the chain —
    /// reuse it instead of rehashing.
    pub(crate) fn arrive(&self, t: &mut Tuple) -> TupleRole {
        let head = &self.cores[0];
        if head.chain_head {
            if let Some(field) = head.key_field_of(t.stream) {
                memoize_key(t, field);
            }
        }
        match head.direction {
            Direction::TwoWay => t.role,
            Direction::OneWay if t.stream == StreamId::A => TupleRole::Female,
            Direction::OneWay => TupleRole::Male,
        }
    }

    /// Insert a female (or a one-way A tuple, or a tuple the previous slice
    /// purged) into the first slice's state of its stream.
    pub(crate) fn store(&mut self, tuple: impl Into<StoredTuple>) {
        let stored = tuple.into();
        let side = side_of(stored.tuple.stream);
        self.runs[side][0].1.push(stored);
    }

    /// Walk a male (or a one-way B tuple) through the slices, counting into
    /// `counters` (one per slice) and counting in `gated` the tuples the
    /// gates check.
    ///
    /// At slice `k` the probe purges the opposite stream's tuples the slice
    /// no longer holds into slice `k + 1` — a cursor step inside a run; a
    /// pop, the gate's check and a push across a run boundary; out to
    /// `leaving` from the last slice when it has a next — and walks on
    /// unless slice `k + 1`'s gate drops it.  Slice `k`'s tuples are those
    /// between cursors `k − 1` and `k`, which later purges do not move, so
    /// the probe then looks up each run store it reached once: every
    /// candidate goes to its slice by sequence number, is skipped uncounted
    /// in a slice the walk did not reach, and is otherwise evaluated as that
    /// slice's own probe would, its results appended to `results[k]`.
    ///
    /// Purging first makes every older candidate younger than its slice's
    /// `end`, and in a chain no stored tuple is newer than the probe nor
    /// younger than `start` (Lemma 1), so the probe is a pure value
    /// comparison.  Only a join fed on two ports can hold tuples *newer*
    /// than the probe — when one port lags the other — so while a store's
    /// newest tuple is ahead of the probe, candidates a whole window ahead
    /// are skipped.
    pub(crate) fn walk(
        &mut self,
        probe: &Tuple,
        results: &mut [SliceResults],
        counters: &mut [CostCounters],
        gated: &mut u64,
        mut leaving: impl FnMut(StoredTuple),
    ) {
        let side = 1 - side_of(probe.stream);
        let SliceChain {
            cores,
            min_level,
            runs,
            at,
        } = self;
        let (runs, n) = (&mut runs[side], cores.len());
        let mut reach = 0;
        for k in 0..n {
            reach = k;
            let (r, j) = at[side][k];
            let window = cores[k].window;
            let expired = |front: &Tuple| window.expired(probe.ts, front.ts);
            let has_next = cores[k].has_next;
            let into_next = has_next && k + 1 < n;
            let level = if into_next { min_level[k + 1] } else { 0 };
            let (comparisons, purged, entered);
            if j + 1 < runs[r].1.parts() {
                (comparisons, purged) = runs[r].1.purge(j, expired, |_| {});
                entered = purged;
            } else if into_next {
                let (run, later) = runs.split_at_mut(r + 1);
                let next = &mut later[0].1;
                let mut admitted = 0;
                (comparisons, purged) = run[r].1.purge(j, expired, |stored| {
                    if passes(&stored.tuple, level) {
                        admitted += 1;
                        next.push(stored);
                    }
                });
                entered = admitted;
            } else {
                (comparisons, purged) = runs[r].1.purge(j, expired, |stored| {
                    if has_next {
                        leaving(stored);
                    }
                });
                entered = 0;
            }
            counters[k].purge_comparisons += comparisons;
            if !into_next {
                break;
            }
            counters[k].items_emitted += purged + 1;
            if level > 0 {
                *gated += purged + 1;
            }
            counters[k + 1].tuples_processed += entered;
            if !passes(probe, level) {
                break;
            }
            counters[k + 1].tuples_processed += 1;
        }
        let probe_is_a = side == 1;
        for (first, store) in runs.iter() {
            if *first > reach {
                break;
            }
            let ahead = store
                .state()
                .back()
                .is_some_and(|newest| newest.ts > probe.ts);
            for (j, stored) in store.probe_candidates(probe) {
                let k = first + j;
                if k > reach {
                    continue;
                }
                let core = &mut cores[k];
                if ahead && stored.ts.saturating_sub(probe.ts) >= core.window.end {
                    continue;
                }
                let (left, right) = if probe_is_a {
                    (probe, stored)
                } else {
                    (stored, probe)
                };
                if core
                    .condition
                    .eval_counted(left, right, &mut counters[k].probe_comparisons)
                {
                    core.results += 1;
                    results[k].push_join(left, right);
                }
            }
        }
    }
}

/// One slice of a [`SliceChain`], read through its run stores.
#[derive(Debug, Clone, Copy)]
pub struct SliceRef<'a> {
    chain: &'a SliceChain,
    k: usize,
}

impl<'a> SliceRef<'a> {
    fn core(&self) -> &'a SliceCore {
        &self.chain.cores[self.k]
    }

    /// The store holding this slice's tuples of stream side `side`, and the
    /// slice's part in it.
    fn store(&self, side: usize) -> (&'a RunStore, usize) {
        let (r, j) = self.chain.at[side][self.k];
        (&self.chain.runs[side][r].1, j)
    }

    /// This slice's tuples of stream side `side`, oldest first.
    fn part(&self, side: usize) -> impl Iterator<Item = &'a Tuple> {
        let (store, j) = self.store(side);
        store.part(j)
    }

    /// The slice's name.
    pub fn name(&self) -> &'a str {
        &self.core().name
    }

    /// The window slice `[W_start, W_end)` of this join.
    pub fn window(&self) -> SliceWindow {
        self.core().window
    }

    /// `true` if this join forwards purged / propagated tuples to a next slice.
    pub fn has_next(&self) -> bool {
        self.core().has_next
    }

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.core().results
    }

    /// How many of [`SliceRef::results`] left as rows of a [`ColumnBatch`],
    /// counted once per delivery (a chain slice's result two queries receive
    /// in batches counts twice); the rest left as row tuples.
    pub fn batch_results(&self) -> u64 {
        self.core().batch_results
    }

    /// `true` if the slice's stream-A store is hash-indexed on the equi-join
    /// key (`false` after [`SliceChain::drop_index`] or for conditions with
    /// no equi component).
    pub fn is_indexed(&self) -> bool {
        self.store(0).0.state().is_indexed()
    }

    /// `true` if a store of the slice is band-indexed (value-ordered order
    /// index; conditions with an inequality theta but no equi component).
    pub fn is_band_indexed(&self) -> bool {
        let banded = |side| self.store(side).0.state().is_band_indexed();
        banded(0) || banded(1)
    }

    /// `true` if both run stores the slice lives in equal a from-scratch
    /// rebuild ([`RunStore::index_matches_rebuild`]).
    pub fn index_matches_rebuild(&self) -> bool {
        self.store(0).0.index_matches_rebuild() && self.store(1).0.index_matches_rebuild()
    }

    /// Current state size of the A side.
    pub fn state_a_len(&self) -> usize {
        let (store, j) = self.store(0);
        store.part_len(j)
    }

    /// Current state size of the B side.
    pub fn state_b_len(&self) -> usize {
        let (store, j) = self.store(1);
        store.part_len(j)
    }

    /// Current state size (both streams), in tuples.
    pub fn state_len(&self) -> usize {
        self.state_a_len() + self.state_b_len()
    }

    /// Estimated bytes resident in the slice's tuples (both streams).
    pub fn state_bytes(&self) -> usize {
        [0, 1]
            .map(|side| {
                let (store, j) = self.store(side);
                store.part_bytes(j)
            })
            .iter()
            .sum()
    }

    /// Timestamps currently held in the two states (oldest first); test and
    /// verification aid.
    pub fn state_timestamps(&self) -> (Vec<Timestamp>, Vec<Timestamp>) {
        (
            self.part(0).map(|t| t.ts).collect(),
            self.part(1).map(|t| t.ts).collect(),
        )
    }

    /// Copies of the tuples currently held in the two states (oldest first);
    /// test and verification aid.
    pub fn state_tuples(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        (
            self.part(0).cloned().collect(),
            self.part(1).cloned().collect(),
        )
    }

    /// A read-only copy of this slice's stored tuples — the capture behind
    /// [`Operator::node_state`], and what chain migration re-cuts.
    pub fn window_state(&self) -> WindowState {
        let (side_a, side_b) = self.state_tuples();
        WindowState {
            window: self.window(),
            side_a,
            side_b,
        }
    }
}

/// A window join over one slice `[start, end)` of the window, run on its
/// own: a one-slice [`SliceChain`] with the [`Operator`] wrapper.
#[derive(Debug)]
pub struct SliceJoinOp {
    chain: SliceChain,
    /// 1 on a chain's logical queue, 2 for the regular window join.
    input_ports: usize,
    peak_state: usize,
    /// The result and next-slice buffers, reused across calls.
    emit_buf: (SliceResults, Vec<StreamItem>),
}

impl SliceJoinOp {
    /// A two-way join of streams `A` and `B` over the window slice
    /// `window`: a mid-chain slice with one input port.
    pub fn for_ab(name: impl Into<String>, window: SliceWindow, condition: JoinCondition) -> Self {
        // Stream A's store keeps the left side of condition evaluations, B's
        // the right side; each is hash- or band-indexed when the condition
        // allows.
        let core = SliceCore {
            name: name.into(),
            window,
            condition,
            direction: Direction::TwoWay,
            chain_head: false,
            has_next: true,
            results: 0,
            batch_results: 0,
        };
        SliceJoinOp {
            chain: SliceChain::new(vec![core]),
            input_ports: 1,
            peak_state: 0,
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
        self.chain.cores[0].direction = Direction::OneWay;
        self
    }

    /// Mark this as the head of its chain: incoming `Regular` tuples are
    /// split into male and female reference copies here.
    pub fn chain_head(mut self) -> Self {
        self.chain.cores[0].chain_head = true;
        self
    }

    /// Mark this as the last slice: nothing is forwarded to a next slice.
    pub fn last_in_chain(mut self) -> Self {
        self.chain.cores[0].has_next = false;
        self
    }

    /// The slice with its state, for reading.
    pub fn slice(&self) -> SliceRef<'_> {
        self.chain.slice(0)
    }

    /// Drop the hash/band index and probe by linear scan, keeping the stored
    /// tuples ([`SliceChain::drop_index`]).
    pub fn drop_index(&mut self) {
        self.chain.drop_index();
    }

    /// Peak combined state size.
    pub fn peak_state(&self) -> usize {
        self.peak_state
    }

    /// The slice without its empty state: a part of a sliced chain.
    pub(crate) fn into_core(mut self) -> SliceCore {
        self.chain.cores.swap_remove(0)
    }

    fn track_peak(&mut self) {
        self.peak_state = self.peak_state.max(self.chain.state_len());
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
        let role = self.chain.arrive(&mut t);
        if role != TupleRole::Female {
            *last_probe = Some((t.ts, t.stream));
            let has_next = self.chain.cores[0].has_next;
            let results = std::slice::from_mut(results);
            let counters = std::slice::from_mut(counters);
            let forward = |stored: StoredTuple| next.push(stored.tuple.into());
            self.chain.walk(&t, results, counters, &mut 0, forward);
            if role == TupleRole::Male {
                if has_next {
                    next.push(t.into());
                }
                return;
            }
            // Split a regular tuple into reference copies: the male purges
            // and probes first, then the female fills the state — this
            // matches Fig. 9, where an arriving tuple never joins with
            // itself.  At the chain head this is the paper's split; mid-chain
            // slices should only ever see tagged copies, but treating a
            // stray untagged tuple the same way keeps standalone use working.
            if has_next {
                next.push(t.with_role(TupleRole::Male).into());
            }
            t.role = TupleRole::Female;
        }
        self.chain.store(t);
        self.track_peak();
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
        let has_next = self.chain.cores[0].has_next;
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
                    if has_next {
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
            self.chain.cores[0].batch_results += rows as u64;
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
        &self.chain.cores[0].name
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
        self.chain.state_len()
    }

    fn state_bytes(&self) -> usize {
        self.chain.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.chain.capacity_bytes()
    }

    fn node_state(&self) -> Result<NodeState> {
        Ok(NodeState::Window(self.slice().window_state()))
    }

    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        let NodeState::Window(state) = state else {
            return Err(state.mismatch(self.name()));
        };
        let name = self.name().to_string();
        self.chain.restore(&name, vec![state])?;
        self.track_peak();
        Ok(())
    }

    fn slice_chain(&self) -> Option<&SliceChain> {
        Some(&self.chain)
    }

    fn slice_chain_mut(&mut self) -> Option<&mut SliceChain> {
        Some(&mut self.chain)
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
        let mode = |op: &SliceJoinOp| (op.slice().is_indexed(), op.slice().is_band_indexed());
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
            assert_eq!(op.slice().results(), 20, "{}", op.name());
            // A migration restores the captured window into a freshly
            // planned twin, which keeps its own index mode.
            fresh.restore_state(op.node_state().unwrap()).unwrap();
            assert_eq!(mode(&fresh), mode(&op), "{}", op.name());
            assert_eq!(fresh.slice().state_tuples(), op.slice().state_tuples());
            assert_eq!(fresh.slice().results(), 0);
            fresh.process(0, tuple(31, StreamId::B).into(), &mut ctx);
            assert_eq!(fresh.slice().results(), 20);
            // Its first run's 20 results leave in a batch, as any run's
            // 16 or more do.
            assert_eq!(fresh.slice().batch_results(), 20);
            // Dropping the index keeps every stored tuple.
            let stored = fresh.slice().state_tuples();
            fresh.drop_index();
            assert_eq!(mode(&fresh), plain);
            assert_eq!(fresh.slice().state_tuples(), stored);
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
        assert_eq!((op.slice().results(), op.slice().batch_results()), (24, 24));
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
        assert_eq!(reference.slice().batch_results(), 0);
        // The run after a dense one follows its own count: six results
        // leave as rows.
        op.process(0, probe(14).into(), &mut ctx);
        let mut want: Vec<Out> = (0..6).map(|i| Out::Row(joined(i, 14))).collect();
        want.push(Out::Punctuation);
        assert_eq!(results_out(&mut ctx), want);
        assert_eq!((op.slice().results(), op.slice().batch_results()), (30, 24));
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
            (
                c.probe_comparisons,
                c.purge_comparisons,
                op.slice().results(),
            )
        };
        // Live bytes, held bytes, and every key's probe candidates.
        let observe = |op: &SliceJoinOp| {
            let candidates: Vec<Vec<Timestamp>> = (0..7)
                .map(|k| {
                    let probe = tuple(300, StreamId::B, k);
                    let stores = op.slice_chain().map(SliceChain::stores);
                    let store_a = stores.and_then(|mut stores| stores.next()).unwrap();
                    store_a
                        .probe_candidates(&probe)
                        .map(|(_, t)| t.ts)
                        .collect()
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
