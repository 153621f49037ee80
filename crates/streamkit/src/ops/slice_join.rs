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

use crate::checkpoint::{NodeState, WindowState};
use crate::columnar::ColumnBatch;
use crate::error::{Result, StreamError};
use crate::join_state::{equi_key_fields, memoize_key, JoinState};
use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::JoinCondition;
use crate::punctuation::Punctuation;
use crate::queue::StreamItem;
use crate::time::Timestamp;
use crate::tuple::{StreamId, Tuple, TupleRole};
use crate::window::{SliceWindow, WindowSpec};

/// Output port carrying joined results and punctuations.
pub const PORT_RESULTS: PortId = 0;
/// Output port carrying the logical queue towards the next slice.
pub const PORT_NEXT_SLICE: PortId = 1;

/// Stream id of every joined result tuple.
pub const RESULT_STREAM: StreamId = StreamId(101);

/// Result density at which a run's results travel as one [`ColumnBatch`]
/// instead of one row [`Tuple`] each.  A run opens columnar iff this
/// operator's *previous* run produced at least this many results; a run
/// that opened on rows switches to a batch at its own result number
/// `COLUMNAR_MIN_RUN_RESULTS`, so its first `COLUMNAR_MIN_RUN_RESULTS - 1`
/// results stay rows and the rest leave in batches.  Results are never
/// held back to decide.
///
/// A batch is one queue item, one fan-out hop and one union slot whatever
/// its row count, and [`ColumnBatch::push_join`] allocates nothing per
/// match — but a batch costs 6 + arity `Vec`s before its first row and a
/// column-wise copy in every union that interleaves it with another port,
/// so a run of one or two results is cheaper as row tuples.
///
/// Measured with the repository benchmark (2 vCPUs, `--seed 7 --seconds 6`,
/// four alternating runs per value, median capacity in k tuples/s) at
/// 4 / 8 / 16 / 32 / 64: `selective-fanout`, whose 64-item runs yield ≈ 8
/// results in the first slice and 1–2 in each of the other eleven,
/// 271 / 272 / 283 / 274 / 279; `equi-chain`, 65–130 results per run and
/// slice, 493 / 493 / 472 / 464 / 354.  The break-even lies between 8 and
/// 16 results per run: below it the sparse workload's first slice flips to
/// batches of a handful of rows and loses 4 %; from 32 up the dense
/// workload's short tail runs fall back to rows, and at 64 a quarter of its
/// capacity is gone.  16 keeps every `selective-fanout` run on rows and
/// every `equi-chain` run on batches.  That sweep measured the pure
/// previous-run rule, before the in-run switch; 16 was kept for the switch,
/// not re-tuned.
const COLUMNAR_MIN_RUN_RESULTS: u64 = 16;

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
    /// Results of the current run so far, which switch a row run to a batch
    /// at [`COLUMNAR_MIN_RUN_RESULTS`]; between runs, the previous run's
    /// count — the observed result density the next run opens its transport
    /// from (a fresh or rebuilt operator has no history and opens on rows).
    run_results: u64,
    /// Results that left as rows of a [`ColumnBatch`].
    batch_results: u64,
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
            run_results: 0,
            batch_results: 0,
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
    /// [`ColumnBatch`]; the rest left as row tuples.
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

    /// Emit the run's `run_result`-th joined result.  `pending` is the run's
    /// open [`ColumnBatch`] when the run is columnar (the match is appended
    /// with [`ColumnBatch::push_join`], no per-match payload allocation) and
    /// `None` when it is not (the match leaves as a row [`Tuple::join`]); a
    /// row run opens its batch at result [`COLUMNAR_MIN_RUN_RESULTS`].  The
    /// result rows, their order and every counter are identical either way;
    /// only the transport representation differs.
    fn emit_result(
        pending: &mut Option<ColumnBatch>,
        run_result: u64,
        left: &Tuple,
        right: &Tuple,
        ctx: &mut OpContext,
    ) {
        if pending.is_none() && run_result >= COLUMNAR_MIN_RUN_RESULTS {
            *pending = Some(ColumnBatch::new());
        }
        let Some(batch) = pending else {
            ctx.emit(PORT_RESULTS, Tuple::join(left, right, RESULT_STREAM));
            return;
        };
        if batch.push_join(left, right, RESULT_STREAM) {
            return;
        }
        // Result arity changed mid-run, so the batch holds rows: flush it
        // and start a fresh one.
        ctx.emit(PORT_RESULTS, std::mem::take(batch));
        let ok = batch.push_join(left, right, RESULT_STREAM);
        debug_assert!(ok, "a fresh batch accepts any arity");
    }

    /// Emit a columnar run's open batch, if it holds any rows, leaving a
    /// fresh one open.
    fn flush_results(pending: &mut Option<ColumnBatch>, ctx: &mut OpContext) {
        if let Some(batch) = pending {
            if !batch.is_empty() {
                ctx.emit(PORT_RESULTS, std::mem::take(batch));
            }
        }
    }

    /// Probe with a male (or a one-way B tuple): cross-purge the opposite
    /// state into the next slice, probe it — an equi probe touches only its
    /// key bucket, O(1 + matches) — emit the results, then propagate the
    /// probe to the next slice.
    ///
    /// Purging first makes every older candidate younger than `end`, and in
    /// a chain no stored tuple is newer than the probe nor younger than
    /// `start` (Lemma 1), so the probe is a pure value comparison.  Only a
    /// join fed on two ports can hold tuples *newer* than the probe — when
    /// one port lags the other — so while the opposite state's newest tuple
    /// is ahead of the probe, candidates a whole window ahead are skipped.
    fn probe(&mut self, probe: Tuple, pending: &mut Option<ColumnBatch>, ctx: &mut OpContext) {
        let probe_is_a = probe.stream == StreamId::A;
        let opposite = if probe_is_a {
            &mut self.state_b
        } else {
            &mut self.state_a
        };
        let (window, has_next) = (self.window, self.has_next);
        let comparisons = opposite.purge_expired(
            |front| window.expired(probe.ts, front.ts),
            |expired| {
                if has_next {
                    ctx.emit(PORT_NEXT_SLICE, expired);
                }
            },
        );
        ctx.counters.purge_comparisons += comparisons;
        let ahead = opposite.back().is_some_and(|newest| newest.ts > probe.ts);
        for stored in opposite.probe_candidates(&probe) {
            if ahead && stored.ts.saturating_sub(probe.ts) >= window.end {
                continue;
            }
            let (left, right) = if probe_is_a {
                (&probe, stored)
            } else {
                (stored, &probe)
            };
            if self
                .condition
                .eval_counted(left, right, &mut ctx.counters.probe_comparisons)
            {
                self.results += 1;
                self.run_results += 1;
                Self::emit_result(pending, self.run_results, left, right, ctx);
            }
        }
        if has_next {
            ctx.emit(PORT_NEXT_SLICE, probe);
        }
    }

    /// Insert a female (or a one-way A tuple) into its stream's state.
    fn store(&mut self, tuple: Tuple) {
        if tuple.stream == StreamId::A {
            self.state_a.push(tuple);
        } else {
            self.state_b.push(tuple);
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

    /// Process one tuple of a run.
    ///
    /// The chain head computes each arrival's canonical equi-key hash once;
    /// the male/female reference copies share the memo, so every downstream
    /// slice's probe and insert — and the shard router before the chain —
    /// reuse it instead of rehashing.
    ///
    /// The last probe is recorded in `last_probe`; the caller emits one
    /// coalesced punctuation for the whole run.
    fn process_tuple(
        &mut self,
        mut t: Tuple,
        last_probe: &mut Option<(Timestamp, StreamId)>,
        pending: &mut Option<ColumnBatch>,
        ctx: &mut OpContext,
    ) {
        ctx.counters.tuples_processed += 1;
        if self.chain_head {
            if let Some(field) = self.key_field_of(t.stream) {
                memoize_key(&mut t, field);
            }
        }
        let role = match self.direction {
            Direction::TwoWay => t.role,
            Direction::OneWay if t.stream == StreamId::A => TupleRole::Female,
            Direction::OneWay => TupleRole::Male,
        };
        if role == TupleRole::Female {
            return self.store(t);
        }
        *last_probe = Some((t.ts, t.stream));
        if role == TupleRole::Male {
            return self.probe(t, pending, ctx);
        }
        // Split a regular tuple into reference copies: the male purges and
        // probes first, then the female fills the state — this matches
        // Fig. 9, where an arriving tuple never joins with itself.  At the
        // chain head this is the paper's split; mid-chain slices should only
        // ever see tagged copies, but treating a stray untagged tuple the
        // same way keeps standalone use working.
        let male = t.with_role(TupleRole::Male);
        t.role = TupleRole::Female;
        self.probe(male, pending, ctx);
        self.store(t);
    }

    /// Process one run: a statically dispatched tight loop with the per-probe
    /// union punctuations coalesced into **one punctuation per run** (a
    /// punctuation is a monotone progress promise, so the run's last probe
    /// promises everything the per-probe punctuations would).
    ///
    /// The run's results leave as row tuples or as one [`ColumnBatch`]
    /// (flushed before any interleaved punctuation and before the run's
    /// coalesced one).  The run opens in the transport the previous run's
    /// result count predicts, and a run that opened on rows switches to a
    /// batch at its own [`COLUMNAR_MIN_RUN_RESULTS`]-th result: the rows
    /// already emitted stay rows, every later result goes into the batch.
    ///
    /// The cross-purge stays interleaved per probe: a purged tuple must
    /// enter the next slice's logical queue *before* the probe whose arrival
    /// expired it (Fig. 9's emission order), or results would shift between
    /// slices.  Run length is invisible in results, counters and final
    /// states (`tests/batch_equivalence.rs`).
    fn run(&mut self, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let mut last_probe = None;
        let columnar = self.run_results >= COLUMNAR_MIN_RUN_RESULTS;
        let mut pending = columnar.then(ColumnBatch::new);
        self.run_results = 0;
        for item in items {
            match item {
                StreamItem::Tuple(t) => self.process_tuple(t, &mut last_probe, &mut pending, ctx),
                StreamItem::Batch(b) => {
                    // Roles travel per row: process an input batch's rows
                    // one by one.
                    for t in b.materialize() {
                        self.process_tuple(t, &mut last_probe, &mut pending, ctx);
                    }
                }
                StreamItem::Punctuation(p) => {
                    // Keep result rows ordered relative to the progress marker.
                    Self::flush_results(&mut pending, ctx);
                    ctx.emit(PORT_RESULTS, p);
                    if self.has_next {
                        ctx.emit(PORT_NEXT_SLICE, p);
                    }
                }
            }
        }
        Self::flush_results(&mut pending, ctx);
        if let Some((ts, stream)) = last_probe {
            ctx.emit(PORT_RESULTS, Punctuation::from_stream(ts, stream));
        }
        // A run that opened on rows sent the results before its switch as
        // rows.
        let rows_first = if columnar {
            0
        } else {
            COLUMNAR_MIN_RUN_RESULTS - 1
        };
        self.batch_results += self.run_results.saturating_sub(rows_first);
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

    fn as_slice_join(&self) -> Option<&SliceJoinOp> {
        Some(self)
    }

    fn as_slice_join_mut(&mut self) -> Option<&mut SliceJoinOp> {
        Some(self)
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
            // A dense first run: 20 stored tuples × 1 probe = 20 results, so
            // the next run would go columnar.
            let tuple = |s, stream| Tuple::of_ints(Timestamp::from_secs(s), stream, &[0, 0, 0]);
            let mut run: Vec<StreamItem> = (0..20).map(|s| tuple(s, StreamId::A).into()).collect();
            run.push(tuple(30, StreamId::B).into());
            let mut ctx = OpContext::new();
            op.process_batch(0, &mut run, &mut ctx);
            assert_eq!(op.results(), 20, "{}", op.name());
            // A migration restores the captured window into a freshly
            // planned twin, which keeps its own index mode and starts with
            // no emission history: its first run is on rows.
            fresh.restore_state(op.node_state().unwrap()).unwrap();
            assert_eq!(mode(&fresh), mode(&op), "{}", op.name());
            assert_eq!(fresh.state_tuples(), op.state_tuples());
            assert_eq!(fresh.results(), 0);
            fresh.process(0, tuple(31, StreamId::B).into(), &mut ctx);
            assert_eq!(fresh.results(), 20);
            // Opened on rows, switched at its 16th result.
            assert_eq!(fresh.batch_results(), 5);
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
        // One probe's six results in a batch, cut at each arity change.
        let batched =
            |s| [0..2, 2..3, 3..6].map(|rows| Out::Batch(rows.map(|i| joined(i, s)).collect()));
        let slice = || {
            SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 100), JoinCondition::Cross)
                .chain_head()
                .last_in_chain()
        };
        // One fresh run, so it opens on rows: 4 probes × 6 stored = 24
        // results, with a punctuation after the third probe.
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
        // Results 1–15 leave as rows; the 16th opens a batch that takes
        // every later result, flushed before the interleaved punctuation,
        // cut at each arity change and flushed before the run's punctuation.
        let mut want: Vec<Out> = [10, 11]
            .into_iter()
            .flat_map(|s| (0..6).map(move |i| (i, s)))
            .chain((0..3).map(|i| (i, 12)))
            .map(|(i, s)| Out::Row(joined(i, s)))
            .collect();
        want.extend([
            Out::Batch((3..6).map(|i| joined(i, 12)).collect()),
            Out::Punctuation,
        ]);
        want.extend(batched(13));
        want.push(Out::Punctuation);
        assert_eq!(got, want);
        assert_eq!((op.results(), op.batch_results()), (24, 9));
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
        // A batch-predicted run that turns out sparse still leaves as a
        // batch; the run after it opens on rows again.
        op.process(0, probe(14).into(), &mut ctx);
        let mut want = Vec::from(batched(14));
        want.push(Out::Punctuation);
        assert_eq!(results_out(&mut ctx), want);
        op.process(0, probe(15).into(), &mut ctx);
        let mut want: Vec<Out> = (0..6).map(|i| Out::Row(joined(i, 15))).collect();
        want.push(Out::Punctuation);
        assert_eq!(results_out(&mut ctx), want);
        assert_eq!((op.results(), op.batch_results()), (36, 15));
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
        // than the 50 s window: the 49 survivors straddle two arena segments,
        // the first one mostly purged slack.
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
