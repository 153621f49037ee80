//! State-sliced binary window join (Definition 3, Figures 8–9).
//!
//! `A[W_start, W_end] ⋈ˢ B[W_start, W_end]` keeps one sliced state per
//! stream.  Execution uses the paper's reference-copy scheme: every arriving
//! tuple is split (by the head of the chain) into a *male* copy — which
//! cross-purges and probes the opposite state and is then propagated to the
//! next slice — and a *female* copy — which is inserted into this slice's
//! state and travels to the next slice only when purged.  The two copies
//! share their payload (`Arc`), so no payload is duplicated.
//!
//! The operator has a single input port carrying the chain's logical queue
//! (both streams, both roles, in emission order) and three output ports:
//!
//! * [`PORT_RESULTS`] — joined results plus one punctuation per male tuple
//!   processed (the paper's Section 4.3 observation that male tuples act as
//!   punctuations for the order-preserving union),
//! * [`PORT_NEXT_SLICE`] — the logical queue feeding the next slice,
//! * the operator is usually built via
//!   [`SharedChainPlan`](crate::planner::SharedChainPlan), which wires these
//!   ports up for a whole chain.

use std::any::Any;

use streamkit::columnar::ColumnBatch;
use streamkit::join_state::{equi_key_fields, memoize_key, JoinState};
use streamkit::operator::{OpContext, Operator, PortId};
use streamkit::punctuation::Punctuation;
use streamkit::queue::StreamItem;
use streamkit::tuple::{StreamId, Tuple, TupleRole};
use streamkit::window::SliceWindow;
use streamkit::JoinCondition;

/// Output port carrying joined results and punctuations.
pub const PORT_RESULTS: PortId = 0;
/// Output port carrying the logical queue towards the next slice.
pub const PORT_NEXT_SLICE: PortId = 1;

/// Stream id of joined result tuples produced by sliced binary joins.
pub const SLICED_JOIN_OUTPUT: StreamId = StreamId(101);

/// Result density at which a run's results travel as one [`ColumnBatch`]
/// instead of one row [`Tuple`] each: a run goes columnar iff this
/// operator's *previous* run produced at least this many results.
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
/// every `equi-chain` run on batches.
const COLUMNAR_MIN_RUN_RESULTS: u64 = 16;

/// One state-sliced binary window join.
#[derive(Debug)]
pub struct SlicedBinaryJoinOp {
    name: String,
    window: SliceWindow,
    condition: JoinCondition,
    stream_a: StreamId,
    stream_b: StreamId,
    state_a: JoinState,
    state_b: JoinState,
    peak_state: usize,
    results: u64,
    /// First join of a chain: splits regular tuples into male/female copies.
    chain_head: bool,
    /// Last join of a chain: discards instead of forwarding to a next slice.
    has_next: bool,
    /// Results produced by the previous run — the observed result density
    /// the next run's transport is chosen from (a fresh or rebuilt operator
    /// has no history and starts on rows).
    prev_run_results: u64,
    /// Results that left as rows of a [`ColumnBatch`].
    batch_results: u64,
}

impl SlicedBinaryJoinOp {
    /// Build a sliced binary join over the window slice `window` for streams
    /// `stream_a` / `stream_b` under the given join condition.
    pub fn new(
        name: impl Into<String>,
        window: SliceWindow,
        condition: JoinCondition,
        stream_a: StreamId,
        stream_b: StreamId,
    ) -> Self {
        // State A stores the left side of condition evaluations, state B the
        // right side; both are hash-indexed for equi conditions.
        let state_a = JoinState::for_condition(&condition, true);
        let state_b = JoinState::for_condition(&condition, false);
        SlicedBinaryJoinOp {
            name: name.into(),
            window,
            condition,
            stream_a,
            stream_b,
            state_a,
            state_b,
            peak_state: 0,
            results: 0,
            chain_head: false,
            has_next: true,
            prev_run_results: 0,
            batch_results: 0,
        }
    }

    /// Convenience constructor for the conventional `A`/`B` streams.
    pub fn for_ab(name: impl Into<String>, window: SliceWindow, condition: JoinCondition) -> Self {
        SlicedBinaryJoinOp::new(name, window, condition, StreamId::A, StreamId::B)
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

    /// Disable the equi-join hash index and probe by linear scan, the
    /// pre-index behaviour.  Benchmark/testing aid; call before processing
    /// any tuples.
    pub fn without_index(mut self) -> Self {
        debug_assert!(self.state_a.is_empty() && self.state_b.is_empty());
        self.state_a = JoinState::linear();
        self.state_b = JoinState::linear();
        self
    }

    /// The window slice `[W_start, W_end)` of this join.
    pub fn window(&self) -> SliceWindow {
        self.window
    }

    /// Replace the window slice (used by online chain migration).
    pub fn set_window(&mut self, window: SliceWindow) {
        self.window = window;
    }

    /// The join condition.
    pub fn condition(&self) -> &JoinCondition {
        &self.condition
    }

    /// The `(A, B)` stream identifiers this join operates on.
    pub fn streams(&self) -> (StreamId, StreamId) {
        (self.stream_a, self.stream_b)
    }

    /// `true` if this join forwards purged / propagated tuples to a next slice.
    pub fn has_next(&self) -> bool {
        self.has_next
    }

    /// Change whether this join forwards to a next slice (used by migration
    /// when a slice stops or starts being the last one of its chain).
    pub fn set_has_next(&mut self, has_next: bool) {
        self.has_next = has_next;
    }

    /// `true` if this join splits regular tuples into reference copies.
    pub fn is_chain_head(&self) -> bool {
        self.chain_head
    }

    /// `true` if this join's state is hash-indexed on the equi-join key
    /// (`false` in [`SlicedBinaryJoinOp::without_index`] mode or for
    /// conditions with no equi component).
    pub fn is_indexed(&self) -> bool {
        self.state_a.is_indexed()
    }

    /// `true` if this join's state is band-indexed (value-ordered order
    /// index; conditions with an inequality theta but no equi component).
    pub fn is_band_indexed(&self) -> bool {
        self.state_a.is_band_indexed() || self.state_b.is_band_indexed()
    }

    /// Change whether this join is the head of its chain.
    pub fn set_chain_head(&mut self, chain_head: bool) {
        self.chain_head = chain_head;
    }

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// How many of [`SlicedBinaryJoinOp::results`] left as rows of a
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

    /// Drain both states (oldest first), used by online migration to move
    /// state into a merged join.
    pub fn drain_states(&mut self) -> (Vec<Tuple>, Vec<Tuple>) {
        (self.state_a.drain_ordered(), self.state_b.drain_ordered())
    }

    /// Load state tuples (assumed timestamp-ordered), used by online
    /// migration when merging or splitting slices.  Rebuilds the hash index.
    pub fn load_states(&mut self, state_a: Vec<Tuple>, state_b: Vec<Tuple>) {
        self.state_a.load_ordered(state_a);
        self.state_b.load_ordered(state_b);
        self.peak_state = self.peak_state.max(self.state_len());
    }

    /// Timestamps currently held in the two states (oldest first); test and
    /// verification aid.
    pub fn state_timestamps(&self) -> (Vec<streamkit::Timestamp>, Vec<streamkit::Timestamp>) {
        (
            self.state_a.iter().map(|t| t.ts).collect(),
            self.state_b.iter().map(|t| t.ts).collect(),
        )
    }

    /// Copies of the tuples currently held in the two states (oldest first);
    /// verification aid for migration and shard-rescaling tooling.
    pub fn state_tuples(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        (
            self.state_a.iter().cloned().collect(),
            self.state_b.iter().cloned().collect(),
        )
    }

    fn track_peak(&mut self) {
        let total = self.state_a.len() + self.state_b.len();
        if total > self.peak_state {
            self.peak_state = total;
        }
    }

    /// Cross-purge the given state with the male tuple's timestamp, forwarding
    /// expired females to the next slice.
    fn purge_state(
        state: &mut JoinState,
        window: SliceWindow,
        male_ts: streamkit::Timestamp,
        has_next: bool,
        ctx: &mut OpContext,
    ) {
        let comparisons = state.purge_expired(
            |front| window.expired(male_ts, front.ts),
            |expired| {
                if has_next {
                    ctx.emit(PORT_NEXT_SLICE, expired);
                }
            },
        );
        ctx.counters.purge_comparisons += comparisons;
    }

    /// Emit one joined result.  `pending` is the run's open [`ColumnBatch`]
    /// when the run is columnar (the match is appended with
    /// [`ColumnBatch::push_join`], no per-match payload allocation) and
    /// `None` when it is not (the match leaves as a row [`Tuple::join`]).
    /// The result rows, their order and every counter are identical either
    /// way; only the transport representation differs.
    fn emit_result(
        pending: &mut Option<ColumnBatch>,
        left: &Tuple,
        right: &Tuple,
        ctx: &mut OpContext,
    ) {
        let Some(batch) = pending else {
            ctx.emit(PORT_RESULTS, Tuple::join(left, right, SLICED_JOIN_OUTPUT));
            return;
        };
        if !batch.push_join(left, right, SLICED_JOIN_OUTPUT) {
            // Result arity changed mid-run: flush and start a fresh batch.
            Self::flush_results(pending, ctx);
            let batch = pending.as_mut().expect("flushing keeps the run columnar");
            let ok = batch.push_join(left, right, SLICED_JOIN_OUTPUT);
            debug_assert!(ok, "a fresh batch accepts any arity");
        }
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

    /// Process a male tuple: purge + probe the opposite state, emit results,
    /// then propagate the male to the next slice.  Equi probes touch only the
    /// male's key bucket of the opposite state (O(1 + matches)).  The union
    /// punctuation the male stands for (Section 4.3) is emitted by
    /// [`SlicedBinaryJoinOp::run`], coalesced to one per run.
    fn process_male(
        &mut self,
        male: Tuple,
        pending: &mut Option<ColumnBatch>,
        ctx: &mut OpContext,
    ) {
        let male_is_a = male.stream == self.stream_a;
        let opposite = if male_is_a {
            &mut self.state_b
        } else {
            &mut self.state_a
        };
        Self::purge_state(opposite, self.window, male.ts, self.has_next, ctx);
        for stored in opposite.probe_candidates(&male) {
            let matched = if male_is_a {
                self.condition
                    .eval_counted(&male, stored, &mut ctx.counters.probe_comparisons)
            } else {
                self.condition
                    .eval_counted(stored, &male, &mut ctx.counters.probe_comparisons)
            };
            if matched {
                self.results += 1;
                if male_is_a {
                    Self::emit_result(pending, &male, stored, ctx);
                } else {
                    Self::emit_result(pending, stored, &male, ctx);
                }
            }
        }
        if self.has_next {
            ctx.emit(PORT_NEXT_SLICE, male);
        }
    }

    /// Process a female tuple: insert into this slice's state.
    fn process_female(&mut self, female: Tuple) {
        if female.stream == self.stream_a {
            self.state_a.push(female);
        } else {
            self.state_b.push(female);
        }
        self.track_peak();
    }

    /// The equi-key field of a tuple from `stream` (its probe key against the
    /// opposite state and its stored key in its own state are the same side
    /// of the condition), or `None` for non-equi conditions.
    fn key_field_of(&self, stream: StreamId) -> Option<usize> {
        let (left, right) = equi_key_fields(&self.condition, true)?;
        if stream == self.stream_a {
            Some(left)
        } else if stream == self.stream_b {
            Some(right)
        } else {
            None
        }
    }

    /// Process one tuple of a run.
    ///
    /// `memoize` is true at the chain head, where each arrival's canonical
    /// equi-key hash is computed once; the male/female reference copies share
    /// the memo, so every downstream slice's probe and insert — and the
    /// shard router before the chain — reuse it instead of rehashing.
    ///
    /// The last processed male is recorded in `last_male`; the caller emits
    /// one coalesced punctuation for the whole run.
    fn process_tuple(
        &mut self,
        mut t: Tuple,
        memoize: bool,
        last_male: &mut Option<(streamkit::Timestamp, StreamId)>,
        pending: &mut Option<ColumnBatch>,
        ctx: &mut OpContext,
    ) {
        ctx.counters.tuples_processed += 1;
        match t.role {
            TupleRole::Regular => {
                // Split into reference copies: the male purges and probes
                // first, then the female fills the state — this matches
                // Fig. 9, where an arriving tuple never joins with itself.
                // At the chain head this is the paper's split; mid-chain
                // slices should only ever see tagged copies, but treating a
                // stray untagged tuple the same way keeps standalone use
                // working.
                if memoize {
                    if let Some(field) = self.key_field_of(t.stream) {
                        memoize_key(&mut t, field);
                    }
                }
                *last_male = Some((t.ts, t.stream));
                let male = t.with_role(TupleRole::Male);
                t.role = TupleRole::Female;
                self.process_male(male, pending, ctx);
                self.process_female(t);
            }
            TupleRole::Male => {
                *last_male = Some((t.ts, t.stream));
                self.process_male(t, pending, ctx);
            }
            TupleRole::Female => self.process_female(t),
        }
    }

    /// Process one run: a statically dispatched tight loop, with the chain
    /// head memoising each arrival's canonical equi-key hash once for the
    /// whole chain, and the per-male union punctuations coalesced into **one
    /// punctuation per run** (a punctuation is a monotone progress promise,
    /// so the run's last male promises everything the per-male punctuations
    /// would — the same coarsening the order-preserving union's own
    /// forwarding mode applies).
    ///
    /// The run's results leave as row tuples or as one [`ColumnBatch`]
    /// (flushed before any interleaved punctuation and before the run's
    /// coalesced one), chosen from the previous run's result count — see
    /// [`COLUMNAR_MIN_RUN_RESULTS`].
    ///
    /// Unlike the terminal window joins, the cross-purge stays interleaved
    /// per male rather than running once at the run-maximum timestamp: a
    /// purged female must enter the next slice's logical queue *before* the
    /// male whose arrival expired it (Fig. 9's emission order), otherwise
    /// results shift between slices and per-query slice attribution — which
    /// query unions tap which slices — changes.  The purge is already O(1)
    /// per male when nothing expires, so what a longer run saves is dispatch,
    /// hashing and punctuation traffic, not purge arithmetic; equality of
    /// results and final states across run lengths is pinned by
    /// `tests/batch_equivalence.rs`.
    fn run(&mut self, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let memoize = self.chain_head;
        let mut last_male = None;
        let columnar = self.prev_run_results >= COLUMNAR_MIN_RUN_RESULTS;
        let mut pending = columnar.then(ColumnBatch::new);
        let results_before = self.results;
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    self.process_tuple(t, memoize, &mut last_male, &mut pending, ctx)
                }
                StreamItem::Batch(b) => {
                    // Input batches are not part of the chain's logical-queue
                    // protocol (roles travel per row); process rows
                    // individually.
                    for t in b.materialize() {
                        self.process_tuple(t, memoize, &mut last_male, &mut pending, ctx);
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
        if let Some((ts, stream)) = last_male {
            ctx.emit(PORT_RESULTS, Punctuation::from_stream(ts, stream));
        }
        self.prev_run_results = self.results - results_before;
        if columnar {
            self.batch_results += self.prev_run_results;
        }
    }
}

impl Operator for SlicedBinaryJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_input_ports(&self) -> usize {
        1
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

    fn drain_window_states(&mut self) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        Some(self.drain_states())
    }

    fn load_window_states(&mut self, side_a: Vec<Tuple>, side_b: Vec<Tuple>) {
        self.load_states(side_a, side_b);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::Timestamp;

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn results_of(ctx: &mut OpContext) -> Vec<(u64, u64)> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, item)| *port == PORT_RESULTS && !item.is_punctuation())
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| {
                (
                    t.ts.as_micros() / 1_000_000,
                    t.origin_span.as_micros() / 1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn head_slice_splits_into_reference_copies_and_joins_both_directions() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 10), JoinCondition::equi(0))
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 7).into(), &mut ctx);
        assert!(results_of(&mut ctx).is_empty());
        assert_eq!(op.state_a_len(), 1);
        // A B tuple with the same key joins against the stored A female.
        op.process(0, b(2, 7).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(2, 1)]);
        // A later A tuple joins against the stored B female (other direction).
        op.process(0, a(3, 7).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(3, 1)]);
        assert_eq!(op.results(), 2);
        assert_eq!(op.state_len(), 3);
        assert!(op.peak_state() >= 3);
    }

    #[test]
    fn an_arrival_never_joins_with_itself() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 10), JoinCondition::Cross)
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 1).into(), &mut ctx);
        // Only one tuple has arrived; the male copy must not see its own
        // female copy in the state.
        assert!(results_of(&mut ctx).is_empty());
    }

    #[test]
    fn purged_females_and_propagated_males_feed_the_next_slice() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 2), JoinCondition::Cross)
                .chain_head();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        let forwarded: Vec<(TupleRole, u64)> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_NEXT_SLICE)
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| (t.role, t.ts.as_micros() / 1_000_000))
            .collect();
        // The male copy is propagated immediately.
        assert_eq!(forwarded, vec![(TupleRole::Male, 1)]);
        // A much later B tuple purges the A female into the next slice.
        op.process(0, b(10, 0).into(), &mut ctx);
        let forwarded: Vec<(TupleRole, u64, StreamId)> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_NEXT_SLICE)
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| (t.role, t.ts.as_micros() / 1_000_000, t.stream))
            .collect();
        assert_eq!(
            forwarded,
            vec![
                (TupleRole::Female, 1, StreamId::A),
                (TupleRole::Male, 10, StreamId::B),
            ]
        );
        assert_eq!(op.state_a_len(), 0);
        assert_eq!(op.state_b_len(), 1);
    }

    #[test]
    fn male_tuples_emit_punctuations_for_the_union() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 5), JoinCondition::Cross)
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(3, 0).into(), &mut ctx);
        let puncts: Vec<Punctuation> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_RESULTS)
            .filter_map(|(_, item)| match item {
                StreamItem::Punctuation(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts.len(), 1);
        assert_eq!(puncts[0].watermark, Timestamp::from_secs(3));
        assert_eq!(puncts[0].stream, Some(StreamId::A));
    }

    #[test]
    fn only_females_occupy_state_memory() {
        // Fig. 9 note (2): the state of the binary sliced window join only
        // holds the female tuples.
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 100), JoinCondition::Cross)
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        for s in 1..=10 {
            op.process(0, a(s, 0).into(), &mut ctx);
            op.process(0, b(s, 0).into(), &mut ctx);
        }
        // 10 A females + 10 B females, no male is ever stored.
        assert_eq!(op.state_len(), 20);
    }

    #[test]
    fn migration_helpers_round_trip_state() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 100), JoinCondition::Cross)
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        op.process(0, b(2, 0).into(), &mut ctx);
        let (sa, sb) = op.drain_states();
        assert_eq!(sa.len(), 1);
        assert_eq!(sb.len(), 1);
        assert_eq!(op.state_len(), 0);
        op.load_states(sa, sb);
        assert_eq!(op.state_len(), 2);
        op.set_window(SliceWindow::from_secs(0, 50));
        assert_eq!(op.window(), SliceWindow::from_secs(0, 50));
    }

    #[test]
    fn mid_chain_slices_respect_roles() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J2", SliceWindow::from_secs(2, 4), JoinCondition::Cross)
                .last_in_chain();
        let mut ctx = OpContext::new();
        // A purged female from the previous slice fills the state…
        op.process(0, a(1, 0).with_role(TupleRole::Female).into(), &mut ctx);
        assert_eq!(op.state_a_len(), 1);
        // …and a propagated male from the previous slice probes it.
        op.process(0, b(4, 0).with_role(TupleRole::Male).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(4, 3)]);
    }

    /// A cross-join slice whose A state holds `stored` tuples, left with the
    /// result history of the run that stored them plus `probes` B probes.
    fn slice_after_run(stored: Vec<Tuple>, probes: u64) -> (SlicedBinaryJoinOp, OpContext) {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 100), JoinCondition::Cross)
                .chain_head()
                .last_in_chain();
        let mut ctx = OpContext::new();
        let mut run: Vec<StreamItem> = stored.into_iter().map(StreamItem::from).collect();
        run.extend((0..probes).map(|i| StreamItem::from(b(10 + i, 0))));
        op.process_batch(0, &mut run, &mut ctx);
        (op, ctx)
    }

    /// What a columnar run put on [`PORT_RESULTS`]: `Ok(rows)` per batch,
    /// `Err(())` per punctuation.
    fn batches_and_punctuations(ctx: &mut OpContext) -> Vec<Result<Vec<Tuple>, ()>> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_RESULTS)
            .map(|(_, item)| match item {
                StreamItem::Batch(batch) => Ok(batch.materialize()),
                StreamItem::Punctuation(_) => Err(()),
                StreamItem::Tuple(t) => panic!("row result {t:?} in a columnar run"),
            })
            .collect()
    }

    #[test]
    fn a_sparse_run_emits_only_row_tuples() {
        // Runs of fewer than COLUMNAR_MIN_RUN_RESULTS results never turn the
        // next run columnar, however many of them follow each other.
        let (mut op, mut ctx) = slice_after_run((1..=3).map(|s| a(s, 0)).collect(), 2);
        for _ in 0..4 {
            let outputs = ctx.take_outputs();
            let rows = outputs
                .iter()
                .filter(|(_, item)| item.as_tuple().is_some())
                .count();
            let puncts = outputs.iter().filter(|(_, i)| i.is_punctuation()).count();
            assert_eq!(rows, 6, "two probes of three stored tuples, as rows");
            assert_eq!(rows + puncts, outputs.len(), "no batch in a sparse run");
            // (Each probe also stores a B female; B probes never see those.)
            let mut run = vec![b(20, 0).into(), b(21, 0).into()];
            op.process_batch(0, &mut run, &mut ctx);
        }
        assert_eq!(op.results(), 30);
        assert_eq!(op.batch_results(), 0);
    }

    #[test]
    fn the_run_after_a_dense_one_emits_batches_flushed_before_punctuations() {
        // Run 1: 4 stored × 4 probes = 16 results, as rows (no history yet).
        let (mut op, mut ctx) = slice_after_run((1..=4).map(|s| a(s, 0)).collect(), 4);
        let first = ctx.take_outputs();
        assert_eq!(
            first.iter().filter(|(_, i)| i.as_tuple().is_some()).count(),
            16
        );
        assert_eq!(op.batch_results(), 0);
        // Run 2 is columnar: one batch per stretch between punctuations,
        // each flushed before the punctuation that follows it — the
        // interleaved one and the run's coalesced one.
        let mut run = vec![
            b(20, 0).into(),
            b(21, 0).into(),
            Punctuation::new(Timestamp::from_secs(21)).into(),
            b(22, 0).into(),
        ];
        op.process_batch(0, &mut run, &mut ctx);
        let got = batches_and_punctuations(&mut ctx);
        let joined = |probe: &Tuple| -> Vec<Tuple> {
            (1..=4)
                .map(|s| Tuple::join(&a(s, 0), probe, SLICED_JOIN_OUTPUT))
                .collect()
        };
        let mut before = joined(&b(20, 0));
        before.extend(joined(&b(21, 0)));
        assert_eq!(
            got,
            vec![Ok(before), Err(()), Ok(joined(&b(22, 0))), Err(())]
        );
        assert_eq!(op.results(), 28);
        assert_eq!(op.batch_results(), 12);
        // 12 < 16: run 3 is back on rows.
        op.process(0, b(23, 0).into(), &mut ctx);
        assert_eq!(
            ctx.take_outputs()
                .iter()
                .filter(|(_, i)| i.as_tuple().is_some())
                .count(),
            4
        );
        assert_eq!(op.batch_results(), 12);
    }

    #[test]
    fn an_arity_change_mid_run_splits_the_batch() {
        // Stored A tuples of arity 1, 1, 2, 1: every probe's results change
        // arity twice, so a columnar run cuts its batch at each change.
        let wide = Tuple::of_ints(Timestamp::from_secs(3), StreamId::A, &[0, 9]);
        let stored = vec![a(1, 0), a(2, 0), wide, a(4, 0)];
        let (mut op, mut ctx) = slice_after_run(stored.clone(), 4);
        let _ = ctx.take_outputs();
        op.process(0, b(20, 0).into(), &mut ctx);
        let got = batches_and_punctuations(&mut ctx);
        let row = |i: usize| Tuple::join(&stored[i], &b(20, 0), SLICED_JOIN_OUTPUT);
        assert_eq!(
            got,
            vec![
                Ok(vec![row(0), row(1)]),
                Ok(vec![row(2)]),
                Ok(vec![row(3)]),
                Err(())
            ]
        );
        assert_eq!(op.batch_results(), 4);
    }

    #[test]
    fn punctuations_flow_through_both_ports() {
        let mut op =
            SlicedBinaryJoinOp::for_ab("J1", SliceWindow::from_secs(0, 2), JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(7)).into(),
            &mut ctx,
        );
        let ports: Vec<PortId> = ctx.take_outputs().into_iter().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![PORT_RESULTS, PORT_NEXT_SLICE]);
    }
}
