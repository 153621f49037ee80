//! Regular (un-sliced) sliding-window joins.
//!
//! [`WindowJoinOp`] is the classic binary sliding-window join of Figure 1 in
//! the paper: on each arrival it cross-purges the opposite window state,
//! probes it, and inserts the new tuple into its own state.  It is both the
//! building block of the baseline sharing strategies (Section 3) and the
//! reference oracle the state-sliced chain is verified against (Theorems 1–2).
//!
//! [`OneWayWindowJoinOp`] is the asymmetric variant `A[W] ⋉ B` where only
//! stream A keeps state (Section 4.1).

use std::any::Any;

use crate::join_state::{equi_key_fields, memoize_key, JoinState};
use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::JoinCondition;
use crate::punctuation::Punctuation;
use crate::queue::StreamItem;
use crate::time::Timestamp;
use crate::tuple::{StreamId, Tuple};
use crate::window::WindowSpec;

/// Stream id assigned to joined result tuples.
pub const JOINED_STREAM: StreamId = StreamId(100);

/// Binary sliding-window join `A[W_A] ⋈ B[W_B]`.
///
/// * input port 0: stream A, input port 1: stream B
/// * output port 0: joined results (followed by a punctuation per probe when
///   punctuation emission is enabled)
#[derive(Debug)]
pub struct WindowJoinOp {
    name: String,
    window_a: WindowSpec,
    window_b: WindowSpec,
    condition: JoinCondition,
    state_a: JoinState,
    state_b: JoinState,
    peak_state: usize,
    results: u64,
    emit_punctuations: bool,
}

impl WindowJoinOp {
    /// Build a join with per-stream windows and a join condition.
    pub fn new(
        name: impl Into<String>,
        window_a: WindowSpec,
        window_b: WindowSpec,
        condition: JoinCondition,
    ) -> Self {
        // State A stores tuples that appear on the *left* of condition
        // evaluations, state B on the right; each gets a hash index when the
        // condition has an equi component.
        let state_a = JoinState::for_condition(&condition, true);
        let state_b = JoinState::for_condition(&condition, false);
        WindowJoinOp {
            name: name.into(),
            window_a,
            window_b,
            condition,
            state_a,
            state_b,
            peak_state: 0,
            results: 0,
            emit_punctuations: false,
        }
    }

    /// Symmetric window on both inputs.
    pub fn symmetric(
        name: impl Into<String>,
        window: WindowSpec,
        condition: JoinCondition,
    ) -> Self {
        WindowJoinOp::new(name, window, window, condition)
    }

    /// Emit a punctuation on the result port after every probe, so that a
    /// downstream order-preserving union can make progress.
    pub fn with_punctuations(mut self) -> Self {
        self.emit_punctuations = true;
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

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// Current state size of the A window, in tuples.
    pub fn state_a_len(&self) -> usize {
        self.state_a.len()
    }

    /// Current state size of the B window, in tuples.
    pub fn state_b_len(&self) -> usize {
        self.state_b.len()
    }

    /// Peak combined state size, in tuples.
    pub fn peak_state(&self) -> usize {
        self.peak_state
    }

    fn track_peak(&mut self) {
        let total = self.state_a.len() + self.state_b.len();
        if total > self.peak_state {
            self.peak_state = total;
        }
    }

    /// Purge tuples expired at `ts` from the opposite state; each scanned
    /// tuple costs one timestamp comparison (see
    /// [`JoinState::purge_expired`]).
    fn cross_purge(state: &mut JoinState, window: WindowSpec, ts: Timestamp, ctx: &mut OpContext) {
        let comparisons = state.purge_expired(|front| window.expired(ts, front.ts), |_| {});
        ctx.counters.purge_comparisons += comparisons;
    }

    /// Full window-validity check for a candidate pair `(a, b)`: the pair
    /// joins iff `Tb - Ta < W_A` or `Ta - Tb < W_B` (Section 2 of the paper).
    /// Checking both sides makes the operator robust to operators upstream
    /// delaying one stream by a few scheduling steps.
    fn pair_in_window(
        window_a: WindowSpec,
        window_b: WindowSpec,
        a_ts: crate::time::Timestamp,
        b_ts: crate::time::Timestamp,
    ) -> bool {
        if b_ts >= a_ts {
            window_a.contains(b_ts, a_ts)
        } else {
            window_b.contains(a_ts, b_ts)
        }
    }

    /// The equi-key field of tuples arriving on `port` (both their probe key
    /// against the opposite state and their stored key in their own state —
    /// the same field on the same side of the condition), or `None` when the
    /// condition has no equi component.
    fn key_field(&self, port: PortId) -> Option<usize> {
        let (left, right) = equi_key_fields(&self.condition, true)?;
        Some(if port == 0 { left } else { right })
    }

    /// Probe the opposite state with an arrival.  For equi conditions the
    /// state's hash index narrows the scan to the arrival's key bucket, so
    /// the comparisons counted here scale with the matches produced rather
    /// than with the state size.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        state: &JoinState,
        arrival: &Tuple,
        condition: &JoinCondition,
        arrival_is_left: bool,
        window_a: WindowSpec,
        window_b: WindowSpec,
        ctx: &mut OpContext,
        results: &mut u64,
        emit: &mut Vec<Tuple>,
    ) {
        for stored in state.probe_candidates(arrival) {
            let (a_ts, b_ts) = if arrival_is_left {
                (arrival.ts, stored.ts)
            } else {
                (stored.ts, arrival.ts)
            };
            if !Self::pair_in_window(window_a, window_b, a_ts, b_ts) {
                continue;
            }
            let matched = if arrival_is_left {
                condition.eval_counted(arrival, stored, &mut ctx.counters.probe_comparisons)
            } else {
                condition.eval_counted(stored, arrival, &mut ctx.counters.probe_comparisons)
            };
            if matched {
                *results += 1;
                let joined = if arrival_is_left {
                    Tuple::join(arrival, stored, JOINED_STREAM)
                } else {
                    Tuple::join(stored, arrival, JOINED_STREAM)
                };
                emit.push(joined);
            }
        }
    }

    /// Probe the opposite state with one arrival on `port`, emit the joined
    /// results (and the per-probe punctuation when enabled) and insert the
    /// arrival into its own state.  Purging is [`WindowJoinOp::run`]'s job.
    fn join_arrival(
        &mut self,
        port: PortId,
        mut tuple: Tuple,
        key_field: Option<usize>,
        out: &mut Vec<Tuple>,
        ctx: &mut OpContext,
    ) {
        ctx.counters.tuples_processed += 1;
        // One canonical key hash per tuple, shared by the probe below and
        // the insert into this side's state.
        if let Some(field) = key_field {
            memoize_key(&mut tuple, field);
        }
        let (opposite, own, arrival_is_left) = if port == 0 {
            (&self.state_b, &mut self.state_a, true)
        } else {
            (&self.state_a, &mut self.state_b, false)
        };
        Self::probe(
            opposite,
            &tuple,
            &self.condition,
            arrival_is_left,
            self.window_a,
            self.window_b,
            ctx,
            &mut self.results,
            out,
        );
        let (ts, stream) = (tuple.ts, tuple.stream);
        own.push(tuple);
        for joined in out.drain(..) {
            ctx.emit(0, joined);
        }
        if self.emit_punctuations {
            ctx.emit(0, Punctuation::from_stream(ts, stream));
        }
    }

    /// Process one run (one port, timestamp order): per-tuple probes against
    /// the opposite state, then **one cross-purge per run** at the
    /// run-maximum timestamp instead of one per tuple.
    ///
    /// Deferring the purge is result-identical because every probe re-checks
    /// window validity per candidate ([`WindowJoinOp::pair_in_window`]) —
    /// expired-but-unpurged candidates are filtered before the condition is
    /// evaluated, so `probe_comparisons` does not depend on the run length
    /// either — and purging is monotone in the probe timestamp, so one purge
    /// at the run maximum leaves exactly the state that per-tuple purging
    /// would.  (Transient `peak_state` may read slightly higher on longer
    /// runs: expired tuples linger until the end of the run.)
    fn run(&mut self, port: PortId, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let mut max_ts: Option<Timestamp> = None;
        let key_field = self.key_field(port);
        let mut out = Vec::new();
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    max_ts = Some(t.ts); // runs are timestamp-ordered
                    self.join_arrival(port, t, key_field, &mut out, ctx);
                }
                StreamItem::Batch(b) => {
                    // Row fallback: terminal joins are not on the columnar
                    // path.
                    for t in b.materialize() {
                        max_ts = Some(t.ts);
                        self.join_arrival(port, t, key_field, &mut out, ctx);
                    }
                }
                // Progress markers just pass through to the result port.
                StreamItem::Punctuation(p) => ctx.emit(0, p),
            }
        }
        self.track_peak();
        if let Some(ts) = max_ts {
            let (opposite, window) = if port == 0 {
                (&mut self.state_b, self.window_b)
            } else {
                (&mut self.state_a, self.window_a)
            };
            Self::cross_purge(opposite, window, ts, ctx);
        }
    }
}

impl Operator for WindowJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_input_ports(&self) -> usize {
        2
    }

    fn process(&mut self, port: PortId, item: StreamItem, ctx: &mut OpContext) {
        self.run(port, std::iter::once(item), ctx);
    }

    fn process_batch(&mut self, port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.run(port, items.drain(..), ctx);
    }

    fn state_size(&self) -> usize {
        self.state_a.len() + self.state_b.len()
    }

    fn state_bytes(&self) -> usize {
        self.state_a.live_bytes() + self.state_b.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.state_a.capacity_bytes() + self.state_b.capacity_bytes()
    }

    fn drain_window_states(&mut self) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        Some((self.state_a.drain_ordered(), self.state_b.drain_ordered()))
    }

    fn load_window_states(&mut self, side_a: Vec<Tuple>, side_b: Vec<Tuple>) {
        self.state_a.load_ordered(side_a);
        self.state_b.load_ordered(side_b);
        self.track_peak();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One-way sliding-window join `A[W] ⋉ B`: only stream A keeps state, only B
/// tuples probe.
///
/// * input port 0: stream A (inserted into the window state)
/// * input port 1: stream B (purges and probes the A state)
/// * output port 0: joined results
#[derive(Debug)]
pub struct OneWayWindowJoinOp {
    name: String,
    window: WindowSpec,
    condition: JoinCondition,
    state_a: JoinState,
    peak_state: usize,
    results: u64,
}

impl OneWayWindowJoinOp {
    /// Build a one-way join with the given window on stream A.
    pub fn new(name: impl Into<String>, window: WindowSpec, condition: JoinCondition) -> Self {
        // Stored A tuples are the left side of every condition evaluation.
        let state_a = JoinState::for_condition(&condition, true);
        OneWayWindowJoinOp {
            name: name.into(),
            window,
            condition,
            state_a,
            peak_state: 0,
            results: 0,
        }
    }

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// Current A-state size in tuples.
    pub fn state_len(&self) -> usize {
        self.state_a.len()
    }

    /// Peak A-state size in tuples.
    pub fn peak_state(&self) -> usize {
        self.peak_state
    }

    /// Stream A: insert only.
    fn insert_a(&mut self, mut tuple: Tuple, stored_field: Option<usize>, ctx: &mut OpContext) {
        ctx.counters.tuples_processed += 1;
        if let Some(field) = stored_field {
            memoize_key(&mut tuple, field);
        }
        self.state_a.push(tuple);
    }

    /// Stream B: probe the A state.  Purging is [`OneWayWindowJoinOp::run`]'s
    /// job.
    fn probe_b(&mut self, mut tuple: Tuple, probe_field: Option<usize>, ctx: &mut OpContext) {
        ctx.counters.tuples_processed += 1;
        if let Some(field) = probe_field {
            memoize_key(&mut tuple, field);
        }
        for stored in self.state_a.probe_candidates(&tuple) {
            // One-way semantics: only pairs where the stored A tuple is not
            // newer than the probing B tuple and still inside the window —
            // exactly `contains`, which is false for newer stored tuples.
            if !self.window.contains(tuple.ts, stored.ts) {
                continue;
            }
            if self
                .condition
                .eval_counted(stored, &tuple, &mut ctx.counters.probe_comparisons)
            {
                self.results += 1;
                ctx.emit(0, Tuple::join(stored, &tuple, JOINED_STREAM));
            }
        }
    }

    /// Process one run (one port, timestamp order): stream-A runs are a tight
    /// insert loop; stream-B runs probe per tuple and cross-purge **once per
    /// run** at the run-maximum timestamp.  Results and probe counts do not
    /// depend on the run length for the same reason as in
    /// [`WindowJoinOp`]: the probe's `contains` check filters expired
    /// candidates before the condition is evaluated, and purging is monotone
    /// in the probe timestamp.
    fn run(&mut self, port: PortId, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let key_fields = equi_key_fields(&self.condition, true);
        if port == 0 {
            let stored_field = key_fields.map(|(stored, _)| stored);
            for item in items {
                match item {
                    StreamItem::Tuple(t) => self.insert_a(t, stored_field, ctx),
                    // Row fallback: terminal joins are not on the columnar
                    // path.
                    StreamItem::Batch(b) => {
                        for t in b.materialize() {
                            self.insert_a(t, stored_field, ctx);
                        }
                    }
                    StreamItem::Punctuation(p) => ctx.emit(0, p),
                }
            }
            self.peak_state = self.peak_state.max(self.state_a.len());
            return;
        }
        let probe_field = key_fields.map(|(_, probe)| probe);
        let mut max_ts: Option<Timestamp> = None;
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    max_ts = Some(t.ts); // runs are timestamp-ordered
                    self.probe_b(t, probe_field, ctx);
                }
                StreamItem::Batch(b) => {
                    for t in b.materialize() {
                        max_ts = Some(t.ts);
                        self.probe_b(t, probe_field, ctx);
                    }
                }
                StreamItem::Punctuation(p) => ctx.emit(0, p),
            }
        }
        if let Some(ts) = max_ts {
            WindowJoinOp::cross_purge(&mut self.state_a, self.window, ts, ctx);
        }
    }
}

impl Operator for OneWayWindowJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_input_ports(&self) -> usize {
        2
    }

    fn process(&mut self, port: PortId, item: StreamItem, ctx: &mut OpContext) {
        self.run(port, std::iter::once(item), ctx);
    }

    fn process_batch(&mut self, port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        self.run(port, items.drain(..), ctx);
    }

    fn state_size(&self) -> usize {
        self.state_a.len()
    }

    fn state_bytes(&self) -> usize {
        self.state_a.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.state_a.capacity_bytes()
    }

    fn drain_window_states(&mut self) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        Some((self.state_a.drain_ordered(), Vec::new()))
    }

    fn load_window_states(&mut self, side_a: Vec<Tuple>, side_b: Vec<Tuple>) {
        debug_assert!(side_b.is_empty(), "one-way join keeps no B state");
        self.state_a.load_ordered(side_a);
        self.peak_state = self.peak_state.max(self.state_a.len());
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
    use crate::time::Timestamp;

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn joined_pairs(ctx: &mut OpContext) -> Vec<(u64, u64)> {
        ctx.take_outputs()
            .into_iter()
            .filter_map(|(_, i)| i.into_tuple())
            .filter(|t| t.stream == JOINED_STREAM)
            .map(|t| {
                (
                    t.ts.as_micros() / 1_000_000,
                    t.origin_span.as_micros() / 1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn binary_join_respects_windows_and_purges() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(10), JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        op.process(0, a(1, 7).into(), &mut ctx);
        op.process(0, a(5, 7).into(), &mut ctx);
        op.process(1, b(12, 7).into(), &mut ctx);
        // a@1 is expired (12-1 >= 10); only a@5 joins.
        let pairs = joined_pairs(&mut ctx);
        assert_eq!(pairs, vec![(12, 7)]);
        assert_eq!(op.state_a_len(), 1);
        assert_eq!(op.state_b_len(), 1);
        assert_eq!(op.results(), 1);
        assert!(op.peak_state() >= 2);
        assert!(ctx.counters.probe_comparisons >= 1);
        assert!(ctx.counters.purge_comparisons >= 1);
    }

    #[test]
    fn binary_join_is_symmetric_in_probe_direction() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(100), JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        op.process(1, b(1, 3).into(), &mut ctx);
        op.process(0, a(2, 3).into(), &mut ctx);
        let pairs = joined_pairs(&mut ctx);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 2); // ts = max(1, 2)
        assert_eq!(pairs[0].1, 1); // |2 - 1|
    }

    #[test]
    fn asymmetric_windows_purge_independently() {
        // A keeps 2s of tuples, B keeps 100s.
        let mut op = WindowJoinOp::new(
            "join",
            WindowSpec::from_secs(2),
            WindowSpec::from_secs(100),
            JoinCondition::Cross,
        );
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        op.process(0, a(2, 0).into(), &mut ctx);
        op.process(1, b(5, 0).into(), &mut ctx);
        // Window A = 2s: both a@1 (diff 4) and a@2 (diff 3) are expired.
        assert_eq!(joined_pairs(&mut ctx).len(), 0);
        assert_eq!(op.state_a_len(), 0);
    }

    #[test]
    fn join_condition_filters_pairs() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(100), JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        op.process(0, a(1, 1).into(), &mut ctx);
        op.process(0, a(2, 2).into(), &mut ctx);
        op.process(1, b(3, 2).into(), &mut ctx);
        assert_eq!(joined_pairs(&mut ctx).len(), 1);
        // The hash index narrows the probe to the key-2 bucket: one
        // comparison instead of one per stored tuple.
        assert_eq!(ctx.counters.probe_comparisons, 1);
    }

    #[test]
    fn indexed_probe_comparisons_scale_with_matches_not_state() {
        // 100 stored A tuples, only 2 share the probing key: an indexed probe
        // costs 2 comparisons where the old linear scan cost 100.
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(1000), JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        for i in 0..100u64 {
            let key = if i % 50 == 0 { 7 } else { i as i64 + 100 };
            op.process(0, a(i + 1, key).into(), &mut ctx);
        }
        ctx.counters.probe_comparisons = 0;
        op.process(1, b(200, 7).into(), &mut ctx);
        assert_eq!(joined_pairs(&mut ctx).len(), 2);
        assert_eq!(ctx.counters.probe_comparisons, 2);
    }

    #[test]
    fn without_index_restores_linear_scan_costs() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(1000), JoinCondition::equi(0))
                .without_index();
        let mut ctx = OpContext::new();
        for i in 0..10u64 {
            op.process(0, a(i + 1, i as i64).into(), &mut ctx);
        }
        ctx.counters.probe_comparisons = 0;
        op.process(1, b(100, 3).into(), &mut ctx);
        // Linear mode evaluates the condition against all 10 stored tuples.
        assert_eq!(ctx.counters.probe_comparisons, 10);
        assert_eq!(joined_pairs(&mut ctx).len(), 1);
    }

    #[test]
    fn punctuation_mode_emits_progress_after_each_probe() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(10), JoinCondition::Cross)
                .with_punctuations();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert!(out.iter().any(|(_, i)| i.is_punctuation()));
    }

    #[test]
    fn punctuations_pass_through_join() {
        let mut op =
            WindowJoinOp::symmetric("join", WindowSpec::from_secs(10), JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(1)).into(),
            &mut ctx,
        );
        assert!(ctx.take_outputs()[0].1.is_punctuation());
    }

    #[test]
    fn one_way_join_only_keeps_a_state() {
        let mut op =
            OneWayWindowJoinOp::new("oneway", WindowSpec::from_secs(4), JoinCondition::Cross);
        assert_eq!(op.num_input_ports(), 2);
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        op.process(0, a(2, 0).into(), &mut ctx);
        op.process(0, a(3, 0).into(), &mut ctx);
        assert_eq!(op.state_len(), 3);
        op.process(1, b(4, 0).into(), &mut ctx);
        // a@1: diff 3 < 4 still valid; all three join.
        assert_eq!(joined_pairs(&mut ctx).len(), 3);
        op.process(1, b(6, 0).into(), &mut ctx);
        // a@1 (diff 5) and a@2 (diff 4) expired, a@3 joins.
        assert_eq!(joined_pairs(&mut ctx).len(), 1);
        assert_eq!(op.state_len(), 1);
        assert_eq!(op.results(), 4);
        assert!(op.peak_state() >= 3);
    }

    #[test]
    fn batched_runs_match_item_at_a_time_with_one_purge_per_run() {
        // Same A-run and B-run, processed item-at-a-time vs as batches: the
        // joined output and probe comparisons must match exactly, and the
        // deferred batch purge must leave the same final state.
        let make =
            || WindowJoinOp::symmetric("join", WindowSpec::from_secs(5), JoinCondition::equi(0));
        let a_run: Vec<Tuple> = (1..=20u64).map(|s| a(s, (s % 3) as i64)).collect();
        let b_run: Vec<Tuple> = (10..=30u64).map(|s| b(s, (s % 3) as i64)).collect();

        let mut item_op = make();
        let mut item_ctx = OpContext::new();
        for t in &a_run {
            item_op.process(0, t.clone().into(), &mut item_ctx);
        }
        for t in &b_run {
            item_op.process(1, t.clone().into(), &mut item_ctx);
        }

        let mut batch_op = make();
        let mut batch_ctx = OpContext::new();
        let mut items: Vec<StreamItem> = a_run.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(0, &mut items, &mut batch_ctx);
        let mut items: Vec<StreamItem> = b_run.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(1, &mut items, &mut batch_ctx);

        assert_eq!(joined_pairs(&mut item_ctx), joined_pairs(&mut batch_ctx));
        assert_eq!(
            item_ctx.counters.probe_comparisons,
            batch_ctx.counters.probe_comparisons
        );
        // The batch purge at the run maximum leaves the identical state...
        assert_eq!(item_op.state_a_len(), batch_op.state_a_len());
        assert_eq!(item_op.state_b_len(), batch_op.state_b_len());
        assert_eq!(item_op.results(), batch_op.results());
        // ...with (far) fewer purge comparisons: one pass per run.
        assert!(batch_ctx.counters.purge_comparisons < item_ctx.counters.purge_comparisons);
    }

    #[test]
    fn one_way_batched_runs_match_item_at_a_time() {
        let make =
            || OneWayWindowJoinOp::new("oneway", WindowSpec::from_secs(4), JoinCondition::equi(0));
        let a_run: Vec<Tuple> = (1..=15u64).map(|s| a(s, (s % 2) as i64)).collect();
        let b_run: Vec<Tuple> = (5..=20u64).map(|s| b(s, (s % 2) as i64)).collect();

        let mut item_op = make();
        let mut item_ctx = OpContext::new();
        for t in &a_run {
            item_op.process(0, t.clone().into(), &mut item_ctx);
        }
        for t in &b_run {
            item_op.process(1, t.clone().into(), &mut item_ctx);
        }

        let mut batch_op = make();
        let mut batch_ctx = OpContext::new();
        let mut items: Vec<StreamItem> = a_run.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(0, &mut items, &mut batch_ctx);
        let mut items: Vec<StreamItem> = b_run.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(1, &mut items, &mut batch_ctx);

        assert_eq!(joined_pairs(&mut item_ctx), joined_pairs(&mut batch_ctx));
        assert_eq!(
            item_ctx.counters.probe_comparisons,
            batch_ctx.counters.probe_comparisons
        );
        assert_eq!(item_op.state_len(), batch_op.state_len());
        assert_eq!(item_op.results(), batch_op.results());
    }

    #[test]
    fn one_way_join_forwards_punctuations() {
        let mut op =
            OneWayWindowJoinOp::new("oneway", WindowSpec::from_secs(4), JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(
            1,
            Punctuation::new(Timestamp::from_secs(9)).into(),
            &mut ctx,
        );
        assert!(ctx.take_outputs()[0].1.is_punctuation());
        assert_eq!(op.state_size(), 0);
    }
}
