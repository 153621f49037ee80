//! State-sliced one-way window join (Definition 1, Figures 5–6).
//!
//! `A[W_start, W_end] ⋉ˢ B` keeps a state only for stream A, restricted to
//! tuples whose age relative to the probing B tuple lies in
//! `[W_start, W_end)`.  A chain of such joins (Definition 2) pipelines the
//! purged A tuples and the propagated B tuples from one slice to the next;
//! the union of all slices' outputs equals the regular one-way window join
//! `A[W_N] ⋉ B` (Theorem 1).
//!
//! The operator has a single input port carrying the *logical queue* of the
//! paper (both streams, in the order the previous slice emitted them) and
//! distinguishes A from B tuples by their [`StreamId`].

use std::any::Any;

use streamkit::join_state::{equi_key_fields, memoize_key, JoinState};
use streamkit::operator::{OpContext, Operator, PortId};
use streamkit::punctuation::Punctuation;
use streamkit::queue::StreamItem;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::window::SliceWindow;
use streamkit::JoinCondition;

/// Output port carrying joined results (and per-probe punctuations).
pub const PORT_RESULTS: PortId = 0;
/// Output port carrying the purged A tuples and propagated B tuples that form
/// the input logical queue of the next slice in the chain.
pub const PORT_NEXT_SLICE: PortId = 1;

/// One state-sliced one-way window join.
#[derive(Debug)]
pub struct SlicedOneWayJoinOp {
    name: String,
    window: SliceWindow,
    condition: JoinCondition,
    /// Stream whose tuples are kept in the sliced state (the "A" side).
    state_stream: StreamId,
    state: JoinState,
    peak_state: usize,
    results: u64,
    /// Whether purged/propagated tuples are forwarded to a next slice.
    has_next: bool,
    /// Emit a punctuation on the result port after each probe.
    emit_punctuations: bool,
}

impl SlicedOneWayJoinOp {
    /// Build a sliced one-way join keeping state for `state_stream` (the
    /// paper's stream A) over the window slice `window`.
    pub fn new(
        name: impl Into<String>,
        window: SliceWindow,
        condition: JoinCondition,
        state_stream: StreamId,
    ) -> Self {
        // Stored A tuples are the left side of every condition evaluation;
        // the state is hash-indexed for equi conditions.
        let state = JoinState::for_condition(&condition, true);
        SlicedOneWayJoinOp {
            name: name.into(),
            window,
            condition,
            state_stream,
            state,
            peak_state: 0,
            results: 0,
            has_next: true,
            emit_punctuations: false,
        }
    }

    /// Mark this as the last slice of its chain: purged tuples and propagated
    /// probe tuples are discarded instead of forwarded.
    pub fn last_in_chain(mut self) -> Self {
        self.has_next = false;
        self
    }

    /// Emit punctuations (the probing tuple's timestamp) on the result port.
    pub fn with_punctuations(mut self) -> Self {
        self.emit_punctuations = true;
        self
    }

    /// The window slice `[W_start, W_end)` of this join.
    pub fn window(&self) -> SliceWindow {
        self.window
    }

    /// Number of joined results produced so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// Current state size in tuples.
    pub fn state_len(&self) -> usize {
        self.state.len()
    }

    /// Peak state size in tuples.
    pub fn peak_state(&self) -> usize {
        self.peak_state
    }

    /// Timestamps currently held in the state (oldest first); used by tests
    /// to reproduce the execution trace of Table 2.
    pub fn state_timestamps(&self) -> Vec<streamkit::Timestamp> {
        self.state.iter().map(|t| t.ts).collect()
    }

    fn process_state_tuple(&mut self, tuple: Tuple) {
        // Fig. 6, arrival on stream A: Insert.
        self.state.push(tuple);
        self.peak_state = self.peak_state.max(self.state.len());
    }

    fn process_probe_tuple(&mut self, tuple: Tuple, ctx: &mut OpContext) {
        // Fig. 6, arrival on stream B.
        // 1. Cross-purge: move expired A tuples to the next slice (or drop).
        let window = self.window;
        let has_next = self.has_next;
        let comparisons = self.state.purge_expired(
            |front| window.expired(tuple.ts, front.ts),
            |expired| {
                if has_next {
                    ctx.emit(PORT_NEXT_SLICE, expired);
                }
            },
        );
        ctx.counters.purge_comparisons += comparisons;
        // 2. Probe: emit result pairs.  The upper window bound needs no check
        //    (purging enforced it); the lower bound is enforced by the chain
        //    pipeline (Lemma 1), so probing is a pure value comparison — and
        //    for equi conditions only the probe key's bucket is touched.
        for stored in self.state.probe_candidates(&tuple) {
            if self
                .condition
                .eval_counted(stored, &tuple, &mut ctx.counters.probe_comparisons)
            {
                self.results += 1;
                ctx.emit(PORT_RESULTS, Tuple::join(stored, &tuple, StreamId(100)));
            }
        }
        if self.emit_punctuations {
            ctx.emit(
                PORT_RESULTS,
                Punctuation::from_stream(tuple.ts, tuple.stream),
            );
        }
        // 3. Propagate: forward the probe tuple to the next slice (or drop).
        if self.has_next {
            ctx.emit(PORT_NEXT_SLICE, tuple);
        }
    }

    /// Process one tuple of a run, memoising its canonical equi-key hash once
    /// (stored key for A tuples, probe key for B tuples) so every downstream
    /// slice reuses it.
    fn process_tuple(
        &mut self,
        mut t: Tuple,
        key_fields: Option<(usize, usize)>,
        ctx: &mut OpContext,
    ) {
        ctx.counters.tuples_processed += 1;
        if t.stream == self.state_stream {
            if let Some((stored_field, _)) = key_fields {
                memoize_key(&mut t, stored_field);
            }
            self.process_state_tuple(t);
        } else {
            if let Some((_, probe_field)) = key_fields {
                memoize_key(&mut t, probe_field);
            }
            self.process_probe_tuple(t, ctx);
        }
    }

    /// Process one run: a statically dispatched tight loop.  The cross-purge
    /// stays interleaved per probe tuple: the sliced probe has no window
    /// check (purge exactness stands in for it, see
    /// [`SlicedOneWayJoinOp::process_probe_tuple`]) and purged tuples must
    /// reach the next slice's queue ahead of the probe that expired them, so
    /// a single run-maximum purge would shift results between slices.
    fn run(&mut self, items: impl Iterator<Item = StreamItem>, ctx: &mut OpContext) {
        let key_fields = equi_key_fields(&self.condition, true);
        for item in items {
            match item {
                StreamItem::Tuple(t) => self.process_tuple(t, key_fields, ctx),
                StreamItem::Batch(b) => {
                    // Row fallback: the chain's logical queue travels as rows.
                    for t in b.materialize() {
                        self.process_tuple(t, key_fields, ctx);
                    }
                }
                StreamItem::Punctuation(p) => {
                    ctx.emit(PORT_RESULTS, p);
                    if self.has_next {
                        ctx.emit(PORT_NEXT_SLICE, p);
                    }
                }
            }
        }
    }
}

impl Operator for SlicedOneWayJoinOp {
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
        self.state.len()
    }

    fn state_bytes(&self) -> usize {
        self.state.live_bytes()
    }

    fn state_capacity_bytes(&self) -> usize {
        self.state.capacity_bytes()
    }

    fn drain_window_states(&mut self) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        // One-sided state: the probe stream keeps nothing in this operator.
        Some((self.state.drain_ordered(), Vec::new()))
    }

    fn load_window_states(&mut self, side_a: Vec<Tuple>, side_b: Vec<Tuple>) {
        debug_assert!(
            side_b.is_empty(),
            "a one-way sliced join stores only its state stream"
        );
        self.state.load_ordered(side_a);
        self.peak_state = self.peak_state.max(self.state.len());
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

    fn a(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0])
    }

    fn b(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[0])
    }

    fn new_slice(start: u64, end: u64) -> SlicedOneWayJoinOp {
        SlicedOneWayJoinOp::new(
            format!("A[{start},{end}]xB"),
            SliceWindow::from_secs(start, end),
            JoinCondition::Cross,
            StreamId::A,
        )
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
    fn inserts_a_and_probes_with_b() {
        let mut op = new_slice(0, 2);
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        op.process(0, a(2).into(), &mut ctx);
        op.process(0, a(3).into(), &mut ctx);
        assert_eq!(op.state_len(), 3);
        op.process(0, b(4).into(), &mut ctx);
        // a@1, a@2 expire (diff >= 2) and go to the next slice; a@3 joins.
        let out = results_of(&mut ctx);
        assert_eq!(out, vec![(4, 1)]);
        assert_eq!(op.state_len(), 1);
        assert_eq!(op.results(), 1);
        assert_eq!(op.peak_state(), 3);
    }

    #[test]
    fn purged_and_propagated_tuples_go_to_next_slice_in_emission_order() {
        let mut op = new_slice(0, 2);
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        let _ = ctx.take_outputs();
        op.process(0, b(4).into(), &mut ctx);
        let forwarded: Vec<(PortId, u64)> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_NEXT_SLICE)
            .map(|(p, item)| (p, item.timestamp().as_micros() / 1_000_000))
            .collect();
        // Purged a@1 first, then propagated b@4 — the paper's logical queue.
        assert_eq!(forwarded, vec![(PORT_NEXT_SLICE, 1), (PORT_NEXT_SLICE, 4)]);
    }

    #[test]
    fn last_slice_discards_purged_and_propagated_tuples() {
        let mut op = new_slice(0, 2).last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        op.process(0, b(10).into(), &mut ctx);
        assert!(ctx
            .take_outputs()
            .iter()
            .all(|(port, _)| *port == PORT_RESULTS));
    }

    #[test]
    fn punctuation_mode_marks_progress() {
        let mut op = new_slice(0, 2).with_punctuations();
        let mut ctx = OpContext::new();
        op.process(0, b(3).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert!(out
            .iter()
            .any(|(port, item)| *port == PORT_RESULTS && item.is_punctuation()));
    }

    #[test]
    fn join_condition_is_respected() {
        let mut op = SlicedOneWayJoinOp::new(
            "slice",
            SliceWindow::from_secs(0, 10),
            JoinCondition::equi(0),
            StreamId::A,
        );
        let mut ctx = OpContext::new();
        op.process(
            0,
            Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[7]).into(),
            &mut ctx,
        );
        op.process(
            0,
            Tuple::of_ints(Timestamp::from_secs(2), StreamId::A, &[8]).into(),
            &mut ctx,
        );
        op.process(
            0,
            Tuple::of_ints(Timestamp::from_secs(3), StreamId::B, &[7]).into(),
            &mut ctx,
        );
        assert_eq!(results_of(&mut ctx).len(), 1);
        // The hash index narrows the probe to the key-7 bucket: one
        // comparison instead of one per stored tuple.
        assert_eq!(ctx.counters.probe_comparisons, 1);
    }

    #[test]
    fn table_2_execution_trace() {
        // Reproduces the scenario of Table 2 of the paper: w1 = 2 s, w2 = 4 s,
        // Cartesian-product semantics, one tuple per second, arrivals
        // a1 a2 a3 b1 b2.  J1 = A[0,2) ⋉ˢ B, J2 = A[2,4) ⋉ˢ B.
        //
        // We use half-open slices exactly as in Definition 1 (W_start <=
        // Tb - Ta < W_end); the paper's printed trace keeps boundary tuples
        // (Tb - Ta == W_end) one slice earlier, but the union over the chain
        // is the same either way and must equal the regular one-way join.
        let mut j1 = new_slice(0, 2);
        let mut j2 = new_slice(2, 4).last_in_chain();
        let mut queue: std::collections::VecDeque<Tuple> = std::collections::VecDeque::new();
        let mut j1_results: Vec<(u64, u64)> = Vec::new();

        let arrivals = [a(1), a(2), a(3), b(4), b(5)];
        for t in arrivals {
            let mut ctx = OpContext::new();
            j1.process(0, t.into(), &mut ctx);
            for (port, item) in ctx.take_outputs() {
                match (port, item) {
                    (PORT_RESULTS, StreamItem::Tuple(t)) => j1_results.push((
                        t.ts.as_micros() / 1_000_000,
                        t.origin_span.as_micros() / 1_000_000,
                    )),
                    (PORT_NEXT_SLICE, StreamItem::Tuple(t)) => queue.push_back(t),
                    _ => {}
                }
            }
        }
        // J1 keeps only tuples younger than 2 s: b2@5 purged even a3@3.
        assert!(j1.state_timestamps().is_empty());
        // The logical queue holds, in emission order, the purged a tuples and
        // the propagated b tuples: a1, a2, b1, a3, b2.
        let queue_ts: Vec<u64> = queue.iter().map(|t| t.ts.as_micros() / 1_000_000).collect();
        assert_eq!(queue_ts, vec![1, 2, 4, 3, 5]);
        // J1's only in-slice pair is (a3, b1).
        assert_eq!(j1_results, vec![(4, 1)]);

        // J2 consumes the logical queue.
        let mut j2_results = Vec::new();
        while let Some(t) = queue.pop_front() {
            let mut ctx = OpContext::new();
            j2.process(0, t.into(), &mut ctx);
            for (port, item) in ctx.take_outputs() {
                if port == PORT_RESULTS {
                    if let StreamItem::Tuple(t) = item {
                        j2_results.push((
                            t.ts.as_micros() / 1_000_000,
                            t.origin_span.as_micros() / 1_000_000,
                        ));
                    }
                }
            }
        }
        assert_eq!(j2_results, vec![(4, 3), (4, 2), (5, 3), (5, 2)]);

        // Union of J1 and J2 results equals the regular one-way join A[4) ⋉ B.
        let mut reference = streamkit::ops::OneWayWindowJoinOp::new(
            "ref",
            streamkit::WindowSpec::from_secs(4),
            JoinCondition::Cross,
        );
        let mut ref_results = Vec::new();
        for t in [a(1), a(2), a(3)] {
            let mut ctx = OpContext::new();
            reference.process(0, t.into(), &mut ctx);
        }
        for t in [b(4), b(5)] {
            let mut ctx = OpContext::new();
            reference.process(1, t.into(), &mut ctx);
            for (_, item) in ctx.take_outputs() {
                if let StreamItem::Tuple(t) = item {
                    ref_results.push((
                        t.ts.as_micros() / 1_000_000,
                        t.origin_span.as_micros() / 1_000_000,
                    ));
                }
            }
        }
        let mut chain_all: Vec<(u64, u64)> = j1_results
            .iter()
            .chain(j2_results.iter())
            .copied()
            .collect();
        chain_all.sort_unstable();
        ref_results.sort_unstable();
        assert_eq!(chain_all, ref_results);
    }
}
