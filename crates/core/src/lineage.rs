//! Selection push-down support: lineage annotation and lineage gates.
//!
//! Section 6.1 of the paper pushes the per-query selections `σ_1 .. σ_N` into
//! the slice chain as disjunctions `σ'_i = cond_i ∨ ... ∨ cond_N` and avoids
//! re-evaluating them by annotating each tuple with a *lineage* level: the
//! predicates are evaluated in decreasing order of `i`, and as soon as some
//! `cond_k` is satisfied the tuple is tagged with `k`, meaning it "can survive
//! until the k-th sliced join and no further".
//!
//! [`LineageAnnotatorOp`] performs that one-time evaluation on the filtered
//! stream (stream A in the paper's running example).  The gate between slice
//! `i-1` and slice `i` runs inside the chain operator
//! ([`ChainJoinOp::gate`](streamkit::ops::ChainJoinOp::gate)) and drops
//! tuples of the filtered stream whose lineage is below `i` — a
//! zero-comparison check, which is exactly the saving the lineage trick
//! buys.

use streamkit::checkpoint::WindowState;
use streamkit::operator::{OpContext, Operator, PortId};
use streamkit::queue::StreamItem;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::Predicate;

use crate::chain::ChainSpec;
use crate::query::QueryWorkload;

/// Annotates tuples of one stream with their selection-push-down lineage
/// level; tuples that satisfy no predicate are dropped.
#[derive(Debug)]
pub struct LineageAnnotatorOp {
    name: String,
    /// `predicates[k]` is the selection of query `Q_{k+1}` on the annotated
    /// stream (1-based query index `k+1` = lineage level `k+1`).
    predicates: Vec<Predicate>,
    /// Stream the predicates apply to; tuples of other streams pass through.
    stream: StreamId,
    dropped: u64,
    annotated: u64,
}

impl LineageAnnotatorOp {
    /// Build an annotator for the given per-query predicates (index 0 is the
    /// query with the smallest window).
    pub fn new(name: impl Into<String>, predicates: Vec<Predicate>, stream: StreamId) -> Self {
        LineageAnnotatorOp {
            name: name.into(),
            predicates,
            stream,
            dropped: 0,
            annotated: 0,
        }
    }

    /// Number of tuples dropped because they satisfied no predicate.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of tuples annotated (or passed through).
    pub fn annotated(&self) -> u64 {
        self.annotated
    }
}

impl Operator for LineageAnnotatorOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                if t.stream != self.stream {
                    self.annotated += 1;
                    ctx.emit(0, t);
                    return;
                }
                let level =
                    lineage_level(&self.predicates, &t, &mut ctx.counters.filter_comparisons);
                if level == 0 {
                    self.dropped += 1;
                } else {
                    self.annotated += 1;
                    ctx.emit(0, t.with_lineage(level));
                }
            }
            StreamItem::Batch(b) => {
                // Row fallback: annotation rewrites per-row lineage.
                for t in b.materialize() {
                    self.process(_port, StreamItem::Tuple(t), ctx);
                }
            }
            p @ StreamItem::Punctuation(_) => ctx.emit(0, p),
        }
    }
}

/// The lineage level of a tuple under per-query `predicates` (index 0 is the
/// query with the smallest window): evaluate cond_N, cond_{N-1}, ... and stop
/// at the first hit, whose 1-based index is the level; 0 if none holds.
fn lineage_level(predicates: &[Predicate], tuple: &Tuple, comparisons: &mut u64) -> u32 {
    predicates
        .iter()
        .rposition(|pred| pred.eval_counted(tuple, comparisons))
        .map_or(0, |idx| idx as u32 + 1)
}

/// Re-derive the lineage of the stored A tuples of one chain instance
/// (`states[k]` is slice `k` of `spec`) under `workload`'s selections, and
/// drop every tuple slice `k`'s gate would refuse: what a chain freshly
/// planned for `workload` holds.  A stored level indexes the query set it was
/// annotated under, so a migration that changes the queries re-derives it.
/// Returns the number of tuples dropped.
pub(crate) fn regate_states(
    states: &mut [WindowState],
    workload: &QueryWorkload,
    spec: &ChainSpec,
) -> usize {
    if !workload.has_selections() {
        return 0;
    }
    let predicates = workload.filters();
    let mut dropped = 0;
    for (state, slice) in states.iter_mut().zip(spec.slices()) {
        let min_level = slice.query_lo as u32 + 1;
        let before = state.side_a.len();
        state.side_a.retain_mut(|t| {
            t.lineage = lineage_level(&predicates, t, &mut 0);
            t.lineage >= min_level
        });
        dropped += before - state.side_a.len();
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::ops::{ChainJoinOp, SliceJoinOp};
    use streamkit::tuple::LINEAGE_ALL;
    use streamkit::Timestamp;

    fn a(v: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[v])
    }

    fn b(v: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(1), StreamId::B, &[v])
    }

    fn out_lineages(ctx: &mut OpContext) -> Vec<u32> {
        ctx.take_outputs()
            .into_iter()
            .filter_map(|(_, i)| i.into_tuple())
            .map(|t| t.lineage)
            .collect()
    }

    #[test]
    fn annotates_with_highest_satisfied_query_index() {
        // Q1: value > 0 (everything), Q2: value > 10, Q3: value > 100.
        let mut op = LineageAnnotatorOp::new(
            "lineage",
            vec![
                Predicate::gt(0, 0i64),
                Predicate::gt(0, 10i64),
                Predicate::gt(0, 100i64),
            ],
            StreamId::A,
        );
        let mut ctx = OpContext::new();
        op.process(0, a(5).into(), &mut ctx);
        op.process(0, a(50).into(), &mut ctx);
        op.process(0, a(500).into(), &mut ctx);
        assert_eq!(out_lineages(&mut ctx), vec![1, 2, 3]);
        assert_eq!(op.annotated(), 3);
        assert_eq!(op.dropped(), 0);
    }

    #[test]
    fn evaluation_stops_at_the_first_hit_from_the_top() {
        let mut op = LineageAnnotatorOp::new(
            "lineage",
            vec![
                Predicate::gt(0, 0i64),
                Predicate::gt(0, 10i64),
                Predicate::gt(0, 100i64),
            ],
            StreamId::A,
        );
        let mut ctx = OpContext::new();
        // Satisfies cond_3 immediately: exactly one comparison.
        op.process(0, a(500).into(), &mut ctx);
        assert_eq!(ctx.counters.filter_comparisons, 1);
        // Satisfies only cond_1: three comparisons (3, then 2, then 1).
        let mut ctx = OpContext::new();
        op.process(0, a(5).into(), &mut ctx);
        assert_eq!(ctx.counters.filter_comparisons, 3);
    }

    #[test]
    fn tuples_matching_no_predicate_are_dropped() {
        let mut op = LineageAnnotatorOp::new(
            "lineage",
            vec![Predicate::gt(0, 10i64), Predicate::gt(0, 100i64)],
            StreamId::A,
        );
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        assert!(out_lineages(&mut ctx).is_empty());
        assert_eq!(op.dropped(), 1);
    }

    #[test]
    fn other_streams_pass_through_untouched() {
        let mut op = LineageAnnotatorOp::new("lineage", vec![Predicate::gt(0, 10i64)], StreamId::A);
        let mut ctx = OpContext::new();
        op.process(0, b(1).into(), &mut ctx);
        assert_eq!(out_lineages(&mut ctx), vec![LINEAGE_ALL]);
        assert_eq!(ctx.counters.filter_comparisons, 0);
    }

    /// A one-query-per-slice chain of `[0, 5)` and `[5, 10)` s whose second
    /// slice is gated at `min_level`.
    fn gated_chain(min_level: u32) -> ChainJoinOp {
        use streamkit::window::SliceWindow;
        use streamkit::JoinCondition;
        let slice = |k: u64| {
            SliceJoinOp::for_ab(
                format!("slice_{k}"),
                SliceWindow::from_secs(5 * k, 5 * k + 5),
                JoinCondition::Cross,
            )
        };
        let slices = vec![slice(0).chain_head(), slice(1).last_in_chain()];
        ChainJoinOp::new("chain", slices, 2)
            .gate(1, min_level)
            .branch(0, 0, None, None)
            .branch(1, 1, None, None)
    }

    #[test]
    fn gate_drops_below_level_without_comparisons() {
        let mut chain = gated_chain(2);
        assert_eq!(chain.min_level(1), 2);
        let mut ctx = OpContext::new();
        // Four tuples stored in the first slice; a B probe 7 s later purges
        // them into the gate of the second, where it then probes.
        for t in [
            a(5).with_lineage(1),
            a(50).with_lineage(2),
            a(500).with_lineage(3),
            b(1),
        ] {
            chain.process(0, t.into(), &mut ctx);
        }
        let probe = Tuple::of_ints(Timestamp::from_secs(8), StreamId::B, &[0]);
        chain.process(0, probe.into(), &mut ctx);
        let second = chain.slice_chain().unwrap().slice(1);
        // The lineage-1 A tuple was dropped and the other two passed; the
        // B tuples' female copies stay in the first slice.
        assert_eq!(second.state_a_len(), 2);
        assert_eq!(second.state_b_len(), 0);
        assert_eq!(ctx.counters.filter_comparisons, 0);
        let second_results = ctx
            .take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == 1)
            .count();
        assert_eq!(second_results, 2, "the probe joins both admitted A tuples");
    }

    #[test]
    fn punctuations_pass_both_operators() {
        let mut ann = LineageAnnotatorOp::new("lineage", vec![Predicate::True], StreamId::A);
        let mut ctx = OpContext::new();
        let p = streamkit::Punctuation::new(Timestamp::from_secs(3));
        ann.process(0, p.into(), &mut ctx);
        assert_eq!(ctx.take_outputs().len(), 1);
        // Through the chain's gate a punctuation reaches the gated slice,
        // and as the chain holds nothing back it emits no punctuation.
        let mut chain = gated_chain(1);
        chain.process(0, p.into(), &mut ctx);
        assert!(ctx.take_outputs().is_empty());
        assert_eq!(chain.slice_chain().unwrap().slice(1).state_len(), 0);
    }

    #[test]
    fn regating_relabels_stored_tuples_and_drops_what_the_gates_refuse() {
        use crate::query::JoinQuery;
        use streamkit::window::SliceWindow;
        use streamkit::{JoinCondition, TimeDelta};
        // Q1 (5 s): value > 0; Q2 (10 s): value > 10; slices [0,5), [5,10).
        let workload = QueryWorkload::new(
            vec![
                JoinQuery::with_filter("Q1", TimeDelta::from_secs(5), Predicate::gt(0, 0i64)),
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(10), Predicate::gt(0, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let spec = ChainSpec::memory_optimal(&workload);
        // Levels left over from some other query set.
        let stale = |v| a(v).with_lineage(7);
        let mut states = vec![
            WindowState {
                window: SliceWindow::from_secs(0, 5),
                side_a: vec![stale(0), stale(5), stale(50)],
                side_b: vec![b(0)],
            },
            WindowState {
                window: SliceWindow::from_secs(5, 10),
                side_a: vec![stale(5), stale(50)],
                side_b: Vec::new(),
            },
        ];
        // a(0) satisfies no query; a(5) only Q1, whose window ends before
        // the second slice.
        assert_eq!(regate_states(&mut states, &workload, &spec), 2);
        let levels = |s: &WindowState| s.side_a.iter().map(|t| t.lineage).collect::<Vec<_>>();
        assert_eq!(levels(&states[0]), [1, 2]);
        assert_eq!(levels(&states[1]), [2]);
        assert_eq!(states[0].side_b, [b(0)]);
    }
}
