//! Tests of the regular sliding-window joins: the two-port `[0, W)` slice of
//! [`SliceJoinOp::window_join`] and the one-way slice over a whole window.

mod tests {
    use crate::operator::{OpContext, Operator};
    use crate::ops::slice_join::{SliceJoinOp, PORT_RESULTS};
    use crate::predicate::JoinCondition;
    use crate::punctuation::Punctuation;
    use crate::queue::StreamItem;
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple};
    use crate::window::{SliceWindow, WindowSpec};

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn window_join(secs: u64, condition: JoinCondition) -> SliceJoinOp {
        SliceJoinOp::window_join("join", WindowSpec::from_secs(secs), condition)
    }

    /// The one-way join `A[W] ⋉ B`: one slice over the whole window.
    fn one_way(secs: u64, condition: JoinCondition) -> SliceJoinOp {
        SliceJoinOp::for_ab("oneway", SliceWindow::from_secs(0, secs), condition)
            .one_way()
            .chain_head()
            .last_in_chain()
    }

    fn secs(t: &Tuple) -> (u64, u64) {
        (
            t.ts.as_micros() / 1_000_000,
            t.origin_span.as_micros() / 1_000_000,
        )
    }

    /// `(result ts, span)` in seconds of every result row, rows and batches.
    fn joined_pairs(ctx: &mut OpContext) -> Vec<(u64, u64)> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_RESULTS)
            .flat_map(|(_, item)| match item {
                StreamItem::Tuple(t) => vec![secs(&t)],
                StreamItem::Batch(batch) => batch.materialize().iter().map(secs).collect(),
                StreamItem::Punctuation(_) => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn binary_join_respects_windows_and_purges() {
        let mut op = window_join(10, JoinCondition::equi(0));
        assert_eq!(op.num_input_ports(), 2);
        let mut ctx = OpContext::new();
        op.process(0, a(1, 7).into(), &mut ctx);
        op.process(0, a(5, 7).into(), &mut ctx);
        op.process(1, b(12, 7).into(), &mut ctx);
        // a@1 is expired (12-1 >= 10); only a@5 joins.
        let pairs = joined_pairs(&mut ctx);
        assert_eq!(pairs, vec![(12, 7)]);
        assert_eq!(op.slice().state_a_len(), 1);
        assert_eq!(op.slice().state_b_len(), 1);
        assert_eq!(op.slice().results(), 1);
        assert!(op.peak_state() >= 2);
        assert!(ctx.counters.probe_comparisons >= 1);
        assert!(ctx.counters.purge_comparisons >= 1);
    }

    #[test]
    fn binary_join_is_symmetric_in_probe_direction() {
        let mut op = window_join(100, JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        op.process(1, b(1, 3).into(), &mut ctx);
        op.process(0, a(2, 3).into(), &mut ctx);
        let pairs = joined_pairs(&mut ctx);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 2); // ts = max(1, 2)
        assert_eq!(pairs[0].1, 1); // |2 - 1|
    }

    #[test]
    fn a_lagging_port_joins_exactly_the_in_window_pairs() {
        // B runs far ahead on port 1 before the lagging A arrives on port 0,
        // so every A probe finds B tuples newer than itself — some of them a
        // whole window ahead, which must not join.
        let window = 10;
        let bs = [20, 25, 40];
        let as_ = [12, 16, 30];
        let mut op = window_join(window, JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        for s in bs {
            op.process(1, b(s, 0).into(), &mut ctx);
        }
        for s in as_ {
            op.process(0, a(s, 0).into(), &mut ctx);
        }
        let mut got = joined_pairs(&mut ctx);
        got.sort_unstable();
        let mut expected: Vec<(u64, u64)> = as_
            .iter()
            .flat_map(|&ta| bs.iter().map(move |&tb| (ta.max(tb), ta.abs_diff(tb))))
            .filter(|&(_, span)| span < window)
            .collect();
        expected.sort_unstable();
        assert_eq!(expected, vec![(20, 4), (20, 8), (25, 9), (30, 5)]);
        assert_eq!(got, expected);
    }

    #[test]
    fn join_condition_filters_pairs() {
        let mut op = window_join(100, JoinCondition::equi(0));
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
        // costs 2 comparisons where a linear scan costs 100.
        let mut op = window_join(1000, JoinCondition::equi(0));
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
    fn without_index_scans_every_stored_tuple() {
        let mut op = window_join(1000, JoinCondition::equi(0));
        op.drop_index();
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
        // Every run that probes ends in a punctuation at its last probe.
        let mut op = window_join(10, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert!(matches!(
            out.last(),
            Some((PORT_RESULTS, StreamItem::Punctuation(p))) if p.watermark == Timestamp::from_secs(1)
        ));
    }

    #[test]
    fn punctuations_pass_through_join() {
        let mut op = window_join(10, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(1)).into(),
            &mut ctx,
        );
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 1, "a last-in-chain join forwards nothing");
        assert!(out[0].1.is_punctuation());
    }

    #[test]
    fn one_way_join_only_keeps_a_state() {
        let mut op = one_way(4, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        for s in 1..=3 {
            op.process(0, a(s, 0).into(), &mut ctx);
        }
        assert_eq!(op.slice().state_len(), 3);
        op.process(0, b(4, 0).into(), &mut ctx);
        // a@1: diff 3 < 4 still valid; all three join.
        assert_eq!(joined_pairs(&mut ctx).len(), 3);
        op.process(0, b(6, 0).into(), &mut ctx);
        // a@1 (diff 5) and a@2 (diff 4) expired, a@3 joins.
        assert_eq!(joined_pairs(&mut ctx).len(), 1);
        assert_eq!(op.slice().state_len(), 1);
        assert_eq!(op.slice().state_b_len(), 0, "B tuples are never stored");
        assert_eq!(op.slice().results(), 4);
        assert!(op.peak_state() >= 3);
    }

    #[test]
    fn one_way_batched_runs_match_item_at_a_time() {
        let mut input: Vec<Tuple> = (1..=15u64).map(|s| a(s, (s % 2) as i64)).collect();
        input.extend((5..=20u64).map(|s| b(s, (s % 2) as i64)));
        input.sort_by_key(|t| t.ts); // A first on equal timestamps

        let mut item_op = one_way(4, JoinCondition::equi(0));
        let mut item_ctx = OpContext::new();
        for t in &input {
            item_op.process(0, t.clone().into(), &mut item_ctx);
        }
        let mut batch_op = one_way(4, JoinCondition::equi(0));
        let mut batch_ctx = OpContext::new();
        let mut items: Vec<StreamItem> = input.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(0, &mut items, &mut batch_ctx);

        assert_eq!(joined_pairs(&mut item_ctx), joined_pairs(&mut batch_ctx));
        let counts = |ctx: &OpContext| {
            (
                ctx.counters.probe_comparisons,
                ctx.counters.purge_comparisons,
            )
        };
        assert_eq!(counts(&item_ctx), counts(&batch_ctx));
        assert_eq!(item_op.slice().state_len(), batch_op.slice().state_len());
        assert_eq!(item_op.slice().results(), batch_op.slice().results());
        assert!(item_op.slice().results() > 0);
    }

    #[test]
    fn one_way_join_forwards_punctuations() {
        let mut op = one_way(4, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(9)).into(),
            &mut ctx,
        );
        assert!(ctx.take_outputs()[0].1.is_punctuation());
        assert_eq!(op.state_size(), 0);
    }
}
