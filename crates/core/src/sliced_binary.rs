//! The chain's sliced binary window join (Definition 3, Figures 8–9) is
//! [`streamkit::ops::SliceJoinOp`]; this module keeps its chain-slice unit
//! tests and re-exports the names `benchmark/src/layers.rs` uses,
//! `SlicedBinaryJoinOp` and `sliced_binary::PORT_RESULTS`.

pub use streamkit::ops::slice_join::{SliceJoinOp as SlicedBinaryJoinOp, PORT_RESULTS};

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::checkpoint::NodeState;
    use streamkit::operator::{OpContext, Operator, PortId};
    use streamkit::ops::slice_join::{PORT_NEXT_SLICE, RESULT_STREAM};
    use streamkit::ops::SliceJoinOp;
    use streamkit::punctuation::Punctuation;
    use streamkit::queue::StreamItem;
    use streamkit::tuple::{StreamId, Tuple, TupleRole};
    use streamkit::window::SliceWindow;
    use streamkit::{JoinCondition, Timestamp};

    fn a(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key])
    }

    fn secs(ts: Timestamp) -> u64 {
        ts.as_micros() / 1_000_000
    }

    /// A cross- or equi-join slice `[start, end)` of the `A`/`B` streams.
    fn slice(start: u64, end: u64, condition: JoinCondition) -> SliceJoinOp {
        SliceJoinOp::for_ab("J", SliceWindow::from_secs(start, end), condition)
    }

    /// The head and last slice `[0, end)` of a one-slice chain.
    fn only_slice(end: u64, condition: JoinCondition) -> SliceJoinOp {
        slice(0, end, condition).chain_head().last_in_chain()
    }

    fn results_of(ctx: &mut OpContext) -> Vec<(u64, u64)> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_RESULTS)
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| (secs(t.ts), t.origin_span.as_micros() / 1_000_000))
            .collect()
    }

    /// `(role, ts, stream)` of the tuples forwarded to the next slice.
    fn forwarded(ctx: &mut OpContext) -> Vec<(TupleRole, u64, StreamId)> {
        ctx.take_outputs()
            .into_iter()
            .filter(|(port, _)| *port == PORT_NEXT_SLICE)
            .filter_map(|(_, item)| item.into_tuple())
            .map(|t| (t.role, secs(t.ts), t.stream))
            .collect()
    }

    #[test]
    fn head_slice_splits_into_reference_copies_and_joins_both_directions() {
        let mut op = only_slice(10, JoinCondition::equi(0));
        let mut ctx = OpContext::new();
        op.process(0, a(1, 7).into(), &mut ctx);
        assert!(results_of(&mut ctx).is_empty());
        assert_eq!(op.slice().state_a_len(), 1);
        // A B tuple with the same key joins against the stored A female.
        op.process(0, b(2, 7).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(2, 1)]);
        // A later A tuple joins against the stored B female (other direction).
        op.process(0, a(3, 7).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(3, 1)]);
        assert_eq!(op.slice().results(), 2);
        assert_eq!(op.slice().state_len(), 3);
        assert!(op.peak_state() >= 3);
    }

    #[test]
    fn an_arrival_never_joins_with_itself() {
        let mut op = only_slice(10, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(0, a(1, 1).into(), &mut ctx);
        // Only one tuple has arrived; the male copy must not see its own
        // female copy in the state.
        assert!(results_of(&mut ctx).is_empty());
    }

    #[test]
    fn purged_females_and_propagated_males_feed_the_next_slice() {
        let mut op = slice(0, 2, JoinCondition::Cross).chain_head();
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        // The male copy is propagated immediately.
        assert_eq!(forwarded(&mut ctx), vec![(TupleRole::Male, 1, StreamId::A)]);
        // A much later B tuple purges the A female into the next slice.
        op.process(0, b(10, 0).into(), &mut ctx);
        assert_eq!(
            forwarded(&mut ctx),
            vec![
                (TupleRole::Female, 1, StreamId::A),
                (TupleRole::Male, 10, StreamId::B),
            ]
        );
        assert_eq!(op.slice().state_a_len(), 0);
        assert_eq!(op.slice().state_b_len(), 1);
    }

    #[test]
    fn male_tuples_emit_punctuations_for_the_union() {
        let mut op = only_slice(5, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(0, a(3, 0).into(), &mut ctx);
        let punctuation = Punctuation::from_stream(Timestamp::from_secs(3), StreamId::A);
        let outputs = ctx.take_outputs();
        assert!(
            matches!(&outputs[..], [(PORT_RESULTS, StreamItem::Punctuation(p))] if *p == punctuation)
        );
    }

    #[test]
    fn only_females_occupy_state_memory() {
        // Fig. 9 note (2): the state of the binary sliced window join only
        // holds the female tuples.
        let mut op = only_slice(100, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        for s in 1..=10 {
            op.process(0, a(s, 0).into(), &mut ctx);
            op.process(0, b(s, 0).into(), &mut ctx);
        }
        // 10 A females + 10 B females, no male is ever stored.
        assert_eq!(op.slice().state_len(), 20);
    }

    #[test]
    fn migration_helpers_round_trip_state() {
        let mut op = only_slice(100, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        op.process(0, a(1, 0).into(), &mut ctx);
        op.process(0, b(2, 0).into(), &mut ctx);
        let Ok(NodeState::Window(state)) = op.node_state() else {
            panic!("a slice captures window state");
        };
        assert_eq!(state.side_a.len(), 1);
        assert_eq!(state.side_b.len(), 1);
        assert_eq!(op.slice().state_len(), 2, "capture reads without draining");
        // A planned slice over the same window takes the state back…
        let mut twin = only_slice(100, JoinCondition::Cross);
        twin.restore_state(NodeState::Window(state.clone()))
            .unwrap();
        assert_eq!(twin.slice().state_tuples(), op.slice().state_tuples());
        // …and a slice over another window refuses it.
        let mut narrower = only_slice(50, JoinCondition::Cross);
        assert!(narrower.restore_state(NodeState::Window(state)).is_err());
        assert_eq!(narrower.slice().window(), SliceWindow::from_secs(0, 50));
        assert_eq!(narrower.slice().state_len(), 0);
    }

    #[test]
    fn mid_chain_slices_respect_roles() {
        let mut op = slice(2, 4, JoinCondition::Cross).last_in_chain();
        let mut ctx = OpContext::new();
        // A purged female from the previous slice fills the state…
        op.process(0, a(1, 0).with_role(TupleRole::Female).into(), &mut ctx);
        assert_eq!(op.slice().state_a_len(), 1);
        // …and a propagated male from the previous slice probes it.
        op.process(0, b(4, 0).with_role(TupleRole::Male).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx), vec![(4, 3)]);
    }

    /// A cross-join slice whose A state holds `stored` tuples, after one
    /// run that stores them and then probes them with `probes` B tuples.
    fn slice_after_run(stored: Vec<Tuple>, probes: u64) -> (SliceJoinOp, OpContext) {
        let mut op = only_slice(100, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        let mut run: Vec<StreamItem> = stored.into_iter().map(StreamItem::from).collect();
        run.extend((0..probes).map(|i| StreamItem::from(b(10 + i, 0))));
        op.process_batch(0, &mut run, &mut ctx);
        (op, ctx)
    }

    /// What a run put on [`PORT_RESULTS`]: its row results, all ahead of
    /// the first batch or punctuation, then `Ok(rows)` per batch and
    /// `Err(())` per punctuation.
    fn rows_then_batches(ctx: &mut OpContext) -> (Vec<Tuple>, Vec<Result<Vec<Tuple>, ()>>) {
        let (mut rows, mut rest) = (Vec::new(), Vec::new());
        for (port, item) in ctx.take_outputs() {
            match item {
                _ if port != PORT_RESULTS => {}
                StreamItem::Tuple(t) if rest.is_empty() => rows.push(t),
                StreamItem::Tuple(t) => panic!("row result {t:?} after a batch or punctuation"),
                StreamItem::Batch(batch) => rest.push(Ok(batch.materialize())),
                StreamItem::Punctuation(_) => rest.push(Err(())),
            }
        }
        (rows, rest)
    }

    #[test]
    fn a_sparse_run_emits_only_row_tuples() {
        // Runs of fewer than COLUMNAR_MIN_RUN_RESULTS results never turn the
        // next run columnar, however many of them follow each other.
        let (mut op, mut ctx) = slice_after_run((1..=3).map(|s| a(s, 0)).collect(), 2);
        for _ in 0..4 {
            let outputs = ctx.take_outputs();
            let rows = outputs.iter().filter(|(_, i)| i.as_tuple().is_some());
            let puncts = outputs.iter().filter(|(_, i)| i.is_punctuation());
            assert_eq!(
                rows.count(),
                6,
                "two probes of three stored tuples, as rows"
            );
            assert_eq!(
                6 + puncts.count(),
                outputs.len(),
                "no batch in a sparse run"
            );
            // (Each probe also stores a B female; B probes never see those.)
            let mut run = vec![b(20, 0).into(), b(21, 0).into()];
            op.process_batch(0, &mut run, &mut ctx);
        }
        assert_eq!(op.slice().results(), 30);
        assert_eq!(op.slice().batch_results(), 0);
    }

    #[test]
    fn the_run_after_a_dense_one_emits_batches_flushed_before_punctuations() {
        let joined = |probe: &Tuple| -> Vec<Tuple> {
            (1..=4)
                .map(|s| Tuple::join(&a(s, 0), probe, RESULT_STREAM))
                .collect()
        };
        let joined_all = |probes: &[u64]| -> Vec<Tuple> {
            probes.iter().flat_map(|&s| joined(&b(s, 0))).collect()
        };
        // Run 1: 4 stored × 4 probes = 16 results, a dense run from its
        // first result: one batch, then the run's punctuation.
        let (mut op, mut ctx) = slice_after_run((1..=4).map(|s| a(s, 0)).collect(), 4);
        let (rows, rest) = rows_then_batches(&mut ctx);
        assert!(rows.is_empty());
        assert_eq!(rest, vec![Ok(joined_all(&[10, 11, 12, 13])), Err(())]);
        assert_eq!(op.slice().batch_results(), 16);
        // Run 2 is dense too: one batch per stretch between punctuations,
        // each flushed before the punctuation that follows it — the
        // interleaved one and the run's coalesced one.
        let mut run = vec![
            b(20, 0).into(),
            b(21, 0).into(),
            Punctuation::new(Timestamp::from_secs(21)).into(),
            b(22, 0).into(),
            b(23, 0).into(),
        ];
        op.process_batch(0, &mut run, &mut ctx);
        let (rows, got) = rows_then_batches(&mut ctx);
        assert!(rows.is_empty());
        assert_eq!(
            got,
            vec![
                Ok(joined_all(&[20, 21])),
                Err(()),
                Ok(joined_all(&[22, 23])),
                Err(())
            ]
        );
        assert_eq!(op.slice().results(), 32);
        assert_eq!(op.slice().batch_results(), 32);
        // 4 < 16: run 3 is on rows, whatever came before it.
        op.process(0, b(24, 0).into(), &mut ctx);
        assert_eq!(results_of(&mut ctx).len(), 4);
        assert_eq!(op.slice().batch_results(), 32);
    }

    #[test]
    fn an_arity_change_mid_run_splits_the_batch() {
        // Stored A tuples of arity 1, 1, 2, 1: every probe's results change
        // arity twice.  5 probes give 20 results, all in batches, cut at
        // each arity change; rows of one arity from consecutive probes share
        // a batch.
        let wide = Tuple::of_ints(Timestamp::from_secs(3), StreamId::A, &[0, 9]);
        let stored = vec![a(1, 0), a(2, 0), wide, a(4, 0)];
        let (op, mut ctx) = slice_after_run(stored.clone(), 5);
        let (rows, got) = rows_then_batches(&mut ctx);
        assert!(rows.is_empty());
        let row = |i: usize, probe: u64| Tuple::join(&stored[i], &b(probe, 0), RESULT_STREAM);
        let mut want: Vec<Result<Vec<Tuple>, ()>> = Vec::new();
        for t in (10..15).flat_map(|probe| (0..4).map(move |i| (i, probe))) {
            let t = row(t.0, t.1);
            match want.last_mut() {
                Some(Ok(batch)) if batch[0].arity() == t.arity() => batch.push(t),
                _ => want.push(Ok(vec![t])),
            }
        }
        want.push(Err(()));
        assert_eq!(want.len(), 12);
        assert_eq!(got, want);
        assert_eq!(op.slice().batch_results(), 20);
    }

    #[test]
    fn punctuations_flow_through_both_ports() {
        let mut op = slice(0, 2, JoinCondition::Cross);
        let mut ctx = OpContext::new();
        let punctuation = Punctuation::new(Timestamp::from_secs(7));
        op.process(0, punctuation.into(), &mut ctx);
        let ports: Vec<PortId> = ctx.take_outputs().into_iter().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![PORT_RESULTS, PORT_NEXT_SLICE]);
    }
}
