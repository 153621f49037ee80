//! Tests of the state-sliced one-way window join (Definition 1, Figures
//! 5–6): [`SliceJoinOp`](streamkit::ops::SliceJoinOp) in one-way mode keeps a
//! state only for stream A, restricted to tuples whose age relative to the
//! probing B tuple lies in `[W_start, W_end)`, and a chain of such slices
//! equals the regular one-way window join `A[W_N] ⋉ B` (Theorem 1).

mod tests {
    use streamkit::operator::{OpContext, Operator};
    use streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
    use streamkit::ops::SliceJoinOp;
    use streamkit::queue::StreamItem;
    use streamkit::tuple::{StreamId, Tuple};
    use streamkit::window::SliceWindow;
    use streamkit::{JoinCondition, Timestamp};

    fn a(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0])
    }

    fn b(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[0])
    }

    fn secs(ts: Timestamp) -> u64 {
        ts.as_micros() / 1_000_000
    }

    fn new_slice(start: u64, end: u64) -> SliceJoinOp {
        let window = SliceWindow::from_secs(start, end);
        SliceJoinOp::for_ab(format!("A[{start},{end}]xB"), window, JoinCondition::Cross).one_way()
    }

    /// Feed `tuples` one at a time: the `(result ts, span)` pairs in seconds,
    /// and the tuples forwarded to the next slice, in emission order.
    fn feed(
        op: &mut SliceJoinOp,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> (Vec<(u64, u64)>, Vec<Tuple>) {
        let (mut results, mut forwarded) = (Vec::new(), Vec::new());
        for t in tuples {
            let mut ctx = OpContext::new();
            op.process(0, t.into(), &mut ctx);
            for (port, item) in ctx.take_outputs() {
                match (port, item) {
                    (PORT_RESULTS, StreamItem::Tuple(t)) => {
                        results.push((secs(t.ts), t.origin_span.as_micros() / 1_000_000))
                    }
                    (PORT_NEXT_SLICE, StreamItem::Tuple(t)) => forwarded.push(t),
                    _ => {}
                }
            }
        }
        (results, forwarded)
    }

    #[test]
    fn inserts_a_and_probes_with_b() {
        let mut op = new_slice(0, 2);
        feed(&mut op, [a(1), a(2), a(3)]);
        assert_eq!(op.state_len(), 3);
        // a@1, a@2 expire (diff >= 2) and go to the next slice; a@3 joins.
        assert_eq!(feed(&mut op, [b(4)]).0, vec![(4, 1)]);
        assert_eq!(op.state_len(), 1);
        assert_eq!(op.results(), 1);
        assert_eq!(op.peak_state(), 3);
    }

    #[test]
    fn purged_and_propagated_tuples_go_to_next_slice_in_emission_order() {
        let mut op = new_slice(0, 2);
        let (_, forwarded) = feed(&mut op, [a(1), b(4)]);
        // Purged a@1 first, then propagated b@4 — the paper's logical queue.
        let forwarded: Vec<u64> = forwarded.iter().map(|t| secs(t.ts)).collect();
        assert_eq!(forwarded, vec![1, 4]);
    }

    #[test]
    fn last_slice_discards_purged_and_propagated_tuples() {
        let mut op = new_slice(0, 2).last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        op.process(0, b(10).into(), &mut ctx);
        let outputs = ctx.take_outputs();
        assert!(outputs.iter().all(|(port, _)| *port == PORT_RESULTS));
    }

    #[test]
    fn punctuation_mode_marks_progress() {
        // A run that probes ends in a punctuation at its last probe.
        let mut op = new_slice(0, 2);
        let mut ctx = OpContext::new();
        op.process(0, b(3).into(), &mut ctx);
        let outputs = ctx.take_outputs();
        assert!(outputs
            .iter()
            .any(|(port, item)| *port == PORT_RESULTS && item.is_punctuation()));
    }

    #[test]
    fn join_condition_is_respected() {
        let window = SliceWindow::from_secs(0, 10);
        let mut op = SliceJoinOp::for_ab("slice", window, JoinCondition::equi(0)).one_way();
        let keyed = |secs, stream, key| Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key]);
        let mut ctx = OpContext::new();
        for t in [
            keyed(1, StreamId::A, 7),
            keyed(2, StreamId::A, 8),
            keyed(3, StreamId::B, 7),
        ] {
            op.process(0, t.into(), &mut ctx);
        }
        assert_eq!(op.results(), 1);
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
        let (j1_results, queue) = feed(&mut j1, [a(1), a(2), a(3), b(4), b(5)]);
        // J1 keeps only tuples younger than 2 s: b2@5 purged even a3@3.
        assert_eq!(j1.state_len(), 0);
        // The logical queue holds, in emission order, the purged a tuples and
        // the propagated b tuples: a1, a2, b1, a3, b2.
        let queue_ts: Vec<u64> = queue.iter().map(|t| secs(t.ts)).collect();
        assert_eq!(queue_ts, vec![1, 2, 4, 3, 5]);
        // J1's only in-slice pair is (a3, b1).
        assert_eq!(j1_results, vec![(4, 1)]);

        // J2 consumes the logical queue.
        let (j2_results, forwarded) = feed(&mut j2, queue);
        assert!(forwarded.is_empty());
        assert_eq!(j2_results, vec![(4, 3), (4, 2), (5, 3), (5, 2)]);

        // Union of J1 and J2 results equals the regular one-way join
        // A[4) ⋉ B: every pair with 0 <= Tb - Ta < 4.
        let mut chain_all = [j1_results, j2_results].concat();
        chain_all.sort_unstable();
        assert_eq!(chain_all, vec![(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]);
    }
}
