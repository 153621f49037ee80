//! Table 2 (Section 4.1) as tests: the step-by-step execution trace of the
//! two-slice one-way chain J1 = A[0,2) ⋉ˢ B, J2 = A[2,4) ⋉ˢ B.

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use streamkit::operator::{OpContext, Operator};
    use streamkit::ops::slice_join::{SliceJoinOp, PORT_NEXT_SLICE, PORT_RESULTS};
    use streamkit::queue::StreamItem;
    use streamkit::tuple::{StreamId, Tuple};
    use streamkit::window::SliceWindow;
    use streamkit::{JoinCondition, Timestamp};

    /// One step of Table 2, times in seconds: step, arrival, operator, the
    /// `A::[0,2)` state, the queue between the slices, the `A::[2,4)` state
    /// and the outputs `(result ts, |Ta - Tb|)`.
    type TraceRow = (
        u64,
        Option<&'static str>,
        &'static str,
        Vec<u64>,
        Vec<u64>,
        Vec<u64>,
        Vec<(u64, u64)>,
    );

    /// Run the Table 2 scenario under Cartesian semantics, arrivals a1 a2 a3
    /// b1 b2 at seconds 1–5.  One step runs one operator on one tuple: J1 on
    /// each arrival, then J2 on the queue's front until the queue is empty.
    /// Results are read from row tuples and column batches alike.  Slices
    /// are half-open as in Definition 1 (`W_start <= Tb - Ta < W_end`); the
    /// paper's printed trace keeps a boundary tuple one slice earlier, but
    /// the union over the chain is the regular one-way join either way.
    fn trace() -> Vec<TraceRow> {
        let secs = |ts: Timestamp| ts.as_micros() / 1_000_000;
        let mut j1 = SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 2), JoinCondition::Cross)
            .one_way()
            .chain_head();
        let mut j2 = SliceJoinOp::for_ab("J2", SliceWindow::from_secs(2, 4), JoinCondition::Cross)
            .one_way()
            .last_in_chain();
        let mut arrivals = [
            ("a1", StreamId::A),
            ("a2", StreamId::A),
            ("a3", StreamId::A),
            ("b1", StreamId::B),
            ("b2", StreamId::B),
        ]
        .into_iter()
        .zip(1..);
        let mut queue: VecDeque<Tuple> = VecDeque::new();
        let mut trace: Vec<TraceRow> = Vec::new();
        for step in 1.. {
            let (arrival, name, op, tuple) = if let Some(((name, stream), at)) = arrivals.next() {
                let tuple = Tuple::of_ints(Timestamp::from_secs(at), stream, &[0]);
                (Some(name), "J1", &mut j1, tuple)
            } else if let Some(tuple) = queue.pop_front() {
                (None, "J2", &mut j2, tuple)
            } else {
                break;
            };
            let mut ctx = OpContext::new();
            op.process(0, tuple.into(), &mut ctx);
            let mut outputs = Vec::new();
            for (port, item) in ctx.take_outputs() {
                let tuples = match item {
                    StreamItem::Tuple(t) => vec![t],
                    StreamItem::Batch(batch) => batch.materialize(),
                    StreamItem::Punctuation(_) => continue,
                };
                match port {
                    PORT_RESULTS => outputs.extend(
                        tuples
                            .iter()
                            .map(|t| (secs(t.ts), t.origin_span.as_micros() / 1_000_000)),
                    ),
                    PORT_NEXT_SLICE if name == "J1" => queue.extend(tuples),
                    port => panic!("{name} emitted {} tuples on port {port}", tuples.len()),
                }
            }
            let state = |op: &SliceJoinOp| {
                op.slice()
                    .state_timestamps()
                    .0
                    .into_iter()
                    .map(secs)
                    .collect()
            };
            let queued = queue.iter().map(|t| secs(t.ts)).collect();
            trace.push((step, arrival, name, state(&j1), queued, state(&j2), outputs));
        }
        trace
    }

    /// The union of both slices' outputs: the regular one-way join A[4) ⋉ B,
    /// b1 with a1, a2, a3 and b2 with a2, a3.
    const REGULAR_JOIN: [(u64, u64); 5] = [(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)];

    #[test]
    fn table_2_trace_matches_the_paper() {
        let expected: Vec<TraceRow> = vec![
            (1, Some("a1"), "J1", vec![1], vec![], vec![], vec![]),
            (2, Some("a2"), "J1", vec![1, 2], vec![], vec![], vec![]),
            (3, Some("a3"), "J1", vec![1, 2, 3], vec![], vec![], vec![]),
            (
                4,
                Some("b1"),
                "J1",
                vec![3],
                vec![1, 2, 4],
                vec![],
                vec![(4, 1)],
            ),
            (
                5,
                Some("b2"),
                "J1",
                vec![],
                vec![1, 2, 4, 3, 5],
                vec![],
                vec![],
            ),
            (6, None, "J2", vec![], vec![2, 4, 3, 5], vec![1], vec![]),
            (7, None, "J2", vec![], vec![4, 3, 5], vec![1, 2], vec![]),
            (
                8,
                None,
                "J2",
                vec![],
                vec![3, 5],
                vec![1, 2],
                vec![(4, 3), (4, 2)],
            ),
            (9, None, "J2", vec![], vec![5], vec![1, 2, 3], vec![]),
            (
                10,
                None,
                "J2",
                vec![],
                vec![],
                vec![2, 3],
                vec![(5, 3), (5, 2)],
            ),
        ];
        let trace = trace();
        assert_eq!(trace, expected);

        let mut all: Vec<(u64, u64)> = trace.into_iter().flat_map(|row| row.6).collect();
        all.sort_unstable();
        assert_eq!(all, REGULAR_JOIN);
    }

    #[test]
    fn trace_has_arrival_steps_plus_queue_drain_steps() {
        let rows = trace();
        // 5 arrivals + 5 queued items to drain.
        assert_eq!(rows.len(), 10);
        assert!(rows[..5].iter().all(|r| r.1.is_some() && r.2 == "J1"));
        assert!(rows[5..].iter().all(|r| r.1.is_none() && r.2 == "J2"));
    }

    #[test]
    fn union_of_both_slices_matches_the_regular_join() {
        let mut all: Vec<(u64, u64)> = trace().into_iter().flat_map(|row| row.6).collect();
        all.sort_unstable();
        assert_eq!(all, REGULAR_JOIN);
    }

    #[test]
    fn queue_between_slices_follows_emission_order() {
        let rows = trace();
        // After the b1 arrival (step 4) the queue holds a1, a2, then b1.
        assert_eq!(rows[3].4, vec![1, 2, 4]);
        // After b2 (step 5) it additionally holds a3 and b2.
        assert_eq!(rows[4].4, vec![1, 2, 4, 3, 5]);
    }
}
