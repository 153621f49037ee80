//! Integration tests for Theorems 1–2: the state-slice chain produces exactly
//! the result set of the regular window join, per registered query, for any
//! slicing of the window — verified against an operator-independent oracle
//! and with property-based testing over random streams and window sets, for
//! the binary chain of the planner and for hand-wired one-way chains.

use proptest::prelude::*;
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{
    collected_fingerprints, expected_fingerprints, expected_results, ChainSpec, JoinQuery,
    QueryWorkload, SharedChainPlan,
};
use state_slice_repro::streamkit::operator::{OpContext, Operator};
use state_slice_repro::streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
use state_slice_repro::streamkit::ops::SliceJoinOp;
use state_slice_repro::streamkit::queue::StreamItem;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::window::SliceWindow;
use state_slice_repro::streamkit::{
    Executor, JoinCondition, Predicate, TimeDelta, Timestamp, Tuple,
};

fn tuple(stream: StreamId, secs_tenths: u64, key: i64, value: i64) -> Tuple {
    Tuple::of_ints(
        Timestamp::from_millis(secs_tenths * 100),
        stream,
        &[key, value],
    )
}

/// Per-query sorted result fingerprints: `(name, [(ts, span, max_input_ts)])`.
type QueryFingerprints = Vec<(String, Vec<(Timestamp, TimeDelta, Timestamp)>)>;

fn run_chain(workload: &QueryWorkload, spec: &ChainSpec, input: &[Tuple]) -> QueryFingerprints {
    let shared = SharedChainPlan::build(
        workload,
        spec,
        &PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
    )
    .expect("plan builds");
    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    exec.run().expect("run");
    workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            (q.name.clone(), collected_fingerprints(sink.collected()))
        })
        .collect()
}

fn oracle(workload: &QueryWorkload, input: &[Tuple]) -> QueryFingerprints {
    let expected = expected_results(workload, input);
    workload
        .queries()
        .iter()
        .map(|q| (q.name.clone(), expected_fingerprints(&expected[&q.name])))
        .collect()
}

#[test]
fn mem_opt_chain_matches_oracle_on_a_fixed_scenario() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::with_filter("Q2", TimeDelta::from_secs(5), Predicate::gt(1, 40i64)),
            JoinQuery::with_filter("Q3", TimeDelta::from_secs(9), Predicate::gt(1, 40i64)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..120u64 {
        a.push(tuple(
            StreamId::A,
            i * 3,
            (i % 4) as i64,
            (i * 13 % 100) as i64,
        ));
        b.push(tuple(StreamId::B, i * 3 + 1, (i % 4) as i64, 0));
    }
    let input = merge_streams(a, b);
    let spec = ChainSpec::memory_optimal(&workload);
    assert_eq!(
        run_chain(&workload, &spec, &input),
        oracle(&workload, &input)
    );
}

#[test]
fn merged_chains_match_oracle_too() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(1)),
            JoinQuery::new("Q2", TimeDelta::from_secs(3)),
            JoinQuery::new("Q3", TimeDelta::from_secs(6)),
            JoinQuery::new("Q4", TimeDelta::from_secs(8)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..150u64 {
        a.push(tuple(StreamId::A, i * 2, (i % 3) as i64, 0));
        b.push(tuple(StreamId::B, i * 2 + 1, (i % 3) as i64, 0));
    }
    let input = merge_streams(a, b);
    let reference = oracle(&workload, &input);
    for path in [
        vec![0usize, 4],
        vec![0, 1, 4],
        vec![0, 2, 4],
        vec![0, 2, 3, 4],
        vec![0, 1, 2, 3, 4],
    ] {
        let spec = ChainSpec::from_path(&workload, &path).unwrap();
        assert_eq!(
            run_chain(&workload, &spec, &input),
            reference,
            "slicing {path:?} diverged from the oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random streams, random distinct windows and a random
    /// selection threshold, every slicing of the chain produces exactly the
    /// oracle's per-query result sets.
    #[test]
    fn chain_equals_oracle_for_random_streams(
        a_arrivals in prop::collection::vec((0u64..400, 0i64..4, 0i64..100), 1..60),
        b_arrivals in prop::collection::vec((0u64..400, 0i64..4, 0i64..100), 1..60),
        windows in prop::collection::btree_set(1u64..20, 1..4),
        threshold in 0i64..100,
        merge_half in proptest::bool::ANY,
    ) {
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k, v)| tuple(StreamId::A, t, k, v))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k, v)| tuple(StreamId::B, t, k, v))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let queries: Vec<JoinQuery> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                if i % 2 == 0 {
                    JoinQuery::new(format!("Q{i}"), TimeDelta::from_secs(w))
                } else {
                    JoinQuery::with_filter(
                        format!("Q{i}"),
                        TimeDelta::from_secs(w),
                        Predicate::gt(1, threshold),
                    )
                }
            })
            .collect();
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let input = merge_streams(a, b);
        let reference = oracle(&workload, &input);

        // Mem-Opt slicing.
        let memopt = ChainSpec::memory_optimal(&workload);
        prop_assert_eq!(run_chain(&workload, &memopt, &input), reference.clone());

        // A coarser slicing (merge the first half of the boundaries).
        if merge_half && workload.len() >= 2 {
            let path: Vec<usize> = std::iter::once(0)
                .chain((workload.len() / 2)..=workload.len())
                .collect();
            let spec = ChainSpec::from_path(&workload, &path).unwrap();
            prop_assert_eq!(run_chain(&workload, &spec, &input), reference);
        }
    }

    /// Theorem 1: a one-way chain `A[w_0, w_1) ⋉ˢ B, …, A[w_k-1, W) ⋉ˢ B`
    /// cut into 1–4 random slices and fed in random run lengths equals the
    /// one-way join `A[W] ⋉ B` — every pair with `0 <= Tb - Ta < W` whose
    /// keys match.
    #[test]
    fn one_way_chain_equals_the_one_way_join(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..4), 1..60),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..4), 1..60),
        cuts in prop::collection::btree_set(1u64..120, 0..4),
        window in 120u64..200,
        run in 1usize..20,
    ) {
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::A, t, k, 0))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::B, t, k, 0))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let tenths = |t: u64| TimeDelta::from_millis(t * 100);
        let expected: Vec<(Timestamp, TimeDelta, Timestamp)> = {
            let mut pairs: Vec<_> = a
                .iter()
                .flat_map(|ta| b.iter().map(move |tb| (ta, tb)))
                .filter(|(ta, tb)| ta.ts <= tb.ts && tb.ts.saturating_sub(ta.ts) < tenths(window))
                .filter(|(ta, tb)| JoinCondition::equi(0).eval(ta, tb))
                .map(|(ta, tb)| (tb.ts, tb.ts.saturating_sub(ta.ts), ta.ts))
                .collect();
            pairs.sort_unstable();
            pairs
        };

        let bounds: Vec<u64> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(window))
            .collect();
        let last = bounds.len() - 2;
        let mut queue: Vec<StreamItem> = merge_streams(a, b).into_iter().map(Into::into).collect();
        let mut results = Vec::new();
        for (k, slice) in bounds.windows(2).enumerate() {
            let window = SliceWindow::new(tenths(slice[0]), tenths(slice[1]));
            let mut op = SliceJoinOp::for_ab(format!("J{k}"), window, JoinCondition::equi(0)).one_way();
            if k == 0 {
                op = op.chain_head();
            }
            if k == last {
                op = op.last_in_chain();
            }
            let mut next = Vec::new();
            for chunk in queue.chunks(run) {
                let mut ctx = OpContext::new();
                op.process_batch(0, &mut chunk.to_vec(), &mut ctx);
                for (port, item) in ctx.take_outputs() {
                    match (port, item) {
                        (PORT_RESULTS, StreamItem::Tuple(t)) => results.push(t),
                        (PORT_RESULTS, StreamItem::Batch(batch)) => results.extend(batch.materialize()),
                        (PORT_NEXT_SLICE, item) => next.push(item),
                        _ => {}
                    }
                }
            }
            queue = next;
        }
        prop_assert_eq!(collected_fingerprints(&results), expected);
    }
}
