//! Property test for the hash-indexed join state: on random equi-join
//! workloads the indexed state-sliced chain must emit exactly the same
//! result multiset — and end with exactly the same per-slice window state —
//! as the pre-index linear-scan reference (the same chain with every slice
//! switched to linear scans by `verify::scan_only`).
//!
//! This pins the `JoinState` subsystem to the semantics the paper's
//! Theorems 1–2 assume: the hash index is a pure access-path change.

use proptest::prelude::*;
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::scan_only;
use state_slice_repro::core::{ChainSpec, JoinQuery, QueryWorkload, SharedChainPlan};
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{Executor, JoinCondition, TimeDelta, Timestamp, Tuple};

fn tuple(stream: StreamId, tenths: u64, key: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, 0])
}

/// Per-query sorted result fingerprints plus per-slice final states
/// (timestamps of both window sides, oldest first).
type ChainOutcome = (
    Vec<(String, Vec<(Timestamp, TimeDelta)>)>,
    Vec<(Vec<Timestamp>, Vec<Timestamp>)>,
);

fn run_chain(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    input: &[Tuple],
    indexed: bool,
) -> (ChainOutcome, u64) {
    let mut shared = SharedChainPlan::build(
        workload,
        spec,
        &PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
    )
    .expect("plan builds");
    if !indexed {
        scan_only(&mut shared.plan);
    }
    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    let report = exec.run().expect("run");
    let results = workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            let mut fp: Vec<(Timestamp, TimeDelta)> = sink
                .collected()
                .iter()
                .map(|t| (t.ts, t.origin_span))
                .collect();
            fp.sort_unstable();
            (q.name.clone(), fp)
        })
        .collect();
    let states = exec
        .plan()
        .slice_joins()
        .map(|op| {
            assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
            op.state_timestamps()
        })
        .collect();
    ((results, states), report.totals.probe_comparisons)
}

#[test]
fn indexed_chain_matches_linear_reference_on_a_fixed_stream() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::new("Q2", TimeDelta::from_secs(7)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let spec = ChainSpec::memory_optimal(&workload);
    // (distinct keys, probe-comparison ratio the index must reach): indexed
    // probes scale with the matches, linear scans with the state, so the
    // sparser the keys the wider the gap.
    for (keys, min_ratio) in [(5u64, 2), (97, 10)] {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..200u64 {
            a.push(tuple(StreamId::A, i * 3, (i % keys) as i64));
            b.push(tuple(StreamId::B, i * 3 + 1, (i * 7 % keys) as i64));
        }
        let input = merge_streams(a, b);
        let (indexed, indexed_probes) = run_chain(&workload, &spec, &input, true);
        let (linear, linear_probes) = run_chain(&workload, &spec, &input, false);
        assert_eq!(indexed, linear);
        assert!(!indexed.1.is_empty(), "chain has sliced joins");
        assert!(
            indexed.0.iter().any(|(_, r)| !r.is_empty()),
            "workload produces results"
        );
        assert!(
            linear_probes >= min_ratio * indexed_probes,
            "hash index did not engage on {keys} keys: {indexed_probes} indexed vs {linear_probes} linear"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Property: for random streams, random window sets and random key
    /// cardinalities, the hash-indexed chain and the pre-index linear-scan
    /// chain agree on every query's result multiset and on the final state
    /// of every slice.
    #[test]
    fn indexed_chain_equals_linear_reference(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..6), 1..70),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..6), 1..70),
        windows in prop::collection::btree_set(1u64..15, 1..4),
        merge_all in proptest::bool::ANY,
    ) {
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::A, t, k))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::B, t, k))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let queries: Vec<JoinQuery> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| JoinQuery::new(format!("Q{i}"), TimeDelta::from_secs(w)))
            .collect();
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let input = merge_streams(a, b);

        let spec = if merge_all {
            ChainSpec::fully_merged(&workload)
        } else {
            ChainSpec::memory_optimal(&workload)
        };
        let (indexed, _) = run_chain(&workload, &spec, &input, true);
        let (linear, _) = run_chain(&workload, &spec, &input, false);
        prop_assert_eq!(indexed, linear);
    }
}
