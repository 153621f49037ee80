//! Property test for sharded parallel execution: the shard count is
//! invisible.  For random equi-join workloads, a chain hash-partitioned
//! across 4 shards (one plan instance per shard, each on its own worker
//! thread) must deliver exactly the same per-sink result multiset as the
//! 1-shard run, and the comparison counters that scale with the *output*
//! must match exactly:
//!
//! * `probe_comparisons` — an equi probe touches only its key bucket, and
//!   all tuples of one key class live on one shard, so each probe sees the
//!   identical candidate set in either layout;
//! * `route_comparisons`, `union_comparisons` — one per routed/released
//!   result tuple, and the result multiset is identical;
//! * `filter_comparisons` — the lineage annotator evaluates each A tuple
//!   once (in exactly one shard) and residual selections fire per result.
//!
//! `purge_comparisons` is the one counter that may legitimately *shrink*
//! under sharding: a female is lazily migrated to the next slice only when a
//! later male of the *same shard* arrives, so shard-local tails can leave
//! state unpurged that the global run would have migrated.  The test pins
//! `sharded <= single` for it.

use proptest::prelude::*;
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{ChainPlanFactory, ChainSpec, JoinQuery, QueryWorkload};
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    CostCounters, JoinCondition, Predicate, TimeDelta, Timestamp, Tuple,
};

fn tuple(stream: StreamId, tenths: u64, key: i64, value: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, value])
}

/// Per-query sorted result fingerprints plus the merged cost counters.
type ShardOutcome = (Vec<(String, Vec<(Timestamp, TimeDelta)>)>, CostCounters);

fn run_with_shards(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    input: &[Tuple],
    shards: usize,
) -> ShardOutcome {
    let factory = ChainPlanFactory::new(
        workload.clone(),
        spec.clone(),
        PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        }
        .with_shards(shards),
    );
    let mut exec = factory.sharded().expect("sharded executor builds");
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    let report = exec.run().expect("run");
    let results = workload
        .queries()
        .iter()
        .map(|q| {
            let mut fp: Vec<(Timestamp, TimeDelta)> = exec
                .sink_collected(&q.name)
                .iter()
                .map(|t| (t.ts, t.origin_span))
                .collect();
            fp.sort_unstable();
            assert_eq!(
                fp.len() as u64,
                report.sink_count(&q.name),
                "retained tuples agree with the merged sink count"
            );
            (q.name.clone(), fp)
        })
        .collect();
    for shard in exec.shards() {
        for op in shard.plan().slice_joins() {
            assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
        }
    }
    (results, report.totals)
}

fn assert_shard_invariant(single: &ShardOutcome, sharded: &ShardOutcome) {
    // Identical per-sink result multisets.
    assert_eq!(single.0, sharded.0);
    // Output-scaling comparison counters match exactly.
    assert_eq!(single.1.probe_comparisons, sharded.1.probe_comparisons);
    assert_eq!(single.1.route_comparisons, sharded.1.route_comparisons);
    assert_eq!(single.1.union_comparisons, sharded.1.union_comparisons);
    assert_eq!(single.1.filter_comparisons, sharded.1.filter_comparisons);
    assert_eq!(single.1.split_comparisons, sharded.1.split_comparisons);
    assert_eq!(single.1.items_dropped, 0);
    assert_eq!(sharded.1.items_dropped, 0);
    // Lazy cross-purging can only do less work per shard (see module docs).
    assert!(sharded.1.purge_comparisons <= single.1.purge_comparisons);
}

#[test]
fn four_shards_match_one_shard_on_a_fixed_stream() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::with_filter("Q2", TimeDelta::from_secs(7), Predicate::gt(1, 3i64)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..300u64 {
        a.push(tuple(StreamId::A, i * 2, (i % 9) as i64, (i % 8) as i64));
        b.push(tuple(StreamId::B, i * 2 + 1, (i * 5 % 9) as i64, 0));
    }
    let input = merge_streams(a, b);
    let spec = ChainSpec::memory_optimal(&workload);
    let single = run_with_shards(&workload, &spec, &input, 1);
    let sharded = run_with_shards(&workload, &spec, &input, 4);
    assert_shard_invariant(&single, &sharded);
    assert!(
        single.0.iter().any(|(_, r)| !r.is_empty()),
        "workload produces results"
    );
    assert!(single.1.probe_comparisons > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for random streams, random window sets, random key
    /// cardinalities, optional selections and both Mem-Opt and fully merged
    /// slicings, a 4-shard parallel run is indistinguishable from the
    /// 1-shard run (per-sink multisets and output-scaling counters).
    #[test]
    fn shard_count_is_invisible(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..8, 0i64..8), 1..60),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..8), 1..60),
        windows in prop::collection::btree_set(1u64..15, 1..4),
        with_filter in proptest::bool::ANY,
        merge_all in proptest::bool::ANY,
    ) {
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k, v)| tuple(StreamId::A, t, k, v))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::B, t, k, 0))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let queries: Vec<JoinQuery> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let window = TimeDelta::from_secs(w);
                if with_filter && i > 0 {
                    JoinQuery::with_filter(format!("Q{i}"), window, Predicate::gt(1, 3i64))
                } else {
                    JoinQuery::new(format!("Q{i}"), window)
                }
            })
            .collect();
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let input = merge_streams(a, b);
        let spec = if merge_all {
            ChainSpec::fully_merged(&workload)
        } else {
            ChainSpec::memory_optimal(&workload)
        };
        let single = run_with_shards(&workload, &spec, &input, 1);
        let sharded = run_with_shards(&workload, &spec, &input, 4);
        assert_shard_invariant(&single, &sharded);
    }
}
