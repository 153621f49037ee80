//! Property test for batch-at-a-time execution: the executor hands whole
//! timestamp-contiguous runs of up to `ExecutorConfig::batch_per_visit` items
//! to `Operator::process_batch`, and the run length must be invisible.  The
//! reference is `batch_per_visit: 1` — a run of one *is* strict
//! item-at-a-time execution (the oldest head across a node's input ports,
//! lowest port first on ties, one item per visit).  For random sliced-chain
//! workloads and batch sizes, a batched run and the reference must produce:
//!
//! * identical per-sink result multisets,
//! * identical comparison counters (`probe`, `purge`, `route`, `filter`,
//!   `split`, `union`) and `tuples_processed` — every join purges once per
//!   probe, interleaved with the probes, whatever the run length,
//! * identical final join states in every slice (`state_tuples`).
//!
//! `items_emitted` may differ — a run coalesces the per-male union
//! punctuations into one, which is a coarser but equally valid progress
//! promise.  So may the results' transport: a sliced join sends a run's
//! results as one column batch once they are dense enough — from the run's
//! start when its previous run produced 16 results, otherwise from the
//! run's own 16th result on — which longer runs reach and a run of one
//! usually does not; the fixed-stream test feeds a dense input to make sure
//! the sweep crosses that threshold.

use proptest::prelude::*;
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{ChainSpec, JoinQuery, QueryWorkload, SharedChainPlan};
use state_slice_repro::streamkit::operator::OpContext;
use state_slice_repro::streamkit::ops::SliceJoinOp;
use state_slice_repro::streamkit::queue::StreamItem;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    CostCounters, Executor, ExecutorConfig, JoinCondition, Predicate, TimeDelta, Timestamp, Tuple,
    WindowSpec,
};

fn tuple(stream: StreamId, tenths: u64, key: i64, value: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, value])
}

/// Per-query sorted result fingerprints, merged cost counters, the final
/// per-slice join states (A side, B side — `Tuple` equality ignores the key
/// memo, so hash-memoisation differences are invisible here by design), and
/// how many results the slices emitted as column-batch rows.
type Outcome = (
    Vec<(String, Vec<(Timestamp, TimeDelta)>)>,
    CostCounters,
    Vec<(Vec<Tuple>, Vec<Tuple>)>,
    u64,
);

fn run_mode(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    input: &[Tuple],
    batch_per_visit: usize,
) -> Outcome {
    let shared = SharedChainPlan::build(
        workload,
        spec,
        &PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
    )
    .expect("plan builds");
    let mut exec = Executor::with_config(
        shared.plan,
        ExecutorConfig {
            batch_per_visit,
            ..ExecutorConfig::default()
        },
    );
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    let report = exec.run().expect("run");
    let results = workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            assert_eq!(sink.out_of_order(), 0, "query {} out of order", q.name);
            let mut fp: Vec<(Timestamp, TimeDelta)> = sink
                .collected()
                .iter()
                .map(|t| (t.ts, t.origin_span))
                .collect();
            fp.sort_unstable();
            assert_eq!(fp.len() as u64, report.sink_count(&q.name));
            (q.name.clone(), fp)
        })
        .collect();
    let mut states = Vec::new();
    let mut batch_results = 0;
    for slice in exec.plan().slice_joins() {
        assert!(
            slice.index_matches_rebuild(),
            "index diverged from a rebuild"
        );
        batch_results += slice.batch_results();
        states.push(slice.state_tuples());
    }
    (results, report.totals, states, batch_results)
}

fn assert_batch_invariant(item: &Outcome, batched: &Outcome) {
    // Identical per-sink result multisets.
    assert_eq!(item.0, batched.0);
    // Output-scaling comparison counters match exactly.
    assert_eq!(item.1.probe_comparisons, batched.1.probe_comparisons);
    assert_eq!(item.1.route_comparisons, batched.1.route_comparisons);
    assert_eq!(item.1.filter_comparisons, batched.1.filter_comparisons);
    assert_eq!(item.1.split_comparisons, batched.1.split_comparisons);
    assert_eq!(item.1.union_comparisons, batched.1.union_comparisons);
    assert_eq!(item.1.tuples_processed, batched.1.tuples_processed);
    assert_eq!(item.1.items_dropped, 0);
    assert_eq!(batched.1.items_dropped, 0);
    assert_eq!(item.1.purge_comparisons, batched.1.purge_comparisons);
    // Identical final join state per slice.
    assert_eq!(item.2, batched.2);
}

#[test]
fn vectorized_matches_item_at_a_time_on_a_fixed_stream() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::with_filter("Q2", TimeDelta::from_secs(7), Predicate::gt(1, 3i64)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let spec = ChainSpec::memory_optimal(&workload);
    // Nine keys: a 64-item run yields a few dozen results.  Two keys: it
    // yields over a hundred in the first slice alone, so runs of 64 and 256
    // carry their results as column batches.
    for keys in [9u64, 2] {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..300u64 {
            a.push(tuple(StreamId::A, i * 2, (i % keys) as i64, (i % 8) as i64));
            b.push(tuple(StreamId::B, i * 2 + 1, (i * 5 % keys) as i64, 0));
        }
        let input = merge_streams(a, b);
        let item = run_mode(&workload, &spec, &input, 1);
        for batch in [7usize, 64, 256] {
            let batched = run_mode(&workload, &spec, &input, batch);
            assert_batch_invariant(&item, &batched);
            if keys == 2 && batch >= 64 {
                let runs = (input.len() / batch) as u64;
                assert!(batched.3 >= 100 * (runs - 1), "dense runs stayed on rows");
            }
        }
        assert!(item.0.iter().any(|(_, r)| !r.is_empty()));
        assert!(item.1.probe_comparisons > 0);
        assert!(!item.2.is_empty(), "chain plans expose their slices");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for random streams, random window sets, optional selections,
    /// both Mem-Opt and fully merged slicings and a random batch size, a
    /// batched run is indistinguishable from item-at-a-time execution
    /// (per-sink multisets, output-scaling counters, final slice states).
    #[test]
    fn batch_size_is_invisible(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..8, 0i64..8), 1..60),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..8), 1..60),
        windows in prop::collection::btree_set(1u64..15, 1..4),
        with_filter in proptest::bool::ANY,
        merge_all in proptest::bool::ANY,
        batch in 1usize..100,
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
        let item = run_mode(&workload, &spec, &input, 1);
        let batched = run_mode(&workload, &spec, &input, batch);
        assert_batch_invariant(&item, &batched);
    }

    /// The regular window join in isolation: feeding it each port's input
    /// as one run (the `process_batch` path) leaves exactly the state
    /// item-at-a-time processing leaves, with identical results and probe
    /// and purge comparisons — the join purges once per probe either way.
    #[test]
    fn one_purge_at_run_max_equals_per_tuple_purge(
        a_run in prop::collection::vec((0u64..100, 0i64..5), 1..40),
        b_run in prop::collection::vec((50u64..200, 0i64..5), 1..40),
        window in 1u64..12,
    ) {
        let mut a: Vec<Tuple> = a_run
            .iter()
            .map(|&(t, k)| tuple(StreamId::A, t, k, 0))
            .collect();
        let mut b: Vec<Tuple> = b_run
            .iter()
            .map(|&(t, k)| tuple(StreamId::B, t, k, 0))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let make = || {
            SliceJoinOp::window_join(
                "join",
                WindowSpec::new(TimeDelta::from_secs(window)),
                JoinCondition::equi(0),
            )
        };

        let mut item_op = make();
        let mut item_ctx = OpContext::new();
        for t in &a {
            item_op.process(0, t.clone().into(), &mut item_ctx);
        }
        for t in &b {
            item_op.process(1, t.clone().into(), &mut item_ctx);
        }

        use state_slice_repro::streamkit::operator::Operator;
        let mut batch_op = make();
        let mut batch_ctx = OpContext::new();
        let mut run: Vec<StreamItem> = a.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(0, &mut run, &mut batch_ctx);
        let mut run: Vec<StreamItem> = b.iter().cloned().map(Into::into).collect();
        batch_op.process_batch(1, &mut run, &mut batch_ctx);

        let fp = |ctx: &mut OpContext| {
            let mut out: Vec<(Timestamp, TimeDelta)> = ctx
                .take_outputs()
                .into_iter()
                .flat_map(|(_, i)| match i {
                    StreamItem::Tuple(t) => vec![t],
                    StreamItem::Batch(b) => b.materialize(),
                    StreamItem::Punctuation(_) => Vec::new(),
                })
                .map(|t| (t.ts, t.origin_span))
                .collect();
            out.sort_unstable();
            out
        };
        prop_assert_eq!(fp(&mut item_ctx), fp(&mut batch_ctx));
        prop_assert_eq!(
            item_ctx.counters.probe_comparisons,
            batch_ctx.counters.probe_comparisons
        );
        prop_assert_eq!(
            item_ctx.counters.purge_comparisons,
            batch_ctx.counters.purge_comparisons
        );
        prop_assert_eq!(item_op.state_a_len(), batch_op.state_a_len());
        prop_assert_eq!(item_op.state_b_len(), batch_op.state_b_len());
        prop_assert_eq!(item_op.results(), batch_op.results());
    }
}
