//! Differential property test for skew-aware hot-key routing: replicating
//! hot keys is invisible in the results.  For Zipf-skewed equi-join streams,
//! an N-shard worker pool with hot-key replication enabled (probe side
//! broadcast to every shard, build side spread round-robin) must deliver
//! exactly the same per-sink result multiset as the 1-shard reference run,
//! and the output-scaling comparison counters must match exactly:
//!
//! * `probe_comparisons` — an A tuple lives on exactly one shard and every
//!   hot B tuple it can match is present there (broadcast or migrated), so
//!   each (a, b) pair is probed exactly once, just like cold hash routing;
//! * `route_comparisons`, `union_comparisons`, `filter_comparisons`,
//!   `split_comparisons` — one per routed/released/filtered result tuple,
//!   and the result multiset is identical.
//!
//! `purge_comparisons` is NOT pinned in either direction here: replication
//! adds B-state copies to every shard (more purge work), while lazy shard-
//! local migration defers purges (less purge work) — the two effects can
//! dominate either way.
//!
//! The final-state invariant is pinned instead of the purge counter: every
//! hot-key probe-side tuple the 1-shard reference still holds after the run
//! must be resident in *every* shard of the skew-aware run (shards purge
//! lazily on local arrivals, so they can only retain more than the
//! reference, never less).
//!
//! Hot keys move only at a run boundary, so the skew-aware run is fed in
//! epochs with a `run()` after each; after every run, and after every
//! session drain and action, each shard's chain must be oldest-first across
//! its slices on both sides (`chain_is_oldest_first`), the order the
//! cross-purge relies on and every state move must keep.
//!
//! Two cross-axis cases drive a [`Session`] with skew routing on and compare
//! every query's result multiset with a 1-shard session without it: a
//! rescale to one more shard and back while a key is hot (the rescale
//! demotes it as data, and the new pool promotes it again), and query churn
//! while a key is hot (each shard's chain is re-cut with the replicated
//! bucket in it).  The crash-after-promotion case lives in
//! `recovery_equivalence`.
//!
//! `SS_TEST_SHARDS` (default 4, minimum 2) sets the pool width so CI can
//! sweep shard counts.

use proptest::prelude::*;
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{
    ChainPlanFactory, ChainSpec, JoinQuery, QueryWorkload, Session, SessionOptions,
};
use state_slice_repro::streamkit::checkpoint::chain_is_oldest_first;
use state_slice_repro::streamkit::join_state::tuple_key;
use state_slice_repro::streamkit::tuple::{KeyClass, StreamId};
use state_slice_repro::streamkit::{
    CostCounters, JoinCondition, Predicate, ShardedExecutor, SkewConfig, TimeDelta, Timestamp,
    Tuple,
};
use std::collections::HashMap;

fn tuple(stream: StreamId, tenths: u64, key: i64, value: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, value])
}

/// Pool width for the skew-aware run (`SS_TEST_SHARDS`, default 4).
fn test_shards() -> usize {
    std::env::var("SS_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// Thresholds low enough that short test streams trigger promotions.
fn eager_skew() -> SkewConfig {
    SkewConfig {
        hot_share: 0.2,
        min_observations: 12,
        sketch_capacity: 8,
        max_hot_keys: 2,
    }
}

/// Fingerprint of one retained probe-side (stream B) state tuple.
type StateFp = (Timestamp, i64);

/// Per-query sorted result fingerprints, merged cost counters, promoted hot
/// key hashes, and per-shard hot-key B-state fingerprints (sorted).
struct Outcome {
    results: Vec<(String, Vec<(Timestamp, TimeDelta)>)>,
    totals: CostCounters,
    hot_keys: Vec<u64>,
    hot_state_b: Vec<Vec<StateFp>>,
}

/// Input tuples between two runs of the skew-aware executor.
const EPOCH: usize = 20;

/// Run `input` on `shards` chain instances in epochs of [`EPOCH`] tuples,
/// optionally with skew-aware routing, and harvest results, counters and
/// final hot-key B state.
fn run_with_policy(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    input: &[Tuple],
    shards: usize,
    skew: Option<SkewConfig>,
) -> Outcome {
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
    if let Some(config) = skew {
        exec.enable_skew(config).expect("skew routing enables");
    }
    // Hot keys move only at a run boundary: run after every epoch, and check
    // after each that the moves left every chain oldest-first.
    let mut report = None;
    for epoch in input.chunks(EPOCH) {
        exec.ingest_all(CHAIN_ENTRY, epoch.to_vec())
            .expect("ingest");
        report = Some(exec.run().expect("run"));
        assert_oldest_first(&exec);
    }
    let report = report.expect("the input is not empty");
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
    let hot_keys = exec.hot_keys().to_vec();
    let hot_state_b = harvest_hot_state_b(&exec, &hot_keys);
    Outcome {
        results,
        totals: report.totals,
        hot_keys,
        hot_state_b,
    }
}

/// Every shard's chain is oldest-first across its slices on both sides.
fn assert_oldest_first(exec: &ShardedExecutor) {
    let chains = exec.window_states();
    assert!(
        chains.iter().all(|chain| chain_is_oldest_first(chain)),
        "a chain side is out of order: {chains:?}"
    );
}

/// Read every sliced join of every shard and keep the probe-side tuples
/// whose key hash is in `hot`, fingerprinted and sorted per shard.
fn harvest_hot_state_b(exec: &ShardedExecutor, hot: &[u64]) -> Vec<Vec<StateFp>> {
    let mut per_shard = Vec::new();
    for shard in exec.shards() {
        let mut fps: Vec<StateFp> = Vec::new();
        for op in shard.plan().slice_joins() {
            assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
            let (_, side_b) = op.state_tuples();
            for t in side_b {
                if let KeyClass::Hash(h) = tuple_key(&t, 0) {
                    if hot.contains(&h) {
                        let Some(&state_slice_repro::streamkit::Value::Int(k)) = t.value(0) else {
                            panic!("join key must be an int");
                        };
                        fps.push((t.ts, k));
                    }
                }
            }
        }
        fps.sort_unstable();
        per_shard.push(fps);
    }
    per_shard
}

/// `sub` is a multiset subset of `sup`.
fn is_multiset_subset(sub: &[StateFp], sup: &[StateFp]) -> bool {
    let mut counts: HashMap<StateFp, isize> = HashMap::new();
    for fp in sup {
        *counts.entry(*fp).or_default() += 1;
    }
    sub.iter().all(|fp| {
        let c = counts.entry(*fp).or_default();
        *c -= 1;
        *c >= 0
    })
}

fn assert_skew_invariant(single: &Outcome, skewed: &Outcome) {
    // Identical per-sink result multisets.
    assert_eq!(single.results, skewed.results);
    // Output-scaling comparison counters match exactly; see module docs for
    // why each probe still happens exactly once under replication.
    assert_eq!(
        single.totals.probe_comparisons,
        skewed.totals.probe_comparisons
    );
    assert_eq!(
        single.totals.route_comparisons,
        skewed.totals.route_comparisons
    );
    assert_eq!(
        single.totals.union_comparisons,
        skewed.totals.union_comparisons
    );
    assert_eq!(
        single.totals.filter_comparisons,
        skewed.totals.filter_comparisons
    );
    assert_eq!(
        single.totals.split_comparisons,
        skewed.totals.split_comparisons
    );
    assert_eq!(single.totals.items_dropped, 0);
    assert_eq!(skewed.totals.items_dropped, 0);
    // Final-state invariant: the hot-key B tuples the reference retained are
    // resident in every shard of the skew-aware run.
    let reference: Vec<StateFp> = {
        // The reference run has no hot set of its own; reuse the skew-aware
        // run's hot hashes against the reference's single shard state.
        let mut all: Vec<StateFp> = single.hot_state_b.concat();
        all.sort_unstable();
        all
    };
    for (shard, state) in skewed.hot_state_b.iter().enumerate() {
        assert!(
            is_multiset_subset(&reference, state),
            "shard {shard} lost replicated hot-key state: reference {reference:?} not within {state:?}"
        );
    }
}

/// A two-query workload over an equi join on field 0.
fn two_query_workload() -> QueryWorkload {
    QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::with_filter("Q2", TimeDelta::from_secs(7), Predicate::gt(1, 3i64)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap()
}

/// Run the reference with the skew-aware run's hot hashes, so the subset
/// check compares like with like.
fn run_pair(workload: &QueryWorkload, spec: &ChainSpec, input: &[Tuple]) -> (Outcome, Outcome) {
    let skewed = run_with_policy(workload, spec, input, test_shards(), Some(eager_skew()));
    let mut single = run_with_policy(workload, spec, input, 1, None);
    // Re-filter the single run's state with the skew-aware hot set (the
    // single run promoted nothing itself).
    if !skewed.hot_keys.is_empty() {
        let factory = ChainPlanFactory::new(
            workload.clone(),
            spec.clone(),
            PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default()
            }
            .with_shards(1),
        );
        let mut exec = factory.sharded().expect("sharded executor builds");
        exec.ingest_all(CHAIN_ENTRY, input.to_vec())
            .expect("ingest");
        exec.run().expect("run");
        single.hot_state_b = harvest_hot_state_b(&exec, &skewed.hot_keys);
    }
    (single, skewed)
}

#[test]
fn skewed_stream_with_hot_keys_matches_the_reference() {
    let workload = two_query_workload();
    // Key 0 carries ~60% of both streams: promoted early, stays hot.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..240u64 {
        let key = if i % 5 < 3 { 0 } else { (i % 7) as i64 + 1 };
        a.push(tuple(StreamId::A, i * 2, key, (i % 8) as i64));
        b.push(tuple(StreamId::B, i * 2 + 1, key, 0));
    }
    let input = merge_streams(a, b);
    let spec = ChainSpec::memory_optimal(&workload);
    let (single, skewed) = run_pair(&workload, &spec, &input);
    assert_skew_invariant(&single, &skewed);
    assert!(
        !skewed.hot_keys.is_empty(),
        "the dominant key must be promoted"
    );
    assert!(single.results.iter().any(|(_, r)| !r.is_empty()));
    assert!(single.totals.probe_comparisons > 0);
}

#[test]
fn key_becoming_hot_mid_run_matches_the_reference() {
    let workload = two_query_workload();
    // Key 5 is absent for the first half, then dominates the second half:
    // promotion happens at a run boundary mid-stream and must migrate the
    // already-routed state.
    // The first half rotates through 16 keys so no cold key's early share
    // ever reaches the 0.2 promotion threshold.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..120u64 {
        a.push(tuple(
            StreamId::A,
            i * 2,
            (i % 16) as i64 + 10,
            (i % 8) as i64,
        ));
        b.push(tuple(StreamId::B, i * 2 + 1, (i * 5 % 16) as i64 + 10, 0));
    }
    for i in 120..280u64 {
        let key = if i % 4 < 3 { 5 } else { (i % 16) as i64 + 10 };
        a.push(tuple(StreamId::A, i * 2, key, (i % 8) as i64));
        b.push(tuple(StreamId::B, i * 2 + 1, key, 0));
    }
    let input = merge_streams(a, b);
    let spec = ChainSpec::memory_optimal(&workload);
    let (single, skewed) = run_pair(&workload, &spec, &input);
    assert_skew_invariant(&single, &skewed);
    // The late-dominant key must be the one promoted.
    let hot_hash = match tuple_key(&tuple(StreamId::B, 0, 5, 0), 0) {
        KeyClass::Hash(h) => h,
        other => panic!("expected a hash key class, got {other:?}"),
    };
    assert!(
        skewed.hot_keys.contains(&hot_hash),
        "key 5 should be promoted mid-run (hot set: {:?})",
        skewed.hot_keys
    );
}

/// A session action after a chunk of input.
#[derive(Debug, Clone, Copy)]
enum Action {
    Add(&'static str, u64),
    Remove(&'static str),
    Rescale(usize),
}

/// Per query name, the sorted result fingerprints.
type ByQuery = Vec<(String, Vec<(Timestamp, TimeDelta, Timestamp)>)>;

/// Key 0 carries two thirds of both streams over `from..to` (0.2 s steps).
fn dominant_key_chunk(from: u64, to: u64) -> Vec<Tuple> {
    let mut items = Vec::new();
    for i in from..to {
        let key = if i % 3 < 2 { 0 } else { (i % 7) as i64 + 1 };
        items.push(tuple(StreamId::A, i * 2, key, (i % 8) as i64));
        items.push(tuple(StreamId::B, i * 2 + 1, key, 0));
    }
    items
}

/// Feed `chunks` to a session over QA (15 s) and C5 (5 s), draining after
/// each and applying `actions[k]` after chunk `k`.  With skew routing on
/// `shards` workers it records whether a key was hot at each action; the
/// oracle (`None`) runs on one shard and skips rescales.  Returns the
/// results by query name, the hot flags and the final hot set.
fn run_session(
    skew_shards: Option<usize>,
    chunks: &[Vec<Tuple>],
    actions: &[Action],
) -> (ByQuery, Vec<bool>, Vec<u64>) {
    let options = SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            shards: skew_shards.unwrap_or(1),
        },
        ..SessionOptions::default()
    };
    let queries = vec![
        JoinQuery::new("QA", TimeDelta::from_secs(15)),
        JoinQuery::new("C5", TimeDelta::from_secs(5)),
    ];
    let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
    let mut live = Session::launch(workload, options).unwrap();
    if skew_shards.is_some() {
        live.executor_mut().enable_skew(eager_skew()).unwrap();
    }
    let mut hot_at = Vec::new();
    for (k, chunk) in chunks.iter().enumerate() {
        live.ingest_all(chunk.clone()).unwrap();
        live.drain().unwrap();
        assert_oldest_first(live.executor());
        let Some(&action) = actions.get(k) else {
            continue;
        };
        hot_at.push(!live.executor().hot_keys().is_empty());
        match action {
            Action::Add(name, secs) => live
                .add_query(JoinQuery::new(name, TimeDelta::from_secs(secs)))
                .unwrap(),
            Action::Remove(name) => {
                live.remove_query(name).unwrap();
            }
            Action::Rescale(n) if skew_shards.is_some() => live.rescale_shards(n).unwrap(),
            Action::Rescale(_) => {}
        }
        assert_oldest_first(live.executor());
    }
    let hot = live.executor().hot_keys().to_vec();
    let outcome = live.finish().unwrap();
    let mut results: ByQuery = outcome
        .queries
        .iter()
        .map(|q| {
            let mut fps = collected_fingerprints(&q.collected);
            fps.sort_unstable();
            (q.name.clone(), fps)
        })
        .collect();
    results.sort();
    (results, hot_at, hot)
}

#[test]
fn a_rescale_with_a_hot_key_matches_the_reference() {
    let n = test_shards();
    let chunks: Vec<Vec<Tuple>> = (0..4)
        .map(|c| dominant_key_chunk(c * 150, c * 150 + 150))
        .collect();
    let actions = [Action::Rescale(n + 1), Action::Rescale(n)];
    let (oracle, _, _) = run_session(None, &chunks, &actions);
    let (skewed, hot_at, hot) = run_session(Some(n), &chunks, &actions);
    assert_eq!(hot_at, [true, true], "a key is hot at each rescale");
    assert!(!hot.is_empty(), "skew routing survived both rescales");
    assert!(oracle.iter().all(|(_, fps)| !fps.is_empty()));
    assert_eq!(skewed, oracle);
}

#[test]
fn query_churn_with_a_hot_key_matches_the_reference() {
    let chunks: Vec<Vec<Tuple>> = (0..4)
        .map(|c| dominant_key_chunk(c * 150, c * 150 + 150))
        .collect();
    let actions = [
        Action::Add("C3", 3),
        Action::Remove("C5"),
        Action::Add("C7", 7),
    ];
    let (oracle, _, _) = run_session(None, &chunks, &actions);
    let (skewed, hot_at, _) = run_session(Some(test_shards()), &chunks, &actions);
    assert_eq!(hot_at, [true; 3], "a key is hot at each churn step");
    assert_eq!(oracle.len(), 4);
    assert!(oracle.iter().all(|(_, fps)| !fps.is_empty()));
    assert_eq!(skewed, oracle);
}

#[test]
fn a_recut_after_hot_broadcasts_ages_every_shard_against_them() {
    let options = SessionOptions {
        planner: PlannerOptions {
            retain_results: false,
            shards: test_shards(),
        },
        ..SessionOptions::default()
    };
    let queries = vec![
        JoinQuery::new("QA", TimeDelta::from_secs(15)),
        JoinQuery::new("C5", TimeDelta::from_secs(5)),
    ];
    let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
    let mut live = Session::launch(workload, options).unwrap();
    live.executor_mut().enable_skew(eager_skew()).unwrap();
    // Seconds 0-6 dominated by key 0: the drain promotes it.
    live.ingest_all(dominant_key_chunk(0, 31)).unwrap();
    live.drain().unwrap();
    assert!(!live.executor().hot_keys().is_empty(), "key 0 is hot");
    // Seconds 7-12: only key-0 B tuples, each broadcast to every shard,
    // where it is a male that ages the stored A tuples.
    live.ingest_all((70..=120).map(|tenths| tuple(StreamId::B, tenths, 0, 0)))
        .unwrap();
    live.drain().unwrap();
    live.add_query(JoinQuery::new("C10", TimeDelta::from_secs(10)))
        .unwrap();
    let newest_b = Timestamp::from_secs(12);
    for (shard, chain) in live.executor().window_states().iter().enumerate() {
        for state in chain {
            for t in &state.side_a {
                assert!(
                    newest_b.saturating_sub(t.ts) < state.window.end,
                    "shard {shard}: A tuple at {} sits in {} though the newest B is {newest_b}",
                    t.ts,
                    state.window
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for random Zipf-skewed streams, random window sets, with
    /// and without selections and under both slicing strategies, the
    /// skew-aware N-shard run is indistinguishable from the 1-shard
    /// reference — whether or not any key was actually promoted.
    #[test]
    fn hot_key_replication_is_invisible(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..16, 0i64..8), 1..80),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..16), 1..80),
        windows in prop::collection::btree_set(1u64..15, 1..4),
        with_filter in proptest::bool::ANY,
        merge_all in proptest::bool::ANY,
    ) {
        // Map the raw key draw onto a skewed domain: 9/16 of the mass lands
        // on key 0, the rest spreads over keys 1..8.
        let skew_key = |k: i64| if k < 9 { 0 } else { k - 8 };
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k, v)| tuple(StreamId::A, t, skew_key(k), v))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k)| tuple(StreamId::B, t, skew_key(k), 0))
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
        let (single, skewed) = run_pair(&workload, &spec, &input);
        assert_skew_invariant(&single, &skewed);
    }
}
