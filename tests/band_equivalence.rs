//! Differential suite for the band-indexed join state: the value-ordered
//! index is invisible.  For band-join workloads (`|a.key − b.key| ≤ W`, no
//! equi component, so `JoinState::for_condition` selects the `BandIndexed`
//! mode), a chain run with the band index must be indistinguishable from the
//! same chain forced onto linear-scan probes:
//!
//! * **per-sink multisets** — identical result deliveries for every query;
//! * **final states** — identical drained punctuation-aligned checkpoints
//!   (per-slice stored tuples, union watermarks, sink counters, ingest
//!   progress; sink `collected` compared as multisets, since candidate
//!   *iteration order* — value order vs insertion order — is the one thing
//!   the index legitimately changes within a probe batch);
//! * **purge counts** — cross-purging walks the arena front by timestamp and
//!   never consults the index, so `purge_comparisons` match exactly, as do
//!   the output-scaling route/union/filter/split counters.  Probe
//!   comparisons are the point of the index: `indexed ≤ scan`.
//!
//! * **index ≡ rebuild** — every slice's incrementally maintained index
//!   equals a from-scratch build over its stored tuples at the end of
//!   every run, churn sessions included.
//!
//! Sharding: the planner refuses to hash-partition a no-equi condition
//! across several shards (there is no key to route by), so band chains run
//! single-shard — the 4-shard request must error, and the 1-shard sharded
//! executor must match the plain executor.  Live churn sessions (queries
//! entering/leaving, with merge/split/eager-recut migrations) must preserve
//! the equivalence too.

use proptest::prelude::*;
use state_slice_repro::core::live::{Session, SessionOptions};
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::{collected_fingerprints, scan_only};
use state_slice_repro::core::{
    ChainPlanFactory, ChainSpec, JoinQuery, QueryWorkload, SharedChainPlan,
};
use state_slice_repro::streamkit::checkpoint::{NodeState, ShardCheckpoint};
use state_slice_repro::streamkit::predicate::CmpOp;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    CostCounters, Executor, JoinCondition, TimeDelta, Timestamp, Tuple,
};

/// The band condition over `[key, lo, hi]` tuples, written from both sides
/// so the stored side always classifies as a two-sided band on its `key`.
fn band_condition() -> JoinCondition {
    let theta = |left_field, op, right_field| JoinCondition::Theta {
        left_field,
        op,
        right_field,
    };
    JoinCondition::And(
        Box::new(JoinCondition::And(
            Box::new(theta(0, CmpOp::Ge, 1)),
            Box::new(theta(0, CmpOp::Le, 2)),
        )),
        Box::new(JoinCondition::And(
            Box::new(theta(1, CmpOp::Le, 0)),
            Box::new(theta(2, CmpOp::Ge, 0)),
        )),
    )
}

/// A band tuple `[key, key − w, key + w]` at `tenths` of a second.
fn band_tuple(stream: StreamId, tenths: u64, key: i64, w: i64) -> Tuple {
    Tuple::of_ints(
        Timestamp::from_millis(tenths * 100),
        stream,
        &[key, key - w, key + w],
    )
}

fn workload_of(windows: &[u64]) -> QueryWorkload {
    let queries = windows
        .iter()
        .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
        .collect();
    QueryWorkload::new(queries, band_condition()).unwrap()
}

/// Sort a sink's retained tuples so checkpoints compare as multisets (see
/// module docs: within one probe batch the index changes iteration order).
fn normalize_sinks(mut ckpt: ShardCheckpoint) -> ShardCheckpoint {
    let sort_key = |t: &Tuple| {
        let ints: Vec<i64> = (0..8)
            .map(|i| t.value(i).and_then(|v| v.as_int()).unwrap_or(i64::MIN))
            .collect();
        (t.ts, t.origin_span, t.lineage, ints)
    };
    for node in &mut ckpt.nodes {
        if let NodeState::Sink { collected, .. } = node {
            collected.sort_by_key(sort_key);
        }
    }
    ckpt
}

type Outcome = (
    Vec<(String, Vec<(Timestamp, TimeDelta, Timestamp)>)>,
    CostCounters,
    ShardCheckpoint,
);

/// Run the chain on one executor with the natural (band-indexed) join states
/// or with probes forced onto linear scans.
fn run_mode(workload: &QueryWorkload, spec: &ChainSpec, input: &[Tuple], indexed: bool) -> Outcome {
    let options = PlannerOptions {
        retain_results: true,
        ..PlannerOptions::default()
    };
    let mut shared = SharedChainPlan::build(workload, spec, &options).expect("plan builds");
    if !indexed {
        scan_only(&mut shared.plan);
    }
    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    let report = exec.run().expect("run");
    assert!(
        exec.plan()
            .slice_joins()
            .all(|op| op.index_matches_rebuild()),
        "index diverged from a rebuild"
    );
    let results = workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            (q.name.clone(), collected_fingerprints(sink.collected()))
        })
        .collect();
    let state = normalize_sinks(ShardCheckpoint::capture(&exec).expect("drained capture"));
    (results, report.totals, state)
}

fn assert_band_invariant(indexed: &Outcome, scan: &Outcome) {
    // Identical per-sink result multisets.
    assert_eq!(indexed.0, scan.0);
    // Identical final states at the drained boundary.
    assert_eq!(indexed.2, scan.2);
    // The index only ever removes probe work...
    assert!(indexed.1.probe_comparisons <= scan.1.probe_comparisons);
    // ...and every other counter is untouched by it.
    assert_eq!(indexed.1.purge_comparisons, scan.1.purge_comparisons);
    assert_eq!(indexed.1.route_comparisons, scan.1.route_comparisons);
    assert_eq!(indexed.1.union_comparisons, scan.1.union_comparisons);
    assert_eq!(indexed.1.filter_comparisons, scan.1.filter_comparisons);
    assert_eq!(indexed.1.split_comparisons, scan.1.split_comparisons);
    assert_eq!(indexed.1.items_dropped, 0);
    assert_eq!(scan.1.items_dropped, 0);
}

#[test]
fn band_index_matches_unindexed_scans_on_a_fixed_stream() {
    let workload = workload_of(&[2, 7]);
    let spec = ChainSpec::memory_optimal(&workload);
    // (key domain, probe-comparison ratio the ordered walk must reach): the
    // sparser the band within the key domain, the more a probe prunes — 5x
    // is the acceptance bar the band index shipped with.
    for (domain, min_ratio) in [(23u64, 2), (101, 5)] {
        let half = (domain / 2) as i64;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..300u64 {
            a.push(band_tuple(
                StreamId::A,
                i * 2,
                (i % domain) as i64 - half,
                2,
            ));
            b.push(band_tuple(
                StreamId::B,
                i * 2 + 1,
                (i * 5 % domain) as i64 - half,
                2,
            ));
        }
        let input = merge_streams(a, b);
        let indexed = run_mode(&workload, &spec, &input, true);
        let scan = run_mode(&workload, &spec, &input, false);
        assert_band_invariant(&indexed, &scan);
        assert!(
            indexed.0.iter().any(|(_, r)| !r.is_empty()),
            "workload produces results"
        );
        // On this state size the ordered walk must actually prune the probes.
        assert!(
            scan.1.probe_comparisons >= min_ratio * indexed.1.probe_comparisons,
            "band index did not engage on a {domain}-key domain: {} indexed vs {} scan",
            indexed.1.probe_comparisons,
            scan.1.probe_comparisons
        );
    }
}

#[test]
fn band_chains_run_single_shard_and_reject_hash_partitioning() {
    let workload = workload_of(&[2, 7]);
    let spec = ChainSpec::memory_optimal(&workload);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..200u64 {
        a.push(band_tuple(StreamId::A, i * 2, (i % 17) as i64, 3));
        b.push(band_tuple(StreamId::B, i * 2 + 1, (i * 7 % 17) as i64, 3));
    }
    let input = merge_streams(a, b);
    // No equi component → no hash key to route by: multi-shard must refuse.
    let four = ChainPlanFactory::new(
        workload.clone(),
        spec.clone(),
        PlannerOptions::default().with_shards(4),
    );
    assert!(
        four.sharded().is_err(),
        "4-shard band chain must be rejected"
    );
    // The single-shard sharded executor is the supported path and must match
    // the plain executor exactly.
    let factory = ChainPlanFactory::new(
        workload.clone(),
        spec.clone(),
        PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        }
        .with_shards(1),
    );
    let mut exec = factory.sharded().expect("single-shard band chain builds");
    exec.ingest_all(CHAIN_ENTRY, input.clone()).expect("ingest");
    let report = exec.run().expect("run");
    let single = run_mode(&workload, &spec, &input, true);
    for (name, fps) in &single.0 {
        let sharded_fps = collected_fingerprints(&exec.sink_collected(name));
        assert_eq!(&sharded_fps, fps, "sharded vs plain results for {name}");
    }
    assert_eq!(report.totals.probe_comparisons, single.1.probe_comparisons);
}

/// Final per-slice state fingerprints of a live session's executor:
/// per shard, per slice `(A side, B side)` as `(timestamp, key)` lists.
type LiveStates = Vec<Vec<(Vec<(Timestamp, i64)>, Vec<(Timestamp, i64)>)>>;

fn live_states(live: &Session) -> LiveStates {
    let fp = |tuples: Vec<Tuple>| -> Vec<(Timestamp, i64)> {
        tuples
            .into_iter()
            .map(|t| {
                (
                    t.ts,
                    t.value(0).and_then(|v| v.as_int()).unwrap_or(i64::MIN),
                )
            })
            .collect()
    };
    live.executor()
        .shards()
        .iter()
        .map(|shard| {
            shard
                .plan()
                .slice_joins()
                .map(|op| {
                    assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
                    let (a, b) = op.state_tuples();
                    (fp(a), fp(b))
                })
                .collect()
        })
        .collect()
}

/// Per query instance: name, added epoch and sorted result fingerprints.
type ChurnQueries = Vec<(String, u64, Vec<(Timestamp, TimeDelta, Timestamp)>)>;

/// Drive a fixed churn schedule (add Q5 → remove Q2 → add Q3 against an
/// always-alive Q9 anchor) over a band workload, indexed or linear.  Every
/// migration builds its plans indexed, so the linear run switches them back
/// to scans after launch and after each churn action.
fn run_band_churn(input: &[Tuple], indexed: bool) -> (ChurnQueries, CostCounters, LiveStates) {
    let options = SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
        ..SessionOptions::default()
    };
    let mut live = Session::launch(workload_of(&[9, 2]), options).expect("launch");
    let probe_mode = |live: &mut Session| {
        if !indexed {
            for shard in live.executor_mut().shards_mut() {
                scan_only(shard.plan_mut());
            }
        }
    };
    probe_mode(&mut live);
    let cuts = [input.len() / 4, input.len() / 2, 3 * input.len() / 4];
    let actions: [&dyn Fn(&mut Session); 3] = [
        &|l| {
            l.add_query(JoinQuery::new("Q5", TimeDelta::from_secs(5)))
                .expect("add Q5")
        },
        &|l| {
            l.remove_query("Q2").expect("remove Q2");
        },
        &|l| {
            l.add_query(JoinQuery::new("Q3", TimeDelta::from_secs(3)))
                .expect("add Q3")
        },
    ];
    let mut done = 0usize;
    for (&cut, action) in cuts.iter().zip(actions.iter()) {
        live.ingest_all(input[done..cut].to_vec()).expect("ingest");
        done = cut;
        action(&mut live);
        probe_mode(&mut live);
    }
    live.ingest_all(input[done..].to_vec()).expect("ingest");
    live.drain().expect("drain");
    let states = live_states(&live);
    let outcome = live.finish().expect("finish");
    let queries = outcome
        .queries
        .iter()
        .map(|q| {
            (
                q.name.clone(),
                q.added_epoch,
                collected_fingerprints(&q.collected),
            )
        })
        .collect();
    (queries, outcome.report.totals, states)
}

#[test]
fn live_churn_over_a_band_workload_is_index_invisible() {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..400u64 {
        a.push(band_tuple(StreamId::A, i, (i % 19) as i64 - 9, 2));
        b.push(band_tuple(StreamId::B, i, (i * 3 % 19) as i64 - 9, 2));
    }
    let input = merge_streams(a, b);
    let indexed = run_band_churn(&input, true);
    let scan = run_band_churn(&input, false);
    // Every query instance saw the same result multiset over its lifetime,
    // migrations included.
    assert_eq!(indexed.0, scan.0);
    assert!(
        indexed.0.iter().any(|(_, _, r)| !r.is_empty()),
        "churn session produces results"
    );
    // Merge/split/eager-recut migrations preserve the stored tuples exactly,
    // whichever probe mode the states are in.
    assert_eq!(indexed.2, scan.2);
    assert!(indexed.1.probe_comparisons <= scan.1.probe_comparisons);
    assert_eq!(indexed.1.purge_comparisons, scan.1.purge_comparisons);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random streams (per-tuple band widths included), random
    /// window sets and both Mem-Opt and fully merged slicings, the band
    /// index is invisible — identical per-sink multisets, identical drained
    /// final states, identical purge counts, never more probe comparisons.
    #[test]
    fn band_index_is_invisible(
        a_arrivals in prop::collection::vec((0u64..300, -6i64..6, 0i64..4), 1..60),
        b_arrivals in prop::collection::vec((0u64..300, -6i64..6, 0i64..4), 1..60),
        windows in prop::collection::btree_set(1u64..15, 1..4),
        merge_all in proptest::bool::ANY,
    ) {
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k, w)| band_tuple(StreamId::A, t, k, w))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k, w)| band_tuple(StreamId::B, t, k, w))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let windows: Vec<u64> = windows.into_iter().collect();
        let workload = workload_of(&windows);
        let input = merge_streams(a, b);
        let spec = if merge_all {
            ChainSpec::fully_merged(&workload)
        } else {
            ChainSpec::memory_optimal(&workload)
        };
        let indexed = run_mode(&workload, &spec, &input, true);
        let scan = run_mode(&workload, &spec, &input, false);
        assert_band_invariant(&indexed, &scan);
    }
}
