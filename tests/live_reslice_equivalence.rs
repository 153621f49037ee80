//! Differential migration suite for live query churn (`core::live`).
//!
//! Property: for random input streams and random add/remove schedules, a
//! chain kept alive across the whole run and re-sliced online at every churn
//! event is indistinguishable from chains **freshly planned** for each
//! epoch's workload:
//!
//! * **per-sink multisets** — the results every query instance receives over
//!   its lifetime equal, epoch by epoch, the delivery deltas of a fresh chain
//!   planned for that epoch's workload and fed the whole input history, and
//! * **final states** — after the last drain, the live chain's per-shard
//!   per-slice window states equal the states of a fresh chain planned for
//!   the final workload and fed the entire input.
//!
//! Schedules keep one anchor query (the largest window) alive throughout, so
//! churn never changes the chain's coverage and every migration is a pure
//! merge/split re-slicing — the regime where the equivalence is exact.  The
//! window-extending case (no anchor) has its own ramp-up test at the bottom.

use std::collections::BTreeSet;

use proptest::prelude::*;
use state_slice_repro::core::live::{Session, SessionEvent, SessionOptions, SliceStrategy};
use state_slice_repro::core::planner::{PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{
    ChainPlanFactory, ChainSpec, CostConfig, JoinQuery, QueryWorkload, SessionOutcome,
    SharedChainPlan,
};
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::window::SliceWindow;
use state_slice_repro::streamkit::{
    ColumnBatch, Executor, JoinCondition, Predicate, ShardedExecutor, TimeDelta, Timestamp, Tuple,
};

/// Anchor window (seconds): always registered, so coverage never changes.
const ANCHOR_SECS: u64 = 15;
/// Windows churned queries draw from (all below the anchor).
const POOL: [u64; 6] = [2, 3, 5, 7, 9, 11];

type Fingerprint = (Timestamp, TimeDelta, Timestamp);

fn anchor() -> JoinQuery {
    JoinQuery::new("QA", TimeDelta::from_secs(ANCHOR_SECS))
}

/// A churned query; a `filtered` one selects on stream A's key, so its chain
/// carries a lineage annotator and lineage gates.
fn pool_query(window_secs: u64, filtered: bool) -> JoinQuery {
    let name = format!("C{window_secs}");
    let window = TimeDelta::from_secs(window_secs);
    if filtered {
        JoinQuery::with_filter(name, window, Predicate::gt(0, (window_secs % 3) as i64))
    } else {
        JoinQuery::new(name, window)
    }
}

fn workload_of(pool_windows: &[u64], filtered: bool) -> QueryWorkload {
    let mut queries = vec![anchor()];
    queries.extend(pool_windows.iter().map(|&w| pool_query(w, filtered)));
    QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
}

/// Build a timestamp-ordered input stream from (delta-tenths, is-A, key)
/// triples.
fn build_input(arrivals: &[(u64, bool, i64)]) -> Vec<Tuple> {
    let mut tenths = 0u64;
    arrivals
        .iter()
        .map(|&(delta, is_a, key)| {
            tenths += delta;
            let stream = if is_a { StreamId::A } else { StreamId::B };
            Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key])
        })
        .collect()
}

/// One resolved churn event: apply at input index `cut`.
#[derive(Debug, Clone)]
enum Action {
    Add(u64),
    Remove(u64),
}

/// Turn an abstract schedule (chunk lengths plus add/remove picks) into a
/// concrete, always-valid event list.
fn resolve_schedule(
    schedule: &[(usize, bool, usize)],
    input_len: usize,
    initial: &[u64],
) -> (Vec<usize>, Vec<Action>) {
    let mut active: Vec<u64> = initial.to_vec();
    let mut pos = 0usize;
    let mut cuts = Vec::new();
    let mut actions = Vec::new();
    for &(chunk, add, pick) in schedule {
        pos = (pos + chunk).min(input_len);
        let avail: Vec<u64> = POOL
            .iter()
            .copied()
            .filter(|w| !active.contains(w))
            .collect();
        // Degenerate picks resolve to the possible action instead of a no-op
        // event, so every scheduled event really migrates.
        let add = (add && !avail.is_empty()) || active.is_empty();
        if add {
            if avail.is_empty() {
                continue;
            }
            let w = avail[pick % avail.len()];
            active.push(w);
            actions.push(Action::Add(w));
        } else {
            let w = active.remove(pick % active.len());
            actions.push(Action::Remove(w));
        }
        cuts.push(pos);
    }
    (cuts, actions)
}

fn live_options(shards: usize) -> SessionOptions {
    SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            shards,
        },
        ..SessionOptions::default()
    }
}

/// Per-shard, per-slice state snapshot: (window, A-side, B-side) with
/// `(timestamp, key)` fingerprints in state order.
type StateSnapshot = Vec<Vec<(SliceWindow, Vec<(Timestamp, i64)>, Vec<(Timestamp, i64)>)>>;

fn collect_states(exec: &ShardedExecutor) -> StateSnapshot {
    let fp = |tuples: Vec<Tuple>| -> Vec<(Timestamp, i64)> {
        tuples
            .into_iter()
            .map(|t| (t.ts, t.value(0).and_then(|v| v.as_int()).unwrap_or(-1)))
            .collect()
    };
    exec.shards()
        .iter()
        .map(|shard| {
            shard
                .plan()
                .slice_joins()
                .map(|op| {
                    assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
                    let (a, b) = op.state_tuples();
                    (op.window(), fp(a), fp(b))
                })
                .collect()
        })
        .collect()
}

/// Drive a session over the schedule; return its outcome and the
/// final drained state snapshot.
fn run_live(
    input: &[Tuple],
    initial: &[u64],
    cuts: &[usize],
    actions: &[Action],
    shards: usize,
    filtered: bool,
) -> (SessionOutcome, StateSnapshot) {
    let mut live = Session::launch(workload_of(initial, filtered), live_options(shards)).unwrap();
    let mut done = 0usize;
    for (&cut, action) in cuts.iter().zip(actions) {
        live.ingest_all(input[done..cut].to_vec()).unwrap();
        done = cut;
        match action {
            Action::Add(w) => live.add_query(pool_query(*w, filtered)).unwrap(),
            Action::Remove(w) => live.remove_query(&format!("C{w}")).map(|_| ()).unwrap(),
        }
    }
    live.ingest_all(input[done..].to_vec()).unwrap();
    live.drain().unwrap();
    let states = collect_states(live.executor());
    (live.finish().unwrap(), states)
}

/// Fresh chain for one epoch's workload, fed the whole input history, run to
/// two quiescent points: returns each sink's delivery delta over
/// `input[start..end]`.
fn reference_epoch_deliveries(
    workload: &QueryWorkload,
    input: &[Tuple],
    start: usize,
    end: usize,
) -> Vec<(String, Vec<Fingerprint>)> {
    let spec = ChainSpec::memory_optimal(workload);
    let shared = SharedChainPlan::build(
        workload,
        &spec,
        &PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
    )
    .unwrap();
    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, input[..start].to_vec())
        .unwrap();
    exec.run().unwrap();
    let marks: Vec<(String, usize)> = workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            (q.name.clone(), sink.collected().len())
        })
        .collect();
    exec.ingest_all(CHAIN_ENTRY, input[start..end].to_vec())
        .unwrap();
    exec.run().unwrap();
    marks
        .into_iter()
        .map(|(name, mark)| {
            let sink = exec.plan().sink(&name).expect("sink exists");
            (name, collected_fingerprints(&sink.collected()[mark..]))
        })
        .collect()
}

/// Oracle: per query instance (name, added-epoch), the concatenated epoch
/// deliveries of freshly planned chains over the instance's lifetime.
fn oracle_instances(
    input: &[Tuple],
    initial: &[u64],
    cuts: &[usize],
    actions: &[Action],
    filtered: bool,
) -> Vec<((String, u64), Vec<Fingerprint>)> {
    let mut active: Vec<u64> = initial.to_vec();
    // (name, added_epoch) → accumulated fingerprints.
    let mut ledger: Vec<((String, u64), Vec<Fingerprint>)> = workload_of(initial, filtered)
        .queries()
        .iter()
        .map(|q| ((q.name.clone(), 0u64), Vec::new()))
        .collect();
    let mut open: Vec<(String, u64)> = ledger.iter().map(|(key, _)| key.clone()).collect();
    let bounds: Vec<usize> = {
        let mut b = vec![0];
        b.extend_from_slice(cuts);
        b.push(input.len());
        b
    };
    for epoch in 0..bounds.len() - 1 {
        let (start, end) = (bounds[epoch], bounds[epoch + 1]);
        let workload = workload_of(&active, filtered);
        for (name, fps) in reference_epoch_deliveries(&workload, input, start, end) {
            let key = open
                .iter()
                .find(|(n, _)| *n == name)
                .expect("active query has an open instance")
                .clone();
            ledger
                .iter_mut()
                .find(|(k, _)| *k == key)
                .expect("instance ledger exists")
                .1
                .extend(fps);
        }
        if epoch < actions.len() {
            match &actions[epoch] {
                Action::Add(w) => {
                    active.push(*w);
                    let key = (format!("C{w}"), epoch as u64 + 1);
                    open.push(key.clone());
                    ledger.push((key, Vec::new()));
                }
                Action::Remove(w) => {
                    active.retain(|x| x != w);
                    open.retain(|(n, _)| *n != format!("C{w}"));
                }
            }
        }
    }
    for (_, fps) in &mut ledger {
        fps.sort_unstable();
    }
    ledger
}

fn assert_live_matches_oracle(
    outcome: &SessionOutcome,
    oracle: &[((String, u64), Vec<Fingerprint>)],
) {
    assert_eq!(outcome.queries.len(), oracle.len(), "instance count");
    for instance in &outcome.queries {
        let key = (instance.name.clone(), instance.added_epoch);
        let expected = &oracle
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("no oracle instance for {key:?}"))
            .1;
        let mut live = collected_fingerprints(&instance.collected);
        live.sort_unstable();
        assert_eq!(
            &live, expected,
            "per-sink multiset diverged for {key:?} (lifetime epochs {}..{:?})",
            instance.added_epoch, instance.removed_epoch
        );
        assert_eq!(instance.count as usize, live.len(), "count vs collected");
    }
}

/// Fresh sharded chain for the final workload over the full input; states at
/// quiescence.
fn reference_final_states(input: &[Tuple], final_pool: &[u64], shards: usize) -> StateSnapshot {
    let workload = workload_of(final_pool, false);
    let spec = ChainSpec::memory_optimal(&workload);
    let factory = ChainPlanFactory::new(
        workload,
        spec,
        PlannerOptions {
            retain_results: true,
            shards,
        },
    );
    let mut exec = factory.sharded().unwrap();
    exec.ingest_all(CHAIN_ENTRY, input.to_vec()).unwrap();
    exec.run().unwrap();
    collect_states(&exec)
}

fn final_pool(initial: &[u64], actions: &[Action]) -> Vec<u64> {
    let mut active = initial.to_vec();
    for action in actions {
        match action {
            Action::Add(w) => active.push(*w),
            Action::Remove(w) => active.retain(|x| x != w),
        }
    }
    active
}

fn check_schedule(
    arrivals: &[(u64, bool, i64)],
    initial: &[u64],
    schedule: &[(usize, bool, usize)],
    shards: usize,
) {
    let input = build_input(arrivals);
    let (cuts, actions) = resolve_schedule(schedule, input.len(), initial);
    let (outcome, live_states) = run_live(&input, initial, &cuts, &actions, shards, false);
    let migrations = outcome.events.iter().filter_map(SessionEvent::migration);
    assert_eq!(migrations.count(), actions.len());
    let oracle = oracle_instances(&input, initial, &cuts, &actions, false);
    assert_live_matches_oracle(&outcome, &oracle);
    let fresh_states = reference_final_states(&input, &final_pool(initial, &actions), shards);
    // Exact per-shard per-slice equality with the freshly planned chain,
    // including window boundaries and state order.
    assert_eq!(live_states, fresh_states, "final slice states diverged");
}

#[test]
fn sharded_add_and_remove_preserve_per_sink_multisets() {
    // The acceptance scenario: a mid-run add_query + remove_query on a
    // 4-shard executor, pinned against freshly planned per-epoch chains.
    let arrivals: Vec<(u64, bool, i64)> = (0..400)
        .map(|i| (i % 4, i % 3 == 0, (i % 5) as i64))
        .collect();
    let initial = [5u64];
    let schedule = [(140usize, true, 1usize), (130, false, 0)];
    check_schedule(&arrivals, &initial, &schedule, 4);
}

#[test]
fn cpu_opt_replanning_matches_per_epoch_references() {
    // Re-plan with the CPU-Opt builder at every event; the oracle compares
    // result multisets only (slicing differs from Mem-Opt, states too).
    let arrivals: Vec<(u64, bool, i64)> = (0..350)
        .map(|i| (i % 3, i % 3 != 1, (i % 3) as i64))
        .collect();
    let input = build_input(&arrivals);
    let initial = [2u64, 7, 11];
    let schedule = [(120usize, false, 0usize), (110, true, 3)];
    let (cuts, actions) = resolve_schedule(&schedule, input.len(), &initial);
    let mut options = live_options(1);
    options.strategy = SliceStrategy::CpuOpt(CostConfig::default());
    let mut live = Session::launch(workload_of(&initial, false), options).unwrap();
    let mut done = 0usize;
    for (&cut, action) in cuts.iter().zip(&actions) {
        live.ingest_all(input[done..cut].to_vec()).unwrap();
        done = cut;
        match action {
            Action::Add(w) => live.add_query(pool_query(*w, false)).unwrap(),
            Action::Remove(w) => live.remove_query(&format!("C{w}")).map(|_| ()).unwrap(),
        }
    }
    live.ingest_all(input[done..].to_vec()).unwrap();
    let outcome = live.finish().unwrap();
    // The oracle chains are Mem-Opt; result multisets are slicing-invariant
    // (Theorem 1), so the comparison still pins the migration.
    let oracle = oracle_instances(&input, &initial, &cuts, &actions, false);
    assert_live_matches_oracle(&outcome, &oracle);
}

#[test]
fn filtered_churn_through_lineage_gates_matches_per_epoch_references() {
    // Every churned query selects on stream A, so each chain has a lineage
    // annotator and a gate in front of every slice but the first.  The
    // anchor selects nothing, so no query's history is ever filtered away
    // and the per-epoch references stay exact.  Results only: the stored
    // tuples' lineage levels are the plan's business, not the oracle's.
    let arrivals: Vec<(u64, bool, i64)> = (0..420)
        .map(|i| (i % 4, i % 3 == 0, (i % 5) as i64))
        .collect();
    let input = build_input(&arrivals);
    let initial = [3u64, 9];
    let schedule = [
        (90usize, true, 0usize),
        (90, false, 1),
        (90, true, 2),
        (90, false, 0),
    ];
    let (cuts, actions) = resolve_schedule(&schedule, input.len(), &initial);
    let oracle = oracle_instances(&input, &initial, &cuts, &actions, true);
    for shards in [1, 4] {
        let (outcome, _) = run_live(&input, &initial, &cuts, &actions, shards, true);
        assert_eq!(
            outcome
                .events
                .iter()
                .filter_map(SessionEvent::migration)
                .count(),
            actions.len()
        );
        assert_live_matches_oracle(&outcome, &oracle);
    }
}

#[test]
fn window_extension_ramps_up_instead_of_resurrecting_history() {
    // No anchor: adding a query larger than the current coverage cannot
    // recover already-discarded state.  The live chain must deliver a
    // *subset* of the fresh chain's results, missing only pairs whose span
    // exceeds the coverage at add time.
    let queries = vec![JoinQuery::new("Q4", TimeDelta::from_secs(4))];
    let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
    let arrivals: Vec<(u64, bool, i64)> = (0..300).map(|i| (2, i % 2 == 0, 0i64)).collect();
    let input = build_input(&arrivals);
    let cut = 200usize;
    let mut live = Session::launch(workload, live_options(1)).unwrap();
    live.ingest_all(input[..cut].to_vec()).unwrap();
    live.add_query(JoinQuery::new("Q12", TimeDelta::from_secs(12)))
        .unwrap();
    live.ingest_all(input[cut..].to_vec()).unwrap();
    let outcome = live.finish().unwrap();
    let live_q12: BTreeSet<Fingerprint> =
        collected_fingerprints(&outcome.query("Q12").unwrap().collected)
            .into_iter()
            .collect();
    // Fresh chain with both queries over the epoch's input.
    let both = QueryWorkload::new(
        vec![
            JoinQuery::new("Q4", TimeDelta::from_secs(4)),
            JoinQuery::new("Q12", TimeDelta::from_secs(12)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let fresh: BTreeSet<Fingerprint> = reference_epoch_deliveries(&both, &input, cut, input.len())
        .into_iter()
        .find(|(name, _)| name == "Q12")
        .unwrap()
        .1
        .into_iter()
        .collect();
    assert!(
        live_q12.is_subset(&fresh),
        "live results must be a subset of the fresh chain's"
    );
    let old_coverage = TimeDelta::from_secs(4);
    let missing: Vec<&Fingerprint> = fresh.difference(&live_q12).collect();
    assert!(
        !missing.is_empty(),
        "the ramp-up gap should be visible here"
    );
    assert!(
        missing.iter().all(|(_, span, _)| *span >= old_coverage),
        "only pairs wider than the old coverage may be missing: {missing:?}"
    );
}

/// One A tuple at 0 s and one B tuple at 12 s, both with key 1.
fn a_and_a_newer_b() -> [Tuple; 2] {
    let key = |secs, stream| Tuple::of_ints(Timestamp::from_secs(secs), stream, &[1]);
    [key(0, StreamId::A), key(12, StreamId::B)]
}

/// Add C10 to a session launched with QA 15 s and C5 5 s that holds
/// [`a_and_a_newer_b`]: B at 12 s purged A at 0 s out of [0 s, 5 s) into
/// [5 s, 15 s), and the re-cut must move A by its 12 s age into
/// [10 s, 15 s), as a chain freshly planned with C10 would hold it.  The
/// checkpoint the migration ends in is stamped 12 s.
fn assert_c10_recut_ages_against_the_b(mut live: Session, label: &str) {
    let newest = Timestamp::from_secs(12);
    live.add_query(pool_query(10, false)).unwrap();
    let stored: Vec<_> = live
        .executor()
        .window_states()
        .into_iter()
        .flatten()
        .flat_map(|state| state.side_a.into_iter().map(move |t| (state.window, t)))
        .collect();
    assert_eq!(stored.len(), 1, "{label}");
    for (window, t) in stored {
        let age = newest.saturating_sub(t.ts);
        assert!(
            window.start <= age && age < window.end,
            "{label}: A at {:?} aged {age} sits in {window}",
            t.ts
        );
    }
    let cut = live
        .events()
        .iter()
        .rev()
        .find_map(SessionEvent::checkpoint)
        .unwrap();
    assert_eq!(cut.watermark, newest, "{label}");
}

#[test]
fn a_recut_after_batch_ingest_ages_against_the_batch_rows() {
    // A column batch's rows are males like any tuple's.
    for shards in [1, 2] {
        let mut live = Session::launch(workload_of(&[5], false), live_options(shards)).unwrap();
        live.ingest(ColumnBatch::from_tuples(&a_and_a_newer_b()).unwrap())
            .unwrap();
        live.drain().unwrap();
        assert_c10_recut_ages_against_the_b(live, &format!("{shards} shard(s)"));
    }
}

#[test]
fn a_recut_after_a_rescale_ages_against_the_old_shards_males() {
    // The new shards have seen no tuple yet: their clocks start at the old
    // shards' latest males.
    for (from, to) in [(1, 2), (2, 3), (3, 1)] {
        let mut live = Session::launch(workload_of(&[5], false), live_options(from)).unwrap();
        live.ingest_all(a_and_a_newer_b()).unwrap();
        live.rescale_shards(to).unwrap();
        assert_c10_recut_ages_against_the_b(live, &format!("{from} -> {to} shards"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: random input, random churn schedule, 1 or 4
    /// shards — the live-migrated chain is indistinguishable from freshly
    /// planned per-epoch chains (results) and from a freshly planned final
    /// chain (states).
    #[test]
    fn live_reslicing_is_equivalent_to_fresh_planning(
        arrivals in prop::collection::vec((0u64..6, proptest::bool::ANY, 0i64..4), 60..240),
        initial_picks in prop::collection::btree_set(0usize..POOL.len(), 0..3),
        schedule in prop::collection::vec((20usize..90, proptest::bool::ANY, 0usize..8), 1..5),
        four_shards in proptest::bool::ANY,
    ) {
        let initial: Vec<u64> = initial_picks.iter().map(|&i| POOL[i]).collect();
        let shards = if four_shards { 4 } else { 1 };
        check_schedule(&arrivals, &initial, &schedule, shards);
    }
}
