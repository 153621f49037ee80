//! Property test for adaptive result transport: every sliced join picks, run
//! by run, whether its results leave as row tuples or as one
//! [`ColumnBatch`](state_slice_repro::streamkit::columnar::ColumnBatch)
//! (carried through the order-preserving unions to the sinks without
//! materializing row tuples), from the number of results its previous run
//! produced.  No option selects the transport, so the two are reached here
//! the way production reaches them — by input and run length:
//!
//! * the **reference** executes the plan at `batch_per_visit: 1`.  Every run
//!   is one item, and the streams are built so that no probe matches 16
//!   tuples ([`KEYS`]), so no run is ever dense enough to turn the next one
//!   columnar: every result is a row tuple;
//! * the **subject** executes the same plan on the same stream at
//!   `batch_per_visit` 64 or 256, where a run's matches add up past the
//!   threshold and results travel as batches.
//!
//! Both facts are asserted through [`SliceJoinOp::batch_results`]
//! before anything is compared.  Then, for random workloads, streams,
//! slicings and shard counts, the two must produce:
//!
//! * identical per-sink result multisets and zero out-of-order deliveries —
//!   batches are flushed before every interleaved punctuation, so per-port
//!   FIFO order survives the transposition,
//! * identical output-scaling comparison counters (`probe`, `route`,
//!   `filter`, `split`, `union`), `purge_comparisons` and
//!   `tuples_processed` — batching results changes their transport, never
//!   the work that produces or consumes them,
//! * identical final join states in every slice.
//!
//! A second property pins the same equivalence under mid-run
//! [`Session`] churn: queries entering and leaving re-slice the chain
//! online (eager or lazy migration, 1 or 4 shards), and every query
//! instance's lifetime deliveries and the final drained states must agree —
//! including across operator rebuilds, each of which resets the rebuilt
//! operator's result history (it restarts on rows).

use proptest::prelude::*;
use state_slice_repro::core::live::{MigrationMode, Session, SessionOptions};
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{
    ChainPlanFactory, ChainSpec, JoinQuery, QueryWorkload, SessionOutcome,
};
use state_slice_repro::streamkit::ops::SliceJoinOp;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::window::SliceWindow;
use state_slice_repro::streamkit::{
    CostCounters, Executor, ExecutorConfig, JoinCondition, Predicate, ShardedExecutor, TimeDelta,
    Timestamp, Tuple,
};

/// Keys are dealt round-robin per stream, arrivals are at least 0.1 s apart
/// and no window exceeds 15 s, so a probe sees at most 150 opposite tuples
/// and at most ⌈150 / 11⌉ = 14 of them share its key: a one-item run can
/// never reach the operator's 16-result threshold.
const KEYS: u64 = 11;

/// The `i`-th tuple of `stream`, `tenths` × 0.1 s into the stream.
fn tuple(stream: StreamId, tenths: u64, i: usize, value: i64) -> Tuple {
    let key = (i as u64 % KEYS) as i64;
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, value])
}

/// One stream from per-arrival `(gap in tenths ≥ 1, value)` pairs.
fn stream(stream_id: StreamId, arrivals: &[(u64, i64)]) -> Vec<Tuple> {
    let mut tenths = 0;
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &(gap, value))| {
            tenths += gap;
            tuple(stream_id, tenths, i, value)
        })
        .collect()
}

fn executor_config(batch_per_visit: usize) -> ExecutorConfig {
    ExecutorConfig {
        batch_per_visit,
        ..ExecutorConfig::default()
    }
}

/// One shard's sliced joins, in chain order.
fn slices(shard: &Executor) -> impl Iterator<Item = &SliceJoinOp> {
    shard.plan().slice_joins()
}

/// Results the executor's current sliced joins emitted as batch rows.
fn batch_results(exec: &ShardedExecutor) -> u64 {
    exec.shards()
        .iter()
        .flat_map(slices)
        .map(|op| op.batch_results())
        .sum()
}

/// Per-shard, per-slice `(window, A side, B side)` state fingerprints.
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
            slices(shard)
                .map(|op| {
                    let (a, b) = op.state_tuples();
                    (op.window(), fp(a), fp(b))
                })
                .collect()
        })
        .collect()
}

/// One execution: per-query sorted result fingerprints, merged cost
/// counters, the final per-shard per-slice states, and how many results
/// travelled as batch rows.
struct Outcome {
    results: Vec<(String, Vec<(Timestamp, TimeDelta)>)>,
    totals: CostCounters,
    states: StateSnapshot,
    batch_results: u64,
}

fn run_mode(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    input: &[Tuple],
    shards: usize,
    batch_per_visit: usize,
) -> Outcome {
    let options = PlannerOptions {
        retain_results: true,
        ..PlannerOptions::default()
    }
    .with_shards(shards);
    let factory = ChainPlanFactory::new(workload.clone(), spec.clone(), options);
    let mut exec = factory
        .sharded_with_config(executor_config(batch_per_visit))
        .expect("sharded executor builds");
    exec.ingest_all(CHAIN_ENTRY, input.to_vec())
        .expect("ingest");
    let report = exec.run().expect("run");
    let results = workload
        .queries()
        .iter()
        .map(|q| {
            for shard in exec.shards() {
                let sink = shard.plan().sink(&q.name).expect("sink exists");
                assert_eq!(sink.out_of_order(), 0, "query {} out of order", q.name);
            }
            let mut fp: Vec<(Timestamp, TimeDelta)> = exec
                .sink_collected(&q.name)
                .iter()
                .map(|t| (t.ts, t.origin_span))
                .collect();
            fp.sort_unstable();
            assert_eq!(fp.len() as u64, report.sink_count(&q.name));
            (q.name.clone(), fp)
        })
        .collect();
    Outcome {
        results,
        totals: report.totals,
        states: collect_states(&exec),
        batch_results: batch_results(&exec),
    }
}

fn assert_transport_invariant(row: &Outcome, columnar: &Outcome) {
    // Both sides of the rule were actually taken.
    assert_eq!(row.batch_results, 0, "the reference must stay on rows");
    assert!(
        columnar.batch_results > 0,
        "the subject never went columnar"
    );
    // Identical per-sink result multisets.
    assert_eq!(row.results, columnar.results);
    // Result transport changes neither the work that produces results nor
    // the work that consumes them: every comparison counter matches.
    let (r, c) = (&row.totals, &columnar.totals);
    assert_eq!(r.probe_comparisons, c.probe_comparisons);
    assert_eq!(r.purge_comparisons, c.purge_comparisons);
    assert_eq!(r.route_comparisons, c.route_comparisons);
    assert_eq!(r.filter_comparisons, c.filter_comparisons);
    assert_eq!(r.split_comparisons, c.split_comparisons);
    assert_eq!(r.union_comparisons, c.union_comparisons);
    assert_eq!(r.tuples_processed, c.tuples_processed);
    assert_eq!(r.items_dropped, 0);
    assert_eq!(c.items_dropped, 0);
    // Identical final join state per shard per slice.
    assert_eq!(row.states, columnar.states);
}

#[test]
fn columnar_matches_row_path_on_a_fixed_stream() {
    let workload = QueryWorkload::new(
        vec![
            JoinQuery::new("Q1", TimeDelta::from_secs(2)),
            JoinQuery::with_filter("Q2", TimeDelta::from_secs(7), Predicate::gt(1, 3i64)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap();
    let a: Vec<Tuple> = (0..600usize)
        .map(|i| tuple(StreamId::A, i as u64 * 2, i, (i % 8) as i64))
        .collect();
    let b: Vec<Tuple> = (0..600usize)
        .map(|i| tuple(StreamId::B, i as u64 * 2 + 1, i * 5, 0))
        .collect();
    let input = merge_streams(a, b);
    let spec = ChainSpec::memory_optimal(&workload);
    for shards in [1usize, 4] {
        let row = run_mode(&workload, &spec, &input, shards, 1);
        for batch_per_visit in [64usize, 256] {
            let columnar = run_mode(&workload, &spec, &input, shards, batch_per_visit);
            assert_transport_invariant(&row, &columnar);
        }
        assert!(row.results.iter().any(|(_, r)| !r.is_empty()));
        assert!(row.totals.probe_comparisons > 0);
        assert!(!row.states.is_empty(), "chain plans expose their slices");
    }
}

/// Windows churned queries draw from (all below the anchor's 15 s).
const POOL: [u64; 4] = [2, 5, 7, 11];

fn pool_query(window_secs: u64) -> JoinQuery {
    JoinQuery::new(format!("C{window_secs}"), TimeDelta::from_secs(window_secs))
}

fn churn_workload(pool_windows: &[u64]) -> QueryWorkload {
    let mut queries = vec![JoinQuery::new("QA", TimeDelta::from_secs(15))];
    queries.extend(pool_windows.iter().map(|&w| pool_query(w)));
    QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
}

#[derive(Debug, Clone)]
enum Action {
    Add(u64),
    Remove(u64),
}

/// Turn an abstract schedule (chunk lengths plus add/remove picks) into a
/// concrete, always-valid event list over the query pool.
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

/// Drive a session over the schedule at one run length; return the
/// churn outcome, the final drained state snapshot, and the batch rows the
/// sliced joins emitted (summed before every rebuild and at the end — a
/// migration replaces the operators and their counts with them).
fn run_live(
    input: &[Tuple],
    initial: &[u64],
    cuts: &[usize],
    actions: &[Action],
    shards: usize,
    mode: MigrationMode,
    batch_per_visit: usize,
) -> (SessionOutcome, StateSnapshot, u64) {
    let options = SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            shards,
        },
        executor: executor_config(batch_per_visit),
        mode,
        ..SessionOptions::default()
    };
    let mut live = Session::launch(churn_workload(initial), options).unwrap();
    let mut done = 0usize;
    let mut batch_rows = 0u64;
    for (&cut, action) in cuts.iter().zip(actions) {
        live.ingest_all(input[done..cut].to_vec()).unwrap();
        done = cut;
        live.drain().unwrap();
        batch_rows += batch_results(live.executor());
        match action {
            Action::Add(w) => live.add_query(pool_query(*w)).unwrap(),
            Action::Remove(w) => live.remove_query(&format!("C{w}")).map(|_| ()).unwrap(),
        }
    }
    live.ingest_all(input[done..].to_vec()).unwrap();
    live.drain().unwrap();
    batch_rows += batch_results(live.executor());
    let states = collect_states(live.executor());
    (live.finish().unwrap(), states, batch_rows)
}

/// Per query instance (name, added epoch), the sorted lifetime delivery
/// fingerprints.
type InstanceFingerprints = Vec<((String, u64), Vec<(Timestamp, TimeDelta, Timestamp)>)>;

fn instance_multisets(outcome: &SessionOutcome) -> InstanceFingerprints {
    let mut out: Vec<_> = outcome
        .queries
        .iter()
        .map(|q| {
            let mut fps = collected_fingerprints(&q.collected);
            fps.sort_unstable();
            ((q.name.clone(), q.added_epoch), fps)
        })
        .collect();
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    out
}

/// `arrivals` are `(gap in tenths ≥ 1, is A)` on one shared timeline.
fn check_churn_schedule(
    arrivals: &[(u64, bool)],
    initial: &[u64],
    schedule: &[(usize, bool, usize)],
    shards: usize,
    mode: MigrationMode,
) {
    let mut tenths = 0u64;
    let mut seen = [0usize; 2];
    let input: Vec<Tuple> = arrivals
        .iter()
        .map(|&(gap, is_a)| {
            tenths += gap;
            let stream = if is_a { StreamId::A } else { StreamId::B };
            let i = &mut seen[usize::from(is_a)];
            *i += 1;
            tuple(stream, tenths, *i, 0)
        })
        .collect();
    let (cuts, actions) = resolve_schedule(schedule, input.len(), initial);
    let (row_outcome, row_states, row_batch_rows) =
        run_live(&input, initial, &cuts, &actions, shards, mode, 1);
    let (col_outcome, col_states, col_batch_rows) =
        run_live(&input, initial, &cuts, &actions, shards, mode, 64);
    assert_eq!(row_batch_rows, 0, "the reference must stay on rows");
    assert!(col_batch_rows > 0, "the subject never went columnar");
    assert_eq!(row_outcome.migrations.len(), actions.len());
    assert_eq!(col_outcome.migrations.len(), actions.len());
    assert_eq!(
        instance_multisets(&row_outcome),
        instance_multisets(&col_outcome),
        "per-instance lifetime deliveries diverged between transports"
    );
    assert_eq!(row_states, col_states, "final drained states diverged");
}

#[test]
fn churned_chain_is_transport_invariant() {
    // A mid-run add_query + remove_query on 4 eager shards.
    let arrivals: Vec<(u64, bool)> = (0..1600).map(|i| (1 + i % 2, i % 3 == 0)).collect();
    let initial = [5u64];
    let schedule = [(560usize, true, 1usize), (520, false, 0)];
    check_churn_schedule(&arrivals, &initial, &schedule, 4, MigrationMode::Eager);
}

#[test]
fn lazy_churned_chain_is_transport_invariant() {
    let arrivals: Vec<(u64, bool)> = (0..1200).map(|i| (1 + (i * 7) % 2, i % 2 == 0)).collect();
    let initial = [2u64, 11];
    let schedule = [(320usize, true, 0usize), (360, false, 1), (240, true, 2)];
    check_churn_schedule(&arrivals, &initial, &schedule, 1, MigrationMode::Lazy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for random streams, random window sets, optional
    /// selections, both Mem-Opt and fully merged slicings, 1 or 4 shards
    /// and runs of 64 or 256, batch-carried results are indistinguishable
    /// from row-carried ones (per-sink multisets, all comparison counters,
    /// final states).
    #[test]
    fn columnar_transport_is_invisible(
        a_arrivals in prop::collection::vec((1u64..3, 0i64..8), 500..700),
        b_arrivals in prop::collection::vec((1u64..3, 0i64..8), 500..700),
        windows in prop::collection::btree_set(2u64..15, 1..4),
        with_filter in proptest::bool::ANY,
        merge_all in proptest::bool::ANY,
        four_shards in proptest::bool::ANY,
        long_runs in proptest::bool::ANY,
    ) {
        let a = stream(StreamId::A, &a_arrivals);
        let b = stream(StreamId::B, &b_arrivals);
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
        let shards = if four_shards { 4 } else { 1 };
        let batch_per_visit = if long_runs { 256 } else { 64 };
        let row = run_mode(&workload, &spec, &input, shards, 1);
        let columnar = run_mode(&workload, &spec, &input, shards, batch_per_visit);
        assert_transport_invariant(&row, &columnar);
    }

    /// Property: random input and random churn schedule — the live-migrated
    /// chain delivers the same per-instance lifetime results and final
    /// states whether results travel as column batches or row tuples, in
    /// both migration modes and shard counts; results and states are
    /// unchanged across rebuilds, each of which resets the rebuilt
    /// operator's result history.
    #[test]
    fn churn_preserves_columnar_equivalence(
        arrivals in prop::collection::vec((1u64..3, proptest::bool::ANY), 1400..2000),
        initial_picks in prop::collection::btree_set(0usize..POOL.len(), 0..3),
        schedule in prop::collection::vec((300usize..500, proptest::bool::ANY, 0usize..8), 1..4),
        four_shards in proptest::bool::ANY,
        lazy in proptest::bool::ANY,
    ) {
        let initial: Vec<u64> = initial_picks.iter().map(|&i| POOL[i]).collect();
        let shards = if four_shards { 4 } else { 1 };
        let mode = if lazy { MigrationMode::Lazy } else { MigrationMode::Eager };
        check_churn_schedule(&arrivals, &initial, &schedule, shards, mode);
    }
}
