//! Differential suite for crash recovery (`core::recovery`).
//!
//! Property: a shard crash is **invisible in the results**.  Whatever fault
//! fires — a worker panic at an arbitrary punctuation epoch, a poisoned run,
//! a ring stall — a [`Session`] delivers exactly the per-query-instance
//! result multisets of an uninterrupted session fed the same input and the
//! same actions, and its final per-shard per-slice join states (compared
//! structurally via a drained-boundary [`Checkpoint`]) are identical too.
//!
//! The protocol this pins: checkpoints are aligned to drained punctuation
//! boundaries (a consistent cut — union buffers empty, join states hold
//! exactly their slice windows), sink counts and ingest counters restore
//! *absolutely*, and the replay ring holds exactly the post-checkpoint
//! input, so recovery re-delivers post-checkpoint results exactly once.
//! Because one session owns churn, re-plans, rescales and recovery, the
//! same property holds across those axes: a crash after a re-plan, inside
//! the drain a re-plan starts with, or after a rescale recovers into the
//! chain that was running when it fired, and a crash after a skew-routing
//! hot-key promotion recovers the hot set with the states (results only:
//! spread tuples may sit on other shards).
//!
//! The deterministic cases pin the interesting trajectories — a guaranteed
//! mid-stream worker panic on a multi-shard session, and one crash per
//! cross-axis position — and the proptests sweep random inputs, checkpoint
//! intervals, crash epochs, churn/rescale schedules and seed-derived fault
//! plans where firing is incidental: equivalence must hold whether or not
//! the fault ever triggers.

use std::sync::Mutex;

use proptest::prelude::*;
use state_slice_repro::core::planner::{PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::recovery::{RecoveryConfig, RecoveryRecord};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{
    ChainSpec, JoinQuery, QueryWorkload, Session, SessionEvent, SessionOptions, SharedChainPlan,
};
use state_slice_repro::streamkit::checkpoint::{Checkpoint, ShardCheckpoint};
use state_slice_repro::streamkit::fault::FaultPlan;
use state_slice_repro::streamkit::predicate::CmpOp;
use state_slice_repro::streamkit::punctuation::Punctuation;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    CostCounters, Executor, JoinCondition, SkewConfig, TimeDelta, Timestamp, Tuple,
};

type Fingerprint = (Timestamp, TimeDelta, Timestamp);

/// Worker panics unwind through the default hook and spam stderr; silence
/// it for the duration of each test.  Process-global, so serialise.
static PANIC_HOOK_LOCK: Mutex<()> = Mutex::new(());

fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let _guard = PANIC_HOOK_LOCK.lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

const WINDOWS: [u64; 2] = [4, 16];

/// Which `JoinState` mode the workload's condition selects: `Equi` drives
/// the hash-indexed states, `Band` the band-indexed (value-ordered) ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Equi,
    Band,
}

/// The band half-width used by [`Mode::Band`] tuples and their condition.
const BAND_W: i64 = 2;

impl Mode {
    /// The join condition: plain key equality, or the two-sided band
    /// `|a.key − b.key| ≤ W` over materialised `[key, lo, hi]` endpoints
    /// (written from both sides so either stored stream classifies).
    fn condition(self) -> JoinCondition {
        match self {
            Mode::Equi => JoinCondition::equi(0),
            Mode::Band => {
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
        }
    }

    fn tuple(self, ts: Timestamp, stream: StreamId, key: i64) -> Tuple {
        match self {
            Mode::Equi => Tuple::of_ints(ts, stream, &[key]),
            Mode::Band => Tuple::of_ints(ts, stream, &[key, key - BAND_W, key + BAND_W]),
        }
    }

    fn workload(self) -> QueryWorkload {
        let queries = WINDOWS.iter().map(|&w| query(w)).collect();
        QueryWorkload::new(queries, self.condition()).unwrap()
    }
}

fn query(window_secs: u64) -> JoinQuery {
    JoinQuery::new(format!("Q{window_secs}"), TimeDelta::from_secs(window_secs))
}

fn launch(mode: Mode, shards: usize, every: u64) -> Session {
    let options = SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default().with_shards(shards)
        },
        recovery: RecoveryConfig {
            checkpoint_every_epochs: every,
            ..RecoveryConfig::default()
        },
        ..SessionOptions::default()
    };
    Session::launch(mode.workload(), options).unwrap()
}

/// One simulated second of input: an A and a B tuple plus the punctuation
/// that closes the second (one punctuation epoch each).
#[derive(Debug, Clone)]
struct Second {
    key_a: i64,
    key_b: i64,
}

/// One session action, applied before the input of a given second.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Drain to a punctuation boundary (which may checkpoint).
    Drain,
    /// Register the query `Q{w}`.
    Add(u64),
    /// Deregister the query `Q{w}`.
    Remove(u64),
    /// Rescale to this many shards.
    Rescale(usize),
    /// Drain, then arm this fault on shard 0 (faulty session only).
    Arm(FaultPlan),
}

/// Per query instance `(name, added epoch)`, the sorted result fingerprints.
type Instances = Vec<((String, u64), Vec<Fingerprint>)>;

/// Drain positions as steps: a drain after second `c` runs before `c + 1`.
fn drains(cuts: &[usize]) -> impl Iterator<Item = (usize, Step)> + '_ {
    cuts.iter().map(|&c| (c + 1, Step::Drain))
}

/// Feed `seconds`, applying each `(at, step)` before second `at` (steps at
/// `seconds.len()` run after the last second; later ones never run).
/// Returns the per-instance results, the final per-shard states captured at
/// a drained boundary, and the session's recoveries.
fn drive(
    mut session: Session,
    mode: Mode,
    seconds: &[Second],
    steps: &[(usize, Step)],
    faulty: bool,
) -> (Instances, Vec<ShardCheckpoint>, Vec<RecoveryRecord>) {
    for t in 0..=seconds.len() {
        for &(_, step) in steps.iter().filter(|(at, _)| *at == t) {
            match step {
                Step::Drain => {
                    session.drain().unwrap();
                }
                Step::Add(w) => session.add_query(query(w)).unwrap(),
                Step::Remove(w) => {
                    session.remove_query(&format!("Q{w}")).unwrap();
                }
                Step::Rescale(shards) => session.rescale_shards(shards).unwrap(),
                Step::Arm(fault) => {
                    session.drain().unwrap();
                    if faulty {
                        session.executor_mut().arm_fault(0, fault).unwrap();
                    }
                }
            }
        }
        if let Some(s) = seconds.get(t) {
            let ts = Timestamp::from_secs(t as u64);
            session
                .ingest(mode.tuple(ts, StreamId::A, s.key_a))
                .unwrap();
            session
                .ingest(mode.tuple(ts, StreamId::B, s.key_b))
                .unwrap();
            session.ingest(Punctuation::new(ts)).unwrap();
        }
    }
    session.drain().unwrap();
    for shard in session.executor().shards() {
        for op in shard.plan().slice_joins() {
            assert!(op.index_matches_rebuild(), "index diverged from a rebuild");
        }
    }
    let states = Checkpoint::capture(session.executor(), 0, Timestamp::ZERO)
        .unwrap()
        .shards;
    let outcome = session.finish().unwrap();
    let mut results: Instances = outcome
        .queries
        .iter()
        .map(|q| {
            let mut fps = collected_fingerprints(&q.collected);
            fps.sort_unstable();
            ((q.name.clone(), q.added_epoch), fps)
        })
        .collect();
    results.sort();
    let recoveries = outcome
        .events
        .iter()
        .filter_map(SessionEvent::recovery)
        .cloned()
        .collect();
    (results, states, recoveries)
}

/// The property: with the schedule's faults armed, results and final states
/// must match an uninterrupted session fed the same input and actions.
/// Returns the faulty session's recoveries.
fn assert_equivalent(
    mode: Mode,
    shards: usize,
    every: u64,
    seconds: &[Second],
    steps: &[(usize, Step)],
) -> Vec<RecoveryRecord> {
    let oracle = launch(mode, shards, every);
    let (expected_results, expected_states, clean) = drive(oracle, mode, seconds, steps, false);
    assert!(clean.is_empty(), "the uninterrupted session recovered");

    let faulty = launch(mode, shards, every);
    let (results, states, recoveries) = quiet(|| drive(faulty, mode, seconds, steps, true));

    assert_eq!(
        results,
        expected_results,
        "recovered per-sink multisets diverged from the uninterrupted oracle \
         ({} recoveries: {recoveries:?})",
        recoveries.len(),
    );
    assert_eq!(
        states, expected_states,
        "recovered per-shard per-slice states diverged from the oracle"
    );
    recoveries
}

/// A launch-time fault plus drains after the `cuts` seconds.
fn faulted(fault: FaultPlan, cuts: &[usize]) -> Vec<(usize, Step)> {
    std::iter::once((0, Step::Arm(fault)))
        .chain(drains(cuts))
        .collect()
}

fn seconds_of(n: u64, a: u64, b: u64, domain: u64) -> Vec<Second> {
    (0..n)
        .map(|t| Second {
            key_a: ((t * a) % domain) as i64,
            key_b: ((t * b) % domain) as i64,
        })
        .collect()
}

#[test]
fn a_worker_panic_at_a_punctuation_boundary_is_invisible() {
    let seconds = seconds_of(24, 1, 3, 5);
    let steps = faulted(FaultPlan::panic_at(9), &[5, 11, 17]);
    for shards in [1, 3] {
        let recoveries = assert_equivalent(Mode::Equi, shards, 4, &seconds, &steps).len();
        assert_eq!(recoveries, 1, "{shards} shard(s): the panic must fire once");
    }
}

#[test]
fn a_crash_with_band_indexed_states_is_invisible() {
    // Band conditions have no equi component, so the chain runs single-shard
    // (the planner refuses to hash-partition them); the recovered band index
    // is rebuilt from the checkpointed tuples and must behave identically.
    let seconds = seconds_of(24, 1, 5, 9);
    let steps = faulted(FaultPlan::panic_at(9), &[5, 11, 17]);
    let recoveries = assert_equivalent(Mode::Band, 1, 4, &seconds, &steps).len();
    assert_eq!(recoveries, 1, "the panic must fire once");
}

#[test]
fn a_crash_after_a_replan_recovers_into_the_replanned_chain() {
    // Q9 enters before second 7 and Q4 leaves before second 13; the crash
    // fires after one or both re-plans, so recovery must rebuild that
    // epoch's chain, not the launch chain.
    let seconds = seconds_of(24, 1, 3, 5);
    for (mode, shards) in [(Mode::Equi, 1), (Mode::Equi, 3), (Mode::Band, 1)] {
        for crash in [10, 17] {
            let steps = [
                (0, Step::Arm(FaultPlan::panic_at(crash))),
                (7, Step::Add(9)),
                (13, Step::Remove(4)),
                (20, Step::Drain),
            ];
            let recoveries = assert_equivalent(mode, shards, 4, &seconds, &steps);
            assert_eq!(recoveries.len(), 1, "{mode:?}/{shards}: crash {crash}");
            let seq = recoveries[0].checkpoint_seq;
            assert!(
                seq >= 1,
                "{mode:?}/{shards}: crash {crash} restored the launch checkpoint"
            );
        }
    }
}

#[test]
fn a_crash_inside_the_drain_a_reslice_starts_recovers_before_the_migration() {
    // No drain between the fault and the add: on one shard a poisoned run
    // panics in the next run, on three the worker's failure surfaces at the
    // next park — both are the drain `add_query` starts with.
    let seconds = seconds_of(24, 1, 3, 5);
    for (shards, fault) in [(1, FaultPlan::poison_at(9)), (3, FaultPlan::panic_at(9))] {
        let steps = [(0, Step::Arm(fault)), (12, Step::Add(9))];
        let recoveries = assert_equivalent(Mode::Equi, shards, 4, &seconds, &steps);
        assert_eq!(recoveries.len(), 1, "{shards} shard(s)");
        // The launch checkpoint was restored and the whole pre-add input
        // (12 seconds, three items each) replayed: the recovery ran before
        // the migration's own checkpoint cleared the ring.
        let rec = &recoveries[0];
        assert_eq!(
            (rec.checkpoint_seq, rec.replayed),
            (0, 36),
            "{shards} shard(s)"
        );
    }
}

#[test]
fn a_crash_after_a_rescale_recovers_at_the_new_shard_count() {
    // The rescale replaces the executor, so the fault is armed on the new
    // one; its punctuation epochs count from the rescale.
    let seconds = seconds_of(24, 1, 3, 5);
    for (from, to) in [(1, 3), (3, 2)] {
        let steps = [
            (8, Step::Rescale(to)),
            (8, Step::Arm(FaultPlan::panic_at(5))),
            (18, Step::Drain),
        ];
        let recoveries = assert_equivalent(Mode::Equi, from, 4, &seconds, &steps);
        assert_eq!(recoveries.len(), 1, "rescale {from}->{to}");
    }
}

/// Skew routing promotes a key after the last checkpoint, then a worker
/// crashes.  The restored cut predates the promotion, so it must also
/// restore the hot set it was taken with (empty): the replay then promotes
/// the key again from the restored states, instead of spreading its build
/// side to shards that never received its earlier probe-side tuples.  The
/// replay promotes at another moment than the uninterrupted run, so spread
/// build-side tuples may sit on other shards; only the per-query result
/// multisets are compared, against the 1-shard oracle.
#[test]
fn a_crash_after_a_hot_key_promotion_recovers_exactly() {
    let run = |shards: usize, crash_on: Option<usize>| {
        let options = SessionOptions {
            planner: PlannerOptions {
                retain_results: true,
                shards,
            },
            recovery: RecoveryConfig {
                checkpoint_every_epochs: 10,
                ..RecoveryConfig::default()
            },
            ..SessionOptions::default()
        };
        let queries = vec![
            JoinQuery::new("C5", TimeDelta::from_secs(5)),
            JoinQuery::new("QA", TimeDelta::from_secs(15)),
        ];
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let mut session = Session::launch(workload, options).unwrap();
        if shards > 1 {
            let skew = SkewConfig {
                hot_share: 0.3,
                min_observations: 8,
                sketch_capacity: 16,
                max_hot_keys: 2,
                demote_observations: 0,
            };
            session.executor_mut().enable_skew(skew).unwrap();
        }
        if let Some(shard) = crash_on {
            let fault = FaultPlan::panic_at(16);
            session.executor_mut().arm_fault(shard, fault).unwrap();
        }
        // Ten tuples per stream per second; key 0 is one in ten of them
        // before 10 s and eight in ten after, so it turns hot at about 14 s,
        // between the checkpoints at epochs 10 and 20.
        for t in 0..25u64 {
            for j in 0..10u64 {
                let hot = if t < 10 { j == 0 } else { j < 8 };
                let key = if hot {
                    0
                } else {
                    1 + ((t * 10 + j) % 9) as i64
                };
                let ts = Timestamp::from_millis(t * 1000 + j * 100);
                for stream in [StreamId::A, StreamId::B] {
                    session.ingest(Tuple::of_ints(ts, stream, &[key])).unwrap();
                }
            }
            let end = Timestamp::from_millis(t * 1000 + 999);
            session.ingest(Punctuation::new(end)).unwrap();
            session.drain().unwrap();
        }
        let promotions = session.executor().router_stats().promotions;
        let outcome = session.finish().unwrap();
        let results: Vec<(String, Vec<Fingerprint>)> = outcome
            .queries
            .iter()
            .map(|q| {
                let mut fps = collected_fingerprints(&q.collected);
                fps.sort_unstable();
                (q.name.clone(), fps)
            })
            .collect();
        let recoveries: Vec<RecoveryRecord> = outcome
            .events
            .iter()
            .filter_map(SessionEvent::recovery)
            .cloned()
            .collect();
        (results, recoveries, promotions)
    };
    let (oracle, _, _) = run(1, None);
    let (clean, _, promotions) = run(2, None);
    assert!(promotions > 0, "key 0 must turn hot");
    assert_eq!(clean, oracle, "skew routing changed the results");
    for shard in 0..2 {
        let (crashed, recoveries, _) = quiet(|| run(2, Some(shard)));
        assert_eq!(recoveries.len(), 1, "crash on shard {shard}");
        assert_eq!(
            recoveries[0].checkpoint_epoch, 10,
            "crash on shard {shard}: the restored cut predates the promotion"
        );
        assert_eq!(crashed, oracle, "crash on shard {shard}");
    }
}

/// Checkpoint round-trip for *indexed* join states: capture a drained
/// executor mid-stream, restore into a fresh plan instance, then feed both
/// the same continuation.  The restored index (hash-bucketed or
/// band-ordered) must not just produce the same results — it must do the
/// same *work*: every cost counter's continuation delta matches exactly,
/// and a final capture of both executors is identical.
#[test]
fn an_indexed_state_checkpoint_round_trip_preserves_probe_behaviour() {
    for mode in [Mode::Equi, Mode::Band] {
        let wl = mode.workload();
        let spec = ChainSpec::memory_optimal(&wl);
        let options = PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        };
        let mut original =
            Executor::new(SharedChainPlan::build(&wl, &spec, &options).unwrap().plan);
        let mut restored =
            Executor::new(SharedChainPlan::build(&wl, &spec, &options).unwrap().plan);

        let feed = |exec: &mut Executor, range: std::ops::Range<u64>| {
            for t in range {
                let ts = Timestamp::from_secs(t);
                exec.ingest(CHAIN_ENTRY, mode.tuple(ts, StreamId::A, (t % 9) as i64))
                    .unwrap();
                exec.ingest(
                    CHAIN_ENTRY,
                    mode.tuple(ts, StreamId::B, ((t * 5) % 9) as i64),
                )
                .unwrap();
                exec.ingest(CHAIN_ENTRY, Punctuation::new(ts)).unwrap();
            }
            exec.run().unwrap().totals
        };
        let delta = |after: &CostCounters, before: &CostCounters| {
            (
                after.probe_comparisons - before.probe_comparisons,
                after.purge_comparisons - before.purge_comparisons,
                after.route_comparisons - before.route_comparisons,
                after.union_comparisons - before.union_comparisons,
                after.filter_comparisons - before.filter_comparisons,
                after.split_comparisons - before.split_comparisons,
            )
        };

        let before = feed(&mut original, 0..14);
        let ckpt = ShardCheckpoint::capture(&original).unwrap();
        ckpt.restore(&mut restored).unwrap();

        let after = feed(&mut original, 14..30);
        let continued = feed(&mut restored, 14..30);
        assert!(
            after.probe_comparisons > before.probe_comparisons,
            "{mode:?}: the continuation must probe"
        );
        assert_eq!(
            delta(&continued, &CostCounters::default()),
            delta(&after, &before),
            "{mode:?}: restored index did different probe work than the original"
        );
        for &w in &WINDOWS {
            let name = format!("Q{w}");
            let sink = |exec: &Executor| {
                collected_fingerprints(exec.plan().sink(&name).unwrap().collected())
            };
            assert_eq!(sink(&original), sink(&restored), "{mode:?}: {name} results");
        }
        assert_eq!(
            ShardCheckpoint::capture(&original).unwrap(),
            ShardCheckpoint::capture(&restored).unwrap(),
            "{mode:?}: final states diverged after the round trip"
        );
    }
}

/// Resolve drawn `(at, kind, pick)` triples into a valid schedule: adds
/// draw from a window pool, removes keep at least one query, rescales pick
/// 1–3 shards, and a kind with nothing to act on degrades to a drain.
fn churn_schedule(drawn: &[(usize, usize, usize)]) -> Vec<(usize, Step)> {
    const POOL: [u64; 4] = [2, 7, 9, 11];
    let mut drawn = drawn.to_vec();
    drawn.sort_by_key(|&(at, _, _)| at);
    let mut active: Vec<u64> = WINDOWS.to_vec();
    drawn
        .into_iter()
        .map(|(at, kind, pick)| {
            let avail: Vec<u64> = POOL
                .iter()
                .copied()
                .filter(|w| !active.contains(w))
                .collect();
            let step = match kind {
                0 if !avail.is_empty() => {
                    let w = avail[pick % avail.len()];
                    active.push(w);
                    Step::Add(w)
                }
                1 if active.len() > 1 => Step::Remove(active.remove(pick % active.len())),
                2 => Step::Rescale(1 + pick % 3),
                _ => Step::Drain,
            };
            (at, step)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A guaranteed worker panic at an arbitrary punctuation epoch, random
    /// keys and drain schedule: the crash may land before the first
    /// checkpoint, right on one, or never (epoch past the end of input).
    #[test]
    fn a_crash_at_any_punctuation_epoch_recovers_exactly(
        keys in prop::collection::vec((0i64..5, 0i64..5), 12..40),
        shards in 1usize..4,
        every in 1u64..7,
        crash_epoch in 1u64..48,
        cuts in prop::collection::vec(0usize..40, 1..5),
        band in proptest::bool::ANY,
    ) {
        let seconds: Vec<Second> = keys
            .into_iter()
            .map(|(key_a, key_b)| Second { key_a, key_b })
            .collect();
        let mut cuts = cuts;
        cuts.sort_unstable();
        cuts.dedup();
        // Band chains are single-shard (no equi key to partition by).
        let (mode, shards) = if band { (Mode::Band, 1) } else { (Mode::Equi, shards) };
        let steps = faulted(FaultPlan::panic_at(crash_epoch), &cuts);
        assert_equivalent(mode, shards, every, &seconds, &steps);
    }

    /// Seed-derived fault plans (panic, stall or poisoned run at a
    /// seed-chosen epoch): whatever the seed draws, equivalence holds.
    #[test]
    fn seeded_fault_plans_never_change_the_results(
        keys in prop::collection::vec((0i64..5, 0i64..5), 12..32),
        shards in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let seconds: Vec<Second> = keys
            .into_iter()
            .map(|(key_a, key_b)| Second { key_a, key_b })
            .collect();
        let steps = faulted(FaultPlan::from_seed(seed, 16), &[7, 15]);
        assert_equivalent(Mode::Equi, shards, 4, &seconds, &steps);
    }

    /// Random churn and rescale schedules with a panic armed at a random
    /// point and epoch: the crash may land between re-plans, right after a
    /// rescale, inside a migration's drain, or never.
    #[test]
    fn a_crash_anywhere_in_a_churn_and_rescale_schedule_recovers_exactly(
        keys in prop::collection::vec((0i64..5, 0i64..5), 12..40),
        shards in 1usize..4,
        every in 1u64..7,
        drawn in prop::collection::vec((0usize..40, 0usize..4, 0usize..8), 1..5),
        arm_at in 0usize..40,
        crash_epoch in 1u64..24,
    ) {
        let seconds: Vec<Second> = keys
            .into_iter()
            .map(|(key_a, key_b)| Second { key_a, key_b })
            .collect();
        let mut steps = churn_schedule(&drawn);
        steps.push((arm_at, Step::Arm(FaultPlan::panic_at(crash_epoch))));
        assert_equivalent(Mode::Equi, shards, every, &seconds, &steps);
    }
}
