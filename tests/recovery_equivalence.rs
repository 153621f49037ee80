//! Differential suite for crash recovery (`core::recovery`).
//!
//! Property: a shard crash is **invisible in the results**.  Whatever fault
//! fires — a worker panic at an arbitrary punctuation epoch, a poisoned run,
//! a ring stall — a session driven by the [`RecoverySupervisor`] delivers
//! exactly the per-sink result multisets of an uninterrupted run fed the
//! same input, and its final per-shard per-slice join states (compared
//! structurally via a drained-boundary [`Checkpoint`]) are identical too.
//!
//! The protocol this pins: checkpoints are aligned to drained punctuation
//! boundaries (a consistent cut — union buffers empty, join states hold
//! exactly their slice windows), sink counts and ingest counters restore
//! *absolutely*, and the replay ring holds exactly the post-checkpoint
//! input, so recovery re-delivers post-checkpoint results exactly once.
//!
//! The deterministic case pins the interesting trajectory — a guaranteed
//! mid-stream worker panic on a multi-shard session — and the proptests
//! sweep random inputs, checkpoint intervals, crash epochs and seed-derived
//! fault plans where firing is incidental: equivalence must hold whether or
//! not the fault ever triggers.

use std::sync::Mutex;

use proptest::prelude::*;
use state_slice_repro::core::planner::{PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::recovery::{RecoveryConfig, RecoverySupervisor};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{
    ChainPlanFactory, ChainSpec, JoinQuery, QueryWorkload, SharedChainPlan,
};
use state_slice_repro::streamkit::checkpoint::ShardCheckpoint;
use state_slice_repro::streamkit::fault::FaultPlan;
use state_slice_repro::streamkit::predicate::CmpOp;
use state_slice_repro::streamkit::punctuation::Punctuation;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    CostCounters, Executor, ExecutorConfig, JoinCondition, TimeDelta, Timestamp, Tuple,
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
        let queries = WINDOWS
            .iter()
            .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
            .collect();
        QueryWorkload::new(queries, self.condition()).unwrap()
    }
}

fn factory(mode: Mode, shards: usize) -> ChainPlanFactory {
    let wl = mode.workload();
    let spec = ChainSpec::memory_optimal(&wl);
    ChainPlanFactory::new(
        wl,
        spec,
        PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default().with_shards(shards)
        },
    )
}

fn supervisor(mode: Mode, shards: usize, every: u64) -> RecoverySupervisor {
    RecoverySupervisor::launch(
        factory(mode, shards),
        ExecutorConfig::default(),
        RecoveryConfig {
            checkpoint_every_epochs: every,
            ..RecoveryConfig::default()
        },
    )
    .unwrap()
}

/// One simulated second of input: an A and a B tuple plus the punctuation
/// that closes the second (one punctuation epoch each).
#[derive(Debug, Clone)]
struct Second {
    key_a: i64,
    key_b: i64,
}

/// Feed `seconds`, draining (`run`, which may checkpoint) after each cut
/// position.  Returns the per-query sorted fingerprints and the final
/// per-shard states captured at a forced drained-boundary checkpoint.
fn drive(
    sup: &mut RecoverySupervisor,
    mode: Mode,
    seconds: &[Second],
    cuts: &[usize],
) -> (Vec<(String, Vec<Fingerprint>)>, Vec<ShardCheckpoint>) {
    let mut cut_iter = cuts.iter().peekable();
    for (t, s) in seconds.iter().enumerate() {
        let ts = Timestamp::from_secs(t as u64);
        sup.ingest(mode.tuple(ts, StreamId::A, s.key_a)).unwrap();
        sup.ingest(mode.tuple(ts, StreamId::B, s.key_b)).unwrap();
        sup.ingest(Punctuation::new(ts)).unwrap();
        while cut_iter.peek() == Some(&&t) {
            cut_iter.next();
            sup.run().unwrap();
        }
    }
    sup.run().unwrap();
    sup.checkpoint_now().unwrap();
    let shards = sup.last_checkpoint().unwrap().shards.clone();
    let mut results: Vec<(String, Vec<Fingerprint>)> = WINDOWS
        .iter()
        .map(|&w| {
            let name = format!("Q{w}");
            let mut fps = collected_fingerprints(&sup.sink_collected(&name));
            fps.sort_unstable();
            (name, fps)
        })
        .collect();
    results.sort();
    results
        .iter()
        .for_each(|(_, fps)| debug_assert!(fps.windows(2).all(|w| w[0] <= w[1])));
    (results, shards)
}

/// The property: with `fault` armed on shard 0, results and final states
/// must match an uninterrupted run of the same input.  Returns the number
/// of recoveries the faulty run logged.
fn assert_equivalent(
    mode: Mode,
    shards: usize,
    every: u64,
    seconds: &[Second],
    cuts: &[usize],
    fault: FaultPlan,
) -> usize {
    let mut oracle = supervisor(mode, shards, every);
    let (expected_results, expected_states) = drive(&mut oracle, mode, seconds, cuts);

    let mut sup = supervisor(mode, shards, every);
    sup.arm_fault(0, fault).unwrap();
    let (results, states) = quiet(|| drive(&mut sup, mode, seconds, cuts));

    assert_eq!(
        results,
        expected_results,
        "recovered per-sink multisets diverged from the uninterrupted oracle \
         ({} recoveries: {:?})",
        sup.log().recoveries().len(),
        sup.log().recoveries()
    );
    assert_eq!(
        states, expected_states,
        "recovered per-shard per-slice states diverged from the oracle"
    );
    sup.log().recoveries().len()
}

#[test]
fn a_worker_panic_at_a_punctuation_boundary_is_invisible() {
    let seconds: Vec<Second> = (0..24)
        .map(|t| Second {
            key_a: (t % 5) as i64,
            key_b: ((t * 3) % 5) as i64,
        })
        .collect();
    let cuts = [5, 11, 17];
    for shards in [1, 3] {
        let recoveries = assert_equivalent(
            Mode::Equi,
            shards,
            4,
            &seconds,
            &cuts,
            FaultPlan::panic_at(9),
        );
        assert_eq!(recoveries, 1, "{shards} shard(s): the panic must fire once");
    }
}

#[test]
fn a_crash_with_band_indexed_states_is_invisible() {
    // Band conditions have no equi component, so the chain runs single-shard
    // (the planner refuses to hash-partition them); the recovered band index
    // is rebuilt from the checkpointed tuples and must behave identically.
    let seconds: Vec<Second> = (0..24)
        .map(|t| Second {
            key_a: (t % 9) as i64,
            key_b: ((t * 5) % 9) as i64,
        })
        .collect();
    let cuts = [5, 11, 17];
    let recoveries = assert_equivalent(Mode::Band, 1, 4, &seconds, &cuts, FaultPlan::panic_at(9));
    assert_eq!(recoveries, 1, "the panic must fire once");
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
        assert_equivalent(mode, shards, every, &seconds, &cuts, FaultPlan::panic_at(crash_epoch));
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
        let fault = FaultPlan::from_seed(seed, 16);
        assert_equivalent(Mode::Equi, shards, 4, &seconds, &[7, 15], fault);
    }
}
