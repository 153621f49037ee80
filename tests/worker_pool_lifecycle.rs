//! Stress/soak test for the persistent worker pool under live churn.
//!
//! The sharded executor creates its worker threads once (one per shard,
//! each fed by a bounded SPSC ring) and reuses them across every
//! `run`/`pause`/`resume`/`swap_plans` cycle the [`Session`] drives.
//! This suite pins the lifecycle invariants:
//!
//! * **no worker leaks** — the process thread count (via `/proc/self/task`)
//!   is identical after every epoch that ends on the launch shard count, and
//!   returns to baseline after a down/up rescale pair (retired pools join
//!   their workers on drop);
//! * **drained quiescence** — after every `drain` the executor reports
//!   `is_drained` and a second drain changes nothing;
//! * **monotone backpressure counters** — the cumulative
//!   `router_stalls` counter never decreases across epochs, including
//!   across rescales (retired executors' reports are folded in);
//! * **skew guard** — shard rescaling refuses to run while replicated
//!   hot keys are active, and the refusal leaves the session working;
//! * **kill-and-recover soak** — repeated injected worker crashes recover
//!   on the *same* pool (the named-worker census never moves), with the
//!   backpressure and shed counters staying monotone throughout.
//!
//! `SS_TEST_SHARDS` (default 4, minimum 2) sets the pool width.

use std::sync::Mutex;

use state_slice_repro::core::live::{Session, SessionOptions};
use state_slice_repro::core::planner::PlannerOptions;
use state_slice_repro::core::recovery::{OverflowPolicy, RecoveryConfig};
use state_slice_repro::core::{JoinQuery, QueryWorkload};
use state_slice_repro::streamkit::fault::FaultPlan;
use state_slice_repro::streamkit::punctuation::Punctuation;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{JoinCondition, SkewConfig, TimeDelta, Timestamp, Tuple};

/// Serialises the tests in this binary: thread-count assertions must not
/// race another test's pool creation.
static THREAD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Pool width for the soak (`SS_TEST_SHARDS`, default 4).
fn test_shards() -> usize {
    std::env::var("SS_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// Live `ss-shard-*` worker threads of this process, if the platform
/// exposes thread names.  Counting only the pool's named workers keeps the
/// check independent of test-harness threads starting or finishing.
fn worker_thread_count() -> Option<usize> {
    let dir = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for entry in dir.flatten() {
        if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
            if comm.trim().starts_with("ss-shard") {
                count += 1;
            }
        }
    }
    Some(count)
}

/// Assert the worker set settles at `expected` threads.  A freshly spawned
/// worker names itself from inside the new thread, so the name can lag its
/// creation by a scheduling quantum — poll briefly instead of snapshotting.
fn assert_workers_settle(expected: usize, context: &str) {
    if worker_thread_count().is_none() {
        return; // platform exposes no thread names; skip the leak check
    }
    for _ in 0..200 {
        if worker_thread_count() == Some(expected) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!(
        "{context}: worker threads {:?} never settled at {expected}",
        worker_thread_count()
    );
}

fn tuple(stream: StreamId, tenths: u64, key: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key, 0])
}

fn query(name: &str, window_secs: u64) -> JoinQuery {
    JoinQuery::new(name, TimeDelta::from_secs(window_secs))
}

fn workload(queries: Vec<JoinQuery>) -> QueryWorkload {
    QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
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

/// A chunk of interleaved A/B tuples starting at `*tenths`, keys spread over
/// a small domain so every shard receives work.
fn chunk(tenths: &mut u64, len: u64) -> Vec<Tuple> {
    let mut items = Vec::new();
    for i in 0..len {
        items.push(tuple(StreamId::A, *tenths, (i % 8) as i64));
        items.push(tuple(StreamId::B, *tenths + 1, ((i * 3) % 8) as i64));
        *tenths += 2;
    }
    items
}

#[test]
fn worker_pool_survives_churn_epochs_without_leaking_threads() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap();
    let shards = test_shards();
    let rescale_to = if shards == 2 { 3 } else { 2 };
    let mut live = Session::launch(
        workload(vec![query("QA", 15), query("C5", 5)]),
        live_options(shards),
    )
    .unwrap();
    // The pool exists from launch, one named worker per shard; any extra
    // worker after this point is a leak.
    assert_workers_settle(shards, "launch");
    let mut tenths = 0u64;
    let mut last_stalls = 0u64;

    // Repeated run cycles on one pool: the worker set must not move.
    for _ in 0..5 {
        live.ingest_all(chunk(&mut tenths, 200)).unwrap();
        let report = live.drain().unwrap();
        assert!(live.executor().is_drained(), "drain must reach quiescence");
        assert!(
            report.totals.router_stalls >= last_stalls,
            "router_stalls must be monotone"
        );
        last_stalls = report.totals.router_stalls;
        assert_workers_settle(shards, "run cycle");
    }
    // A second drain with nothing pending is a no-op at the same report.
    let before = live.drain().unwrap();
    let after = live.drain().unwrap();
    assert_eq!(before.totals, after.totals);
    assert_eq!(before.sink_counts, after.sink_counts);

    // Churn epochs: add/remove queries, rescale down and back up.
    for epoch in 0..6u64 {
        live.ingest_all(chunk(&mut tenths, 120)).unwrap();
        match epoch % 6 {
            0 => live.add_query(query("C3", 3)).unwrap(),
            1 => live.remove_query("C3").map(|_| ()).unwrap(),
            2 => live.rescale_shards(rescale_to).unwrap(),
            3 => live.rescale_shards(shards).unwrap(),
            4 => live.add_query(query("C7", 7)).unwrap(),
            _ => live.remove_query("C7").map(|_| ()).unwrap(),
        }
        let report = live.drain().unwrap();
        assert!(live.executor().is_drained());
        assert!(
            report.totals.router_stalls >= last_stalls,
            "router_stalls must stay monotone across epoch {epoch}"
        );
        last_stalls = report.totals.router_stalls;
        // Retired pools join their workers: the live worker set always
        // matches the current shard count exactly.
        assert_workers_settle(live.num_shards(), &format!("epoch {epoch}"));
    }
    assert_eq!(live.num_shards(), shards, "soak ends on the launch width");

    // The chain still computes: the anchor query keeps receiving results.
    live.ingest_all(chunk(&mut tenths, 100)).unwrap();
    let report = live.drain().unwrap();
    assert!(report.sink_count("QA") > 0, "anchor query starved");
    let outcome = live.finish().unwrap();
    assert!(outcome.query("QA").is_some());
    // Finishing the session drops its executor, which joins the pool.
    drop(outcome);
    assert_workers_settle(0, "after finish");
}

#[test]
fn rescale_refuses_while_hot_keys_are_replicated_and_session_survives() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap();
    let shards = test_shards();
    let mut live = Session::launch(
        workload(vec![query("QA", 15), query("C5", 5)]),
        live_options(shards),
    )
    .unwrap();
    live.executor_mut()
        .enable_skew(SkewConfig {
            hot_share: 0.3,
            min_observations: 8,
            sketch_capacity: 16,
            max_hot_keys: 2,
            demote_observations: 0,
        })
        .unwrap();

    // Key 0 dominates both streams: promoted almost immediately.
    let mut items = Vec::new();
    for i in 0..200u64 {
        let key = if i % 3 < 2 { 0 } else { (i % 7) as i64 };
        items.push(tuple(StreamId::A, i * 2, key));
        items.push(tuple(StreamId::B, i * 2 + 1, key));
    }
    live.ingest_all(items).unwrap();
    live.drain().unwrap();
    assert!(
        live.executor().has_hot_keys(),
        "the dominant key must be promoted"
    );

    // Rescaling to a different width must refuse...
    let target = if shards == 2 { 3 } else { 2 };
    let err = live.rescale_shards(target).unwrap_err();
    assert!(
        err.to_string().contains("hot keys"),
        "unexpected rescale error: {err}"
    );
    // ...while rescaling to the current width stays a no-op.
    live.rescale_shards(shards).unwrap();
    assert_eq!(live.num_shards(), shards);

    // The refusal left the session intact: query churn and further input
    // still work on the same pool.
    live.add_query(query("C3", 3)).unwrap();
    let mut more = Vec::new();
    for i in 200..260u64 {
        more.push(tuple(StreamId::A, i * 2, 0));
        more.push(tuple(StreamId::B, i * 2 + 1, 0));
    }
    live.ingest_all(more).unwrap();
    let report = live.drain().unwrap();
    assert!(report.sink_count("QA") > 0);
    assert!(live.executor().has_hot_keys(), "hot set survives churn");
}

#[test]
fn kill_and_recover_soak_reuses_the_pool_and_keeps_counters_monotone() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap();
    let shards = test_shards();
    // A tiny shedding ring keeps the overflow path exercised alongside the
    // crashes (recovery is best-effort under Shed, but the pool and counter
    // invariants must hold regardless).
    let mut sup = Session::launch(
        workload(vec![query("QA", 15), query("C5", 5)]),
        SessionOptions {
            recovery: RecoveryConfig {
                checkpoint_every_epochs: 3,
                replay_capacity: 64,
                overflow: OverflowPolicy::Shed,
            },
            ..live_options(shards)
        },
    )
    .unwrap();
    assert_workers_settle(shards, "launch");

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut secs = 0u64;
    let mut last_stalls = 0u64;
    let mut last_shed = 0u64;
    for round in 0..4usize {
        // Re-arm a fresh crash a few punctuation epochs ahead, rotating the
        // victim shard; each second feeds both streams plus a punctuation.
        sup.executor_mut()
            .arm_fault(round % shards, FaultPlan::panic_at(secs + 3))
            .unwrap();
        for _ in 0..8 {
            sup.ingest(tuple(StreamId::A, secs * 10, (secs % 8) as i64))
                .unwrap();
            sup.ingest(tuple(StreamId::B, secs * 10 + 1, ((secs * 3) % 8) as i64))
                .unwrap();
            sup.ingest(Punctuation::new(Timestamp::from_secs(secs)))
                .unwrap();
            secs += 1;
        }
        let report = sup.drain().unwrap();
        assert_eq!(
            sup.recovery().log().recoveries().len(),
            round + 1,
            "round {round}: each armed panic fires exactly one recovery"
        );
        // The leak check, re-run after every recovery: the crash unwound
        // inside the worker's catch harness, so the pool never respawns.
        assert_workers_settle(shards, &format!("after recovery {round}"));
        assert!(
            report.totals.router_stalls >= last_stalls,
            "round {round}: router_stalls must stay monotone across recoveries"
        );
        last_stalls = report.totals.router_stalls;
        assert!(
            sup.recovery().log().items_shed() >= last_shed,
            "round {round}: items_shed must be monotone"
        );
        last_shed = sup.recovery().log().items_shed();
    }
    std::panic::set_hook(hook);

    // The soaked session still computes and shuts down clean.
    let outcome = sup.finish().unwrap();
    assert!(outcome.report.sink_count("QA") > 0, "anchor query starved");
    assert_eq!(outcome.recovery.recoveries().len(), 4);
    assert_workers_settle(0, "after finish");
}
