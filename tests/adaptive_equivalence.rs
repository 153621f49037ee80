//! Differential suite for adaptive re-optimization (`core::adaptive`).
//!
//! Property: the drift supervisor is **invisible in the results**.  Whatever
//! re-plans it fires — strategy switches, chain re-cuts, vetoes — an adaptive
//! session drained at every observation point delivers exactly the per-sink
//! result multisets of a statically planned Mem-Opt chain fed the same input
//! (Theorem 1: all slicings of a workload are result-equivalent, and the
//! migration protocol preserves state across re-cuts).
//!
//! The deterministic case pins the interesting trajectory — a selectivity
//! collapse that provably fires a live merge — and the proptest sweeps random
//! arrival patterns, drift points and observation schedules where firing is
//! incidental: equivalence must hold whether or not the supervisor acts.

use proptest::prelude::*;
use state_slice_repro::core::adaptive::{AdaptationAction, AdaptationRecord, SupervisorConfig};
use state_slice_repro::core::live::{Session, SessionEvent, SessionOptions};
use state_slice_repro::core::planner::{PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::verify::collected_fingerprints;
use state_slice_repro::core::{ChainSpec, CostConfig, JoinQuery, QueryWorkload, SharedChainPlan};
use state_slice_repro::streamkit::fault::FaultPlan;
use state_slice_repro::streamkit::punctuation::Punctuation;
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{Executor, JoinCondition, TimeDelta, Timestamp, Tuple};

type Fingerprint = (Timestamp, TimeDelta, Timestamp);

fn workload() -> QueryWorkload {
    QueryWorkload::new(
        vec![
            JoinQuery::new("Q4", TimeDelta::from_secs(4)),
            JoinQuery::new("Q9", TimeDelta::from_secs(9)),
            JoinQuery::new("Q16", TimeDelta::from_secs(16)),
        ],
        JoinCondition::equi(0),
    )
    .unwrap()
}

/// An eager supervisor: single-observation confirmation, a short warm-up and
/// a near-free pause model, so random runs re-plan as often as possible.
fn supervisor() -> (CostConfig, SupervisorConfig) {
    let declared = CostConfig {
        lambda_a: 1.0,
        lambda_b: 1.0,
        sel_join: 0.25,
        csys: 1.0,
    };
    let config = SupervisorConfig {
        rate_ratio: 1.5,
        sel_ratio: 2.0,
        confirm: 1,
        warmup_secs: 4.0,
        horizon_secs: 500.0,
        pause_cost_per_tuple: 0.001,
        ..SupervisorConfig::default()
    };
    (declared, config)
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

/// An adaptive session that retains every result.
fn adaptive_options() -> SessionOptions {
    SessionOptions {
        planner: PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
        adaptive: Some(supervisor()),
        ..SessionOptions::default()
    }
}

/// The adaptation decisions on a timeline.
type Decisions = Vec<AdaptationRecord>;

fn decisions(events: &[SessionEvent]) -> Decisions {
    events
        .iter()
        .filter_map(SessionEvent::adaptation)
        .cloned()
        .collect()
}

/// Drive the adaptive session, draining at every cut; return each query's
/// sorted result fingerprints and the number of applied re-plans.
fn adaptive_results(input: &[Tuple], cuts: &[usize]) -> (Vec<(String, Vec<Fingerprint>)>, usize) {
    let mut live = Session::launch(workload(), adaptive_options()).unwrap();
    let mut done = 0usize;
    for &cut in cuts {
        let cut = cut.min(input.len());
        live.ingest_all(input[done..cut].to_vec()).unwrap();
        done = cut;
        live.drain().unwrap();
    }
    live.ingest_all(input[done..].to_vec()).unwrap();
    let outcome = live.finish().unwrap();
    let replans = decisions(&outcome.events)
        .iter()
        .filter(|r| matches!(r.action, AdaptationAction::Replan { .. }))
        .count();
    let mut results: Vec<(String, Vec<Fingerprint>)> = outcome
        .queries
        .iter()
        .map(|q| {
            let mut fps = collected_fingerprints(&q.collected);
            fps.sort_unstable();
            (q.name.clone(), fps)
        })
        .collect();
    results.sort();
    (results, replans)
}

/// The oracle: a statically planned Mem-Opt chain fed the whole input.
fn static_results(input: &[Tuple]) -> Vec<(String, Vec<Fingerprint>)> {
    let workload = workload();
    let spec = ChainSpec::memory_optimal(&workload);
    let shared = SharedChainPlan::build(
        &workload,
        &spec,
        &PlannerOptions {
            retain_results: true,
            ..PlannerOptions::default()
        },
    )
    .unwrap();
    let mut exec = Executor::new(shared.plan);
    exec.ingest_all(CHAIN_ENTRY, input.to_vec()).unwrap();
    exec.run().unwrap();
    let mut results: Vec<(String, Vec<Fingerprint>)> = workload
        .queries()
        .iter()
        .map(|q| {
            let sink = exec.plan().sink(&q.name).expect("sink exists");
            let mut fps = collected_fingerprints(sink.collected());
            fps.sort_unstable();
            (q.name.clone(), fps)
        })
        .collect();
    results.sort();
    results
}

fn assert_equivalent(input: &[Tuple], cuts: &[usize]) -> usize {
    let (live, replans) = adaptive_results(input, cuts);
    let fresh = static_results(input);
    assert_eq!(
        live, fresh,
        "adaptive results diverged from the static oracle ({replans} replans)"
    );
    replans
}

/// One tuple per stream per second; the streams stop joining at t=40, so
/// the measured S⋈ collapses and the supervisor merges the chain live.
fn collapse_input() -> Vec<Tuple> {
    let mut arrivals = Vec::new();
    for t in 0..40u64 {
        arrivals.push((if t == 0 { 0 } else { 5 }, true, (t % 4) as i64));
        arrivals.push((5, false, (t % 4) as i64));
    }
    for t in 40..120u64 {
        arrivals.push((5, true, 100 + (t % 4) as i64));
        arrivals.push((5, false, 200 + (t % 4) as i64));
    }
    build_input(&arrivals)
}

#[test]
fn a_fired_replan_leaves_the_results_untouched() {
    let input = collapse_input();
    // Observe every 20 s of arrivals (40 tuples).
    let cuts: Vec<usize> = (1..6).map(|i| i * 40).collect();
    let replans = assert_equivalent(&input, &cuts);
    assert!(replans >= 1, "the collapse must fire a live re-plan");
}

/// The adaptive session over punctuated input (a punctuation closes every
/// whole second), with `fault` armed at launch.  Returns each query's
/// sorted results, the supervisor's decisions and the recoveries.
fn punctuated_run(
    input: &[Tuple],
    cuts: &[usize],
    fault: Option<FaultPlan>,
) -> (Vec<(String, Vec<Fingerprint>)>, Decisions, usize) {
    let mut live = Session::launch(workload(), adaptive_options()).unwrap();
    if let Some(fault) = fault {
        live.executor_mut().arm_fault(0, fault).unwrap();
    }
    let mut next_sec = 1u64;
    let mut done = 0usize;
    for &cut in cuts.iter().chain([&input.len()]) {
        for t in &input[done..cut] {
            while t.ts >= Timestamp::from_secs(next_sec) {
                live.ingest(Punctuation::new(Timestamp::from_secs(next_sec)))
                    .unwrap();
                next_sec += 1;
            }
            live.ingest(t.clone()).unwrap();
        }
        done = cut;
        live.drain().unwrap();
    }
    let outcome = live.finish().unwrap();
    let mut results: Vec<(String, Vec<Fingerprint>)> = outcome
        .queries
        .iter()
        .map(|q| {
            let mut fps = collected_fingerprints(&q.collected);
            fps.sort_unstable();
            (q.name.clone(), fps)
        })
        .collect();
    results.sort();
    let recoveries = outcome
        .events
        .iter()
        .filter_map(SessionEvent::recovery)
        .count();
    (results, decisions(&outcome.events), recoveries)
}

#[test]
fn a_crash_beside_a_fired_replan_changes_neither_decisions_nor_results() {
    // The collapse again, with a punctuation per second so a worker panic
    // has epochs to fire at: one crash before the re-plan fires, one after.
    // Recovery restores the stream counters the supervisor measures, so it
    // re-plans at the same drain, the same way.
    let input = collapse_input();
    let cuts: Vec<usize> = (1..6).map(|i| i * 40).collect();
    let (clean_results, clean_decisions, clean_recoveries) = punctuated_run(&input, &cuts, None);
    assert_eq!(clean_recoveries, 0);
    assert!(
        clean_decisions
            .iter()
            .any(|r| matches!(r.action, AdaptationAction::Replan { .. })),
        "the collapse must fire a live re-plan: {clean_decisions:?}"
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed: Vec<_> = [30, 100]
        .into_iter()
        .map(|epoch| {
            (
                epoch,
                punctuated_run(&input, &cuts, Some(FaultPlan::panic_at(epoch))),
            )
        })
        .collect();
    std::panic::set_hook(hook);
    for (epoch, (results, decisions, recoveries)) in crashed {
        assert_eq!(recoveries, 1, "crash at epoch {epoch} must fire once");
        assert_eq!(
            decisions, clean_decisions,
            "crash at epoch {epoch}: decisions"
        );
        assert_eq!(results, clean_results, "crash at epoch {epoch}: results");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random arrivals with a mid-run key-domain shift (the drift), random
    /// observation cuts: the supervisor may re-plan, veto or keep quiet, and
    /// the per-sink multisets must match the static oracle either way.
    #[test]
    fn adaptive_execution_is_equivalent_to_static_planning(
        first in prop::collection::vec((0u64..6, proptest::bool::ANY, 0i64..3), 30..120),
        second in prop::collection::vec((0u64..6, proptest::bool::ANY, 0i64..40), 30..120),
        chunks in prop::collection::vec(15usize..60, 1..6),
    ) {
        let arrivals: Vec<(u64, bool, i64)> =
            first.into_iter().chain(second).collect();
        let input = build_input(&arrivals);
        let mut cuts = Vec::new();
        let mut pos = 0usize;
        for chunk in chunks {
            pos = (pos + chunk).min(input.len());
            cuts.push(pos);
        }
        assert_equivalent(&input, &cuts);
    }
}
