//! Cross-strategy integration test: the state-slice chain (Mem-Opt and
//! CPU-Opt), the selection pull-up baseline, the stream-partition push-down
//! baseline and the unshared per-query plans must all deliver exactly the
//! same per-query result counts for the same synthetic workload — and each
//! baseline exactly the brute-force oracle's result multiset per query.

use proptest::prelude::*;
use state_slice_repro::baselines::{
    BaselinePlan, PullUpPlanBuilder, PushDownPlanBuilder, UnsharedPlanBuilder, ENTRY_A, ENTRY_B,
};
use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{
    collected_fingerprints, expected_fingerprints, expected_results, ChainBuilder, CostConfig,
    JoinQuery, QueryWorkload, SharedChainPlan,
};
use state_slice_repro::streamkit::tuple::StreamId;
use state_slice_repro::streamkit::{
    Executor, JoinCondition, Predicate, TimeDelta, Timestamp, Tuple,
};
use state_slice_repro::workload::{Scenario, WindowDistribution, JOIN_KEY_FIELD};

fn build_workload(scenario: &Scenario) -> QueryWorkload {
    let filter = scenario.filter_predicate();
    QueryWorkload::new(
        scenario
            .windows()
            .into_iter()
            .enumerate()
            .map(|(i, w)| match (&filter, i) {
                (Some(pred), i) if i > 0 => {
                    JoinQuery::with_filter(format!("Q{}", i + 1), w, pred.clone())
                }
                _ => JoinQuery::new(format!("Q{}", i + 1), w),
            })
            .collect(),
        JoinCondition::equi(JOIN_KEY_FIELD),
    )
    .unwrap()
}

fn per_query_counts_for_all_strategies(scenario: &Scenario) -> Vec<Vec<u64>> {
    let workload = build_workload(scenario);
    let (a, b) = scenario.generator().generate_pair();
    let mut all_counts = Vec::new();

    // Chain strategies.
    let builder = ChainBuilder::new(workload.clone());
    let cost = CostConfig {
        lambda_a: scenario.rate,
        lambda_b: scenario.rate,
        sel_join: scenario.sel_join,
        csys: 10.0,
    };
    for spec in [
        builder.memory_optimal(),
        builder.cpu_optimal(&cost).unwrap().spec,
    ] {
        let shared = SharedChainPlan::build(&workload, &spec, &PlannerOptions::default()).unwrap();
        let mut exec = Executor::new(shared.plan);
        exec.ingest_all(CHAIN_ENTRY, merge_streams(a.clone(), b.clone()))
            .unwrap();
        let report = exec.run().unwrap();
        all_counts.push(
            workload
                .queries()
                .iter()
                .map(|q| report.sink_count(&q.name))
                .collect(),
        );
    }

    // Baseline strategies.
    let baselines = vec![
        PullUpPlanBuilder::new().build(&workload).unwrap(),
        PushDownPlanBuilder::new().build(&workload).unwrap(),
        UnsharedPlanBuilder::new().build(&workload).unwrap(),
    ];
    for built in baselines {
        let mut exec = Executor::new(built.plan);
        exec.ingest_all(ENTRY_A, a.clone()).unwrap();
        exec.ingest_all(ENTRY_B, b.clone()).unwrap();
        let report = exec.run().unwrap();
        all_counts.push(
            workload
                .queries()
                .iter()
                .map(|q| report.sink_count(&q.name))
                .collect(),
        );
    }
    all_counts
}

#[test]
fn all_strategies_agree_with_selections() {
    let scenario = Scenario {
        rate: 25.0,
        duration_secs: 10.0,
        num_queries: 3,
        distribution: WindowDistribution::MostlySmall,
        sel_filter: 0.4,
        sel_join: 0.1,
        seed: 5,
    };
    let counts = per_query_counts_for_all_strategies(&scenario);
    assert!(counts.iter().all(|c| c == &counts[0]), "{counts:?}");
    assert!(
        counts[0].iter().sum::<u64>() > 0,
        "workload produced no results"
    );
    // Larger windows never receive fewer results than smaller ones of the
    // same filtered group.
    assert!(counts[0][2] >= counts[0][1]);
}

#[test]
fn all_strategies_agree_without_selections() {
    let scenario = Scenario {
        rate: 25.0,
        duration_secs: 10.0,
        num_queries: 4,
        distribution: WindowDistribution::Uniform,
        sel_filter: 1.0,
        sel_join: 0.05,
        seed: 11,
    };
    let counts = per_query_counts_for_all_strategies(&scenario);
    assert!(counts.iter().all(|c| c == &counts[0]), "{counts:?}");
    // Without filters the per-query counts are monotone in the window size.
    let first = &counts[0];
    assert!(first.windows(2).all(|w| w[1] >= w[0]));
}

#[test]
fn twelve_query_small_large_workload_agrees_between_memopt_and_cpuopt() {
    let scenario = Scenario {
        rate: 20.0,
        duration_secs: 8.0,
        num_queries: 12,
        distribution: WindowDistribution::SmallLarge,
        sel_filter: 1.0,
        sel_join: 0.025,
        seed: 3,
    };
    let counts = per_query_counts_for_all_strategies(&scenario);
    assert!(counts.iter().all(|c| c == &counts[0]), "{counts:?}");
    assert_eq!(counts[0].len(), 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on random streams with one A-side filter shared by every
    /// query but the first, each baseline's retaining sinks hold exactly the
    /// oracle's results per query.  The filter puts a `SelectOp` (unshared)
    /// or `SplitOp` (push-down) in front of the joins' A port while B arrives
    /// directly, and all of A is ingested before all of B, so the two input
    /// ports of every join drift apart.
    #[test]
    fn baselines_equal_the_oracle_per_query(
        a_arrivals in prop::collection::vec((0u64..300, 0i64..4, 0i64..8), 1..60),
        b_arrivals in prop::collection::vec((0u64..300, 0i64..4), 1..60),
        windows in prop::collection::btree_set(1u64..15, 1..4),
    ) {
        let tenths = |t: u64| Timestamp::from_millis(t * 100);
        let mut a: Vec<Tuple> = a_arrivals
            .iter()
            .map(|&(t, k, v)| Tuple::of_ints(tenths(t), StreamId::A, &[k, v]))
            .collect();
        let mut b: Vec<Tuple> = b_arrivals
            .iter()
            .map(|&(t, k)| Tuple::of_ints(tenths(t), StreamId::B, &[k, 0]))
            .collect();
        a.sort_by_key(|t| t.ts);
        b.sort_by_key(|t| t.ts);
        let queries = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let window = TimeDelta::from_secs(w);
                if i == 0 {
                    JoinQuery::new(format!("Q{i}"), window)
                } else {
                    JoinQuery::with_filter(format!("Q{i}"), window, Predicate::gt(1, 3i64))
                }
            })
            .collect();
        let workload = QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap();
        let mut input = a.clone();
        input.extend(b.iter().cloned());
        let expected = expected_results(&workload, &input);
        let plans: [BaselinePlan; 3] = [
            UnsharedPlanBuilder::new().retaining_results().build(&workload).unwrap(),
            PullUpPlanBuilder::new().retaining_results().build(&workload).unwrap(),
            PushDownPlanBuilder::new().retaining_results().build(&workload).unwrap(),
        ];
        for (strategy, built) in ["unshared", "pull-up", "push-down"].into_iter().zip(plans) {
            let mut exec = Executor::new(built.plan);
            exec.ingest_all(ENTRY_A, a.clone()).unwrap();
            exec.ingest_all(ENTRY_B, b.clone()).unwrap();
            exec.run().unwrap();
            for q in workload.queries() {
                let sink = exec.plan().sink(&q.name).expect("sink exists");
                prop_assert_eq!(
                    collected_fingerprints(sink.collected()),
                    expected_fingerprints(&expected[&q.name]),
                    "{} {}",
                    strategy,
                    q.name
                );
            }
        }
    }
}
