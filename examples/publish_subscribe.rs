//! Publish/subscribe style workload: dozens of subscriptions with skewed
//! window sizes over the same pair of streams, served by a single shared
//! state-slice chain, and migrated online from the Mem-Opt slicing towards
//! the CPU-Opt slicing.
//!
//! ```text
//! cargo run --release --example publish_subscribe
//! ```

use state_slice_repro::core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_repro::core::{
    merge_spec_slices, ChainBuilder, JoinQuery, QueryWorkload, SharedChainPlan,
};
use state_slice_repro::streamkit::{Executor, JoinCondition};
use state_slice_repro::workload::{Scenario, WindowDistribution, JOIN_KEY_FIELD};

fn main() {
    // Twelve subscriptions with the Small-Large window distribution of
    // Table 4 (half subscribe to the last few seconds, half to half a minute).
    let scenario = Scenario {
        rate: 40.0,
        duration_secs: 20.0,
        num_queries: 12,
        distribution: WindowDistribution::SmallLarge,
        sel_filter: 1.0,
        sel_join: 0.025,
        seed: 9,
    };
    let workload = QueryWorkload::new(
        scenario
            .windows()
            .into_iter()
            .enumerate()
            .map(|(i, w)| JoinQuery::new(format!("Sub{:02}", i + 1), w))
            .collect(),
        JoinCondition::equi(JOIN_KEY_FIELD),
    )
    .expect("workload");

    let builder = ChainBuilder::new(workload.clone());
    let mem_opt = builder.memory_optimal();
    let cost = ss_cost_config(&scenario);
    let cpu_opt = builder.cpu_optimal(&cost).expect("cpu-opt chain");
    println!(
        "Mem-Opt chain: {} slices; CPU-Opt chain: {} slices (estimated {:.0} comparisons/s)",
        mem_opt.num_slices(),
        cpu_opt.spec.num_slices(),
        cpu_opt.estimated_cpu
    );

    // Online migration: the CPU-Opt boundary set is a subset of the Mem-Opt
    // boundary set, so the running chain can be migrated by repeatedly
    // merging adjacent slices (Section 5.3).
    let mut current = mem_opt.clone();
    let mut merges = 0;
    while current != cpu_opt.spec {
        let extra = current
            .path()
            .iter()
            .find(|b| !cpu_opt.spec.path().contains(b))
            .copied();
        let Some(boundary) = extra else { break };
        let idx = current
            .path()
            .iter()
            .position(|&b| b == boundary)
            .expect("boundary exists");
        current = merge_spec_slices(&workload, &current, idx - 1).expect("merge");
        merges += 1;
    }
    println!("migration: {merges} slice merges take the Mem-Opt chain to the CPU-Opt chain");

    // Execute both chains on the same published streams and compare.
    let (stream_a, stream_b) = scenario.generator().generate_pair();
    println!(
        "\n{:<14} {:>10} {:>14} {:>14} {:>14}",
        "chain", "operators", "avg state", "comparisons", "service t/s"
    );
    for (label, spec) in [("Mem-Opt", &mem_opt), ("CPU-Opt", &cpu_opt.spec)] {
        let shared =
            SharedChainPlan::build(&workload, spec, &PlannerOptions::default()).expect("plan");
        let operators = spec.num_operators(&workload);
        let mut exec = Executor::new(shared.plan);
        exec.ingest_all(
            CHAIN_ENTRY,
            merge_streams(stream_a.clone(), stream_b.clone()),
        )
        .expect("ingest");
        let report = exec.run().expect("run");
        println!(
            "{:<14} {:>10} {:>14.1} {:>14} {:>14.0}",
            label,
            operators,
            report.memory.avg_state_tuples,
            report.totals.total_comparisons(),
            report.service_rate()
        );
    }
}

fn ss_cost_config(scenario: &Scenario) -> state_slice_repro::core::CostConfig {
    state_slice_repro::core::CostConfig {
        lambda_a: scenario.rate,
        lambda_b: scenario.rate,
        sel_join: scenario.sel_join,
        csys: 10.0,
    }
}
