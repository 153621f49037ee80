//! Experiment runner: execute one scenario under one sharing strategy and
//! report the metrics the paper's figures plot.

use ss_workload::{Scenario, WindowDistribution, JOIN_KEY_FIELD};
use state_slice_core::planner::CHAIN_ENTRY;
use state_slice_core::{
    ChainBuilder, ChainSpec, CostConfig, JoinQuery, PlannerOptions, QueryWorkload, SharedChainPlan,
};
use streamkit::error::Result;
use streamkit::{Executor, ExecutorConfig, JoinCondition};

use ss_baselines::{PullUpPlanBuilder, PushDownPlanBuilder, UnsharedPlanBuilder, ENTRY_A, ENTRY_B};

/// The sharing strategies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// State-slice chain built with the Mem-Opt algorithm (Section 5.1).
    StateSliceMemOpt,
    /// State-slice chain built with the CPU-Opt algorithm (Section 5.2).
    StateSliceCpuOpt,
    /// Naive sharing with selection pull-up (Section 3.1).
    SelectionPullUp,
    /// Stream partition with selection push-down (Section 3.2).
    SelectionPushDown,
    /// One independent plan per query (no sharing).
    Unshared,
}

impl Strategy {
    /// The three strategies compared in Figures 17 and 18.
    pub const FIGURE_17_18: [Strategy; 3] = [
        Strategy::SelectionPullUp,
        Strategy::StateSliceMemOpt,
        Strategy::SelectionPushDown,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::StateSliceMemOpt => "State-Slice-Chain",
            Strategy::StateSliceCpuOpt => "State-Slice-CPU-Opt",
            Strategy::SelectionPullUp => "Selection-PullUp",
            Strategy::SelectionPushDown => "Selection-PushDown",
            Strategy::Unshared => "Unshared",
        }
    }
}

/// Metrics of one run, mirroring the paper's measurements (Section 7.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Average state-memory usage in tuples (Figures 17).
    pub avg_state_tuples: f64,
    /// Peak state-memory usage in tuples.
    pub peak_state_tuples: usize,
    /// Service rate = total throughput / running time (Figures 18–19).
    pub service_rate: f64,
    /// Total comparison count (the analytical CPU-cost metric).
    pub total_comparisons: u64,
    /// Total result tuples delivered to all query sinks.
    pub total_outputs: u64,
    /// Wall-clock running time in seconds.
    pub elapsed_secs: f64,
    /// Number of operators in the executed plan.
    pub num_operators: usize,
}

/// Performance counters of one end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPerf {
    /// Service rate (tuples/second), the paper's Figure 18 metric.
    pub service_rate: f64,
    /// Wall-clock running time in seconds.
    pub elapsed_secs: f64,
    /// Join probe comparisons performed.
    pub probe_comparisons: u64,
    /// Total comparisons (the analytical CPU metric).
    pub total_comparisons: u64,
    /// Result tuples delivered to all query sinks.
    pub total_outputs: u64,
    /// Peak join-state size in tuples.
    pub peak_state_tuples: usize,
    /// Peak live join-state bytes (join-state byte bookkeeping).
    pub peak_state_bytes: usize,
    /// Time-averaged live join-state bytes.
    pub avg_state_bytes: f64,
    /// Peak join-state capacity bytes (live bytes plus unfilled queue slots
    /// — what the allocator actually holds).
    pub peak_capacity_bytes: usize,
}

pub(crate) fn perf_of(report: &streamkit::ExecutionReport) -> RunPerf {
    RunPerf {
        service_rate: report.service_rate(),
        elapsed_secs: report.elapsed_secs,
        probe_comparisons: report.totals.probe_comparisons,
        total_comparisons: report.totals.total_comparisons(),
        total_outputs: report.total_output(),
        peak_state_tuples: report.memory.peak_state_tuples,
        peak_state_bytes: report.memory.peak_state_bytes,
        avg_state_bytes: report.memory.avg_state_bytes,
        peak_capacity_bytes: report.memory.peak_capacity_bytes,
    }
}

/// The executor configuration shared by every measured run of this crate
/// (figures, churn/adaptive/recovery benches), so the rows of different
/// reports stay comparable.
pub(crate) fn executor_config() -> ExecutorConfig {
    ExecutorConfig {
        batch_per_visit: 64,
        memory_sample_every: 64,
        ..ExecutorConfig::default()
    }
}

/// The equi-join-heavy fig18-style scenario: Uniform windows (10/20/30 s),
/// no selections, S⋈ = 0.002 (500-key domain), window ≫ inter-arrival gap.
///
/// The key domain is sparser than the paper's densest panels so that the
/// measured service rate isolates *probe* cost: the linear-scan probe cost
/// is independent of S⋈ while the result-handling overhead shrinks with it,
/// which is exactly the regime (many keys, selective equi joins) where an
/// index matters in practice.
pub fn equi_heavy_scenario(duration_secs: f64, rate: f64) -> Scenario {
    Scenario {
        rate,
        duration_secs,
        num_queries: 3,
        distribution: WindowDistribution::Uniform,
        sel_filter: 1.0,
        sel_join: 0.002,
        seed: 7,
    }
}

/// Build the query workload a scenario registers: windows from the scenario's
/// distribution, the shared equi-join on the key attribute, and (when the
/// scenario has a selection) the filter on every query except the smallest
/// one — exactly the Q1/Q2/Q3 shape of Section 7.2.
pub fn build_workload(scenario: &Scenario) -> Result<QueryWorkload> {
    let filter = scenario.filter_predicate();
    let queries = scenario
        .windows()
        .into_iter()
        .enumerate()
        .map(|(i, window)| {
            let name = format!("Q{}", i + 1);
            match (&filter, i) {
                (Some(pred), i) if i > 0 => JoinQuery::with_filter(name, window, pred.clone()),
                _ => JoinQuery::new(name, window),
            }
        })
        .collect();
    QueryWorkload::new(queries, JoinCondition::equi(JOIN_KEY_FIELD))
}

/// The optimizer statistics handed to the CPU-Opt chain builder for a
/// scenario.  `csys` is calibrated to this crate's executor: forwarding a
/// tuple through one extra operator costs roughly ten comparisons' worth of
/// queue and scheduling work.
pub fn cost_config(scenario: &Scenario) -> CostConfig {
    CostConfig {
        lambda_a: scenario.rate,
        lambda_b: scenario.rate,
        sel_join: scenario.sel_join,
        csys: 10.0,
    }
}

/// Run one scenario under one strategy and collect its metrics.
pub fn run_strategy(scenario: &Scenario, strategy: Strategy) -> Result<RunMetrics> {
    let workload = build_workload(scenario)?;
    let (stream_a, stream_b) = scenario.generator().generate_pair();
    let report;
    let num_operators;
    match strategy {
        Strategy::StateSliceMemOpt | Strategy::StateSliceCpuOpt => {
            let builder = ChainBuilder::new(workload.clone());
            let spec: ChainSpec = match strategy {
                Strategy::StateSliceMemOpt => builder.memory_optimal(),
                _ => builder.cpu_optimal(&cost_config(scenario))?.spec,
            };
            let shared = SharedChainPlan::build(&workload, &spec, &PlannerOptions::default())?;
            num_operators = spec.num_operators(&workload);
            let mut exec = Executor::with_config(shared.plan, executor_config());
            exec.ingest_all(
                CHAIN_ENTRY,
                state_slice_core::merge_streams(stream_a, stream_b),
            )?;
            report = exec.run()?;
        }
        Strategy::SelectionPullUp | Strategy::SelectionPushDown | Strategy::Unshared => {
            let built = match strategy {
                Strategy::SelectionPullUp => PullUpPlanBuilder::new().build(&workload)?,
                Strategy::SelectionPushDown => PushDownPlanBuilder::new().build(&workload)?,
                _ => UnsharedPlanBuilder::new().build(&workload)?,
            };
            num_operators = built.plan.num_nodes();
            let mut exec = Executor::with_config(built.plan, executor_config());
            exec.ingest_all(ENTRY_A, stream_a)?;
            exec.ingest_all(ENTRY_B, stream_b)?;
            report = exec.run()?;
        }
    }
    Ok(RunMetrics {
        avg_state_tuples: report.memory.avg_state_tuples,
        peak_state_tuples: report.memory.peak_state_tuples,
        service_rate: report.service_rate(),
        total_comparisons: report.totals.total_comparisons(),
        total_outputs: report.total_output(),
        elapsed_secs: report.elapsed_secs,
        num_operators,
    })
}

/// Run one scenario under every requested strategy.
pub fn run_strategies(
    scenario: &Scenario,
    strategies: &[Strategy],
) -> Result<Vec<(Strategy, RunMetrics)>> {
    strategies
        .iter()
        .map(|&s| run_strategy(scenario, s).map(|m| (s, m)))
        .collect()
}

/// Sanity check used by tests and the harnesses: every strategy must deliver
/// the same number of results to every query for the same scenario.
pub fn results_agree(scenario: &Scenario, strategies: &[Strategy]) -> Result<bool> {
    let workload = build_workload(scenario)?;
    let (stream_a, stream_b) = scenario.generator().generate_pair();
    let mut reference: Option<Vec<u64>> = None;
    for &strategy in strategies {
        let counts: Vec<u64> = match strategy {
            Strategy::StateSliceMemOpt | Strategy::StateSliceCpuOpt => {
                let builder = ChainBuilder::new(workload.clone());
                let spec = match strategy {
                    Strategy::StateSliceMemOpt => builder.memory_optimal(),
                    _ => builder.cpu_optimal(&cost_config(scenario))?.spec,
                };
                let shared = SharedChainPlan::build(&workload, &spec, &PlannerOptions::default())?;
                let mut exec = Executor::with_config(shared.plan, executor_config());
                exec.ingest_all(
                    CHAIN_ENTRY,
                    state_slice_core::merge_streams(stream_a.clone(), stream_b.clone()),
                )?;
                let report = exec.run()?;
                workload
                    .queries()
                    .iter()
                    .map(|q| report.sink_count(&q.name))
                    .collect()
            }
            _ => {
                let built = match strategy {
                    Strategy::SelectionPullUp => PullUpPlanBuilder::new().build(&workload)?,
                    Strategy::SelectionPushDown => PushDownPlanBuilder::new().build(&workload)?,
                    _ => UnsharedPlanBuilder::new().build(&workload)?,
                };
                let mut exec = Executor::with_config(built.plan, executor_config());
                exec.ingest_all(ENTRY_A, stream_a.clone())?;
                exec.ingest_all(ENTRY_B, stream_b.clone())?;
                let report = exec.run()?;
                workload
                    .queries()
                    .iter()
                    .map(|q| report.sink_count(&q.name))
                    .collect()
            }
        };
        match &reference {
            None => reference = Some(counts),
            Some(expected) if *expected != counts => return Ok(false),
            _ => {}
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario() -> Scenario {
        Scenario {
            rate: 20.0,
            duration_secs: 8.0,
            num_queries: 3,
            distribution: WindowDistribution::Uniform,
            sel_filter: 0.5,
            sel_join: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn workload_has_filter_on_all_but_the_smallest_query() {
        let w = build_workload(&quick_scenario()).unwrap();
        assert_eq!(w.len(), 3);
        assert!(!w.query(0).has_filter());
        assert!(w.query(1).has_filter());
        assert!(w.query(2).has_filter());
        let no_filter = build_workload(&Scenario {
            sel_filter: 1.0,
            ..quick_scenario()
        })
        .unwrap();
        assert!(!no_filter.has_selections());
    }

    #[test]
    fn all_strategies_produce_identical_per_query_counts() {
        let scenario = quick_scenario();
        assert!(results_agree(
            &scenario,
            &[
                Strategy::StateSliceMemOpt,
                Strategy::StateSliceCpuOpt,
                Strategy::SelectionPullUp,
                Strategy::SelectionPushDown,
                Strategy::Unshared,
            ],
        )
        .unwrap());
    }

    #[test]
    fn state_slice_uses_least_memory_for_selective_filters() {
        let scenario = Scenario {
            sel_filter: 0.2,
            duration_secs: 20.0,
            rate: 30.0,
            distribution: WindowDistribution::MostlySmall,
            ..quick_scenario()
        };
        let slice = run_strategy(&scenario, Strategy::StateSliceMemOpt).unwrap();
        let pullup = run_strategy(&scenario, Strategy::SelectionPullUp).unwrap();
        let pushdown = run_strategy(&scenario, Strategy::SelectionPushDown).unwrap();
        assert!(slice.avg_state_tuples <= pullup.avg_state_tuples);
        assert!(slice.avg_state_tuples <= pushdown.avg_state_tuples);
        assert!(slice.total_comparisons <= pullup.total_comparisons);
        // Figure 19's memory ordering: a join selective enough that CPU-Opt
        // merges slices makes the merged chain hold what the gates dropped.
        let sparse = Scenario {
            sel_join: 0.002,
            ..scenario
        };
        let mem_opt = run_strategy(&sparse, Strategy::StateSliceMemOpt).unwrap();
        let cpu_opt = run_strategy(&sparse, Strategy::StateSliceCpuOpt).unwrap();
        assert!(cpu_opt.num_operators < mem_opt.num_operators);
        assert!(mem_opt.avg_state_tuples < cpu_opt.avg_state_tuples);
    }

    #[test]
    fn metrics_are_populated() {
        let m = run_strategy(&quick_scenario(), Strategy::StateSliceMemOpt).unwrap();
        assert!(m.service_rate > 0.0);
        assert!(m.avg_state_tuples > 0.0);
        assert!(m.peak_state_tuples > 0);
        assert!(m.total_outputs > 0);
        assert!(m.elapsed_secs > 0.0);
        assert!(m.num_operators >= 6);
        let labels: Vec<&str> = Strategy::FIGURE_17_18.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Selection-PullUp",
                "State-Slice-Chain",
                "Selection-PushDown"
            ]
        );
    }
}
