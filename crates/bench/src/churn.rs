//! Live-query-churn harness behind `bench_report -- --churn`.
//!
//! Runs the fig18-style equi workload (Uniform 10/20/30 s windows, no
//! selections, probe-heavy) on a [`Session`] while a Poisson churn
//! schedule adds and removes queries mid-stream, sweeping the mean
//! churn-event interval.  Every row measures the service rate (migration
//! stalls excluded by the executor's paused-time accounting) and the
//! per-migration pause time, and checks the per-query-instance result counts
//! against a **statically-planned oracle**: one chain planned up front for
//! the union of every query that ever exists, executed incrementally over
//! the same epoch boundaries, whose per-sink delivery deltas per epoch give
//! the exact counts each live query instance must have received over its
//! lifetime.

use ss_workload::{churn_schedule, ChurnAction, ChurnConfig, Scenario};
use state_slice_core::live::{QueryResults, Session, SessionEvent, SessionOptions};
use state_slice_core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
use state_slice_core::{ChainBuilder, JoinQuery, QueryWorkload, SharedChainPlan};
use streamkit::error::{Result, StreamError};
use streamkit::{Executor, TimeDelta, Tuple};

use crate::runner::{equi_heavy_scenario, executor_config, perf_of, RunPerf};

/// Pool of windows (whole seconds) churned queries draw from: pairwise
/// distinct, distinct from the base 10/20/30 s windows, and all below the
/// base maximum so churn never changes the chain's coverage.
pub const CHURN_WINDOW_POOL: [u64; 6] = [4, 7, 13, 17, 23, 27];

/// One query instance's lifetime check against the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCheck {
    /// Query name.
    pub name: String,
    /// Window in seconds.
    pub window_secs: f64,
    /// Epoch interval `[from, to)` the instance was active in (`to` is the
    /// epoch count when still active at the end).
    pub epochs: (usize, usize),
    /// Results the live chain delivered.
    pub live_count: u64,
    /// Results the statically-planned oracle delivered over the same epochs.
    pub oracle_count: u64,
}

/// One row of the churn sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRun {
    /// Mean seconds between churn events (0 = no churn).
    pub mean_interval_secs: f64,
    /// Churn events applied (= migrations).
    pub events: usize,
    /// Performance counters of the cumulative live run.
    pub perf: RunPerf,
    /// Mean migration pause in milliseconds.
    pub avg_pause_ms: f64,
    /// Largest migration pause in milliseconds.
    pub max_pause_ms: f64,
    /// State tuples drained and reloaded across all migrations.
    pub tuples_moved: usize,
    /// Per-instance lifetime checks.
    pub instances: Vec<InstanceCheck>,
    /// `true` iff every instance's live count equals the oracle count.
    pub results_match: bool,
}

/// The churn report written to `BENCH_churn.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBenchReport {
    /// Stream duration of the runs (seconds).
    pub duration_secs: f64,
    /// Arrival rate per stream (tuples/second).
    pub rate: f64,
    /// Join selectivity S⋈.
    pub sel_join: f64,
    /// One row per swept mean churn interval.
    pub rows: Vec<ChurnRun>,
    /// `true` iff every row matched its oracle.
    pub results_match: bool,
}

impl ChurnBenchReport {
    /// Service rate of a row relative to the no-churn baseline row.
    pub fn relative_service_rate(&self, row: &ChurnRun) -> f64 {
        let base = self
            .rows
            .iter()
            .find(|r| r.events == 0)
            .or_else(|| self.rows.first());
        match base {
            Some(base) if base.perf.service_rate > 0.0 => {
                row.perf.service_rate / base.perf.service_rate
            }
            _ => 0.0,
        }
    }

    /// Serialise to the `BENCH_churn.json` format (stable key order, no
    /// external JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"live_query_churn\",\n");
        out.push_str(&format!(
            "  \"command\": \"SS_DURATION_SECS={:.0} cargo run --release -p ss_bench --bin bench_report -- --churn {}\",\n",
            self.duration_secs,
            self.rows
                .iter()
                .map(|r| format!("{}", r.mean_interval_secs))
                .collect::<Vec<_>>()
                .join(","),
        ));
        out.push_str(&format!(
            "  \"workload\": {{\"style\": \"fig18-equi\", \"duration_secs\": {:.1}, \"rate\": {:.1}, \"sel_join\": {}, \"distribution\": \"Uniform\", \"num_queries\": 3, \"selections\": false, \"churn_window_pool\": {:?}}},\n",
            self.duration_secs, self.rate, self.sel_join, CHURN_WINDOW_POOL
        ));
        out.push_str(&format!(
            "  \"results_match\": {},\n  \"rows\": [\n",
            self.results_match
        ));
        for (i, row) in self.rows.iter().enumerate() {
            let instances = row
                .instances
                .iter()
                .map(|inst| {
                    format!(
                        "{{\"name\": \"{}\", \"window_secs\": {:.0}, \"epochs\": [{}, {}], \"live\": {}, \"oracle\": {}}}",
                        inst.name,
                        inst.window_secs,
                        inst.epochs.0,
                        inst.epochs.1,
                        inst.live_count,
                        inst.oracle_count,
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\n      \"mean_interval_secs\": {}, \n      \"events\": {},\n      \"service_rate\": {:.1},\n      \"relative_service_rate\": {:.3},\n      \"elapsed_secs\": {:.4},\n      \"avg_pause_ms\": {:.3},\n      \"max_pause_ms\": {:.3},\n      \"tuples_moved\": {},\n      \"total_outputs\": {},\n      \"results_match\": {},\n      \"instances\": [{}]\n    }}{}\n",
                row.mean_interval_secs,
                row.events,
                row.perf.service_rate,
                self.relative_service_rate(row),
                row.perf.elapsed_secs,
                row.avg_pause_ms,
                row.max_pause_ms,
                row.tuples_moved,
                row.perf.total_outputs,
                row.results_match,
                instances,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The epoch boundaries of a schedule as indexes into the merged input.
fn epoch_cuts(input: &[Tuple], events: &[ss_workload::ChurnEvent]) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(events.len() + 1);
    let mut idx = 0;
    for event in events {
        while idx < input.len() && input[idx].ts < event.at {
            idx += 1;
        }
        cuts.push(idx);
    }
    cuts.push(input.len());
    cuts
}

/// Run the statically-planned oracle: one chain over **all** queries that
/// ever exist, executed incrementally over the same epoch boundaries,
/// returning per-sink cumulative counts *at* every boundary (index `e` =
/// after processing input up to cut `e`).
fn oracle_counts(
    scenario: &Scenario,
    input: &[Tuple],
    cuts: &[usize],
    all_queries: &[JoinQuery],
) -> Result<Vec<Vec<(String, u64)>>> {
    let workload = QueryWorkload::new(
        all_queries.to_vec(),
        crate::runner::build_workload(scenario)?
            .join_condition()
            .clone(),
    )?;
    let spec = ChainBuilder::new(workload.clone()).memory_optimal();
    let shared = SharedChainPlan::build(&workload, &spec, &PlannerOptions::default())?;
    let mut exec = Executor::with_config(shared.plan, executor_config());
    let mut snapshots = Vec::with_capacity(cuts.len());
    let mut done = 0;
    for &cut in cuts {
        exec.ingest_all(CHAIN_ENTRY, input[done..cut].to_vec())?;
        done = cut;
        let report = exec.run()?;
        snapshots.push(
            workload
                .queries()
                .iter()
                .map(|q| (q.name.clone(), report.sink_count(&q.name)))
                .collect(),
        );
    }
    Ok(snapshots)
}

fn count_at(snapshots: &[Vec<(String, u64)>], epoch: usize, name: &str) -> u64 {
    if epoch == 0 {
        return 0;
    }
    snapshots[epoch - 1]
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| *c)
        .unwrap_or(0)
}

/// Run one churn row: live reslicing vs the statically-planned oracle.
pub fn run_churn_row(
    scenario: &Scenario,
    input: &[Tuple],
    mean_interval_secs: f64,
) -> Result<ChurnRun> {
    let base_workload = crate::runner::build_workload(scenario)?;
    let events = churn_schedule(&ChurnConfig {
        mean_interval_secs,
        duration_secs: scenario.duration_secs,
        window_pool_secs: CHURN_WINDOW_POOL.to_vec(),
        seed: scenario.seed,
    });
    let cuts = epoch_cuts(input, &events);

    // Live run: ingest each epoch's chunk, then apply the churn event.
    let mut live = Session::launch(
        base_workload.clone(),
        SessionOptions {
            executor: executor_config(),
            ..SessionOptions::default()
        },
    )?;
    // Instance ledger: (name, window, first epoch, last epoch or None).
    let mut done = 0;
    for (event, &cut) in events.iter().zip(&cuts) {
        live.ingest_all(input[done..cut].to_vec())?;
        done = cut;
        match &event.action {
            ChurnAction::Add { name, window_secs } => {
                live.add_query(JoinQuery::new(name, TimeDelta::from_secs(*window_secs)))?;
            }
            ChurnAction::Remove { name } => {
                live.remove_query(name)?;
            }
        }
    }
    live.ingest_all(input[done..].to_vec())?;
    let outcome = live.finish()?;

    // Oracle: the statically-planned union of every query lifetime.
    let mut all_queries: Vec<JoinQuery> = base_workload.queries().to_vec();
    for &w in CHURN_WINDOW_POOL.iter() {
        if events
            .iter()
            .any(|e| matches!(&e.action, ChurnAction::Add { window_secs, .. } if *window_secs == w))
        {
            all_queries.push(JoinQuery::new(
                ChurnConfig::query_name(w),
                TimeDelta::from_secs(w),
            ));
        }
    }
    let snapshots = oracle_counts(scenario, input, &cuts, &all_queries)?;
    let final_epoch = cuts.len();

    let instance_check = |q: &QueryResults| -> InstanceCheck {
        let from = q.added_epoch as usize;
        let to = q.removed_epoch.map(|e| e as usize).unwrap_or(final_epoch);
        let oracle = count_at(&snapshots, to, &q.name) - count_at(&snapshots, from, &q.name);
        InstanceCheck {
            name: q.name.clone(),
            window_secs: q.window.as_secs_f64(),
            epochs: (from, to),
            live_count: q.count,
            oracle_count: oracle,
        }
    };
    let instances: Vec<InstanceCheck> = outcome.queries.iter().map(instance_check).collect();
    let results_match = instances.iter().all(|i| i.live_count == i.oracle_count);

    let migrations = outcome.events.iter().filter_map(SessionEvent::migration);
    let pauses: Vec<f64> = migrations.clone().map(|m| m.pause_secs).collect();
    let avg_pause_ms = if pauses.is_empty() {
        0.0
    } else {
        1e3 * pauses.iter().sum::<f64>() / pauses.len() as f64
    };
    let max_pause_ms = 1e3 * pauses.iter().cloned().fold(0.0, f64::max);
    Ok(ChurnRun {
        mean_interval_secs,
        events: events.len(),
        perf: perf_of(&outcome.report),
        avg_pause_ms,
        max_pause_ms,
        tuples_moved: migrations.map(|m| m.tuples_moved).sum(),
        instances,
        results_match,
    })
}

/// Run the churn sweep: the fig18-style equi workload once per requested
/// mean churn interval (0 = no churn baseline).
pub fn run_churn_bench(
    duration_secs: f64,
    rate: f64,
    intervals: &[f64],
) -> Result<ChurnBenchReport> {
    let scenario = equi_heavy_scenario(duration_secs, rate);
    let (a, b) = scenario.generator().generate_pair();
    let input = merge_streams(a, b);
    if input.is_empty() {
        return Err(StreamError::InvalidConfig(
            "churn bench needs a non-empty stream".to_string(),
        ));
    }
    let mut rows = Vec::with_capacity(intervals.len());
    for &interval in intervals {
        rows.push(run_churn_row(&scenario, &input, interval)?);
    }
    let results_match = rows.iter().all(|r| r.results_match);
    Ok(ChurnBenchReport {
        duration_secs,
        rate,
        sel_join: scenario.sel_join,
        rows,
        results_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_rows_match_the_static_oracle() {
        let report = run_churn_bench(10.0, 40.0, &[0.0, 2.0]).unwrap();
        assert!(report.results_match, "rows: {:#?}", report.rows);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].events, 0);
        assert!(report.rows[1].events > 0, "2s churn over 10s fires events");
        assert!(report.rows[1].instances.len() > 3);
        assert!(report.rows[0].perf.total_outputs > 0);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"live_query_churn\""));
        assert!(json.contains("\"results_match\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
