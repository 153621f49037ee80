//! Adaptive re-optimization harness behind `bench_report -- --adaptive`.
//!
//! Drives a three-phase drifting workload (join selectivity collapses from
//! `SEL_HI` to `SEL_LO` a third of the way in, then recovers) through four
//! executors over the **same** input:
//!
//! * `static-mem-opt` — the Mem-Opt chain, which is also what CPU-Opt picks
//!   under the high-selectivity phases (routing results is expensive),
//! * `static-cpu-opt` — the chain CPU-Opt picks when costed with the
//!   low-selectivity phase's statistics (slices merged),
//! * `adaptive` — an adaptive session that starts on the Mem-Opt chain with
//!   the phase-1 statistics declared, and re-costs and re-cuts live at its
//!   drains as its drift detectors confirm each phase transition,
//! * a **stationary control** — the adaptive session over a no-drift
//!   profile, whose timeline must hold no adaptation decision.
//!
//! The oracle-best static is whichever static run serviced faster; the
//! adaptive run should track it (and beat the worse static) while all runs
//! deliver bit-identical per-query result counts (slicing never changes
//! what the union delivers).

use ss_workload::{DriftPhase, DriftProfile, KeyDistribution, WorkloadConfig, JOIN_KEY_FIELD};
use state_slice_core::adaptive::{AdaptationAction, AdaptationRecord, SupervisorConfig};
use state_slice_core::live::{
    MigrationRecord, Session, SessionEvent, SessionOptions, SliceStrategy,
};
use state_slice_core::planner::merge_streams;
use state_slice_core::{CostConfig, JoinQuery, QueryWorkload};
use streamkit::error::{Result, StreamError};
use streamkit::{JoinCondition, TimeDelta, Tuple};

use crate::runner::{executor_config, perf_of, RunPerf};

/// Join selectivity of the high-selectivity phases (1 and 3).
pub const SEL_HI: f64 = 0.1;
/// Join selectivity of the collapsed middle phase.
pub const SEL_LO: f64 = 0.002;
/// Drains (measured statistics windows) per run (cadence = duration / this).
pub const OBSERVATIONS: usize = 12;

/// One executor variant's measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun {
    /// Variant name (`static-mem-opt`, `static-cpu-opt`, `adaptive`).
    pub name: String,
    /// Performance counters of the (best-of-reps) run.
    pub perf: RunPerf,
    /// Live re-plans applied (adaptive only).
    pub replans: usize,
    /// Total migration stall in milliseconds.
    pub total_pause_ms: f64,
    /// Per-query result counts, in query order.
    pub sink_counts: Vec<(String, u64)>,
}

/// The adaptive report written to `BENCH_adaptive.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveBenchReport {
    /// Stream duration in seconds.
    pub duration_secs: f64,
    /// Arrival rate per stream (tuples/second).
    pub rate: f64,
    /// Repetitions per variant (best service rate kept).
    pub reps: usize,
    /// Query windows in seconds.
    pub windows_secs: Vec<f64>,
    /// Phase schedule: `(start_secs, sel_join)`.
    pub phases: Vec<(f64, f64)>,
    /// The three measured runs.
    pub runs: Vec<AdaptiveRun>,
    /// The adaptive run's timeline.
    pub events: Vec<SessionEvent>,
    /// Decisions confirmed on the stationary control run (must be none).
    pub control_log_len: usize,
    /// `true` iff every run delivered identical per-query counts.
    pub results_match: bool,
}

impl AdaptiveBenchReport {
    fn run(&self, name: &str) -> &AdaptiveRun {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .expect("all three variants always run")
    }

    /// Service rate of the better static run.
    pub fn oracle_service_rate(&self) -> f64 {
        self.run("static-mem-opt")
            .perf
            .service_rate
            .max(self.run("static-cpu-opt").perf.service_rate)
    }

    /// Service rate of the worse static run.
    pub fn worst_static_service_rate(&self) -> f64 {
        self.run("static-mem-opt")
            .perf
            .service_rate
            .min(self.run("static-cpu-opt").perf.service_rate)
    }

    /// The adaptive run's confirmed decisions, each with the migration that
    /// directly follows it on the timeline (an applied re-plan or rescale).
    pub fn decisions(&self) -> Vec<(&AdaptationRecord, Option<&MigrationRecord>)> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, event)| {
                let next = self.events.get(i + 1).and_then(SessionEvent::migration);
                event.adaptation().map(|record| (record, next))
            })
            .collect()
    }

    /// Adaptive service rate relative to the oracle-best static.
    pub fn adaptive_vs_oracle(&self) -> f64 {
        let oracle = self.oracle_service_rate();
        if oracle <= 0.0 {
            return 0.0;
        }
        self.run("adaptive").perf.service_rate / oracle
    }

    /// Adaptive service rate relative to the worse static.
    pub fn adaptive_vs_worst(&self) -> f64 {
        let worst = self.worst_static_service_rate();
        if worst <= 0.0 {
            return 0.0;
        }
        self.run("adaptive").perf.service_rate / worst
    }

    /// Serialise to the `BENCH_adaptive.json` format (stable key order, no
    /// external JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"adaptive_reoptimization\",\n");
        out.push_str(&format!(
            "  \"command\": \"SS_DURATION_SECS={:.0} SS_BENCH_RATE={:.0} SS_BENCH_REPS={} cargo run --release -p ss_bench --bin bench_report -- --adaptive\",\n",
            self.duration_secs, self.rate, self.reps,
        ));
        out.push_str(&format!(
            "  \"workload\": {{\"style\": \"equi-drift\", \"duration_secs\": {:.1}, \"rate\": {:.1}, \"reps\": {}, \"windows_secs\": {:?}, \"phases\": [{}], \"observations\": {}}},\n",
            self.duration_secs,
            self.rate,
            self.reps,
            self.windows_secs,
            self.phases
                .iter()
                .map(|(at, sel)| format!("{{\"at_secs\": {at:.1}, \"sel_join\": {sel}}}"))
                .collect::<Vec<_>>()
                .join(", "),
            OBSERVATIONS,
        ));
        out.push_str(&format!(
            "  \"results_match\": {},\n  \"adaptive_vs_oracle\": {:.3},\n  \"adaptive_vs_worst\": {:.3},\n  \"control_log_len\": {},\n",
            self.results_match,
            self.adaptive_vs_oracle(),
            self.adaptive_vs_worst(),
            self.control_log_len,
        ));
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let sinks = run
                .sink_counts
                .iter()
                .map(|(name, count)| format!("\"{name}\": {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"service_rate\": {:.1}, \"elapsed_secs\": {:.4}, \"total_comparisons\": {}, \"total_outputs\": {}, \"peak_state_tuples\": {}, \"replans\": {}, \"total_pause_ms\": {:.3}, \"sink_counts\": {{{}}}}}{}\n",
                run.name,
                run.perf.service_rate,
                run.perf.elapsed_secs,
                run.perf.total_comparisons,
                run.perf.total_outputs,
                run.perf.peak_state_tuples,
                run.replans,
                run.total_pause_ms,
                sinks,
                if i + 1 < self.runs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"adaptation_log\": [\n");
        let decisions = self.decisions();
        for (i, (record, migration)) in decisions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"stream_secs\": {:.1}, \"trigger\": \"{}\", \"action\": {}, \"measured_sel\": {:.5}, \"modeled_win\": {:.0}, \"modeled_pause\": {:.0}}}{}\n",
                record.seq,
                record.stream_secs,
                record.trigger.name(),
                action_json(&record.action, *migration),
                record.measured.sel_join,
                record.modeled_win,
                record.modeled_pause,
                if i + 1 < decisions.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One decision's JSON; an applied re-plan or rescale reports the
/// primitives and the pause of the `migration` that carried it out.
fn action_json(action: &AdaptationAction, migration: Option<&MigrationRecord>) -> String {
    let (merges, splits, pause_ms) =
        migration.map_or((0, 0, 0.0), |m| (m.merges, m.splits, 1e3 * m.pause_secs));
    match action {
        AdaptationAction::KeepPlan => "{\"kind\": \"keep-plan\"}".to_string(),
        AdaptationAction::Replan { strategy } => format!(
            "{{\"kind\": \"replan\", \"strategy\": \"{strategy}\", \"merges\": {merges}, \"splits\": {splits}, \"pause_ms\": {pause_ms:.3}}}",
        ),
        AdaptationAction::Rescale { from, to } => format!(
            "{{\"kind\": \"rescale\", \"from\": {from}, \"to\": {to}, \"pause_ms\": {pause_ms:.3}}}",
        ),
        AdaptationAction::Vetoed { strategy } => {
            format!("{{\"kind\": \"vetoed\", \"strategy\": \"{strategy}\"}}")
        }
        AdaptationAction::Blocked { reason } => {
            format!("{{\"kind\": \"blocked\", \"reason\": \"{reason}\"}}")
        }
    }
}

/// Query windows scaled to the run duration so the supervisor's warm-up
/// (one largest window) fits even the CI smoke duration.
fn drift_windows(duration_secs: f64) -> Vec<f64> {
    vec![
        duration_secs / 12.0,
        duration_secs / 6.0,
        duration_secs / 4.0,
    ]
}

fn drift_workload(duration_secs: f64) -> Result<QueryWorkload> {
    let queries = drift_windows(duration_secs)
        .into_iter()
        .enumerate()
        .map(|(i, w)| JoinQuery::new(format!("Q{}", i + 1), TimeDelta::from_secs_f64(w)))
        .collect();
    QueryWorkload::new(queries, JoinCondition::equi(JOIN_KEY_FIELD))
}

fn base_config(duration_secs: f64, rate: f64) -> WorkloadConfig {
    WorkloadConfig {
        rate,
        duration_secs,
        sel_join: SEL_HI,
        sel_filter: 1.0,
        seed: 7,
        key_dist: KeyDistribution::Uniform,
    }
}

/// The drifting profile: high → collapsed → high join selectivity, in
/// equal thirds.
pub fn drift_profile(duration_secs: f64, rate: f64) -> DriftProfile {
    let base = base_config(duration_secs, rate);
    let phase = |at, sel| DriftPhase {
        at_secs: at,
        rate,
        sel_join: sel,
        key_dist: KeyDistribution::Uniform,
    };
    DriftProfile::new(
        base,
        vec![
            phase(0.0, SEL_HI),
            phase(duration_secs / 3.0, SEL_LO),
            phase(2.0 * duration_secs / 3.0, SEL_HI),
        ],
    )
    .expect("static schedule is well-formed")
}

fn declared_cost(rate: f64, sel_join: f64) -> CostConfig {
    // csys matches the calibration of `runner::cost_config`.
    CostConfig {
        lambda_a: rate,
        lambda_b: rate,
        sel_join,
        csys: 10.0,
    }
}

fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        rate_ratio: 1.8,
        sel_ratio: 3.0,
        // The drain cadence is coarse and the selectivity estimate is
        // EWMA-smoothed, so a single confirmed breach suffices.
        confirm: 1,
        ..SupervisorConfig::default()
    }
}

/// Cut the merged input at every observation boundary.
fn observation_cuts(input: &[Tuple], duration_secs: f64) -> Vec<usize> {
    let step = duration_secs / OBSERVATIONS as f64;
    let mut cuts = Vec::with_capacity(OBSERVATIONS);
    let mut idx = 0;
    for k in 1..OBSERVATIONS {
        let at = k as f64 * step;
        while idx < input.len() && input[idx].ts.as_secs_f64() < at {
            idx += 1;
        }
        cuts.push(idx);
    }
    cuts.push(input.len());
    cuts
}

/// Run one variant over the input, draining at every cut (an adaptive
/// session's drains run its drift policy).  Returns the run's counters and
/// its timeline.
fn run_variant(
    workload: &QueryWorkload,
    input: &[Tuple],
    cuts: &[usize],
    strategy: SliceStrategy,
    adaptive: Option<(CostConfig, SupervisorConfig)>,
) -> Result<(AdaptiveRun, Vec<SessionEvent>)> {
    let mut live = Session::launch(
        workload.clone(),
        SessionOptions {
            executor: executor_config(),
            strategy,
            adaptive,
            ..SessionOptions::default()
        },
    )?;
    let mut done = 0;
    for &cut in cuts {
        live.ingest_all(input[done..cut].to_vec())?;
        done = cut;
        live.drain()?;
    }
    let outcome = live.finish()?;
    let mut sink_counts: Vec<(String, u64)> = outcome
        .queries
        .iter()
        .map(|q| (q.name.clone(), q.count))
        .collect();
    sink_counts.sort();
    let migrations = outcome.events.iter().filter_map(SessionEvent::migration);
    let run = AdaptiveRun {
        name: String::new(),
        perf: perf_of(&outcome.report),
        replans: migrations.count(),
        total_pause_ms: 1e3 * outcome.total_pause_secs(),
        sink_counts,
    };
    Ok((run, outcome.events))
}

/// Run the full comparison: two statics, the adaptive executor, and the
/// stationary control, `reps` times each (best service rate kept — the
/// workload is deterministic, only wall-clock noise varies).
pub fn run_adaptive_bench(
    duration_secs: f64,
    rate: f64,
    reps: usize,
) -> Result<AdaptiveBenchReport> {
    let workload = drift_workload(duration_secs)?;
    let profile = drift_profile(duration_secs, rate);
    let (a, b) = profile.generate_pair();
    let input = merge_streams(a, b);
    if input.is_empty() {
        return Err(StreamError::InvalidConfig(
            "adaptive bench needs a non-empty stream".to_string(),
        ));
    }
    let cuts = observation_cuts(&input, duration_secs);
    let adaptive = Some((declared_cost(rate, SEL_HI), supervisor_config()));
    let declared_lo = declared_cost(rate, SEL_LO);
    let variants = [
        ("static-mem-opt", SliceStrategy::MemOpt, None),
        ("static-cpu-opt", SliceStrategy::CpuOpt(declared_lo), None),
        ("adaptive", SliceStrategy::MemOpt, adaptive),
    ];
    let mut runs = Vec::with_capacity(variants.len());
    let mut events = Vec::new();
    for (name, strategy, adaptive) in variants {
        let mut best: Option<AdaptiveRun> = None;
        for _ in 0..reps.max(1) {
            let (mut run, timeline) =
                run_variant(&workload, &input, &cuts, strategy.clone(), adaptive)?;
            run.name = name.to_string();
            if adaptive.is_some() {
                events = timeline;
            }
            best = match best {
                Some(prev) if prev.perf.service_rate >= run.perf.service_rate => Some(prev),
                _ => Some(run),
            };
        }
        runs.push(best.expect("at least one rep"));
    }
    // Stationary control: same adaptive machinery, no drift — no decision
    // may be logged.
    let control_profile = DriftProfile::stationary(base_config(duration_secs, rate));
    let (ca, cb) = control_profile.generate_pair();
    let control_input = merge_streams(ca, cb);
    let control_cuts = observation_cuts(&control_input, duration_secs);
    let (_, control) = run_variant(
        &workload,
        &control_input,
        &control_cuts,
        SliceStrategy::MemOpt,
        adaptive,
    )?;
    let control_log_len = control.iter().filter_map(SessionEvent::adaptation).count();
    let results_match = runs
        .windows(2)
        .all(|pair| pair[0].sink_counts == pair[1].sink_counts);
    let report = AdaptiveBenchReport {
        duration_secs,
        rate,
        reps: reps.max(1),
        windows_secs: drift_windows(duration_secs),
        phases: profile
            .phases()
            .iter()
            .map(|p| (p.at_secs, p.sel_join))
            .collect(),
        runs,
        events,
        control_log_len,
        results_match,
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use state_slice_core::adaptive::AdaptationAction;

    #[test]
    fn adaptive_tracks_the_drift_and_control_stays_silent() {
        let report = run_adaptive_bench(12.0, 40.0, 1).unwrap();
        assert!(report.results_match, "runs: {:#?}", report.runs);
        assert_eq!(report.control_log_len, 0, "control confirmed drift");
        let decisions = report.decisions();
        assert!(
            !decisions.is_empty(),
            "no drift confirmed on the drifting run"
        );
        assert!(
            decisions.iter().any(|(r, migration)| matches!(
                r.action,
                AdaptationAction::Replan { .. }
            ) && migration.is_some()),
            "no re-plan applied: {decisions:#?}"
        );
        let adaptive = report.run("adaptive");
        assert!(adaptive.replans > 0);
        assert!(adaptive.perf.total_outputs > 0);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"adaptive_reoptimization\""));
        assert!(json.contains("\"results_match\": true"));
        assert!(json.contains("\"control_log_len\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
