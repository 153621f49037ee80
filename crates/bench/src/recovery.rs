//! Crash-recovery harness behind `bench_report -- --recovery`.
//!
//! Drives the fig18-style equi-join-heavy workload — with a punctuation
//! closing every stream second, so checkpoints have boundaries to align to —
//! through two [`Session`]s over the **same** input:
//!
//! * `uninterrupted` — no fault armed; its recovery log must stay clean
//!   (checkpoints only),
//! * `crash-recover` — a deterministic worker panic armed at a mid-stream
//!   punctuation epoch; the session restores the last checkpoint, replays
//!   the ring and finishes the stream.
//!
//! The report records the recovery latency (total, and the restore-only
//! stall), the replayed-tuple volume, the checkpoint cadence, and
//! `results_match`: both sessions must deliver identical per-query result
//! multisets (compared tuple-by-tuple, not just by count) — the recovery
//! protocol is invisible in the results.

use ss_workload::Scenario;
use state_slice_core::planner::PlannerOptions;
use state_slice_core::recovery::{RecoveryConfig, RecoveryLog};
use state_slice_core::{QueryWorkload, Session, SessionOptions};
use streamkit::error::{Result, StreamError};
use streamkit::fault::FaultPlan;
use streamkit::punctuation::Punctuation;
use streamkit::queue::StreamItem;
use streamkit::{Timestamp, Tuple};

use crate::runner::{build_workload, equi_heavy_scenario, executor_config, perf_of, RunPerf};

/// Per-query collected results, sorted for order-insensitive comparison.
type SinkResults = Vec<(String, Vec<Tuple>)>;

/// One supervised session's measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRun {
    /// Variant name (`uninterrupted`, `crash-recover`).
    pub name: String,
    /// Performance counters of the run.
    pub perf: RunPerf,
    /// Per-query result counts, in query order.
    pub sink_counts: Vec<(String, u64)>,
    /// Checkpoints taken (including the launch checkpoint).
    pub checkpoints: usize,
    /// Recoveries performed.
    pub recoveries: usize,
}

/// The crash-recovery report written to `BENCH_recovery.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBenchReport {
    /// Stream duration in seconds.
    pub duration_secs: f64,
    /// Arrival rate per stream (tuples/second).
    pub rate: f64,
    /// Shard count of both sessions.
    pub shards: usize,
    /// Checkpoint interval in punctuation epochs.
    pub checkpoint_every_epochs: u64,
    /// The punctuation epoch the fault is armed at.
    pub crash_epoch: u64,
    /// Both measured runs.
    pub runs: Vec<RecoveryRun>,
    /// The crashed run's recovery log.
    pub log: RecoveryLog,
    /// `true` iff both sessions delivered identical per-query result
    /// multisets.
    pub results_match: bool,
}

impl RecoveryBenchReport {
    fn run(&self, name: &str) -> &RecoveryRun {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .expect("both variants always run")
    }

    /// Wall-clock seconds from failure detection to the recovered session
    /// being drained again.
    pub fn recovery_secs(&self) -> f64 {
        self.log
            .last_recovery()
            .map(|r| r.recovery_secs)
            .unwrap_or(0.0)
    }

    /// Items replayed from the ring after the restore.
    pub fn replayed(&self) -> u64 {
        self.log.last_recovery().map(|r| r.replayed).unwrap_or(0)
    }

    /// Recovered service rate relative to the uninterrupted run.
    pub fn recovered_vs_uninterrupted(&self) -> f64 {
        let base = self.run("uninterrupted").perf.service_rate;
        if base <= 0.0 {
            return 0.0;
        }
        self.run("crash-recover").perf.service_rate / base
    }

    /// Serialise to the `BENCH_recovery.json` format (stable key order, no
    /// external JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"crash_recovery\",\n");
        out.push_str(&format!(
            "  \"command\": \"SS_DURATION_SECS={:.0} SS_BENCH_RATE={:.0} cargo run --release -p ss_bench --bin bench_report -- --recovery\",\n",
            self.duration_secs, self.rate,
        ));
        out.push_str(&format!(
            "  \"workload\": {{\"style\": \"fig18-equi\", \"duration_secs\": {:.1}, \"rate\": {:.1}, \"shards\": {}, \"punctuation_every_secs\": 1.0, \"checkpoint_every_epochs\": {}, \"crash_epoch\": {}}},\n",
            self.duration_secs, self.rate, self.shards, self.checkpoint_every_epochs, self.crash_epoch,
        ));
        out.push_str(&format!(
            "  \"results_match\": {},\n  \"recovered_vs_uninterrupted\": {:.3},\n",
            self.results_match,
            self.recovered_vs_uninterrupted(),
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
                "    {{\"name\": \"{}\", \"service_rate\": {:.1}, \"elapsed_secs\": {:.4}, \"total_outputs\": {}, \"peak_state_tuples\": {}, \"checkpoints\": {}, \"recoveries\": {}, \"sink_counts\": {{{}}}}}{}\n",
                run.name,
                run.perf.service_rate,
                run.perf.elapsed_secs,
                run.perf.total_outputs,
                run.perf.peak_state_tuples,
                run.checkpoints,
                run.recoveries,
                sinks,
                if i + 1 < self.runs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"recoveries\": [\n");
        let recoveries = self.log.recoveries();
        for (i, rec) in recoveries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"checkpoint_seq\": {}, \"checkpoint_epoch\": {}, \"trigger\": \"{}\", \"replayed\": {}, \"dropped_inflight\": {}, \"recovery_secs\": {:.6}, \"restore_secs\": {:.6}}}{}\n",
                rec.checkpoint_seq,
                rec.checkpoint_epoch,
                rec.trigger.escape_default(),
                rec.replayed,
                rec.dropped_inflight,
                rec.recovery_secs,
                rec.restore_secs,
                if i + 1 < recoveries.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"checkpoints\": [\n");
        let checkpoints = self.log.checkpoints();
        for (i, ckpt) in checkpoints.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"epoch\": {}, \"watermark_secs\": {:.1}, \"state_tuples\": {}, \"ring_cleared\": {}, \"forced\": {}}}{}\n",
                ckpt.seq,
                ckpt.epoch,
                ckpt.watermark.as_secs_f64(),
                ckpt.state_tuples,
                ckpt.ring_cleared,
                ckpt.forced,
                if i + 1 < checkpoints.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Interleave a punctuation at every whole stream second into the merged
/// (time-ordered) input, closing each second's epoch, plus one final
/// punctuation at the tail.
fn punctuated(input: Vec<Tuple>) -> Vec<StreamItem> {
    let mut items = Vec::with_capacity(input.len() + 64);
    let mut next_sec = 1u64;
    let mut last_ts = Timestamp::ZERO;
    for t in input {
        while t.ts >= Timestamp::from_secs(next_sec) {
            items.push(Punctuation::new(Timestamp::from_secs(next_sec)).into());
            next_sec += 1;
        }
        last_ts = last_ts.max(t.ts);
        items.push(t.into());
    }
    items.push(Punctuation::new(last_ts).into());
    items
}

/// Feed the punctuated input, draining at every punctuation (so checkpoints
/// land on the configured epoch interval), and return the finished run.
fn run_session(
    name: &str,
    workload: &QueryWorkload,
    items: &[StreamItem],
    shards: usize,
    recovery: RecoveryConfig,
    fault: Option<FaultPlan>,
) -> Result<(RecoveryRun, RecoveryLog, SinkResults)> {
    let mut session = Session::launch(
        workload.clone(),
        SessionOptions {
            planner: PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default().with_shards(shards)
            },
            executor: executor_config(),
            recovery,
            ..SessionOptions::default()
        },
    )?;
    if let Some(plan) = fault {
        session.executor_mut().arm_fault(0, plan)?;
    }
    for item in items {
        session.ingest(item.clone())?;
        if matches!(item, StreamItem::Punctuation(_)) {
            session.drain()?;
        }
    }
    let outcome = session.finish()?;
    let mut collected: SinkResults = outcome
        .queries
        .iter()
        .map(|q| {
            let mut tuples = q.collected.clone();
            tuples.sort_by_key(|t| (t.ts, t.origin_span));
            (q.name.clone(), tuples)
        })
        .collect();
    collected.sort_by(|a, b| a.0.cmp(&b.0));
    let sink_counts = collected
        .iter()
        .map(|(name, tuples)| (name.clone(), tuples.len() as u64))
        .collect();
    let log = outcome.recovery;
    let run = RecoveryRun {
        name: name.to_string(),
        perf: perf_of(&outcome.report),
        sink_counts,
        checkpoints: log.checkpoints().len(),
        recoveries: log.recoveries().len(),
    };
    Ok((run, log, collected))
}

/// Run the full comparison: the uninterrupted session and the
/// crash-and-recover session over the same punctuated fig18-equi input.
pub fn run_recovery_bench(
    duration_secs: f64,
    rate: f64,
    shards: usize,
) -> Result<RecoveryBenchReport> {
    let scenario: Scenario = equi_heavy_scenario(duration_secs, rate);
    let workload = build_workload(&scenario)?;
    let (a, b) = scenario.generator().generate_pair();
    let items = punctuated(state_slice_core::planner::merge_streams(a, b));
    if items.is_empty() {
        return Err(StreamError::InvalidConfig(
            "recovery bench needs a non-empty stream".to_string(),
        ));
    }
    let recovery = RecoveryConfig::default();
    // Crash past the halfway mark so at least one interval checkpoint is
    // durable before the fault fires (epochs advance one per second).
    let crash_epoch = ((duration_secs * 0.6) as u64).max(2);

    let (clean, clean_log, clean_results) =
        run_session("uninterrupted", &workload, &items, shards, recovery, None)?;
    if !clean_log.is_clean() {
        return Err(StreamError::Execution(
            "the uninterrupted session recovered from a phantom fault".to_string(),
        ));
    }

    // The injected panic unwinds through the global hook before the worker
    // harness catches it; keep the report readable.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = run_session(
        "crash-recover",
        &workload,
        &items,
        shards,
        recovery,
        Some(FaultPlan::panic_at(crash_epoch)),
    );
    std::panic::set_hook(hook);
    let (crashed, crash_log, crashed_results) = crashed?;

    let results_match = clean_results == crashed_results;
    Ok(RecoveryBenchReport {
        duration_secs,
        rate,
        shards,
        checkpoint_every_epochs: recovery.checkpoint_every_epochs,
        crash_epoch,
        runs: vec![clean, crashed],
        log: crash_log,
        results_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_recover_matches_the_uninterrupted_session() {
        let report = run_recovery_bench(8.0, 40.0, 2).unwrap();
        assert!(report.results_match, "runs: {:#?}", report.runs);
        assert_eq!(report.run("crash-recover").recoveries, 1);
        assert_eq!(report.run("uninterrupted").recoveries, 0);
        assert!(report.replayed() > 0, "the ring must replay something");
        assert!(report.recovery_secs() > 0.0);
        assert!(report.run("uninterrupted").checkpoints > 1);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"crash_recovery\""));
        assert!(json.contains("\"results_match\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
