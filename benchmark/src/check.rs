//! The output check: what the paced passes delivered must be what the
//! unshared queries deliver (the paper's equivalence claim), and a prefix
//! must match the brute-force oracle result for result.

use std::time::Instant;

use ss_baselines::{UnsharedPlanBuilder, ENTRY_A, ENTRY_B};
use state_slice_core::{
    collected_fingerprints, expected_fingerprints, expected_results, PlannerOptions,
};
use streamkit::{ExecutionReport, Executor, StreamId};

use crate::bench::Input;
use crate::harness::WallClock;
use crate::workloads::{Engine, WorkloadSpec};

/// Tuples of the stream's head compared result by result with the oracle
/// (the oracle is quadratic in this).
const ORACLE_PREFIX: usize = 2_000;

/// The outcome of the un-timed output check.
pub struct Checked {
    /// Final per-sink counts equal an unshared drain of the same stream.
    pub final_counts_match: bool,
    /// The result multisets of the prefix equal the oracle's.
    pub prefix_matches: bool,
    /// The unshared drain, kept as the reference of the `sharing.*` ratios.
    pub unshared: ExecutionReport,
    pub unshared_secs: f64,
}

impl Checked {
    pub fn all(&self) -> bool {
        self.final_counts_match && self.prefix_matches
    }
}

/// One independent plan per query over the whole stream, fed epoch by epoch
/// back to back.  (Queueing the whole stream at once instead parks millions
/// of results between the joins and the sinks and runs five times slower.)
fn drain_unshared(input: &Input) -> Result<(ExecutionReport, f64), String> {
    let built = UnsharedPlanBuilder::new()
        .build(&input.queries)
        .map_err(|e| e.to_string())?;
    let mut exec = Executor::new(built.plan);
    let epochs = input.epochs.clone();
    let start = Instant::now();
    let mut report = None;
    for epoch in epochs {
        let (a, b): (Vec<_>, Vec<_>) = epoch.into_iter().partition(|t| t.stream == StreamId::A);
        exec.ingest_all(ENTRY_A, a).map_err(|e| e.to_string())?;
        exec.ingest_all(ENTRY_B, b).map_err(|e| e.to_string())?;
        report = Some(exec.run().map_err(|e| e.to_string())?);
    }
    let report = report.ok_or("the stream has no epochs")?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// Run the workload's own engine configuration, with retaining sinks, over
/// the stream's first [`ORACLE_PREFIX`] tuples and compare every query's
/// result multiset with `state_slice_core::verify::expected_results`.
fn prefix_matches_oracle(spec: &WorkloadSpec, input: &Input) -> Result<bool, String> {
    let prefix: Vec<_> = input
        .epochs
        .iter()
        .flatten()
        .take(ORACLE_PREFIX)
        .cloned()
        .collect();
    let expected = expected_results(&input.queries, &prefix);
    let options = PlannerOptions {
        retain_results: true,
        ..PlannerOptions::default()
    };
    let (mut engine, _) = Engine::build(spec, &input.queries, options, &WallClock::new())
        .map_err(|e| e.to_string())?;
    engine.ingest_all(prefix).map_err(|e| e.to_string())?;
    engine.run().map_err(|e| e.to_string())?;
    Ok(input.sink_names.iter().all(|name| {
        let got = collected_fingerprints(&engine.sink_collected(name));
        expected
            .get(name)
            .is_some_and(|want| got == expected_fingerprints(want))
    }))
}

/// Check the passes' final per-sink counts and the oracle prefix.
pub fn check_outputs(
    spec: &WorkloadSpec,
    input: &Input,
    final_counts: &[u64],
) -> Result<Checked, String> {
    let (unshared, unshared_secs) = drain_unshared(input)?;
    let reference: Vec<u64> = input
        .sink_names
        .iter()
        .map(|n| unshared.sink_count(n))
        .collect();
    Ok(Checked {
        final_counts_match: final_counts == reference,
        prefix_matches: prefix_matches_oracle(spec, input)?,
        unshared,
        unshared_secs,
    })
}
