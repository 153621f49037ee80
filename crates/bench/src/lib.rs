//! Experiment harness for the State-Slice reproduction.
//!
//! * [`runner`] — run one scenario under one sharing strategy and collect
//!   the metrics the paper reports (state memory, service rate, comparisons),
//! * [`figures`] — the sweeps behind Figures 11, 17, 18 and 19,
//! * [`table2`] — the execution trace of Table 2,
//! * [`churn`] — the live-query-churn harness: online add/remove of queries
//!   with in-executor chain re-slicing vs a statically-planned oracle
//!   (written to `BENCH_churn.json`),
//! * [`recovery`] — the crash-recovery harness: an injected worker panic
//!   mid-stream, recovered from a punctuation-aligned checkpoint plus
//!   replay, vs an uninterrupted session (written to
//!   `BENCH_recovery.json`),
//! * [`adaptive`] — the adaptive re-optimization harness: a drifting
//!   workload under static chains vs a live re-planning supervisor (written
//!   to `BENCH_adaptive.json`).
//!
//! The binaries `fig11`, `fig17`, `fig18`, `fig19` and `table2` print the
//! corresponding rows and `bench_report` runs the churn, adaptive and
//! recovery harnesses (engine throughput, latency and state memory are
//! measured by the `benchmark/` package instead); the criterion benches
//! under `benches/` time scaled-down versions of the same sweeps plus the
//! `probe_scaling` state-size × key-cardinality grid.
//! `EXPERIMENTS.md` records the paper-vs-measured comparison.

pub mod adaptive;
pub mod churn;
pub mod figures;
pub mod recovery;
pub mod runner;
pub mod table2;

pub use adaptive::{drift_profile, run_adaptive_bench, AdaptiveBenchReport, AdaptiveRun};
pub use churn::{run_churn_bench, ChurnBenchReport, ChurnRun, InstanceCheck};
pub use figures::{
    fig11_rows, figure_17_18_panels, figure_18_extra_panels, figure_19_panels, format_rows,
    measure_fig19, measure_panels, Fig11Row, MeasuredRow,
};
pub use recovery::{run_recovery_bench, RecoveryBenchReport, RecoveryRun};
pub use runner::{
    build_workload, cost_config, run_strategies, run_strategy, RunMetrics, RunPerf, Strategy,
};
pub use table2::{format_table2, table2_trace, TraceRow};

/// Stream duration (seconds) used by the figure binaries unless overridden by
/// the `SS_DURATION_SECS` environment variable.  The paper runs 90-second
/// streams; 30 seconds keeps a full sweep tractable on a laptop while
/// preserving every qualitative trend.
pub fn default_duration_secs() -> f64 {
    duration_secs_from(std::env::var("SS_DURATION_SECS").ok().as_deref())
}

/// The duration a raw `SS_DURATION_SECS` value selects: a positive finite
/// number of seconds, else 30 (saying so on stderr when the value was set).
fn duration_secs_from(raw: Option<&str>) -> f64 {
    const DEFAULT_SECS: f64 = 30.0;
    let Some(raw) = raw else {
        return DEFAULT_SECS;
    };
    match raw.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => secs,
        _ => {
            eprintln!(
                "ss_bench: SS_DURATION_SECS='{raw}' is not a positive finite number of seconds; using {DEFAULT_SECS}"
            );
            DEFAULT_SECS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::duration_secs_from;

    #[test]
    fn default_duration_is_positive() {
        assert!(super::default_duration_secs() > 0.0);
    }

    #[test]
    fn unusable_duration_values_fall_back_to_the_default() {
        assert_eq!(duration_secs_from(None), 30.0);
        assert_eq!(duration_secs_from(Some("12.5")), 12.5);
        for unusable in ["inf", "NaN", "-1", "abc"] {
            assert_eq!(duration_secs_from(Some(unusable)), 30.0, "{unusable}");
        }
    }
}
