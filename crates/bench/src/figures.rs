//! Row generators for the measured figures of the paper's evaluation.
//!
//! Each generator returns plain data rows; the `fig17` / `fig18` / `fig19`
//! binaries print them.  Figure 11 is analytic: `examples/cost_explorer.rs`
//! prints its surfaces and a `ss_cost_model::savings` test asserts their
//! directions.  Table 2 is a golden test in `table2`'s tests.
//! See `EXPERIMENTS.md` for the mapping and the recorded paper-vs-measured
//! comparison.

use ss_workload::{Scenario, WindowDistribution};
use streamkit::error::Result;

use crate::runner::{run_strategies, RunMetrics, Strategy};

/// One measured point of Figures 17 / 18: a panel, an input rate, a strategy
/// and its metrics.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Panel label, e.g. `"(a) Mostly-Small, S1=0.1, Ssigma=0.5"`.
    pub panel: String,
    /// Input rate in tuples/second (per stream).
    pub rate: f64,
    /// The sharing strategy.
    pub strategy: Strategy,
    /// The measured metrics.
    pub metrics: RunMetrics,
}

/// The six panels of Figure 17 (state memory) and Figure 18 (service rate):
/// window distribution, join selectivity `S⋈` and filter selectivity `Sσ`.
pub fn figure_17_18_panels() -> Vec<(String, WindowDistribution, f64, f64)> {
    vec![
        // Figure 17(a)-(c) / 18(a)-(c): vary the window distribution.
        ("(a)".into(), WindowDistribution::MostlySmall, 0.1, 0.5),
        ("(b)".into(), WindowDistribution::Uniform, 0.1, 0.5),
        ("(c)".into(), WindowDistribution::MostlyLarge, 0.1, 0.5),
        // Figure 17(d)-(f): vary Sσ at S⋈ = 0.025; Figure 18(d)-(f) varies
        // S⋈ at Sσ = 0.8 — both parameterisations are covered by the sweep
        // helpers below.
        ("(d)".into(), WindowDistribution::Uniform, 0.025, 0.2),
        ("(e)".into(), WindowDistribution::Uniform, 0.025, 0.5),
        ("(f)".into(), WindowDistribution::Uniform, 0.025, 0.8),
    ]
}

/// The three extra panels of Figure 18(d)-(f): Sσ = 0.8 with increasing S⋈.
pub fn figure_18_extra_panels() -> Vec<(String, WindowDistribution, f64, f64)> {
    vec![
        ("(d)".into(), WindowDistribution::Uniform, 0.025, 0.8),
        ("(e)".into(), WindowDistribution::Uniform, 0.1, 0.8),
        ("(f)".into(), WindowDistribution::Uniform, 0.4, 0.8),
    ]
}

/// Run the Figure 17 / 18 sweep: every panel, every input rate, the three
/// strategies of the paper.  `duration_secs` scales the stream length (the
/// paper uses 90 s); `rates` defaults to the paper's 20–80 sweep.
pub fn measure_panels(
    panels: &[(String, WindowDistribution, f64, f64)],
    rates: &[f64],
    duration_secs: f64,
    seed: u64,
) -> Result<Vec<MeasuredRow>> {
    let mut rows = Vec::new();
    for (label, dist, sel_join, sel_filter) in panels {
        for &rate in rates {
            let scenario = Scenario {
                rate,
                duration_secs,
                num_queries: 3,
                distribution: *dist,
                sel_filter: *sel_filter,
                sel_join: *sel_join,
                seed,
            };
            let panel = format!(
                "{label} {}, S1={sel_join}, Ssigma={sel_filter}",
                dist.name()
            );
            for (strategy, metrics) in run_strategies(&scenario, &Strategy::FIGURE_17_18)? {
                rows.push(MeasuredRow {
                    panel: panel.clone(),
                    rate,
                    strategy,
                    metrics,
                });
            }
        }
    }
    Ok(rows)
}

/// The five panels of Figure 19: query count and window distribution.
pub fn figure_19_panels() -> Vec<(String, usize, WindowDistribution)> {
    vec![
        (
            "(a) Uniform, 12 Queries".into(),
            12,
            WindowDistribution::Uniform,
        ),
        (
            "(b) Mostly-Small, 12 Queries".into(),
            12,
            WindowDistribution::MostlySmall,
        ),
        (
            "(c) Small-Large, 12 Queries".into(),
            12,
            WindowDistribution::SmallLarge,
        ),
        (
            "(d) Small-Large, 24 Queries".into(),
            24,
            WindowDistribution::SmallLarge,
        ),
        (
            "(e) Small-Large, 36 Queries".into(),
            36,
            WindowDistribution::SmallLarge,
        ),
    ]
}

/// Run the Figure 19 sweep: Mem-Opt vs CPU-Opt chains, no selections,
/// S⋈ = 0.025 (Section 7.3).
pub fn measure_fig19(
    panels: &[(String, usize, WindowDistribution)],
    rates: &[f64],
    duration_secs: f64,
    seed: u64,
) -> Result<Vec<MeasuredRow>> {
    let mut rows = Vec::new();
    for (label, num_queries, dist) in panels {
        for &rate in rates {
            let scenario = Scenario {
                rate,
                duration_secs,
                num_queries: *num_queries,
                distribution: *dist,
                sel_filter: 1.0,
                sel_join: 0.025,
                seed,
            };
            for (strategy, metrics) in run_strategies(
                &scenario,
                &[Strategy::StateSliceMemOpt, Strategy::StateSliceCpuOpt],
            )? {
                rows.push(MeasuredRow {
                    panel: label.clone(),
                    rate,
                    strategy,
                    metrics,
                });
            }
        }
    }
    Ok(rows)
}

/// Render measured rows as an aligned text table (one line per row).
pub fn format_rows(rows: &[MeasuredRow], value: impl Fn(&RunMetrics) -> f64, unit: &str) -> String {
    let mut out = String::new();
    let mut current_panel = String::new();
    for row in rows {
        if row.panel != current_panel {
            current_panel = row.panel.clone();
            out.push_str(&format!("\n## {current_panel}\n"));
            out.push_str(&format!(
                "{:<10} {:<22} {:>16}\n",
                "rate(t/s)", "strategy", unit
            ));
        }
        out.push_str(&format!(
            "{:<10} {:<22} {:>16.1}\n",
            row.rate,
            row.strategy.label(),
            value(&row.metrics)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_definitions_match_the_paper() {
        assert_eq!(figure_17_18_panels().len(), 6);
        assert_eq!(figure_18_extra_panels().len(), 3);
        let f19 = figure_19_panels();
        assert_eq!(f19.len(), 5);
        assert_eq!(f19[4].1, 36);
    }

    #[test]
    fn measured_sweep_produces_rows_for_every_cell() {
        let panels = vec![("(test)".to_string(), WindowDistribution::Uniform, 0.1, 0.5)];
        let rows = measure_panels(&panels, &[20.0], 5.0, 1).unwrap();
        assert_eq!(rows.len(), 3);
        let text = format_rows(&rows, |m| m.avg_state_tuples, "state(tuples)");
        assert!(text.contains("State-Slice-Chain"));
        assert!(text.contains("Selection-PullUp"));
    }

    #[test]
    fn fig19_sweep_compares_memopt_and_cpuopt() {
        let panels = vec![(
            "(test) Small-Large, 6 Queries".to_string(),
            6usize,
            WindowDistribution::SmallLarge,
        )];
        let rows = measure_fig19(&panels, &[20.0], 4.0, 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r.strategy == Strategy::StateSliceCpuOpt));
    }
}
