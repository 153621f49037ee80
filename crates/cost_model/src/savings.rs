//! Equation 4: relative savings of the state-slice chain (Figure 11).
//!
//! Each saving is `(C_alt - C_slice) / C_alt`, i.e. the fraction of the
//! alternative strategy's cost that state-slicing avoids.  The paper reports
//! closed forms in terms of the window ratio `ρ = W1/W2`, the filter
//! selectivity `Sσ` and the join selectivity `S⋈`; for the CPU savings those
//! closed forms drop the terms linear in λ (cheap per-tuple overheads), which
//! is a good approximation at realistic rates.  We provide both the closed
//! forms and exact ratios computed from Equations 1–3.

use crate::params::SystemParams;
use crate::pullup::pullup_cost;
use crate::pushdown::pushdown_cost;
use crate::state_slice::state_slice_cost;

/// One point of the Figure 11 saving surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsPoint {
    /// Window ratio ρ = W1 / W2.
    pub rho: f64,
    /// Filter selectivity Sσ.
    pub sel_filter: f64,
    /// Join selectivity S⋈.
    pub sel_join: f64,
    /// Memory saving vs. selection pull-up, in `[0, 1]`.
    pub mem_vs_pullup: f64,
    /// Memory saving vs. selection push-down, in `[0, 1]`.
    pub mem_vs_pushdown: f64,
    /// CPU saving vs. selection pull-up, in `[0, 1]`.
    pub cpu_vs_pullup: f64,
    /// CPU saving vs. selection push-down, in `[0, 1]`.
    pub cpu_vs_pushdown: f64,
}

impl SavingsPoint {
    /// Evaluate every saving of Equation 4 (exact ratios) at one parameter
    /// combination.
    pub fn evaluate(params: &SystemParams) -> SavingsPoint {
        SavingsPoint {
            rho: params.rho(),
            sel_filter: params.sel_filter,
            sel_join: params.sel_join,
            mem_vs_pullup: mem_saving_vs_pullup(params),
            mem_vs_pushdown: mem_saving_vs_pushdown(params),
            cpu_vs_pullup: cpu_saving_vs_pullup(params),
            cpu_vs_pushdown: cpu_saving_vs_pushdown(params),
        }
    }
}

fn ratio(alt: f64, slice: f64) -> f64 {
    if alt <= 0.0 {
        0.0
    } else {
        (alt - slice) / alt
    }
}

/// Exact memory saving vs. the selection pull-up plan.
pub fn mem_saving_vs_pullup(p: &SystemParams) -> f64 {
    ratio(pullup_cost(p).memory_kb, state_slice_cost(p).memory_kb)
}

/// Exact memory saving vs. the selection push-down plan.
pub fn mem_saving_vs_pushdown(p: &SystemParams) -> f64 {
    ratio(pushdown_cost(p).memory_kb, state_slice_cost(p).memory_kb)
}

/// Exact CPU saving vs. the selection pull-up plan.
pub fn cpu_saving_vs_pullup(p: &SystemParams) -> f64 {
    ratio(pullup_cost(p).cpu_per_sec, state_slice_cost(p).cpu_per_sec)
}

/// Exact CPU saving vs. the selection push-down plan.
pub fn cpu_saving_vs_pushdown(p: &SystemParams) -> f64 {
    ratio(
        pushdown_cost(p).cpu_per_sec,
        state_slice_cost(p).cpu_per_sec,
    )
}

/// Closed form of the memory saving vs. pull-up:
/// `(1 - ρ)(1 - Sσ) / 2`.
pub fn mem_saving_vs_pullup_closed_form(rho: f64, sel_filter: f64) -> f64 {
    (1.0 - rho) * (1.0 - sel_filter) / 2.0
}

/// Closed form of the memory saving vs. push-down:
/// `ρ / (1 + 2ρ + (1 - ρ) Sσ)`.
pub fn mem_saving_vs_pushdown_closed_form(rho: f64, sel_filter: f64) -> f64 {
    let denom = 1.0 + 2.0 * rho + (1.0 - rho) * sel_filter;
    if denom <= 0.0 {
        0.0
    } else {
        rho / denom
    }
}

/// Closed form of the CPU saving vs. pull-up (λ-linear terms dropped):
/// `((1 - ρ)(1 - Sσ) + (2 - ρ) S⋈) / (1 + 2 S⋈)`.
pub fn cpu_saving_vs_pullup_closed_form(rho: f64, sel_filter: f64, sel_join: f64) -> f64 {
    ((1.0 - rho) * (1.0 - sel_filter) + (2.0 - rho) * sel_join) / (1.0 + 2.0 * sel_join)
}

/// Closed form of the CPU saving vs. push-down (λ-linear terms dropped):
/// `Sσ S⋈ / (ρ (1 - Sσ) + Sσ + Sσ S⋈ + ρ S⋈)`.
pub fn cpu_saving_vs_pushdown_closed_form(rho: f64, sel_filter: f64, sel_join: f64) -> f64 {
    let denom = rho * (1.0 - sel_filter) + sel_filter + sel_filter * sel_join + rho * sel_join;
    if denom <= 0.0 {
        0.0
    } else {
        sel_filter * sel_join / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rho: f64, sel_filter: f64, sel_join: f64, lambda: f64) -> SystemParams {
        let w2 = 100.0;
        SystemParams::symmetric(lambda, rho * w2, w2, sel_filter, sel_join)
    }

    #[test]
    fn closed_form_memory_savings_match_exact_ratios() {
        for &rho in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            for &s in &[0.0, 0.2, 0.5, 0.8, 1.0] {
                let p = params(rho, s, 0.1, 50.0);
                let exact = mem_saving_vs_pullup(&p);
                let closed = mem_saving_vs_pullup_closed_form(rho, s);
                assert!(
                    (exact - closed).abs() < 1e-9,
                    "pull-up memory mismatch at rho={rho}, s={s}: {exact} vs {closed}"
                );
                let exact = mem_saving_vs_pushdown(&p);
                let closed = mem_saving_vs_pushdown_closed_form(rho, s);
                assert!(
                    (exact - closed).abs() < 1e-9,
                    "push-down memory mismatch at rho={rho}, s={s}: {exact} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn closed_form_cpu_savings_approximate_exact_ratios_at_high_rate() {
        // The closed forms drop λ-linear terms; at high λ they converge to the
        // exact ratios.
        for &rho in &[0.1, 0.5, 0.9] {
            for &s in &[0.2, 0.5, 0.8] {
                for &sj in &[0.025, 0.1, 0.4] {
                    let p = params(rho, s, sj, 10_000.0);
                    let exact = cpu_saving_vs_pullup(&p);
                    let closed = cpu_saving_vs_pullup_closed_form(rho, s, sj);
                    assert!(
                        (exact - closed).abs() < 0.01,
                        "pull-up cpu mismatch at rho={rho}, s={s}, sj={sj}: {exact} vs {closed}"
                    );
                    let exact = cpu_saving_vs_pushdown(&p);
                    let closed = cpu_saving_vs_pushdown_closed_form(rho, s, sj);
                    assert!(
                        (exact - closed).abs() < 0.01,
                        "push-down cpu mismatch at rho={rho}, s={s}, sj={sj}: {exact} vs {closed}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_savings_are_non_negative_everywhere() {
        // The paper: "from Eq. 4 we can see that all the savings are positive".
        // (The closed forms ignore the λ-linear per-tuple overheads.)
        for &rho in &[0.05, 0.3, 0.6, 0.95] {
            for &s in &[0.0, 0.3, 0.7, 1.0] {
                for &sj in &[0.0, 0.1, 0.4] {
                    assert!(mem_saving_vs_pullup_closed_form(rho, s) >= -1e-12);
                    assert!(mem_saving_vs_pushdown_closed_form(rho, s) >= -1e-12);
                    assert!(cpu_saving_vs_pullup_closed_form(rho, s, sj) >= -1e-12);
                    assert!(cpu_saving_vs_pushdown_closed_form(rho, s, sj) >= -1e-12);
                    assert!(mem_saving_vs_pullup_closed_form(rho, s) <= 1.0);
                    assert!(cpu_saving_vs_pullup_closed_form(rho, s, sj) <= 1.0);
                }
            }
        }
    }

    #[test]
    fn exact_savings_are_non_negative_for_moderate_settings() {
        // The experimental section uses "moderate instead of extreme"
        // settings (Sσ in 0.2..0.8, S⋈ >= 0.025); for those the exact ratios
        // (including the λ-linear terms) are non-negative too.
        for &rho in &[0.1, 0.3, 0.6, 0.9] {
            for &s in &[0.2, 0.5, 0.8] {
                for &sj in &[0.025, 0.1, 0.4] {
                    let p = params(rho, s, sj, 40.0);
                    let pt = SavingsPoint::evaluate(&p);
                    assert!(pt.mem_vs_pullup >= -1e-12);
                    assert!(pt.mem_vs_pushdown >= -1e-12);
                    assert!(pt.cpu_vs_pullup >= -1e-12);
                    assert!(pt.cpu_vs_pushdown >= -1e-12);
                }
            }
        }
    }

    #[test]
    fn extreme_settings_reach_the_paper_headline_numbers() {
        // Figure 11(a)/(b): memory savings approach ~50 % and CPU savings
        // approach ~100 % for extreme parameter combinations.
        let best_mem = mem_saving_vs_pullup_closed_form(0.01, 0.01);
        assert!(best_mem > 0.48);
        let best_cpu = cpu_saving_vs_pullup_closed_form(0.01, 0.01, 0.4);
        assert!(best_cpu > 0.9);
    }

    #[test]
    fn no_selection_base_case() {
        // Sσ = 1: same memory as pull-up, CPU saving proportional to S⋈.
        let p = params(0.3, 1.0, 0.2, 100.0);
        assert!(mem_saving_vs_pullup(&p).abs() < 1e-9);
        assert!(cpu_saving_vs_pullup(&p) > 0.0);
        let small = cpu_saving_vs_pullup_closed_form(0.3, 1.0, 0.05);
        let large = cpu_saving_vs_pullup_closed_form(0.3, 1.0, 0.4);
        assert!(large > small);
    }

    /// Figure 11's grid, indexed `[S⋈][ρ][Sσ]`: ρ and Sσ in 0.1…0.9 for
    /// each of the paper's three join selectivities, at λ = 50 t/s and
    /// W2 = 60 s.
    fn fig11_grid() -> [[[SavingsPoint; 9]; 9]; 3] {
        [0.4, 0.1, 0.025].map(|sel_join| {
            std::array::from_fn(|i| {
                std::array::from_fn(|j| {
                    let (rho, sel_filter, w2) =
                        ((i + 1) as f64 / 10.0, (j + 1) as f64 / 10.0, 60.0);
                    let params = SystemParams::symmetric(50.0, rho * w2, w2, sel_filter, sel_join);
                    SavingsPoint::evaluate(&params)
                })
            })
        })
    }

    #[test]
    fn fig11_surfaces_have_the_model_directions() {
        type Saving = fn(&SavingsPoint) -> f64;
        // (saving, rises in ρ, rises in Sσ)
        let savings: [(&str, Saving, bool, bool); 4] = [
            ("mem vs pull-up", |p| p.mem_vs_pullup, false, false),
            ("mem vs push-down", |p| p.mem_vs_pushdown, true, false),
            ("cpu vs pull-up", |p| p.cpu_vs_pullup, false, false),
            ("cpu vs push-down", |p| p.cpu_vs_pushdown, false, true),
        ];
        let grid = fig11_grid();
        for p in grid.iter().flatten().flatten() {
            for (name, saving, ..) in savings {
                let v = saving(p);
                assert!((0.002..1.0).contains(&v), "{name} = {v} at {p:?}");
            }
            assert!(p.mem_vs_pullup <= 0.5, "{p:?}");
            assert!(p.cpu_vs_pullup > p.cpu_vs_pushdown, "{p:?}");
        }

        // Every adjacent pair along ρ and along Sσ (216 per axis) moves each
        // saving strictly the model's way.
        let moves = |name: &str, axis: &str, here: f64, next: f64, rises: bool| {
            let ok = if rises { next > here } else { next < here };
            assert!(ok, "{name} along {axis}: {here} -> {next}");
        };
        for (name, saving, rises_in_rho, rises_in_sel) in savings {
            for surface in &grid {
                for i in 0..9 {
                    for j in 0..9 {
                        let here = saving(&surface[i][j]);
                        if i < 8 {
                            moves(name, "rho", here, saving(&surface[i + 1][j]), rises_in_rho);
                        }
                        if j < 8 {
                            moves(
                                name,
                                "Ssigma",
                                here,
                                saving(&surface[i][j + 1]),
                                rises_in_sel,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_denominators_yield_zero() {
        assert_eq!(mem_saving_vs_pushdown_closed_form(0.0, 0.0), 0.0);
        assert_eq!(cpu_saving_vs_pushdown_closed_form(0.0, 0.0, 0.0), 0.0);
        let zero = SystemParams::symmetric(0.0, 0.0, 0.0, 0.5, 0.1);
        assert_eq!(mem_saving_vs_pullup(&zero), 0.0);
        assert_eq!(cpu_saving_vs_pullup(&zero), 0.0);
    }
}
