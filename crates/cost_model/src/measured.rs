//! Measured (runtime-observed) cost-model parameters.
//!
//! The chain model in [`crate::chain`] is normally driven by *declared*
//! workload parameters — the arrival rates and selectivities a query was
//! registered with.  Adaptive re-optimization instead feeds back values the
//! executor actually measured (windowed arrival rates in stream-time
//! tuples/second, the join selectivity), so that re-costing Mem-Opt against
//! CPU-Opt runs against reality rather than the original declaration.
//!
//! [`MeasuredParams`] is a plain carrier: every field is optional, and
//! [`MeasuredParams::apply_to`] overlays only the fields that were actually
//! observed (finite, in-range) onto a declared [`ChainParams`].  Smoothing is
//! the producer's job — the executor hands over EWMA-smoothed values — so
//! this module performs no filtering beyond sanity clamps.

use crate::chain::ChainParams;

/// Runtime-measured overrides for the declared chain parameters.
///
/// Any field left `None` (or out of range) falls through to the declared
/// value in [`MeasuredParams::apply_to`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredParams {
    /// Measured arrival rate of stream A, tuples per stream-time second.
    pub rate_a: Option<f64>,
    /// Measured arrival rate of stream B, tuples per stream-time second.
    pub rate_b: Option<f64>,
    /// Measured join selectivity S⋈ (output / Cartesian-product output).
    pub sel_join: Option<f64>,
    /// Measured per-operator system overhead `C_sys`, comparisons-equivalent
    /// per input tuple per operator.
    pub csys: Option<f64>,
}

impl MeasuredParams {
    /// Overlay the measured values onto declared chain parameters.
    ///
    /// Rates and `csys` are taken when finite and non-negative; the join
    /// selectivity additionally must land in `[0, 1]`.  Windows always come
    /// from the declaration — measurement cannot change what the queries
    /// asked for.
    pub fn apply_to(&self, declared: &ChainParams) -> ChainParams {
        let mut out = declared.clone();
        if let Some(r) = valid_rate(self.rate_a) {
            out.lambda_a = r;
        }
        if let Some(r) = valid_rate(self.rate_b) {
            out.lambda_b = r;
        }
        if let Some(s) = self
            .sel_join
            .filter(|s| s.is_finite() && (0.0..=1.0).contains(s))
        {
            out.sel_join = s;
        }
        if let Some(c) = valid_rate(self.csys) {
            out.csys = c;
        }
        out
    }
}

fn valid_rate(v: Option<f64>) -> Option<f64> {
    v.filter(|r| r.is_finite() && *r >= 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{chain_cost, mem_opt_cost};

    fn declared() -> ChainParams {
        ChainParams::symmetric(20.0, vec![10.0, 30.0], 0.1, 1.0)
    }

    #[test]
    fn empty_measurement_changes_nothing() {
        let m = MeasuredParams::default();
        assert_eq!(m.apply_to(&declared()), declared());
    }

    #[test]
    fn measured_fields_override_declared_ones() {
        let m = MeasuredParams {
            rate_a: Some(35.0),
            sel_join: Some(0.004),
            ..MeasuredParams::default()
        };
        let p = m.apply_to(&declared());
        assert_eq!(p.lambda_a, 35.0);
        assert_eq!(p.lambda_b, 20.0); // untouched
        assert_eq!(p.sel_join, 0.004);
        assert_eq!(p.csys, 1.0);
        assert_eq!(p.windows, declared().windows);
    }

    #[test]
    fn out_of_range_measurements_fall_through() {
        let m = MeasuredParams {
            rate_a: Some(f64::NAN),
            rate_b: Some(-3.0),
            sel_join: Some(1.5),
            csys: Some(f64::INFINITY),
        };
        assert_eq!(m.apply_to(&declared()), declared());
    }

    #[test]
    fn recosting_with_measured_rates_scales_chain_cost() {
        let d = declared();
        let m = MeasuredParams {
            rate_a: Some(2.0 * d.lambda_a),
            rate_b: Some(2.0 * d.lambda_b),
            ..MeasuredParams::default()
        };
        let p = m.apply_to(&d);
        // Purge / system terms are linear in the rates and the probe term is
        // quadratic, so doubling both rates must more than double the cost.
        let base = mem_opt_cost(&d).total();
        let measured = mem_opt_cost(&p).total();
        assert!(measured > 2.0 * base);
        // Same monotonicity along an explicit path.
        let path = [0, 2];
        assert!(chain_cost(&p, &path).total() > chain_cost(&d, &path).total());
    }
}
