//! Predicates over single tuples and join conditions over tuple pairs.
//!
//! Every predicate evaluation reports the number of value comparisons it
//! performed, because the paper's CPU cost metric is a comparison count
//! (Section 3: "we use the count of comparisons per time unit as the metric
//! for estimated CPU costs").

use crate::tuple::{Tuple, Value};

/// Comparison operator of a [`Predicate::Compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering.
    pub fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over a single tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (selectivity 1).
    True,
    /// Always false (selectivity 0).
    False,
    /// Compare a field against a constant.
    Compare {
        /// Field index in the tuple.
        field: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Compare two fields of the same tuple.
    CompareFields {
        /// Left field index.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right field index.
        right: usize,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `field op value` comparison predicate.
    pub fn cmp(field: usize, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            field,
            op,
            value: value.into(),
        }
    }

    /// `field > value` shortcut (the paper's running example uses
    /// `A.Value > Threshold`).
    pub fn gt(field: usize, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(field, CmpOp::Gt, value)
    }

    /// `field <= value` shortcut.
    pub fn le(field: usize, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(field, CmpOp::Le, value)
    }

    /// `field = value` shortcut.
    pub fn eq(field: usize, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(field, CmpOp::Eq, value)
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, p) | (p, Predicate::False) => p,
            (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
            (a, b) => Predicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation helper.
    pub fn negate(self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Not(inner) => *inner,
            p => Predicate::Not(Box::new(p)),
        }
    }

    /// Disjunction of an arbitrary number of predicates.  Used to build the
    /// pushed-down selection `σ'_i = cond_i ∨ cond_{i+1} ∨ ... ∨ cond_N`
    /// (Section 6.1 of the paper).  The disjunction of an empty set is
    /// `False`.
    pub fn disjunction<I: IntoIterator<Item = Predicate>>(preds: I) -> Predicate {
        preds.into_iter().fold(Predicate::False, |acc, p| acc.or(p))
    }

    /// Evaluate the predicate.  Returns the boolean result and adds the
    /// number of value comparisons performed to `comparisons`.
    pub fn eval_counted(&self, tuple: &Tuple, comparisons: &mut u64) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Compare { field, op, value } => {
                *comparisons += 1;
                match tuple.value(*field) {
                    Some(v) => op.apply(v.compare(value)),
                    None => false,
                }
            }
            Predicate::CompareFields { left, op, right } => {
                *comparisons += 1;
                match (tuple.value(*left), tuple.value(*right)) {
                    (Some(l), Some(r)) => op.apply(l.compare(r)),
                    _ => false,
                }
            }
            Predicate::And(a, b) => {
                a.eval_counted(tuple, comparisons) && b.eval_counted(tuple, comparisons)
            }
            Predicate::Or(a, b) => {
                a.eval_counted(tuple, comparisons) || b.eval_counted(tuple, comparisons)
            }
            Predicate::Not(p) => !p.eval_counted(tuple, comparisons),
        }
    }

    /// Evaluate the predicate without counting comparisons.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        let mut scratch = 0;
        self.eval_counted(tuple, &mut scratch)
    }

    /// `true` for the trivial `True` predicate (no selection present).
    pub fn is_true(&self) -> bool {
        matches!(self, Predicate::True)
    }
}

/// Join condition between a pair of tuples.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinCondition {
    /// Cartesian product: every pair matches.
    Cross,
    /// Equality between a left-tuple field and a right-tuple field (the
    /// paper's running example joins on `LocationId`).
    Equi {
        /// Field index in the left tuple.
        left_field: usize,
        /// Field index in the right tuple.
        right_field: usize,
    },
    /// Arbitrary theta comparison between a left field and a right field.
    Theta {
        /// Field index in the left tuple.
        left_field: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Field index in the right tuple.
        right_field: usize,
    },
    /// Conjunction of two join conditions.
    And(Box<JoinCondition>, Box<JoinCondition>),
}

impl JoinCondition {
    /// Equi-join on the same field index of both inputs.
    pub fn equi(field: usize) -> JoinCondition {
        JoinCondition::Equi {
            left_field: field,
            right_field: field,
        }
    }

    /// Evaluate the condition for a `(left, right)` pair, counting value
    /// comparisons into `comparisons`.
    pub fn eval_counted(&self, left: &Tuple, right: &Tuple, comparisons: &mut u64) -> bool {
        match self {
            JoinCondition::Cross => {
                // Even the cross product performs the window/timestamp check,
                // which the window state handles; no value comparison here.
                true
            }
            JoinCondition::Equi {
                left_field,
                right_field,
            } => {
                // Count only when both fields exist: the counter contract is
                // "counters equal actual value comparisons", and an absent
                // field short-circuits to false before any compare runs.
                match (left.value(*left_field), right.value(*right_field)) {
                    (Some(l), Some(r)) => {
                        *comparisons += 1;
                        l.compare(r) == std::cmp::Ordering::Equal
                    }
                    _ => false,
                }
            }
            JoinCondition::Theta {
                left_field,
                op,
                right_field,
            } => match (left.value(*left_field), right.value(*right_field)) {
                (Some(l), Some(r)) => {
                    *comparisons += 1;
                    op.apply(l.compare(r))
                }
                _ => false,
            },
            JoinCondition::And(a, b) => {
                a.eval_counted(left, right, comparisons) && b.eval_counted(left, right, comparisons)
            }
        }
    }

    /// Evaluate without counting.
    pub fn eval(&self, left: &Tuple, right: &Tuple) -> bool {
        let mut scratch = 0;
        self.eval_counted(left, right, &mut scratch)
    }
}

/// A band probe recognised by [`band_bounds`]: the stored-side field is
/// constrained to a (half-)interval whose endpoints come from probe-tuple
/// fields, `lo ≤ stored.g − probe.f ≤ hi` in the classic band-join shape.
///
/// Each bound is `(probe_field, inclusive)`.  One of the two may be absent
/// (a half-open band from a single `Theta`).  Any equi or residual component
/// of the original condition is *not* represented here — callers re-evaluate
/// the full [`JoinCondition`] on every candidate, so the probe only has to
/// be a superset of the true matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandProbe {
    /// Field index of the stored tuple the order index sorts by.
    pub stored_field: usize,
    /// Lower bound: `stored.field ≥ probe.0` (`>` when `.1` is false).
    pub lower: Option<(usize, bool)>,
    /// Upper bound: `stored.field ≤ probe.0` (`<` when `.1` is false).
    pub upper: Option<(usize, bool)>,
}

impl BandProbe {
    /// `true` when both a lower and an upper bound are present.
    pub fn is_two_sided(&self) -> bool {
        self.lower.is_some() && self.upper.is_some()
    }
}

/// One usable theta constraint on a stored-side field, in normalised
/// `stored op probe` orientation.
struct ThetaBound {
    stored_field: usize,
    probe_field: usize,
    op: CmpOp,
}

fn collect_theta_bounds(cond: &JoinCondition, stored_is_left: bool, out: &mut Vec<ThetaBound>) {
    match cond {
        JoinCondition::Theta {
            left_field,
            op,
            right_field,
        } => {
            // Normalise to `stored op probe`: when the stored tuple is the
            // right operand, flip the operand order and mirror the operator.
            let (stored_field, probe_field, op) = if stored_is_left {
                (*left_field, *right_field, *op)
            } else {
                let mirrored = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Ne => CmpOp::Ne,
                };
                (*right_field, *left_field, mirrored)
            };
            if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                out.push(ThetaBound {
                    stored_field,
                    probe_field,
                    op,
                });
            }
        }
        JoinCondition::And(a, b) => {
            collect_theta_bounds(a, stored_is_left, out);
            collect_theta_bounds(b, stored_is_left, out);
        }
        JoinCondition::Cross | JoinCondition::Equi { .. } => {}
    }
}

/// Classify the band shape of a join condition from the stored side's point
/// of view (`stored_is_left` says whether the stored tuple is the condition's
/// left or right operand).
///
/// Walks the `And` tree collecting inequality `Theta` components, normalised
/// to `stored op probe`, and groups them by stored field.  A field with both
/// a lower and an upper bound (two opposing thetas on the same stored field)
/// wins over a field with only one; ties go to the first field encountered.
/// `Eq`/`Ne` thetas, equi components and `Cross` contribute nothing — they
/// stay in the condition and are re-evaluated on every candidate the band
/// probe yields.  Returns `None` when no inequality theta exists at all.
pub fn band_bounds(cond: &JoinCondition, stored_is_left: bool) -> Option<BandProbe> {
    let mut bounds = Vec::new();
    collect_theta_bounds(cond, stored_is_left, &mut bounds);
    if bounds.is_empty() {
        return None;
    }
    // Assemble per-stored-field probes, preserving first-encountered order.
    let mut probes: Vec<BandProbe> = Vec::new();
    for b in &bounds {
        let at = probes.iter().position(|p| p.stored_field == b.stored_field);
        let at = at.unwrap_or_else(|| {
            probes.push(BandProbe {
                stored_field: b.stored_field,
                lower: None,
                upper: None,
            });
            probes.len() - 1
        });
        let probe = &mut probes[at];
        match b.op {
            CmpOp::Ge | CmpOp::Gt => {
                if probe.lower.is_none() {
                    probe.lower = Some((b.probe_field, b.op == CmpOp::Ge));
                }
            }
            CmpOp::Le | CmpOp::Lt => {
                if probe.upper.is_none() {
                    probe.upper = Some((b.probe_field, b.op == CmpOp::Le));
                }
            }
            _ => unreachable!("collect_theta_bounds only keeps inequalities"),
        }
    }
    probes
        .iter()
        .find(|p| p.is_two_sided())
        .or_else(|| probes.first())
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::StreamId;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, vals)
    }

    #[test]
    fn cmp_op_apply() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.apply(Equal));
        assert!(!CmpOp::Eq.apply(Less));
        assert!(CmpOp::Ne.apply(Greater));
        assert!(CmpOp::Lt.apply(Less));
        assert!(CmpOp::Le.apply(Equal));
        assert!(CmpOp::Gt.apply(Greater));
        assert!(CmpOp::Ge.apply(Equal));
        assert!(!CmpOp::Ge.apply(Less));
    }

    #[test]
    fn compare_predicates_count_one_comparison() {
        let p = Predicate::gt(1, 10i64);
        let mut c = 0;
        assert!(p.eval_counted(&t(&[0, 11]), &mut c));
        assert!(!p.eval_counted(&t(&[0, 10]), &mut c));
        assert_eq!(c, 2);
    }

    #[test]
    fn compare_fields() {
        let p = Predicate::CompareFields {
            left: 0,
            op: CmpOp::Lt,
            right: 1,
        };
        assert!(p.eval(&t(&[1, 2])));
        assert!(!p.eval(&t(&[2, 2])));
    }

    #[test]
    fn out_of_range_field_is_false() {
        let p = Predicate::eq(7, 1i64);
        assert!(!p.eval(&t(&[1])));
        let p = Predicate::CompareFields {
            left: 0,
            op: CmpOp::Eq,
            right: 9,
        };
        assert!(!p.eval(&t(&[1])));
    }

    #[test]
    fn boolean_connectives_simplify() {
        let p = Predicate::True.and(Predicate::gt(0, 1i64));
        assert_eq!(p, Predicate::gt(0, 1i64));
        let p = Predicate::False.and(Predicate::gt(0, 1i64));
        assert_eq!(p, Predicate::False);
        let p = Predicate::False.or(Predicate::gt(0, 1i64));
        assert_eq!(p, Predicate::gt(0, 1i64));
        let p = Predicate::True.or(Predicate::gt(0, 1i64));
        assert_eq!(p, Predicate::True);
        assert_eq!(Predicate::True.negate(), Predicate::False);
        assert_eq!(
            Predicate::gt(0, 1i64).negate().negate(),
            Predicate::gt(0, 1i64)
        );
    }

    #[test]
    fn and_or_evaluation() {
        let p = Predicate::gt(0, 5i64).and(Predicate::le(1, 3i64));
        assert!(p.eval(&t(&[6, 3])));
        assert!(!p.eval(&t(&[6, 4])));
        assert!(!p.eval(&t(&[5, 3])));
        let q = Predicate::gt(0, 5i64).or(Predicate::le(1, 3i64));
        assert!(q.eval(&t(&[0, 0])));
        assert!(q.eval(&t(&[9, 9])));
        assert!(!q.eval(&t(&[0, 9])));
    }

    #[test]
    fn disjunction_of_many() {
        let p = Predicate::disjunction(vec![
            Predicate::eq(0, 1i64),
            Predicate::eq(0, 2i64),
            Predicate::eq(0, 3i64),
        ]);
        assert!(p.eval(&t(&[2])));
        assert!(!p.eval(&t(&[4])));
        assert_eq!(Predicate::disjunction(vec![]), Predicate::False);
        assert!(Predicate::True.is_true());
        assert!(!Predicate::False.is_true());
    }

    #[test]
    fn equi_join_condition() {
        let c = JoinCondition::equi(0);
        let a = t(&[7, 1]);
        let b = t(&[7, 2]);
        let d = t(&[8, 2]);
        let mut n = 0;
        assert!(c.eval_counted(&a, &b, &mut n));
        assert!(!c.eval_counted(&a, &d, &mut n));
        assert_eq!(n, 2);
        assert!(JoinCondition::Cross.eval(&a, &d));
    }

    #[test]
    fn join_condition_counters_skip_absent_fields() {
        // Pin the counter contract: counters equal *actual* value
        // comparisons.  An absent field short-circuits Equi/Theta to false
        // with no compare, so the counter must not move.
        let equi = JoinCondition::equi(3);
        let theta = JoinCondition::Theta {
            left_field: 3,
            op: CmpOp::Lt,
            right_field: 0,
        };
        let short = t(&[1]); // has no field 3
        let long = t(&[1, 2, 3, 4]);
        let mut n = 0;
        assert!(!equi.eval_counted(&short, &long, &mut n));
        assert!(!equi.eval_counted(&long, &short, &mut n));
        assert!(!theta.eval_counted(&short, &long, &mut n));
        assert_eq!(n, 0, "absent-field evaluations must not count");
        // Both fields present: exactly one comparison each.
        assert!(equi.eval_counted(&long, &long, &mut n));
        assert!(!theta.eval_counted(&long, &long, &mut n));
        assert_eq!(n, 2);
        // And short-circuit: a false left conjunct with a missing field
        // costs zero and suppresses the right conjunct entirely.
        let both = JoinCondition::And(Box::new(equi), Box::new(theta));
        let mut m = 0;
        assert!(!both.eval_counted(&short, &long, &mut m));
        assert_eq!(m, 0);
    }

    #[test]
    fn band_bounds_recognises_single_theta_half_bands() {
        // stored(left).2 >= probe(right).0  →  lower bound on field 2.
        let c = JoinCondition::Theta {
            left_field: 2,
            op: CmpOp::Ge,
            right_field: 0,
        };
        assert_eq!(
            band_bounds(&c, true),
            Some(BandProbe {
                stored_field: 2,
                lower: Some((0, true)),
                upper: None,
            })
        );
        // Same condition from the right-hand store's point of view:
        // probe.2 >= stored.0  ⇔  stored.0 <= probe.2 (upper bound).
        assert_eq!(
            band_bounds(&c, false),
            Some(BandProbe {
                stored_field: 0,
                lower: None,
                upper: Some((2, true)),
            })
        );
        // Strict operators stay strict.
        let c = JoinCondition::Theta {
            left_field: 1,
            op: CmpOp::Lt,
            right_field: 3,
        };
        assert_eq!(
            band_bounds(&c, true),
            Some(BandProbe {
                stored_field: 1,
                lower: None,
                upper: Some((3, false)),
            })
        );
    }

    #[test]
    fn band_bounds_pairs_opposing_thetas_and_prefers_two_sided_fields() {
        // lo ≤ stored.0 ≤ hi with probe fields 2 (lo) and 3 (hi).
        let lo = JoinCondition::Theta {
            left_field: 0,
            op: CmpOp::Ge,
            right_field: 2,
        };
        let hi = JoinCondition::Theta {
            left_field: 0,
            op: CmpOp::Le,
            right_field: 3,
        };
        let band = JoinCondition::And(Box::new(lo.clone()), Box::new(hi.clone()));
        assert_eq!(
            band_bounds(&band, true),
            Some(BandProbe {
                stored_field: 0,
                lower: Some((2, true)),
                upper: Some((3, true)),
            })
        );
        // A one-sided theta on another field first: the two-sided field
        // still wins regardless of encounter order.
        let stray = JoinCondition::Theta {
            left_field: 5,
            op: CmpOp::Gt,
            right_field: 1,
        };
        let c = JoinCondition::And(Box::new(stray), Box::new(band.clone()));
        assert_eq!(band_bounds(&c, true).unwrap().stored_field, 0);
        assert!(band_bounds(&c, true).unwrap().is_two_sided());
        // Equi and Cross components are transparent residue.
        let c = JoinCondition::And(
            Box::new(JoinCondition::equi(4)),
            Box::new(JoinCondition::And(
                Box::new(JoinCondition::Cross),
                Box::new(band),
            )),
        );
        assert_eq!(
            band_bounds(&c, true),
            Some(BandProbe {
                stored_field: 0,
                lower: Some((2, true)),
                upper: Some((3, true)),
            })
        );
        // No inequality theta anywhere → no band.
        assert_eq!(band_bounds(&JoinCondition::equi(0), true), None);
        assert_eq!(band_bounds(&JoinCondition::Cross, true), None);
        // Ne is not a usable bound.
        let ne = JoinCondition::Theta {
            left_field: 0,
            op: CmpOp::Ne,
            right_field: 0,
        };
        assert_eq!(band_bounds(&ne, true), None);
    }

    #[test]
    fn theta_and_composite_join_conditions() {
        let c = JoinCondition::Theta {
            left_field: 1,
            op: CmpOp::Lt,
            right_field: 1,
        };
        assert!(c.eval(&t(&[0, 1]), &t(&[0, 2])));
        assert!(!c.eval(&t(&[0, 2]), &t(&[0, 2])));
        let both = JoinCondition::And(Box::new(JoinCondition::equi(0)), Box::new(c));
        assert!(both.eval(&t(&[5, 1]), &t(&[5, 2])));
        assert!(!both.eval(&t(&[5, 3]), &t(&[5, 2])));
        assert!(!both.eval(&t(&[4, 1]), &t(&[5, 2])));
    }
}
