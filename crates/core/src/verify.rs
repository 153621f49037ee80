//! Equivalence oracle for shared plans (Theorems 1–2).
//!
//! [`expected_results`] computes, independently of any operator machinery,
//! the exact result set each registered query must receive for a given input:
//! for every A/B pair it checks the join condition, the query's window
//! constraint and the query's selection.  Tests and property tests compare
//! executed plans (chains, baselines) against this oracle, and index-mode
//! runs against the linear-scan reference [`scan_only`] makes of a plan.

use std::collections::HashMap;

use streamkit::ops::slice_join::SliceChain;
use streamkit::tuple::{StreamId, Tuple};
use streamkit::{Plan, TimeDelta, Timestamp};

use crate::query::QueryWorkload;

/// A canonical, order-independent fingerprint of one joined result:
/// `(result timestamp, |Ta - Tb|, A timestamp)`.
pub type ResultKey = (Timestamp, TimeDelta, Timestamp);

/// Compute the expected result multiset of every query for the given input
/// tuples (both streams, any order).  Keys are query names; each value is
/// sorted so it can be compared directly.
pub fn expected_results(
    workload: &QueryWorkload,
    input: &[Tuple],
) -> HashMap<String, Vec<ResultKey>> {
    let a_tuples: Vec<&Tuple> = input.iter().filter(|t| t.stream == StreamId::A).collect();
    let b_tuples: Vec<&Tuple> = input.iter().filter(|t| t.stream == StreamId::B).collect();
    let mut out: HashMap<String, Vec<ResultKey>> = workload
        .queries()
        .iter()
        .map(|q| (q.name.clone(), Vec::new()))
        .collect();
    for a in &a_tuples {
        for b in &b_tuples {
            if !workload.join_condition().eval(a, b) {
                continue;
            }
            let span = a.ts.abs_diff(b.ts);
            let ts = a.ts.max(b.ts);
            for q in workload.queries() {
                if span < q.window && q.filter_a.eval(a) {
                    out.get_mut(&q.name)
                        .expect("query registered")
                        .push((ts, span, a.ts));
                }
            }
        }
    }
    for results in out.values_mut() {
        results.sort_unstable();
    }
    out
}

/// Canonical fingerprints of the tuples a retaining sink collected, for
/// comparison against [`expected_results`].
///
/// Joined tuples carry `ts = max(Ta, Tb)` and `origin_span = |Ta - Tb|`; the
/// A-side timestamp is reconstructed from those two plus the knowledge of
/// which side is older (which the span alone cannot provide), so the
/// fingerprint uses `min(Ta, Tb)` via `ts - span` when the A side is the
/// older one.  To stay order-independent and side-agnostic we fingerprint
/// with the pair `(ts, span)` plus the smaller timestamp.
pub fn collected_fingerprints(tuples: &[Tuple]) -> Vec<(Timestamp, TimeDelta, Timestamp)> {
    let mut keys: Vec<(Timestamp, TimeDelta, Timestamp)> = tuples
        .iter()
        .map(|t| (t.ts, t.origin_span, t.ts - t.origin_span))
        .collect();
    keys.sort_unstable();
    keys
}

/// Reduce an [`expected_results`] entry to the same side-agnostic fingerprint
/// as [`collected_fingerprints`].
pub fn expected_fingerprints(expected: &[ResultKey]) -> Vec<(Timestamp, TimeDelta, Timestamp)> {
    let mut keys: Vec<(Timestamp, TimeDelta, Timestamp)> = expected
        .iter()
        .map(|(ts, span, _a_ts)| (*ts, *span, *ts - *span))
        .collect();
    keys.sort_unstable();
    keys
}

/// Switch every run store of `plan` to linear-scan probes, keeping its
/// stored tuples: the unindexed reference the index-equivalence suites
/// compare the hash- and band-indexed chains against
/// ([`SliceChain::drop_index`]).  A plan rebuilt later (a live migration's
/// new plan) is indexed again, so apply this after every rebuild.
pub fn scan_only(plan: &mut Plan) {
    plan.slice_chains_mut().for_each(SliceChain::drop_index);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::{JoinCondition, Predicate};

    fn a(secs: u64, key: i64, value: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key, value])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key, 0])
    }

    fn workload() -> QueryWorkload {
        QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(2)),
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(10), Predicate::gt(1, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    #[test]
    fn oracle_applies_window_filter_and_condition() {
        let input = vec![a(1, 7, 50), a(2, 8, 50), a(3, 7, 5), b(4, 7), b(20, 7)];
        let expected = expected_results(&workload(), &input);
        // Q1 (window 2, no filter): only (a3, b4) has span 1 < 2 and key match.
        assert_eq!(expected["Q1"].len(), 1);
        // Q2 (window 10, filter value > 10): (a1, b4) span 3, value 50; a3
        // fails the filter; b20 is too far from everything.
        assert_eq!(expected["Q2"].len(), 1);
        assert_eq!(expected["Q2"][0].0, Timestamp::from_secs(4));
        assert_eq!(expected["Q2"][0].1, TimeDelta::from_secs(3));
    }

    #[test]
    fn fingerprints_are_order_independent() {
        let j1 = Tuple::join(&a(1, 7, 0), &b(4, 7), StreamId(100));
        let j2 = Tuple::join(&a(3, 7, 0), &b(4, 7), StreamId(100));
        let fp_a = collected_fingerprints(&[j1.clone(), j2.clone()]);
        let fp_b = collected_fingerprints(&[j2, j1]);
        assert_eq!(fp_a, fp_b);
        assert_eq!(fp_a.len(), 2);
    }

    #[test]
    fn expected_and_collected_fingerprints_line_up() {
        let input = vec![a(1, 7, 50), b(4, 7)];
        let expected = expected_results(&workload(), &input);
        let joined = Tuple::join(&a(1, 7, 50), &b(4, 7), StreamId(100));
        assert_eq!(
            expected_fingerprints(&expected["Q2"]),
            collected_fingerprints(&[joined])
        );
    }
}
