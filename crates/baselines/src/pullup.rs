//! Naive sharing with selection pull-up (Section 3.1, Figure 3).
//!
//! All queries share one sliding-window join with the *largest* registered
//! window; a router dispatches each joined result to every query whose window
//! constraint `|Ta - Tb| < W_q` it satisfies, applying the query's (pulled-up)
//! selection on the routed results.

use state_slice_core::QueryWorkload;
use streamkit::error::Result;
use streamkit::ops::{RouteTarget, RouterOp, SinkOp, SliceJoinOp};
use streamkit::{Plan, WindowSpec};

use crate::{BaselinePlan, ENTRY_A, ENTRY_B};

/// Options for the pull-up plan builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct PullUpOptions {
    /// Build retaining sinks for result inspection in tests.
    pub retain_results: bool,
}

/// Builds the selection pull-up shared plan.
#[derive(Debug, Default)]
pub struct PullUpPlanBuilder {
    options: PullUpOptions,
}

impl PullUpPlanBuilder {
    /// Builder with default options.
    pub fn new() -> Self {
        PullUpPlanBuilder::default()
    }

    /// Retain per-query results in the sinks.
    pub fn retaining_results(mut self) -> Self {
        self.options.retain_results = true;
        self
    }

    /// Build the shared plan for the given workload.
    pub fn build(&self, workload: &QueryWorkload) -> Result<BaselinePlan> {
        let mut b = Plan::builder();
        let max_window = WindowSpec::new(workload.max_window());
        let join = b.add_op(SliceJoinOp::window_join(
            "shared_join",
            max_window,
            workload.join_condition().clone(),
        ));
        b.entry(ENTRY_A, join, 0);
        b.entry(ENTRY_B, join, 1);

        // One router target per registered query: window check plus the
        // pulled-up selection.  The selection predicate refers to the A-side
        // columns of the joined tuple, which keep their original indexes
        // because joins concatenate A before B.
        let targets: Vec<RouteTarget> = workload
            .queries()
            .iter()
            .map(|q| {
                if q.has_filter() {
                    RouteTarget::with_filter(q.window, q.filter_a.clone())
                } else {
                    RouteTarget::window_only(q.window)
                }
            })
            .collect();
        let router = b.add_op(RouterOp::new("router", targets));
        b.connect(join, 0, router, 0);

        let mut sink_names = Vec::with_capacity(workload.len());
        for (idx, q) in workload.queries().iter().enumerate() {
            let sink = if self.options.retain_results {
                b.add_op(SinkOp::retaining(q.name.clone()))
            } else {
                b.add_op(SinkOp::new(q.name.clone()))
            };
            b.connect(router, idx, sink, 0);
            sink_names.push(q.name.clone());
        }
        Ok(BaselinePlan {
            plan: b.build()?,
            sink_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state_slice_core::JoinQuery;
    use streamkit::tuple::{StreamId, Tuple};
    use streamkit::{Executor, JoinCondition, Predicate, TimeDelta, Timestamp};

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
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(4), Predicate::gt(1, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    #[test]
    fn plan_structure_is_join_router_sinks() {
        let built = PullUpPlanBuilder::new().build(&workload()).unwrap();
        assert_eq!(built.plan.num_nodes(), 4); // join + router + 2 sinks
        assert_eq!(built.sink_names, vec!["Q1", "Q2"]);
        let mut names: Vec<&str> = built.plan.entry_names();
        names.sort_unstable();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn per_query_results_respect_window_and_filter() {
        let built = PullUpPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(built.plan);
        exec.ingest_all(ENTRY_A, vec![a(1, 7, 50), a(2, 7, 5), a(3, 7, 50)])
            .unwrap();
        exec.ingest_all(ENTRY_B, vec![b(4, 7), b(5, 7)]).unwrap();
        let report = exec.run().unwrap();
        // Q1 (window 2, no filter): (a3,b4) span 1 => 1 result.
        assert_eq!(report.sink_count("Q1"), 1);
        // Q2 (window 4, value > 10): (a1,b4) span 3 val 50, (a3,b4) span 1,
        // (a3,b5) span 2 => 3 results.  (a2,*) fails the filter; (a1,b5) span 4.
        assert_eq!(report.sink_count("Q2"), 3);
        // The shared join state holds everything within the larger window,
        // with no early filtering — the motivation example's memory waste.
        assert!(report.memory.peak_state_tuples >= 4);
        assert!(report.totals.route_comparisons > 0);
    }
}
