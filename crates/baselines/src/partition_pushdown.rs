//! Stream partition with selection push-down (Section 3.2, Figure 4).
//!
//! Stream A is partitioned by the shared selection predicate.  Tuples that
//! fail the selection can only contribute to the queries *without* a
//! selection, so they feed a join whose window is the largest window among
//! those queries; tuples that pass the selection may contribute to every
//! query and feed a join with the overall largest window.  A router splits
//! the large join's results per query window, and per-query order-preserving
//! unions merge the two branches for the unfiltered queries.
//!
//! The builder supports the workload shape used throughout the paper's
//! analysis and experiments: any number of queries, where the queries that do
//! carry a selection all share the same predicate.  Workloads with several
//! distinct selection predicates would need one partition per predicate
//! combination; they are rejected with an error.

use state_slice_core::QueryWorkload;
use streamkit::error::{Result, StreamError};
use streamkit::ops::{RouteTarget, RouterOp, SinkOp, SliceJoinOp, SplitOp, UnionOp};
use streamkit::{Plan, Predicate, WindowSpec};

use crate::{BaselinePlan, ENTRY_A, ENTRY_B};

/// Options for the push-down plan builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct PushDownOptions {
    /// Build retaining sinks for result inspection in tests.
    pub retain_results: bool,
}

/// Builds the stream-partition / selection push-down shared plan.
#[derive(Debug, Default)]
pub struct PushDownPlanBuilder {
    options: PushDownOptions,
}

impl PushDownPlanBuilder {
    /// Builder with default options.
    pub fn new() -> Self {
        PushDownPlanBuilder::default()
    }

    /// Retain per-query results in the sinks.
    pub fn retaining_results(mut self) -> Self {
        self.options.retain_results = true;
        self
    }

    fn shared_filter(workload: &QueryWorkload) -> Result<Option<Predicate>> {
        let mut filter: Option<Predicate> = None;
        for q in workload.queries() {
            if q.has_filter() {
                match &filter {
                    None => filter = Some(q.filter_a.clone()),
                    Some(existing) if *existing == q.filter_a => {}
                    Some(_) => {
                        return Err(StreamError::InvalidConfig(
                            "the stream-partition baseline supports a single shared selection \
                             predicate; queries carry different predicates"
                                .to_string(),
                        ))
                    }
                }
            }
        }
        Ok(filter)
    }

    /// Build the shared plan for the given workload.
    pub fn build(&self, workload: &QueryWorkload) -> Result<BaselinePlan> {
        let filter = Self::shared_filter(workload)?;
        let Some(filter) = filter else {
            // Without selections stream partitioning degenerates to the
            // pull-up plan; build that instead of duplicating streams.
            let pullup = crate::PullUpPlanBuilder::new();
            return if self.options.retain_results {
                pullup.retaining_results().build(workload)
            } else {
                pullup.build(workload)
            };
        };

        let unfiltered: Vec<usize> = (0..workload.len())
            .filter(|&i| !workload.query(i).has_filter())
            .collect();
        let filtered: Vec<usize> = (0..workload.len())
            .filter(|&i| workload.query(i).has_filter())
            .collect();

        let mut b = Plan::builder();
        let condition = workload.join_condition().clone();

        // Partition stream A: port 0 = fails the filter, port 1 = passes it.
        let split = b.add_op(SplitOp::new(
            "split_A",
            vec![filter.clone().negate(), filter.clone()],
        ));
        b.entry(ENTRY_A, split, 0);

        // The join for filter-passing A tuples must serve every query (even
        // unfiltered ones need those pairs), so its window is the overall max.
        let big_window = WindowSpec::new(workload.max_window());
        let join_big = b.add_op(SliceJoinOp::window_join(
            "join_filtered",
            big_window,
            condition.clone(),
        ));
        b.connect(split, 1, join_big, 0);

        // The join for filter-failing A tuples only serves unfiltered queries.
        let join_small = if unfiltered.is_empty() {
            None
        } else {
            let w = unfiltered
                .iter()
                .map(|&i| workload.query(i).window)
                .max()
                .expect("non-empty");
            let node = b.add_op(SliceJoinOp::window_join(
                "join_unfiltered",
                WindowSpec::new(w),
                condition.clone(),
            ));
            b.connect(split, 0, node, 0);
            Some(node)
        };

        // Stream B feeds both joins (states B1 / B2 cannot be shared, as the
        // paper notes — the sliding windows do not move in lockstep).
        match join_small {
            Some(small) => {
                let bcast = b.add_op(crate::BroadcastOp::new("broadcast_B", 2));
                b.entry(ENTRY_B, bcast, 0);
                b.connect(bcast, 0, join_big, 1);
                b.connect(bcast, 1, small, 1);
            }
            None => {
                b.entry(ENTRY_B, join_big, 1);
            }
        }

        // Router on the big join: one target per query (window constraint).
        let targets: Vec<RouteTarget> = workload
            .queries()
            .iter()
            .map(|q| RouteTarget::window_only(q.window))
            .collect();
        let router_big = b.add_op(RouterOp::new("router_filtered", targets));
        b.connect(join_big, 0, router_big, 0);

        // Router on the small join: targets for unfiltered queries only.
        let router_small = join_small.map(|small| {
            let targets: Vec<RouteTarget> = unfiltered
                .iter()
                .map(|&i| RouteTarget::window_only(workload.query(i).window))
                .collect();
            let node = b.add_op(RouterOp::new("router_unfiltered", targets));
            b.connect(small, 0, node, 0);
            node
        });

        // Per-query assembly.
        let mut sink_names = Vec::with_capacity(workload.len());
        for (idx, q) in workload.queries().iter().enumerate() {
            let sink = if self.options.retain_results {
                b.add_op(SinkOp::retaining(q.name.clone()))
            } else {
                b.add_op(SinkOp::new(q.name.clone()))
            };
            sink_names.push(q.name.clone());
            if filtered.contains(&idx) {
                // Filtered queries read the big join's routed results and
                // re-check nothing: their A tuples passed the filter at the
                // split already.
                b.connect(router_big, idx, sink, 0);
            } else {
                // Unfiltered queries merge both branches order-preservingly.
                let union = b.add_op(UnionOp::new(format!("union_{}", q.name), 2));
                b.connect(router_big, idx, union, 0);
                let router_small = router_small.expect("unfiltered queries imply a small join");
                let port = unfiltered
                    .iter()
                    .position(|&i| i == idx)
                    .expect("registered");
                b.connect(router_small, port, union, 1);
                b.connect(union, 0, sink, 0);
            }
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
    use streamkit::{Executor, JoinCondition, TimeDelta, Timestamp};

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
    fn per_query_results_match_the_pullup_baseline() {
        let input_a = vec![a(1, 7, 50), a(2, 7, 5), a(3, 7, 50)];
        let input_b = vec![b(4, 7), b(5, 7)];

        let pushdown = PushDownPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(pushdown.plan);
        exec.ingest_all(ENTRY_A, input_a.clone()).unwrap();
        exec.ingest_all(ENTRY_B, input_b.clone()).unwrap();
        let pd = exec.run().unwrap();

        let pullup = crate::PullUpPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(pullup.plan);
        exec.ingest_all(ENTRY_A, input_a).unwrap();
        exec.ingest_all(ENTRY_B, input_b).unwrap();
        let pu = exec.run().unwrap();

        assert_eq!(pd.sink_count("Q1"), pu.sink_count("Q1"));
        assert_eq!(pd.sink_count("Q2"), pu.sink_count("Q2"));
        assert_eq!(pd.sink_count("Q1"), 1);
        assert_eq!(pd.sink_count("Q2"), 3);
    }

    #[test]
    fn push_down_probes_less_than_pull_up_when_filter_is_selective() {
        // Highly selective filter: most A tuples avoid the big join entirely.
        let w = workload();
        let input_a: Vec<Tuple> = (1..=60)
            .map(|s| a(s, 0, if s % 10 == 0 { 50 } else { 5 }))
            .collect();
        let input_b: Vec<Tuple> = (1..=60).map(|s| b(s, 0)).collect();

        let run = |plan: BaselinePlan| {
            let mut exec = Executor::new(plan.plan);
            exec.ingest_all(ENTRY_A, input_a.clone()).unwrap();
            exec.ingest_all(ENTRY_B, input_b.clone()).unwrap();
            exec.run().unwrap()
        };
        let pd = run(PushDownPlanBuilder::new().build(&w).unwrap());
        let pu = run(crate::PullUpPlanBuilder::new().build(&w).unwrap());
        assert_eq!(pd.sink_count("Q1"), pu.sink_count("Q1"));
        assert_eq!(pd.sink_count("Q2"), pu.sink_count("Q2"));
        assert!(pd.totals.probe_comparisons < pu.totals.probe_comparisons);
    }

    #[test]
    fn without_selections_the_plan_degenerates_to_pull_up() {
        let w = QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(2)),
                JoinQuery::new("Q2", TimeDelta::from_secs(4)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let built = PushDownPlanBuilder::new().build(&w).unwrap();
        // join + router + 2 sinks.
        assert_eq!(built.plan.num_nodes(), 4);
    }

    #[test]
    fn distinct_predicates_are_rejected() {
        let w = QueryWorkload::new(
            vec![
                JoinQuery::with_filter("Q1", TimeDelta::from_secs(2), Predicate::gt(1, 5i64)),
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(4), Predicate::gt(1, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        assert!(PushDownPlanBuilder::new().build(&w).is_err());
    }

    #[test]
    fn all_filtered_queries_need_no_small_join() {
        let w = QueryWorkload::new(
            vec![
                JoinQuery::with_filter("Q1", TimeDelta::from_secs(2), Predicate::gt(1, 10i64)),
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(4), Predicate::gt(1, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let built = PushDownPlanBuilder::new().build(&w).unwrap();
        assert!(built
            .plan
            .nodes()
            .iter()
            .all(|n| n.operator.name() != "join_unfiltered"));
        let mut exec = Executor::new(built.plan);
        exec.ingest_all(ENTRY_A, vec![a(1, 7, 50)]).unwrap();
        exec.ingest_all(ENTRY_B, vec![b(2, 7)]).unwrap();
        let report = exec.run().unwrap();
        assert_eq!(report.sink_count("Q1"), 1);
        assert_eq!(report.sink_count("Q2"), 1);
    }
}
