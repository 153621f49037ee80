//! No sharing: one independent plan per query.
//!
//! This is the starting point of the paper's motivation (Figure 2): each
//! registered query runs its own selection and its own sliding-window join.
//! Both input streams are broadcast to every per-query pipeline, so state
//! memory and probing work grow linearly with the number of queries.

use state_slice_core::QueryWorkload;
use streamkit::error::Result;
use streamkit::ops::{SelectOp, SinkOp, SliceJoinOp};
use streamkit::{Plan, WindowSpec};

use crate::{BaselinePlan, BroadcastOp, ENTRY_A, ENTRY_B};

/// Options for the unshared plan builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnsharedOptions {
    /// Build retaining sinks for result inspection in tests.
    pub retain_results: bool,
}

/// Builds one independent plan per query, sharing nothing.
#[derive(Debug, Default)]
pub struct UnsharedPlanBuilder {
    options: UnsharedOptions,
}

impl UnsharedPlanBuilder {
    /// Builder with default options.
    pub fn new() -> Self {
        UnsharedPlanBuilder::default()
    }

    /// Retain per-query results in the sinks.
    pub fn retaining_results(mut self) -> Self {
        self.options.retain_results = true;
        self
    }

    /// Build the (non-)shared plan for the given workload.
    pub fn build(&self, workload: &QueryWorkload) -> Result<BaselinePlan> {
        let mut b = Plan::builder();
        let n = workload.len();
        let bcast_a = b.add_op(BroadcastOp::new("broadcast_A", n));
        let bcast_b = b.add_op(BroadcastOp::new("broadcast_B", n));
        b.entry(ENTRY_A, bcast_a, 0);
        b.entry(ENTRY_B, bcast_b, 0);

        let mut sink_names = Vec::with_capacity(n);
        for (idx, q) in workload.queries().iter().enumerate() {
            let join = b.add_op(SliceJoinOp::window_join(
                format!("join_{}", q.name),
                WindowSpec::new(q.window),
                workload.join_condition().clone(),
            ));
            if q.has_filter() {
                let select = b.add_op(SelectOp::new(
                    format!("sigma_{}", q.name),
                    q.filter_a.clone(),
                ));
                b.connect(bcast_a, idx, select, 0);
                b.connect(select, 0, join, 0);
            } else {
                b.connect(bcast_a, idx, join, 0);
            }
            b.connect(bcast_b, idx, join, 1);
            let sink = if self.options.retain_results {
                b.add_op(SinkOp::retaining(q.name.clone()))
            } else {
                b.add_op(SinkOp::new(q.name.clone()))
            };
            b.connect(join, 0, sink, 0);
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
    fn unshared_results_match_pull_up() {
        let input_a = vec![a(1, 7, 50), a(2, 7, 5), a(3, 7, 50)];
        let input_b = vec![b(4, 7), b(5, 7)];
        let unshared = UnsharedPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(unshared.plan);
        exec.ingest_all(ENTRY_A, input_a.clone()).unwrap();
        exec.ingest_all(ENTRY_B, input_b.clone()).unwrap();
        let us = exec.run().unwrap();
        let pullup = crate::PullUpPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(pullup.plan);
        exec.ingest_all(ENTRY_A, input_a).unwrap();
        exec.ingest_all(ENTRY_B, input_b).unwrap();
        let pu = exec.run().unwrap();
        assert_eq!(us.sink_count("Q1"), pu.sink_count("Q1"));
        assert_eq!(us.sink_count("Q2"), pu.sink_count("Q2"));
    }

    #[test]
    fn per_query_plans_duplicate_state() {
        // Identical windows aren't allowed, but overlapping state is evident:
        // the total state across the two independent joins exceeds the state
        // of a single largest-window join for the same input.
        let built = UnsharedPlanBuilder::new().build(&workload()).unwrap();
        let mut exec = Executor::new(built.plan);
        // All values pass the filter so both joins hold A tuples.
        exec.ingest_all(ENTRY_A, (1..=4).map(|s| a(s, 0, 50)).collect::<Vec<_>>())
            .unwrap();
        exec.ingest_all(ENTRY_B, (1..=4).map(|s| b(s, 0)).collect::<Vec<_>>())
            .unwrap();
        let report = exec.run().unwrap();
        // Q2's join alone would hold 8 tuples; the duplicated Q1 join adds more.
        assert!(report.memory.peak_state_tuples > 8);
        assert_eq!(built.sink_names.len(), 2);
    }
}
