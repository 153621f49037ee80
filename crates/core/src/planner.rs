//! Turn a [`ChainSpec`] into an executable shared query plan.
//!
//! The generated plan follows Figures 10, 12, 13 and 15 of the paper, with
//! the whole chain run by one operator ([`ChainJoinOp`]):
//!
//! ```text
//!             ┌──────────────────────────── chain ─────────────────────────────┐
//!  A+B ─► [lineage] ─► slice_0 ─► [gate_1] ─► slice_1 ─► ... ─► slice_k       │
//!             │           │                     │                 │           │
//!             │           ▼ (split if merged)   ▼                 ▼           │
//!             │      per-query lists, σ_Q on the branches that need it        │
//!             │           │                                                   │
//!             │           ▼ merge by timestamp at the end of each run         │
//!             └─────── port Q1 ─────────── port Q2 ──────── ... ──────────────┘
//!                         ▼                   ▼
//!                         Q1                  Q2                 ...
//! ```
//!
//! * The single entry point [`CHAIN_ENTRY`] carries both streams merged in
//!   timestamp order (the paper's logical queue); use [`merge_streams`] to
//!   interleave two per-stream tuple vectors.
//! * The lineage annotator (its own node in front of the chain) and the
//!   per-slice lineage gates implement the selection push-down of Section 6
//!   and appear only when some query has a selection.
//! * A window split of a slice's results appears only when that slice is a
//!   merge of several Mem-Opt slices (CPU-Opt chains, Figure 13(b)).
//! * Each query's results are merged by timestamp from the slices it needs,
//!   filtered by its residual selection on the branches whose gate does not
//!   imply it, and delivered on the chain's output port for the query, wired
//!   to a sink named after the query.

use streamkit::error::Result;
use streamkit::ops::{ChainJoinOp, SinkOp, SliceJoinOp};
use streamkit::plan::Plan;
use streamkit::tuple::{StreamId, Tuple};

use crate::chain::ChainSpec;
use crate::lineage::LineageAnnotatorOp;
use crate::query::QueryWorkload;

/// Name of the single external entry point of a chain plan (the merged
/// timestamp-ordered A+B stream).
pub const CHAIN_ENTRY: &str = "AB";

/// Options controlling plan generation: two fields — `retain_results` and
/// `shards`.  Neither the join state's access path nor how joined results
/// travel is among them: every sliced join indexes its state as its
/// condition allows and picks row tuples or column batches per run from its
/// own result density (see [`SliceJoinOp`]).
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Build retaining sinks so tests can inspect full result sets.
    pub retain_results: bool,
    /// Number of hash-partitioned parallel shards the chain should run on
    /// (default 1 = the classic single-threaded executor).  Consumed by
    /// [`ChainPlanFactory::sharded`](crate::builder::ChainPlanFactory) —
    /// plan *generation* is identical for every shard; only execution
    /// parallelism changes.
    pub shards: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            retain_results: false,
            shards: 1,
        }
    }
}

impl PlannerOptions {
    /// A copy with the given shard count (builder-style convenience).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// An executable shared chain plan.
#[derive(Debug)]
pub struct SharedChainPlan {
    /// The operator DAG, ready to be wrapped in an
    /// [`Executor`](streamkit::Executor).
    pub plan: Plan,
    /// The per-query sink names, in ascending window order.
    pub sink_names: Vec<String>,
    /// Number of sliced joins in the chain.
    pub num_slices: usize,
}

impl SharedChainPlan {
    /// Build the executable plan for `workload` under the slicing `spec`.
    pub fn build(
        workload: &QueryWorkload,
        spec: &ChainSpec,
        options: &PlannerOptions,
    ) -> Result<SharedChainPlan> {
        spec.validate(workload)?;
        let has_selections = workload.has_selections();
        let mut b = Plan::builder();

        // 1. The chain's slices, with their lineage gates (σ'_k = cond_k ∨
        //    ... ∨ cond_N) when some query has a selection.
        let last = spec.num_slices() - 1;
        let slices = spec
            .slices()
            .iter()
            .enumerate()
            .map(|(k, slice)| {
                let mut op = SliceJoinOp::for_ab(
                    format!("slice_{k}"),
                    slice.window,
                    workload.join_condition().clone(),
                );
                if k == 0 {
                    op = op.chain_head();
                }
                if k == last {
                    op = op.last_in_chain();
                }
                op
            })
            .collect();
        let mut chain = ChainJoinOp::new("chain", slices, workload.len());
        if has_selections {
            for (k, slice) in spec.slices().iter().enumerate().skip(1) {
                chain = chain.gate(k, (slice.query_lo + 1) as u32);
            }
        }

        // 2. Each query's branches: every slice up to the one its window
        //    ends in, split by the query's window when the slice reaches
        //    past it (CPU-Opt merged slices).
        //
        //    A result produced by slice `k` already involves an A tuple that
        //    passed slice `k`'s lineage gate, i.e. it satisfies the
        //    disjunction cond'_{lo(k)+1..N}.  A query's residual selection is
        //    therefore only needed on branches from slices whose gate does
        //    not already imply the query's own predicate — in the paper's
        //    running example, σ'_A filters only the first slice's results for
        //    Q2 (Figure 10).
        for (q_idx, query) in workload.queries().iter().enumerate() {
            for k in 0..=spec.last_slice_for_query(q_idx) {
                let slice = &spec.slices()[k];
                let split = (query.window < slice.window.end).then_some(query.window);
                let gate_implies_filter = workload
                    .queries()
                    .iter()
                    .skip(slice.query_lo)
                    .all(|other| other.filter_a == query.filter_a);
                let filter =
                    (query.has_filter() && !gate_implies_filter).then(|| query.filter_a.clone());
                chain = chain.branch(k, q_idx, split, filter);
            }
        }

        // 3. The lineage annotator in front of the chain, and one sink per
        //    query on the chain's port for it.
        let annotator = has_selections.then(|| {
            b.add_op(LineageAnnotatorOp::new(
                "lineage",
                workload.filters(),
                StreamId::A,
            ))
        });
        let chain = b.add_op(chain);
        match annotator {
            Some(annotator) => {
                b.entry(CHAIN_ENTRY, annotator, 0);
                b.connect(annotator, 0, chain, 0);
            }
            None => b.entry(CHAIN_ENTRY, chain, 0),
        }
        let mut sink_names = Vec::with_capacity(workload.len());
        for (q_idx, query) in workload.queries().iter().enumerate() {
            let sink = if options.retain_results {
                b.add_op(SinkOp::retaining(query.name.clone()))
            } else {
                b.add_op(SinkOp::new(query.name.clone()))
            };
            b.connect(chain, q_idx, sink, 0);
            sink_names.push(query.name.clone());
        }

        Ok(SharedChainPlan {
            plan: b.build()?,
            sink_names,
            num_slices: spec.num_slices(),
        })
    }
}

/// Merge two per-stream tuple vectors (each already in timestamp order) into
/// the single timestamp-ordered input stream a chain plan expects.  Stable:
/// for equal timestamps the A tuple comes first.
pub fn merge_streams(a: Vec<Tuple>, b: Vec<Tuple>) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    // Take from `a` unless `b`'s head is strictly older.
    out.extend(std::iter::from_fn(|| match ib.peek().map(|t| t.ts) {
        Some(b_ts) => ia.next_if(|t| t.ts <= b_ts).or_else(|| ib.next()),
        None => ia.next(),
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::plan::NodeId;
    use streamkit::{Executor, JoinCondition, Predicate, TimeDelta, Timestamp};

    fn a(secs: u64, key: i64, value: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key, value])
    }

    fn b(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[key, 0])
    }

    fn workload_plain() -> QueryWorkload {
        QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(2)),
                JoinQuery::new("Q2", TimeDelta::from_secs(4)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    #[test]
    fn merge_streams_interleaves_by_timestamp() {
        let merged = merge_streams(
            vec![a(1, 0, 0), a(3, 0, 0), a(5, 0, 0)],
            vec![b(2, 0), b(3, 0), b(6, 0)],
        );
        let ts: Vec<u64> = merged
            .iter()
            .map(|t| t.ts.as_micros() / 1_000_000)
            .collect();
        assert_eq!(ts, vec![1, 2, 3, 3, 5, 6]);
        // Stable: at ts 3 the A tuple comes first.
        assert_eq!(merged[2].stream, StreamId::A);
        assert_eq!(merged[3].stream, StreamId::B);
    }

    #[test]
    fn mem_opt_plan_structure() {
        let w = workload_plain();
        let spec = ChainSpec::memory_optimal(&w);
        let shared = SharedChainPlan::build(&w, &spec, &PlannerOptions::default()).unwrap();
        assert_eq!(shared.num_slices, 2);
        assert_eq!(shared.sink_names, vec!["Q1", "Q2"]);
        // One chain operator running both slices, and 2 sinks: no
        // annotator without selections, no union, gate or router nodes.
        assert_eq!(shared.plan.num_nodes(), 3);
        let names: Vec<&str> = shared
            .plan
            .nodes()
            .iter()
            .map(|n| n.operator.name())
            .collect();
        assert_eq!(names, ["chain", "Q1", "Q2"]);
        let slices: Vec<&str> = shared.plan.slice_joins().map(|s| s.name()).collect();
        assert_eq!(slices, ["slice_0", "slice_1"]);
        assert_eq!(shared.plan.entry_names(), vec![CHAIN_ENTRY]);
        // The chain feeds each sink from its own port.
        assert_eq!(shared.plan.downstream(NodeId(0), 1), vec![(NodeId(2), 0)]);
    }

    #[test]
    fn chain_plan_produces_correct_per_query_results() {
        let w = workload_plain();
        let spec = ChainSpec::memory_optimal(&w);
        let shared = SharedChainPlan::build(
            &w,
            &spec,
            &PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        let mut exec = Executor::new(shared.plan);
        // Cartesian-like input: single key so everything joins.
        let input = merge_streams(
            vec![a(1, 7, 0), a(2, 7, 0), a(3, 7, 0)],
            vec![b(4, 7), b(5, 7)],
        );
        exec.ingest_all(CHAIN_ENTRY, input).unwrap();
        let report = exec.run().unwrap();
        // Q2 (window 4): pairs with |Ta-Tb| < 4 -> (a1,b1)? 3<4 yes, (a2,b1) 2,
        // (a3,b1) 1, (a1,b2) 4 no, (a2,b2) 3, (a3,b2) 2 => 5 results.
        assert_eq!(report.sink_count("Q2"), 5);
        // Q1 (window 2): spans < 2 -> (a3,b1)=1 => 1 result.
        assert_eq!(report.sink_count("Q1"), 1);
    }

    #[test]
    fn merged_chain_with_router_matches_mem_opt_results() {
        let w = QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(2)),
                JoinQuery::new("Q2", TimeDelta::from_secs(4)),
                JoinQuery::new("Q3", TimeDelta::from_secs(8)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let inputs = || {
            merge_streams(
                (1..=12).map(|s| a(s, (s % 3) as i64, 0)).collect(),
                (1..=12).map(|s| b(s, (s % 3) as i64)).collect(),
            )
        };
        let mut counts = Vec::new();
        for spec in [
            ChainSpec::memory_optimal(&w),
            ChainSpec::fully_merged(&w),
            ChainSpec::from_path(&w, &[0, 2, 3]).unwrap(),
        ] {
            let shared = SharedChainPlan::build(&w, &spec, &PlannerOptions::default()).unwrap();
            let mut exec = Executor::new(shared.plan);
            exec.ingest_all(CHAIN_ENTRY, inputs()).unwrap();
            let report = exec.run().unwrap();
            counts.push((
                report.sink_count("Q1"),
                report.sink_count("Q2"),
                report.sink_count("Q3"),
            ));
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
        assert!(counts[0].0 > 0);
        assert!(counts[0].2 >= counts[0].1);
    }

    #[test]
    fn selections_are_pushed_down_and_results_filtered() {
        // Q1 has no filter, Q2 keeps only A.value > 10.
        let w = QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(2)),
                JoinQuery::with_filter("Q2", TimeDelta::from_secs(4), Predicate::gt(1, 10i64)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap();
        let spec = ChainSpec::memory_optimal(&w);
        let shared = SharedChainPlan::build(&w, &spec, &PlannerOptions::default()).unwrap();
        // The plan is the lineage annotator in front of the chain, whose
        // second slice is gated inside it, and the two sinks.
        let names: Vec<&str> = shared
            .plan
            .nodes()
            .iter()
            .map(|n| n.operator.name())
            .collect();
        assert_eq!(names, ["lineage", "chain", "Q1", "Q2"]);
        assert_eq!(shared.plan.slice_joins().count(), 2);
        let mut exec = Executor::new(shared.plan);
        let input = merge_streams(
            vec![a(1, 7, 5), a(2, 7, 50), a(3, 7, 5)],
            vec![b(4, 7), b(5, 7)],
        );
        exec.ingest_all(CHAIN_ENTRY, input).unwrap();
        let report = exec.run().unwrap();
        // Q1 (window 2, no filter): only (a3,b1) has span < 2 => 1 result.
        assert_eq!(report.sink_count("Q1"), 1);
        // Q2 (window 4, filter value > 10): pairs with span < 4 and A.value=50:
        // (a2,b1) span 2, (a2,b2) span 3 => 2 results.
        assert_eq!(report.sink_count("Q2"), 2);
    }

    #[test]
    fn no_result_is_delivered_out_of_order() {
        let w = workload_plain();
        let spec = ChainSpec::memory_optimal(&w);
        let shared = SharedChainPlan::build(
            &w,
            &spec,
            &PlannerOptions {
                retain_results: true,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        let mut exec = Executor::new(shared.plan);
        let input = merge_streams(
            (1..=30).map(|s| a(s, (s % 2) as i64, 0)).collect(),
            (1..=30).map(|s| b(s, (s % 2) as i64)).collect(),
        );
        exec.ingest_all(CHAIN_ENTRY, input).unwrap();
        let _report = exec.run().unwrap();
        for name in ["Q1", "Q2"] {
            let sink = exec.plan().sink(name).expect("sink exists");
            assert_eq!(sink.out_of_order(), 0, "query {name} results out of order");
        }
    }
}
