//! Turn a [`ChainSpec`] into an executable shared query plan.
//!
//! The generated plan follows Figures 10, 12, 13 and 15 of the paper:
//!
//! ```text
//!  A+B ─► [lineage annotator] ─► slice_0 ─► [gate_1] ─► slice_1 ─► ... ─► slice_k
//!                                   │                      │                 │
//!                                   ▼ results              ▼ results         ▼
//!                              (router if merged)     (router if merged)    ...
//!                                   │                      │
//!                   ┌───────────────┴───────┬──────────────┘
//!                   ▼                       ▼
//!               union_Q1 ─► σ_Q1? ─► Q1  union_Q2 ─► σ_Q2? ─► Q2   ...
//! ```
//!
//! * The single entry point [`CHAIN_ENTRY`] carries both streams merged in
//!   timestamp order (the paper's logical queue); use [`merge_streams`] to
//!   interleave two per-stream tuple vectors.
//! * The lineage annotator and the per-slice lineage gates implement the
//!   selection push-down of Section 6 and appear only when some query has a
//!   selection.
//! * A router appears after a slice only when that slice is a merge of
//!   several Mem-Opt slices (CPU-Opt chains, Figure 13(b)).
//! * Each query gets an order-preserving union over the slices it needs, an
//!   optional residual selection, and a sink named after the query.

use streamkit::error::Result;
use streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
use streamkit::ops::{RouteTarget, RouterOp, SelectOp, SinkOp, SliceJoinOp, UnionOp};
use streamkit::plan::{NodeId, Plan};
use streamkit::tuple::{StreamId, Tuple};
use streamkit::PortId;

use crate::chain::ChainSpec;
use crate::lineage::{LineageAnnotatorOp, LineageGateOp};
use crate::query::QueryWorkload;

/// Name of the single external entry point of a chain plan (the merged
/// timestamp-ordered A+B stream).
pub const CHAIN_ENTRY: &str = "AB";

/// Options controlling plan generation: three fields — `retain_results`,
/// `index_join_state` and `shards`.  How joined results travel (row tuples
/// or column batches) is not among them: every sliced join picks that per
/// run from its own result density (see
/// [`SliceJoinOp`]).
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Build retaining sinks so tests can inspect full result sets.
    pub retain_results: bool,
    /// Hash-index the sliced joins' state on the equi-join key (default).
    /// Disable to get the pre-index linear-scan probes, for A/B
    /// benchmarking and equivalence testing.
    pub index_join_state: bool,
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
            index_join_state: true,
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

        // 1. Optional lineage annotator in front of the chain.
        let annotator = if has_selections {
            let node = b.add_op(LineageAnnotatorOp::new(
                "lineage",
                workload.filters(),
                StreamId::A,
            ));
            b.entry(CHAIN_ENTRY, node, 0);
            Some(node)
        } else {
            None
        };

        // 2. The chain of sliced binary joins with optional lineage gates.
        let last = spec.num_slices() - 1;
        let mut slice_nodes: Vec<NodeId> = Vec::with_capacity(spec.num_slices());
        for (k, slice) in spec.slices().iter().enumerate() {
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
            if !options.index_join_state {
                op = op.without_index();
            }
            let node = b.add_op(op);
            if k == 0 {
                match annotator {
                    Some(a) => b.connect(a, 0, node, 0),
                    None => b.entry(CHAIN_ENTRY, node, 0),
                }
            } else {
                let prev = slice_nodes[k - 1];
                if has_selections {
                    // σ'_k = cond_k ∨ ... ∨ cond_N, realised as a lineage gate.
                    let gate = b.add_op(LineageGateOp::new(
                        format!("gate_{k}"),
                        (slice.query_lo + 1) as u32,
                        StreamId::A,
                    ));
                    b.connect(prev, PORT_NEXT_SLICE, gate, 0);
                    b.connect(gate, 0, node, 0);
                } else {
                    b.connect(prev, PORT_NEXT_SLICE, node, 0);
                }
            }
            slice_nodes.push(node);
        }

        // 3. Routers for merged slices (CPU-Opt chains).
        //    routed[(slice, query)] = (router node, router output port).
        type RoutedSlice = Option<(NodeId, Vec<(usize, PortId)>)>;
        let mut routed: Vec<RoutedSlice> = vec![None; spec.num_slices()];
        for (k, slice) in spec.slices().iter().enumerate() {
            let partial_queries: Vec<usize> = (slice.query_lo..=slice.query_hi)
                .filter(|&q| workload.query(q).window < slice.window.end)
                .collect();
            if partial_queries.is_empty() {
                continue;
            }
            let targets: Vec<RouteTarget> = partial_queries
                .iter()
                .map(|&q| RouteTarget::window_only(workload.query(q).window))
                .collect();
            let router = b.add_op(RouterOp::new(format!("router_{k}"), targets));
            b.connect(slice_nodes[k], PORT_RESULTS, router, 0);
            let ports = partial_queries
                .iter()
                .enumerate()
                .map(|(port, &q)| (q, port))
                .collect();
            routed[k] = Some((router, ports));
        }

        // 4. Per-query unions, residual selections and sinks.
        //
        //    A result produced by slice `k` already involves an A tuple that
        //    passed slice `k`'s lineage gate, i.e. it satisfies the
        //    disjunction cond'_{lo(k)+1..N}.  A query's residual selection is
        //    therefore only needed on branches from slices whose gate does
        //    not already imply the query's own predicate — in the paper's
        //    running example, σ'_A filters only the first slice's results for
        //    Q2 (Figure 10).
        let mut sink_names = Vec::with_capacity(workload.len());
        for (q_idx, query) in workload.queries().iter().enumerate() {
            let last_slice = spec.last_slice_for_query(q_idx);
            let feeding = last_slice + 1;
            let union = b.add_op(UnionOp::new(format!("union_{}", query.name), feeding));
            for (port, k) in (0..=last_slice).enumerate() {
                let slice = &spec.slices()[k];
                // Source of this branch: the slice's results, or its router
                // port when the query only needs part of the slice's range.
                let (src, src_port) = if query.window >= slice.window.end {
                    (slice_nodes[k], PORT_RESULTS)
                } else {
                    let (router, ports) = routed[k]
                        .as_ref()
                        .expect("a slice with partial queries has a router");
                    let (_, router_port) = ports
                        .iter()
                        .find(|(q, _)| *q == q_idx)
                        .expect("partial query registered with the router");
                    (*router, *router_port)
                };
                let gate_implies_filter = workload
                    .queries()
                    .iter()
                    .skip(slice.query_lo)
                    .all(|other| other.filter_a == query.filter_a);
                if query.has_filter() && !gate_implies_filter {
                    let select = b.add_op(SelectOp::new(
                        format!("sigma_{}_{k}", query.name),
                        query.filter_a.clone(),
                    ));
                    b.connect(src, src_port, select, 0);
                    b.connect(select, 0, union, port);
                } else {
                    b.connect(src, src_port, union, port);
                }
            }
            let sink = if options.retain_results {
                b.add_op(SinkOp::retaining(query.name.clone()))
            } else {
                b.add_op(SinkOp::new(query.name.clone()))
            };
            b.connect(union, 0, sink, 0);
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
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if x.ts <= y.ts {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
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
        // 2 slices + 2 unions + 2 sinks, no selections, no routers.
        assert_eq!(shared.plan.num_nodes(), 6);
        assert_eq!(shared.plan.entry_names(), vec![CHAIN_ENTRY]);
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
        // The plan contains the lineage annotator and one gate.
        assert!(shared
            .plan
            .nodes()
            .iter()
            .any(|n| n.operator.name() == "lineage"));
        assert!(shared
            .plan
            .nodes()
            .iter()
            .any(|n| n.operator.name() == "gate_1"));
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
