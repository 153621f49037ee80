//! State-sliced window joins — the core contribution of the State-Slice paper
//! (Wang, Rundensteiner, Ganguly, Bhatnagar — VLDB 2006).
//!
//! A regular sliding-window join shared by `N` continuous queries with
//! different window sizes is *sliced* into a chain of fine-grained sliced
//! window joins, one per window range, pipelined by forwarding each slice's
//! purged state tuples and propagated probe tuples to the next slice.  The
//! union of the slices' outputs is exactly the regular join (Theorems 1–2),
//! selections can be pushed between slices (Section 6), and the number of
//! operators stays linear in `N`.
//!
//! Crate layout:
//!
//! * [`sliced_binary`] — the sliced window join of the chain (Definitions
//!   1–3, Figures 5–9), which is [`streamkit::ops::SliceJoinOp`]: one
//!   operator for one- and two-way slices and for the regular `[0, W)` join,
//! * [`query`] — registered queries and workloads,
//! * [`chain`] — chain specifications (how the window is sliced),
//! * [`builder`] — Mem-Opt (Section 5.1) and CPU-Opt (Section 5.2) chain
//!   buildup, the latter via [`dijkstra`] over the slice-merge DAG,
//! * [`lineage`] — selection push-down with tuple lineage (Section 6),
//! * [`planner`] — turning a chain spec into an executable
//!   [`streamkit`] plan with per-query unions, routers and sinks,
//! * [`migration`] — online merging / splitting of slices (Section 5.3),
//! * [`live`] — the [`live::Session`], the one owner of a running executor:
//!   online add/remove of queries via chain re-slicing, re-plans, shard
//!   rescales and crash recovery at one drained boundary,
//! * [`adaptive`] — runtime-statistics feedback: drift detectors and the
//!   [`adaptive::Supervisor`] that re-costs and re-cuts a session's chain,
//! * [`recovery`] — fault tolerance: the session's punctuation-aligned
//!   checkpoints and bounded replay ring ([`recovery::Recovery`]), which
//!   restore crashed shards and replay lost input,
//! * [`verify`] — a brute-force equivalence oracle used by tests.
//!
//! # Example
//!
//! ```
//! use state_slice_core::{ChainBuilder, JoinQuery, QueryWorkload, SharedChainPlan};
//! use state_slice_core::planner::{merge_streams, PlannerOptions, CHAIN_ENTRY};
//! use streamkit::{Executor, JoinCondition, Predicate, TimeDelta, Timestamp, Tuple};
//! use streamkit::tuple::StreamId;
//!
//! // Q1: 1-minute window, no selection.  Q2: 60-minute window with a filter.
//! let workload = QueryWorkload::new(
//!     vec![
//!         JoinQuery::new("Q1", TimeDelta::from_secs(60)),
//!         JoinQuery::with_filter("Q2", TimeDelta::from_secs(3600), Predicate::gt(1, 100i64)),
//!     ],
//!     JoinCondition::equi(0),
//! )
//! .unwrap();
//!
//! // Build the memory-optimal chain and its executable plan.
//! let chain = ChainBuilder::new(workload.clone()).memory_optimal();
//! let shared = SharedChainPlan::build(&workload, &chain, &PlannerOptions::default()).unwrap();
//!
//! // Execute it over a tiny input batch.
//! let mut exec = Executor::new(shared.plan);
//! let a = vec![Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[7, 120])];
//! let b = vec![Tuple::of_ints(Timestamp::from_secs(30), StreamId::B, &[7, 0])];
//! exec.ingest_all(CHAIN_ENTRY, merge_streams(a, b)).unwrap();
//! let report = exec.run().unwrap();
//! assert_eq!(report.sink_count("Q1"), 1);
//! assert_eq!(report.sink_count("Q2"), 1);
//! ```

pub mod adaptive;
pub mod builder;
pub mod chain;
pub mod dijkstra;
pub mod lineage;
pub mod live;
pub mod migration;
pub mod planner;
pub mod query;
pub mod recovery;
pub mod sliced_binary;
#[cfg(test)]
mod sliced_one_way;
pub mod verify;

pub use adaptive::{
    AdaptationAction, AdaptationLog, AdaptationRecord, DriftKind, Supervisor, SupervisorConfig,
};
pub use builder::{BuiltChain, ChainBuilder, ChainPlanFactory, CostConfig};
pub use chain::{ChainSpec, SliceSpec};
pub use dijkstra::{shortest_path, ShortestPath};
pub use lineage::{LineageAnnotatorOp, LineageGateOp};
pub use live::{
    ChainEdit, ChainEditPlan, MigrationMode, MigrationRecord, QueryResults, Session,
    SessionOptions, SessionOutcome, SliceStrategy,
};
pub use migration::{
    merge_slice_operators, merge_spec_slices, rehash_shard_states, split_slice_operator,
    split_slice_operator_eager, split_spec_slice, PurgeWatermarks,
};
pub use planner::{merge_streams, PlannerOptions, SharedChainPlan, CHAIN_ENTRY};
pub use query::{JoinQuery, QueryWorkload};
pub use recovery::{
    CheckpointRecord, OverflowPolicy, Recovery, RecoveryConfig, RecoveryLog, RecoveryRecord,
};
pub use sliced_binary::SlicedBinaryJoinOp;
pub use verify::{collected_fingerprints, expected_fingerprints, expected_results};
