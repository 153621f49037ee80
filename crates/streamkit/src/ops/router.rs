//! Result router.
//!
//! In the selection pull-up and push-down baselines (Sections 3.1–3.2 of the
//! paper) a router dispatches each joined result tuple to every registered
//! query whose window constraint it satisfies: the result `(a, b)` belongs to
//! query `Q_i` iff `|Ta - Tb| < W_i`.  Each check costs one timestamp
//! comparison per registered query, which is exactly the per-result routing
//! cost the paper identifies as a weakness of those strategies.

use std::any::Any;
use std::sync::Arc;

use crate::columnar::eval_predicate_into;
use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::Predicate;
use crate::queue::StreamItem;
use crate::time::TimeDelta;

/// One routing destination: a window constraint plus an optional residual
/// filter applied after routing (e.g. the pulled-up selection of Q2).
#[derive(Debug, Clone)]
pub struct RouteTarget {
    /// Dispatch joined tuples with `|Ta - Tb| < window`.
    pub window: TimeDelta,
    /// Residual selection applied to routed tuples.
    pub filter: Option<Predicate>,
}

impl RouteTarget {
    /// Target with a window constraint only.
    pub fn window_only(window: TimeDelta) -> Self {
        RouteTarget {
            window,
            filter: None,
        }
    }

    /// Target with a window constraint and a residual filter.
    pub fn with_filter(window: TimeDelta, filter: Predicate) -> Self {
        RouteTarget {
            window,
            filter: Some(filter),
        }
    }
}

/// Routes joined tuples to the queries whose window (and filter) they satisfy.
#[derive(Debug)]
pub struct RouterOp {
    name: String,
    targets: Vec<RouteTarget>,
    dispatched: Vec<u64>,
}

impl RouterOp {
    /// Build a router for the given targets; output port `i` serves target `i`.
    pub fn new(name: impl Into<String>, targets: Vec<RouteTarget>) -> Self {
        let dispatched = vec![0; targets.len()];
        RouterOp {
            name: name.into(),
            targets,
            dispatched,
        }
    }

    /// Number of tuples dispatched to each target so far.
    pub fn dispatched_counts(&self) -> &[u64] {
        &self.dispatched
    }

    /// The router fan-out (number of registered queries).
    pub fn fanout(&self) -> usize {
        self.targets.len()
    }
}

impl Operator for RouterOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_output_ports(&self) -> usize {
        self.targets.len()
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                for (port, target) in self.targets.iter().enumerate() {
                    // One timestamp comparison per registered query per result.
                    ctx.counters.route_comparisons += 1;
                    if t.origin_span < target.window {
                        let keep = match &target.filter {
                            Some(pred) => {
                                pred.eval_counted(&t, &mut ctx.counters.filter_comparisons)
                            }
                            None => true,
                        };
                        if keep {
                            self.dispatched[port] += 1;
                            ctx.emit(port, t.clone());
                        }
                    }
                }
            }
            StreamItem::Batch(b) => {
                // Columnar kernel: per target one pass over the origin-span
                // column, the residual filter on the survivors only, and one
                // gathered batch per port — the same rows per port and the
                // same counts as routing the rows one by one.
                let rows = b.len();
                ctx.counters.tuples_processed += rows as u64;
                let mut in_window: Vec<u32> = Vec::with_capacity(rows);
                let mut kept: Vec<u32> = Vec::new();
                for (port, target) in self.targets.iter().enumerate() {
                    ctx.counters.route_comparisons += rows as u64;
                    in_window.clear();
                    in_window.extend(
                        (0u32..)
                            .zip(b.origin_spans())
                            .filter(|(_, span)| **span < target.window)
                            .map(|(row, _)| row),
                    );
                    let selection = match &target.filter {
                        Some(pred) => {
                            let comparisons = &mut ctx.counters.filter_comparisons;
                            eval_predicate_into(pred, &b, &in_window, &mut kept, comparisons);
                            &kept
                        }
                        None => &in_window,
                    };
                    self.dispatched[port] += selection.len() as u64;
                    if selection.len() == rows {
                        ctx.emit(port, Arc::clone(&b));
                    } else if !selection.is_empty() {
                        ctx.emit(port, b.gather(selection));
                    }
                }
            }
            StreamItem::Punctuation(p) => {
                for port in 0..self.targets.len() {
                    ctx.emit(port, p);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple};

    fn joined(span_secs: u64, value: i64) -> Tuple {
        let a = Tuple::of_ints(Timestamp::from_secs(10 + span_secs), StreamId::A, &[value]);
        let b = Tuple::of_ints(Timestamp::from_secs(10), StreamId::B, &[0]);
        Tuple::join(&a, &b, StreamId(2))
    }

    #[test]
    fn routes_by_window_constraint() {
        let mut op = RouterOp::new(
            "router",
            vec![
                RouteTarget::window_only(TimeDelta::from_secs(1)),
                RouteTarget::window_only(TimeDelta::from_secs(60)),
            ],
        );
        assert_eq!(op.fanout(), 2);
        let mut ctx = OpContext::new();
        // span 0: both queries; span 30: only the 60s query.
        op.process(0, joined(0, 1).into(), &mut ctx);
        op.process(0, joined(30, 2).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 3);
        assert_eq!(op.dispatched_counts(), &[1, 2]);
        // Two results x two targets = four routing comparisons.
        assert_eq!(ctx.counters.route_comparisons, 4);
    }

    #[test]
    fn residual_filter_applies_after_routing() {
        let mut op = RouterOp::new(
            "router",
            vec![RouteTarget::with_filter(
                TimeDelta::from_secs(60),
                Predicate::gt(0, 5i64),
            )],
        );
        let mut ctx = OpContext::new();
        op.process(0, joined(1, 2).into(), &mut ctx);
        op.process(0, joined(1, 9).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(ctx.counters.filter_comparisons, 2);
        assert_eq!(op.dispatched_counts(), &[1]);
    }

    #[test]
    fn batch_kernel_matches_row_routing() {
        use crate::columnar::ColumnBatch;
        // Targets: one every row passes, one no row passes, a window that
        // splits the rows, and a filtered one (filter counted on the rows
        // inside its window only).
        let targets = || {
            vec![
                RouteTarget::window_only(TimeDelta::from_secs(100)),
                RouteTarget::window_only(TimeDelta::from_secs(0)),
                RouteTarget::window_only(TimeDelta::from_secs(4)),
                RouteTarget::with_filter(
                    TimeDelta::from_secs(6),
                    Predicate::gt(0, 2i64).and(Predicate::le(0, 7i64)),
                ),
            ]
        };
        let rows: Vec<Tuple> = (0..10).map(|i| joined(i, (i * 3 % 10) as i64)).collect();
        let per_port = |out: Vec<(PortId, StreamItem)>| {
            let mut ports: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
            for (port, item) in out {
                match item {
                    StreamItem::Tuple(t) => ports[port].push(t),
                    StreamItem::Batch(b) => ports[port].extend(b.materialize()),
                    StreamItem::Punctuation(_) => {}
                }
            }
            ports
        };

        let mut by_row = RouterOp::new("router", targets());
        let mut row_ctx = OpContext::new();
        for t in &rows {
            by_row.process(0, t.clone().into(), &mut row_ctx);
        }
        let mut by_batch = RouterOp::new("router", targets());
        let mut batch_ctx = OpContext::new();
        let batch = Arc::new(ColumnBatch::from_tuples(&rows).unwrap());
        by_batch.process(0, Arc::clone(&batch).into(), &mut batch_ctx);

        let batch_out = batch_ctx.take_outputs();
        // One batch per port that receives anything; the all-pass port gets
        // the batch it was sent, not a copy.
        assert_eq!(batch_out.len(), 3);
        assert!(matches!(
            &batch_out[0],
            (0, StreamItem::Batch(b)) if Arc::ptr_eq(b, &batch)
        ));
        let want = per_port(row_ctx.take_outputs());
        assert_eq!(want[0].len(), 10);
        assert!(want[1].is_empty());
        assert!(!want[2].is_empty() && !want[3].is_empty());
        assert_eq!(per_port(batch_out), want);
        assert_eq!(by_batch.dispatched_counts(), by_row.dispatched_counts());
        let (b, r) = (&batch_ctx.counters, &row_ctx.counters);
        assert_eq!(b.route_comparisons, 40, "rows x targets");
        assert_eq!(b.route_comparisons, r.route_comparisons);
        assert_eq!(b.filter_comparisons, r.filter_comparisons);
        assert!(r.filter_comparisons > 6, "the second conjunct ran too");
        assert_eq!(b.tuples_processed, r.tuples_processed);
    }

    #[test]
    fn punctuations_broadcast() {
        let mut op = RouterOp::new(
            "router",
            vec![
                RouteTarget::window_only(TimeDelta::from_secs(1)),
                RouteTarget::window_only(TimeDelta::from_secs(2)),
            ],
        );
        let mut ctx = OpContext::new();
        op.process(
            0,
            crate::punctuation::Punctuation::new(Timestamp::from_secs(1)).into(),
            &mut ctx,
        );
        assert_eq!(ctx.take_outputs().len(), 2);
    }
}
