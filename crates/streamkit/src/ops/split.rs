//! Stream split (partitioning) operator.
//!
//! The selection push-down baseline (Section 3.2 of the paper) partitions
//! input stream A by the selection condition, so disjoint sub-streams feed
//! different join operators.  `SplitOp` has one predicate per output port and
//! routes every tuple to the *first* port whose predicate matches; predicates
//! are expected to be disjoint and exhaustive for a true partition.

use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::Predicate;
use crate::queue::StreamItem;

/// Partition a stream into disjoint sub-streams by predicate.
#[derive(Debug)]
pub struct SplitOp {
    name: String,
    predicates: Vec<Predicate>,
    routed: Vec<u64>,
    unmatched: u64,
}

impl SplitOp {
    /// One predicate per output port.
    pub fn new(name: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        let routed = vec![0; predicates.len()];
        SplitOp {
            name: name.into(),
            predicates,
            routed,
            unmatched: 0,
        }
    }

    /// How many tuples have been routed to each output port.
    pub fn routed_counts(&self) -> &[u64] {
        &self.routed
    }

    /// Tuples that matched no predicate (dropped).
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }
}

impl Operator for SplitOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_output_ports(&self) -> usize {
        self.predicates.len()
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                let mut matched = false;
                for (port, pred) in self.predicates.iter().enumerate() {
                    if pred.eval_counted(&t, &mut ctx.counters.split_comparisons) {
                        self.routed[port] += 1;
                        ctx.emit(port, t);
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    self.unmatched += 1;
                }
            }
            StreamItem::Batch(b) => {
                // Row fallback: partitioning routes each row to its own port
                // (counter-identical to the row path).
                for t in b.materialize() {
                    self.process(0, StreamItem::Tuple(t), ctx);
                }
            }
            StreamItem::Punctuation(p) => {
                // Progress information is valid for every partition.
                for port in 0..self.predicates.len() {
                    ctx.emit(port, p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::punctuation::Punctuation;
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple};

    fn tup(v: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[v])
    }

    #[test]
    fn partitions_by_first_matching_predicate() {
        let mut op = SplitOp::new(
            "split",
            vec![Predicate::gt(0, 10i64), Predicate::le(0, 10i64)],
        );
        assert_eq!(op.num_output_ports(), 2);
        let mut ctx = OpContext::new();
        op.process(0, tup(20).into(), &mut ctx);
        op.process(0, tup(5).into(), &mut ctx);
        op.process(0, tup(11).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
        assert_eq!(out[2].0, 0);
        assert_eq!(op.routed_counts(), &[2, 1]);
        assert_eq!(op.unmatched(), 0);
        // Matching the first port costs one comparison, the second two.
        assert_eq!(ctx.counters.split_comparisons, 4);
    }

    #[test]
    fn unmatched_tuples_are_dropped() {
        let mut op = SplitOp::new("split", vec![Predicate::gt(0, 100i64)]);
        let mut ctx = OpContext::new();
        op.process(0, tup(1).into(), &mut ctx);
        assert!(ctx.take_outputs().is_empty());
        assert_eq!(op.unmatched(), 1);
    }

    #[test]
    fn punctuations_broadcast_to_all_ports() {
        let mut op = SplitOp::new("split", vec![Predicate::True, Predicate::False]);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(3)).into(),
            &mut ctx,
        );
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, i)| i.is_punctuation()));
    }
}
