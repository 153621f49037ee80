//! Selection (filter) operator.

use crate::columnar::eval_predicate;
use crate::operator::{OpContext, Operator, PortId};
use crate::predicate::Predicate;
use crate::queue::StreamItem;

/// Stateless selection: forwards tuples that satisfy the predicate, drops the
/// rest, and forwards punctuations unchanged.  Predicate comparisons are
/// charged to `filter_comparisons`.
#[derive(Debug)]
pub struct SelectOp {
    name: String,
    predicate: Predicate,
    passed: u64,
    dropped: u64,
}

impl SelectOp {
    /// Build a selection with the given predicate.
    pub fn new(name: impl Into<String>, predicate: Predicate) -> Self {
        SelectOp {
            name: name.into(),
            predicate,
            passed: 0,
            dropped: 0,
        }
    }

    /// Number of tuples that satisfied the predicate so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Number of tuples dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The selection predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }
}

impl Operator for SelectOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                if self
                    .predicate
                    .eval_counted(&t, &mut ctx.counters.filter_comparisons)
                {
                    self.passed += 1;
                    ctx.emit(0, t);
                } else {
                    self.dropped += 1;
                }
            }
            StreamItem::Batch(b) => {
                ctx.counters.tuples_processed += b.len() as u64;
                // Columnar selection kernel: one pass over the run, with
                // comparison counts identical to per-row `eval_counted`.
                let passers =
                    eval_predicate(&self.predicate, &b, &mut ctx.counters.filter_comparisons);
                self.passed += passers.len() as u64;
                self.dropped += (b.len() - passers.len()) as u64;
                if passers.len() == b.len() {
                    ctx.emit(0, b);
                } else if !passers.is_empty() {
                    ctx.emit(0, b.gather(&passers));
                }
            }
            p @ StreamItem::Punctuation(_) => ctx.emit(0, p),
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
    fn filters_tuples_and_counts_comparisons() {
        let mut op = SelectOp::new("sigma_A", Predicate::gt(0, 5i64));
        let mut ctx = OpContext::new();
        op.process(0, tup(9).into(), &mut ctx);
        op.process(0, tup(3).into(), &mut ctx);
        op.process(0, tup(6).into(), &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 2);
        assert_eq!(op.passed(), 2);
        assert_eq!(op.dropped(), 1);
        assert_eq!(ctx.counters.filter_comparisons, 3);
        assert_eq!(ctx.counters.tuples_processed, 3);
        assert!(op.predicate().eval(&tup(10)));
    }

    #[test]
    fn punctuations_pass_through() {
        let mut op = SelectOp::new("sigma", Predicate::False);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(2)).into(),
            &mut ctx,
        );
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_punctuation());
        assert_eq!(ctx.counters.filter_comparisons, 0);
    }

    #[test]
    fn name_and_ports() {
        let op = SelectOp::new("s", Predicate::True);
        assert_eq!(op.name(), "s");
        assert_eq!(op.num_input_ports(), 1);
        assert_eq!(op.num_output_ports(), 1);
        assert_eq!(op.state_size(), 0);
    }
}
