//! Projection operator.

use std::sync::Arc;

use crate::operator::{OpContext, Operator, PortId};
use crate::queue::StreamItem;
use crate::tuple::Tuple;

// Columnar runs are projected with the per-column kernel
// [`crate::columnar::ColumnBatch::project`]; see `process`.

/// Stateless projection: keeps the listed payload columns in order.
///
/// The paper's example queries project `A.*`; projection is included for
/// completeness of the substrate and used by the query translator.
#[derive(Debug)]
pub struct ProjectOp {
    name: String,
    columns: Vec<usize>,
}

impl ProjectOp {
    /// Keep the columns at the given indexes, in the given order.
    pub fn new(name: impl Into<String>, columns: Vec<usize>) -> Self {
        ProjectOp {
            name: name.into(),
            columns,
        }
    }

    /// The projected column indexes.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    fn apply(&self, t: &Tuple) -> Tuple {
        let values: Vec<_> = self
            .columns
            .iter()
            .map(|&c| t.value(c).cloned().unwrap_or(crate::tuple::Value::Null))
            .collect();
        Tuple {
            values: Arc::from(values),
            // The projected payload has a new field layout, so a key hash
            // memoised over the input layout would be wrong.
            key_hash: None,
            ..t.clone()
        }
    }
}

impl Operator for ProjectOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                ctx.emit(0, self.apply(&t));
            }
            StreamItem::Batch(b) => {
                ctx.counters.tuples_processed += b.len() as u64;
                ctx.emit(0, b.project(&self.columns));
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
    use crate::tuple::{StreamId, Value};

    #[test]
    fn projects_and_reorders_columns() {
        let mut op = ProjectOp::new("pi", vec![2, 0]);
        let mut ctx = OpContext::new();
        let t = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[10, 20, 30]);
        op.process(0, t.into(), &mut ctx);
        let out = ctx.take_outputs();
        let projected = out[0].1.as_tuple().unwrap();
        assert_eq!(projected.arity(), 2);
        assert_eq!(projected.value(0), Some(&Value::Int(30)));
        assert_eq!(projected.value(1), Some(&Value::Int(10)));
        assert_eq!(op.columns(), &[2, 0]);
    }

    #[test]
    fn missing_columns_become_null() {
        let mut op = ProjectOp::new("pi", vec![0, 9]);
        let mut ctx = OpContext::new();
        let t = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[10]);
        op.process(0, t.into(), &mut ctx);
        let out = ctx.take_outputs();
        let projected = out[0].1.as_tuple().unwrap();
        assert_eq!(projected.value(1), Some(&Value::Null));
    }

    #[test]
    fn punctuations_pass_through() {
        let mut op = ProjectOp::new("pi", vec![0]);
        let mut ctx = OpContext::new();
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(5)).into(),
            &mut ctx,
        );
        assert!(ctx.take_outputs()[0].1.is_punctuation());
    }
}
