//! Result sinks (the paper's "result receivers").

use crate::checkpoint::NodeState;
use crate::error::Result;
use crate::operator::{OpContext, Operator, PortId};
use crate::queue::StreamItem;
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// Collects the result tuples of one registered continuous query.
///
/// By default only counts and the last timestamp are kept; `retaining()`
/// additionally stores every tuple, which tests and the equivalence oracle
/// use to compare result sets.
#[derive(Debug)]
pub struct SinkOp {
    name: String,
    count: u64,
    last_ts: Option<Timestamp>,
    out_of_order: u64,
    retain: bool,
    collected: Vec<Tuple>,
}

impl SinkOp {
    /// A counting sink.
    pub fn new(name: impl Into<String>) -> Self {
        SinkOp {
            name: name.into(),
            count: 0,
            last_ts: None,
            out_of_order: 0,
            retain: false,
            collected: Vec::new(),
        }
    }

    /// A sink that also stores every received tuple.
    pub fn retaining(name: impl Into<String>) -> Self {
        let mut s = SinkOp::new(name);
        s.retain = true;
        s
    }

    /// Number of tuples received.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of tuples that arrived with a timestamp smaller than a
    /// previously received tuple (should be zero for order-preserving plans).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// The retained tuples (empty unless built with [`SinkOp::retaining`]).
    pub fn collected(&self) -> &[Tuple] {
        &self.collected
    }
}

impl Operator for SinkOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_output_ports(&self) -> usize {
        0
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        match item {
            StreamItem::Tuple(t) => {
                ctx.counters.tuples_processed += 1;
                self.count += 1;
                if let Some(prev) = self.last_ts {
                    if t.ts < prev {
                        self.out_of_order += 1;
                    }
                }
                if self.last_ts.is_none_or(|prev| t.ts >= prev) {
                    self.last_ts = Some(t.ts);
                }
                if self.retain {
                    self.collected.push(t);
                }
            }
            StreamItem::Batch(b) => {
                // A columnar run is counted without materializing rows; only
                // a retaining sink pays for row tuples.
                ctx.counters.tuples_processed += b.len() as u64;
                self.count += b.len() as u64;
                b.for_each_ts(|ts| {
                    if let Some(prev) = self.last_ts {
                        if ts < prev {
                            self.out_of_order += 1;
                        }
                    }
                    if self.last_ts.is_none_or(|prev| ts >= prev) {
                        self.last_ts = Some(ts);
                    }
                });
                if self.retain {
                    self.collected.extend(b.materialize());
                }
            }
            StreamItem::Punctuation(_) => {}
        }
    }

    fn node_state(&self) -> Result<NodeState> {
        Ok(NodeState::Sink {
            count: self.count,
            last_ts: self.last_ts,
            out_of_order: self.out_of_order,
            collected: self.collected.clone(),
        })
    }

    /// Overwrite the cumulative counters with checkpointed ones (absolute,
    /// not additive: crash recovery restores the counts as of the checkpoint
    /// and then replays the post-checkpoint input, which re-delivers the
    /// post-checkpoint results).
    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        let NodeState::Sink {
            count,
            last_ts,
            out_of_order,
            collected,
        } = state
        else {
            return Err(state.mismatch(&self.name));
        };
        self.count = count;
        self.last_ts = last_ts;
        self.out_of_order = out_of_order;
        self.collected = collected;
        Ok(())
    }

    fn as_sink(&self) -> Option<&SinkOp> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::punctuation::Punctuation;
    use crate::tuple::StreamId;

    fn tup(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0])
    }

    #[test]
    fn counting_sink_tracks_order() {
        let mut op = SinkOp::new("q1");
        let mut ctx = OpContext::new();
        op.process(0, tup(1).into(), &mut ctx);
        op.process(0, tup(3).into(), &mut ctx);
        op.process(0, tup(2).into(), &mut ctx);
        op.process(
            0,
            Punctuation::new(Timestamp::from_secs(9)).into(),
            &mut ctx,
        );
        assert_eq!(op.count(), 3);
        assert_eq!(op.out_of_order(), 1);
        assert!(op.collected().is_empty());
        assert_eq!(op.num_output_ports(), 0);
    }

    #[test]
    fn retaining_sink_stores_tuples() {
        let mut op = SinkOp::retaining("q2");
        let mut ctx = OpContext::new();
        op.process(0, tup(1).into(), &mut ctx);
        op.process(0, tup(2).into(), &mut ctx);
        assert_eq!(op.collected().len(), 2);
        assert_eq!(op.count(), 2);
    }
}
