//! Broadcast operator: replicate one stream to several consumers.
//!
//! Used by the unshared baseline, where every per-query plan needs its own
//! copy of both input streams.

use streamkit::operator::{OpContext, Operator, PortId};
use streamkit::queue::StreamItem;

/// Replicates every input item to `fanout` output ports.
#[derive(Debug)]
pub struct BroadcastOp {
    name: String,
    fanout: usize,
}

impl BroadcastOp {
    /// Build a broadcast with the given fan-out.
    pub fn new(name: impl Into<String>, fanout: usize) -> Self {
        BroadcastOp {
            name: name.into(),
            fanout: fanout.max(1),
        }
    }

    /// The number of output ports.
    pub fn fanout(&self) -> usize {
        self.fanout
    }
}

impl Operator for BroadcastOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_output_ports(&self) -> usize {
        self.fanout
    }

    fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
        if !item.is_punctuation() {
            ctx.counters.tuples_processed += 1;
        }
        for port in 0..self.fanout {
            ctx.emit(port, item.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::tuple::{StreamId, Tuple};
    use streamkit::Timestamp;

    #[test]
    fn replicates_to_every_port() {
        let mut op = BroadcastOp::new("bcast", 3);
        assert_eq!(op.fanout(), 3);
        assert_eq!(op.num_output_ports(), 3);
        let mut ctx = OpContext::new();
        let t = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[1]);
        op.process(0, t.into(), &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn zero_fanout_clamps_to_one() {
        let op = BroadcastOp::new("bcast", 0);
        assert_eq!(op.fanout(), 1);
    }
}
