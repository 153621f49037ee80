//! The operator abstraction.
//!
//! Operators are push-based: the scheduler hands them one [`StreamItem`] at a
//! time on a given input port, and they emit zero or more items on their
//! output ports through the [`OpContext`].  All stateful operators report
//! their state size in tuples so the executor can sample total state memory,
//! and capture and restore their own state as a [`NodeState`].

use crate::checkpoint::NodeState;
use crate::error::{Result, StreamError};
use crate::ops::slice_join::SliceChain;
use crate::ops::SinkOp;
use crate::queue::StreamItem;
use crate::stats::CostCounters;

/// Index of an input or output port of an operator.
pub type PortId = usize;

/// Execution context handed to operators: an output buffer plus the cost
/// counters for the current operator.
#[derive(Debug, Default)]
pub struct OpContext {
    outputs: Vec<(PortId, StreamItem)>,
    /// Comparison counters attributed to the running operator.
    pub counters: CostCounters,
}

impl OpContext {
    /// Fresh context with zeroed counters.
    pub fn new() -> Self {
        OpContext::default()
    }

    /// Emit an item on the given output port.
    pub fn emit(&mut self, port: PortId, item: impl Into<StreamItem>) {
        self.counters.items_emitted += 1;
        self.outputs.push((port, item.into()));
    }

    /// Drain the buffered outputs (used by the executor).
    pub fn take_outputs(&mut self) -> Vec<(PortId, StreamItem)> {
        std::mem::take(&mut self.outputs)
    }

    /// Swap the buffered outputs with `buf` (an allocation-reuse variant of
    /// [`OpContext::take_outputs`] used by the executor's hot loop).
    pub fn swap_outputs(&mut self, buf: &mut Vec<(PortId, StreamItem)>) {
        std::mem::swap(&mut self.outputs, buf);
    }

    /// Reset the comparison counters (the executor attributes them per
    /// operator visit).
    pub fn reset_counters(&mut self) {
        self.counters = CostCounters::default();
    }

    /// Number of buffered outputs (mostly useful in tests).
    pub fn pending_outputs(&self) -> usize {
        self.outputs.len()
    }
}

/// A stream operator.
///
/// Implementations must be deterministic given the sequence of `(port, item)`
/// calls; the round-robin scheduler may interleave operators arbitrarily, and
/// the paper's correctness argument (Lemma 1) is independent of scheduling.
///
/// Only [`Operator::name`] and [`Operator::process`] are required.  An
/// operator whose state must survive a drained punctuation boundary captures
/// and restores it itself ([`Operator::node_state`] /
/// [`Operator::restore_state`]) — the path checkpoints and hot-key
/// replication reach a node's state by.  Code that needs a concrete operator
/// asks through the typed accessors ([`Operator::as_sink`],
/// [`Operator::slice_chain`]).
pub trait Operator: Send {
    /// Human-readable operator name (used in reports).
    fn name(&self) -> &str;

    /// Number of input ports.
    fn num_input_ports(&self) -> usize {
        1
    }

    /// Number of output ports.
    fn num_output_ports(&self) -> usize {
        1
    }

    /// Process one item arriving on `port`.
    fn process(&mut self, port: PortId, item: StreamItem, ctx: &mut OpContext);

    /// Process a timestamp-ordered run of items arriving on `port`, draining
    /// `items`.  The executor feeds whole queue runs here
    /// (see [`Queue::pop_run_into`](crate::queue::Queue::pop_run_into)) so
    /// stateful operators can amortise per-run work (purges, watermark
    /// merges, key hashing) over the batch.
    ///
    /// The default implementation loops over [`Operator::process`].  Default
    /// trait methods are monomorphised per implementing type, so this is
    /// already one virtual call per run with a statically dispatched inner
    /// loop — simple per-item operators (selects, sinks, ...)
    /// need no override; only operators with genuinely amortisable work do.
    ///
    /// Overrides must be **item-at-a-time equivalent**: the emitted output
    /// multiset, its timestamp order, and all output-scaling counters
    /// (probe/filter/route/split/union comparisons) must match processing
    /// the run one item at a time.  Internal bookkeeping that is monotone in
    /// the input — cross-purge timestamp comparisons, transient peak-state,
    /// punctuation granularity, and the relative order of *equal-timestamp*
    /// items from different ports — may differ.
    fn process_batch(&mut self, port: PortId, items: &mut Vec<StreamItem>, ctx: &mut OpContext) {
        for item in items.drain(..) {
            self.process(port, item, ctx);
        }
    }

    /// Called once when all input is exhausted, so operators can flush
    /// buffered output (e.g. the order-preserving union).
    fn flush(&mut self, _ctx: &mut OpContext) {}

    /// Current state size in tuples (join windows, union buffers, ...).
    fn state_size(&self) -> usize {
        0
    }

    /// Estimated live bytes of this operator's window state (inline tuple
    /// slots plus heap payloads).  Join operators report their
    /// [`JoinState`](crate::join_state::JoinState) byte bookkeeping;
    /// stateless and transient-buffer operators keep the zero default.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Estimated bytes the operator's state storage currently *holds on to*,
    /// including the unfilled slots of its queues — what the allocator
    /// sees, as opposed to what is live.
    /// Defaults to [`Operator::state_bytes`].
    fn state_capacity_bytes(&self) -> usize {
        self.state_bytes()
    }

    /// `true` if this operator's `state_size` is a transient reorder/queue
    /// buffer rather than window state.  The paper distinguishes *state
    /// memory* (join windows) from *queue memory* (Section 2); the executor
    /// attributes transient buffers to the latter when sampling memory.
    fn is_transient_buffer(&self) -> bool {
        false
    }

    /// This node's recoverable state at a drained punctuation boundary (see
    /// [`crate::checkpoint`]), read without disturbing the operator.  The
    /// default suits operators that keep nothing a boundary must preserve:
    /// it returns [`NodeState::Stateless`], and refuses with
    /// [`StreamError::Checkpoint`] when the operator reports window state it
    /// has no hook for.
    fn node_state(&self) -> Result<NodeState> {
        if self.state_size() > 0 && !self.is_transient_buffer() {
            return Err(StreamError::Checkpoint(format!(
                "operator '{}' holds {} state tuples but has no node_state hook",
                self.name(),
                self.state_size()
            )));
        }
        Ok(NodeState::Stateless)
    }

    /// Replace this node's state with `state`, captured by
    /// [`Operator::node_state`] from a node of the same shape.  Restoration
    /// is absolute, and a state of another kind (or shape) is refused with
    /// [`StreamError::Checkpoint`].  The default accepts only
    /// [`NodeState::Stateless`].
    fn restore_state(&mut self, state: NodeState) -> Result<()> {
        match state {
            NodeState::Stateless => Ok(()),
            other => Err(other.mismatch(self.name())),
        }
    }

    /// This operator as a result sink, if it is one.
    fn as_sink(&self) -> Option<&SinkOp> {
        None
    }

    /// The slices this operator runs, with their stored tuples: its one
    /// slice for a standalone slice join, every slice of a sliced chain,
    /// `None` otherwise.
    fn slice_chain(&self) -> Option<&SliceChain> {
        None
    }

    /// The slices this operator runs, mutably (see
    /// [`Operator::slice_chain`]).
    fn slice_chain_mut(&mut self) -> Option<&mut SliceChain> {
        None
    }

    /// Cumulative counters of the parts of this operator that reports list
    /// as nodes of their own — one per [`Operator::slice_chain`] slice for a
    /// sliced chain — or none when the operator reports as one node.  The
    /// executor attributes each call's whole counters to the node and
    /// reports the node's share net of its parts.
    fn part_counters(&self) -> &[CostCounters] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple};

    struct Echo;

    impl Operator for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn process(&mut self, _port: PortId, item: StreamItem, ctx: &mut OpContext) {
            ctx.emit(0, item);
        }
    }

    #[test]
    fn context_buffers_and_drains_outputs() {
        let mut ctx = OpContext::new();
        let mut op = Echo;
        assert_eq!(op.num_input_ports(), 1);
        assert_eq!(op.num_output_ports(), 1);
        assert_eq!(op.state_size(), 0);
        let t = Tuple::of_ints(Timestamp::from_secs(1), StreamId::A, &[1]);
        op.process(0, t.clone().into(), &mut ctx);
        assert_eq!(ctx.pending_outputs(), 1);
        assert_eq!(ctx.counters.items_emitted, 1);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1.as_tuple(), Some(&t));
        assert_eq!(ctx.pending_outputs(), 0);
    }

    #[test]
    fn default_process_batch_loops_over_process() {
        let mut ctx = OpContext::new();
        let mut op = Echo;
        let mut items: Vec<StreamItem> = (1..=3u64)
            .map(|s| Tuple::of_ints(Timestamp::from_secs(s), StreamId::A, &[s as i64]).into())
            .collect();
        op.process_batch(0, &mut items, &mut ctx);
        assert!(items.is_empty(), "batch input is drained");
        assert_eq!(ctx.pending_outputs(), 3);
        assert_eq!(ctx.counters.items_emitted, 3);
    }
}
