//! The operator abstraction.
//!
//! Operators are push-based: the scheduler hands them one [`StreamItem`] at a
//! time on a given input port, and they emit zero or more items on their
//! output ports through the [`OpContext`].  All stateful operators report
//! their state size in tuples so the executor can sample total state memory.

use std::any::Any;

use crate::queue::StreamItem;
use crate::stats::CostCounters;
use crate::tuple::Tuple;

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
    /// loop — simple per-item operators (selects, projections, sinks, ...)
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
    /// [`JoinState`](crate::join_state::JoinState) arena bookkeeping;
    /// stateless and transient-buffer operators keep the zero default.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Estimated bytes the operator's state storage currently *holds on to*,
    /// including purged-but-unreleased arena slots and unfilled tail
    /// capacity — what the allocator sees, as opposed to what is live.
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

    /// Take this operator's window state as two timestamp-ordered tuple
    /// runs `(side a, side b)`, leaving the operator empty.  Returns `None`
    /// when the operator has no migratable window state (the default).
    ///
    /// This is the generic face of the state-migration path the sharded
    /// executor's hot-key replication uses: together with
    /// [`Operator::load_window_states`] it lets the router move or replicate
    /// a key's stored bucket across shard plan instances.  The window join
    /// implements the pair; stateless and transient-buffer operators keep
    /// the default.
    /// Call only at quiescence (the owning executor drained), so no partial
    /// batch is in flight.
    fn drain_window_states(&mut self) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        None
    }

    /// Restore window state drained by [`Operator::drain_window_states`]
    /// (possibly merged with replicated tuples, still timestamp-ordered per
    /// side).  The default panics: it must only be called on operators whose
    /// `drain_window_states` returns `Some`.
    fn load_window_states(&mut self, _side_a: Vec<Tuple>, _side_b: Vec<Tuple>) {
        panic!(
            "operator '{}' does not support window-state migration",
            self.name()
        );
    }

    /// Downcasting support (sinks expose collected results this way).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
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
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
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

    #[test]
    fn operators_are_downcastable() {
        let mut op = Echo;
        assert!(op.as_any().downcast_ref::<Echo>().is_some());
        assert!(op.as_any_mut().downcast_mut::<Echo>().is_some());
    }
}
