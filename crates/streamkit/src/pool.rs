//! Persistent worker pool for the sharded executor.
//!
//! [`crate::shard::ShardedExecutor`] used to spawn one scoped OS thread per
//! shard on *every* `run` call.  This module replaces that with N long-lived
//! workers, each owning its shard's plan instance between synchronisation
//! barriers, fed through a bounded single-producer / single-consumer ring of
//! [`Job`]s from the router thread.
//!
//! Design notes:
//!
//! * **Bounded ring, blocking semantics.**  [`SpscRing`] is a fixed-capacity
//!   circular buffer guarded by a mutex and two condvars.  A full ring blocks
//!   the producer (backpressure) and reports the stall so the router can
//!   account it in [`crate::CostCounters::router_stalls`]; peak occupancy is
//!   tracked for [`crate::MemoryStats::peak_ring_runs`].  On a mostly
//!   single-core CI container a lock-based ring is both simpler and no slower
//!   than a lock-free one; the interface (bounded, SPSC, run-granular) is what
//!   the executor depends on, not the synchronisation strategy.
//! * **Checkout model.**  Executors rest inside `ShardedExecutor` between
//!   barriers.  [`Job::Adopt`] moves an executor to its worker, [`Job::Run`]
//!   feeds it a run of [`StreamItem`]s to ingest and process, and
//!   [`Job::Park`] finishes outstanding work and hands the executor back
//!   through a reply channel.  While parked, `pause`/`resume`/`replace_plans`
//!   and the state moves operate on the executors directly, with no
//!   locking — the workers never touch a parked executor.
//! * **Run granularity matches [`crate::queue::Queue::pop_run_into`].**  A
//!   `Job::Run` carries a timestamp-ordered batch; items with equal
//!   timestamps keep their arrival (FIFO) order through the ring exactly as
//!   they would through an in-plan queue, so sharded executions remain
//!   scheduling-equivalent to single-executor runs (Lemma 1).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::{panic_message, Result, StreamError};
use crate::executor::Executor;
use crate::queue::StreamItem;

/// Default capacity (in queued runs) of each worker's input ring.
pub const DEFAULT_RING_CAPACITY: usize = 8;

/// How often `park_all` wakes from the reply channel to scan for dead
/// workers while waiting on outstanding park replies.
const PARK_POLL: Duration = Duration::from_millis(50);

struct RingState<T> {
    buf: VecDeque<T>,
    capacity: usize,
    peak: usize,
    closed: bool,
}

struct RingInner<T> {
    state: Mutex<RingState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// A bounded single-producer / single-consumer ring.
///
/// `push` blocks while the ring is full (and reports that it had to);
/// `pop` blocks while it is empty and returns `None` once the ring is closed
/// and drained.  Clones share the same buffer; the type does not enforce the
/// single-producer / single-consumer discipline, it only assumes it.
pub struct SpscRing<T> {
    inner: Arc<RingInner<T>>,
}

impl<T> Clone for SpscRing<T> {
    fn clone(&self) -> Self {
        SpscRing {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> SpscRing<T> {
    /// Lock the ring state, tolerating mutex poisoning.  Every mutation the
    /// ring performs under the lock is a single panic-free step (`VecDeque`
    /// push/pop, flag and counter writes), so a poisoned mutex can only mean
    /// a *caller* panicked elsewhere while a guard was live on its stack —
    /// the protected state itself is still consistent and safe to reuse.
    /// Before this, one worker panic turned into a whole-session abort the
    /// next time any thread touched the ring.
    fn lock_state(&self) -> MutexGuard<'_, RingState<T>> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a ring holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        SpscRing {
            inner: Arc::new(RingInner {
                state: Mutex::new(RingState {
                    buf: VecDeque::with_capacity(capacity),
                    capacity,
                    peak: 0,
                    closed: false,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
            }),
        }
    }

    /// Blocking push.  Returns `Ok(true)` when the producer had to wait for
    /// space (a backpressure stall), `Ok(false)` on an immediate push, and an
    /// error if the ring was closed.
    pub fn push(&self, item: T) -> Result<bool> {
        let mut state = self.lock_state();
        let mut stalled = false;
        while state.buf.len() >= state.capacity && !state.closed {
            stalled = true;
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return Err(StreamError::Execution(
                "worker ring closed while pushing".into(),
            ));
        }
        state.buf.push_back(item);
        state.peak = state.peak.max(state.buf.len());
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(stalled)
    }

    /// Non-blocking push.  Returns the item back when the ring is full.
    pub fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut state = self.lock_state();
        if state.closed || state.buf.len() >= state.capacity {
            return Err(item);
        }
        state.buf.push_back(item);
        state.peak = state.peak.max(state.buf.len());
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop.  Returns `None` once the ring is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock_state();
        loop {
            if let Some(item) = state.buf.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .inner
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.lock_state();
        let item = state.buf.pop_front();
        if item.is_some() {
            drop(state);
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Close the ring: producers error out, consumers drain then see `None`.
    pub fn close(&self) {
        let mut state = self.lock_state();
        state.closed = true;
        drop(state);
        self.inner.not_full.notify_all();
        self.inner.not_empty.notify_all();
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.lock_state().buf.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.lock_state().capacity
    }

    /// High-water mark of occupancy since creation.
    pub fn peak(&self) -> usize {
        self.lock_state().peak
    }
}

/// One unit of work for a shard worker.
pub enum Job {
    /// Hand the worker its executor (checkout: pool takes ownership).
    Adopt(Box<Executor>),
    /// Ingest a timestamp-ordered run of items at `entry` and process to
    /// quiescence.
    Run {
        /// Entry-point name to ingest at.
        entry: String,
        /// The run, in the order the router emitted it.
        items: Vec<StreamItem>,
    },
    /// Finish outstanding work and return the executor through the reply
    /// channel (check-in).  The worker stays alive waiting for the next
    /// `Adopt`.
    Park,
}

/// A worker's reply to [`Job::Park`].
pub struct ParkedShard {
    /// Which shard this executor belongs to.
    pub shard: usize,
    /// The executor, returned to the caller.  `None` only if the worker was
    /// parked without ever adopting an executor.
    pub executor: Option<Box<Executor>>,
    /// First error encountered since adoption, if any.
    pub outcome: Result<()>,
}

/// N long-lived shard workers fed by bounded rings.
///
/// Created once per [`crate::shard::ShardedExecutor`]; reused across every
/// `run` call and live-reslice epoch.  Dropping the pool closes the rings and
/// joins all threads.
pub struct WorkerPool {
    rings: Vec<SpscRing<Job>>,
    replies: mpsc::Receiver<ParkedShard>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` threads, each with a ring of `ring_capacity` runs.
    pub fn new(workers: usize, ring_capacity: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        let (tx, rx) = mpsc::channel();
        let mut rings = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let ring = SpscRing::new(ring_capacity);
            let worker_ring = ring.clone();
            let worker_tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ss-shard-{shard}"))
                .spawn(move || worker_loop(shard, worker_ring, worker_tx))
                .expect("failed to spawn shard worker");
            rings.push(ring);
            handles.push(handle);
        }
        WorkerPool {
            rings,
            replies: rx,
            handles,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Send a job to `shard`'s worker.  Returns whether the producer stalled
    /// on a full ring.
    pub fn send(&self, shard: usize, job: Job) -> Result<bool> {
        self.rings[shard].push(job)
    }

    /// Park every worker and collect the executors back, ordered by shard.
    ///
    /// Worker panics are caught inside the worker loop ([`worker_loop`]), so
    /// a failed run normally still parks — with the failure in
    /// [`ParkedShard::outcome`].  Should a worker thread nevertheless die
    /// (a panic while unwinding, a stack overflow abort path, ...), the
    /// barrier must not block forever on a reply that will never come: it
    /// polls the reply channel and scans the outstanding workers' join
    /// handles, surfacing the dead shards as a typed
    /// [`StreamError::WorkerFailed`] instead of deadlocking.
    pub fn park_all(&self) -> Result<Vec<ParkedShard>> {
        for ring in &self.rings {
            ring.push(Job::Park)?;
        }
        let n = self.rings.len();
        let mut parked: Vec<Option<ParkedShard>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while received < n {
            match self.replies.recv_timeout(PARK_POLL) {
                Ok(reply) => {
                    let slot = reply.shard;
                    if parked[slot].replace(reply).is_some() {
                        return Err(StreamError::Execution(format!(
                            "shard {slot} replied to park twice"
                        )));
                    }
                    received += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let dead: Vec<usize> = self
                        .handles
                        .iter()
                        .enumerate()
                        .filter(|(shard, handle)| parked[*shard].is_none() && handle.is_finished())
                        .map(|(shard, _)| shard)
                        .collect();
                    if !dead.is_empty() {
                        return Err(StreamError::WorkerFailed(format!(
                            "shard worker(s) {dead:?} died without replying to park"
                        )));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(StreamError::WorkerFailed(
                        "all shard workers exited without replying to park".into(),
                    ));
                }
            }
        }
        parked
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| StreamError::WorkerFailed("a shard's park reply is missing".into()))
    }

    /// Per-ring peak occupancy (queued runs), by shard.
    pub fn ring_peaks(&self) -> Vec<usize> {
        self.rings.iter().map(|r| r.peak()).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for ring in &self.rings {
            ring.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Execute a fallible executor step, converting a panic into a typed
/// [`StreamError::WorkerFailed`] so the worker thread survives to park.  The
/// executor's in-memory state after a caught panic is *suspect* (the panic
/// may have interrupted processing mid-tuple); recovery discards it and
/// restores from the last checkpoint, so handing the executor back anyway is
/// safe and keeps the shard slot occupied.  A single shard, whose worker is
/// the caller's thread, runs behind the same barrier.
pub(crate) fn run_caught<T>(shard: usize, step: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(step)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(StreamError::WorkerFailed(format!(
            "shard {shard} worker panicked: {}",
            panic_message(payload)
        ))),
    }
}

fn worker_loop(shard: usize, ring: SpscRing<Job>, tx: mpsc::Sender<ParkedShard>) {
    let mut executor: Option<Box<Executor>> = None;
    let mut failed: Option<StreamError> = None;
    while let Some(job) = ring.pop() {
        match job {
            Job::Adopt(exec) => {
                executor = Some(exec);
                failed = None;
            }
            Job::Run { entry, items } => {
                if failed.is_some() {
                    continue;
                }
                match executor.as_mut() {
                    Some(exec) => {
                        let outcome = run_caught(shard, || {
                            exec.ingest_all(&entry, items)
                                .and_then(|_| exec.run().map(|_| ()))
                        });
                        if let Err(err) = outcome {
                            failed = Some(err);
                        }
                    }
                    None => {
                        failed = Some(StreamError::Execution(format!(
                            "shard {shard} received a run before adopting an executor"
                        )));
                    }
                }
            }
            Job::Park => {
                let mut outcome = match failed.take() {
                    Some(err) => Err(err),
                    None => Ok(()),
                };
                if outcome.is_ok() {
                    if let Some(exec) = executor.as_mut() {
                        outcome = run_caught(shard, || exec.run().map(|_| ()));
                    }
                }
                let reply = ParkedShard {
                    shard,
                    executor: executor.take(),
                    outcome,
                };
                if tx.send(reply).is_err() {
                    // Pool dropped mid-park; nothing left to do.
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::time::Timestamp;
    use crate::tuple::{StreamId, Tuple, Value};

    fn item(ts_ms: u64, tag: i64) -> StreamItem {
        StreamItem::from(Tuple::new(
            Timestamp::from_millis(ts_ms),
            StreamId::A,
            vec![Value::Int(tag)],
        ))
    }

    fn tag(item: &StreamItem) -> i64 {
        match item {
            StreamItem::Tuple(t) => match t.value(0) {
                Some(Value::Int(v)) => *v,
                _ => panic!("expected int payload"),
            },
            StreamItem::Batch(_) | StreamItem::Punctuation(_) => panic!("expected tuple"),
        }
    }

    #[test]
    fn ring_full_empty_and_wrap_boundaries() {
        let ring: SpscRing<u32> = SpscRing::new(3);
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 3);
        assert!(ring.try_pop().is_none());
        for v in 0..3 {
            ring.try_push(v).unwrap();
        }
        // Full: try_push hands the item back.
        assert_eq!(ring.try_push(99), Err(99));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.peak(), 3);
        // Drain two, refill two: exercises wrap-around of the circular
        // buffer while preserving FIFO order.
        assert_eq!(ring.try_pop(), Some(0));
        assert_eq!(ring.try_pop(), Some(1));
        ring.try_push(3).unwrap();
        ring.try_push(4).unwrap();
        assert_eq!(ring.try_push(5), Err(5));
        let drained: Vec<u32> = std::iter::from_fn(|| ring.try_pop()).collect();
        assert_eq!(drained, vec![2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.peak(), 3);
    }

    #[test]
    fn closed_ring_rejects_producers_and_drains_consumers() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        ring.try_push(1).unwrap();
        ring.close();
        assert!(ring.push(2).is_err());
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn blocking_push_reports_stall_and_unblocks() {
        let ring: SpscRing<u32> = SpscRing::new(1);
        assert!(!ring.push(1).unwrap(), "first push must not stall");
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || ring.push(2).unwrap())
        };
        // Give the producer time to block on the full ring, then free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ring.pop(), Some(1));
        let stalled = producer.join().unwrap();
        assert!(stalled, "push into a full ring must report the stall");
        assert_eq!(ring.pop(), Some(2));
    }

    #[test]
    fn ring_fifo_tie_order_matches_queue_pop_run_into() {
        // Three items, two sharing a timestamp.  Route them through the ring
        // and then through a plan queue: the equal-timestamp items must keep
        // their arrival order, exactly as `Queue::pop_run_into` yields them.
        let items = vec![item(10, 1), item(20, 2), item(20, 3)];
        let ring: SpscRing<StreamItem> = SpscRing::new(4);
        for it in items {
            ring.try_push(it).unwrap();
        }
        let mut queue = Queue::new();
        while let Some(it) = ring.try_pop() {
            queue.push(it);
        }
        let mut run = Vec::new();
        queue.pop_run_into(usize::MAX, None, &mut run);
        let tags: Vec<i64> = run.iter().map(tag).collect();
        assert_eq!(tags, vec![1, 2, 3], "ties must preserve arrival order");
    }

    #[test]
    fn two_thread_ping_pong_smoke() {
        // Producer pushes 10_000 items through a tiny ring while the
        // consumer pops them all; order and count must survive backpressure.
        const N: i64 = 10_000;
        let ring: SpscRing<StreamItem> = SpscRing::new(4);
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                let mut stalls = 0u64;
                for i in 0..N {
                    if ring.push(item(i as u64, i)).unwrap() {
                        stalls += 1;
                    }
                }
                ring.close();
                stalls
            })
        };
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(it) = ring.pop() {
                seen.push(tag(&it));
            }
            seen
        });
        let _stalls = producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len(), N as usize);
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "order preserved");
    }

    #[test]
    fn pool_park_without_adopt_returns_no_executor() {
        let pool = WorkerPool::new(2, 4);
        assert_eq!(pool.workers(), 2);
        let parked = pool.park_all().unwrap();
        assert_eq!(parked.len(), 2);
        for (i, p) in parked.iter().enumerate() {
            assert_eq!(p.shard, i);
            assert!(p.executor.is_none());
            assert!(p.outcome.is_ok());
        }
    }

    /// Run `f` (which is expected to panic somewhere) with the default panic
    /// hook silenced, so intentional panics don't spray backtraces into the
    /// test output.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn poisoned_ring_lock_recovers() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        ring.try_push(7).unwrap();
        let holder = ring.clone();
        with_quiet_panics(|| {
            std::thread::spawn(move || {
                let _guard = holder.inner.state.lock().unwrap();
                panic!("poison the ring lock");
            })
            .join()
            .unwrap_err()
        });
        // The mutex is poisoned now; every ring operation must still work.
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.peak(), 1);
        assert_eq!(ring.capacity(), 2);
        assert_eq!(ring.try_pop(), Some(7));
        ring.try_push(8).unwrap();
        assert!(!ring.push(9).unwrap());
        assert_eq!(ring.pop(), Some(8));
        assert_eq!(ring.pop(), Some(9));
        ring.close();
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn run_caught_converts_panics_to_worker_failed() {
        assert!(run_caught(0, || Ok(())).is_ok());
        let err = with_quiet_panics(|| run_caught::<()>(3, || panic!("boom {}", 42)));
        match err {
            Err(StreamError::WorkerFailed(msg)) => {
                assert!(msg.contains("shard 3"), "got: {msg}");
                assert!(msg.contains("boom 42"), "got: {msg}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn pool_run_before_adopt_is_an_error_at_park() {
        let pool = WorkerPool::new(1, 4);
        pool.send(
            0,
            Job::Run {
                entry: "A".into(),
                items: vec![item(1, 1)],
            },
        )
        .unwrap();
        let parked = pool.park_all().unwrap();
        assert!(parked[0].outcome.is_err());
    }
}
