//! Online migration of the state-slicing chain (Section 5.3).
//!
//! The chain needs maintenance when queries enter or leave the system, when
//! window constraints change, or when runtime statistics suggest a different
//! slicing (e.g. migrating from the Mem-Opt towards the CPU-Opt chain).  The
//! paper defines two primitive operations, both implemented here:
//!
//! * **merging** two adjacent sliced joins — requires the queue between them
//!   to be drained, then concatenates their states and widens the window,
//! * **splitting** one sliced join — shrinks its end window and inserts a new
//!   empty sliced join to its right; subsequent purging migrates the affected
//!   state lazily ("the execution of Ji will purge tuples, due to its new
//!   smaller window, into the queue ... and eventually fill up the states of
//!   J'_i correctly").
//!
//! Both primitives exist at two levels: on [`ChainSpec`]s (planning level)
//! and on the drained slice state itself (runtime level) — the
//! [`WindowState`] a slice captures through
//! [`Operator::node_state`](streamkit::Operator::node_state) and a freshly
//! planned slice restores through
//! [`Operator::restore_state`](streamkit::Operator::restore_state).  The
//! runtime primitives are pure functions of that data: index mode, chain
//! flags and operator names belong to the plan the migrated states are
//! restored into, never to the states.
//!
//! A live migration composes them in one pass: [`recut_chain`] takes a chain
//! instance's states and the new [`ChainSpec`], concatenates the states whose
//! shared boundary the new chain drops, cuts eagerly at every boundary it
//! adds and at a smaller coverage end, and widens the last slice for a larger
//! one.  It is the only place that decides how state is re-cut when the
//! boundaries change.
//!
//! A third runtime primitive serves **sharded parallel execution**
//! ([`streamkit::shard`]): [`rehash_shard_states`] redistributes the slice
//! states of every shard's chain instance across a new shard count by
//! re-hashing each tuple's canonical join key.  Scale-up (split a shard's
//! state) and scale-down (merge shards) are the same operation with
//! different target counts.

use streamkit::checkpoint::{reseat_chain, WindowState};
use streamkit::error::{Result, StreamError};
/// The clock an eager cut ages tuples against: each shard executor keeps
/// its own ([`streamkit::Executor::progress`]).
pub use streamkit::executor::PurgeWatermarks;
use streamkit::shard::ShardSpec;
use streamkit::tuple::Tuple;
use streamkit::{TimeDelta, Timestamp};

use crate::chain::ChainSpec;
use crate::query::QueryWorkload;

/// Merge slices `slice_idx` and `slice_idx + 1` of a chain spec.
pub fn merge_spec_slices(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    slice_idx: usize,
) -> Result<ChainSpec> {
    if slice_idx + 1 >= spec.num_slices() {
        return Err(StreamError::InvalidConfig(format!(
            "cannot merge slice {slice_idx}: the chain has only {} slices",
            spec.num_slices()
        )));
    }
    // Drop the boundary between the two slices from the path.
    let mut path = spec.path().to_vec();
    path.remove(slice_idx + 1);
    ChainSpec::from_path(workload, &path)
}

/// Split slice `slice_idx` of a chain spec at the workload boundary with
/// index `boundary_idx` (which must fall strictly inside the slice).
pub fn split_spec_slice(
    workload: &QueryWorkload,
    spec: &ChainSpec,
    slice_idx: usize,
    boundary_idx: usize,
) -> Result<ChainSpec> {
    if slice_idx >= spec.num_slices() {
        return Err(StreamError::InvalidConfig(format!(
            "slice {slice_idx} does not exist"
        )));
    }
    let mut path = spec.path().to_vec();
    let lo = path[slice_idx];
    let hi = path[slice_idx + 1];
    if boundary_idx <= lo || boundary_idx >= hi {
        return Err(StreamError::InvalidConfig(format!(
            "boundary index {boundary_idx} does not fall strictly inside slice {slice_idx} ({lo}..{hi})"
        )));
    }
    path.insert(slice_idx + 1, boundary_idx);
    ChainSpec::from_path(workload, &path)
}

/// Merge the states of two adjacent slices into one (runtime primitive).
///
/// `left` is the slice closer to the head of the chain (smaller window
/// offsets, younger tuples); `right` is the next slice (older tuples).  The
/// queue between them must have been drained before the states were read.
pub fn merge_slice_states(left: WindowState, right: WindowState) -> Result<WindowState> {
    if left.window.end != right.window.start {
        return Err(StreamError::InvalidConfig(format!(
            "slices {} and {} are not adjacent",
            left.window, right.window
        )));
    }
    // Oldest tuples first: the right (older) slice's state precedes the left's.
    let mut side_a = right.side_a;
    side_a.extend(left.side_a);
    let mut side_b = right.side_b;
    side_b.extend(left.side_b);
    Ok(WindowState {
        window: left.window.merge(&right.window),
        side_a,
        side_b,
    })
}

/// Split one slice's state at window offset `at` (runtime primitive).
///
/// Follows the paper's lazy protocol: the left half keeps the entire state
/// and simply shrinks its end window; the right half starts empty and is
/// filled by subsequent cross-purging.  Returns `(left, right)`.
pub fn split_slice_state(state: WindowState, at: TimeDelta) -> Result<(WindowState, WindowState)> {
    let Some((left, right)) = state.window.split_at(at) else {
        return Err(StreamError::InvalidConfig(format!(
            "split point {at} is not strictly inside {}",
            state.window
        )));
    };
    Ok((
        WindowState {
            window: left,
            ..state
        },
        WindowState::empty(right),
    ))
}

/// Split one slice's state at window offset `at`, **eagerly** moving the
/// state that already belongs to the right half (runtime primitive).
///
/// The lazy protocol of [`split_slice_state`] leaves the whole state in the
/// left half and lets subsequent cross-purging fill the right half up.  The
/// eager variant re-cuts the state immediately using the chain's purge
/// watermarks: a stored tuple whose age — measured against the opposite
/// stream's last male, the tuple that would next purge it — has reached `at`
/// would already have been purged out of the shrunk left window, so it
/// starts out in the right half.  The resulting pair of states is exactly
/// what a chain *freshly built* with this boundary would hold at the same
/// quiescent point, which is what makes differential
/// (live-migrated ≡ freshly-planned) testing exact.
pub fn split_slice_state_eager(
    state: WindowState,
    at: TimeDelta,
    watermarks: PurgeWatermarks,
) -> Result<(WindowState, WindowState)> {
    let (mut left, mut right) = split_slice_state(state, at)?;
    // States are oldest-first, and "expired out of [start, at)" is monotone
    // in the timestamp, so each side splits at one cut point: the old prefix
    // belongs to the right (older) slice, the rest stays left.
    let cut = |side: &mut Vec<Tuple>, purger: Timestamp| {
        let cut = side.partition_point(|t| purger.saturating_sub(t.ts) >= at);
        let keep = side.split_off(cut);
        std::mem::replace(side, keep)
    };
    right.side_a = cut(&mut left.side_a, watermarks.male_b);
    right.side_b = cut(&mut left.side_b, watermarks.male_a);
    Ok((left, right))
}

/// Counters of one [`recut_chain`] on one chain instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecutStats {
    /// Adjacent states concatenated ([`merge_slice_states`]).
    pub merges: usize,
    /// Cuts at a boundary the new spec adds inside a state.
    pub splits: usize,
    /// Kept tuples of merged or cut states, each counted once.
    pub tuples_moved: usize,
    /// Tuples at or beyond the new coverage end, dropped.
    pub tuples_dropped: usize,
}

/// Re-cut the drained slice states of one chain instance, in chain order, to
/// the slices of `new` (the runtime primitive a live migration runs).
///
/// One pass: **grow** the last state's end if the new coverage is larger
/// (discarded history stays gone, so the widened range starts empty);
/// **drop** whole states that start at or beyond the new coverage end;
/// **merge** consecutive states until the running group ends at a boundary
/// `new` keeps, or at or beyond its end; **cut** the group eagerly
/// ([`split_slice_state_eager`]) — first at the new coverage end, dropping
/// the older part, then at every new boundary strictly inside it, ascending.
/// A boundary both chains share never moves a tuple.  `watermarks` is the
/// instance's purge progress; the re-cut states are exactly what a chain
/// freshly planned with `new` would hold.
pub fn recut_chain(
    mut states: Vec<WindowState>,
    new: &ChainSpec,
    watermarks: PurgeWatermarks,
) -> Result<(Vec<WindowState>, RecutStats)> {
    let bounds: Vec<TimeDelta> = new.slices().iter().map(|s| s.window.end).collect();
    let end = new.covered_range();
    let mut stats = RecutStats::default();
    if let Some(last) = states.last_mut() {
        last.window.end = last.window.end.max(end);
    }
    let beyond = states.partition_point(|s| s.window.start < end);
    stats.tuples_dropped = states.drain(beyond..).map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(bounds.len());
    let mut states = states.into_iter();
    while let Some(mut group) = states.next() {
        let mut recut = false;
        while group.window.end < end && !bounds.contains(&group.window.end) {
            let Some(next) = states.next() else { break };
            group = merge_slice_states(group, next)?;
            stats.merges += 1;
            recut = true;
        }
        if group.window.end > end {
            let (kept, dropped) = split_slice_state_eager(group, end, watermarks)?;
            stats.tuples_dropped += dropped.len();
            group = kept;
            recut = true;
        }
        let window = group.window;
        let inside = bounds
            .iter()
            .filter(|&&b| window.start < b && b < window.end);
        if recut || inside.clone().next().is_some() {
            stats.tuples_moved += group.len();
        }
        for &at in inside {
            let (left, right) = split_slice_state_eager(group, at, watermarks)?;
            out.push(left);
            group = right;
            stats.splits += 1;
        }
        out.push(group);
    }
    let tiled = out
        .iter()
        .map(|s| s.window)
        .eq(new.slices().iter().map(|s| s.window));
    if !tiled {
        return Err(StreamError::InvalidConfig(
            "the re-cut states do not tile the new chain".to_string(),
        ));
    }
    Ok((out, stats))
}

/// Redistribute the slice states of a sharded chain across `new_shards`
/// shards (runtime primitive for shard scale-up/down).
///
/// `shards[s]` is shard `s`'s chain instance: its slices' states in chain
/// order.  The instances cover the same slices, and their states partition
/// each slice by join key.  Every tuple is routed to
/// `spec.shard_of(tuple, new_shards)`, and each new instance is re-seated
/// oldest-first across its slices ([`reseat_chain`]), so the result is
/// deterministic.  The union of the states is preserved exactly; only the
/// partition and the slice depths change.
///
/// Scale-down to one shard (`new_shards == 1`) is the "merge" direction;
/// scale-up from one shard is the "split by re-hashing keys" direction.
pub fn rehash_shard_states(
    shards: Vec<Vec<WindowState>>,
    new_shards: usize,
    spec: &ShardSpec,
) -> Result<Vec<Vec<WindowState>>> {
    let Some(first) = shards.first() else {
        return Err(StreamError::InvalidConfig(
            "rehash needs at least one current shard instance".to_string(),
        ));
    };
    if new_shards == 0 {
        return Err(StreamError::InvalidConfig(
            "cannot rescale to zero shards".to_string(),
        ));
    }
    let empty: Vec<WindowState> = first.iter().map(|s| WindowState::empty(s.window)).collect();
    let same_slices = |chain: &Vec<WindowState>| {
        chain
            .iter()
            .map(|s| s.window)
            .eq(empty.iter().map(|s| s.window))
    };
    if !shards.iter().all(same_slices) {
        return Err(StreamError::InvalidConfig(
            "cannot rehash shard instances of different chains".to_string(),
        ));
    }
    let mut out = vec![empty; new_shards];
    for chain in shards {
        for (k, state) in chain.into_iter().enumerate() {
            for t in state.side_a {
                out[spec.shard_of(&t, new_shards)][k].side_a.push(t);
            }
            for t in state.side_b {
                out[spec.shard_of(&t, new_shards)][k].side_b.push(t);
            }
        }
    }
    for chain in &mut out {
        reseat_chain(chain);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use streamkit::checkpoint::NodeState;
    use streamkit::operator::{OpContext, Operator};
    use streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
    use streamkit::ops::SliceJoinOp;
    use streamkit::tuple::{StreamId, Tuple, TupleRole};
    use streamkit::window::SliceWindow;
    use streamkit::{JoinCondition, Timestamp};

    fn workload() -> QueryWorkload {
        QueryWorkload::new(
            vec![
                JoinQuery::new("Q1", TimeDelta::from_secs(5)),
                JoinQuery::new("Q2", TimeDelta::from_secs(10)),
                JoinQuery::new("Q3", TimeDelta::from_secs(30)),
            ],
            JoinCondition::equi(0),
        )
        .unwrap()
    }

    fn a(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[0])
    }

    fn b(secs: u64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::B, &[0])
    }

    fn state(start: u64, end: u64, side_a: Vec<Tuple>, side_b: Vec<Tuple>) -> WindowState {
        WindowState {
            window: SliceWindow::from_secs(start, end),
            side_a,
            side_b,
        }
    }

    /// Restore a migrated state into a planned slice, as a migration does.
    fn restored(mut op: SliceJoinOp, state: WindowState) -> SliceJoinOp {
        op.restore_state(NodeState::Window(state)).unwrap();
        op
    }

    fn secs_of(tuples: &[Tuple]) -> Vec<u64> {
        tuples
            .iter()
            .map(|t| t.ts.as_micros() / 1_000_000)
            .collect()
    }

    #[test]
    fn spec_merge_and_split_round_trip() {
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        let merged = merge_spec_slices(&w, &memopt, 1).unwrap();
        assert_eq!(merged.num_slices(), 2);
        assert_eq!(merged.path(), &[0, 1, 3]);
        let back = split_spec_slice(&w, &merged, 1, 2).unwrap();
        assert_eq!(back, memopt);
    }

    #[test]
    fn spec_merge_rejects_out_of_range() {
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        assert!(merge_spec_slices(&w, &memopt, 2).is_err());
        assert!(split_spec_slice(&w, &memopt, 0, 2).is_err());
        assert!(split_spec_slice(&w, &memopt, 9, 1).is_err());
    }

    #[test]
    fn operator_merge_concatenates_states_oldest_first() {
        // Young female in the left slice, old female in the right slice.
        let left = state(0, 5, vec![a(8)], vec![]);
        let right = state(5, 10, vec![a(2)], vec![b(3)]);
        let merged = merge_slice_states(left, right).unwrap();
        assert_eq!(merged.window, SliceWindow::from_secs(0, 10));
        assert_eq!(secs_of(&merged.side_a), vec![2, 8]);
        assert_eq!(merged.side_b.len(), 1);
        assert_eq!(merged.len(), 3);
    }

    /// The planned slice `[start, end)` a migrated state is restored into,
    /// forced to linear scans or not.
    fn planned(cond: &JoinCondition, start: u64, end: u64, linear: bool) -> SliceJoinOp {
        let mut op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(start, end), cond.clone());
        if linear {
            op.drop_index();
        }
        op
    }

    #[test]
    fn merge_and_split_preserve_the_index_mode() {
        let cond = JoinCondition::equi(0);
        let keyed = |s: u64| Tuple::of_ints(Timestamp::from_secs(s), StreamId::A, &[s as i64]);
        let merged = merge_slice_states(
            state(0, 5, vec![keyed(8)], vec![]),
            state(5, 10, vec![keyed(2)], vec![]),
        )
        .unwrap();
        // The plan decides the index mode: an indexed chain stays indexed
        // through a merge…
        assert!(restored(planned(&cond, 0, 10, false), merged.clone())
            .slice()
            .is_indexed());
        // …and a linear-scan A/B reference chain stays linear through both
        // merge and split.
        let linear = restored(planned(&cond, 0, 10, true), merged.clone());
        assert!(!linear.slice().is_indexed());
        assert_eq!(linear.slice().state_len(), 2);
        let (split_left, split_right) = split_slice_state(merged, TimeDelta::from_secs(5)).unwrap();
        assert!(!restored(planned(&cond, 0, 5, true), split_left)
            .slice()
            .is_indexed());
        assert!(!restored(planned(&cond, 5, 10, true), split_right)
            .slice()
            .is_indexed());
    }

    #[test]
    fn merge_split_and_rehash_preserve_the_band_index_mode() {
        use streamkit::predicate::CmpOp;
        // A band condition (no equi): a planned slice is band-indexed, and a
        // state restored into it after any migration primitive must keep it
        // that way instead of coercing to linear (is_indexed() is false for
        // band mode, so a hash-only check would force-linearize).
        let theta = |op, right_field| JoinCondition::Theta {
            left_field: 0,
            op,
            right_field,
        };
        let cond = JoinCondition::And(Box::new(theta(CmpOp::Ge, 1)), Box::new(theta(CmpOp::Le, 2)));
        let band = |s: u64| Tuple::of_ints(Timestamp::from_secs(s), StreamId::A, &[s as i64, 0, 9]);
        let left = state(0, 5, vec![band(8)], vec![]);
        let right = state(5, 10, vec![band(2)], vec![]);
        assert!(planned(&cond, 0, 5, false).slice().is_band_indexed());
        assert!(!planned(&cond, 0, 5, false).slice().is_indexed());
        let merged = merge_slice_states(left, right).unwrap();
        let merged_op = restored(planned(&cond, 0, 10, false), merged.clone());
        assert!(
            merged_op.slice().is_band_indexed(),
            "merge dropped the band index"
        );
        let (split_left, split_right) =
            split_slice_state(merged.clone(), TimeDelta::from_secs(5)).unwrap();
        assert!(restored(planned(&cond, 0, 5, false), split_left.clone())
            .slice()
            .is_band_indexed());
        assert!(
            restored(planned(&cond, 5, 10, false), split_right)
                .slice()
                .is_band_indexed(),
            "split dropped the band index"
        );
        // Rehash across one shard (band joins run single-shard, but the
        // primitive must still round-trip the state).
        let spec = ShardSpec::symmetric(0);
        let rehashed = rehash_shard_states(vec![vec![split_left]], 1, &spec).unwrap();
        assert!(
            restored(planned(&cond, 0, 5, false), rehashed[0][0].clone())
                .slice()
                .is_band_indexed(),
            "rehash dropped the band index"
        );
        // Forced-linear band chains stay linear.
        let linear = restored(planned(&cond, 0, 10, true), merged);
        assert!(!linear.slice().is_band_indexed() && !linear.slice().is_indexed());
    }

    #[test]
    fn operator_merge_rejects_non_adjacent_slices() {
        let left = WindowState::empty(SliceWindow::from_secs(0, 5));
        let right = WindowState::empty(SliceWindow::from_secs(10, 20));
        assert!(merge_slice_states(left, right).is_err());
    }

    #[test]
    fn operator_merge_preserves_results() {
        // Results after merging equal the results the two slices would have
        // produced together: probe a merged join and compare counts.
        let cond = JoinCondition::Cross;
        let mut left =
            SliceJoinOp::for_ab("J1", SliceWindow::from_secs(0, 5), cond.clone()).chain_head();
        let mut right =
            SliceJoinOp::for_ab("J2", SliceWindow::from_secs(5, 10), cond.clone()).last_in_chain();
        // Prime the two-slice chain with A females at ts 1 and 7.
        let mut ctx = OpContext::new();
        left.process(0, a(1).into(), &mut ctx);
        left.process(0, a(7).into(), &mut ctx);
        // Push a male B at ts 8: purges a@1 (age 7 >= 5) to the right slice.
        left.process(0, b(8).into(), &mut ctx);
        for (port, item) in ctx.take_outputs() {
            if port == PORT_NEXT_SLICE {
                right.process(0, item, &mut ctx);
            }
        }
        let _ = ctx.take_outputs();
        let produced_before = left.slice().results() + right.slice().results();
        assert!(produced_before > 0);
        // Queue between them is drained; merge their window states.
        let merged =
            merge_slice_states(left.slice().window_state(), right.slice().window_state()).unwrap();
        let merged_op = SliceJoinOp::for_ab("J12", merged.window, cond).last_in_chain();
        let mut merged_op = restored(merged_op, merged);
        // A later male B joins against both stored females through the merged state.
        let mut ctx = OpContext::new();
        merged_op.process(0, b(9).with_role(TupleRole::Male).into(), &mut ctx);
        let results: Vec<_> = ctx
            .take_outputs()
            .into_iter()
            .filter(|(p, item)| *p == PORT_RESULTS && !item.is_punctuation())
            .collect();
        // a@1 (age 8) and a@7 (age 2) are both inside [0, 10).
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn operator_split_is_lazy_and_correct() {
        let cond = JoinCondition::Cross;
        let mut op = SliceJoinOp::for_ab("J", SliceWindow::from_secs(0, 10), cond.clone())
            .chain_head()
            .last_in_chain();
        let mut ctx = OpContext::new();
        op.process(0, a(1).into(), &mut ctx);
        op.process(0, a(6).into(), &mut ctx);
        let _ = ctx.take_outputs();
        // Split at offset 5: left keeps all state (lazy), right starts empty.
        let (left_state, right_state) =
            split_slice_state(op.slice().window_state(), TimeDelta::from_secs(5)).unwrap();
        assert_eq!(left_state.window, SliceWindow::from_secs(0, 5));
        assert_eq!(right_state.window, SliceWindow::from_secs(5, 10));
        assert_eq!(left_state.len(), 2);
        assert_eq!(right_state.len(), 0);
        // The re-planned chain: the left half forwards, the right is last.
        let mut left = restored(
            SliceJoinOp::for_ab("J_left", left_state.window, cond.clone()).chain_head(),
            left_state,
        );
        let mut right = restored(
            SliceJoinOp::for_ab("J_right", right_state.window, cond).last_in_chain(),
            right_state,
        );
        assert!(left.slice().has_next());
        assert!(!right.slice().has_next());
        // A male B at ts 8 purges a@1 (age 7 >= 5) into the queue towards the
        // right slice, probes a@6 in the left slice, and then probes the right
        // slice after the purged tuple arrived — exactly one result per slice.
        let mut ctx = OpContext::new();
        left.process(0, b(8).into(), &mut ctx);
        let mut left_results = 0;
        let mut forwarded = Vec::new();
        for (port, item) in ctx.take_outputs() {
            match port {
                PORT_RESULTS if !item.is_punctuation() => left_results += 1,
                PORT_NEXT_SLICE => forwarded.push(item),
                _ => {}
            }
        }
        assert_eq!(left_results, 1);
        let mut right_results = 0;
        let mut ctx = OpContext::new();
        for item in forwarded {
            right.process(0, item, &mut ctx);
        }
        for (port, item) in ctx.take_outputs() {
            if port == PORT_RESULTS && !item.is_punctuation() {
                right_results += 1;
            }
        }
        assert_eq!(right_results, 1);
        // Together: both pairs, as the unsplit join would have produced.
    }

    #[test]
    fn eager_split_recuts_state_by_age_against_the_watermark() {
        // A-side ages are measured against the last B male (20s): a@16 → 4
        // (left of 5), a@15 → 5 (exactly the boundary: expired, right),
        // a@12 → 8 (right).  B-side ages use the last A male (23s):
        // b@13 → 10 (right), b@18 → 5 (right, exactly at the boundary).
        let whole = state(0, 10, vec![a(12), a(15), a(16)], vec![b(13), b(18)]);
        let (left, right) = split_slice_state_eager(
            whole,
            TimeDelta::from_secs(5),
            PurgeWatermarks {
                male_a: Timestamp::from_secs(23),
                male_b: Timestamp::from_secs(20),
            },
        )
        .unwrap();
        assert_eq!(left.window, SliceWindow::from_secs(0, 5));
        assert_eq!(right.window, SliceWindow::from_secs(5, 10));
        assert_eq!(secs_of(&left.side_a), vec![16]);
        assert_eq!(secs_of(&right.side_a), vec![12, 15]);
        assert_eq!(secs_of(&left.side_b), Vec::<u64>::new());
        assert_eq!(secs_of(&right.side_b), vec![13, 18]);
    }

    #[test]
    fn recut_rejects_states_that_cannot_tile_the_new_chain() {
        let spec = ChainSpec::memory_optimal(&workload());
        let wm = PurgeWatermarks::uniform(Timestamp::from_secs(100));
        let empty = |start, end| state(start, end, Vec::new(), Vec::new());
        assert!(recut_chain(Vec::new(), &spec, wm).is_err());
        assert!(
            recut_chain(vec![empty(5, 30)], &spec, wm).is_err(),
            "no slice at 0"
        );
        assert!(
            recut_chain(vec![empty(0, 5), empty(10, 30)], &spec, wm).is_err(),
            "a gap"
        );
        let whole = recut_chain(vec![empty(0, 30)], &spec, wm).unwrap().0;
        assert_eq!(whole.len(), spec.num_slices());
    }

    #[test]
    fn operator_split_rejects_out_of_range_points() {
        let whole = WindowState::empty(SliceWindow::from_secs(0, 10));
        assert!(split_slice_state(whole, TimeDelta::from_secs(10)).is_err());
    }

    fn keyed(secs: u64, stream: StreamId, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), stream, &[key])
    }

    #[test]
    fn rehash_round_trips_state_through_scale_up_and_down() {
        let cond = JoinCondition::equi(0);
        let spec = ShardSpec::from_condition(&cond).unwrap();
        let state_a: Vec<Tuple> = (1..=20)
            .map(|s| keyed(s, StreamId::A, (s % 6) as i64))
            .collect();
        let state_b: Vec<Tuple> = (1..=15)
            .map(|s| keyed(s, StreamId::B, (s % 6) as i64))
            .collect();
        let whole = state(0, 50, state_a.clone(), state_b.clone());
        // Scale up 1 -> 4: states split by re-hashed key, time order kept.
        let shards = rehash_shard_states(vec![vec![whole.clone()]], 4, &spec).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().flatten().map(WindowState::len).sum();
        assert_eq!(total, state_a.len() + state_b.len());
        for chain in &shards {
            assert_eq!(chain.len(), 1);
            let shard = &chain[0];
            assert_eq!(shard.window, whole.window);
            assert!(
                shard.side_a.windows(2).all(|w| w[0].ts <= w[1].ts),
                "A side time-ordered"
            );
            assert!(
                shard.side_b.windows(2).all(|w| w[0].ts <= w[1].ts),
                "B side time-ordered"
            );
        }
        // Every tuple sits exactly on the shard its key hashes to.
        for (i, chain) in shards.iter().enumerate() {
            for tuple in chain[0].side_a.iter().chain(&chain[0].side_b) {
                assert_eq!(spec.shard_of(tuple, 4), i, "tuple on wrong shard");
            }
        }
        // Scale down 4 -> 1 restores the exact original states.
        let merged = rehash_shard_states(shards, 1, &spec).unwrap();
        assert_eq!(merged, vec![vec![whole]]);
    }

    #[test]
    fn rehash_rejects_mismatched_or_empty_instances() {
        let cond = JoinCondition::equi(0);
        let spec = ShardSpec::from_condition(&cond).unwrap();
        assert!(rehash_shard_states(Vec::new(), 2, &spec).is_err());
        let one = WindowState::empty(SliceWindow::from_secs(0, 5));
        assert!(rehash_shard_states(vec![vec![one.clone()]], 0, &spec).is_err());
        // Instances of different chains cannot be rehashed together.
        let other = WindowState::empty(SliceWindow::from_secs(5, 10));
        assert!(rehash_shard_states(vec![vec![one.clone()], vec![other]], 2, &spec).is_err());
        assert!(rehash_shard_states(vec![vec![one.clone()], vec![]], 2, &spec).is_err());
    }

    #[test]
    fn migrating_memopt_to_cpuopt_path_is_a_sequence_of_merges() {
        // A CPU-Opt chain is always reachable from the Mem-Opt chain by
        // merging (never splitting), because its boundary set is a subset.
        let w = workload();
        let memopt = ChainSpec::memory_optimal(&w);
        let target = ChainSpec::from_path(&w, &[0, 1, 3]).unwrap();
        let mut current = memopt;
        let mut merges = 0;
        while current != target && merges < 10 {
            // Find a boundary present in `current` but not in `target`.
            let extra = current
                .path()
                .iter()
                .find(|b| !target.path().contains(b))
                .copied();
            match extra {
                Some(boundary) => {
                    let idx = current
                        .path()
                        .iter()
                        .position(|&b| b == boundary)
                        .expect("boundary in path");
                    current = merge_spec_slices(&w, &current, idx - 1).unwrap();
                    merges += 1;
                }
                None => break,
            }
        }
        assert_eq!(current, target);
        assert_eq!(merges, 1);
    }
}
