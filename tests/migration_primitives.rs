//! Direct property coverage for the chain-maintenance primitives of
//! `core::migration` (Section 5.3), at both the spec and the slice-state
//! level:
//!
//! * spec-level merge/split round-trips over random workloads and paths,
//! * state-level merge: result preservation (a probe against a slice
//!   restored from the merged state sees exactly the union of the two
//!   slices' states),
//! * state-level split, both flavours: the eager re-cut partitions by
//!   cross-purge age, and the lazy split-purge path — both halves restored
//!   into slices — **fills the right half up** to exactly the eager
//!   distribution once enough traffic has flowed,
//! * `rehash_shard_states` round-trip: rehash k→k'→k reproduces the original
//!   two-slice chain bit for bit, every intermediate shard holds only its
//!   own keys, and every chain is oldest-first across its slices,
//! * `recut_chain` over random spec pairs: re-cutting to the same spec is the
//!   identity, the output tiles the new spec, nothing is lost or duplicated,
//!   no tuple crosses a boundary both specs share, and consistent states come
//!   out oldest-first with every tuple in the slice its age falls in.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use state_slice_repro::core::{
    merge_slice_states, merge_spec_slices, recut_chain, rehash_shard_states, split_slice_state,
    split_slice_state_eager, split_spec_slice, ChainSpec, JoinQuery, PurgeWatermarks,
    QueryWorkload, RecutStats,
};
use state_slice_repro::streamkit::checkpoint::{chain_is_oldest_first, NodeState, WindowState};
use state_slice_repro::streamkit::operator::{OpContext, Operator};
use state_slice_repro::streamkit::ops::SliceJoinOp;
use state_slice_repro::streamkit::tuple::{StreamId, Tuple, TupleRole};
use state_slice_repro::streamkit::window::SliceWindow;
use state_slice_repro::streamkit::{JoinCondition, Punctuation, TimeDelta, Timestamp};

fn tup(tenths: u64, stream: StreamId, key: i64) -> Tuple {
    Tuple::of_ints(Timestamp::from_millis(tenths * 100), stream, &[key])
}

fn workload_of(windows: &[u64]) -> QueryWorkload {
    let queries = windows
        .iter()
        .map(|&w| JoinQuery::new(format!("Q{w}"), TimeDelta::from_secs(w)))
        .collect();
    QueryWorkload::new(queries, JoinCondition::equi(0)).unwrap()
}

/// Timestamp-ordered random state for one side.  Stored tuples are the
/// *female* reference copies in a real chain, so tag them accordingly.
fn ordered_state(arrivals: &[(u64, i64)], stream: StreamId) -> Vec<Tuple> {
    let mut tenths = 0;
    arrivals
        .iter()
        .map(|&(delta, key)| {
            tenths += delta;
            tup(tenths, stream, key).with_role(TupleRole::Female)
        })
        .collect()
}

/// A slice over `state.window` with `state` restored into it, as a migration
/// restores migrated state into a freshly planned slice.
fn restored(state: WindowState, last: bool) -> SliceJoinOp {
    let mut op = SliceJoinOp::for_ab("J", state.window, JoinCondition::equi(0));
    if last {
        op = op.last_in_chain();
    }
    op.restore_state(NodeState::Window(state)).unwrap();
    op
}

fn timestamps(tuples: &[Tuple]) -> Vec<Timestamp> {
    tuples.iter().map(|t| t.ts).collect()
}

/// Collect `(PORT_RESULTS tuples, PORT_NEXT_SLICE items)` from a context.
fn split_outputs(
    ctx: &mut OpContext,
) -> (Vec<Tuple>, Vec<state_slice_repro::streamkit::StreamItem>) {
    use state_slice_repro::streamkit::ops::slice_join::{PORT_NEXT_SLICE, PORT_RESULTS};
    let mut results = Vec::new();
    let mut forwarded = Vec::new();
    for (port, item) in ctx.take_outputs() {
        match port {
            PORT_RESULTS => {
                if let Some(t) = item.into_tuple() {
                    results.push(t);
                }
            }
            PORT_NEXT_SLICE => forwarded.push(item),
            _ => {}
        }
    }
    (results, forwarded)
}

/// A chain over `windows` whose interior boundary `i` is kept iff `mask[i]`.
fn masked_spec(windows: &BTreeSet<u64>, mask: &[bool]) -> ChainSpec {
    let windows: Vec<u64> = windows.iter().copied().collect();
    let n = windows.len();
    let mut path = vec![0];
    path.extend((1..n).filter(|&i| mask[i]));
    path.push(n);
    ChainSpec::from_path(&workload_of(&windows), &path).unwrap()
}

/// Slice states of `spec`, oldest first per side.  Draw `i` = `(pick,
/// per_mille, stale, stale_tenths)` puts a tuple with field 0 = `i` on side
/// `pick % 2` of slice `pick / 2`, aged `per_mille` of the way into the
/// slice against the opposite stream's male; with `stale_ages`, one draw in
/// four (`stale == 0`) is aged `stale_tenths` instead, whatever its slice.
fn aged_states(
    spec: &ChainSpec,
    draws: &[(usize, u64, u32, u64)],
    wm: PurgeWatermarks,
    stale_ages: bool,
) -> Vec<WindowState> {
    let mut states: Vec<WindowState> = spec
        .slices()
        .iter()
        .map(|s| WindowState::empty(s.window))
        .collect();
    for (i, &(pick, per_mille, stale, stale_tenths)) in draws.iter().enumerate() {
        let state = &mut states[pick / 2 % spec.num_slices()];
        let (start, end) = (state.window.start.as_micros(), state.window.end.as_micros());
        let age = if stale_ages && stale == 0 {
            stale_tenths * 100_000
        } else {
            start + (end - start) * per_mille / 1000
        };
        let (stream, male, side) = if pick % 2 == 0 {
            (StreamId::A, wm.male_b, &mut state.side_a)
        } else {
            (StreamId::B, wm.male_a, &mut state.side_b)
        };
        let ts = Timestamp::from_micros(male.as_micros() - age);
        side.push(Tuple::of_ints(ts, stream, &[i as i64]));
    }
    for state in &mut states {
        state.side_a.sort_by_key(|t| t.ts);
        state.side_b.sort_by_key(|t| t.ts);
    }
    states
}

/// Tuple id (field 0) → the window of the slice holding it.
fn placement(states: &[WindowState]) -> BTreeMap<i64, SliceWindow> {
    states
        .iter()
        .flat_map(|s| s.side_a.iter().chain(&s.side_b).map(move |t| (t, s.window)))
        .map(|(t, window)| (t.value(0).and_then(|v| v.as_int()).unwrap(), window))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `recut_chain` over random spec pairs, with and without tuples whose
    /// age disagrees with their slice.
    #[test]
    fn recut_chain_re_cuts_to_the_new_spec(
        windows in (
            prop::collection::btree_set(1u64..13, 1..7),
            prop::collection::btree_set(1u64..13, 1..7),
        ),
        masks in (
            prop::collection::vec(proptest::bool::ANY, 6..7),
            prop::collection::vec(proptest::bool::ANY, 6..7),
        ),
        draws in prop::collection::vec((0usize..64, 0u64..1000, 0u32..4, 0u64..140), 0..40),
        males in (150u64..400, 150u64..400),
    ) {
        let old = masked_spec(&windows.0, &masks.0);
        let new = masked_spec(&windows.1, &masks.1);
        let wm = PurgeWatermarks {
            male_a: Timestamp::from_millis(males.0 * 100),
            male_b: Timestamp::from_millis(males.1 * 100),
        };
        // The same spec is the identity, stale ages included.
        let mixed = aged_states(&old, &draws, wm, true);
        let (same, stats) = recut_chain(mixed.clone(), &old, wm).unwrap();
        prop_assert_eq!(&same, &mixed);
        prop_assert_eq!(stats, RecutStats::default());
        let ends = |spec: &ChainSpec| -> Vec<TimeDelta> {
            spec.slices().iter().map(|s| s.window.end).collect()
        };
        let shared: Vec<TimeDelta> =
            ends(&old).into_iter().filter(|b| ends(&new).contains(b)).collect();
        for stale_ages in [true, false] {
            let states = aged_states(&old, &draws, wm, stale_ages);
            let before = placement(&states);
            let (recut, stats) = recut_chain(states, &new, wm).unwrap();
            let windows: Vec<SliceWindow> = recut.iter().map(|s| s.window).collect();
            let expected: Vec<SliceWindow> = new.slices().iter().map(|s| s.window).collect();
            prop_assert_eq!(windows, expected);
            let after = placement(&recut);
            let kept: usize = recut.iter().map(WindowState::len).sum();
            prop_assert_eq!(after.len(), kept, "a tuple was duplicated");
            prop_assert_eq!(kept + stats.tuples_dropped, before.len());
            for (id, window) in &after {
                for &b in &shared {
                    prop_assert_eq!(before[id].end <= b, window.end <= b, "crossed {:?}", b);
                }
            }
            if stale_ages {
                continue;
            }
            // Consistent ages: what a chain freshly planned with `new` holds.
            for state in &recut {
                for (side, male) in [(&state.side_a, wm.male_b), (&state.side_b, wm.male_a)] {
                    prop_assert!(side.windows(2).all(|w| w[0].ts <= w[1].ts), "not oldest first");
                    for t in side {
                        let age = male.saturating_sub(t.ts);
                        prop_assert!(state.window.start <= age && age < state.window.end);
                    }
                }
            }
        }
    }

    /// Spec level: splitting an interior boundary out of a merged chain
    /// restores the chain the merge started from, for random workloads and
    /// random merge positions.
    #[test]
    fn spec_merge_then_split_round_trips(
        windows in prop::collection::btree_set(1u64..40, 2..7),
        merge_pick in 0usize..16,
    ) {
        let windows: Vec<u64> = windows.into_iter().collect();
        let w = workload_of(&windows);
        let memopt = ChainSpec::memory_optimal(&w);
        let idx = merge_pick % (memopt.num_slices() - 1);
        let merged = merge_spec_slices(&w, &memopt, idx).unwrap();
        prop_assert_eq!(merged.num_slices(), memopt.num_slices() - 1);
        merged.validate(&w).unwrap();
        // The removed boundary index is idx + 1 in the original path.
        let boundary_idx = memopt.path()[idx + 1];
        let back = split_spec_slice(&w, &merged, idx, boundary_idx).unwrap();
        prop_assert_eq!(back, memopt);
    }

    /// Operator level: a male probing the merged slice produces exactly the
    /// results of probing the two original slices (state union preserved,
    /// oldest-first order preserved).
    #[test]
    fn operator_merge_preserves_state_and_probe_results(
        left_a in prop::collection::vec((0u64..20, 0i64..3), 0..12),
        right_a in prop::collection::vec((0u64..20, 0i64..3), 0..12),
        probe_key in 0i64..3,
    ) {
        let boundary = 400u64; // tenths: slices [0, 40s) and [40s, 80s)
        // Right slice holds older tuples: offset its arrivals before the
        // left slice's.
        let right_state = ordered_state(&right_a, StreamId::A);
        let offset = 1000 + right_state.last().map(|t| t.ts.as_micros() / 100_000).unwrap_or(0);
        let left_state: Vec<Tuple> = ordered_state(&left_a, StreamId::A)
            .into_iter()
            .map(|mut t| { t.ts = Timestamp::from_millis(t.ts.as_micros() / 1000 + offset * 100); t })
            .collect();
        let left = WindowState {
            window: SliceWindow::new(TimeDelta::ZERO, TimeDelta::from_millis(boundary * 100)),
            side_a: left_state.clone(),
            side_b: Vec::new(),
        };
        let right = WindowState {
            window: SliceWindow::new(
                TimeDelta::from_millis(boundary * 100),
                TimeDelta::from_millis(boundary * 200),
            ),
            side_a: right_state.clone(),
            side_b: Vec::new(),
        };
        let expected: usize = left_state.iter().chain(&right_state)
            .filter(|t| t.value(0).and_then(|v| v.as_int()) == Some(probe_key))
            .count();
        let merged = merge_slice_states(left, right).unwrap();
        prop_assert_eq!(merged.side_a.len(), left_state.len() + right_state.len());
        // Oldest first across the concatenation.
        prop_assert!(merged.side_a.windows(2).all(|w| w[0].ts <= w[1].ts));
        // A cross-probing male B far in the future would purge everything;
        // use a male at the very end of the merged window instead: nothing
        // expires (all ages < 80 s by construction), everything probes.
        let male_ts = Timestamp::from_millis(
            merged.window.end.as_micros() / 1000 - 1
        );
        let mut merged = restored(merged, true);
        let mut ctx = OpContext::new();
        let male = Tuple::of_ints(male_ts, StreamId::B, &[probe_key]).with_role(TupleRole::Male);
        merged.process(0, male.into(), &mut ctx);
        let (results, _) = split_outputs(&mut ctx);
        prop_assert_eq!(results.len(), expected);
    }

    /// Eager split = lazy split + enough traffic: after the lazy split, one
    /// male per stream at the watermarks migrates exactly the tuples the
    /// eager re-cut moves up front (the fill-up path of Section 5.3).
    #[test]
    fn lazy_split_purge_fills_up_to_the_eager_distribution(
        arrivals_a in prop::collection::vec((0u64..30, 0i64..4), 1..15),
        arrivals_b in prop::collection::vec((0u64..30, 0i64..4), 1..15),
        split_tenths in 1u64..99,
        male_gap in 0u64..60,
    ) {
        let window = SliceWindow::new(TimeDelta::ZERO, TimeDelta::from_millis(10_000));
        let state_a = ordered_state(&arrivals_a, StreamId::A);
        let state_b = ordered_state(&arrivals_b, StreamId::B);
        let at = TimeDelta::from_millis(split_tenths * 100);
        let last = state_a.iter().chain(&state_b).map(|t| t.ts).max().unwrap();
        let male_ts = Timestamp::from_micros(last.as_micros() + male_gap * 100_000);
        let wm = PurgeWatermarks { male_a: male_ts, male_b: male_ts };

        let whole = WindowState { window, side_a: state_a.clone(), side_b: state_b.clone() };
        // Eager: re-cut immediately.
        let (eager_l, eager_r) = split_slice_state_eager(whole.clone(), at, wm).unwrap();
        // Lazy: left keeps everything...
        let (lazy_l, lazy_r) = split_slice_state(whole, at).unwrap();
        prop_assert_eq!(lazy_l.len(), state_a.len() + state_b.len());
        prop_assert_eq!(lazy_r.len(), 0);
        let (mut lazy_l, mut lazy_r) = (restored(lazy_l, false), restored(lazy_r, true));
        // ...until a male per stream (at the same watermarks) cross-purges.
        let mut ctx = OpContext::new();
        for stream in [StreamId::B, StreamId::A] {
            lazy_l.process(
                0,
                Tuple::of_ints(male_ts, stream, &[99]).with_role(TupleRole::Male).into(),
                &mut ctx,
            );
        }
        let (_, forwarded) = split_outputs(&mut ctx);
        for item in forwarded {
            if let state_slice_repro::streamkit::StreamItem::Tuple(t) = item {
                if t.role == TupleRole::Female {
                    lazy_r.process(0, t.into(), &mut ctx);
                }
            }
        }
        let _ = ctx.take_outputs();
        let eager_timestamps =
            |s: &WindowState| (timestamps(&s.side_a), timestamps(&s.side_b));
        prop_assert_eq!(lazy_l.slice().state_timestamps(), eager_timestamps(&eager_l),
            "left slices diverge after fill-up");
        prop_assert_eq!(lazy_r.slice().state_timestamps(), eager_timestamps(&eager_r),
            "right slices diverge after fill-up");
        // Nothing was lost or duplicated.
        prop_assert_eq!(eager_l.len() + eager_r.len(), state_a.len() + state_b.len());
    }

    /// Rehash round-trip: k → k' → k reproduces the original two-slice
    /// chain exactly, each intermediate shard holds only tuples of its own
    /// keys, and every chain comes out oldest-first across its slices.
    /// (Deltas start at 1: tuples with *equal* timestamps may legitimately
    /// come back reordered by shard index, so the bit-exact round-trip is
    /// asserted over strictly increasing per-side timestamps.)
    #[test]
    fn rehash_shard_states_round_trips(
        arrivals_a in prop::collection::vec((1u64..9, 0i64..12), 1..40),
        arrivals_b in prop::collection::vec((1u64..9, 0i64..12), 1..40),
        mid_shards in 2usize..7,
        purged in 0usize..40,
    ) {
        let cond = JoinCondition::equi(0);
        let spec = state_slice_repro::streamkit::ShardSpec::from_condition(&cond).unwrap();
        // The `purged` oldest tuples of each side sit in the deeper slice.
        let slices = |side: Vec<Tuple>| {
            let mut old = side;
            let new = old.split_off(purged.min(old.len()));
            (new, old)
        };
        let (new_a, old_a) = slices(ordered_state(&arrivals_a, StreamId::A));
        let (new_b, old_b) = slices(ordered_state(&arrivals_b, StreamId::B));
        let original = vec![
            WindowState { window: SliceWindow::from_secs(0, 25), side_a: new_a, side_b: new_b },
            WindowState { window: SliceWindow::from_secs(25, 50), side_a: old_a, side_b: old_b },
        ];
        let shards = rehash_shard_states(vec![original.clone()], mid_shards, &spec).unwrap();
        prop_assert_eq!(shards.len(), mid_shards);
        let total: usize = shards.iter().flatten().map(WindowState::len).sum();
        prop_assert_eq!(total, original.iter().map(WindowState::len).sum::<usize>());
        for (i, chain) in shards.iter().enumerate() {
            for t in chain.iter().flat_map(|s| s.side_a.iter().chain(&s.side_b)) {
                prop_assert_eq!(spec.shard_of(t, mid_shards), i, "tuple on wrong shard");
            }
            prop_assert!(chain_is_oldest_first(chain));
        }
        let back = rehash_shard_states(shards, 1, &spec).unwrap();
        prop_assert!(chain_is_oldest_first(&back[0]));
        prop_assert_eq!(back, vec![original]);
    }
}

#[test]
fn lazy_split_keeps_punctuations_flowing_to_both_halves() {
    // The fill-up path relies on the logical queue between the halves;
    // punctuations must traverse it so the downstream union keeps making
    // progress during a lazy migration.
    let whole = WindowState::empty(SliceWindow::from_secs(0, 10));
    let (left, _right) = split_slice_state(whole, TimeDelta::from_secs(5)).unwrap();
    let mut left = restored(left, false);
    let mut ctx = OpContext::new();
    left.process(
        0,
        Punctuation::new(Timestamp::from_secs(3)).into(),
        &mut ctx,
    );
    let outputs = ctx.take_outputs();
    assert_eq!(outputs.len(), 2, "results + next-slice ports both see it");
    assert!(outputs.iter().all(|(_, item)| item.is_punctuation()));
}

#[test]
fn eager_split_boundary_cases_are_exact() {
    // A tuple exactly `at` old is expired (purge uses `>=`), one tick newer
    // is not; each side is cut by the *opposite* stream's male.
    let a_old = tup(100, StreamId::A, 0); // 10.0 s
    let a_new = tup(101, StreamId::A, 0); // 10.1 s
    let b_any = tup(102, StreamId::B, 0); // 10.2 s
    let whole = WindowState {
        window: SliceWindow::from_secs(0, 10),
        side_a: vec![a_old, a_new],
        side_b: vec![b_any],
    };
    let wm = PurgeWatermarks {
        // B males reached 15.0 s → A-side ages: 5.0 (expired at 5s) / 4.9.
        male_b: Timestamp::from_millis(15_000),
        // A males reached 10.2 s → B-side age 0: stays left.
        male_a: Timestamp::from_millis(10_200),
    };
    let (left, right) = split_slice_state_eager(whole, TimeDelta::from_secs(5), wm).unwrap();
    assert_eq!(left.side_a.len(), 1);
    assert_eq!(right.side_a.len(), 1);
    assert_eq!(left.side_b.len(), 1);
    assert_eq!(right.side_b.len(), 0);
    assert_eq!(
        timestamps(&right.side_a),
        vec![Timestamp::from_millis(10_000)]
    );
}
