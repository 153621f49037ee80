//! Skew detection for the sharded router: a space-bounded heavy-hitter
//! sketch over canonical join-key hashes, plus the hot-key set that switches
//! keys from hash routing to replicate-to-all-shards routing (and back, once
//! they cool down).
//!
//! Hash partitioning on the join key balances load only when the key
//! frequencies do: under a Zipf-skewed key distribution one shard receives
//! nearly every tuple and bounds the whole pool's wall clock.  The classic
//! fix (fragment-and-replicate, here in the `BroadcastOp` idiom) is applied
//! *per key*: the router counts approximate frequencies in a
//! [SpaceSaving](https://doi.org/10.1007/978-3-540-30570-5_27)-style sketch,
//! and a key whose guaranteed frequency share has reached
//! [`SkewConfig::hot_share`] is promoted — its stored probe-side bucket is
//! replicated to every shard and later arrivals are routed as:
//!
//! * probe side (stream B): broadcast to all shards,
//! * build side (stream A): spread round-robin over shards.
//!
//! Each result pair is still produced exactly once (the A tuple lives in
//! exactly one shard; B is everywhere), so no dedup pass is needed beyond
//! the existing union/sink wiring.  Promotion is **not** sticky: a hot key
//! whose guaranteed share has fallen below half the promotion threshold is
//! demoted.  Routing only counts; keys move only at a run boundary, where
//! the chain is drained (paper Section 5.3): `HotKeyTracker::rebalance`
//! decides, and both moves are pure functions over every shard's parked
//! slice states (`promote_key`, [`demote_key`]) that keep each chain side
//! oldest-first across its slices ([`reseat_chain`]).  The hot set is
//! checkpoint state (`HotKeyTracker::restore_hot`).

use crate::checkpoint::{reseat_chain, WindowState};
use crate::join_state::tuple_key;
use crate::shard::ShardSpec;
use crate::tuple::{KeyClass, Tuple};

/// Configuration of the hot-key detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// A key is hot once its guaranteed frequency share (sketch count minus
    /// overestimation error, over total observed tuples) reaches this value.
    pub hot_share: f64,
    /// Minimum number of observed keyed tuples before any promotion, so a
    /// lucky first tuple cannot be declared hot.
    pub min_observations: u64,
    /// Number of counters the sketch keeps (its space bound).
    pub sketch_capacity: usize,
    /// Upper bound on promoted keys; replication cost grows with each.
    pub max_hot_keys: usize,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            hot_share: 0.1,
            min_observations: 128,
            sketch_capacity: 64,
            max_hot_keys: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SketchEntry {
    key: u64,
    count: u64,
    /// Overestimation bound inherited from the evicted entry; the true
    /// frequency lies in `[count - error, count]`.
    error: u64,
}

/// A SpaceSaving / Misra-Gries style heavy-hitter sketch over `u64` keys.
///
/// Keeps at most `capacity` counters.  An unseen key arriving at a full
/// sketch evicts the minimum counter and inherits its count as error, which
/// preserves the invariant that every key with true frequency above
/// `total / capacity` is present.
#[derive(Debug, Clone)]
pub struct SpaceSavingSketch {
    entries: Vec<SketchEntry>,
    capacity: usize,
    total: u64,
}

impl SpaceSavingSketch {
    /// Create a sketch with `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        SpaceSavingSketch {
            entries: Vec::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Observe one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.total += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(SketchEntry {
                key,
                count: 1,
                error: 0,
            });
            return;
        }
        // Full, and `new` made the capacity positive: evict the minimum.
        if let Some(min) = self.entries.iter_mut().min_by_key(|e| e.count) {
            min.key = key;
            min.error = min.count;
            min.count += 1;
        }
    }

    /// `(estimated count, overestimation error)` for `key`, if tracked.  The
    /// true frequency is at least `count - error`.
    pub fn estimate(&self, key: u64) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| (e.count, e.error))
    }

    /// Total observations so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of counters currently in use.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Tracks key frequencies and the hot set for the sharded router.  Routing
/// only counts ([`HotKeyTracker::observe`]); the hot set changes at a run
/// boundary (`HotKeyTracker::rebalance`, see the module docs).
#[derive(Debug, Clone)]
pub struct HotKeyTracker {
    config: SkewConfig,
    sketch: SpaceSavingSketch,
    hot: Vec<u64>,
    spread_next: usize,
}

impl HotKeyTracker {
    /// Create a tracker with the given configuration.
    pub fn new(config: SkewConfig) -> Self {
        let sketch = SpaceSavingSketch::new(config.sketch_capacity.max(1));
        HotKeyTracker {
            config,
            sketch,
            hot: Vec::new(),
            spread_next: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SkewConfig {
        &self.config
    }

    /// Observe one keyed tuple: count it in the sketch, nothing more.
    pub fn observe(&mut self, key: u64) {
        self.sketch.observe(key);
    }

    /// Settle the hot set at a run boundary.  First every hot key whose
    /// guaranteed share fell below `hot_share / 2` is demoted; then, once
    /// [`SkewConfig::min_observations`] are in, the tracked keys at or above
    /// `hot_share` are promoted, heaviest first, up to
    /// [`SkewConfig::max_hot_keys`].  Returns the demoted and the promoted
    /// keys; the caller moves their state ([`demote_key`], `promote_key`).
    /// The gap between the two thresholds is the hysteresis that keeps a key
    /// near `hot_share` from flapping.
    pub(crate) fn rebalance(&mut self) -> (Vec<u64>, Vec<u64>) {
        let (sketch, config) = (&self.sketch, &self.config);
        let share = |key: u64| {
            let guaranteed = sketch.estimate(key).map_or(0, |(c, e)| c.saturating_sub(e));
            guaranteed as f64 / sketch.total().max(1) as f64
        };
        let cold = |key: &mut u64| share(*key) < config.hot_share / 2.0;
        let demoted: Vec<u64> = self.hot.extract_if(.., cold).collect();
        let counted = sketch.total() >= config.min_observations;
        let hot = |key: &u64| counted && share(*key) >= config.hot_share;
        let mut heavy: Vec<u64> = sketch.entries.iter().map(|e| e.key).filter(hot).collect();
        heavy.retain(|key| !self.hot.contains(key));
        heavy.sort_by(|a, b| share(*b).total_cmp(&share(*a)));
        heavy.truncate(config.max_hot_keys.saturating_sub(self.hot.len()));
        self.hot.extend(&heavy);
        (demoted, heavy)
    }

    /// Reset the hot set to exactly `keys` (a restored checkpoint's).  The
    /// sketch keeps its counts.
    pub(crate) fn restore_hot(&mut self, keys: &[u64]) {
        self.hot = keys.to_vec();
    }

    /// Whether `key` is in the hot set.
    pub fn is_hot(&self, key: u64) -> bool {
        self.hot.contains(&key)
    }

    /// The promoted keys, in promotion order.
    pub fn hot_keys(&self) -> &[u64] {
        &self.hot
    }

    /// Next round-robin shard for spreading a hot build-side tuple.
    pub fn next_spread(&mut self, shards: usize) -> usize {
        let shard = self.spread_next % shards.max(1);
        self.spread_next = self.spread_next.wrapping_add(1);
        shard
    }
}

/// Promote `key` in `states` (one chain per shard, slices in chain order):
/// copy its stored probe-side (B) tuples from its hash home into every other
/// shard, re-seated oldest-first ([`reseat_chain`]).  Its A tuples stay
/// home, where broadcast B tuples probe them, and spread A tuples meet the
/// copies wherever they land, so each result pair is still produced exactly
/// once.
pub(crate) fn promote_key(states: &mut [Vec<WindowState>], spec: &ShardSpec, key: u64) {
    let home = ShardSpec::shard_for_class(KeyClass::Hash(key), states.len());
    let bucket = |s: &WindowState| -> Vec<Tuple> {
        s.side_b
            .iter()
            .filter(|t| has_key(spec, t, key))
            .cloned()
            .collect()
    };
    let copies: Vec<Vec<Tuple>> = states[home].iter().map(bucket).collect();
    for (_, chain) in states.iter_mut().enumerate().filter(|(s, _)| *s != home) {
        for (state, copy) in chain.iter_mut().zip(&copies) {
            state.side_b.extend_from_slice(copy);
        }
        reseat_chain(chain);
    }
}

/// Demote `key` in `states`, undoing `promote_key`: drop the B copies from
/// every shard but the key's hash home, which kept the originals, and move
/// its A tuples, spread while it was hot, home ([`reseat_chain`]).
pub fn demote_key(states: &mut [Vec<WindowState>], spec: &ShardSpec, key: u64) {
    let home = ShardSpec::shard_for_class(KeyClass::Hash(key), states.len());
    let mut spread = vec![Vec::new(); states[home].len()];
    for (_, chain) in states.iter_mut().enumerate().filter(|(s, _)| *s != home) {
        for (state, spread) in chain.iter_mut().zip(&mut spread) {
            state.side_b.retain(|t| !has_key(spec, t, key));
            spread.extend(state.side_a.extract_if(.., |t| has_key(spec, t, key)));
        }
    }
    for (state, spread) in states[home].iter_mut().zip(spread) {
        state.side_a.extend(spread);
    }
    reseat_chain(&mut states[home]);
}

fn has_key(spec: &ShardSpec, t: &Tuple, key: u64) -> bool {
    tuple_key(t, spec.key_field(t.stream)) == KeyClass::Hash(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_is_exact_below_capacity() {
        let mut s = SpaceSavingSketch::new(8);
        for _ in 0..5 {
            s.observe(1);
        }
        for _ in 0..3 {
            s.observe(2);
        }
        assert_eq!(s.estimate(1), Some((5, 0)));
        assert_eq!(s.estimate(2), Some((3, 0)));
        assert_eq!(s.estimate(3), None);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn sketch_eviction_keeps_heavy_hitters_and_bounds_error() {
        // Capacity 2: a heavy key survives a churn of light keys.
        let mut s = SpaceSavingSketch::new(2);
        for i in 0..100u64 {
            s.observe(7); // heavy
            s.observe(100 + i); // each light key appears once
        }
        let (count, error) = s.estimate(7).expect("heavy key must stay tracked");
        assert!(count >= 100, "heavy key count {count} must not be lost");
        assert!(
            count.saturating_sub(error) <= 100,
            "guaranteed count must not exceed the true frequency"
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tracker_promotes_only_after_min_observations() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.5,
            min_observations: 10,
            sketch_capacity: 8,
            max_hot_keys: 2,
        });
        for _ in 0..9 {
            t.observe(42);
        }
        let none: (Vec<u64>, Vec<u64>) = (vec![], vec![]);
        assert_eq!(t.rebalance(), none, "no promotion before min observations");
        assert!(!t.is_hot(42), "observing alone never promotes");
        t.observe(42);
        assert!(!t.is_hot(42), "observing alone never promotes");
        assert_eq!(t.rebalance(), (vec![], vec![42]), "share 1.0 promotes");
        assert!(t.is_hot(42));
        assert_eq!(t.rebalance(), none, "promotion fires exactly once");
    }

    #[test]
    fn tracker_ignores_cold_keys_and_caps_hot_set() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.4,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 1,
        });
        // Two keys at 50% each, one of them heavier: the heaviest gets the
        // only slot.
        for _ in 0..20 {
            t.observe(1);
            t.observe(2);
        }
        t.observe(2);
        assert_eq!(
            t.rebalance(),
            (vec![], vec![2]),
            "max_hot_keys caps the hot set"
        );
        assert_eq!(t.hot_keys(), &[2]);
        assert_eq!(t.rebalance(), (vec![], vec![]), "no room for key 1");
        // A key with a tiny share never promotes even with room.
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.4,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 4,
        });
        for i in 0..100u64 {
            t.observe(i % 10);
            if i % 10 == 9 {
                assert_eq!(t.rebalance(), (vec![], vec![]), "10% share below 40%");
            }
        }
        assert!(t.hot_keys().is_empty());
    }

    #[test]
    fn hot_key_demotes_after_share_decay_and_can_repromote() {
        let mut t = HotKeyTracker::new(SkewConfig {
            hot_share: 0.5,
            min_observations: 4,
            sketch_capacity: 8,
            max_hot_keys: 2,
        });
        for _ in 0..4 {
            t.observe(7);
        }
        assert_eq!(t.rebalance(), (vec![], vec![7]));
        // A cold-key flood decays 7's share.  Guaranteed 4/total stays at or
        // above hot_share/2 = 0.25 up to 16 observations: the hysteresis band
        // keeps the key hot.
        for i in 0..12u64 {
            t.observe(100 + (i % 4));
        }
        assert_eq!(t.rebalance(), (vec![], vec![]), "4/16 is still hot");
        t.observe(100);
        assert_eq!(t.rebalance(), (vec![7], vec![]), "4/17 demotes");
        assert!(!t.is_hot(7), "decayed key must be demoted");
        assert_eq!(t.rebalance(), (vec![], vec![]), "demotions fire once");
        // The demoted key can re-promote when its share recovers.
        for _ in 0..20 {
            t.observe(7);
        }
        assert_eq!(t.rebalance(), (vec![], vec![7]), "24/37 promotes again");
        assert!(t.is_hot(7));
    }

    #[test]
    fn promote_then_demote_returns_every_tuple_of_the_key_home() {
        use crate::time::Timestamp;
        use crate::tuple::StreamId;
        use crate::window::SliceWindow;
        let spec = ShardSpec::symmetric(0);
        let t = |s, stream, key| Tuple::of_ints(Timestamp::from_secs(s), stream, &[key]);
        let KeyClass::Hash(key) = tuple_key(&t(0, StreamId::A, 7), 0) else {
            panic!("an int key hashes");
        };
        let home = ShardSpec::shard_for_class(KeyClass::Hash(key), 3);
        // Hash placement over 3 shards: every tuple on its key's home.
        let mut placed = vec![vec![WindowState::empty(SliceWindow::from_secs(0, 20))]; 3];
        for s in 0..12 {
            let (a, b) = (
                t(s, StreamId::A, s as i64 % 4 + 5),
                t(s, StreamId::B, s as i64 % 3 + 6),
            );
            placed[spec.shard_of(&a, 3)][0].side_a.push(a);
            placed[spec.shard_of(&b, 3)][0].side_b.push(b);
        }
        let mut states = placed.clone();
        promote_key(&mut states, &spec, key);
        let bucket = |chain: &Vec<WindowState>| -> Vec<Tuple> {
            let side = chain[0].side_b.iter();
            side.filter(|t| has_key(&spec, t, key)).cloned().collect()
        };
        assert_eq!(bucket(&placed[home]).len(), 4);
        assert!(states
            .iter()
            .all(|chain| bucket(chain) == bucket(&placed[home])));
        // While hot, one of the key's A tuples was spread off its home.
        let spread = t(12, StreamId::A, 7);
        states[(home + 1) % 3][0].side_a.push(spread.clone());
        placed[home][0].side_a.push(spread);
        demote_key(&mut states, &spec, key);
        assert_eq!(states, placed);
    }

    #[test]
    fn promoting_into_a_shard_whose_chain_is_ahead_keeps_it_oldest_first() {
        use crate::checkpoint::chain_is_oldest_first;
        use crate::time::Timestamp;
        use crate::tuple::StreamId;
        use crate::window::SliceWindow;
        let spec = ShardSpec::symmetric(0);
        let b = |s, key| Tuple::of_ints(Timestamp::from_secs(s), StreamId::B, &[key]);
        let shard_of = |key| spec.shard_of(&b(0, key), 2);
        let KeyClass::Hash(hot) = tuple_key(&b(0, 7), 0) else {
            panic!("an int key hashes");
        };
        let home = shard_of(7);
        let ahead = 1 - home;
        let cold = (0..).find(|&k| shard_of(k) == ahead).unwrap();
        let chain = || {
            let slice = |start, end| WindowState::empty(SliceWindow::from_secs(start, end));
            vec![slice(0, 5), slice(5, 20)]
        };
        let mut states = vec![chain(), chain()];
        // The home shard's purge is behind: the hot key's 10 s probe tuple
        // is still in the first slice.
        states[home][0].side_b.push(b(10, 7));
        // The other shard is ahead: a male at 18 s purged its 12 s tuple
        // into the second slice.
        states[ahead][1].side_b.push(b(12, cold));
        states[ahead][0].side_b.push(b(16, cold));
        promote_key(&mut states, &spec, hot);
        // The copy is older than the 12 s tuple, which moves back up behind
        // it: any later probe there is at least 18 s and purges both onward,
        // oldest first, before it probes.
        let secs = |side: &[Tuple]| -> Vec<u64> {
            side.iter().map(|t| t.ts.as_micros() / 1_000_000).collect()
        };
        assert_eq!(secs(&states[ahead][0].side_b), [10, 12, 16]);
        assert!(states[ahead][1].side_b.is_empty());
        assert_eq!(secs(&states[home][0].side_b), [10]);
        assert!(states.iter().all(|chain| chain_is_oldest_first(chain)));
    }

    #[test]
    fn spread_is_round_robin() {
        let mut t = HotKeyTracker::new(SkewConfig::default());
        let picks: Vec<usize> = (0..6).map(|_| t.next_spread(3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }
}
