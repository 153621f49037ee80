//! Hash-indexed sliding-window join state.
//!
//! The window join ([`ops::slice_join`](crate::ops::slice_join)) — every
//! chain slice and every regular `[0, W)` join — keeps per-stream state that
//! is
//!
//! 1. **cross-purged oldest-first** (states are in arrival order, so purging
//!    pops from the front until the first still-valid tuple), and
//! 2. **probed** by every arrival of the opposite stream.
//!
//! [`JoinState`] packages both access paths: the window itself, one
//! time-ordered `VecDeque` for O(1) oldest-first purging, plus — for
//! equi-join conditions — a hash index `key → chain of entries`.  A key's
//! entries are chained oldest to newest through one link per stored tuple
//! (a `next` deque aligned with the window), and the map holds only each
//! chain's oldest and newest entry, so indexing a tuple allocates nothing of
//! its own.  Purging is oldest-first, so a purged tuple is always the oldest
//! entry of its chain: a push links the new entry after the chain's newest
//! and a purge advances the chain's oldest, dropping the chain when it held
//! only that entry.  An equi probe walks only its key's chain, so the probe
//! cost is O(1 + matches) instead of O(|state|); the `probe_comparisons`
//! counters incremented by the callers consequently scale with the *output*
//! size, not with the state size (the dominant cost in the paper's Figures
//! 17–19).
//!
//! Conditions with no equi component but an inequality (band/theta)
//! component get a third mode, **`BandIndexed`**: a value-ordered secondary
//! index, one ordered set of `(order-preserving encoding of the stored band
//! key, sequence number)` pairs.  A push inserts the tuple's pair and a purge
//! removes it, each O(log n).  A band probe `lo ≤ stored.g ≤ hi`
//! binary-searches to the range start and walks the contiguous run —
//! O(log n + matches) instead of the O(n) scan (the classic ordered
//! range-reporting bound).  Stored keys that
//! do not order numerically (`Null`/`Bool`/`Str`/`NaN` — cross-type
//! comparisons go through type ranks, so they *can* satisfy a band theta)
//! live in a side list every band probe scans; a probe whose bound value is
//! non-numeric degrades to a full scan, and range endpoints are widened to
//! inclusive at `f64` granularity so `i64 → f64` rounding can never lose a
//! true match.  As everywhere else: false positives are fine (callers
//! re-evaluate the full condition per candidate), false negatives never.
//!
//! Both indexes are **exact after every operation**: they reference the live
//! tuples and nothing else, so no probe skips a dead entry and no index is
//! ever rebuilt on the purge path ([`JoinState::index_matches_rebuild`]).
//!
//! Cross products and conditions with no usable component at all fall back
//! to a linear scan over the time-ordered store, which is exactly the
//! pre-index behaviour.
//!
//! ## One store for a run of slices
//!
//! A chain's slices are disjoint age ranges of one window (Definition 1,
//! Theorem 1), so a [`RunStore`] keeps one stream's tuples for a whole run
//! of consecutive slices — every slice of a chain for stream B, the slices
//! between two lineage gates for stream A — in one `JoinState`, each slice a
//! range of sequence numbers that starts at a cursor.  A tuple a slice
//! purges into the next slice of the run moves by a cursor step; only the
//! run's last slice pops.  A probe makes one index lookup for the run and
//! sends each candidate to its slice by sequence number: a hash chain yields
//! each slice's entries in time order and the band index in `(key bits,
//! sequence)` order, as a state of the slice's own would.  The purge-time
//! shrink ([`JoinState::purge_expired`]) acts where the run pops, on the
//! whole run's queue.
//!
//! ## Correctness of the bucket mapping
//!
//! Candidate filtering must never produce *false negatives*: two key values
//! that [`Value::compare`] as `Equal` must land in the same bucket.  False
//! positives are harmless — callers re-evaluate the full join condition for
//! every candidate.  The key canonicalisation therefore:
//!
//! * maps `Int(i)` and `Float(f)` to the bits of the canonical `f64`
//!   (`compare` equates `Int(i)` with `Float(f)` iff `i as f64 == f`), with
//!   `-0.0` normalised to `+0.0`,
//! * keeps `NaN` keys **out of the index** (under IEEE semantics `compare`
//!   equates `NaN` with every number): they live in a small side list that
//!   every probe scans in addition to its bucket, and a `NaN` *probe* key
//!   degrades to a full linear scan,
//! * gives tuples whose key attribute is missing their own bucket that no
//!   probe ever reads (a missing attribute never satisfies an equi
//!   condition).
//!
//! ## One hash per tuple
//!
//! Chains are keyed directly by the 64-bit [`canonical_key_hash`] (the map
//! uses an identity hasher), and that hash is computed **once per tuple**:
//! [`memoize_key`] stores it on the tuple ([`Tuple::key_hash`]), every
//! insert/probe reuses the memo when its key field matches, and each stored
//! entry remembers its hash so purging never rehashes the key it hashed on
//! insert.  A chain of N slices and a hash-sharded router therefore share one
//! hash per tuple instead of recomputing it at every hop.  Keying chains by
//! the hash can in principle alias two distinct key classes (a 64-bit
//! collision); that only widens a candidate set, and callers re-evaluate the
//! condition per candidate, so correctness is unaffected.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use crate::predicate::{band_bounds, BandProbe, JoinCondition};
use crate::tuple::{KeyClass, Tuple, Value};

/// The `(stored_field, probe_field)` pair of the first equi component of a
/// join condition, from the perspective of a state that stores the
/// condition's *left* (`stored_is_left = true`) or *right* side.
///
/// `And` conjunctions are searched left-to-right for an equi component: the
/// index filters on that component and the caller re-evaluates the full
/// condition per candidate, so any single equi conjunct is a correct filter.
/// Returns `None` for conditions with no equi component (cross products,
/// pure theta/band predicates) — those use a linear scan.
pub fn equi_key_fields(cond: &JoinCondition, stored_is_left: bool) -> Option<(usize, usize)> {
    match cond {
        JoinCondition::Equi {
            left_field,
            right_field,
        } => Some(if stored_is_left {
            (*left_field, *right_field)
        } else {
            (*right_field, *left_field)
        }),
        JoinCondition::And(a, b) => {
            equi_key_fields(a, stored_is_left).or_else(|| equi_key_fields(b, stored_is_left))
        }
        JoinCondition::Cross | JoinCondition::Theta { .. } => None,
    }
}

/// Canonical hash key of a [`Value`] (see the module docs for why this is
/// coarser than `Value` equality in places, and why that is safe).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    /// `Null` joins only `Null`.
    Null,
    /// Booleans.
    Bool(bool),
    /// Canonical numeric bits: `Int` and `Float` keys that compare `Equal`
    /// share these bits.  `NaN` is rejected (returns `None` below).
    Num(u64),
    /// Strings (shared, so building a key never copies the payload).
    Str(Arc<str>),
}

impl IndexKey {
    /// The bucket key for a value, or `None` for `NaN` (unindexable).
    fn for_value(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Null => Some(IndexKey::Null),
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            Value::Int(i) => Some(IndexKey::Num(canonical_bits(*i as f64)?)),
            Value::Float(f) => Some(IndexKey::Num(canonical_bits(*f)?)),
            Value::Str(s) => Some(IndexKey::Str(Arc::clone(s))),
        }
    }
}

fn canonical_bits(f: f64) -> Option<u64> {
    if f.is_nan() {
        None
    } else if f == 0.0 {
        Some(0.0f64.to_bits()) // fold -0.0 into +0.0
    } else {
        Some(f.to_bits())
    }
}

/// Canonical key class of `tuple.value(field)`, reusing the tuple's memo when
/// it was computed for the same field.
pub fn tuple_key(tuple: &Tuple, field: usize) -> KeyClass {
    if let Some(class) = tuple.memoized_key(field) {
        return class;
    }
    compute_key(tuple, field)
}

/// Compute (and memoise) the canonical key class of `tuple.value(field)`, so
/// every later consumer keying on the same field — each slice of a chain, the
/// shard router — reuses it instead of rehashing.
pub fn memoize_key(tuple: &mut Tuple, field: usize) -> KeyClass {
    if let Some(class) = tuple.memoized_key(field) {
        return class;
    }
    let class = compute_key(tuple, field);
    tuple.set_key_memo(field, class);
    class
}

fn compute_key(tuple: &Tuple, field: usize) -> KeyClass {
    match tuple.value(field) {
        None => KeyClass::Missing,
        Some(v) => match canonical_key_hash(v) {
            Some(hash) => KeyClass::Hash(hash),
            None => KeyClass::Nan,
        },
    }
}

/// Pass-through hasher for bucket maps keyed by an already-uniform
/// [`canonical_key_hash`]: re-hashing a 64-bit FNV output through SipHash per
/// map operation would only burn cycles.
#[derive(Debug, Default, Clone)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold bytes in as a safety net.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdentityBuild = BuildHasherDefault<IdentityHasher>;

/// One key's entries, chained oldest to newest through the hash index's
/// `next` links: the sequence numbers of the chain's oldest and newest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chain {
    first: u64,
    last: u64,
}

/// Hash buckets: canonical key hash → the chain of that key's entries.
type Buckets = HashMap<u64, Chain, IdentityBuild>;

/// The `next` link of a chain's newest entry and of a `NaN` entry.
const NO_NEXT: u64 = u64::MAX;

/// Capacity, in stored tuples, below which a state never gives memory back:
/// a slice whose window empties and refills must not reallocate each time.
const MIN_KEPT_SLOTS: usize = 64;

/// Deterministic hash of a join-key value over the *same* equivalence
/// classes as the [`JoinState`] bucket mapping: two key values that
/// [`Value::compare`](crate::tuple::Value) as `Equal` hash identically
/// (`Int(3)` with `Float(3.0)`, `-0.0` with `+0.0`, ...).
///
/// This is the partitioning primitive of hash-sharded parallel execution
/// ([`shard`](crate::shard)): all tuples whose keys can equi-join land on the
/// same shard.  Returns `None` for `NaN` keys — under this tree's comparison
/// semantics `NaN` equi-joins *every* number, so no hash partition can route
/// it correctly (the caller decides how to degrade).
///
/// The hash is FNV-1a over a type-tagged canonical encoding, fixed across
/// runs and platforms so shard assignments are reproducible.
pub fn canonical_key_hash(v: &Value) -> Option<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fnv(hash: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }
    let key = IndexKey::for_value(v)?;
    Some(match key {
        IndexKey::Null => fnv(FNV_OFFSET, &[0]),
        // Tag 1 is reserved for stored tuples with a *missing* key attribute
        // (`MISSING_KEY_HASH`), which no `Value` can produce.
        IndexKey::Bool(b) => fnv(FNV_OFFSET, &[2, b as u8]),
        IndexKey::Num(bits) => fnv(fnv(FNV_OFFSET, &[3]), &bits.to_le_bytes()),
        IndexKey::Str(s) => fnv(fnv(FNV_OFFSET, &[4]), s.as_bytes()),
    })
}

/// Bucket hash of stored tuples whose key attribute is missing: same
/// type-tagged FNV scheme as [`canonical_key_hash`], tag 1 (no [`Value`] maps
/// to this tag, and no probe ever looks the bucket up).
const MISSING_KEY_HASH: u64 = 0xaf63_bc4c_8601_b62c;

/// Order-preserving `u64` encoding of a *numeric* band key: `a < b` under
/// [`Value::compare`] iff `bits(a) < bits(b)` (the classic sign-flip trick
/// over IEEE-754 bits), with `-0.0` folded into `+0.0`.  Returns `None` for
/// `NaN`, which has no place in a total order.
pub(crate) fn monotone_band_bits(f: f64) -> Option<u64> {
    let bits = canonical_bits(f)?;
    Some(if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    })
}

/// Ordering key of a stored band-key value, or `None` for values the tree
/// cannot order numerically (`NaN`, and the non-numeric types whose
/// cross-type comparisons go through type ranks) — those go to the
/// always-scanned side list.
pub(crate) fn band_key_bits(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => monotone_band_bits(*i as f64),
        Value::Float(f) => monotone_band_bits(*f),
        Value::Null | Value::Bool(_) | Value::Str(_) => None,
    }
}

/// The value-ordered secondary index of a `BandIndexed` [`JoinState`],
/// maintained eagerly: it references exactly the live entries.
#[derive(Debug, PartialEq)]
struct BandIndexState {
    /// The band shape ([`band_bounds`]) this state answers probes for.
    spec: BandProbe,
    /// Order index: `(monotone key bits, sequence number)` pairs, so a range
    /// walk yields value order and insertion order among equal keys.  Holds
    /// only numerically-ordered keys.
    order: BTreeSet<(u64, u64)>,
    /// Sequence numbers of entries whose band key exists but is not
    /// numerically ordered (`Null`/`Bool`/`Str`/`NaN`), in time order; every
    /// band probe scans these in addition to its order range.  Entries
    /// *missing* the band key field are referenced by neither structure — a
    /// theta over an absent field is false, and conditions are pure
    /// conjunctions, so such tuples can never match.
    side: VecDeque<u64>,
}

/// Where a stored tuple's band entry lives.
enum BandSlot {
    /// In the order set, under these monotone key bits.
    Order(u64),
    /// In the side list (non-numeric or `NaN` key).
    Side,
    /// Nowhere (the band key field is missing).
    Absent,
}

impl BandIndexState {
    fn new(spec: BandProbe) -> BandIndexState {
        BandIndexState {
            spec,
            order: BTreeSet::new(),
            side: VecDeque::new(),
        }
    }

    fn slot(&self, tuple: &Tuple) -> BandSlot {
        match tuple.value(self.spec.stored_field) {
            None => BandSlot::Absent,
            Some(v) => band_key_bits(v).map_or(BandSlot::Side, BandSlot::Order),
        }
    }

    fn insert(&mut self, seq: u64, tuple: &Tuple) {
        match self.slot(tuple) {
            BandSlot::Order(bits) => {
                self.order.insert((bits, seq));
            }
            BandSlot::Side => self.side.push_back(seq),
            BandSlot::Absent => {}
        }
    }

    /// Drop the entry of the purged tuple `seq`.  Purging is oldest-first and
    /// the side list is in time order, so a side entry is always its front.
    fn remove(&mut self, seq: u64, tuple: &Tuple) {
        match self.slot(tuple) {
            BandSlot::Order(bits) => {
                let removed = self.order.remove(&(bits, seq));
                debug_assert!(removed, "purged band entry {seq} was not indexed");
            }
            BandSlot::Side => {
                let front = self.side.pop_front();
                debug_assert_eq!(front, Some(seq), "side list out of time order");
            }
            BandSlot::Absent => {}
        }
    }
}

/// The index of a [`JoinState`]: exactly one mode per state.
#[derive(Debug, Default, PartialEq)]
enum Index {
    /// No index: every probe scans the whole state.
    #[default]
    Linear,
    /// Hash chains on the equi key.
    Hash {
        /// Field of *stored* tuples the chains are keyed on.
        stored_field: usize,
        /// Field of *probing* tuples holding the lookup key.
        probe_field: usize,
        buckets: Buckets,
        /// `next[seq - head_seq]` is the next newer entry with entry `seq`'s
        /// key, or [`NO_NEXT`]: one link per stored tuple, aligned with the
        /// state's window (a `NaN` entry holds a `NO_NEXT` slot).
        next: VecDeque<u64>,
        /// Sequence numbers of entries with unindexable (`NaN`) keys, in
        /// time order; scanned by every probe in addition to its chain.
        nan: VecDeque<u64>,
    },
    /// The value-ordered band index.
    Band(BandIndexState),
}

impl Index {
    /// The bucket hash of a stored entry's key class: `Missing` entries get
    /// their own bucket no probe ever reads.
    fn bucket_hash(class: KeyClass) -> Option<u64> {
        match class {
            KeyClass::Hash(h) => Some(h),
            KeyClass::Missing => Some(MISSING_KEY_HASH),
            KeyClass::Nan => None,
        }
    }

    /// Add the entry of tuple `seq`, the newest of a state whose oldest is
    /// `head_seq`, memoising its key class on a hash index's stored tuple
    /// ([`memoize_key`]).  A hash entry is linked after its chain's newest.
    fn insert(&mut self, seq: u64, head_seq: u64, tuple: &mut Tuple) {
        match self {
            Index::Linear => {}
            Index::Hash {
                stored_field,
                buckets,
                next,
                nan,
                ..
            } => {
                next.push_back(NO_NEXT);
                match Self::bucket_hash(memoize_key(tuple, *stored_field)) {
                    Some(hash) => match buckets.entry(hash) {
                        Entry::Occupied(mut chain) => {
                            let chain = chain.get_mut();
                            if let Some(link) = next.get_mut((chain.last - head_seq) as usize) {
                                *link = seq;
                            }
                            chain.last = seq;
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(Chain {
                                first: seq,
                                last: seq,
                            });
                        }
                    },
                    None => nan.push_back(seq),
                }
            }
            Index::Band(band) => band.insert(seq, tuple),
        }
    }

    /// Drop the entry of the purged tuple `seq`, the state's oldest.
    /// Purging is oldest-first and every chain and the `NaN` list are in
    /// time order, so a hash entry is always the oldest of its chain, found
    /// through the tuple's key memo (no rehash): the chain advances to the
    /// purged entry's link, or goes when it held only that entry.
    fn remove(&mut self, seq: u64, tuple: &Tuple) {
        match self {
            Index::Linear => {}
            Index::Hash {
                stored_field,
                buckets,
                next,
                nan,
                ..
            } => {
                let link = next.pop_front().unwrap_or(NO_NEXT);
                let oldest = match Self::bucket_hash(tuple_key(tuple, *stored_field)) {
                    Some(hash) => match buckets.entry(hash) {
                        Entry::Occupied(mut chain) => {
                            let first = chain.get().first;
                            if first == chain.get().last {
                                chain.remove();
                            } else {
                                chain.get_mut().first = link;
                            }
                            Some(first)
                        }
                        Entry::Vacant(_) => None,
                    },
                    None => nan.pop_front(),
                };
                debug_assert_eq!(oldest, Some(seq), "hash chain out of time order");
            }
            Index::Band(band) => band.remove(seq, tuple),
        }
    }

    /// Shrink the hash links to hold at most `slots` entries' worth, the
    /// capacity the state's window keeps ([`JoinState::purge_expired`]).
    fn shrink_to(&mut self, slots: usize) {
        if let Index::Hash { next, .. } = self {
            next.shrink_to(slots);
        }
    }

    /// An index of the same mode with no entries.
    fn emptied(&self) -> Index {
        match self {
            Index::Linear => Index::Linear,
            Index::Hash {
                stored_field,
                probe_field,
                ..
            } => JoinState::indexed(*stored_field, *probe_field).index,
            Index::Band(band) => Index::Band(BandIndexState::new(band.spec)),
        }
    }
}

/// A stored tuple with its heap payload bytes ([`Tuple::heap_bytes`]), taken
/// once when the tuple first enters a state: a purge hands both to the next
/// slice's state, so forwarding never reads the payload again.
#[derive(Debug, Clone)]
pub struct StoredTuple {
    /// The tuple.
    pub tuple: Tuple,
    /// Its [`Tuple::heap_bytes`].
    pub heap_bytes: usize,
}

impl From<Tuple> for StoredTuple {
    fn from(tuple: Tuple) -> StoredTuple {
        let heap_bytes = tuple.heap_bytes();
        StoredTuple { tuple, heap_bytes }
    }
}

/// One stream's window-join state: a time-ordered tuple queue with an
/// optional index — hash buckets on the equi-join key, or the value-ordered
/// band index.
///
/// Every stored tuple has a sequence number, increasing in arrival order,
/// which the index stores: `tuples[i]` has number `head_seq + i`.  A push
/// adds the new tuple's entry and a purge drops the purged tuple's entry at
/// once, so after every operation the index references exactly the live
/// tuples: no probe skips a dead entry and nothing is rebuilt on the purge
/// path.
///
/// Each stored tuple keeps its heap bytes beside it ([`StoredTuple`]).  The
/// byte estimates count a [`Tuple`] slot per stored tuple, as they did before
/// the bytes were kept: like the index's links, that bookkeeping word is not
/// counted.
///
/// Hash chains are keyed by the canonical 64-bit key hash; each stored
/// tuple carries its key class as a memo ([`memoize_key`]), so a purge never
/// rehashes a key that was hashed on insert.
#[derive(Debug, Default)]
pub struct JoinState {
    /// The window, oldest first.
    tuples: VecDeque<StoredTuple>,
    /// Sequence number of `tuples[0]`.
    head_seq: u64,
    /// Heap payload bytes of the stored tuples ([`Tuple::heap_bytes`]).
    heap_bytes: usize,
    index: Index,
}

impl JoinState {
    /// A linear-scan state (no index) — the pre-index behaviour, also used
    /// as the fallback for non-equi conditions.
    pub fn linear() -> JoinState {
        JoinState::default()
    }

    /// A state hash-indexed on `stored_key_field` of inserted tuples and
    /// probed with `probe_key_field` of arriving tuples.
    pub fn indexed(stored_key_field: usize, probe_key_field: usize) -> JoinState {
        JoinState {
            index: Index::Hash {
                stored_field: stored_key_field,
                probe_field: probe_key_field,
                buckets: Buckets::default(),
                next: VecDeque::new(),
                nan: VecDeque::new(),
            },
            ..JoinState::default()
        }
    }

    /// A state band-indexed on `spec.stored_field` of inserted tuples,
    /// answering range probes bounded by the probe-tuple fields in `spec`.
    pub fn band_indexed(spec: BandProbe) -> JoinState {
        JoinState {
            index: Index::Band(BandIndexState::new(spec)),
            ..JoinState::default()
        }
    }

    /// The right state for a join condition: hash-indexed on the condition's
    /// first equi component if it has one, band-indexed on its band
    /// component when there is no equi but an inequality theta, linear
    /// otherwise.  `stored_is_left` says whether this state stores the
    /// tuples that appear on the *left* of the condition's `eval` calls.
    pub fn for_condition(cond: &JoinCondition, stored_is_left: bool) -> JoinState {
        if let Some((stored, probe)) = equi_key_fields(cond, stored_is_left) {
            return JoinState::indexed(stored, probe);
        }
        match band_bounds(cond, stored_is_left) {
            Some(spec) => JoinState::band_indexed(spec),
            None => JoinState::linear(),
        }
    }

    /// `true` if this state maintains a hash index.
    pub fn is_indexed(&self) -> bool {
        matches!(self.index, Index::Hash { .. })
    }

    /// `true` if this state maintains a value-ordered band index.
    pub fn is_band_indexed(&self) -> bool {
        matches!(self.index, Index::Band(_))
    }

    /// The band shape a `BandIndexed` state answers probes for.
    pub fn band_spec(&self) -> Option<&BandProbe> {
        match &self.index {
            Index::Band(band) => Some(&band.spec),
            _ => None,
        }
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The oldest stored tuple.
    pub fn front(&self) -> Option<&Tuple> {
        self.tuples.front().map(|s| &s.tuple)
    }

    /// The newest stored tuple.
    pub fn back(&self) -> Option<&Tuple> {
        self.tuples.back().map(|s| &s.tuple)
    }

    /// All stored tuples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().map(|s| &s.tuple)
    }

    /// The stored tuple with sequence number `seq`.
    fn get(&self, seq: u64) -> Option<&Tuple> {
        Some(&self.stored(seq)?.tuple)
    }

    /// The stored tuple with sequence number `seq`, with its heap bytes.
    fn stored(&self, seq: u64) -> Option<&StoredTuple> {
        self.tuples.get(seq.checked_sub(self.head_seq)? as usize)
    }

    /// Sequence number the next pushed tuple gets.
    fn next_seq(&self) -> u64 {
        self.head_seq + self.tuples.len() as u64
    }

    /// Estimated bytes resident in the stored tuples (inline slots + heap
    /// payloads; see [`Tuple::heap_bytes`] for the Arc-sharing caveat).
    pub fn live_bytes(&self) -> usize {
        self.tuples.len() * std::mem::size_of::<Tuple>() + self.heap_bytes
    }

    /// Estimated bytes the state currently holds on to: every slot the queue
    /// has allocated, filled or not, plus the stored heap payloads.  A purge
    /// gives slots back once the window fills under a quarter of them
    /// ([`JoinState::purge_expired`]).
    pub fn capacity_bytes(&self) -> usize {
        self.tuples.capacity() * std::mem::size_of::<Tuple>() + self.heap_bytes
    }

    /// Insert a tuple at the back.  Tuples must arrive in timestamp order
    /// (the operator contract for all window joins).  The canonical key hash
    /// is taken from the tuple's memo when present ([`memoize_key`]) and
    /// computed — and memoised on the stored copy — otherwise, so that a
    /// purge forwarding this tuple to the next slice ships the hash along.
    /// A [`Tuple`] has its heap bytes counted here; a [`StoredTuple`] a purge
    /// handed on brings them along.
    pub fn push(&mut self, stored: impl Into<StoredTuple>) {
        let mut stored = stored.into();
        let seq = self.next_seq();
        self.index.insert(seq, self.head_seq, &mut stored.tuple);
        self.heap_bytes += stored.heap_bytes;
        self.tuples.push_back(stored);
    }

    /// Remove and return the oldest tuple, dropping its index entry at once:
    /// it is the oldest of its hash chain (the chain goes once it empties)
    /// or the front of the `NaN` list, or one entry of the band index's
    /// order set or the front of its side list.
    pub fn pop_front(&mut self) -> Option<Tuple> {
        self.pop_stored().map(|s| s.tuple)
    }

    /// [`JoinState::pop_front`], keeping the tuple's heap bytes with it.
    fn pop_stored(&mut self) -> Option<StoredTuple> {
        let stored = self.tuples.pop_front()?;
        self.index.remove(self.head_seq, &stored.tuple);
        self.head_seq += 1;
        self.heap_bytes -= stored.heap_bytes;
        Some(stored)
    }

    /// `true` if the index equals a from-scratch build over the stored
    /// tuples — the same entries in the same order, and nothing else.  A
    /// linear state is trivially consistent.  This is the "incremental ≡
    /// rebuild" invariant every push / purge / migrate / restore sequence
    /// keeps.
    pub fn index_matches_rebuild(&self) -> bool {
        let mut fresh = self.index.emptied();
        for (seq, tuple) in (self.head_seq..).zip(self.iter()) {
            fresh.insert(seq, self.head_seq, &mut tuple.clone());
        }
        fresh == self.index
    }

    /// The candidate tuples an arriving `probe` tuple has to be evaluated
    /// against:
    ///
    /// * linear mode — every stored tuple, oldest first,
    /// * hash-indexed mode — the probe key's chain, oldest first, plus the
    ///   `NaN` side list; a `NaN` probe key degrades to a full scan and a missing probe
    ///   attribute yields no candidates (it can never satisfy the condition),
    /// * band-indexed mode — the tree range between the probe tuple's bound
    ///   values (binary search + contiguous walk, value order) plus the
    ///   non-numeric side list; a missing bound attribute yields no
    ///   candidates and a non-numeric bound value degrades to a full scan.
    ///
    /// Callers must still evaluate the full join condition (and any window
    /// validity check) per candidate: buckets and band ranges may contain
    /// false positives (band endpoints are deliberately widened to inclusive
    /// at `f64` granularity).  The probe key hash is reused from the tuple's
    /// memo when present.
    pub fn probe_candidates(&self, probe: &Tuple) -> Candidates<'_> {
        match &self.index {
            Index::Linear => Candidates::all(self),
            Index::Hash {
                probe_field,
                buckets,
                next,
                nan,
                ..
            } => match tuple_key(probe, *probe_field) {
                KeyClass::Missing => Candidates::empty(),
                KeyClass::Nan => Candidates::all(self), // NaN probe
                KeyClass::Hash(hash) => Candidates {
                    inner: CandidatesInner::Indexed {
                        state: self,
                        links: next,
                        cursor: buckets.get(&hash).map_or(NO_NEXT, |chain| chain.first),
                        extra: nan.iter(),
                    },
                },
            },
            Index::Band(band) => self.band_candidates(band, probe),
        }
    }

    /// Band-probe candidate selection (see [`JoinState::probe_candidates`]).
    fn band_candidates<'a>(&'a self, band: &'a BandIndexState, probe: &Tuple) -> Candidates<'a> {
        use std::ops::Bound;
        let mut lo = Bound::Unbounded;
        let mut hi = Bound::Unbounded;
        for (bound, slot) in [(band.spec.lower, &mut lo), (band.spec.upper, &mut hi)] {
            if let Some((field, _inclusive)) = bound {
                match probe.value(field) {
                    // A missing bound attribute makes the band theta — and
                    // with it the whole conjunction — false for every pair.
                    None => return Candidates::empty(),
                    Some(v) => match band_key_bits(v) {
                        // Non-numeric (or NaN) bound: under the cross-type
                        // total order the matching keys are not one
                        // contiguous bits range, so degrade to a full scan.
                        None => return Candidates::all(self),
                        // Endpoints are always *inclusive* at f64-bucket
                        // granularity, even for strict thetas: the monotone
                        // (non-strict) i64 → f64 cast can collapse distinct
                        // values into one bucket, and only widening keeps
                        // every true match inside the range.  The re-eval of
                        // the exact condition discards the false positives.
                        Some(bits) => *slot = Bound::Included(bits),
                    },
                }
            }
        }
        // An inverted range holds no order-set matches (BTreeSet::range
        // would panic on it); the side list must still be scanned.
        let range = match (lo, hi) {
            (Bound::Included(l), Bound::Included(h)) if l > h => band.order.range((0, 0)..(0, 0)),
            _ => band
                .order
                .range((lo.map(|l| (l, 0)), hi.map(|h| (h, u64::MAX)))),
        };
        Candidates {
            inner: CandidatesInner::Band {
                state: self,
                range,
                extra: band.side.iter(),
            },
        }
    }

    /// Cross-purge: pop entries from the front while `is_expired` says so
    /// (states are in arrival order, so the scan stops at the first
    /// still-valid tuple), handing each expired tuple, with its heap bytes,
    /// to `on_expired`.
    /// Returns the number of front checks performed — the purge
    /// timestamp-comparison count of the paper's cost model: one per popped
    /// tuple plus one for the first survivor.
    ///
    /// A purge that leaves the window under a quarter of the queue's
    /// capacity shrinks the queue (and the hash links beside it) to twice
    /// the window, never below `MIN_KEPT_SLOTS` (64), so a state that bursts
    /// once does not hold its high-water buffer for the rest of the run.  In
    /// a [`RunStore`] this acts when the run's last slice pops, on the
    /// queue of the whole run.
    /// The quarter, the factor two and the floor are untuned: no benchmark
    /// metric yet reads what a state holds after a burst.
    pub fn purge_expired(
        &mut self,
        is_expired: impl FnMut(&Tuple) -> bool,
        on_expired: impl FnMut(StoredTuple),
    ) -> u64 {
        self.purge_before(u64::MAX, is_expired, on_expired)
    }

    /// [`JoinState::purge_expired`] over the entries numbered below `end`
    /// only: the oldest slice of a [`RunStore`].
    fn purge_before(
        &mut self,
        end: u64,
        mut is_expired: impl FnMut(&Tuple) -> bool,
        mut on_expired: impl FnMut(StoredTuple),
    ) -> u64 {
        let mut comparisons = 0;
        while self.head_seq < end {
            let Some(front) = self.front() else {
                break;
            };
            comparisons += 1;
            if !is_expired(front) {
                break;
            }
            let Some(stored) = self.pop_stored() else {
                break;
            };
            on_expired(stored);
        }
        let capacity = self.tuples.capacity();
        if comparisons > 1 && capacity > MIN_KEPT_SLOTS && self.tuples.len() < capacity / 4 {
            let keep = (self.tuples.len() * 2).max(MIN_KEPT_SLOTS);
            self.tuples.shrink_to(keep);
            self.index.shrink_to(keep);
        }
        comparisons
    }

    /// Drain every stored tuple, oldest first, resetting the index.
    pub fn drain_ordered(&mut self) -> Vec<Tuple> {
        self.index = self.index.emptied();
        self.heap_bytes = 0;
        std::mem::take(&mut self.tuples)
            .into_iter()
            .map(|s| s.tuple)
            .collect()
    }

    /// Replace the contents with `tuples` (which must be in timestamp
    /// order) in a fresh queue sized to them, rebuilding the index.
    /// The rebuild is deterministic: pushing the same ordered tuples always
    /// yields the same index (equal band keys order by sequence number, i.e.
    /// by time), so a state restored from a checkpoint probes identically —
    /// same candidates, same comparison counts — to the
    /// incrementally-maintained original.
    pub fn load_ordered(&mut self, tuples: Vec<Tuple>) {
        *self = JoinState {
            tuples: VecDeque::with_capacity(tuples.len()),
            head_seq: 0,
            heap_bytes: 0,
            index: self.index.emptied(),
        };
        for t in tuples {
            self.push(t);
        }
    }
}

/// One stream's state for a run of consecutive chain slices: one
/// time-ordered [`JoinState`] whose sequence numbers the slices share out as
/// disjoint ranges (by Definition 1 and Theorem 1, a chain's slices are
/// disjoint age ranges of one window).  Part 0 is the run's first slice and
/// holds the newest tuples, at the back; the last part is the run's last
/// slice and holds the oldest, at the front.
///
/// A part is its first sequence number — a cursor — with its heap bytes kept
/// beside it, so a tuple one slice purges into the next slice of the run
/// moves by a cursor step: no pop, no unlink, no push.  Only the last part
/// pops, and there the purge-time shrink of [`JoinState::purge_expired`]
/// acts, on the whole run's queue.  One probe serves every part: candidates
/// come in the index's order, and each part's share of them comes in the
/// order a state of its own would yield — time order along a hash chain,
/// `(key bits, sequence)` order along the band index.
#[derive(Debug)]
pub struct RunStore {
    state: JoinState,
    /// `starts[j]`: the first sequence number of part `j`, for every part
    /// but the last, which starts at the state's oldest entry.
    starts: Vec<u64>,
    /// `heap_bytes[j]`: the heap payload bytes of part `j`'s tuples.
    heap_bytes: Vec<usize>,
}

impl RunStore {
    /// An empty store of `parts` (at least one) slices over the empty
    /// `state`, whose index mode it keeps.
    pub fn new(state: JoinState, parts: usize) -> RunStore {
        RunStore {
            starts: vec![state.next_seq(); parts.saturating_sub(1)],
            heap_bytes: vec![0; parts],
            state,
        }
    }

    /// Number of parts (slices).
    pub fn parts(&self) -> usize {
        self.heap_bytes.len()
    }

    /// The sequence numbers of part `j`.
    fn range(&self, j: usize) -> Range<u64> {
        let start = self.starts.get(j).copied().unwrap_or(self.state.head_seq);
        let end = match j {
            0 => self.state.next_seq(),
            _ => self.starts[j - 1],
        };
        start..end
    }

    /// Number of tuples in part `j`.
    pub fn part_len(&self, j: usize) -> usize {
        let range = self.range(j);
        (range.end - range.start) as usize
    }

    /// Estimated bytes resident in part `j`'s tuples, counted as
    /// [`JoinState::live_bytes`] counts a state's.
    pub fn part_bytes(&self, j: usize) -> usize {
        self.part_len(j) * std::mem::size_of::<Tuple>() + self.heap_bytes[j]
    }

    /// Part `j`'s tuples, oldest first.
    pub fn part(&self, j: usize) -> impl Iterator<Item = &Tuple> {
        let range = self.range(j);
        let head = self.state.head_seq;
        self.state
            .tuples
            .range((range.start - head) as usize..(range.end - head) as usize)
            .map(|s| &s.tuple)
    }

    /// The run's state: every part's tuples, oldest first, and the index.
    pub fn state(&self) -> &JoinState {
        &self.state
    }

    /// [`JoinState::index_matches_rebuild`], and the cursors in order inside
    /// the store with each part's heap bytes those of its tuples.
    pub fn index_matches_rebuild(&self) -> bool {
        let (head, next) = (self.state.head_seq, self.state.next_seq());
        let ordered = self.starts.windows(2).all(|w| w[0] >= w[1])
            && self.starts.first().is_none_or(|&start| start <= next)
            && self.starts.last().is_none_or(|&start| start >= head);
        ordered
            && (0..self.parts())
                .all(|j| self.part(j).map(Tuple::heap_bytes).sum::<usize>() == self.heap_bytes[j])
            && self.state.index_matches_rebuild()
    }

    /// Insert a tuple into part 0 ([`JoinState::push`]).
    pub fn push(&mut self, stored: impl Into<StoredTuple>) {
        let stored = stored.into();
        self.heap_bytes[0] += stored.heap_bytes;
        self.state.push(stored);
    }

    /// Cross-purge part `j`: while its oldest tuple `is_expired`, move it
    /// into part `j + 1` by a cursor step or, from the last part, pop it
    /// and hand it, with its heap bytes, to `on_popped`.  Returns the front
    /// checks made — one per purged tuple plus one for the first survivor,
    /// none on an empty part — and the number of tuples purged.
    pub fn purge(
        &mut self,
        j: usize,
        mut is_expired: impl FnMut(&Tuple) -> bool,
        mut on_popped: impl FnMut(StoredTuple),
    ) -> (u64, u64) {
        let end = self.range(j).end;
        if j + 1 == self.parts() {
            let heap = &mut self.heap_bytes[j];
            let mut popped = 0;
            let comparisons = self.state.purge_before(end, is_expired, |stored| {
                popped += 1;
                *heap -= stored.heap_bytes;
                on_popped(stored);
            });
            return (comparisons, popped);
        }
        let (start, mut at, mut moved_bytes, mut comparisons) =
            (self.starts[j], self.starts[j], 0, 0);
        while at < end {
            let Some(stored) = self.state.stored(at) else {
                break;
            };
            comparisons += 1;
            if !is_expired(&stored.tuple) {
                break;
            }
            moved_bytes += stored.heap_bytes;
            at += 1;
        }
        self.starts[j] = at;
        self.heap_bytes[j] -= moved_bytes;
        self.heap_bytes[j + 1] += moved_bytes;
        (comparisons, at - start)
    }

    /// The candidates an arriving `probe` has to be evaluated against
    /// ([`JoinState::probe_candidates`]), each with its part.
    pub fn probe_candidates<'a>(
        &'a self,
        probe: &Tuple,
    ) -> impl Iterator<Item = (usize, &'a Tuple)> + 'a {
        let mut candidates = self.state.probe_candidates(probe);
        std::iter::from_fn(move || {
            let (seq, tuple) = candidates.next_entry()?;
            Some((self.starts.partition_point(|&start| start > seq), tuple))
        })
    }

    /// Replace the contents with `parts` (part 0 first, each in timestamp
    /// order), rebuilding the index ([`JoinState::load_ordered`]) and the
    /// cursors.
    pub fn load(&mut self, parts: Vec<Vec<Tuple>>) {
        debug_assert_eq!(parts.len(), self.parts());
        self.heap_bytes = parts
            .iter()
            .map(|part| part.iter().map(Tuple::heap_bytes).sum())
            .collect();
        let mut older = 0;
        for j in (0..parts.len()).rev() {
            if let Some(start) = self.starts.get_mut(j) {
                *start = older;
            }
            older += parts[j].len() as u64;
        }
        self.state
            .load_ordered(parts.into_iter().rev().flatten().collect());
    }

    /// Drop the index and probe by linear scan, keeping every part.
    pub fn drop_index(&mut self) {
        let parts = (0..self.parts())
            .map(|j| self.part(j).cloned().collect())
            .collect();
        self.state = JoinState::linear();
        self.load(parts);
    }
}

/// Iterator over probe candidates (see [`JoinState::probe_candidates`]).
#[derive(Debug)]
pub struct Candidates<'a> {
    inner: CandidatesInner<'a>,
}

#[derive(Debug)]
enum CandidatesInner<'a> {
    Empty,
    All(
        std::iter::Zip<
            std::ops::RangeFrom<u64>,
            std::collections::vec_deque::Iter<'a, StoredTuple>,
        >,
    ),
    Indexed {
        state: &'a JoinState,
        /// The hash index's `next` links.
        links: &'a VecDeque<u64>,
        /// The next chain entry to yield, or [`NO_NEXT`] past the chain.
        cursor: u64,
        extra: std::collections::vec_deque::Iter<'a, u64>,
    },
    Band {
        state: &'a JoinState,
        range: std::collections::btree_set::Range<'a, (u64, u64)>,
        extra: std::collections::vec_deque::Iter<'a, u64>,
    },
}

impl<'a> Candidates<'a> {
    fn empty() -> Candidates<'a> {
        Candidates {
            inner: CandidatesInner::Empty,
        }
    }

    fn all(state: &'a JoinState) -> Candidates<'a> {
        Candidates {
            inner: CandidatesInner::All((state.head_seq..).zip(state.tuples.iter())),
        }
    }

    /// The next candidate with its sequence number.
    pub(crate) fn next_entry(&mut self) -> Option<(u64, &'a Tuple)> {
        let entry = |state: &'a JoinState, seq| Some((seq, state.get(seq)?));
        match &mut self.inner {
            CandidatesInner::Empty => None,
            CandidatesInner::All(iter) => iter.next().map(|(seq, s)| (seq, &s.tuple)),
            CandidatesInner::Indexed {
                state,
                links,
                cursor,
                extra,
            } => {
                // The key's chain (time order), then the `NaN` list.  Both
                // hold live entries only, so every sequence number resolves.
                if *cursor == NO_NEXT {
                    return entry(state, *extra.next()?);
                }
                let seq = *cursor;
                *cursor = links
                    .get((seq - state.head_seq) as usize)
                    .copied()
                    .unwrap_or(NO_NEXT);
                entry(state, seq)
            }
            CandidatesInner::Band {
                state,
                range,
                extra,
            } => {
                // The order range (value order, insertion order among equal
                // keys), then the non-numeric side list.  Both hold live
                // entries only, so every sequence number resolves.
                let seq = match range.next() {
                    Some(&(_, seq)) => seq,
                    None => *extra.next()?,
                };
                entry(state, seq)
            }
        }
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        self.next_entry().map(|(_, tuple)| tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::StreamId;

    fn t(secs: u64, key: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(secs), StreamId::A, &[key])
    }

    fn tv(secs: u64, key: Value) -> Tuple {
        Tuple::new(Timestamp::from_secs(secs), StreamId::A, vec![key])
    }

    fn candidate_secs(state: &JoinState, probe: &Tuple) -> Vec<u64> {
        state
            .probe_candidates(probe)
            .map(|t| t.ts.as_micros() / 1_000_000)
            .collect()
    }

    /// The buckets and `NaN` list of a hash-indexed state.
    fn hash_parts(s: &mut JoinState) -> (&mut Buckets, &mut VecDeque<u64>) {
        match &mut s.index {
            Index::Hash { buckets, nan, .. } => (buckets, nan),
            _ => panic!("not a hash-indexed state"),
        }
    }

    /// Chain entries plus `NaN` list entries of a hash-indexed state,
    /// counted by walking every chain from its oldest to its newest entry.
    fn hash_references(s: &mut JoinState) -> usize {
        let head = s.head_seq;
        let Index::Hash {
            buckets, next, nan, ..
        } = &s.index
        else {
            panic!("not a hash-indexed state");
        };
        let chained: usize = buckets
            .values()
            .map(|chain| {
                let mut seq = chain.first;
                let mut entries = 1;
                while seq != chain.last {
                    seq = next[(seq - head) as usize];
                    entries += 1;
                }
                entries
            })
            .sum();
        chained + nan.len()
    }

    /// The band index of a band-indexed state.
    fn band_part(s: &mut JoinState) -> &mut BandIndexState {
        match &mut s.index {
            Index::Band(band) => band,
            _ => panic!("not a band-indexed state"),
        }
    }

    #[test]
    fn equi_fields_respect_side_and_recurse_into_and() {
        let equi = JoinCondition::Equi {
            left_field: 1,
            right_field: 2,
        };
        assert_eq!(equi_key_fields(&equi, true), Some((1, 2)));
        assert_eq!(equi_key_fields(&equi, false), Some((2, 1)));
        assert_eq!(equi_key_fields(&JoinCondition::Cross, true), None);
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Lt,
            right_field: 0,
        };
        assert_eq!(equi_key_fields(&theta, true), None);
        let both = JoinCondition::And(Box::new(theta), Box::new(equi));
        assert_eq!(equi_key_fields(&both, false), Some((2, 1)));
    }

    #[test]
    fn equi_fields_are_found_anywhere_in_nested_conjunctions() {
        // An equi component buried at any depth and any position of the And
        // tree must be found — ShardSpec::from_condition relies on this to
        // hash-partition shardable joins.
        let equi = JoinCondition::Equi {
            left_field: 3,
            right_field: 4,
        };
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Lt,
            right_field: 0,
        };
        let deep_right = JoinCondition::And(
            Box::new(theta.clone()),
            Box::new(JoinCondition::And(
                Box::new(JoinCondition::Cross),
                Box::new(equi.clone()),
            )),
        );
        assert_eq!(equi_key_fields(&deep_right, true), Some((3, 4)));
        assert_eq!(equi_key_fields(&deep_right, false), Some((4, 3)));
        let deep_left = JoinCondition::And(
            Box::new(JoinCondition::And(
                Box::new(equi.clone()),
                Box::new(JoinCondition::Cross),
            )),
            Box::new(theta.clone()),
        );
        assert_eq!(equi_key_fields(&deep_left, true), Some((3, 4)));
        // Two equi components: the first in left-to-right order wins (any
        // single equi conjunct is a correct filter).
        let two = JoinCondition::And(
            Box::new(JoinCondition::And(
                Box::new(theta.clone()),
                Box::new(JoinCondition::equi(1)),
            )),
            Box::new(equi),
        );
        assert_eq!(equi_key_fields(&two, true), Some((1, 1)));
        // All-theta trees have no equi anywhere.
        let none = JoinCondition::And(
            Box::new(theta.clone()),
            Box::new(JoinCondition::And(
                Box::new(JoinCondition::Cross),
                Box::new(theta),
            )),
        );
        assert_eq!(equi_key_fields(&none, true), None);
    }

    #[test]
    fn condition_selects_index_or_linear() {
        assert!(JoinState::for_condition(&JoinCondition::equi(0), true).is_indexed());
        assert!(!JoinState::for_condition(&JoinCondition::Cross, true).is_indexed());
    }

    #[test]
    fn indexed_probe_returns_only_the_key_bucket() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7), (4, 9), (5, 7)] {
            s.push(t(secs, key));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![1, 3, 5]);
        assert_eq!(candidate_secs(&s, &t(9, 9)), vec![4]);
        assert_eq!(candidate_secs(&s, &t(9, 42)), Vec::<u64>::new());
    }

    #[test]
    fn purging_keeps_buckets_consistent() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7)] {
            s.push(t(secs, key));
        }
        assert_eq!(s.front().unwrap().ts, Timestamp::from_secs(1));
        let popped = s.pop_front().unwrap();
        assert_eq!(popped.ts, Timestamp::from_secs(1));
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![3]);
        assert_eq!(candidate_secs(&s, &t(9, 8)), vec![2]);
        // Each purge drops its bucket reference at once: the last one
        // leaves no bucket behind.
        s.pop_front();
        s.pop_front();
        assert!(s.is_empty());
        assert!(hash_parts(&mut s).0.is_empty());
        assert_eq!(candidate_secs(&s, &t(9, 7)), Vec::<u64>::new());
        assert_eq!(candidate_secs(&s, &t(9, 8)), Vec::<u64>::new());
    }

    #[test]
    fn linear_mode_scans_everything() {
        let mut s = JoinState::linear();
        s.push(t(1, 7));
        s.push(t(2, 8));
        s.push(t(3, 9));
        assert!(!s.is_indexed());
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![1, 2, 3]);
        // A purged tuple is gone from the scan, which starts at the survivor.
        s.pop_front();
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![2, 3]);
    }

    #[test]
    fn int_and_float_keys_share_buckets() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::Int(3)));
        s.push(tv(2, Value::Float(3.0)));
        s.push(tv(3, Value::Float(-0.0)));
        assert_eq!(candidate_secs(&s, &tv(9, Value::Float(3.0))), vec![1, 2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(3))), vec![1, 2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(0))), vec![3]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Float(0.0))), vec![3]);
    }

    #[test]
    fn nan_keys_never_produce_false_negatives() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::Int(5)));
        s.push(tv(2, Value::Float(f64::NAN)));
        // Value::compare equates NaN with every number, so the NaN entry must
        // be a candidate for a numeric probe...
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(5))), vec![1, 2]);
        // ...and a NaN probe must see everything (full scan).
        assert_eq!(
            candidate_secs(&s, &tv(9, Value::Float(f64::NAN))),
            vec![1, 2]
        );
        // Purging the NaN entry pops it off the side list at once.
        s.pop_front();
        s.pop_front();
        let (buckets, nan) = hash_parts(&mut s);
        assert!(buckets.is_empty() && nan.is_empty());
        assert_eq!(candidate_secs(&s, &tv(9, Value::Int(5))), Vec::<u64>::new());
    }

    #[test]
    fn missing_probe_attribute_yields_no_candidates() {
        let mut s = JoinState::indexed(1, 1);
        // Stored tuple has no field 1: indexed under Missing, never probed.
        s.push(t(1, 7));
        assert_eq!(candidate_secs(&s, &t(9, 8)), Vec::<u64>::new());
        // And purging it drops the Missing bucket at once.
        s.pop_front();
        assert!(hash_parts(&mut s).0.is_empty());
    }

    #[test]
    fn mixed_type_keys_use_distinct_buckets() {
        let mut s = JoinState::indexed(0, 0);
        s.push(tv(1, Value::str("x")));
        s.push(tv(2, Value::Bool(true)));
        s.push(tv(3, Value::Null));
        assert_eq!(candidate_secs(&s, &tv(9, Value::str("x"))), vec![1]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Bool(true))), vec![2]);
        assert_eq!(candidate_secs(&s, &tv(9, Value::Null)), vec![3]);
    }

    #[test]
    fn drain_and_load_round_trip_rebuilds_the_index() {
        let mut s = JoinState::indexed(0, 0);
        for (secs, key) in [(1, 7), (2, 8), (3, 7)] {
            s.push(t(secs, key));
        }
        s.pop_front(); // advance head_seq so load resets it
        let drained = s.drain_ordered();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        s.load_ordered(drained);
        assert_eq!(s.len(), 2);
        assert_eq!(candidate_secs(&s, &t(9, 7)), vec![3]);
        assert_eq!(candidate_secs(&s, &t(9, 8)), vec![2]);
    }

    #[test]
    fn canonical_key_hash_follows_value_equivalence() {
        // Values that compare Equal must hash identically...
        assert_eq!(
            canonical_key_hash(&Value::Int(3)),
            canonical_key_hash(&Value::Float(3.0))
        );
        assert_eq!(
            canonical_key_hash(&Value::Float(-0.0)),
            canonical_key_hash(&Value::Int(0))
        );
        // ...distinct values get (with overwhelming likelihood) distinct
        // hashes, NaN is unhashable, and the function is deterministic.
        assert_ne!(
            canonical_key_hash(&Value::Int(3)),
            canonical_key_hash(&Value::Int(4))
        );
        assert_ne!(
            canonical_key_hash(&Value::str("3")),
            canonical_key_hash(&Value::Int(3))
        );
        assert_ne!(
            canonical_key_hash(&Value::Null),
            canonical_key_hash(&Value::Bool(false))
        );
        assert_eq!(canonical_key_hash(&Value::Float(f64::NAN)), None);
        assert_eq!(
            canonical_key_hash(&Value::str("abc")),
            canonical_key_hash(&Value::str("abc"))
        );
    }

    #[test]
    fn missing_bucket_hash_matches_the_fnv_scheme() {
        // MISSING_KEY_HASH must stay disjoint from every Value-derived hash:
        // it is the FNV of tag byte 1, which IndexKey::for_value never emits.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        assert_eq!(MISSING_KEY_HASH, (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn push_memoizes_and_reuses_the_key_hash() {
        let mut s = JoinState::indexed(0, 0);
        s.push(t(1, 7));
        // The stored copy carries the memo for the stored field...
        let stored = s.front().unwrap();
        let class = stored.memoized_key(0).expect("memoised on insert");
        assert_eq!(
            class,
            KeyClass::Hash(canonical_key_hash(&Value::Int(7)).unwrap())
        );
        // ...and a pre-memoised probe takes the indexed path unchanged.
        let mut probe = t(9, 7);
        memoize_key(&mut probe, 0);
        assert_eq!(candidate_secs(&s, &probe), vec![1]);
        // The popped tuple still carries the memo it got on insert, and its
        // purge (which found the bucket through that memo) leaves no trace.
        let popped = s.pop_front().unwrap();
        assert_eq!(popped.memoized_key(0), Some(class));
        assert!(hash_parts(&mut s).0.is_empty());
    }

    #[test]
    fn hash_purge_drops_the_entry_at_once() {
        let mut s = JoinState::indexed(0, 0);
        for i in 0..40u64 {
            s.push(t(i, (i % 7) as i64));
        }
        // NaN (side list), Null, Str and missing-key (own bucket) tuples.
        for (secs, values) in [
            (40, vec![Value::Float(f64::NAN)]),
            (41, vec![Value::Null]),
            (42, vec![Value::str("k")]),
            (43, vec![]),
            (44, vec![Value::Float(f64::NAN)]),
            (45, vec![Value::Int(3)]),
        ] {
            s.push(Tuple::new(Timestamp::from_secs(secs), StreamId::A, values));
        }
        assert!(s.index_matches_rebuild());
        for pops in 1..=46 {
            s.pop_front();
            // Every pop removes its entry: the index references exactly the
            // live tuples after each one, and an emptied bucket is gone.
            assert_eq!(hash_references(&mut s), s.len(), "after {pops} pops");
            assert!(s.index_matches_rebuild(), "after {pops} pops");
        }
        let (buckets, nan) = hash_parts(&mut s);
        assert!(buckets.is_empty() && nan.is_empty());
    }

    #[test]
    fn interleaved_keys_chain_in_time_order_under_push_and_purge() {
        // Three keys pushed round-robin with purges in between: every
        // probe walks its key's chain oldest first, through entries of the
        // other keys, and a chain emptied by purges comes back fresh.
        let mut s = JoinState::indexed(0, 0);
        for secs in 0..12u64 {
            s.push(t(secs, (secs % 3) as i64));
        }
        assert_eq!(candidate_secs(&s, &t(99, 0)), vec![0, 3, 6, 9]);
        assert_eq!(candidate_secs(&s, &t(99, 1)), vec![1, 4, 7, 10]);
        assert_eq!(candidate_secs(&s, &t(99, 2)), vec![2, 5, 8, 11]);
        for _ in 0..5 {
            s.pop_front();
        }
        // Purged 0..=4: each chain starts at its oldest survivor.
        assert_eq!(candidate_secs(&s, &t(99, 0)), vec![6, 9]);
        assert_eq!(candidate_secs(&s, &t(99, 1)), vec![7, 10]);
        assert_eq!(candidate_secs(&s, &t(99, 2)), vec![5, 8, 11]);
        s.push(t(12, 1));
        s.push(t(13, 1));
        assert_eq!(candidate_secs(&s, &t(99, 1)), vec![7, 10, 12, 13]);
        // Purge key 0's whole chain (6 and 9) and push it again.
        while s.front().is_some_and(|f| f.ts <= Timestamp::from_secs(9)) {
            s.pop_front();
        }
        assert_eq!(candidate_secs(&s, &t(99, 0)), Vec::<u64>::new());
        s.push(t(14, 0));
        assert_eq!(candidate_secs(&s, &t(99, 0)), vec![14]);
        assert_eq!(candidate_secs(&s, &t(99, 1)), vec![10, 12, 13]);
        assert_eq!(candidate_secs(&s, &t(99, 2)), vec![11]);
        assert_eq!(hash_references(&mut s), s.len());
        assert!(s.index_matches_rebuild());
    }

    #[test]
    fn a_purge_gives_back_a_burst_high_water_buffer() {
        let mut s = JoinState::indexed(0, 0);
        for secs in 0..1_000u64 {
            s.push(t(secs, (secs % 5) as i64));
        }
        let burst = s.capacity_bytes();
        // A purge that leaves 100 of 1 000 tuples shrinks the window's
        // queue to twice what is left.
        let purged = s.purge_expired(|f| f.ts < Timestamp::from_secs(900), |_| {});
        assert_eq!(purged, 901);
        assert_eq!(s.len(), 100);
        assert!(
            s.capacity_bytes() * 4 < burst,
            "{} of {burst} bytes kept",
            s.capacity_bytes()
        );
        assert!(s.index_matches_rebuild());
        assert_eq!(candidate_secs(&s, &t(9_999, 2)).len(), 20);
        // A small window keeps its floor of slots, so emptying and
        // refilling it does not reallocate.
        s.purge_expired(|_| true, |_| {});
        assert!(s.is_empty());
        let floor = s.capacity_bytes();
        assert!(floor >= MIN_KEPT_SLOTS * std::mem::size_of::<Tuple>());
        s.push(t(2_000, 1));
        s.purge_expired(|_| true, |_| {});
        assert_eq!(s.capacity_bytes(), floor);
    }

    #[test]
    fn byte_accounting_follows_pushes_and_purges() {
        let tuple = std::mem::size_of::<Tuple>();
        let value = std::mem::size_of::<Value>();
        let mut s = JoinState::indexed(0, 0);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.capacity_bytes(), 0);
        s.push(t(1, 7));
        s.push(tv(2, Value::str("hello")));
        // Inline slots plus payloads, string bytes included.
        let two = s.live_bytes();
        assert_eq!(two, 2 * tuple + 2 * value + 5);
        assert!(s.capacity_bytes() >= two);
        s.pop_front();
        assert_eq!(s.live_bytes(), tuple + value + 5);
        assert!(s.capacity_bytes() >= s.live_bytes());
        s.pop_front();
        assert_eq!(s.live_bytes(), 0);
        s.push(t(3, 9));
        assert_eq!(s.drain_ordered().len(), 1);
        assert_eq!((s.live_bytes(), s.capacity_bytes()), (0, 0));
    }

    /// `lo ≤ stored.0 ≤ hi` with the bounds in probe fields 0 and 1.
    fn band_state() -> JoinState {
        JoinState::band_indexed(BandProbe {
            stored_field: 0,
            lower: Some((0, true)),
            upper: Some((1, true)),
        })
    }

    fn band_probe_tuple(lo: i64, hi: i64) -> Tuple {
        Tuple::of_ints(Timestamp::from_secs(99), StreamId::B, &[lo, hi])
    }

    #[test]
    fn condition_selects_band_index_when_no_equi() {
        let theta = JoinCondition::Theta {
            left_field: 0,
            op: crate::predicate::CmpOp::Ge,
            right_field: 1,
        };
        let s = JoinState::for_condition(&theta, true);
        assert!(s.is_band_indexed());
        assert!(!s.is_indexed());
        assert_eq!(
            s.band_spec(),
            Some(&BandProbe {
                stored_field: 0,
                lower: Some((1, true)),
                upper: None,
            })
        );
        // An equi component anywhere wins: hash index, no band index.
        let both = JoinCondition::And(Box::new(theta), Box::new(JoinCondition::equi(2)));
        let s = JoinState::for_condition(&both, true);
        assert!(s.is_indexed());
        assert!(!s.is_band_indexed());
        // No usable component at all: linear.
        let s = JoinState::for_condition(&JoinCondition::Cross, true);
        assert!(!s.is_indexed() && !s.is_band_indexed());
    }

    #[test]
    fn band_probe_walks_only_the_value_range() {
        let mut s = band_state();
        for (secs, key) in [(1, 5), (2, 20), (3, 7), (4, 11), (5, 6)] {
            s.push(t(secs, key));
        }
        // Range [5, 7]: keys 5, 6, 7 in value order.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(5, 7)), vec![1, 5, 3]);
        // Half-miss range and full-miss range.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(12, 25)), vec![2]);
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(13, 19)),
            Vec::<u64>::new()
        );
        // Inverted range (lo > hi): no candidates, and no panic.
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(9, 3)),
            Vec::<u64>::new()
        );
        // Duplicate keys stay in insertion order within their run.
        s.push(t(6, 6));
        assert_eq!(candidate_secs(&s, &band_probe_tuple(6, 6)), vec![5, 6]);
    }

    #[test]
    fn band_non_numeric_and_nan_keys_never_produce_false_negatives() {
        let mut s = band_state();
        s.push(tv(1, Value::Int(5)));
        s.push(tv(2, Value::Float(f64::NAN)));
        s.push(tv(3, Value::str("zzz")));
        s.push(tv(4, Value::Null));
        // Numeric probe range: the tree narrows to key 5, but NaN (compares
        // Equal to everything), Str (ranks above numbers, can satisfy ≥) and
        // Null (ranks below, can satisfy ≤) must all stay candidates.
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(5, 5)),
            vec![1, 2, 3, 4]
        );
        // A non-numeric bound value degrades to a full scan.
        let probe = Tuple::new(
            Timestamp::from_secs(9),
            StreamId::B,
            vec![Value::str("a"), Value::str("b")],
        );
        assert_eq!(candidate_secs(&s, &probe), vec![1, 2, 3, 4]);
        // A missing bound attribute yields no candidates at all.
        let probe = Tuple::of_ints(Timestamp::from_secs(9), StreamId::B, &[3]);
        assert_eq!(candidate_secs(&s, &probe), Vec::<u64>::new());
        // A stored tuple *missing* the band field is never a candidate.
        let mut s = JoinState::band_indexed(BandProbe {
            stored_field: 7,
            lower: Some((0, true)),
            upper: Some((1, true)),
        });
        s.push(t(1, 5));
        assert_eq!(
            candidate_secs(&s, &band_probe_tuple(i64::MIN, i64::MAX)),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn band_endpoints_widen_over_int_to_float_rounding() {
        // 2^53 and 2^53 + 1 are distinct i64 keys that collapse to the same
        // f64 bucket.  A probe whose exact range covers only one of them
        // must still see both (widened endpoints; the caller's condition
        // re-eval discards the false positive).
        const BIG: i64 = 1 << 53;
        let mut s = band_state();
        s.push(t(1, BIG));
        s.push(t(2, BIG + 1));
        let candidates = candidate_secs(&s, &band_probe_tuple(BIG + 1, BIG + 1));
        assert!(candidates.contains(&2), "true match lost to rounding");
        assert_eq!(candidates, vec![1, 2], "bucket-mates ride along");
        // -0.0 and +0.0 share one bucket.
        let mut s = band_state();
        s.push(tv(1, Value::Float(-0.0)));
        assert_eq!(candidate_secs(&s, &band_probe_tuple(0, 0)), vec![1]);
    }

    #[test]
    fn band_purge_drops_the_entry_at_once() {
        let mut s = band_state();
        for i in 0..40u64 {
            s.push(t(i, (i % 7) as i64));
        }
        s.push(tv(40, Value::str("side")));
        s.push(tv(41, Value::Int(3)));
        for pops in 1..=36 {
            s.pop_front();
            // Every pop removes its entry: the index references exactly the
            // live tuples after each one, with no compaction to wait for.
            let band = band_part(&mut s);
            let referenced = band.order.len() + band.side.len();
            assert_eq!(referenced, s.len(), "after {pops} pops");
            assert!(s.index_matches_rebuild());
        }
        assert_eq!(s.len(), 6);
        // Purging the side-listed tuple pops the side list's front.
        for _ in 0..5 {
            s.pop_front();
        }
        assert_eq!(s.len(), 1);
        assert!(band_part(&mut s).side.is_empty());
        assert!(s.index_matches_rebuild());
        // A full-range probe still sees exactly the live tuples (candidates
        // come back in value order; compare as multisets).
        let mut want: Vec<u64> = s.iter().map(|c| c.ts.as_micros() / 1_000_000).collect();
        let mut got = candidate_secs(&s, &band_probe_tuple(0, 6));
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn band_drain_and_load_round_trip_rebuilds_the_order_index() {
        let mut s = band_state();
        for (secs, key) in [(1, 9), (2, 3), (3, 9), (4, 5)] {
            s.push(t(secs, key));
        }
        s.pop_front();
        let before = candidate_secs(&s, &band_probe_tuple(3, 9));
        let drained = s.drain_ordered();
        assert_eq!(drained.len(), 3);
        s.load_ordered(drained);
        assert!(s.is_band_indexed());
        // The rebuilt index probes identically to the incremental one.
        assert_eq!(candidate_secs(&s, &band_probe_tuple(3, 9)), before);
        assert_eq!(candidate_secs(&s, &band_probe_tuple(3, 9)), vec![2, 4, 3]);
    }

    #[test]
    fn band_random_probes_match_a_linear_reference() {
        // Differential check: stored.0 ∈ [probe.1, probe.2], with strict
        // variants and occasional NaN/missing values thrown in.
        let cond = JoinCondition::And(
            Box::new(JoinCondition::Theta {
                left_field: 0,
                op: crate::predicate::CmpOp::Ge,
                right_field: 1,
            }),
            Box::new(JoinCondition::Theta {
                left_field: 0,
                op: crate::predicate::CmpOp::Lt,
                right_field: 2,
            }),
        );
        let mut banded = JoinState::for_condition(&cond, true);
        assert!(banded.is_band_indexed());
        let mut linear = JoinState::linear();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..500u64 {
            let key = match next() % 16 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float((next() % 19) as f64 / 2.0),
                _ => Value::Int((next() % 19) as i64),
            };
            let tuple = tv(step, key);
            if next() % 4 == 0 && !banded.is_empty() {
                banded.pop_front();
                linear.pop_front();
            }
            let lo = (next() % 19) as i64;
            let probe = Tuple::of_ints(
                Timestamp::from_secs(step),
                StreamId::B,
                &[0, lo, lo + (next() % 5) as i64],
            );
            let mut got: Vec<&Tuple> = banded
                .probe_candidates(&probe)
                .filter(|s| cond.eval(s, &probe))
                .collect();
            let mut want: Vec<&Tuple> = linear.iter().filter(|s| cond.eval(s, &probe)).collect();
            got.sort_by_key(|t| t.ts);
            want.sort_by_key(|t| t.ts);
            assert_eq!(got, want, "divergence at step {step}");
            banded.push(tuple.clone());
            linear.push(tuple);
        }
    }

    #[test]
    fn random_probes_match_a_linear_reference() {
        // Exhaustive cross-check on a pseudo-random workload: for every probe
        // the indexed candidate set must contain every stored tuple the
        // condition matches (no false negatives).
        let cond = JoinCondition::equi(0);
        let mut indexed = JoinState::for_condition(&cond, true);
        let mut linear = JoinState::linear();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for step in 0..500u64 {
            let key = (next() % 11) as i64;
            let tuple = t(step, key);
            if next() % 4 == 0 && !indexed.is_empty() {
                indexed.pop_front();
                linear.pop_front();
            }
            let probe = t(step, (next() % 11) as i64);
            let mut got: Vec<&Tuple> = indexed
                .probe_candidates(&probe)
                .filter(|s| cond.eval(s, &probe))
                .collect();
            let mut want: Vec<&Tuple> = linear.iter().filter(|s| cond.eval(s, &probe)).collect();
            got.sort_by_key(|t| t.ts);
            want.sort_by_key(|t| t.ts);
            assert_eq!(got, want, "divergence at step {step}");
            indexed.push(tuple.clone());
            linear.push(tuple);
        }
    }

    #[test]
    fn incremental_index_equals_a_rebuild_after_any_sequence() {
        // Random push / purge / drain+reload sequences over hash, band and
        // linear states, with NaN, string, null and missing keys mixed in:
        // after every step the index must equal a from-scratch rebuild.
        let mut seed = 0x0bad_5eed_dead_beefu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for mut s in [JoinState::indexed(0, 0), band_state(), JoinState::linear()] {
            for step in 0..2_000u64 {
                match next() % 10 {
                    0..=4 => {
                        let key = match next() % 12 {
                            0 => Value::Float(f64::NAN),
                            1 => Value::str("s"),
                            2 => Value::Null,
                            _ => Value::Int((next() % 9) as i64),
                        };
                        let values = if next() % 20 == 0 { vec![] } else { vec![key] };
                        s.push(Tuple::new(Timestamp::from_secs(step), StreamId::A, values));
                    }
                    5..=8 => {
                        s.pop_front();
                    }
                    _ => {
                        let tuples = s.drain_ordered();
                        s.load_ordered(tuples);
                    }
                }
                assert!(s.index_matches_rebuild(), "diverged at step {step}");
            }
        }
    }

    #[test]
    fn a_corrupted_index_fails_the_rebuild_check() {
        let mut band = band_state();
        let mut hash = JoinState::indexed(0, 0);
        for i in 0..5u64 {
            band.push(t(i, i as i64));
            hash.push(t(i, i as i64));
        }
        hash.pop_front();
        assert!(band.index_matches_rebuild() && hash.index_matches_rebuild());
        // A lost band entry (a false negative waiting to happen)...
        let order = &mut band_part(&mut band).order;
        let first = *order.first().unwrap();
        order.remove(&first);
        assert!(!band.index_matches_rebuild());
        // ...a lost hash chain...
        let key = canonical_key_hash(&Value::Int(2)).unwrap();
        let lost = hash_parts(&mut hash).0.remove(&key).unwrap();
        assert!(!hash.index_matches_rebuild());
        // ...and, once it is back, a chain that starts at a purged (dead)
        // entry or runs on into another key's entry are all caught.
        hash_parts(&mut hash).0.insert(key, lost);
        assert!(hash.index_matches_rebuild());
        hash_parts(&mut hash).0.get_mut(&key).unwrap().first = 0;
        assert!(!hash.index_matches_rebuild());
        hash_parts(&mut hash)
            .0
            .insert(key, Chain { last: 3, ..lost });
        assert!(!hash.index_matches_rebuild());
    }
}
