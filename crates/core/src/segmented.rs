//! Segmented maps and sets: the CWMR adjusted collections of DEGO.
//!
//! `SegmentedHashMap` is the paper's `ExtendedSegmentedHashMap` (also
//! configurable as Base or Hash segmentation), `SegmentedSkipListMap` its
//! ordered sibling, and `SegmentedSet` the CWMR set used by the social
//! network's interest group. Every segment is an SWMR structure from
//! [`swmr_hash`](crate::swmr_hash) / [`swmr_skiplist`](crate::swmr_skiplist),
//! owned by one thread through a non-clonable writer handle; readers are
//! lock-free.
//!
//! These objects implement the **blind** map/set types (`M2`, `S2`/`S3`):
//! `put`/`remove`/`add` return nothing. That is not an implementation
//! accident — voiding the return value is exactly the adjustment that
//! makes commuting writes conflict-free (Table 1, §4.2) — and the hash
//! map's writes are blind all the way down: the previous value is
//! retired without being read, let alone cloned.

use crate::registry::ThreadRegistry;
use crate::segmentation::SegmentationKind;
use crate::swmr_hash::{swmr_hash_map, SwmrHashReader, SwmrHashWriter};
use crate::swmr_skiplist::{swmr_skip_list_map, SwmrSkipListReader, SwmrSkipListWriter};
use crossbeam_epoch::{self as epoch, Guard};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const NO_HINT: usize = usize::MAX;

fn hash_of<K: Hash>(key: &K) -> u64 {
    dego_metrics::rng::hash_key(key)
}

/// The segment an item's hash routes to under Hash segmentation.
pub fn home_segment<K: Hash>(key: &K, n_segments: usize) -> usize {
    (hash_of(key) as usize) % n_segments
}

struct Hints {
    slots: Box<[AtomicUsize]>,
    mask: usize,
}

impl Hints {
    fn new(capacity: usize) -> Self {
        let n = capacity.clamp(64, 1 << 16).next_power_of_two();
        Hints {
            slots: (0..n).map(|_| AtomicUsize::new(NO_HINT)).collect(),
            mask: n - 1,
        }
    }

    fn publish<K: Hash>(&self, key: &K, segment: usize) {
        self.slots[(hash_of(key) as usize) & self.mask].store(segment, Ordering::Release);
    }

    fn lookup<K: Hash>(&self, key: &K) -> usize {
        self.slots[(hash_of(key) as usize) & self.mask].load(Ordering::Acquire)
    }
}

// ------------------------------------------------------------- hash map

/// A CWMR hash map over SWMR segments (`(M2, CWMR)`;
/// `ExtendedSegmentedHashMap` in the paper's evaluation).
///
/// # Examples
///
/// ```
/// use dego_core::{SegmentedHashMap, SegmentationKind};
///
/// let map = SegmentedHashMap::new(2, 64, SegmentationKind::Extended);
/// let mut w = map.writer();
/// w.put(7u64, "seven");
/// assert_eq!(map.get(&7), Some("seven"));
/// w.remove(&7);
/// assert_eq!(map.get(&7), None);
/// ```
pub struct SegmentedHashMap<K, V> {
    readers: Vec<SwmrHashReader<K, V>>,
    writers: Vec<Mutex<Option<SwmrHashWriter<K, V>>>>,
    registry: ThreadRegistry,
    hints: Hints,
    kind: SegmentationKind,
}

impl<K, V> std::fmt::Debug for SegmentedHashMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedHashMap")
            .field("segments", &self.readers.len())
            .field("kind", &self.kind)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SegmentedHashMap<K, V> {
    /// Create a map with `n_segments` SWMR segments, each presized for
    /// `capacity / n_segments` entries.
    pub fn new(n_segments: usize, capacity: usize, kind: SegmentationKind) -> Arc<Self> {
        assert!(n_segments > 0, "need at least one segment");
        let per = (capacity / n_segments).max(8);
        let mut readers = Vec::with_capacity(n_segments);
        let mut writers = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let (w, r) = swmr_hash_map(per);
            readers.push(r);
            writers.push(Mutex::new(Some(w)));
        }
        Arc::new(SegmentedHashMap {
            readers,
            writers,
            registry: ThreadRegistry::new(n_segments),
            hints: Hints::new(capacity),
            kind,
        })
    }

    /// Claim the calling thread's segment writer (once per slot).
    ///
    /// # Panics
    ///
    /// Panics when the registry is full or the slot's writer was already
    /// claimed by this thread and not dropped.
    pub fn writer(self: &Arc<Self>) -> SegmentedHashMapWriter<K, V> {
        let slot = self.registry.slot();
        let writer = self.writers[slot]
            .lock()
            .expect("writer mutex poisoned")
            .take()
            .expect("segment writer already claimed");
        SegmentedHashMapWriter {
            shared: Arc::clone(self),
            writer: Some(writer),
            slot,
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.readers.len()
    }

    /// The segmentation kind.
    pub fn kind(&self) -> SegmentationKind {
        self.kind
    }

    /// Borrow a key's value where it lies: one segment under Hash,
    /// hint-then-scan under Extended, full scan under Base. `f` runs at
    /// most once, in the first segment found holding the key.
    pub fn read<R>(&self, key: &K, f: impl FnMut(&V) -> R) -> Option<R> {
        self.read_in(&epoch::pin(), key, f)
    }

    /// [`SegmentedHashMap::read`] under a pin the caller holds, so that
    /// a run of reads pins once.
    pub fn read_in<R>(&self, guard: &Guard, key: &K, mut f: impl FnMut(&V) -> R) -> Option<R> {
        let mut in_segment = |segment: &SwmrHashReader<K, V>| segment.read_in(guard, key, &mut f);
        match self.kind {
            SegmentationKind::Hash => {
                in_segment(&self.readers[home_segment(key, self.readers.len())])
            }
            SegmentationKind::Extended => self
                .readers
                .get(self.hints.lookup(key))
                .and_then(&mut in_segment)
                .or_else(|| self.readers.iter().find_map(in_segment)),
            SegmentationKind::Base => self.readers.iter().find_map(in_segment),
        }
    }

    /// Read a key's value.
    pub fn get(&self, key: &K) -> Option<V> {
        self.read(key, V::clone)
    }

    /// Membership test.
    pub fn contains_key(&self, key: &K) -> bool {
        self.read(key, |_| ()).is_some()
    }

    /// Total entries (sums per-segment counts; weakly consistent).
    pub fn len(&self) -> usize {
        self.readers.iter().map(|r| r.len()).sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.readers.iter().all(|r| r.is_empty())
    }

    /// Visit every entry (weakly consistent; segment by segment).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for r in &self.readers {
            r.for_each(&mut f);
        }
    }
}

/// The per-thread write handle of a [`SegmentedHashMap`].
pub struct SegmentedHashMapWriter<K, V> {
    shared: Arc<SegmentedHashMap<K, V>>,
    writer: Option<SwmrHashWriter<K, V>>,
    slot: usize,
}

impl<K, V> std::fmt::Debug for SegmentedHashMapWriter<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedHashMapWriter")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SegmentedHashMapWriter<K, V> {
    /// Blind put (`M2`): inserts into this thread's segment.
    ///
    /// Under Hash segmentation the key must route to this writer's
    /// segment (`debug_assert`ed) — that is the commuting-writes
    /// discipline CWMR stands for.
    pub fn put(&mut self, key: K, value: V) {
        if self.shared.kind == SegmentationKind::Hash {
            debug_assert_eq!(
                home_segment(&key, self.shared.readers.len()),
                self.slot,
                "Hash segmentation requires hash-routed writes"
            );
        }
        if self.shared.kind == SegmentationKind::Extended {
            self.shared.hints.publish(&key, self.slot);
        }
        self.writer
            .as_mut()
            .expect("writer present until drop")
            .put(key, value);
    }

    /// Blind remove (`M2`): removes from this thread's segment.
    pub fn remove(&mut self, key: &K) {
        self.writer
            .as_mut()
            .expect("writer present until drop")
            .delete(key);
    }

    /// This writer's segment index.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Borrow a key's value from **this writer's segment** — under
    /// Hash segmentation, the one segment the key can be in. The owner
    /// reading its own rows needs no pin and no clone: nobody else
    /// unlinks them.
    pub fn peek<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        self.writer
            .as_ref()
            .expect("writer present until drop")
            .peek(key, f)
    }

    /// Read through the shared map (any segment).
    pub fn get(&self, key: &K) -> Option<V> {
        self.shared.get(key)
    }

    /// The shared map.
    pub fn shared(&self) -> &Arc<SegmentedHashMap<K, V>> {
        &self.shared
    }
}

impl<K, V> Drop for SegmentedHashMapWriter<K, V> {
    fn drop(&mut self) {
        // Return the writer so the slot can be re-claimed (e.g. by a new
        // worker thread taking over the partition).
        if let Some(w) = self.writer.take() {
            if let Ok(mut slot) = self.shared.writers[self.slot].lock() {
                *slot = Some(w);
            }
        }
    }
}

// ---------------------------------------------------------- skip list map

/// A CWMR ordered map over SWMR skip-list segments
/// (`ExtendedSegmentedSkipListMap`).
///
/// # Examples
///
/// ```
/// use dego_core::{SegmentedSkipListMap, SegmentationKind};
///
/// let map = SegmentedSkipListMap::new(2, SegmentationKind::Extended);
/// let mut w = map.writer();
/// w.put(3u64, "three");
/// w.put(1u64, "one");
/// assert_eq!(map.first_key(), Some(1));
/// ```
pub struct SegmentedSkipListMap<K, V> {
    readers: Vec<SwmrSkipListReader<K, V>>,
    writers: Vec<Mutex<Option<SwmrSkipListWriter<K, V>>>>,
    registry: ThreadRegistry,
    hints: Hints,
    kind: SegmentationKind,
}

impl<K, V> std::fmt::Debug for SegmentedSkipListMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedSkipListMap")
            .field("segments", &self.readers.len())
            .field("kind", &self.kind)
            .finish()
    }
}

impl<K: Ord + Hash + Clone, V: Clone> SegmentedSkipListMap<K, V> {
    /// Create a map with `n_segments` SWMR skip-list segments.
    pub fn new(n_segments: usize, kind: SegmentationKind) -> Arc<Self> {
        assert!(n_segments > 0, "need at least one segment");
        let mut readers = Vec::with_capacity(n_segments);
        let mut writers = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let (w, r) = swmr_skip_list_map();
            readers.push(r);
            writers.push(Mutex::new(Some(w)));
        }
        Arc::new(SegmentedSkipListMap {
            readers,
            writers,
            registry: ThreadRegistry::new(n_segments),
            hints: Hints::new(1 << 12),
            kind,
        })
    }

    /// Claim the calling thread's segment writer.
    ///
    /// # Panics
    ///
    /// As for [`SegmentedHashMap::writer`].
    pub fn writer(self: &Arc<Self>) -> SegmentedSkipListMapWriter<K, V> {
        let slot = self.registry.slot();
        let writer = self.writers[slot]
            .lock()
            .expect("writer mutex poisoned")
            .take()
            .expect("segment writer already claimed");
        SegmentedSkipListMapWriter {
            shared: Arc::clone(self),
            writer: Some(writer),
            slot,
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.readers.len()
    }

    /// Read a key.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.kind {
            SegmentationKind::Hash => self.readers[home_segment(key, self.readers.len())].get(key),
            SegmentationKind::Extended => {
                let hint = self.hints.lookup(key);
                if hint < self.readers.len() {
                    if let Some(v) = self.readers[hint].get(key) {
                        return Some(v);
                    }
                }
                self.readers.iter().find_map(|r| r.get(key))
            }
            SegmentationKind::Base => self.readers.iter().find_map(|r| r.get(key)),
        }
    }

    /// Membership test.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest key across all segments.
    pub fn first_key(&self) -> Option<K> {
        self.readers.iter().filter_map(|r| r.first_key()).min()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.readers.iter().map(|r| r.len()).sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.readers.iter().all(|r| r.is_empty())
    }

    /// Visit entries segment by segment (ordered **within** a segment,
    /// not globally — snapshot-style iteration is out of scope, §6.2).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for r in &self.readers {
            r.for_each(&mut f);
        }
    }
}

/// The per-thread write handle of a [`SegmentedSkipListMap`].
pub struct SegmentedSkipListMapWriter<K, V> {
    shared: Arc<SegmentedSkipListMap<K, V>>,
    writer: Option<SwmrSkipListWriter<K, V>>,
    slot: usize,
}

impl<K, V> std::fmt::Debug for SegmentedSkipListMapWriter<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedSkipListMapWriter")
            .field("slot", &self.slot)
            .finish()
    }
}

impl<K: Ord + Hash + Clone, V: Clone> SegmentedSkipListMapWriter<K, V> {
    /// Blind put into this thread's segment.
    pub fn put(&mut self, key: K, value: V) {
        if self.shared.kind == SegmentationKind::Hash {
            debug_assert_eq!(
                home_segment(&key, self.shared.readers.len()),
                self.slot,
                "Hash segmentation requires hash-routed writes"
            );
        }
        if self.shared.kind == SegmentationKind::Extended {
            self.shared.hints.publish(&key, self.slot);
        }
        self.writer
            .as_mut()
            .expect("writer present until drop")
            .insert(key, value);
    }

    /// Blind remove from this thread's segment.
    pub fn remove(&mut self, key: &K) {
        self.writer
            .as_mut()
            .expect("writer present until drop")
            .remove(key);
    }

    /// This writer's segment index.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Read through the shared map.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shared.get(key)
    }

    /// The shared map.
    pub fn shared(&self) -> &Arc<SegmentedSkipListMap<K, V>> {
        &self.shared
    }
}

impl<K, V> Drop for SegmentedSkipListMapWriter<K, V> {
    fn drop(&mut self) {
        if let Some(w) = self.writer.take() {
            if let Ok(mut slot) = self.shared.writers[self.slot].lock() {
                *slot = Some(w);
            }
        }
    }
}

// ----------------------------------------------------------------- set

/// A CWMR set over SWMR segments (`(S3, CWMR)`), used for the interest
/// group in the Retwis application (§6.3).
///
/// # Examples
///
/// ```
/// use dego_core::{SegmentedSet, SegmentationKind};
///
/// let set = SegmentedSet::new(2, 32, SegmentationKind::Extended);
/// let mut w = set.writer();
/// w.add(9u64);
/// assert!(set.contains(&9));
/// w.remove(&9);
/// assert!(!set.contains(&9));
/// ```
#[derive(Debug)]
pub struct SegmentedSet<T> {
    map: Arc<SegmentedHashMap<T, ()>>,
}

impl<T: Hash + Eq + Clone> SegmentedSet<T> {
    /// Create a set with `n_segments` segments.
    pub fn new(n_segments: usize, capacity: usize, kind: SegmentationKind) -> Arc<Self> {
        Arc::new(SegmentedSet {
            map: SegmentedHashMap::new(n_segments, capacity, kind),
        })
    }

    /// Claim the calling thread's segment writer.
    pub fn writer(self: &Arc<Self>) -> SegmentedSetWriter<T> {
        SegmentedSetWriter {
            writer: self.map.writer(),
        }
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.map.contains_key(item)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Visit every element.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        self.map.for_each(|k, _| f(k));
    }
}

/// The per-thread write handle of a [`SegmentedSet`].
#[derive(Debug)]
pub struct SegmentedSetWriter<T> {
    writer: SegmentedHashMapWriter<T, ()>,
}

impl<T: Hash + Eq + Clone> SegmentedSetWriter<T> {
    /// Blind add (`S2`/`S3` adjustment: no return value).
    pub fn add(&mut self, item: T) {
        self.writer.put(item, ());
    }

    /// Blind remove.
    pub fn remove(&mut self, item: &T) {
        self.writer.remove(item);
    }

    /// Membership test through the shared set.
    pub fn contains(&self, item: &T) -> bool {
        self.writer.get(item).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_map_roundtrip() {
        let m = SegmentedHashMap::new(2, 64, SegmentationKind::Extended);
        let mut w = m.writer();
        for i in 0..100u64 {
            w.put(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            assert_eq!(m.get(&i), Some(i * 2));
        }
        for i in 0..50u64 {
            w.remove(&i);
        }
        assert_eq!(m.len(), 50);
        assert!(!m.contains_key(&10));
        assert!(m.contains_key(&60));
    }

    #[test]
    fn base_kind_scans_all_segments() {
        let m = SegmentedHashMap::new(4, 64, SegmentationKind::Base);
        let mut w = m.writer();
        w.put(1u64, 1u64);
        assert_eq!(m.get(&1), Some(1));
        assert_eq!(m.get(&2), None);
    }

    #[test]
    fn hash_kind_routes_lookups() {
        let m = SegmentedHashMap::new(1, 64, SegmentationKind::Hash);
        let mut w = m.writer();
        // With one segment every key routes to slot 0.
        for i in 0..20u64 {
            w.put(i, i);
        }
        for i in 0..20u64 {
            assert_eq!(m.get(&i), Some(i));
        }
    }

    /// The router consumes the hash's low bits (`hash % n_segments`),
    /// so a segment must bin on other bits: with two segments a
    /// low-bit bin index would leave every bin of the wrong parity
    /// empty.
    #[test]
    fn hash_segments_fill_bins_of_both_parities() {
        fn check<K: Hash + Eq + Clone + Send + Sync>(key: impl Fn(u64) -> K + Sync) {
            let m: Arc<SegmentedHashMap<K, u64>> =
                SegmentedHashMap::new(2, 1 << 12, SegmentationKind::Hash);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut w = m.writer();
                        let slot = w.slot();
                        for n in (0..2_000).filter(|n| home_segment(&key(*n), 2) == slot) {
                            w.put(key(n), n);
                        }
                    });
                }
            });
            assert_eq!(m.len(), 2_000);
            for (segment, reader) in m.readers.iter().enumerate() {
                let bins = reader.occupied_bins();
                for parity in 0..2 {
                    let filled = bins.iter().filter(|b| *b % 2 == parity).count();
                    assert!(
                        filled > bins.len() / 4,
                        "segment {segment}: {filled} of {} occupied bins have parity {parity}",
                        bins.len()
                    );
                }
            }
        }
        check(|n| n);
        check(|n| format!("key:{n}"));
    }

    #[test]
    fn peek_reads_the_writers_own_segment() {
        let m = SegmentedHashMap::new(1, 64, SegmentationKind::Hash);
        let mut w = m.writer();
        assert!(w.peek(&1u64, |v| v.is_none()));
        w.put(1, String::from("one"));
        assert_eq!(w.peek(&1, |v| v.map(String::len)), Some(3));
        assert_eq!(m.read(&1, |v| v.len()), Some(3));
        assert_eq!(m.read(&2, |v| v.len()), None);
    }

    #[test]
    fn writer_slot_returns_on_drop() {
        let m: Arc<SegmentedHashMap<u64, u64>> =
            SegmentedHashMap::new(2, 64, SegmentationKind::Extended);
        {
            let _w = m.writer();
        }
        let _w2 = m.writer(); // re-claimable after drop
    }

    #[test]
    fn concurrent_commuting_writers_and_readers() {
        let m = SegmentedHashMap::new(4, 1024, SegmentationKind::Extended);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut w = m.writer();
                    // Commuting updates: disjoint key ranges per thread.
                    for i in 0..5_000u64 {
                        let k = t * 100_000 + (i % 500);
                        if i % 7 == 0 {
                            w.remove(&k);
                        } else {
                            w.put(k, i);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let _ = m.get(&(i % 2_000));
                    }
                });
            }
        });
        // Every surviving key must be readable through the shared view.
        let mut count = 0;
        m.for_each(|_, _| count += 1);
        assert_eq!(count, m.len());
    }

    #[test]
    fn skip_list_map_ordered_per_segment() {
        let m = SegmentedSkipListMap::new(2, SegmentationKind::Extended);
        let mut w = m.writer();
        for k in [5u64, 1, 9, 3] {
            w.put(k, k);
        }
        assert_eq!(m.first_key(), Some(1));
        assert_eq!(m.get(&9), Some(9));
        w.remove(&1);
        assert_eq!(m.first_key(), Some(3));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn segmented_set_semantics() {
        let s = SegmentedSet::new(2, 32, SegmentationKind::Extended);
        let mut w = s.writer();
        assert!(s.is_empty());
        w.add(1u64);
        w.add(1u64); // idempotent
        w.add(2u64);
        assert_eq!(s.len(), 2);
        assert!(w.contains(&1));
        w.remove(&1);
        assert!(!s.contains(&1));
        let mut seen = Vec::new();
        s.for_each(|x| seen.push(*x));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn extended_hint_fallback_finds_items_after_collisions() {
        // Two writers inserting keys that collide in the hint table must
        // still be found through the fallback scan.
        let m = SegmentedHashMap::new(2, 64, SegmentationKind::Extended);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let m = Arc::clone(&m);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut w = m.writer();
                    barrier.wait();
                    for i in 0..2_000u64 {
                        w.put(t * 1_000_000 + i, t);
                    }
                });
            }
        });
        for t in 0..2u64 {
            for i in (0..2_000u64).step_by(97) {
                assert_eq!(m.get(&(t * 1_000_000 + i)), Some(t));
            }
        }
        assert_eq!(m.len(), 4_000);
    }
}
