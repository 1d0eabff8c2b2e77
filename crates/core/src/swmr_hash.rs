//! `SwmrHashMap`: a single-writer multi-reader hash table (§5.3).
//!
//! The map is built the way DEGO builds its segments: start from a
//! sequential chained hash table, then make it safe for concurrent
//! readers with publication stores:
//!
//! * updating an existing key swaps the value pointer with a
//!   `SeqCst`-class store (`setVolatile` in the paper);
//! * a new node is linked at the head of its bin with a Release store;
//! * `resize` never re-orders nodes in place ("nodes cannot be re-ordered
//!   on the fly due to potential readers"): it builds a fresh de-duplicated
//!   table and swaps the table pointer.
//!
//! The single-writer permission is a type: [`SwmrHashWriter`] is unique
//! and its mutators take `&mut self`; [`SwmrHashReader`] is `Clone` and
//! lock-free. On the table itself a reader executes Acquire loads only,
//! no RMW — but every read is bracketed by an epoch pin, and the
//! workspace's offline `crossbeam-epoch` stand-in counts live guards in
//! one process-wide word: two SeqCst RMWs per read on a cache line all
//! readers share (and, when garbage is waiting, a mutex for whoever
//! drops the last guard). The registry crate pins per thread; ROADMAP
//! item 10 is where that word is adjusted.
//!
//! The writer does not pin to touch its own table. It is the only
//! thread that unlinks or retires anything, so whatever it can still
//! reach is live; a guard is taken only to hand a full [`RetireBin`]
//! (or a replaced table) to the epoch. And its writes are blind where
//! the caller is: [`SwmrHashWriter::put`] / [`SwmrHashWriter::delete`]
//! swap and retire without looking at what was there, while
//! [`SwmrHashWriter::insert`] / [`SwmrHashWriter::remove`] clone the
//! previous value out of the same swap for callers that want it.

use crate::reclaim::RetireBin;
use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn hash_of<K: Hash>(key: &K) -> u64 {
    dego_metrics::rng::hash_key(key)
}

struct Entry<K, V> {
    key: K,
    value: Atomic<V>,
    next: Atomic<Entry<K, V>>,
}

impl<K, V> Drop for Entry<K, V> {
    fn drop(&mut self) {
        let value = std::mem::replace(&mut self.value, Atomic::null());
        // SAFETY: the entry is being reclaimed; its value goes with it.
        unsafe {
            let _ = value.try_into_owned();
        }
    }
}

struct Table<K, V> {
    mask: usize,
    bins: Box<[Atomic<Entry<K, V>>]>,
}

impl<K: Hash, V> Table<K, V> {
    fn new(bins: usize) -> Self {
        Table {
            mask: bins - 1,
            bins: (0..bins).map(|_| Atomic::null()).collect(),
        }
    }

    /// The bin `key` chains into: the *high* half of its hash. A
    /// segmented map routes on `hash % n_segments`, so within one
    /// segment the low bits are no longer free — with two segments
    /// every key of a segment has the same parity, and a low-bit index
    /// would leave half the bins empty and every chain twice as long.
    fn bin(&self, key: &K) -> &Atomic<Entry<K, V>> {
        &self.bins[((hash_of(key) >> 32) as usize) & self.mask]
    }
}

struct Core<K, V> {
    table: Atomic<Table<K, V>>,
    len: AtomicUsize,
}

impl<K, V> Drop for Core<K, V> {
    fn drop(&mut self) {
        // SAFETY: last owner; free every entry then the table itself.
        unsafe {
            let guard = epoch::unprotected();
            let table = self.table.load(Ordering::Relaxed, guard);
            if table.is_null() {
                return;
            }
            for bin in table.deref().bins.iter() {
                let mut cur = bin.load(Ordering::Relaxed, guard);
                while !cur.is_null() {
                    let next = cur.deref().next.load(Ordering::Relaxed, guard);
                    drop(cur.into_owned());
                    cur = next;
                }
            }
            drop(table.into_owned());
        }
    }
}

/// Create a single-writer multi-reader hash map presized for about
/// `capacity` entries.
///
/// # Examples
///
/// ```
/// use dego_core::swmr_hash::swmr_hash_map;
///
/// let (mut writer, reader) = swmr_hash_map(16);
/// writer.insert(1, "one");
/// assert_eq!(reader.get(&1), Some("one"));
/// assert_eq!(writer.remove(&1), Some("one"));
/// assert_eq!(reader.get(&1), None);
/// ```
pub fn swmr_hash_map<K: Hash + Eq + Clone, V: Clone>(
    capacity: usize,
) -> (SwmrHashWriter<K, V>, SwmrHashReader<K, V>) {
    let bins = capacity.max(8).next_power_of_two();
    let core = Arc::new(Core {
        table: Atomic::new(Table::new(bins)),
        len: AtomicUsize::new(0),
    });
    (
        SwmrHashWriter {
            core: Arc::clone(&core),
            retired_values: RetireBin::new(RETIRE_BATCH),
            retired_entries: RetireBin::new(RETIRE_BATCH),
        },
        SwmrHashReader { core },
    )
}

/// Retired pointers per deferred batch. Batching keeps the epoch's
/// global garbage queue off the write path (one deferral per
/// `RETIRE_BATCH` retirements instead of one per update).
const RETIRE_BATCH: usize = 256;

/// The unique write handle of a [`swmr_hash_map`].
pub struct SwmrHashWriter<K, V> {
    core: Arc<Core<K, V>>,
    retired_values: RetireBin<V>,
    retired_entries: RetireBin<Entry<K, V>>,
}

impl<K, V> std::fmt::Debug for SwmrHashWriter<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwmrHashWriter")
            .field("len", &self.core.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SwmrHashWriter<K, V> {
    /// The guard the writer reads its own table under: none.
    ///
    /// Tables, entries and values are unlinked and retired by this
    /// handle alone, inside `&mut self` methods, so a pointer the
    /// writer loads stays live for as long as the borrow of `self` it
    /// was loaded under. Never defer through this guard (the real
    /// crate would run the destructor on the spot): retirement goes
    /// through the [`RetireBin`]s and [`SwmrHashWriter::resize`], which
    /// pin for real.
    fn own() -> &'static Guard {
        // SAFETY: nothing is deferred through it; see above for why the
        // loads it covers need no protection.
        unsafe { epoch::unprotected() }
    }

    fn table(&self) -> &Table<K, V> {
        // SAFETY: the writer is the only one who replaces the table, so
        // its load is always the current one.
        unsafe { self.core.table.load(Ordering::Acquire, Self::own()).deref() }
    }

    /// `key`'s entry in the chain hanging off `bin`, if linked there.
    fn find<'a>(&'a self, bin: &'a Atomic<Entry<K, V>>, key: &K) -> Option<&'a Entry<K, V>> {
        let guard = Self::own();
        let mut cur = bin.load(Ordering::Acquire, guard);
        // SAFETY: entries are unlinked only by this writer.
        while let Some(entry) = unsafe { cur.as_ref() } {
            if entry.key == *key {
                return Some(entry);
            }
            cur = entry.next.load(Ordering::Acquire, guard);
        }
        None
    }

    /// Borrow a key's value as the writer sees it — no pin, no clone.
    pub fn peek<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let entry = self.find(self.table().bin(key), key);
        // SAFETY: values are swapped out only by this writer, and `f`
        // runs inside the borrow of `self`.
        f(entry
            .and_then(|entry| unsafe { entry.value.load(Ordering::Acquire, Self::own()).as_ref() }))
    }

    /// Insert or update, showing `prev` the value that was there.
    fn upsert<R>(&mut self, key: K, value: V, prev: impl FnOnce(Option<&V>) -> R) -> R {
        let table = self.table();
        let bin = table.bin(&key);
        if let Some(entry) = self.find(bin, &key) {
            // Paper: existing key updated with setVolatile.
            let old = entry
                .value
                .swap(Owned::new(value), Ordering::SeqCst, Self::own());
            // SAFETY: `old` was published; readers may still hold it,
            // and it is freed only through the bin below.
            let out = prev(unsafe { old.as_ref() });
            // SAFETY: unlinked by the swap above, retired once.
            unsafe { self.retired_values.retire(old.as_raw() as *mut V) };
            return out;
        }
        let out = prev(None);
        // New node, linked atomically at the bin head (Release publish).
        let entry = Owned::new(Entry {
            key,
            value: Atomic::new(value),
            next: Atomic::null(),
        });
        entry
            .next
            .store(bin.load(Ordering::Acquire, Self::own()), Ordering::Relaxed);
        bin.store(entry, Ordering::Release);
        let len = self.core.len.load(Ordering::Relaxed) + 1;
        self.core.len.store(len, Ordering::Release);
        if len > table.bins.len() {
            self.resize();
        }
        out
    }

    /// Insert or update; returns the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.upsert(key, value, |prev| prev.cloned())
    }

    /// Blind insert or update (`M2`): the previous value is retired
    /// unread.
    pub fn put(&mut self, key: K, value: V) {
        self.upsert(key, value, |_| ());
    }

    /// Unlink a key, showing `prev` the value that was there.
    fn unlink<R>(&mut self, key: &K, prev: impl FnOnce(Option<&V>) -> R) -> R {
        let guard = Self::own();
        let bin = self.table().bin(key);
        let mut pred: Option<&Entry<K, V>> = None;
        let mut cur = bin.load(Ordering::Acquire, guard);
        // SAFETY: entries are unlinked only by this writer.
        while let Some(entry) = unsafe { cur.as_ref() } {
            let next = entry.next.load(Ordering::Acquire, guard);
            if entry.key == *key {
                // Unlink with a single Release store (readers either see
                // the node or its successor — never a torn chain).
                match pred {
                    Some(p) => p.next.store(next, Ordering::Release),
                    None => bin.store(next, Ordering::Release),
                }
                // SAFETY: shown before the entry (and value) is retired.
                let out = prev(unsafe { entry.value.load(Ordering::Acquire, guard).as_ref() });
                // SAFETY: unlinked above; Entry::drop frees its value.
                unsafe {
                    self.retired_entries
                        .retire(cur.as_raw() as *mut Entry<K, V>);
                }
                self.core
                    .len
                    .store(self.core.len.load(Ordering::Relaxed) - 1, Ordering::Release);
                return out;
            }
            pred = Some(entry);
            cur = next;
        }
        prev(None)
    }

    /// Remove a key; returns the previous value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.unlink(key, |prev| prev.cloned())
    }

    /// Blind remove (`M2`): the previous value is retired unread.
    pub fn delete(&mut self, key: &K) {
        self.unlink(key, |_| ());
    }

    /// Grow the table: copy entries (de-duplicated by construction) into
    /// a table twice the size and swap the pointer.
    fn resize(&mut self) {
        // Pinned for real: the old table is deferred through this guard.
        let guard = &epoch::pin();
        let old_ptr = self.core.table.load(Ordering::Acquire, guard);
        // SAFETY: writer-exclusive table replacement.
        let old = unsafe { old_ptr.deref() };
        let new = Table::new(old.bins.len() * 2);
        for bin in old.bins.iter() {
            let mut cur = bin.load(Ordering::Acquire, guard);
            while let Some(entry) = unsafe { cur.as_ref() } {
                let v = entry.value.load(Ordering::Acquire, guard);
                // SAFETY: value pointers are live while linked.
                let value = unsafe { v.deref() }.clone();
                let new_bin = new.bin(&entry.key);
                let head = new_bin.load(Ordering::Relaxed, guard);
                let fresh = Owned::new(Entry {
                    key: entry.key.clone(),
                    value: Atomic::new(value),
                    next: Atomic::null(),
                });
                fresh.next.store(head, Ordering::Relaxed);
                // Not yet published: plain store is fine.
                new_bin.store(fresh, Ordering::Relaxed);
                cur = entry.next.load(Ordering::Acquire, guard);
            }
        }
        // Publish the new table, then retire the old one and its entries.
        self.core.table.store(Owned::new(new), Ordering::Release);
        for bin in old.bins.iter() {
            let mut cur = bin.load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                // SAFETY: old entries are unreachable through the new
                // table; readers still traversing are pinned.
                let next = unsafe { cur.deref() }.next.load(Ordering::Relaxed, guard);
                unsafe {
                    self.retired_entries
                        .retire(cur.as_raw() as *mut Entry<K, V>);
                }
                cur = next;
            }
        }
        // SAFETY: the old table itself is unreachable now.
        unsafe { guard.defer_destroy(old_ptr) };
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.core.len.load(Ordering::Acquire)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new reader handle.
    pub fn reader(&self) -> SwmrHashReader<K, V> {
        SwmrHashReader {
            core: Arc::clone(&self.core),
        }
    }
}

/// A lock-free read handle of a [`swmr_hash_map`]; clone freely.
pub struct SwmrHashReader<K, V> {
    core: Arc<Core<K, V>>,
}

impl<K, V> Clone for SwmrHashReader<K, V> {
    fn clone(&self) -> Self {
        SwmrHashReader {
            core: Arc::clone(&self.core),
        }
    }
}

impl<K, V> std::fmt::Debug for SwmrHashReader<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwmrHashReader")
            .field("len", &self.core.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SwmrHashReader<K, V> {
    /// Borrow a key's value under the pin: Acquire loads only on the
    /// table, and no clone unless `f` makes one.
    pub fn read<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.read_in(&epoch::pin(), key, f)
    }

    /// [`SwmrHashReader::read`] under a pin the caller holds, so that a
    /// run of reads pins once.
    pub fn read_in<R>(&self, guard: &Guard, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let table_ptr = self.core.table.load(Ordering::Acquire, guard);
        // SAFETY: tables/entries are epoch-reclaimed.
        let table = unsafe { table_ptr.deref() };
        let mut cur = table.bin(key).load(Ordering::Acquire, guard);
        while let Some(entry) = unsafe { cur.as_ref() } {
            if entry.key == *key {
                let v = entry.value.load(Ordering::Acquire, guard);
                return unsafe { v.as_ref() }.map(f);
            }
            cur = entry.next.load(Ordering::Acquire, guard);
        }
        None
    }

    /// Read a key's value.
    pub fn get(&self, key: &K) -> Option<V> {
        self.read(key, V::clone)
    }

    /// Membership test.
    pub fn contains_key(&self, key: &K) -> bool {
        self.read(key, |_| ()).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.core.len.load(Ordering::Acquire)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every entry (weakly consistent, like JUC iterators).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let guard = epoch::pin();
        let table_ptr = self.core.table.load(Ordering::Acquire, &guard);
        // SAFETY: see `get`.
        let table = unsafe { table_ptr.deref() };
        for bin in table.bins.iter() {
            let mut cur = bin.load(Ordering::Acquire, &guard);
            while let Some(entry) = unsafe { cur.as_ref() } {
                let v = entry.value.load(Ordering::Acquire, &guard);
                if let Some(v) = unsafe { v.as_ref() } {
                    f(&entry.key, v);
                }
                cur = entry.next.load(Ordering::Acquire, &guard);
            }
        }
    }
}

#[cfg(test)]
impl<K: Hash + Eq + Clone, V: Clone> SwmrHashReader<K, V> {
    /// Which bins hold at least one entry, by index.
    pub(crate) fn occupied_bins(&self) -> Vec<usize> {
        let guard = epoch::pin();
        // SAFETY: see `read`.
        let table = unsafe { self.core.table.load(Ordering::Acquire, &guard).deref() };
        let occupied = |(i, bin): (usize, &Atomic<Entry<K, V>>)| {
            (!bin.load(Ordering::Acquire, &guard).is_null()).then_some(i)
        };
        table.bins.iter().enumerate().filter_map(occupied).collect()
    }
}

// Readers/writer move across threads; entries hold K/V.
// SAFETY: all shared mutation goes through atomics + epochs.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SwmrHashWriter<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SwmrHashReader<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SwmrHashReader<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let (mut w, r) = swmr_hash_map(8);
        assert_eq!(w.insert(1, 10), None);
        assert_eq!(w.insert(2, 20), None);
        assert_eq!(w.insert(1, 11), Some(10));
        assert_eq!(r.get(&1), Some(11));
        assert_eq!(r.get(&3), None);
        assert!(r.contains_key(&2));
        assert_eq!(w.remove(&2), Some(20));
        assert_eq!(w.remove(&2), None);
        assert_eq!(w.len(), 1);
        assert!(!r.is_empty());
    }

    /// A value that cannot be cloned at all: the blind entry points
    /// must get through an overwrite and a delete without trying.
    #[derive(Debug, PartialEq)]
    struct Unclonable(u64);

    impl Clone for Unclonable {
        fn clone(&self) -> Self {
            panic!("a blind write looked at the previous value");
        }
    }

    #[test]
    fn blind_put_and_delete_never_clone_the_previous_value() {
        let (mut w, r) = swmr_hash_map(8);
        w.put(1, Unclonable(10));
        w.put(1, Unclonable(11));
        assert_eq!(r.read(&1, |v| v.0), Some(11));
        assert_eq!(w.len(), 1);
        w.delete(&1);
        w.delete(&1);
        assert!(!r.contains_key(&1));
        assert!(w.is_empty());
    }

    #[test]
    fn peek_is_the_writers_own_view() {
        let (mut w, _r) = swmr_hash_map(8);
        assert_eq!(w.peek(&7, |v| v.copied()), None);
        w.put(7, 70u64);
        assert_eq!(w.peek(&7, |v| v.copied()), Some(70));
        // Enough overwrites to hand several bins to the epoch: what the
        // writer can reach is never among what it retired.
        for round in 0..2_000u64 {
            w.put(7, round);
            assert_eq!(w.peek(&7, |v| v.copied()), Some(round));
        }
        w.delete(&7);
        assert_eq!(w.peek(&7, |v| v.copied()), None);
    }

    #[test]
    fn resize_preserves_contents() {
        let (mut w, r) = swmr_hash_map(8);
        for i in 0..10_000u64 {
            w.insert(i, i * 3);
        }
        assert_eq!(w.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(r.get(&i), Some(i * 3), "key {i} lost in resize");
        }
    }

    #[test]
    fn removal_in_long_chains() {
        let (mut w, r) = swmr_hash_map(8);
        // Small table forces chains.
        for i in 0..64u64 {
            w.insert(i, i);
        }
        for i in (0..64).step_by(2) {
            assert_eq!(w.remove(&i), Some(i));
        }
        for i in 0..64u64 {
            assert_eq!(r.get(&i).is_some(), i % 2 == 1);
        }
    }

    #[test]
    fn for_each_visits_all() {
        let (mut w, r) = swmr_hash_map(16);
        for i in 0..100u64 {
            w.insert(i, 1u64);
        }
        let mut total = 0;
        r.for_each(|_, v| total += *v);
        assert_eq!(total, 100);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let (mut w, r) = swmr_hash_map(64);
        for i in 0..1_000u64 {
            w.insert(i, 0u64);
        }
        std::thread::scope(|s| {
            s.spawn(move || {
                for round in 1..=20u64 {
                    for i in 0..1_000 {
                        w.insert(i, round);
                    }
                }
            });
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let i = 997;
                        if let Some(v) = r.get(&i) {
                            assert!(v <= 20);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_readers_during_resizes() {
        let (mut w, r) = swmr_hash_map(8);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..50_000u64 {
                    w.insert(i, i);
                }
            });
            for _ in 0..3 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..50_000u64 {
                        if let Some(v) = r.get(&(i % 1000)) {
                            assert_eq!(v, i % 1000);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn reader_handles_share_state() {
        let (mut w, r1) = swmr_hash_map(8);
        let r2 = r1.clone();
        let r3 = w.reader();
        w.insert(5, 50);
        assert_eq!(r1.get(&5), Some(50));
        assert_eq!(r2.get(&5), Some(50));
        assert_eq!(r3.get(&5), Some(50));
    }

    #[test]
    fn drop_reclaims_everything() {
        let (mut w, _r) = swmr_hash_map(8);
        for i in 0..1_000 {
            w.insert(i, vec![i as u8; 16]);
        }
        // Both handles drop here; Core::drop walks and frees.
    }
}
