//! `SwmrSkipListMap`: a single-writer multi-reader skip list (§5.3).
//!
//! The writer mutates the list sequentially; readers traverse lock-free.
//! Following the paper: a new node's `next` pointers are prepared first,
//! then the node is spliced in with Release stores level by level, the
//! **base level last with a `SeqCst` store** ("the last level uses
//! `setVolatile` to ensure that the insertion is globally visible") — a
//! read linearizes on the base-level link. Removal unlinks the index
//! levels first and the base level last, then retires the node through
//! the epoch.

use crate::reclaim::RetireBin;
use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use dego_metrics::rng::XorShift64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAX_HEIGHT: usize = 16;

struct SNode<K, V> {
    /// `None` only for the head sentinel.
    key: Option<K>,
    value: Atomic<V>,
    height: usize,
    next: [Atomic<SNode<K, V>>; MAX_HEIGHT],
}

impl<K, V> SNode<K, V> {
    fn new(key: Option<K>, value: Option<V>, height: usize) -> Self {
        SNode {
            key,
            value: value.map(Atomic::new).unwrap_or_else(Atomic::null),
            height,
            next: std::array::from_fn(|_| Atomic::null()),
        }
    }
}

impl<K, V> Drop for SNode<K, V> {
    fn drop(&mut self) {
        let value = std::mem::replace(&mut self.value, Atomic::null());
        // SAFETY: node reclamation owns the value.
        unsafe {
            let _ = value.try_into_owned();
        }
    }
}

struct Core<K, V> {
    head: Atomic<SNode<K, V>>,
    len: AtomicUsize,
}

impl<K, V> Drop for Core<K, V> {
    fn drop(&mut self) {
        // SAFETY: last owner; free the level-0 chain including the head.
        unsafe {
            let guard = epoch::unprotected();
            let mut cur = self.head.load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                let next = cur.deref().next[0].load(Ordering::Relaxed, guard);
                drop(cur.into_owned());
                cur = next;
            }
        }
    }
}

/// Create a single-writer multi-reader ordered map.
///
/// # Examples
///
/// ```
/// use dego_core::swmr_skiplist::swmr_skip_list_map;
///
/// let (mut writer, reader) = swmr_skip_list_map::<u64, &str>();
/// writer.insert(2, "two");
/// writer.insert(1, "one");
/// assert_eq!(reader.first_key(), Some(1));
/// assert_eq!(reader.get(&2), Some("two"));
/// ```
pub fn swmr_skip_list_map<K: Ord + Clone, V: Clone>(
) -> (SwmrSkipListWriter<K, V>, SwmrSkipListReader<K, V>) {
    let core = Arc::new(Core {
        head: Atomic::new(SNode::new(None, None, MAX_HEIGHT)),
        len: AtomicUsize::new(0),
    });
    (
        SwmrSkipListWriter {
            core: Arc::clone(&core),
            rng: XorShift64::new(0x5EED_1E57 ^ &core as *const _ as u64),
            retired_values: RetireBin::new(RETIRE_BATCH),
            retired_nodes: RetireBin::new(RETIRE_BATCH),
        },
        SwmrSkipListReader { core },
    )
}

/// The unique write handle of a [`swmr_skip_list_map`].
pub struct SwmrSkipListWriter<K, V> {
    core: Arc<Core<K, V>>,
    rng: XorShift64,
    retired_values: RetireBin<V>,
    retired_nodes: RetireBin<SNode<K, V>>,
}

/// Retired pointers per deferred batch (see `reclaim::RetireBin`).
const RETIRE_BATCH: usize = 256;

impl<K, V> std::fmt::Debug for SwmrSkipListWriter<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwmrSkipListWriter")
            .field("len", &self.core.len.load(Ordering::Relaxed))
            .finish()
    }
}

/// Per-level predecessor and successor arrays of a search.
type FindResult<'g, K, V> = (
    [Shared<'g, SNode<K, V>>; MAX_HEIGHT],
    [Shared<'g, SNode<K, V>>; MAX_HEIGHT],
);

fn find<'g, K: Ord, V>(core: &Core<K, V>, key: &K, guard: &'g Guard) -> FindResult<'g, K, V> {
    let head = core.head.load(Ordering::Acquire, guard);
    let mut preds = [head; MAX_HEIGHT];
    let mut succs = [Shared::null(); MAX_HEIGHT];
    let mut pred = head;
    for level in (0..MAX_HEIGHT).rev() {
        // SAFETY: nodes are epoch-reclaimed; traversal is pinned.
        let mut curr = unsafe { pred.deref() }.next[level].load(Ordering::Acquire, guard);
        while let Some(c) = unsafe { curr.as_ref() } {
            if c.key.as_ref().expect("non-head") < key {
                pred = curr;
                curr = c.next[level].load(Ordering::Acquire, guard);
            } else {
                break;
            }
        }
        preds[level] = pred;
        succs[level] = curr;
    }
    (preds, succs)
}

impl<K: Ord + Clone, V: Clone> SwmrSkipListWriter<K, V> {
    /// Insert or update; returns the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let guard = epoch::pin();
        let (preds, succs) = find(&self.core, &key, &guard);
        // SAFETY: pinned traversal.
        if let Some(node) = unsafe { succs[0].as_ref() } {
            if node.key.as_ref() == Some(&key) {
                // Existing key: swap the value (setVolatile).
                let old = node.value.swap(Owned::new(value), Ordering::SeqCst, &guard);
                // SAFETY: published value; clone then retire (batched).
                let prev = unsafe { old.as_ref() }.cloned();
                unsafe {
                    self.retired_values.retire(old.as_raw() as *mut V);
                }
                return prev;
            }
        }
        let height = self.rng.tower_height(MAX_HEIGHT);
        let node = SNode::new(Some(key), Some(value), height);
        for (level, n) in node.next.iter().enumerate().take(height) {
            n.store(succs[level], Ordering::Relaxed);
        }
        let node = Owned::new(node).into_shared(&guard);
        // Link top-down, base level last (globally visible = linearized).
        for level in (1..height).rev() {
            // SAFETY: preds computed by the only writer; still valid.
            unsafe { preds[level].deref() }.next[level].store(node, Ordering::Release);
        }
        unsafe { preds[0].deref() }.next[0].store(node, Ordering::SeqCst);
        self.core
            .len
            .store(self.core.len.load(Ordering::Relaxed) + 1, Ordering::Release);
        None
    }

    /// Remove a key; returns the previous value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        let (preds, succs) = find(&self.core, key, &guard);
        // SAFETY: pinned traversal.
        let node = unsafe { succs[0].as_ref() }?;
        if node.key.as_ref() != Some(key) {
            return None;
        }
        let victim = succs[0];
        // Unlink index levels first, the base level last.
        for level in (0..node.height).rev() {
            let succ = node.next[level].load(Ordering::Acquire, &guard);
            // The victim may not be linked at `level` as the pred's next
            // if find stopped early; with a single writer, preds[level]
            // always points at the victim where it is linked.
            let pred = unsafe { preds[level].deref() };
            if pred.next[level].load(Ordering::Acquire, &guard) == victim {
                pred.next[level].store(succ, Ordering::Release);
            }
        }
        let v = node.value.load(Ordering::Acquire, &guard);
        // SAFETY: clone before retiring the node (batched; SNode::drop
        // frees its value).
        let out = unsafe { v.as_ref() }.cloned();
        unsafe {
            self.retired_nodes
                .retire(victim.as_raw() as *mut SNode<K, V>);
        }
        self.core
            .len
            .store(self.core.len.load(Ordering::Relaxed) - 1, Ordering::Release);
        out
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
    pub fn reader(&self) -> SwmrSkipListReader<K, V> {
        SwmrSkipListReader {
            core: Arc::clone(&self.core),
        }
    }
}

/// A lock-free read handle of a [`swmr_skip_list_map`]; clone freely.
pub struct SwmrSkipListReader<K, V> {
    core: Arc<Core<K, V>>,
}

impl<K, V> Clone for SwmrSkipListReader<K, V> {
    fn clone(&self) -> Self {
        SwmrSkipListReader {
            core: Arc::clone(&self.core),
        }
    }
}

impl<K, V> std::fmt::Debug for SwmrSkipListReader<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwmrSkipListReader")
            .field("len", &self.core.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Ord + Clone, V: Clone> SwmrSkipListReader<K, V> {
    /// Read a key's value.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        let (_, succs) = find(&self.core, key, &guard);
        // SAFETY: pinned traversal.
        let node = unsafe { succs[0].as_ref() }?;
        if node.key.as_ref() != Some(key) {
            return None;
        }
        let v = node.value.load(Ordering::Acquire, &guard);
        unsafe { v.as_ref() }.cloned()
    }

    /// Membership test.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest key.
    pub fn first_key(&self) -> Option<K> {
        let guard = epoch::pin();
        let head = self.core.head.load(Ordering::Acquire, &guard);
        // SAFETY: pinned traversal.
        let first = unsafe { head.deref() }.next[0].load(Ordering::Acquire, &guard);
        unsafe { first.as_ref() }.and_then(|n| n.key.clone())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.core.len.load(Ordering::Acquire)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit entries in key order (weakly consistent).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let guard = epoch::pin();
        let head = self.core.head.load(Ordering::Acquire, &guard);
        // SAFETY: pinned traversal.
        let mut cur = unsafe { head.deref() }.next[0].load(Ordering::Acquire, &guard);
        while let Some(node) = unsafe { cur.as_ref() } {
            let v = node.value.load(Ordering::Acquire, &guard);
            if let Some(v) = unsafe { v.as_ref() } {
                f(node.key.as_ref().expect("non-head"), v);
            }
            cur = node.next[0].load(Ordering::Acquire, &guard);
        }
    }
}

// SAFETY: all shared mutation goes through atomics + epochs; the writer
// is unique by construction.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SwmrSkipListWriter<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SwmrSkipListReader<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SwmrSkipListReader<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_semantics() {
        let (mut w, r) = swmr_skip_list_map();
        assert!(r.is_empty());
        assert_eq!(w.insert(5, 50), None);
        assert_eq!(w.insert(1, 10), None);
        assert_eq!(w.insert(3, 30), None);
        assert_eq!(w.insert(3, 31), Some(30));
        assert_eq!(r.get(&3), Some(31));
        assert_eq!(r.get(&4), None);
        assert_eq!(r.first_key(), Some(1));
        assert_eq!(w.remove(&1), Some(10));
        assert_eq!(w.remove(&1), None);
        assert_eq!(r.first_key(), Some(3));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn iteration_in_key_order() {
        let (mut w, r) = swmr_skip_list_map();
        for k in [9u64, 2, 7, 4, 1, 8] {
            w.insert(k, k * 10);
        }
        let mut keys = Vec::new();
        r.for_each(|k, v| {
            assert_eq!(*v, k * 10);
            keys.push(*k);
        });
        assert_eq!(keys, vec![1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn large_sequential_workload_with_removals() {
        let (mut w, r) = swmr_skip_list_map();
        for k in 0..5_000u64 {
            w.insert(k, k);
        }
        for k in (0..5_000).step_by(3) {
            assert_eq!(w.remove(&k), Some(k));
        }
        for k in 0..5_000u64 {
            assert_eq!(r.get(&k).is_some(), k % 3 != 0, "key {k}");
        }
    }

    #[test]
    fn concurrent_readers_during_writer_churn() {
        let (mut w, r) = swmr_skip_list_map();
        for k in 0..500u64 {
            w.insert(k, 0u64);
        }
        std::thread::scope(|s| {
            s.spawn(move || {
                for round in 1..=30u64 {
                    for k in 0..500 {
                        if (k + round) % 5 == 0 {
                            w.remove(&k);
                        } else {
                            w.insert(k, round);
                        }
                    }
                }
            });
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..30_000u64 {
                        let k = i % 500;
                        if let Some(v) = r.get(&k) {
                            assert!(v <= 30);
                        }
                        if i % 1_000 == 0 {
                            // Order invariant under churn.
                            let mut last = None;
                            r.for_each(|k, _| {
                                if let Some(p) = last {
                                    assert!(*k > p);
                                }
                                last = Some(*k);
                            });
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn drop_reclaims_everything() {
        let (mut w, _r) = swmr_skip_list_map();
        for k in 0..1_000u64 {
            w.insert(k, vec![k as u8; 8]);
        }
    }
}
