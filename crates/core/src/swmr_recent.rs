//! `swmr_recent`: a single-writer multi-reader log of the most recent
//! entries — the adjusted object behind a timeline.
//!
//! A timeline is appended to by one thread (its shard's owner), read by
//! any, and only its newest entries are ever asked for. A general map
//! value serves that by copy-and-replace: clone the row, push, publish
//! the copy, retire the original. Narrowed to what its callers do, the
//! row is a fixed ring of atomic slots and a published count:
//!
//! * [`RecentWriter::push`] is two stores — the slot, then the count,
//!   both Release. Wait-free, no allocation, nothing to retire.
//! * [`RecentReader::newest`] copies a window of slots and then
//!   re-reads the count: the copy stands unless the writer came all the
//!   way round the ring into the window meanwhile, in which case the
//!   reader copies again. No RMW, no lock; a ring larger than the
//!   window by `k` slots absorbs `k` pushes per read without a retry.
//!
//! The entries are `u64`s because the slots must be atomics: a reader
//! does overlap the writer, and what makes that a retry rather than a
//! data race is that both sides go through `AtomicU64`.
//!
//! The single-writer permission is a type, as in
//! [`swmr_hash`](crate::swmr_hash): [`RecentWriter`] is unique and
//! `push` takes `&mut self`; [`RecentReader`] is `Clone`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// One allocation: cell 0 is the count of entries pushed since
/// creation, the other `capacity` cells are the ring. Entry `i` lives
/// in slot `i & (capacity - 1)` until entry `i + capacity` replaces it.
#[derive(Clone)]
struct Ring(Arc<[AtomicU64]>);

impl Ring {
    fn count(&self) -> &AtomicU64 {
        &self.0[0]
    }

    /// A power of two.
    fn capacity(&self) -> u64 {
        self.0.len() as u64 - 1
    }

    fn slot(&self, entry: u64) -> &AtomicU64 {
        &self.0[1 + (entry & (self.capacity() - 1)) as usize]
    }
}

/// Create a log that keeps its most recent entries in a ring of
/// `capacity` slots (rounded up to a power of two, at least 2).
///
/// # Examples
///
/// ```
/// use dego_core::swmr_recent::swmr_recent;
///
/// let (mut writer, reader) = swmr_recent(8);
/// for id in 1..=10 {
///     writer.push(id);
/// }
/// let mut window = Vec::new();
/// reader.newest(3, &mut window);
/// assert_eq!(window, [10, 9, 8]);
/// ```
pub fn swmr_recent(capacity: usize) -> (RecentWriter, RecentReader) {
    let capacity = capacity.max(2).next_power_of_two();
    let ring = Ring((0..=capacity).map(|_| AtomicU64::new(0)).collect());
    (
        RecentWriter {
            ring: ring.clone(),
            pushed: 0,
        },
        RecentReader { ring },
    )
}

/// The unique append handle of a [`swmr_recent`] log.
pub struct RecentWriter {
    ring: Ring,
    /// The writer's own copy of the count.
    pushed: u64,
}

impl std::fmt::Debug for RecentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecentWriter")
            .field("pushed", &self.pushed)
            .finish()
    }
}

impl RecentWriter {
    /// Append an entry, overwriting the oldest once the ring is full.
    pub fn push(&mut self, entry: u64) {
        // Release on the slot orders the previous count store before
        // it: a reader whose copy observed this entry is thereby
        // certain to re-read a count that admits the overwrite (the
        // Acquire fence in `newest` is the other half).
        self.ring.slot(self.pushed).store(entry, Ordering::Release);
        self.pushed += 1;
        // Publishes the slot to readers that Acquire-load the count.
        self.ring.count().store(self.pushed, Ordering::Release);
    }
}

/// A lock-free read handle of a [`swmr_recent`] log; clone freely.
#[derive(Clone)]
pub struct RecentReader {
    ring: Ring,
}

impl std::fmt::Debug for RecentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecentReader")
            .field("pushed", &self.pushed())
            .finish()
    }
}

impl RecentReader {
    /// Entries pushed since creation (at least those whose `push`
    /// returned before this call).
    pub fn pushed(&self) -> u64 {
        self.ring.count().load(Ordering::Acquire)
    }

    /// Replace `out` with the newest `n` entries, newest first: a
    /// contiguous run of the log ending at an entry that was the newest
    /// at some moment during the call. Fewer than `n` only when fewer
    /// were ever pushed.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not below the ring's capacity: the writer is
    /// always entitled to one slot, so a full-ring window could never
    /// be validated.
    pub fn newest(&self, n: usize, out: &mut Vec<u64>) {
        let ring = &self.ring;
        let capacity = ring.capacity();
        assert!((n as u64) < capacity, "window must be below capacity");
        loop {
            out.clear();
            let end = ring.count().load(Ordering::Acquire);
            let start = end.saturating_sub(n as u64);
            out.reserve((end - start) as usize);
            for i in (start..end).rev() {
                out.push(ring.slot(i).load(Ordering::Relaxed));
            }
            // The slot loads stay above this fence, and any of them
            // that read a later `push` makes that push's preceding
            // count store visible to the load below.
            fence(Ordering::Acquire);
            // The writer may be storing entry `now` already (slot
            // first, count after), into the slot of entry
            // `now - capacity`: the copy is intact iff that is older
            // than the window.
            let now = ring.count().load(Ordering::Relaxed);
            if now - start < capacity {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(r: &RecentReader, n: usize) -> Vec<u64> {
        let mut out = vec![99; 3];
        r.newest(n, &mut out);
        out
    }

    #[test]
    fn newest_first_and_bounded() {
        let (mut w, r) = swmr_recent(8);
        assert_eq!(window(&r, 5), []);
        w.push(1);
        w.push(2);
        assert_eq!(window(&r, 5), [2, 1]);
        assert_eq!(window(&r, 1), [2]);
        assert_eq!(window(&r, 0), []);
        for id in 3..=100 {
            w.push(id);
        }
        assert_eq!(window(&r, 7), [100, 99, 98, 97, 96, 95, 94]);
        assert_eq!(r.pushed(), 100);
        assert_eq!(window(&r.clone(), 2), [100, 99]);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (mut w, r) = swmr_recent(5);
        for id in 0..20 {
            w.push(id);
        }
        assert_eq!(window(&r, 7), [19, 18, 17, 16, 15, 14, 13]);
    }

    #[test]
    #[should_panic(expected = "window must be below capacity")]
    fn a_full_ring_window_is_refused() {
        let (_w, r) = swmr_recent(8);
        r.newest(8, &mut Vec::new());
    }

    /// One pusher of strictly increasing ids, several readers: every
    /// window must be consecutive, newest first, and no older than the
    /// count the reader saw before asking — across thousands of wraps
    /// of a ring small enough that the writer laps readers constantly.
    #[test]
    fn concurrent_windows_are_consecutive_and_fresh() {
        const CAPACITY: usize = 16;
        const WINDOW: usize = 12;
        const PUSHES: u64 = 400_000;
        let (mut w, r) = swmr_recent(CAPACITY);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let r = r.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_newest = 0;
                    loop {
                        let before = r.pushed();
                        r.newest(WINDOW, &mut out);
                        assert!(out.len() as u64 >= before.min(WINDOW as u64));
                        if let Some(&newest) = out.first() {
                            // Entry i carries id i + 1.
                            assert!(newest >= before, "window older than a prior count");
                            assert!(newest >= last_newest, "a later read went backwards");
                            last_newest = newest;
                            for (k, id) in out.iter().enumerate() {
                                assert_eq!(*id, newest - k as u64, "torn window {out:?}");
                            }
                            assert!(out.len() == WINDOW || out.last() == Some(&1));
                        }
                        if before == PUSHES {
                            return;
                        }
                    }
                });
            }
            s.spawn(move || {
                for id in 1..=PUSHES {
                    w.push(id);
                }
            });
        });
        assert_eq!(window(&r, 3), [PUSHES, PUSHES - 1, PUSHES - 2]);
    }
}
