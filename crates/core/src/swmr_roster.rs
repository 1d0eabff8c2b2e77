//! `swmr_roster`: a single-writer multi-reader insertion-ordered set of
//! `u64` ids — the adjusted object behind a follower row.
//!
//! A follower row is added to and removed from by one thread at a time,
//! read by any, and asked only for its size, for one id, and for its
//! first few ids in insertion order. A general map value
//! serves that by copy-and-replace: clone the row, edit, publish the
//! copy, retire the original — O(row) time and a row of garbage per
//! edge. Narrowed to what its callers do, the row is one allocation of
//! atomic cells that the writer edits in place:
//!
//! * [`RosterWriter::insert`] stores the id in the next free slot, sets
//!   its alive bit, then publishes the used count, Release.
//!   No allocation while the row has room, nothing to retire.
//! * [`RosterWriter::remove`] bumps the removal sequence, then clears
//!   the id's alive bit: a seqlock's write side, but for the second
//!   bump, which a single bit store does not need.
//! * A row that is full on insert, or less than a quarter live after a
//!   removal, moves: its live ids are copied in order into a fresh
//!   allocation of twice their number, which the writer publishes
//!   (below). Each move of `n` ids follows about `n / 2` edits or more
//!   since the last: amortised O(1).
//! * [`RosterReader::len`], [`RosterReader::contains`] and
//!   [`RosterReader::first`] scan the alive bits below the used count
//!   and re-scan if a removal raced them, so each answers for one
//!   instant: a removal cannot show a reader an id it has already
//!   passed together with one it has not reached, nor a size that
//!   counts an id a scan found gone. A reader never waits for the
//!   writer: one whose scan saw at most the clear of the last bump it
//!   read stands, whether that clear had landed or not.
//!
//! Duplicates are refused with no index: the writer scans its own ids
//! in chunks the compiler vectorises, and checks an alive bit only on a
//! match.
//!
//! **Publication.** Writer and readers share one epoch-protected
//! pointer to the row's current allocation. A move fills the fresh
//! allocation with Relaxed stores, publishes it by storing the pointer
//! with Release, against the readers' Acquire load, and retires the old
//! allocation through the epoch. A reader loads the pointer under a pin
//! its caller holds — one pin for a run of reads, as
//! [`SegmentedHashMap::read_in`](crate::SegmentedHashMap::read_in)
//! takes — so the allocation it reads outlives the read. The old
//! allocation is frozen at the state the move replaced, which is what a
//! reader that loaded it before the move is entitled to.
//!
//! The single-writer permission is a type, as in
//! [`swmr_recent`](mod@crate::swmr_recent): [`RosterWriter`] is unique and
//! its edits take `&mut self`; [`RosterReader`] is `Clone`. Behind a
//! `Mutex` the handle passes between threads, one edit at a time, and
//! whichever thread holds it makes every edit, a move included: the
//! server's event loops and shard writers all `lock` it.

use crossbeam_epoch::{self as epoch, Guard, Owned};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Header cells: slots appended since the allocation, removals since
/// the allocation, the capacity. The alive bits (one word per 64 slots)
/// and then the ids follow.
const USED: usize = 0;
const SEQ: usize = 1;
const CAPACITY: usize = 2;
const HEADER: usize = 3;

/// Slots the writer compares per step of its duplicate scan.
const CHUNK: usize = 8;

/// A view of one allocation. Slot `i`'s id is written once, before its
/// alive bit is set; the bit is cleared at most once after.
#[derive(Clone, Copy)]
struct Row<'a>(&'a [AtomicU64]);

impl<'a> Row<'a> {
    /// A fresh allocation of `capacity` slots, none used.
    fn alloc(capacity: usize) -> Box<[AtomicU64]> {
        let cells: Box<[AtomicU64]> = (0..Row::cells(capacity))
            .map(|_| AtomicU64::new(0))
            .collect();
        cells[CAPACITY].store(capacity as u64, Ordering::Relaxed);
        cells
    }

    /// The allocation whose first cell `first` points to.
    ///
    /// # Safety
    ///
    /// `first` is the pointer of a [`Row::alloc`] allocation that lives
    /// for `'a`, its capacity cell published to this thread.
    unsafe fn from_raw(first: NonNull<AtomicU64>) -> Row<'a> {
        // SAFETY: the capacity cell lies inside the allocation, which
        // lives for `'a` (the caller's guarantee).
        let capacity = unsafe { first.add(CAPACITY).as_ref() }.load(Ordering::Relaxed) as usize;
        // SAFETY: `alloc` made exactly this many cells from `first` on.
        Row(unsafe { std::slice::from_raw_parts(first.as_ptr(), Row::cells(capacity)) })
    }

    /// Cells in an allocation of `capacity` slots.
    fn cells(capacity: usize) -> usize {
        HEADER + capacity.div_ceil(64) + capacity
    }

    fn capacity(&self) -> usize {
        self.0[CAPACITY].load(Ordering::Relaxed) as usize
    }

    fn bits(&self) -> &'a [AtomicU64] {
        &self.0[HEADER..HEADER + self.capacity().div_ceil(64)]
    }

    fn ids(&self) -> &'a [AtomicU64] {
        &self.0[HEADER + self.capacity().div_ceil(64)..]
    }

    fn alive(&self, slot: usize) -> bool {
        self.bits()[slot / 64].load(Ordering::Relaxed) >> (slot % 64) & 1 == 1
    }

    /// The alive bits below `used`, a word at a time, each with the slot
    /// of its lowest bit.
    fn alive_words(&self, used: usize) -> impl Iterator<Item = (usize, u64)> + 'a {
        let words = self.bits()[..used.div_ceil(64)].iter();
        words.enumerate().map(move |(w, word)| {
            let below = used - 64 * w;
            let mask = if below < 64 { (1 << below) - 1 } else { !0 };
            (64 * w, word.load(Ordering::Relaxed) & mask)
        })
    }

    /// The alive slots below `used`, in order.
    fn alive_slots(&self, used: usize) -> impl Iterator<Item = usize> + 'a {
        self.alive_words(used).flat_map(|(base, mut bits)| {
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(base + bit)
            })
        })
    }

    /// Run `read` over the slots used at one instant until no removal
    /// raced it, and return what the clean run returned.
    fn validated<R>(&self, mut read: impl FnMut(usize) -> R) -> R {
        let seq = &self.0[SEQ];
        loop {
            // Acquire against the bump: every earlier removal's clear
            // is visible to the scan.
            let before = seq.load(Ordering::Acquire);
            // Publishes every id and bit below it (Release in `append`).
            let used = self.0[USED].load(Ordering::Acquire) as usize;
            let out = read(used);
            // The bit loads stay above this fence, and one that saw a
            // clear makes that removal's bump visible below.
            fence(Ordering::Acquire);
            if seq.load(Ordering::Relaxed) == before {
                return out;
            }
        }
    }
}

/// What a writer and its readers share: the row's current allocation,
/// null until the row first holds an id.
struct Current(AtomicPtr<AtomicU64>);

impl Current {
    /// The current allocation.
    ///
    /// # Safety
    ///
    /// It must outlive `'a`: the caller is the writer, which alone
    /// retires an allocation, or holds a pin for `'a`.
    unsafe fn row<'a>(&'a self) -> Option<Row<'a>> {
        // Acquire: the cells a move stored before publishing it.
        let first = NonNull::new(self.0.load(Ordering::Acquire))?;
        // SAFETY: the caller's guarantee.
        Some(unsafe { Row::from_raw(first) })
    }
}

impl Drop for Current {
    fn drop(&mut self) {
        // The last handle is gone, so nothing reads the row.
        if let Some(first) = NonNull::new(*self.0.get_mut()) {
            drop(Retired(first));
        }
    }
}

/// A [`Row::alloc`] allocation that no reader can reach any more, freed
/// when dropped: one a move replaced, once the epoch drops it, or the
/// last one, once its last handle is gone. Each is made once.
struct Retired(NonNull<AtomicU64>);

impl Drop for Retired {
    fn drop(&mut self) {
        // SAFETY: an allocation nobody reads (see the type).
        let len = unsafe { Row::from_raw(self.0) }.0.len();
        let cells = std::ptr::slice_from_raw_parts_mut(self.0.as_ptr(), len);
        // SAFETY: `alloc`'s box of `len` cells, given up by `Box::into_raw`
        // and owned again only here.
        drop(unsafe { Box::from_raw(cells) });
    }
}

/// The unique edit handle of a follower-style row: an insertion-ordered
/// set of ids with no duplicates.
///
/// # Examples
///
/// ```
/// use dego_core::reclaim;
/// use dego_core::swmr_roster::RosterWriter;
///
/// let mut row = RosterWriter::new(4);
/// let reader = row.reader();
/// for id in [7, 3, 9, 3] {
///     row.insert(id);
/// }
/// row.remove(7);
/// let pin = reclaim::pin();
/// let mut first = [0; 4];
/// let n = reader.first(&pin, None, &mut first);
/// assert_eq!(&first[..n], [3, 9]);
/// assert_eq!(reader.len(&pin), 2);
/// ```
pub struct RosterWriter {
    current: Arc<Current>,
    /// The smallest allocation the row moves to.
    min_capacity: usize,
    /// The writer's own copies of the row's used and sequence cells,
    /// and its count of ids alive.
    used: usize,
    live: usize,
    seq: u64,
}

impl std::fmt::Debug for RosterWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RosterWriter")
            .field("used", &self.used)
            .field("live", &self.live)
            .finish()
    }
}

impl RosterWriter {
    /// An empty row, which allocates nothing until its first insert;
    /// then at least `min_capacity` slots (at least 2).
    pub fn new(min_capacity: usize) -> RosterWriter {
        RosterWriter {
            current: Arc::new(Current(AtomicPtr::new(std::ptr::null_mut()))),
            min_capacity: min_capacity.max(2),
            used: 0,
            live: 0,
            seq: 0,
        }
    }

    /// A read handle of the row, whichever allocation it moves to.
    pub fn reader(&self) -> RosterReader {
        RosterReader {
            current: Arc::clone(&self.current),
        }
    }

    /// Slots in the row's current allocation: none before the first
    /// insert.
    pub fn capacity(&self) -> usize {
        self.row().map_or(0, |row| row.capacity())
    }

    /// The row's current allocation.
    fn row(&self) -> Option<Row<'_>> {
        // SAFETY: only this handle retires an allocation, and only under
        // `&mut self`.
        unsafe { self.current.row() }
    }

    /// Add `id` at the end of the row unless it is in it already;
    /// returns whether it was added. A row without room moves first.
    pub fn insert(&mut self, id: u64) -> bool {
        if self.find(id).is_some() {
            return false;
        }
        if self.used == self.capacity() {
            self.move_to((2 * self.live).max(self.min_capacity));
        }
        self.append(id);
        true
    }

    /// Take `id` out of the row; returns whether it was in it. A row
    /// left less than a quarter live moves.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.find(id) else {
            return false;
        };
        self.seq += 1;
        self.live -= 1;
        let row = self.row().expect("a found id has a row");
        // Release: a reader that sees this bump sees the clears before.
        row.0[SEQ].store(self.seq, Ordering::Release);
        // Release: a reader that sees this clear sees the bump too.
        let word = &row.bits()[slot / 64];
        let cleared = word.load(Ordering::Relaxed) & !(1 << (slot % 64));
        word.store(cleared, Ordering::Release);
        let capacity = row.capacity();
        if 4 * self.live < capacity && capacity > self.min_capacity {
            self.move_to((2 * self.live).max(self.min_capacity));
        }
        true
    }

    /// The writer's plain view of the ids of the used slots.
    fn own_ids(&self) -> &[u64] {
        let Some(row) = self.row() else {
            return &[];
        };
        let ids = &row.ids()[..self.used];
        // SAFETY: `AtomicU64` has the size and bit validity of `u64` and
        // at least its alignment. This handle is the cells' only storer
        // (it is unique, and readers only load), and it stores nothing
        // while the borrow of `self` lasts: the plain loads race only
        // with readers' atomic loads, and two loads are no data race.
        unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u64>(), ids.len()) }
    }

    /// The slot holding `id` alive, if any. A removed and re-added id
    /// has dead copies in earlier slots, so a match counts only alive.
    fn find(&self, id: u64) -> Option<usize> {
        let row = self.row()?;
        let alive_match = |base: usize, chunk: &[u64]| {
            (base..)
                .zip(chunk)
                .filter(|(_, x)| **x == id)
                .map(|(slot, _)| slot)
                .find(|&slot| row.alive(slot))
        };
        let mut chunks = self.own_ids().chunks_exact(CHUNK);
        let mut base = 0;
        for chunk in chunks.by_ref() {
            // No early exit inside a chunk, so the compare vectorises.
            if chunk.iter().fold(false, |hit, x| hit | (*x == id)) {
                if let Some(slot) = alive_match(base, chunk) {
                    return Some(slot);
                }
            }
            base += CHUNK;
        }
        alive_match(base, chunks.remainder())
    }

    /// Store `id` in the next slot, which must exist.
    fn append(&mut self, id: u64) {
        let slot = self.used;
        self.used += 1;
        self.live += 1;
        let row = self.row().expect("room was made");
        row.ids()[slot].store(id, Ordering::Relaxed);
        let word = &row.bits()[slot / 64];
        let set = word.load(Ordering::Relaxed) | 1 << (slot % 64);
        word.store(set, Ordering::Relaxed);
        // Publishes the id and its bit to readers that Acquire-load it.
        row.0[USED].store(self.used as u64, Ordering::Release);
    }

    /// Copy the live ids, in order, into a fresh allocation of
    /// `capacity` slots, publish it, and retire the old one.
    fn move_to(&mut self, capacity: usize) {
        let fresh = Row::alloc(capacity);
        let mut moved = 0;
        if let Some(old) = self.row() {
            let new = Row(&fresh);
            for slot in old.alive_slots(self.used) {
                let id = old.ids()[slot].load(Ordering::Relaxed);
                new.ids()[moved].store(id, Ordering::Relaxed);
                moved += 1;
            }
            for (w, word) in new.bits().iter().enumerate().take(moved.div_ceil(64)) {
                let below = moved - 64 * w;
                let alive = if below < 64 { (1 << below) - 1 } else { !0 };
                word.store(alive, Ordering::Relaxed);
            }
            new.0[USED].store(moved as u64, Ordering::Relaxed);
        }
        let first = Box::into_raw(fresh).cast::<AtomicU64>();
        // Release: publishes the fresh cells to readers' Acquire load.
        let old = self.current.0.swap(first, Ordering::Release);
        if let Some(old) = NonNull::new(old) {
            let pin = epoch::pin();
            let retired = Owned::new(Retired(old)).into_shared(&pin);
            // SAFETY: unlinked by the swap, so only a reader pinned
            // before it can hold it; retired this once.
            unsafe { pin.defer_destroy(retired) };
        }
        (self.used, self.live, self.seq) = (moved, moved, 0);
    }
}

/// A lock-free read handle of a [`RosterWriter`]'s row, whichever
/// allocation the row has moved to; clone freely. Each read loads the
/// current allocation under a pin the caller holds.
#[derive(Clone)]
pub struct RosterReader {
    current: Arc<Current>,
}

impl std::fmt::Debug for RosterReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RosterReader")
            .field("len", &self.len(&epoch::pin()))
            .finish()
    }
}

impl RosterReader {
    /// The current allocation, for as long as `pin` lasts.
    fn row<'g>(&'g self, _pin: &'g Guard) -> Option<Row<'g>> {
        // SAFETY: a move retires the allocation it replaces through the
        // epoch, so one loaded under `pin` outlives it.
        unsafe { self.current.row() }
    }

    /// Ids in the row: a count of the alive bits.
    pub fn len(&self, pin: &Guard) -> usize {
        self.row(pin).map_or(0, |row| {
            row.validated(|used| {
                let alive = row.alive_words(used).map(|(_, bits)| bits.count_ones());
                alive.sum::<u32>() as usize
            })
        })
    }

    /// Whether the row holds no id.
    pub fn is_empty(&self, pin: &Guard) -> bool {
        self.len(pin) == 0
    }

    /// Whether `id` is in the row.
    pub fn contains(&self, pin: &Guard, id: u64) -> bool {
        self.row(pin).is_some_and(|row| {
            let ids = row.ids();
            row.validated(|used| {
                row.alive_slots(used)
                    .any(|slot| ids[slot].load(Ordering::Relaxed) == id)
            })
        })
    }

    /// Fill `out` with the row's first `out.len()` ids other than
    /// `skip`, in insertion order, as they stood at one instant during
    /// the call; returns how many there were.
    pub fn first(&self, pin: &Guard, skip: Option<u64>, out: &mut [u64]) -> usize {
        let Some(row) = self.row(pin) else {
            return 0;
        };
        let ids = row.ids();
        row.validated(|used| {
            let mut n = 0;
            for slot in row.alive_slots(used) {
                if n == out.len() {
                    break;
                }
                let id = ids[slot].load(Ordering::Relaxed);
                if Some(id) != skip {
                    out[n] = id;
                    n += 1;
                }
            }
            n
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// A writer and a reader of its row, each read under a pin of its
    /// own.
    struct Pair {
        writer: RosterWriter,
        reader: RosterReader,
    }

    impl Pair {
        fn new(min_capacity: usize) -> Self {
            let writer = RosterWriter::new(min_capacity);
            let reader = writer.reader();
            Pair { writer, reader }
        }

        fn first(&self, k: usize, skip: Option<u64>) -> Vec<u64> {
            let mut out = vec![0; k];
            let n = self.reader.first(&epoch::pin(), skip, &mut out);
            out.truncate(n);
            out
        }

        fn len(&self) -> usize {
            self.reader.len(&epoch::pin())
        }

        fn contains(&self, id: u64) -> bool {
            self.reader.contains(&epoch::pin(), id)
        }

        fn capacity(&self) -> usize {
            self.writer.capacity()
        }
    }

    /// Fail on a prefix that is not a run of consecutive ids.
    fn assert_consecutive(prefix: &[u64]) {
        for pair in prefix.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "torn prefix {prefix:?}");
        }
    }

    #[test]
    fn an_empty_row_allocates_nothing() {
        let mut row = Pair::new(4);
        assert!(row.writer.row().is_none());
        assert_eq!((row.len(), row.first(4, None)), (0, vec![]));
        assert!(!row.contains(0) && !row.writer.remove(0));
        assert!(row.writer.insert(0) && row.writer.remove(0));
        // Emptied at the smallest capacity: the slots stay.
        assert_eq!(row.capacity(), 4);
        for id in 0..40 {
            row.writer.insert(id);
        }
        assert!(row.capacity() >= 40);
        for id in 0..40 {
            row.writer.remove(id);
        }
        // Emptied from above it: the row shrank back to it.
        assert_eq!(row.capacity(), 4);
        assert!(row.reader.is_empty(&epoch::pin()));
    }

    #[test]
    fn order_survives_growth_and_compaction() {
        let mut row = Pair::new(4);
        let mut model: Vec<u64> = Vec::new();
        let mut moves = 0;
        let mut capacity = row.capacity();
        let mut rng = dego_metrics::rng::XorShift64::new(0x9e37_79b9);
        for _ in 0..5_000 {
            let id = rng.next_bounded(97);
            if rng.next_bounded(3) == 0 {
                let had = model.contains(&id);
                model.retain(|f| *f != id);
                assert_eq!(row.writer.remove(id), had);
            } else {
                let fresh = !model.contains(&id);
                if fresh {
                    model.push(id);
                }
                assert_eq!(row.writer.insert(id), fresh);
            }
            moves += (row.capacity() != capacity) as usize;
            capacity = row.capacity();
            assert_eq!(row.first(model.len() + 1, None), model);
            assert_eq!(row.len(), model.len());
            assert!(row.contains(id) == model.contains(&id));
            assert!(
                capacity <= 4 * model.len().max(2),
                "a quarter live at least"
            );
        }
        assert!(moves > 20, "only {moves} moves");
    }

    #[test]
    fn first_honours_skip_and_k() {
        let mut row = Pair::new(4);
        for id in [5, 1, 8, 2, 9] {
            row.writer.insert(id);
        }
        assert_eq!(row.first(3, None), [5, 1, 8]);
        assert_eq!(row.first(3, Some(1)), [5, 8, 2]);
        assert_eq!(row.first(9, Some(9)), [5, 1, 8, 2]);
        assert_eq!(row.first(9, Some(4)), [5, 1, 8, 2, 9]);
        assert_eq!(row.first(0, None), []);
        row.writer.remove(5);
        row.writer.insert(5);
        assert_eq!(row.first(2, Some(8)), [1, 2]);
        assert_eq!(row.first(9, None), [1, 8, 2, 9, 5]);
    }

    #[test]
    fn alive_slots_cross_words() {
        let mut row = Pair::new(200);
        for id in 0..150 {
            row.writer.insert(id);
        }
        for id in (0..150).filter(|id| id % 3 != 0) {
            row.writer.remove(id);
        }
        let expected: Vec<u64> = (0..150).filter(|id| id % 3 == 0).collect();
        assert_eq!(row.first(200, None), expected);
        assert_eq!(row.len(), 50);
        assert!(row.contains(129) && !row.contains(130));
    }

    /// The size and the scans read one instant: while the writer empties
    /// a full row one id at a time, a reader that found `absent` ids gone
    /// must then read a size of at most `n − absent` — a removal whose
    /// clear a scan saw is counted by every later size. The writer
    /// refills the row between emptyings, and bumps `phase` at the start
    /// of each fill and each emptying; a reader checks only a scan that
    /// began and ended in one emptying. More threads than most CI boxes
    /// have cores, so the writer is preempted mid-removal.
    #[test]
    fn a_size_counts_every_removal_a_scan_saw() {
        const N: u64 = 64;
        const ROUNDS: u64 = 20_000;
        let mut writer = RosterWriter::new(N as usize);
        let reader = writer.reader();
        // Odd while the row is being emptied.
        let phase = AtomicU64::new(0);
        let checked = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| loop {
                    let before = phase.load(Ordering::SeqCst);
                    if before == 2 * ROUNDS {
                        return;
                    }
                    let pin = epoch::pin();
                    let absent = (0..N).filter(|id| !reader.contains(&pin, *id)).count();
                    let len = reader.len(&pin);
                    if before % 2 == 1 && phase.load(Ordering::SeqCst) == before {
                        let left = N as usize - absent;
                        assert!(len <= left, "{absent} ids gone, yet a size of {len}");
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..ROUNDS {
                for id in 0..N {
                    writer.insert(id);
                }
                phase.fetch_add(1, Ordering::SeqCst);
                for id in 0..N {
                    assert!(writer.remove(id));
                }
                phase.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(checked.into_inner() > 0, "no scan fell inside an emptying");
    }

    /// One writer appending ids in increasing order and removing the
    /// oldest, so the row is always a run of consecutive ids; three
    /// readers (more threads than most CI boxes have cores, so readers
    /// are preempted mid-scan while the writer runs on) ask for a
    /// prefix, which must be consecutive too. A reader that passed `a`
    /// alive while `a` and `a + 1` went would answer `[a, a + 2, …]`.
    /// The row moves every 200-odd appends: an allocation must live
    /// long enough for a preempted reader's scan to be lapped in it.
    #[test]
    fn concurrent_prefixes_are_prefixes_of_one_instant() {
        const ROUNDS: u64 = 300_000;
        const WINDOW: u64 = 32;
        let mut writer = RosterWriter::new(256);
        let reader = writer.reader();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut out = [0; 16];
                    while !done.load(Ordering::Relaxed) {
                        let n = reader.first(&epoch::pin(), None, &mut out);
                        assert_consecutive(&out[..n]);
                    }
                });
            }
            s.spawn(|| {
                for id in 1..ROUNDS {
                    writer.insert(id);
                    if id > WINDOW {
                        assert!(writer.remove(id - WINDOW));
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
        });
    }

    /// [`concurrent_prefixes_are_prefixes_of_one_instant`] with the
    /// edit handle passed between two threads behind one `Mutex`, as the
    /// server passes a follower row between its event loops and shard
    /// writers. Under the lock a thread makes the row's next edit —
    /// append the next id, or remove the oldest once the row holds
    /// `WINDOW` — so the row stays a run of consecutive ids. The threads
    /// take turns of `TURN` edits, so each makes appends, removals and
    /// moves. Readers scan the row throughout.
    #[test]
    fn edits_from_two_threads_keep_prefixes_of_one_instant() {
        const ROUNDS: u64 = 200_000;
        const WINDOW: u64 = 32;
        const TURN: u64 = 997;
        /// The row, the next id to append, the oldest id in it, and the
        /// moves each thread made.
        struct Shared {
            writer: RosterWriter,
            next: u64,
            oldest: u64,
            moves: [u64; 2],
        }
        let writer = RosterWriter::new(256);
        let reader = writer.reader();
        let row = Mutex::new(Shared {
            writer,
            next: 1,
            oldest: 1,
            moves: [0; 2],
        });
        let done = AtomicBool::new(false);
        // Thread `me` makes its turns' edits until the rounds are done.
        let edits = |me: usize| loop {
            let mut row = row.lock().unwrap();
            let (next, oldest) = (row.next, row.oldest);
            if next == ROUNDS {
                return;
            }
            if ((next + oldest) / TURN % 2) as usize != me {
                drop(row);
                std::thread::yield_now();
                continue;
            }
            let allocation = row.writer.row().map(|row| row.0.as_ptr());
            if next - oldest == WINDOW {
                assert!(row.writer.remove(oldest), "every edit changes the row");
                row.oldest += 1;
            } else {
                assert!(row.writer.insert(next), "every edit changes the row");
                row.next += 1;
            }
            let moved = row.writer.row().map(|row| row.0.as_ptr()) != allocation;
            row.moves[me] += moved as u64;
        };
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut out = [0; 16];
                    while !done.load(Ordering::Relaxed) {
                        let n = reader.first(&epoch::pin(), None, &mut out);
                        assert_consecutive(&out[..n]);
                    }
                });
            }
            let other = s.spawn(|| edits(1));
            edits(0);
            other.join().unwrap();
            done.store(true, Ordering::Relaxed);
        });
        // The row of 256 slots moves about every 224 appends.
        let moves = row.into_inner().unwrap().moves;
        assert!(moves.iter().sum::<u64>() > ROUNDS / 256, "{moves:?} moves");
        assert!(moves.iter().all(|&n| n > 0), "moves per thread: {moves:?}");
    }
}
