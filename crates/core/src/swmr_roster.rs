//! `swmr_roster`: a single-writer multi-reader insertion-ordered set of
//! `u64` ids — the adjusted object behind a follower row.
//!
//! A follower row is added to and removed from by one thread (its
//! shard's owner), read by any, and asked only for its size, for one
//! id, and for its first few ids in insertion order. A general map value
//! serves that by copy-and-replace: clone the row, edit, publish the
//! copy, retire the original — O(row) time and a row of garbage per
//! edge. Narrowed to what its callers do, the row is one allocation of
//! atomic cells that the writer edits in place:
//!
//! * [`RosterWriter::insert`] stores the id in the next free slot, sets
//!   its alive bit, then publishes the used and live counts, Release.
//!   No allocation while the row has room, nothing to retire.
//! * [`RosterWriter::remove`] bumps the removal sequence, then clears
//!   the id's alive bit: a seqlock's write side, but for the second
//!   bump, which a single bit store does not need.
//! * A row that is full on insert, or less than a quarter live after a
//!   removal, moves: its live ids are copied in order into a fresh
//!   allocation of twice their number, which the caller republishes.
//!   Each move of `n` ids follows about `n / 2` edits or more since the
//!   last: amortised O(1).
//! * [`RosterReader::len`] is one load; [`RosterReader::contains`] and
//!   [`RosterReader::first`] scan the alive bits and re-scan if a
//!   removal raced them, so a prefix is the prefix of one instant — a
//!   removal cannot show a reader an id it has already passed together
//!   with one it has not reached. A reader never waits for the writer:
//!   one whose scan saw at most the clear of the last bump it read
//!   stands, whether that clear had landed or not.
//!
//! Duplicates are refused with no index: the writer scans its own ids
//! in chunks the compiler vectorises, and checks an alive bit only on a
//! match.
//!
//! **Publication.** A reader reads the allocation it was taken from, so
//! a move hands the write's `publish` argument the reader of the fresh
//! one, for the caller to store where readers look the row up (the
//! server's follower map, whose `put` retires the old reader). The
//! fresh allocation's cells are stored Relaxed, so that store must
//! publish them: Release, against the readers' Acquire load (the map's
//! `put` and `read` are). The old allocation is frozen at the state the
//! move replaced, which is what a reader that found it before the
//! republish is entitled to.
//!
//! The single-writer permission is a type, as in
//! [`swmr_recent`](mod@crate::swmr_recent): [`RosterWriter`] is unique and
//! its edits take `&mut self`; [`RosterReader`] is `Clone`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Header cells: slots appended since the allocation, ids alive,
/// removals since the allocation, the capacity. The alive bits (one
/// word per 64 slots) and then the ids follow.
const USED: usize = 0;
const LIVE: usize = 1;
const SEQ: usize = 2;
const CAPACITY: usize = 3;
const HEADER: usize = 4;

/// Slots the writer compares per step of its duplicate scan.
const CHUNK: usize = 8;

/// One row's allocation. Slot `i`'s id is written once, before its
/// alive bit is set; the bit is cleared at most once after.
#[derive(Clone)]
struct Row(Arc<[AtomicU64]>);

impl Row {
    fn new(capacity: usize) -> Row {
        let len = HEADER + capacity.div_ceil(64) + capacity;
        let row = Row((0..len).map(|_| AtomicU64::new(0)).collect());
        row.0[CAPACITY].store(capacity as u64, Ordering::Relaxed);
        row
    }

    fn capacity(&self) -> usize {
        self.0[CAPACITY].load(Ordering::Relaxed) as usize
    }

    fn bits(&self) -> &[AtomicU64] {
        &self.0[HEADER..HEADER + self.capacity().div_ceil(64)]
    }

    fn ids(&self) -> &[AtomicU64] {
        &self.0[HEADER + self.capacity().div_ceil(64)..]
    }

    fn alive(&self, slot: usize) -> bool {
        self.bits()[slot / 64].load(Ordering::Relaxed) >> (slot % 64) & 1 == 1
    }

    /// The alive slots below `used`, in order.
    fn alive_slots(&self, used: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.bits()[..used.div_ceil(64)].iter();
        words.enumerate().flat_map(move |(w, word)| {
            let below = used - 64 * w;
            let mut bits = word.load(Ordering::Relaxed);
            if below < 64 {
                bits &= (1 << below) - 1;
            }
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(64 * w + bit)
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

/// The unique edit handle of a follower-style row: an insertion-ordered
/// set of ids with no duplicates.
///
/// # Examples
///
/// ```
/// use dego_core::swmr_roster::RosterWriter;
///
/// let mut row = RosterWriter::new(4);
/// let mut reader = row.reader();
/// for id in [7, 3, 9, 3] {
///     row.insert(id, |moved| reader = moved);
/// }
/// row.remove(7, |moved| reader = moved);
/// let mut first = [0; 4];
/// let n = reader.first(None, &mut first);
/// assert_eq!(&first[..n], [3, 9]);
/// assert_eq!(reader.len(), 2);
/// ```
pub struct RosterWriter {
    /// `None` until the row first holds an id.
    row: Option<Row>,
    /// The smallest allocation the row moves to.
    min_capacity: usize,
    /// The writer's own copies of the row's used, live and sequence
    /// cells.
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
            row: None,
            min_capacity: min_capacity.max(2),
            used: 0,
            live: 0,
            seq: 0,
        }
    }

    /// A read handle of the row's current allocation.
    pub fn reader(&self) -> RosterReader {
        RosterReader {
            row: self.row.clone(),
        }
    }

    /// Add `id` at the end of the row unless it is in it already;
    /// returns whether it was added. A row without room moves first and
    /// hands `publish` the reader of its new allocation.
    pub fn insert(&mut self, id: u64, publish: impl FnOnce(RosterReader)) -> bool {
        if self.find(id).is_some() {
            return false;
        }
        let capacity = self.row.as_ref().map_or(0, Row::capacity);
        if self.used < capacity {
            self.append(id);
        } else {
            self.move_to((2 * self.live).max(self.min_capacity), None);
            self.append(id);
            publish(self.reader());
        }
        true
    }

    /// Take `id` out of the row; returns whether it was in it. A row
    /// left less than a quarter live moves and hands `publish` the
    /// reader of its new allocation.
    pub fn remove(&mut self, id: u64, publish: impl FnOnce(RosterReader)) -> bool {
        let Some(slot) = self.find(id) else {
            return false;
        };
        let row = self.row.as_ref().expect("a found id has a row");
        let (left, capacity) = (self.live - 1, row.capacity());
        if 4 * left < capacity && capacity > self.min_capacity {
            self.move_to((2 * left).max(self.min_capacity), Some(slot));
            publish(self.reader());
            return true;
        }
        let word = &row.bits()[slot / 64];
        self.seq += 1;
        // Release: a reader that sees this bump sees the clears before.
        row.0[SEQ].store(self.seq, Ordering::Release);
        // Release: a reader that sees this clear sees the bump too.
        let cleared = word.load(Ordering::Relaxed) & !(1 << (slot % 64));
        word.store(cleared, Ordering::Release);
        self.live -= 1;
        row.0[LIVE].store(self.live as u64, Ordering::Release);
        true
    }

    /// The writer's plain view of the ids of the used slots.
    fn own_ids(&self) -> &[u64] {
        let Some(row) = &self.row else {
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
        let row = self.row.as_ref()?;
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
        let row = self.row.as_ref().expect("room was made");
        let slot = self.used;
        row.ids()[slot].store(id, Ordering::Relaxed);
        let word = &row.bits()[slot / 64];
        let set = word.load(Ordering::Relaxed) | 1 << (slot % 64);
        word.store(set, Ordering::Relaxed);
        self.used += 1;
        self.live += 1;
        // Publishes the id and its bit to readers that Acquire-load it.
        row.0[USED].store(self.used as u64, Ordering::Release);
        row.0[LIVE].store(self.live as u64, Ordering::Release);
    }

    /// Copy the live ids but the one in slot `except`, in order, into a
    /// fresh allocation of `capacity` slots, unpublished.
    fn move_to(&mut self, capacity: usize, except: Option<usize>) {
        let new = Row::new(capacity);
        let mut moved = 0;
        if let Some(old) = &self.row {
            let (ids, bits) = (new.ids(), new.bits());
            for slot in old.alive_slots(self.used) {
                if Some(slot) != except {
                    ids[moved].store(old.ids()[slot].load(Ordering::Relaxed), Ordering::Relaxed);
                    moved += 1;
                }
            }
            for (w, word) in bits.iter().enumerate().take(moved.div_ceil(64)) {
                let below = moved - 64 * w;
                let alive = if below < 64 { (1 << below) - 1 } else { !0 };
                word.store(alive, Ordering::Relaxed);
            }
            new.0[USED].store(moved as u64, Ordering::Relaxed);
            new.0[LIVE].store(moved as u64, Ordering::Relaxed);
        }
        self.row = Some(new);
        (self.used, self.live, self.seq) = (moved, moved, 0);
    }
}

/// A lock-free read handle of one allocation of a [`RosterWriter`]'s
/// row; clone freely. The default reads as an empty row.
#[derive(Clone, Default)]
pub struct RosterReader {
    row: Option<Row>,
}

impl std::fmt::Debug for RosterReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RosterReader")
            .field("len", &self.len())
            .finish()
    }
}

impl RosterReader {
    /// Ids in the row: one load.
    pub fn len(&self) -> usize {
        self.row
            .as_ref()
            .map_or(0, |row| row.0[LIVE].load(Ordering::Acquire) as usize)
    }

    /// Whether the row holds no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is in the row.
    pub fn contains(&self, id: u64) -> bool {
        self.row.as_ref().is_some_and(|row| {
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
    pub fn first(&self, skip: Option<u64>, out: &mut [u64]) -> usize {
        let Some(row) = &self.row else {
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

    /// A writer and the reader its moves republish.
    struct Published {
        writer: RosterWriter,
        reader: RosterReader,
    }

    impl Published {
        fn new(min_capacity: usize) -> Self {
            let writer = RosterWriter::new(min_capacity);
            let reader = writer.reader();
            Published { writer, reader }
        }

        fn insert(&mut self, id: u64) -> bool {
            let reader = &mut self.reader;
            self.writer.insert(id, |moved| *reader = moved)
        }

        fn remove(&mut self, id: u64) -> bool {
            let reader = &mut self.reader;
            self.writer.remove(id, |moved| *reader = moved)
        }

        fn first(&self, k: usize, skip: Option<u64>) -> Vec<u64> {
            let mut out = vec![0; k];
            let n = self.reader.first(skip, &mut out);
            out.truncate(n);
            out
        }

        fn capacity(&self) -> usize {
            self.writer.row.as_ref().map_or(0, Row::capacity)
        }
    }

    #[test]
    fn an_empty_row_allocates_nothing() {
        let mut row = Published::new(4);
        assert!(row.writer.row.is_none() && row.reader.row.is_none());
        assert_eq!((row.reader.len(), row.first(4, None)), (0, vec![]));
        assert!(!row.reader.contains(0) && !row.remove(0));
        assert!(row.insert(0) && row.remove(0));
        // Emptied at the smallest capacity: the slots stay.
        assert_eq!(row.capacity(), 4);
        for id in 0..40 {
            row.insert(id);
        }
        assert!(row.capacity() >= 40);
        for id in 0..40 {
            row.remove(id);
        }
        // Emptied from above it: the row shrank back to it.
        assert_eq!(row.capacity(), 4);
        assert!(row.reader.is_empty());
    }

    #[test]
    fn order_survives_growth_and_compaction() {
        let mut row = Published::new(4);
        let mut model: Vec<u64> = Vec::new();
        let mut moves = 0;
        let mut capacity = row.capacity();
        let mut rng = dego_metrics::rng::XorShift64::new(0x9e37_79b9);
        for _ in 0..5_000 {
            let id = rng.next_bounded(97);
            if rng.next_bounded(3) == 0 {
                let had = model.contains(&id);
                model.retain(|f| *f != id);
                assert_eq!(row.remove(id), had);
            } else {
                let fresh = !model.contains(&id);
                if fresh {
                    model.push(id);
                }
                assert_eq!(row.insert(id), fresh);
            }
            moves += (row.capacity() != capacity) as usize;
            capacity = row.capacity();
            assert_eq!(row.first(model.len() + 1, None), model);
            assert_eq!(row.reader.len(), model.len());
            assert!(row.reader.contains(id) == model.contains(&id));
            assert!(
                capacity <= 4 * model.len().max(2),
                "a quarter live at least"
            );
        }
        assert!(moves > 20, "only {moves} moves");
    }

    #[test]
    fn first_honours_skip_and_k() {
        let mut row = Published::new(4);
        for id in [5, 1, 8, 2, 9] {
            row.insert(id);
        }
        assert_eq!(row.first(3, None), [5, 1, 8]);
        assert_eq!(row.first(3, Some(1)), [5, 8, 2]);
        assert_eq!(row.first(9, Some(9)), [5, 1, 8, 2]);
        assert_eq!(row.first(9, Some(4)), [5, 1, 8, 2, 9]);
        assert_eq!(row.first(0, None), []);
        row.remove(5);
        row.insert(5);
        assert_eq!(row.first(2, Some(8)), [1, 2]);
        assert_eq!(row.first(9, None), [1, 8, 2, 9, 5]);
    }

    #[test]
    fn alive_slots_cross_words() {
        let mut row = Published::new(200);
        for id in 0..150 {
            row.insert(id);
        }
        for id in (0..150).filter(|id| id % 3 != 0) {
            row.remove(id);
        }
        let expected: Vec<u64> = (0..150).filter(|id| id % 3 == 0).collect();
        assert_eq!(row.first(200, None), expected);
        assert!(row.reader.contains(129) && !row.reader.contains(130));
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
        let published = std::sync::Mutex::new(RosterReader::default());
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut out = [0; 16];
                    while !done.load(Ordering::Relaxed) {
                        let reader = published.lock().unwrap().clone();
                        let n = reader.first(None, &mut out);
                        for pair in out[..n].windows(2) {
                            assert_eq!(pair[1], pair[0] + 1, "torn prefix {:?}", &out[..n]);
                        }
                    }
                });
            }
            s.spawn(|| {
                let mut writer = RosterWriter::new(256);
                let publish = |moved| *published.lock().unwrap() = moved;
                for id in 1..ROUNDS {
                    writer.insert(id, publish);
                    if id > WINDOW {
                        assert!(writer.remove(id - WINDOW, publish));
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
        });
    }
}
