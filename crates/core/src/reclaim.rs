//! Epoch-reclamation helpers.
//!
//! The concurrent structures retire removed nodes and replaced values
//! through `crossbeam-epoch`. Where the JVM collects that garbage on
//! dedicated GC threads, epoch reclamation piggybacks on later pinning
//! operations — including those of a *subsequent* benchmark trial, which
//! would then be charged for its predecessor's garbage. Benchmarks call
//! [`drain`] between trials to settle outstanding deferred destructions.

use crossbeam_epoch as epoch;
/// The pin a caller holds across a run of reads
/// ([`SegmentedHashMap::read_in`](crate::SegmentedHashMap::read_in)).
pub use crossbeam_epoch::{pin, Guard};

/// Advance the epoch and collect deferred garbage, `rounds` times.
///
/// Each round pins the current thread and flushes/collects a batch of
/// retired objects from the global queue. A few thousand rounds reclaim
/// millions of small deferred items in a few milliseconds.
pub fn drain(rounds: usize) {
    for _ in 0..rounds {
        epoch::pin().flush();
    }
}

/// A writer-local bin of retired raw pointers, reclaimed through the
/// epoch in batches.
///
/// `defer_destroy` per retired object seals an epoch bag every ~62
/// retirements and hammers the global garbage queue, which measurably
/// throttles write-heavy workloads. A single-writer structure can
/// instead collect its retired pointers locally and issue **one**
/// deferred destruction per batch: the epoch guarantee is identical
/// (every pointer was unlinked before the flush's pin, so any reader
/// still using it pinned earlier and blocks the batch's epoch). That
/// pin is the only one the writer needs — it is the sole unlinker and
/// sole retirer of its structure, so nothing it can still reach is ever
/// in a bin — and the bin takes it itself, once per batch.
#[derive(Debug)]
pub struct RetireBin<T> {
    retired: Vec<*mut T>,
    batch: usize,
}

struct Batch<T>(Vec<*mut T>);

impl<T> Drop for Batch<T> {
    fn drop(&mut self) {
        for &p in &self.0 {
            // SAFETY: owned, unlinked, allocated by Box (see `retire`).
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<T> RetireBin<T> {
    /// A bin flushing every `batch` retirements.
    pub fn new(batch: usize) -> Self {
        RetireBin {
            retired: Vec::with_capacity(batch),
            batch: batch.max(1),
        }
    }

    /// Number of pointers currently parked.
    pub fn len(&self) -> usize {
        self.retired.len()
    }

    /// Whether the bin is empty.
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty()
    }

    /// Park an unlinked pointer; flushes when the batch fills.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw`, be unreachable for *new*
    /// readers (unlinked before this call), be retired exactly once, and
    /// `T`'s destructor must be safe to run on another thread (the same
    /// contract as [`epoch::Guard::defer_destroy`]).
    pub unsafe fn retire(&mut self, ptr: *mut T) {
        self.retired.push(ptr);
        if self.retired.len() >= self.batch {
            self.flush();
            self.retired.reserve(self.batch);
        }
    }

    /// Defer destruction of everything parked so far, under a fresh
    /// pin: readers that might still hold these pointers pinned earlier.
    pub fn flush(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        let batch = Batch(std::mem::take(&mut self.retired));
        let guard = epoch::pin();
        // SAFETY: the pointers are unlinked and owned (retire's
        // contract); defer_unchecked type-erases exactly like
        // defer_destroy does.
        unsafe { guard.defer_unchecked(move || drop(batch)) };
    }
}

impl<T> Drop for RetireBin<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swmr_hash::swmr_hash_map;

    #[test]
    fn drain_runs_and_reclaims() {
        // Produce a pile of deferred garbage (overwrites retire values).
        let (mut w, _r) = swmr_hash_map::<u64, u64>(64);
        for round in 0..200u64 {
            for k in 0..64 {
                w.insert(k, round);
            }
        }
        // Must not panic, deadlock or corrupt the epoch state.
        drain(1024);
        assert_eq!(w.len(), 64);
    }

    #[test]
    fn retire_bin_batches_and_flushes() {
        let mut bin: RetireBin<u64> = RetireBin::new(4);
        for i in 0..3u64 {
            // SAFETY: fresh boxes, never linked anywhere.
            unsafe { bin.retire(Box::into_raw(Box::new(i))) };
        }
        assert_eq!(bin.len(), 3);
        unsafe { bin.retire(Box::into_raw(Box::new(3))) };
        assert_eq!(bin.len(), 0, "batch flushed at capacity");
        unsafe { bin.retire(Box::into_raw(Box::new(4))) };
        drop(bin); // final flush must not leak or double-free
        drain(256);
    }

    #[test]
    fn retire_bin_respects_readers() {
        // A reader pinned before retirement must still be able to read
        // the value until it unpins (no premature free). We can't observe
        // the free directly, but ASAN/valgrind-style runs would catch a
        // violation; here we exercise the interleaving.
        let value = Box::into_raw(Box::new(77u64));
        let reader_guard = epoch::pin();
        let mut bin: RetireBin<u64> = RetireBin::new(1);
        // SAFETY: `value` is unlinked (never published) and retired once.
        unsafe { bin.retire(value) };
        assert!(bin.is_empty(), "flushed: only the reader's pin protects it");
        // SAFETY: the reader pinned before the retirement flush.
        assert_eq!(unsafe { *value }, 77);
        drop(reader_guard);
        drain(256);
    }
}
