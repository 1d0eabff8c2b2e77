//! Offline shim for `crossbeam-epoch`: the pointer types ([`Atomic`],
//! [`Owned`], [`Shared`]) and guard API ([`pin`], [`unprotected`],
//! [`Guard::defer_destroy`]) this workspace uses, over a simplified but
//! sound reclamation scheme.
//!
//! # Reclamation model
//!
//! Instead of per-thread epochs, the shim keeps one global count of
//! live guards ([`PINS`]) and a monotone [`ERA`]. Deferred garbage is
//! stamped with the era current at [`Guard::defer_destroy`] time and is
//! freed only by a thread that (a) just dropped a guard bringing the
//! count to zero, (b) bumped the era to `E`, and (c) still observed a
//! zero count afterwards — and then only garbage stamped strictly
//! before `E`. The safety argument mirrors epoch reclamation: a zero
//! observation means every guard that could hold a reference to an
//! unlinked node has been dropped, and the era stamp excludes garbage
//! deferred by guards pinned after that observation. Under a constant
//! open pin (e.g. a reader parked on a snapshot) garbage accumulates,
//! exactly like a stalled epoch in the real crate.
//!
//! Only the API surface this workspace needs is provided (no tagged
//! pointers, no `defer` closures); replace the `path` dependency with
//! the registry crate to swap back.

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------- reclamation

static PINS: AtomicUsize = AtomicUsize::new(0);
static ERA: AtomicU64 = AtomicU64::new(1);
static GARBAGE: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());
/// `GARBAGE.len()`, stored under its lock. It gates collection
/// attempts and publishes nothing: whoever defers an item reads its
/// own store when it later drops its guard, so no item waits past the
/// next time the guard count returns to zero.
static DEFERRED: AtomicUsize = AtomicUsize::new(0);

struct Deferred {
    era: u64,
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: the raw pointer is only dereferenced by `drop_fn` once the
// reclamation protocol has proved no thread can reach it.
unsafe impl Send for Deferred {}

unsafe fn drop_box<T>(ptr: *mut u8) {
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

/// Queue `item` for a later [`collect`].
fn defer(item: Deferred) {
    let mut garbage = GARBAGE.lock().unwrap_or_else(|p| p.into_inner());
    garbage.push(item);
    DEFERRED.store(garbage.len(), Ordering::Relaxed);
}

/// Free every deferred item stamped strictly before `before_era`.
fn collect(before_era: u64) {
    let ripe: Vec<Deferred> = {
        let mut garbage = GARBAGE.lock().unwrap_or_else(|p| p.into_inner());
        let mut ripe = Vec::new();
        garbage.retain_mut(|d| {
            if d.era < before_era {
                ripe.push(Deferred {
                    era: d.era,
                    ptr: d.ptr,
                    drop_fn: d.drop_fn,
                });
                false
            } else {
                true
            }
        });
        DEFERRED.store(garbage.len(), Ordering::Relaxed);
        ripe
    };
    // Run destructors outside the lock: they may defer more garbage.
    for d in ripe {
        // SAFETY: the caller proved no live guard predates `before_era`.
        unsafe { (d.drop_fn)(d.ptr) };
    }
}

/// Attempt a collection right now; frees garbage only when no guard is
/// live anywhere in the process, and looks only while something is
/// deferred.
fn try_collect() {
    if DEFERRED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let era = ERA.fetch_add(1, Ordering::SeqCst);
    if PINS.load(Ordering::SeqCst) == 0 {
        collect(era + 1);
    }
}

// --------------------------------------------------------------- guard

/// A guard keeping deferred destruction at bay while it is live.
pub struct Guard {
    pinned: bool,
}

impl Guard {
    /// Defer dropping and freeing the heap allocation behind `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`Owned::new`] (i.e. a `Box` allocation),
    /// must already be unreachable for threads that pin after this
    /// call, and must not be deferred twice.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        debug_assert!(!ptr.is_null(), "cannot defer destruction of null");
        let item = Deferred {
            era: ERA.load(Ordering::SeqCst),
            ptr: ptr.raw.cast::<u8>(),
            drop_fn: drop_box::<T>,
        };
        defer(item);
    }

    /// Defer running an arbitrary closure (type-erased like
    /// [`Guard::defer_destroy`], hence "unchecked").
    ///
    /// # Safety
    ///
    /// The closure must stay sound to call at any later time on any
    /// thread: anything it frees must already be unreachable for
    /// threads that pin after this call.
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
    {
        unsafe fn call_closure(ptr: *mut u8) {
            // SAFETY: round-trip of the double box below.
            let f = unsafe { Box::from_raw(ptr.cast::<Box<dyn FnOnce()>>()) };
            (*f)();
        }

        let erased: Box<dyn FnOnce() + '_> = Box::new(move || {
            let _ = f();
        });
        // SAFETY: lifetime erasure is this method's contract — the
        // caller guarantees the closure (and its captures) stay valid
        // until it runs, exactly as in the real crate.
        let eternal: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(erased) };
        let boxed: Box<Box<dyn FnOnce()>> = Box::new(eternal);
        let item = Deferred {
            era: ERA.load(Ordering::SeqCst),
            ptr: Box::into_raw(boxed).cast::<u8>(),
            drop_fn: call_closure,
        };
        defer(item);
    }

    /// Nudge the collector (mirrors the real crate's `flush`).
    pub fn flush(&self) {
        if !self.pinned {
            try_collect();
        }
        // A pinned guard keeps everything alive by definition; nothing
        // to do until it drops.
    }

    /// Re-examine the garbage, as if unpinning and repinning.
    pub fn repin(&mut self) {
        if self.pinned {
            PINS.fetch_sub(1, Ordering::SeqCst);
            try_collect();
            PINS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.pinned && PINS.fetch_sub(1, Ordering::SeqCst) == 1 {
            try_collect();
        }
    }
}

/// Pin the current thread: returned [`Guard`] keeps loaded [`Shared`]
/// pointers alive.
pub fn pin() -> Guard {
    PINS.fetch_add(1, Ordering::SeqCst);
    Guard { pinned: true }
}

static UNPROTECTED: Guard = Guard { pinned: false };

/// A dummy guard for exclusive access (construction/teardown).
///
/// # Safety
///
/// The caller must guarantee no other thread is accessing the data
/// structure concurrently, and that deferred items may be freed at any
/// moment.
pub unsafe fn unprotected() -> &'static Guard {
    &UNPROTECTED
}

// Sync for the static above: Guard has no interior state.
unsafe impl Sync for Guard {}

// ------------------------------------------------------------- pointer

/// Types carrying a heap pointer that [`Atomic`] can store.
pub trait Pointer<T> {
    /// Consume `self` into the raw pointer.
    fn into_ptr(self) -> *mut T;

    /// Rebuild from a raw pointer (for CAS-failure hand-back).
    ///
    /// # Safety
    ///
    /// `ptr` must be the value a matching `into_ptr` returned.
    unsafe fn from_ptr(ptr: *mut T) -> Self;
}

/// An owned heap pointer (the unique owner of its allocation).
pub struct Owned<T> {
    ptr: NonNull<T>,
    _marker: PhantomData<Box<T>>,
}

unsafe impl<T: Send> Send for Owned<T> {}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Owned<T> {
        Owned {
            ptr: NonNull::from(Box::leak(Box::new(value))),
            _marker: PhantomData,
        }
    }

    /// Publish the allocation as a [`Shared`], giving up ownership.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let raw = self.ptr.as_ptr();
        std::mem::forget(self);
        Shared {
            raw,
            _marker: PhantomData,
        }
    }

    /// Take the allocation back as a `Box`.
    pub fn into_box(self) -> Box<T> {
        let raw = self.ptr.as_ptr();
        std::mem::forget(self);
        // SAFETY: `Owned` uniquely owns the Box allocation.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: unique ownership.
        drop(unsafe { Box::from_raw(self.ptr.as_ptr()) });
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: unique ownership of a live allocation.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: unique ownership of a live allocation.
        unsafe { self.ptr.as_mut() }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let raw = self.ptr.as_ptr();
        std::mem::forget(self);
        raw
    }

    unsafe fn from_ptr(ptr: *mut T) -> Self {
        Owned {
            // SAFETY: caller passes back a pointer from `into_ptr`,
            // which always came from a live Box.
            ptr: unsafe { NonNull::new_unchecked(ptr) },
            _marker: PhantomData,
        }
    }
}

impl<T> From<T> for Owned<T> {
    fn from(value: T) -> Self {
        Owned::new(value)
    }
}

/// A pointer valid for the lifetime of a [`Guard`]. `Copy`, may be
/// null.
pub struct Shared<'g, T> {
    raw: *mut T,
    _marker: PhantomData<(&'g Guard, *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<T> Eq for Shared<'_, T> {}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({:p})", self.raw)
    }
}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Shared<'g, T> {
        Shared {
            raw: std::ptr::null_mut(),
            _marker: PhantomData,
        }
    }

    /// Whether this is null.
    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// The raw pointer.
    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// Dereference to `Option<&T>` (None when null).
    ///
    /// # Safety
    ///
    /// The pointee must still be alive: loaded under the guard `'g`
    /// from a structure that defers destruction through this module.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: forwarded to the caller.
        unsafe { self.raw.as_ref() }
    }

    /// Dereference assuming non-null.
    ///
    /// # Safety
    ///
    /// As [`Shared::as_ref`], plus the pointer must not be null.
    pub unsafe fn deref(&self) -> &'g T {
        debug_assert!(!self.raw.is_null());
        // SAFETY: forwarded to the caller.
        unsafe { &*self.raw }
    }

    /// Reclaim unique ownership.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner (e.g. teardown under
    /// [`unprotected`]) and the pointer must not be null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.raw.is_null());
        Owned {
            // SAFETY: non-null per contract.
            ptr: unsafe { NonNull::new_unchecked(self.raw) },
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_ptr(self) -> *mut T {
        self.raw
    }

    unsafe fn from_ptr(ptr: *mut T) -> Self {
        Shared {
            raw: ptr,
            _marker: PhantomData,
        }
    }
}

// -------------------------------------------------------------- atomic

/// An atomic nullable heap pointer, loadable under a [`Guard`].
pub struct Atomic<T> {
    data: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

/// The error of a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed new value, handed back to the caller.
    pub new: P,
}

impl<T, P: Pointer<T>> std::fmt::Debug for CompareExchangeError<'_, T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompareExchangeError")
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

impl<T> Atomic<T> {
    /// Allocate `value` and store the pointer.
    pub fn new(value: T) -> Atomic<T> {
        Atomic {
            data: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// A null atomic pointer.
    pub const fn null() -> Atomic<T> {
        Atomic {
            data: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Load the pointer under `guard`.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.data.load(ord),
            _marker: PhantomData,
        }
    }

    /// Store a new pointer. The previous pointee, if any, is **not**
    /// reclaimed (mirror of the real crate: the caller must have saved
    /// and deferred it).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_ptr(), ord);
    }

    /// Swap the pointer, returning the previous value.
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared {
            raw: self.data.swap(new.into_ptr(), ord),
            _marker: PhantomData,
        }
    }

    /// Take unique ownership of the allocation, if non-null.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner of the atomic and its
    /// pointee (e.g. inside `Drop`).
    pub unsafe fn try_into_owned(self) -> Option<Owned<T>> {
        let raw = self.data.into_inner();
        NonNull::new(raw).map(|ptr| Owned {
            ptr,
            _marker: PhantomData,
        })
    }

    /// Compare-and-exchange: install `new` iff the current pointer is
    /// `current`; on failure the proposed value is handed back in the
    /// error.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self
            .data
            .compare_exchange(current.raw, new_ptr, success, failure)
        {
            Ok(prev) => Ok(Shared {
                raw: prev,
                _marker: PhantomData,
            }),
            Err(actual) => Err(CompareExchangeError {
                current: Shared {
                    raw: actual,
                    _marker: PhantomData,
                },
                // SAFETY: round-trip of the pointer we just took.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> std::fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Atomic({:p})", self.data.load(Ordering::Relaxed))
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic {
            data: AtomicPtr::new(owned.into_ptr()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn load_store_swap_roundtrip() {
        let a = Atomic::new(41);
        let guard = pin();
        let s = a.load(Ordering::Acquire, &guard);
        assert_eq!(unsafe { *s.deref() }, 41);
        let old = a.swap(Owned::new(42), Ordering::AcqRel, &guard);
        unsafe { guard.defer_destroy(old) };
        assert_eq!(unsafe { *a.load(Ordering::Acquire, &guard).deref() }, 42);
        drop(guard);
        let guard = unsafe { unprotected() };
        let last = a.load(Ordering::Acquire, guard);
        drop(unsafe { last.into_owned() });
    }

    #[test]
    fn cas_failure_hands_new_back() {
        let a = Atomic::new(1);
        let guard = pin();
        let current = a.load(Ordering::Acquire, &guard);
        let err = a
            .compare_exchange(
                Shared::null(),
                Owned::new(2),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            )
            .unwrap_err();
        assert_eq!(err.current, current);
        drop(err.new); // Owned handed back: freeing must not double-free
        let prev = a
            .compare_exchange(
                current,
                Owned::new(3),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            )
            .unwrap();
        unsafe { guard.defer_destroy(prev) };
        drop(guard);
        drop(unsafe { a.load(Ordering::Acquire, unprotected()).into_owned() });
    }

    #[test]
    fn deferred_destruction_runs_destructors() {
        struct NoteDrop(Arc<AtomicUsize>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let owned = Owned::new(NoteDrop(Arc::clone(&drops)));
            let shared = owned.into_shared(&guard);
            unsafe { guard.defer_destroy(shared) };
            assert_eq!(drops.load(Ordering::SeqCst), 0, "kept alive while pinned");
        }
        // Dropping the last guard collects — eventually, since guards
        // of concurrently running tests also hold collection back.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drops.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            drop(pin());
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// The collection gate must not strand garbage: an attempt is
    /// skipped only while nothing is deferred, so a batch deferred under
    /// a guard (the `RetireBin` shape: one closure, many pointers) is
    /// freed once the guard count next returns to zero.
    #[test]
    fn deferred_closure_runs_once_the_last_guard_drops() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let ran = Arc::clone(&ran);
            unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
            assert!(DEFERRED.load(Ordering::Relaxed) > 0, "the gate is open");
        }
        // As above: guards of concurrently running tests hold it back.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while ran.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            drop(pin());
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_swap_hammer() {
        let a = Arc::new(Atomic::new(0u64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let guard = pin();
                        let old = a.swap(Owned::new(t * 1_000_000 + i), Ordering::AcqRel, &guard);
                        if !old.is_null() {
                            unsafe { guard.defer_destroy(old) };
                        }
                    }
                });
            }
        });
        let last = a.load(Ordering::Acquire, unsafe { unprotected() });
        drop(unsafe { last.into_owned() });
    }
}
