//! The unit tests' global allocator: counts the calling thread's
//! allocations (growth included), so a test can budget what a code path
//! allocates whatever the other tests and the shard owners do
//! meanwhile. The loop's request path (`event_loop.rs`) and the shard
//! owner's `apply` (`store.rs`) are pinned with it.

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may free and allocate while its locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-
// initialised `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller vouches for `new`.
        unsafe { std::alloc::System.realloc(ptr, layout, new) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocations (growth included) the calling thread has made so far.
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.get())
}
