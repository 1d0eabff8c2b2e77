//! # dego-core — the DEGO library: adjusted shared objects for Rust
//!
//! A reproduction of the DEGO library from *"Adjusted Objects: An
//! Efficient and Principled Approach to Scalable Programming"* (Kane &
//! Sutra, Middleware 2025). An **adjusted object** tailors a shared
//! object to how a program actually uses it — narrowing the interface
//! (blind writes, write-once preconditions) and restricting access
//! (single writer, commuting writers) — which densifies its
//! indistinguishability graph and removes the conflicts that throttle
//! scalability (the theory lives in the `dego-spec` crate).
//!
//! The catalogue mirrors §5 of the paper:
//!
//! | Adjusted object | Type (Table 1) | Replaces |
//! |---|---|---|
//! | [`WriteOnceRef`] / [`WriteOnceReader`] | `(R2, ALL)` | `AtomicReference` |
//! | [`CounterIncrementOnly`] | `(C3, CWSR)` | `AtomicLong` / `LongAdder` |
//! | [`mpsc::queue`] (`QueueMasp`) | `(Q1, MWSR)` | `ConcurrentLinkedQueue` |
//! | [`SegmentedHashMap`] | `(M2, CWMR)` | `ConcurrentHashMap` |
//! | [`SegmentedSkipListMap`] | `(M2, CWMR)` ordered | `ConcurrentSkipListMap` |
//! | [`SegmentedSet`] | `(S3, CWMR)` | concurrent sets |
//! | [`SegmentedBag`] | write-dominant `(S2, CWMR)` | synchronized lists |
//! | [`rcu_cell`] | RCU-like copy-swap (§5.3) | `synchronized` snapshots |
//! | [`swmr_recent()`] | append-only, newest-`n` reads, SWMR | a copy-and-replace list as a map value |
//! | [`RosterWriter`] / [`RosterReader`] | insertion-ordered set, size / member / first-`k` reads, SWMR; moves published through one epoch-protected pointer, read under the caller's pin | a copy-and-replace list as a map value |
//!
//! Substrates: [`swmr_hash`] and [`swmr_skiplist`] are the single-writer
//! multi-reader segments (§5.3), [`swmr_recent`](mod@swmr_recent) and
//! [`swmr_roster`] their bounded-log and ordered-set siblings,
//! [`segmentation`] the segment plumbing
//! (§5.2), [`registry`] the thread-slot registry.
//!
//! **Permissions are types.** Where the Java library documents "only one
//! thread may call `poll`", this crate hands out non-clonable writer /
//! consumer handles, so misuse is a compile error rather than a data
//! race.
//!
//! ## Quickstart
//!
//! ```
//! use dego_core::CounterIncrementOnly;
//!
//! let counter = CounterIncrementOnly::new(4);
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let c = counter.clone();
//!         s.spawn(move || {
//!             let cell = c.cell();
//!             for _ in 0..1_000 {
//!                 cell.inc();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(counter.get(), 4_000);
//! ```

#![warn(missing_docs)]

pub mod bag;
pub mod counter;
pub mod mpsc;
pub mod rcu;
pub mod reclaim;
pub mod registry;
pub mod segmentation;
pub mod segmented;
pub mod swmr_hash;
pub mod swmr_recent;
pub mod swmr_roster;
pub mod swmr_skiplist;
pub mod write_once;

pub use bag::{BagAppender, SegmentedBag};
pub use counter::{CounterCell, CounterIncrementOnly};
pub use rcu::{rcu_cell, RcuReader, RcuWriter};
pub use registry::ThreadRegistry;
pub use segmentation::{BaseSegmentation, SegmentationKind};
pub use segmented::{
    home_segment, SegmentedHashMap, SegmentedHashMapWriter, SegmentedSet, SegmentedSetWriter,
    SegmentedSkipListMap, SegmentedSkipListMapWriter,
};
pub use swmr_hash::{swmr_hash_map, SwmrHashReader, SwmrHashWriter};
pub use swmr_recent::{swmr_recent, RecentReader, RecentWriter};
pub use swmr_roster::{RosterReader, RosterWriter};
pub use swmr_skiplist::{swmr_skip_list_map, SwmrSkipListReader, SwmrSkipListWriter};
pub use write_once::{WriteOnceReader, WriteOnceRef};
