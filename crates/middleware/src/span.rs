//! Sampled span scopes: per-layer admission-cost attribution.
//!
//! The trace layer (outermost) decides once per command or burst
//! whether to sample a span ([`enter`]); while a span is active, every
//! layer brackets its own admission work with [`start`]/[`record`],
//! which accumulates microseconds into a thread-local cost table keyed
//! by [`LayerKind`]. When the guard is finished the trace layer
//! harvests the table into the shared per-layer histograms.
//!
//! Thread-locals are sound here by construction: a connection's chain
//! (one [`crate::pipeline::FusedService`], boxed once) is built and
//! driven entirely on that connection's thread (no `Send` bound), and
//! a chain whose burst parks [`SpanGuard::suspend`]s its span before
//! the thread serves another connection — so at most one span is
//! active per thread, and it belongs to the chain being driven.
//!
//! The unsampled path, singleton or burst, is one thread-local boolean
//! load per layer ([`start`] returns `None` and [`record`] is a
//! no-op), which is what keeps the default 1-in-N sampling overhead
//! negligible.

use crate::flight::StoreSegment;
use crate::pipeline::{LayerKind, LAYER_COUNT};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// What the thread's active span has collected so far.
    static COLLECTED: RefCell<SpanHarvest> = const { RefCell::new(SpanHarvest::EMPTY) };
}

/// A span scope: active from [`enter`] until it is dropped, finished
/// or suspended.
pub struct SpanGuard {
    /// What a suspended span had collected, parked here while the
    /// thread collects for other spans. Boxed: only a sampled burst
    /// that parks pays for it.
    suspended: Option<Box<SpanHarvest>>,
    /// Chains are single-threaded; keep the guard that way too.
    _not_send: PhantomData<*const ()>,
}

/// Everything a span saw: per-layer admission costs from this thread
/// plus the store-side segments the shard owners sent back.
#[derive(Debug)]
pub struct SpanHarvest {
    /// `Some(micros)` for every layer that recorded at least one
    /// segment, `None` for layers the span never saw.
    pub layer_us: [Option<u64>; LAYER_COUNT],
    /// Shard-thread segments in deposit order.
    pub store: Vec<StoreSegment>,
}

impl SpanHarvest {
    const EMPTY: SpanHarvest = SpanHarvest {
        layer_us: [None; LAYER_COUNT],
        store: Vec::new(),
    };
}

/// Begin a sampled span on this thread, starting from a clean slate.
pub fn enter() -> SpanGuard {
    ACTIVE.with(|a| a.set(true));
    COLLECTED.with(|c| c.replace(SpanHarvest::EMPTY));
    SpanGuard {
        suspended: None,
        _not_send: PhantomData,
    }
}

impl SpanGuard {
    /// Stop collecting: lift what the span has off the thread and
    /// deactivate it, so another span may run here meanwhile. A no-op
    /// on a span that is already suspended.
    pub fn suspend(&mut self) {
        if self.suspended.is_none() {
            let collected = COLLECTED.with(|c| c.replace(SpanHarvest::EMPTY));
            self.suspended = Some(Box::new(collected));
            ACTIVE.with(|a| a.set(false));
        }
    }

    /// Carry on collecting where [`SpanGuard::suspend`] left off. A
    /// no-op on a span that is not suspended.
    pub fn resume(&mut self) {
        if let Some(collected) = self.suspended.take() {
            COLLECTED.with(|c| c.replace(*collected));
            ACTIVE.with(|a| a.set(true));
        }
    }

    /// End the span and harvest its segments.
    pub fn finish(mut self) -> SpanHarvest {
        self.resume();
        COLLECTED.with(|c| c.replace(SpanHarvest::EMPTY))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // A suspended span is not the thread's active one.
        if self.suspended.is_none() {
            ACTIVE.with(|a| a.set(false));
        }
    }
}

/// Whether a span is active on this thread — the one-boolean probe the
/// server uses to decide if a mutation envelope should carry timing.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// The start of one layer segment: `Some(now)` when a span is active
/// on this thread, `None` (one thread-local load) otherwise.
#[inline]
pub fn start() -> Option<Instant> {
    if active() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Deposit a store-side segment of the request being resolved. A no-op
/// when no span is active (unsampled requests).
#[inline]
pub fn record_store(seg: StoreSegment) {
    if active() {
        COLLECTED.with(|c| c.borrow_mut().store.push(seg));
    }
}

/// Close a segment opened by [`start`], charging its elapsed
/// microseconds to `kind`. A `None` segment (no active span) is free.
#[inline]
pub fn record(kind: LayerKind, segment: Option<Instant>) {
    let Some(started) = segment else { return };
    let us = started.elapsed().as_micros() as u64;
    COLLECTED.with(|c| {
        let slot = &mut c.borrow_mut().layer_us[kind.index()];
        *slot = Some(slot.unwrap_or(0).saturating_add(us));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_span_means_free_segments() {
        assert!(start().is_none());
        record(LayerKind::Auth, None); // must not panic or record
    }

    #[test]
    fn segments_accumulate_per_layer_and_harvest() {
        let guard = enter();
        let t = start();
        assert!(t.is_some(), "span active");
        record(LayerKind::Auth, t);
        record(LayerKind::Auth, start()); // second segment, same layer
        record(LayerKind::Ttl, start());
        let harvest = guard.finish();
        assert!(harvest.layer_us[LayerKind::Auth.index()].is_some());
        assert!(harvest.layer_us[LayerKind::Ttl.index()].is_some());
        assert_eq!(
            harvest.layer_us[LayerKind::Deadline.index()],
            None,
            "never touched"
        );
        assert!(start().is_none(), "span closed after finish");
    }

    #[test]
    fn store_segments_ride_the_harvest_only_while_active() {
        let seg = StoreSegment {
            shard: 1,
            queue_us: 10,
            apply_us: 20,
        };
        record_store(seg); // no span: dropped
        let guard = enter();
        assert!(active());
        record_store(seg);
        let harvest = guard.finish();
        assert_eq!(harvest.store, vec![seg], "only the in-span deposit kept");
        assert!(!active());
        // A fresh span starts with an empty store table.
        let guard = enter();
        assert!(guard.finish().store.is_empty());
    }

    #[test]
    fn a_suspended_span_keeps_its_tables_across_another_span() {
        let seg = StoreSegment {
            shard: 0,
            queue_us: 1,
            apply_us: 2,
        };
        let mut parked = enter();
        record(LayerKind::Auth, start());
        parked.suspend();
        assert!(!active(), "nothing is charged while suspended");
        record_store(seg); // dropped: no span is active
        {
            // Another connection's span runs to completion meanwhile.
            let other = enter();
            record(LayerKind::Ttl, start());
            let harvest = other.finish();
            assert_eq!(harvest.layer_us[LayerKind::Auth.index()], None);
        }
        // Dropping a suspended span must not end somebody else's.
        let mut dropped = enter();
        dropped.suspend();
        let bystander = enter();
        drop(dropped);
        assert!(active());
        drop(bystander);

        parked.resume();
        assert!(active());
        record_store(seg);
        let harvest = parked.finish();
        assert!(harvest.layer_us[LayerKind::Auth.index()].is_some());
        assert_eq!(harvest.layer_us[LayerKind::Ttl.index()], None);
        assert_eq!(harvest.store, vec![seg]);
    }

    #[test]
    fn dropping_the_guard_deactivates_the_span() {
        {
            let _guard = enter();
            assert!(start().is_some());
        }
        assert!(start().is_none());
    }

    #[test]
    fn reentering_resets_stale_costs() {
        let guard = enter();
        record(LayerKind::Trace, start());
        drop(guard);
        let guard = enter();
        let harvest = guard.finish();
        assert_eq!(
            harvest.layer_us, [None; LAYER_COUNT],
            "fresh span starts clean"
        );
    }
}
