//! Server-side operation counters, the `STATS` snapshot, and the one
//! assembly of every metric plane.
//!
//! Per-connection counters are plain relaxed atomics (statistics, not
//! synchronization — the same doctrine as [`dego_metrics`]); the
//! mutation-application counter lives in the storage plane as a
//! [`dego_core::CounterIncrementOnly`] with one owner-exclusive cell
//! per shard. The server block also carries the process-wide contention
//! stall proxy from [`dego_metrics::GLOBAL`]. Each plane renders and
//! resets itself; `render` and `reset` here are the one place the planes
//! are assembled, whatever layers the stack has.

use crate::store::{Store, SHARDS};
use dego_metrics::ContentionSnapshot;
use dego_middleware::{declare_metrics, RelaxedCounter, Row, Stack, Surface};

declare_metrics! {
    /// A point-in-time view of [`ServerStats`], served by the `STATS`
    /// verb and `ServerHandle::stats`.
    pub struct StatsSnapshot = snapshot of
    /// Relaxed event counters bumped by the connection threads;
    /// `reset_rows` is their `STATS RESET`.
    #[derive(Debug, Default)]
    pub struct ServerStats {
        /// Connections accepted since boot.
        connections: RelaxedCounter => "connections",
        /// Request lines handled.
        commands: RelaxedCounter => "commands",
        /// GETs served (hit or miss).
        gets: RelaxedCounter => "gets",
        /// GETs that found the key.
        get_hits: RelaxedCounter => "get_hits",
        /// Mutations begun, staged for a shard or applied inline (a GET's reap too; a POST once).
        mutations: RelaxedCounter => "mutations",
        /// Mutations applied, filled in from the storage plane's count.
        applied: RelaxedCounter => "applied",
        /// TIMELINE reads served.
        timeline_reads: RelaxedCounter => "timeline_reads",
        /// Protocol errors returned.
        errors: RelaxedCounter => "errors",
        // fd pressure — EMFILE/ENFILE — and network stack hiccups; each
        // one also pays a bounded backoff sleep so the loop cannot
        // busy-spin.
        /// accept() failures observed by the accept loop.
        accept_errors: RelaxedCounter => "accept_errors",
        // The amortization ratio is `applied / shard_batches`.
        /// Write-side sweeps, by a shard's owner or a home loop, that applied mutations (group commits).
        shard_batches: RelaxedCounter => "shard_batches",
        // `--idle-timeout-ms`: idle that long with nothing in flight.
        /// Connections reaped by the event loops' idle-timeout sweep.
        idle_closed: RelaxedCounter => "idle_closed",
        // A loop that spins instead of waiting shows here first.
        /// epoll_wait returns across the event loops (timeouts included).
        loop_wakeups: RelaxedCounter => "loop_wakeups",
    }

    /// A zeroed sink.
    pub fn new() {}

    impl StatsSnapshot {
        /// Every row's reading, in [`ServerStats::ROWS`] order;
        /// `contention` is the process-wide stall proxy, which is shared
        /// telemetry `STATS RESET` does not touch.
        fn values(&self, contention: ContentionSnapshot) {
            /// Process-wide CAS retries (contention stall proxy).
            Counter "cas_failures" = contention.cas_failures,
            /// Process-wide lock spin events.
            Counter "lock_spins" = contention.lock_spins,
            /// Process-wide read-modify-write operations.
            Counter "rmw_ops" = contention.rmw_ops,
        }
    }
}

macro_rules! bump {
    ($($method:ident => $field:ident),* $(,)?) => {$(
        #[doc = concat!("Count one `", stringify!($field), "` event.")]
        #[inline]
        pub fn $method(&self) {
            self.$field.increment();
        }
    )*};
}

impl ServerStats {
    bump! {
        note_connection => connections,
        note_command => commands,
        note_get_miss => gets,
        note_mutation => mutations,
        note_timeline_read => timeline_reads,
        note_error => errors,
        note_accept_error => accept_errors,
        note_shard_batch => shard_batches,
        note_idle_closed => idle_closed,
        note_loop_wakeup => loop_wakeups,
    }

    /// Count a `GET` that found its key.
    #[inline]
    pub fn note_get_hit(&self) {
        self.gets.increment();
        self.get_hits.increment();
    }
}

/// The readiness gate as a scrape-side gauge (`READY` is its verb).
const READY: Row = Row::gauge(
    "ready",
    "1 while the server accepts new traffic, 0 once a drain began.",
);

/// A surface the metric planes are laid out on: `STATS`,
/// `STATS SHARDS`, or `/metrics` with the readiness gate.
pub(crate) enum View {
    Stats,
    Shards,
    Scrape { ready: bool },
}

/// The server block with the storage plane's applied count filled in:
/// since the last `STATS RESET`, or — for a scrape, whose counters must
/// be monotonic — since boot.
pub(crate) fn snapshot(stats: &ServerStats, store: &Store, monotonic: bool) -> StatsSnapshot {
    let mut snap = stats.snapshot();
    snap.applied = if monotonic {
        store.applied.get()
    } else {
        store.applied_since_reset()
    };
    snap
}

/// Lay `view` out on `out`, every plane from its own renderer. `STATS`
/// is the server block, the storage gauges, then the middleware block;
/// `STATS SHARDS` the shard count, then the per-shard rows; `/metrics`
/// readiness, server, gauges, shards, middleware.
pub(crate) fn render(
    view: View,
    stats: &ServerStats,
    store: &Store,
    stack: &Stack,
    out: &mut Surface<'_>,
) {
    let scrape = match view {
        View::Shards => {
            out.scalar(&SHARDS, store.shards() as u64);
            return store.render_shards(out);
        }
        View::Stats => false,
        View::Scrape { ready } => {
            out.scalar(&READY, ready as u64);
            true
        }
    };
    let snap = snapshot(stats, store, scrape);
    out.rows(
        ServerStats::ROWS,
        &snap.values(dego_metrics::GLOBAL.snapshot()),
    );
    store.render_gauges(out);
    if scrape {
        store.render_shards(out);
    }
    stack.metrics().render(stack.depth(), out);
}

/// `STATS RESET`: zero the server counters, the shard telemetry and
/// the middleware plane. The slowlog and trace rings keep their own
/// `RESET` verbs.
pub(crate) fn reset(stats: &ServerStats, store: &Store, stack: &Stack) {
    stats.reset_rows();
    store.reset_telemetry();
    stack.metrics().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counters_roll_up_into_the_snapshot() {
        let s = ServerStats::new();
        s.note_connection();
        s.note_command();
        s.note_command();
        s.note_get_hit();
        s.note_get_miss();
        s.note_mutation();
        s.note_timeline_read();
        s.note_error();
        let snap = s.snapshot();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.commands, 2);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.get_hits, 1);
        assert_eq!(snap.mutations, 1);
        assert_eq!(snap.applied, 0, "the storage plane fills it");
        assert_eq!(snap.timeline_reads, 1);
        assert_eq!(snap.errors, 1);
        let mut lines = Vec::new();
        let values = snap.values(dego_metrics::GLOBAL.snapshot());
        Surface::Stats(&mut lines).rows(ServerStats::ROWS, &values);
        assert!(lines.contains(&"get_hits=1".to_string()));
        assert!(lines.iter().any(|l| l.starts_with("cas_failures=")));
    }

    #[test]
    fn reset_returns_every_counter_to_zero() {
        let s = ServerStats::new();
        s.note_connection();
        s.note_command();
        s.note_get_hit();
        s.note_mutation();
        s.note_error();
        s.note_accept_error();
        s.note_shard_batch();
        assert_ne!(s.snapshot(), StatsSnapshot::default());
        s.reset_rows();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    /// The declarations are the contract both surfaces are derived
    /// from: no `STATS` name twice within or across the planes, and the
    /// derived Prometheus names unique and well-formed.
    #[test]
    fn declared_names_are_unique_across_planes() {
        use crate::store::{ShardTelemetry, KEYS, SHARDS};
        use dego_middleware::PipelineMetrics;
        let rows = [&SHARDS, &KEYS]
            .into_iter()
            .chain(ServerStats::ROWS)
            .chain(PipelineMetrics::ROWS)
            .chain(ShardTelemetry::ROWS);
        let (mut stats, mut families) = (HashSet::new(), HashSet::new());
        for row in rows {
            assert!(stats.insert(row.stat), "STATS name {} twice", row.stat);
            assert!(!row.help.trim().is_empty(), "{} has help", row.stat);
            let family = row.family();
            assert!(
                family
                    .bytes()
                    .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')),
                "family {family}"
            );
            assert!(families.insert(family), "family of {} twice", row.stat);
        }
        assert!(stats.len() > 40, "found the declarations");
    }
}
