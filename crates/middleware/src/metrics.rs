//! Pipeline observability: per-command latency histograms and
//! per-layer counters, which the server lays out after its own planes
//! on `STATS` and `/metrics` — and
//! [`declare_metrics!`](crate::declare_metrics), the one place a plane
//! says which counters and gauges it has.
//!
//! The rate limiter's admission/refill counters are
//! [`dego_juc::LongAdder`]s — the striped, contention-relieved sums the
//! token-bucket design calls for. Every other counter is a plain
//! relaxed atomic ([`RelaxedCounter`], the same doctrine as the
//! server's `ServerStats`: statistics, not synchronization — a
//! `LongAdder` here would buy nothing and its per-bump stall-proxy
//! accounting would tax the hot path). Latencies go into fixed
//! log₂-bucket histograms of relaxed atomics: recording is one
//! `fetch_add`, never a lock. Every histogram here is lifetime-only
//! ([`LatencyHistogram`]); the one figure anything acts on over a
//! rolling window, a shard's ack p99, is a [`WindowedHistogram`] kept
//! by the shard's one writer.

use crate::config::TraceConfig;
use crate::flight::CaptureRing;
use crate::pipeline::{LayerKind, LAYER_COUNT};
use crate::prom::{Histograms, Quantiles, Row, Surface, P50_P99};
use dego_juc::LongAdder;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// A relaxed event counter (statistics, not synchronization).
#[derive(Debug, Default)]
pub struct RelaxedCounter(AtomicU64);

impl RelaxedCounter {
    /// Count one event.
    #[inline]
    pub fn increment(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events at once (the batched paths' amortized bump).
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The total so far.
    pub fn sum(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter (`STATS RESET`). Relaxed like every other
    /// access: a bump racing the reset may land on either side.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// What a declared row's reading is taken from: a live cell, or the
/// plain number a snapshot copied out of one.
pub trait Reading {
    /// The value now.
    fn reading(&self) -> u64;
}

impl Reading for RelaxedCounter {
    fn reading(&self) -> u64 {
        self.sum()
    }
}

impl Reading for LongAdder {
    fn reading(&self) -> u64 {
        self.sum().max(0) as u64
    }
}

impl Reading for u64 {
    fn reading(&self) -> u64 {
        *self
    }
}

/// Declare a metrics plane: every unlabelled counter and gauge is
/// **one row**, and everything else about it is generated.
///
/// A *stored* row, `/// Help.` then `field: Cell => "stat_name",`, is a
/// counter `STATS RESET` zeroes, in a cell with `default()`, `reset()`
/// and [`Reading`]. A *computed* row, `/// Help.` then
/// `Gauge "stat_name" = expr,` inside the readings function, has no
/// cell. Generated: the struct; its constructor (cells zeroed, the
/// plane's other fields from the initialisers written there); `ROWS`;
/// `reset_rows()`; and the readings function, in `ROWS` order.
/// Prefixing `… struct Snapshot = snapshot of` adds a `Copy` struct of
/// one `pub u64` per stored row and `snapshot()`, and the readings
/// function may then be declared on it. [`PipelineMetrics`] is the
/// model invocation.
#[macro_export]
macro_rules! declare_metrics {
    (
        $(#[$smeta:meta])* $svis:vis struct $snap:ident = snapshot of
        $(#[$meta:meta])* $vis:vis struct $name:ident {$(
            #[doc = $help:literal] $fvis:vis $field:ident: $cell:ty => $stat:literal,
        )*}
        $($rest:tt)*
    ) => {
        $(#[$smeta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $svis struct $snap {$(
            #[doc = $help] pub $field: u64,
        )*}

        impl $name {
            /// Copy every stored row's reading out.
            pub fn snapshot(&self) -> $snap {
                $snap {$( $field: $crate::Reading::reading(&self.$field), )*}
            }
        }

        $crate::declare_metrics! {
            $(#[$meta])* $vis struct $name {$(
                #[doc = $help] $fvis $field: $cell => $stat,
            )*}
            $($rest)*
        }
    };
    (
        $(#[$meta:meta])* $vis:vis struct $name:ident {$(
            #[doc = $help:literal] $fvis:vis $field:ident: $cell:ty => $stat:literal,
        )*}
        $(#[$nmeta:meta])* $nvis:vis fn $new:ident($($arg:ident: $argty:ty),*) {$(
            $(#[$rmeta:meta])* $rvis:vis $rfield:ident: $rty:ty = $rinit:expr,
        )*}
        impl $target:ident {
            $(#[$vmeta:meta])*
            $vvis:vis fn $values:ident(&$me:ident $(, $varg:ident: $vargty:ty)*) {$(
                #[doc = $dhelp:literal] $dkind:ident $dstat:literal = $dvalue:expr,
            )*}
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( #[doc = $help] $fvis $field: $cell, )*
            $( $(#[$rmeta])* $rvis $rfield: $rty, )*
        }

        impl $name {
            /// Every unlabelled counter and gauge of this plane: the
            /// stored rows in field order, then the computed ones.
            pub const ROWS: &'static [$crate::Row] = &[
                $( $crate::Row { stat: $stat, kind: $crate::Kind::Counter, resets: true, help: $help }, )*
                $( $crate::Row { stat: $dstat, kind: $crate::Kind::$dkind, resets: false, help: $dhelp }, )*
            ];

            $(#[$nmeta])*
            $nvis fn $new($($arg: $argty),*) -> Self {
                $name {
                    $( $field: <$cell>::default(), )*
                    $( $rfield: $rinit, )*
                }
            }

            /// Zero every stored row (`STATS RESET`).
            pub fn reset_rows(&self) {
                $( self.$field.reset(); )*
            }
        }

        impl $target {
            $(#[$vmeta])*
            $vvis fn $values(&$me $(, $varg: $vargty)*) -> Vec<u64> {
                vec![
                    $( $crate::Reading::reading(&$me.$field), )*
                    $( $dvalue, )*
                ]
            }
        }
    };
}

/// Number of log₂ buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1)) µs`, with the last bucket open-ended (≥ ~34 s).
const BUCKETS: usize = 26;

/// A fixed log₂-bucket latency histogram (microseconds).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of every recorded sample (for Prometheus `_sum`).
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Record one sample of `micros`.
    #[inline]
    pub fn record(&self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Sum of every recorded sample in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts in Prometheus form: `(Some(le),
    /// count ≤ le)` per bucket — bucket `i` holds integer samples up to
    /// `2^i − 1` µs inclusive, so that is its `le` bound — with a final
    /// `(None, total)` entry for the open `+Inf` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::with_capacity(BUCKETS);
        let mut running = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            running += b.load(Ordering::Relaxed);
            if i < BUCKETS - 1 {
                out.push((Some((1u64 << i) - 1), running));
            } else {
                out.push((None, running));
            }
        }
        out
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Raw per-bucket counts, low bucket first.
    pub fn counts(&self) -> [u64; BUCKETS] {
        self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed))
    }

    /// Zero every bucket and the sample sum. Relaxed: a record racing
    /// the clear may survive it or vanish — statistics, not state.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_us.store(0, Ordering::Relaxed);
    }

    /// The upper bound (µs) of the bucket containing the `p`-th
    /// percentile sample, or 0 when empty. `p` in `0.0..=1.0`.
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile_from_counts(&self.counts(), p)
    }
}

/// The percentile scan shared by lifetime histograms and merged
/// window slots: the upper bound (µs) of the bucket containing the
/// `p`-th percentile sample, or 0 when empty.
pub fn percentile_from_counts(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket i spans [2^(i-1), 2^i) µs (bucket 0 is [0,1)).
            return 1u64 << i;
        }
    }
    1u64 << (BUCKETS - 1)
}

/// Window slots per histogram: the window is divided into this many
/// rotating sub-histograms, so expiry granularity is window/6.
const WINDOW_SLOTS: usize = 6;

/// One rotating slot: a histogram plus the coarse-tick epoch it
/// currently belongs to.
#[derive(Debug)]
struct WindowSlot {
    /// The epoch whose samples this slot holds (`u64::MAX` = never
    /// touched, so epoch 0 is representable).
    epoch: AtomicU64,
    hist: LatencyHistogram,
}

/// A latency histogram with a rolling window on top, kept by **one
/// writer**.
///
/// Every sample lands in a lifetime [`LatencyHistogram`] (served under
/// the `_total` stat names and as the Prometheus histogram family,
/// which stays cumulative per the exposition contract) *and* in one of
/// `WINDOW_SLOTS` slot histograms keyed by a coarse epoch tick
/// (`elapsed_secs / slot_secs`). Reads merge the slots whose epoch
/// falls inside the last full window, so the percentile describes the
/// last ~window seconds and recovers after a spike clears instead of
/// averaging it forever.
///
/// Only the writer rotates: recording into a slot still holding an
/// older epoch clears it and stamps the new one — a plain check, clear
/// and store, because nobody else records. Its one user is a shard's
/// ack latency, recorded only by whoever holds the shard's write side.
/// Reads never rotate: the epoch filter of
/// [`WindowedHistogram::windowed_counts_at`] already skips a stale
/// slot. [`WindowedHistogram::reset`] (`STATS RESET`) is the one
/// foreign writer; a sample racing it may survive or vanish.
///
/// `window_secs = 0` disables windowing entirely (no slots): the
/// percentile is then the lifetime one.
#[derive(Debug)]
pub struct WindowedHistogram {
    lifetime: LatencyHistogram,
    slots: Vec<WindowSlot>,
    slot_secs: u64,
    born: Instant,
}

impl WindowedHistogram {
    /// A histogram windowed over [`WindowedHistogram::width`] of
    /// `window_secs`.
    pub fn new(window_secs: u64) -> Self {
        let width = Self::width(window_secs);
        let slot = |_| WindowSlot {
            epoch: AtomicU64::new(u64::MAX),
            hist: LatencyHistogram::new(),
        };
        let slots = if width == 0 {
            Vec::new()
        } else {
            (0..WINDOW_SLOTS).map(slot).collect()
        };
        WindowedHistogram {
            lifetime: LatencyHistogram::new(),
            slots,
            slot_secs: (width / WINDOW_SLOTS as u64).max(1),
            born: Instant::now(),
        }
    }

    /// The window a request for `window_secs` gets: whole slots of at
    /// least a second each, or 0 (no window).
    pub fn width(window_secs: u64) -> u64 {
        if window_secs == 0 {
            return 0;
        }
        (window_secs / WINDOW_SLOTS as u64).max(1) * WINDOW_SLOTS as u64
    }

    /// The effective window width in seconds (0 when disabled).
    pub fn window_secs(&self) -> u64 {
        self.slot_secs * self.slots.len() as u64
    }

    /// The coarse epoch tick `now` falls in.
    fn epoch(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.born).as_secs() / self.slot_secs
    }

    /// Record one sample of `micros`, taken at `now`. The one writer's
    /// call.
    #[inline]
    pub fn record(&self, micros: u64, now: Instant) {
        self.record_at(micros, self.epoch(now));
    }

    /// Record one sample at an explicit `epoch` — the deterministic
    /// test hook behind the window-merge proptest and the
    /// spike-recovery test. Records into the lifetime histogram too,
    /// exactly like [`WindowedHistogram::record`].
    pub fn record_at(&self, micros: u64, epoch: u64) {
        self.lifetime.record(micros);
        if self.slots.is_empty() {
            return;
        }
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        if slot.epoch.load(Ordering::Relaxed) != epoch {
            // The previous epoch's samples go before the slot is
            // stamped (Release, against the readers' Acquire), so no
            // reader counts them as this epoch's.
            slot.hist.clear();
            slot.epoch.store(epoch, Ordering::Release);
        }
        slot.hist.record(micros);
    }

    /// Merged per-bucket counts over the window ending at `epoch`
    /// (slots whose epoch lies in `(epoch - WINDOW_SLOTS, epoch]`).
    pub fn windowed_counts_at(&self, epoch: u64) -> [u64; BUCKETS] {
        let mut merged = [0u64; BUCKETS];
        for slot in &self.slots {
            let e = slot.epoch.load(Ordering::Acquire);
            // `e + slots > epoch` (not `e > epoch - slots`): the
            // subtraction form saturates at epoch 0 and would exclude
            // the very first epoch from its own window.
            if e != u64::MAX && e <= epoch && e + self.slots.len() as u64 > epoch {
                for (m, c) in merged.iter_mut().zip(slot.hist.counts()) {
                    *m += c;
                }
            }
        }
        merged
    }

    /// The `p`-th percentile over the last window, or over the
    /// lifetime histogram when windowing is disabled. Allocates
    /// nothing and writes nothing: the shed layer reads it on every
    /// write burst's admission.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.slots.is_empty() {
            return self.lifetime.percentile_us(p);
        }
        let epoch = self.epoch(Instant::now());
        percentile_from_counts(&self.windowed_counts_at(epoch), p)
    }

    /// Lifetime sample count (windowing never subtracts from this).
    pub fn count(&self) -> u64 {
        self.lifetime.count()
    }

    /// The cumulative lifetime histogram (the Prometheus family and the
    /// `_total` stat lines render from this).
    pub fn lifetime(&self) -> &LatencyHistogram {
        &self.lifetime
    }

    /// Drop every sample, lifetime and windowed (`STATS RESET`).
    pub fn reset(&self) {
        self.lifetime.clear();
        for slot in &self.slots {
            slot.epoch.store(u64::MAX, Ordering::Relaxed);
            slot.hist.clear();
        }
    }
}

/// A latency class: label, histogram, the percentiles `STATS` shows,
/// and the histogram family's help.
type Class<'a> = (&'static str, &'a LatencyHistogram, Quantiles, String);

/// Live breaker state per class on both surfaces.
const BREAKER_STATE: Row = Row::gauge(
    "mw_breaker_{}_state",
    "Per-class breaker state: 0 closed, 1 open, 2 half-open.",
);

/// The scrape-side name of `mw_window_secs`, which predates the rule.
const WINDOW_SECONDS: Row = Row::gauge(
    "mw_window_seconds",
    "Rolling window of the shard ack percentiles (0 = windowing disabled).",
);

declare_metrics! {
    /// Shared counters for the whole pipeline: each layer bumps its own
    /// section; [`PipelineMetrics::render`] lays them all out.
    #[derive(Debug)]
    pub struct PipelineMetrics {
        /// Commands observed by the trace layer.
        pub traced: RelaxedCounter => "mw_traced",
        /// Pipelined bursts the trace layer observed.
        pub batches: RelaxedCounter => "mw_batches",
        /// Commands carried by those bursts.
        pub batch_commands: RelaxedCounter => "mw_batch_commands",

        /// Requests admitted by the rate limiter.
        pub rate_admitted: LongAdder => "mw_rate_admitted",
        /// Requests rejected by the rate limiter.
        pub rate_rejected: LongAdder => "mw_rate_rejected",
        /// Tokens refilled into buckets.
        pub rate_refilled: LongAdder => "mw_rate_refilled",

        /// Commands admitted by the ACL check.
        pub auth_admitted: RelaxedCounter => "mw_auth_admitted",
        /// Commands or AUTH attempts denied.
        pub auth_denied: RelaxedCounter => "mw_auth_denied",
        /// Successful AUTH logins.
        pub auth_logins: RelaxedCounter => "mw_auth_logins",
        /// Runtime policy/token reloads.
        pub auth_reloads: RelaxedCounter => "mw_auth_reloads",

        /// Commands measured against a deadline budget.
        pub deadline_checked: RelaxedCounter => "mw_deadline_checked",
        /// Commands that blew their budget.
        pub deadline_missed: RelaxedCounter => "mw_deadline_missed",

        /// Commands measured by the circuit breaker.
        pub breaker_checked: RelaxedCounter => "mw_breaker_checked",
        // Or while the half-open probe quota was spent.
        /// Commands rejected while a breaker was open.
        pub breaker_rejected: RelaxedCounter => "mw_breaker_rejected",
        /// Closed- or half-open-to-open breaker transitions.
        pub breaker_trips: RelaxedCounter => "mw_breaker_trips",
        /// Half-open-to-closed breaker transitions.
        pub breaker_recoveries: RelaxedCounter => "mw_breaker_recoveries",
        /// Probe commands admitted through a half-open breaker.
        pub breaker_probes: RelaxedCounter => "mw_breaker_probes",

        /// Writes whose target shard's pressure was read.
        pub shed_checked: RelaxedCounter => "mw_shed_checked",
        /// Writes shed because their target shard was distressed.
        pub shed_shed: RelaxedCounter => "mw_shed_shed",

        /// Commands inspected by the TTL layer.
        pub ttl_checked: RelaxedCounter => "mw_ttl_checked",
        /// TTL timers armed by EXPIRE.
        pub ttl_armed: RelaxedCounter => "mw_ttl_armed",
        /// Keys lazily expired on GET.
        pub ttl_expired: RelaxedCounter => "mw_ttl_expired",

        // The denominator for `layer_admission_us`.
        /// Requests whose per-layer costs were sampled.
        pub spans_sampled: RelaxedCounter => "mw_spans_sampled",
    }

    /// A zeroed sink whose slowlog and trace rings are sized per
    /// `trace`.
    pub fn with_trace(trace: &TraceConfig) {
        /// Latency of read-class commands (µs, end-to-end below trace).
        pub read_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Latency of write-class commands.
        pub write_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Latency of control-class commands.
        pub control_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Whole-batch latency (µs): one sample per burst, however many
        /// commands it carried.
        pub batch_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Breaker state per class (read 0, write 1): 0 closed,
        /// 1 open, 2 half-open — the word the breaker's state machine
        /// moves by CAS, read as a gauge; not reset by `STATS RESET`.
        pub breaker_state: [AtomicU8; 2] = [AtomicU8::new(0), AtomicU8::new(0)],
        /// Per-layer admission cost (µs), indexed by
        /// [`LayerKind::index`]; fed only by sampled spans, so each
        /// histogram describes the sampled population.
        pub layer_admission_us: [LatencyHistogram; LAYER_COUNT] =
            std::array::from_fn(|_| LatencyHistogram::new()),
        /// The slow-command ring served by `SLOWLOG GET|RESET|LEN`.
        pub slowlog: CaptureRing =
            CaptureRing::new(trace.slowlog_threshold_us, trace.slowlog_capacity),
        /// The flight-recorder ring of sampled cross-thread trace
        /// trees, served by `TRACE GET|RESET|LEN` and `/trace`.
        pub trace: CaptureRing = CaptureRing::new(trace.trace_threshold_us, trace.trace_capacity),
        /// The width of the shard ack window, `mw_window_secs`.
        window_secs: u64 = WindowedHistogram::width(trace.window_secs),
    }

    impl PipelineMetrics {
        /// Every row's reading, in [`PipelineMetrics::ROWS`] order;
        /// `depth` is the configured stack depth.
        fn values(&self, depth: usize) {
            /// Configured middleware layers.
            Gauge "mw_depth" = depth as u64,
            /// Entries currently held by the slowlog ring.
            Gauge "mw_slowlog_len" = self.slowlog.len() as u64,
            /// Slow commands captured since boot (resets keep counting).
            Counter "mw_slowlog_total" = self.slowlog.total(),
            /// Trace trees currently held by the flight recorder.
            Gauge "mw_trace_len" = self.trace.len() as u64,
            /// Trace trees captured since boot (resets keep counting).
            Counter "mw_trace_total" = self.trace.total(),
        }
    }
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineMetrics {
    /// A zeroed sink with the default trace/slowlog configuration.
    pub fn new() -> Self {
        Self::with_trace(&TraceConfig::default())
    }

    /// The four latency classes. `STATS` shows both percentiles of
    /// reads and writes, only the p99 of a burst, nothing of the
    /// control class.
    fn classes(&self) -> [Class<'_>; 4] {
        let below = |class| format!("{class}-class command latency below trace, microseconds.");
        [
            ("read", &self.read_latency, P50_P99, below("Read")),
            ("write", &self.write_latency, P50_P99, below("Write")),
            ("control", &self.control_latency, &[], below("Control")),
            (
                "batch",
                &self.batch_latency,
                &P50_P99[1..],
                "Whole-burst latency, microseconds.".to_string(),
            ),
        ]
    }

    /// `STATS RESET`: zero every counter and histogram. The slowlog
    /// and trace rings are *not* touched — they have their own `RESET`
    /// verbs.
    pub fn reset(&self) {
        self.reset_rows();
        let classes = self.classes().map(|(_, hist, ..)| hist);
        for hist in classes.into_iter().chain(&self.layer_admission_us) {
            hist.clear();
        }
    }

    /// Fold one harvested span into the per-layer histograms.
    pub fn note_span(&self, costs: &[Option<u64>; LAYER_COUNT]) {
        self.spans_sampled.increment();
        for (i, cost) in costs.iter().enumerate() {
            if let Some(us) = cost {
                self.layer_admission_us[i].record(*us);
            }
        }
    }

    /// The pipeline plane on either surface: the `mw_*` lines appended
    /// to a `STATS` reply, or the `dego_mw_*` families of a scrape.
    /// Every percentile line is over the histogram's lifetime (since
    /// boot or the last `STATS RESET`).
    pub fn render(&self, depth: usize, out: &mut Surface<'_>) {
        out.rows(Self::ROWS, &self.values(depth));
        for (class, hist, quantiles, help) in &self.classes() {
            let family = Histograms {
                stat: &format!("mw_{class}_{{p}}_us"),
                quantiles,
                family: &format!("dego_mw_{class}_us"),
                key: "",
                help,
            };
            out.histograms(&family, &[("", hist)]);
        }
        let layers = LayerKind::ALL.map(|k| (k.name(), &self.layer_admission_us[k.index()]));
        let family = Histograms {
            stat: "mw_{l}_us_{p}",
            quantiles: P50_P99,
            family: "dego_mw_layer_admission_us",
            key: "layer",
            help: "Sampled per-layer admission cost, microseconds.",
        };
        out.histograms(&family, &layers);
        let state = |slot: usize| self.breaker_state[slot].load(Ordering::Relaxed) as u64;
        out.labelled(
            &BREAKER_STATE,
            "class",
            &[("read", state(0)), ("write", state(1))],
        );
        // The shard ack window's width, named before the naming rule.
        if let Surface::Stats(lines) = out {
            return lines.push(format!("mw_window_secs={}", self.window_secs));
        }
        out.scalar(&WINDOW_SECONDS, self.window_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_lines(m: &PipelineMetrics, depth: usize) -> Vec<String> {
        let mut lines = Vec::new();
        m.render(depth, &mut Surface::Stats(&mut lines));
        lines
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_us(0.5), 0, "empty histogram");
        for us in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        // With six samples the median rank (3) lands in the [2,4) bucket.
        assert_eq!(h.percentile_us(0.5), 4);
        assert!(h.percentile_us(1.0) >= 1_000_000);
    }

    #[test]
    fn huge_samples_land_in_the_open_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_us(0.99), 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn histogram_tracks_sum_and_cumulative_buckets() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.sum_us(), 10);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (Some(0), 1), "zero lands in the 0-bucket");
        assert_eq!(buckets[3], (Some(7), 3), "5µs lands at le=7");
        assert_eq!(buckets.last().unwrap(), &(None, 3), "+Inf holds the total");
        let bounds: Vec<_> = buckets.iter().filter_map(|(le, _)| *le).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "le strictly grows");
    }

    #[test]
    fn stat_lines_render_name_value() {
        let m = PipelineMetrics::new();
        m.traced.increment();
        for line in stat_lines(&m, 5) {
            let (name, value) = line.split_once('=').expect("name=value");
            assert!(name.starts_with("mw_"), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn windowed_percentile_recovers_after_a_spike_expires() {
        let h = WindowedHistogram::new(60); // 6 slots × 10 s
        for _ in 0..100 {
            h.record_at(100, 10); // baseline ~100 µs at epoch 10
        }
        for _ in 0..100 {
            h.record_at(1_000_000, 11); // 1 s spike at epoch 11
        }
        assert!(
            percentile_from_counts(&h.windowed_counts_at(11), 0.99) >= 1_000_000,
            "spike dominates the window while fresh"
        );
        // Two windows later the spike slots have expired; only fresh
        // baseline samples are inside the window.
        for _ in 0..10 {
            h.record_at(100, 24);
        }
        let p99 = percentile_from_counts(&h.windowed_counts_at(24), 0.99);
        assert!(p99 <= 128, "windowed p99 back to baseline, got {p99}");
        // The lifetime histogram still remembers the spike.
        assert!(h.lifetime().percentile_us(0.99) >= 1_000_000);
        assert_eq!(h.count(), 210, "lifetime count keeps everything");
    }

    #[test]
    fn windowed_slots_reuse_clears_stale_epochs() {
        let h = WindowedHistogram::new(60);
        h.record_at(50, 3);
        // Epoch 9 maps to the same slot as epoch 3 (9 % 6 == 3): the
        // rotation must clear the old samples before recording.
        h.record_at(7, 9);
        let counts = h.windowed_counts_at(9);
        assert_eq!(counts.iter().sum::<u64>(), 1, "stale epoch-3 sample gone");
        assert_eq!(h.count(), 2, "lifetime unaffected by rotation");
    }

    #[test]
    fn zero_window_disables_slots_and_serves_lifetime() {
        let h = WindowedHistogram::new(0);
        assert_eq!(h.window_secs(), 0);
        h.record(1000, Instant::now());
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_us(0.5), 1024, "lifetime percentile");
        assert!(h.windowed_counts_at(0).iter().all(|&c| c == 0));
    }

    /// Only the writer rotates: a read between two records, over the
    /// live window or past every slot's expiry, leaves each slot's
    /// epoch as it was, and the next record moves only its own slot.
    #[test]
    fn a_read_between_two_records_rotates_no_slot() {
        let h = WindowedHistogram::new(60);
        let epochs = |h: &WindowedHistogram| -> Vec<u64> {
            h.slots
                .iter()
                .map(|s| s.epoch.load(Ordering::Relaxed))
                .collect()
        };
        h.record_at(100, 3);
        let before = epochs(&h);
        assert_eq!(h.percentile_us(0.99), 0, "epoch 3 is not the clock's");
        assert_eq!(h.windowed_counts_at(3).iter().sum::<u64>(), 1);
        assert_eq!(h.windowed_counts_at(20).iter().sum::<u64>(), 0, "expired");
        assert_eq!(epochs(&h), before, "the reads rotated nothing");
        h.record_at(100, 4);
        let mut moved = before;
        moved[4] = 4;
        assert_eq!(epochs(&h), moved);
    }

    #[test]
    fn reset_zeroes_counters_and_both_histogram_planes() {
        let m = PipelineMetrics::new();
        m.traced.increment();
        m.rate_admitted.increment();
        m.read_latency.record(500);
        let mut costs = [None; LAYER_COUNT];
        costs[LayerKind::Ttl.index()] = Some(9);
        m.note_span(&costs);
        m.reset();
        assert_eq!(m.traced.sum(), 0);
        assert_eq!(m.rate_admitted.sum(), 0);
        assert_eq!(m.read_latency.count(), 0);
        assert_eq!(m.read_latency.percentile_us(0.99), 0);
        assert_eq!(m.spans_sampled.sum(), 0);
        assert_eq!(m.layer_admission_us[LayerKind::Ttl.index()].count(), 0);
    }

    #[test]
    fn render_lines_cover_spans_and_slowlog() {
        let m = PipelineMetrics::new();
        let mut costs = [None; LAYER_COUNT];
        costs[LayerKind::Auth.index()] = Some(3);
        m.note_span(&costs);
        let lines = stat_lines(&m, 5);
        assert!(lines.contains(&"mw_spans_sampled=1".to_string()));
        assert!(lines.contains(&"mw_auth_us_p50=4".to_string()));
        assert!(lines.contains(&"mw_auth_us_p99=4".to_string()));
        assert!(
            lines.contains(&"mw_trace_us_p50=0".to_string()),
            "untouched"
        );
        assert!(lines.contains(&"mw_slowlog_len=0".to_string()));
    }

    #[test]
    fn render_lines_cover_every_layer() {
        let m = PipelineMetrics::new();
        m.traced.increment();
        m.rate_admitted.increment();
        m.auth_admitted.increment();
        m.deadline_checked.increment();
        m.ttl_checked.increment();
        let lines = stat_lines(&m, 5);
        assert!(lines.contains(&"mw_depth=5".to_string()));
        assert!(lines.contains(&"mw_traced=1".to_string()));
        assert!(lines.contains(&"mw_rate_admitted=1".to_string()));
        assert!(lines.contains(&"mw_auth_admitted=1".to_string()));
        assert!(lines.contains(&"mw_deadline_checked=1".to_string()));
        assert!(lines.contains(&"mw_ttl_checked=1".to_string()));
    }
}
