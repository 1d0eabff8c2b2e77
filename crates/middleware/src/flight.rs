//! The request flight recorder: the capture rings behind `SLOWLOG` and
//! `TRACE` — one record type, one lock-free ring, instantiated twice.
//!
//! The trace layer offers every command (or pipelined burst) to the
//! **slowlog** ring, which keeps those whose wall-clock time crosses
//! `--slowlog-threshold-us`, and every *span-sampled* one to the
//! **trace** ring (the flight recorder), whose [`Capture`]s also carry
//! the store-side segments the shard owners stamped into the acks —
//! queue wait and apply time per mutation — so a tree spans both the
//! connection thread and the shard thread.
//!
//! They are two rings, each with its own capacity and threshold,
//! because they are fed at different rates: a sampled tree arrives
//! once per `sample_every` requests however fast it was, an
//! over-threshold command arrives rarely. In one shared ring the trees
//! would evict exactly the entries `SLOWLOG` exists to keep — and an
//! unsampled slow command has no tree to be a view of.
//!
//! The ring is built on `dego-juc` primitives — an [`AtomicLong`]
//! write cursor claimed with one `get_and_increment`, and one
//! epoch-reclaimed [`AtomicRef`] slot per position — so writers from
//! any connection thread never block each other or readers: a `GET`
//! taken mid-write simply sees the previous capture in that slot.
//! [`CaptureRing::entries`] returns the most recent `capacity`
//! captures sorted slowest-first (Redis-style);
//! [`CaptureRing::reset`] empties the ring but keeps ids monotonic.

use crate::pipeline::{LayerKind, LAYER_COUNT};
use dego_juc::{AtomicLong, AtomicRef};
use std::fmt::Write as _;
use std::sync::Arc;

/// Milliseconds since the Unix epoch — the wall-clock stamp captures
/// carry so they can be correlated with external logs.
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One store-side span: a mutation's life on its shard-owner thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSegment {
    /// The shard whose owner applied the mutation.
    pub shard: usize,
    /// Enqueue → apply start: queue wait, including time spent behind
    /// earlier mutations of the same drained batch.
    pub queue_us: u64,
    /// Apply start → applied.
    pub apply_us: u64,
}

/// What the trace layer saw of one command or burst — the part of a
/// [`Capture`] known before a ring accepts it.
#[derive(Clone, Copy, Debug)]
pub struct Observation<'a> {
    /// Peer address of the connection that issued it.
    pub client: &'a Arc<str>,
    /// Verb, or `"BATCH"` for a pipelined burst.
    pub verb: &'static str,
    /// Command class name (`read`/`write`/`control`, `batch` for bursts).
    pub class: &'static str,
    /// Commands in the burst (1 for a singleton).
    pub burst: usize,
    /// End-to-end wall-clock time through the whole stack.
    pub elapsed_us: u64,
}

/// One captured command or burst.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Monotonic within its ring (survives [`CaptureRing::reset`]).
    pub id: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch —
    /// the other fields are all relative durations.
    pub unix_ms: u64,
    /// Peer address of the connection that issued it.
    pub client: Arc<str>,
    /// Verb, or `"BATCH"` for a pipelined burst.
    pub verb: &'static str,
    /// Command class name (`read`/`write`/`control`, `batch` for bursts).
    pub class: &'static str,
    /// Commands in the burst (1 for a singleton).
    pub burst: usize,
    /// End-to-end wall-clock time through the whole stack.
    pub elapsed_us: u64,
    /// Per-layer admission cost on the connection thread when the span
    /// sampler covered this command (`None` inside for layers the span
    /// never touched); `None` for an unsampled slowlog entry.
    pub layers: Option<[Option<u64>; LAYER_COUNT]>,
    /// Store-side segments, one per mutation the request enqueued, in
    /// ack-arrival order; empty in the slowlog ring.
    pub store: Vec<StoreSegment>,
}

impl Capture {
    /// Every recorded segment as `(shard, name, µs)` — `shard` is
    /// `None` on the connection thread — layers first in canonical
    /// order, then each mutation's queue wait and apply. The one walk
    /// all three grammars render from.
    fn segments(&self) -> impl Iterator<Item = (Option<usize>, &'static str, u64)> + '_ {
        let layers = self.layers.iter().flat_map(|costs| {
            LayerKind::ALL
                .into_iter()
                .filter_map(|kind| Some((None, kind.name(), costs[kind.index()]?)))
        });
        let store = self.store.iter().flat_map(|seg| {
            [
                (Some(seg.shard), "queue", seg.queue_us),
                (Some(seg.shard), "apply", seg.apply_us),
            ]
        });
        layers.chain(store)
    }

    /// The line grammar both verbs share; they differ in the name of
    /// the total and in whether a segment names its thread.
    fn render_line(&self, total: &str, threads: bool) -> String {
        let mut line = format!(
            "id={} unix_ms={} client={} verb={} class={} burst={} {total}={} span=",
            self.id, self.unix_ms, self.client, self.verb, self.class, self.burst, self.elapsed_us
        );
        let header = line.len();
        for (shard, name, us) in self.segments() {
            if line.len() > header {
                line.push(',');
            }
            if threads {
                let _ = write!(line, "{}/", thread_name(shard));
            }
            let _ = write!(line, "{name}:{us}");
        }
        if line.len() == header {
            line.push('-');
        }
        line
    }

    /// The `SLOWLOG GET` wire line:
    /// `id=3 unix_ms=1722470400000 client=127.0.0.1:4242 verb=SET class=write burst=1 us=15000 span=auth:2,ttl:9`
    /// (`span=-` when the command was not sampled).
    pub fn slowlog_line(&self) -> String {
        self.render_line("us", false)
    }

    /// The `TRACE GET` wire line:
    /// `id=0 unix_ms=1722470400000 client=127.0.0.1:4242 verb=SET class=write burst=1 total_us=31050 span=conn/trace:3,conn/ttl:1,shard0/queue:12,shard0/apply:30021`
    /// (`span=-` when no segment was recorded).
    pub fn trace_line(&self) -> String {
        self.render_line("total_us", true)
    }

    /// The `/trace` endpoint's JSON object: metadata plus a flat
    /// `spans` array, each span tagged with the thread it ran on.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"unix_ms\":{},\"client\":\"{}\",\"verb\":\"{}\",\"class\":\"{}\",\"burst\":{},\"total_us\":{},\"spans\":[",
            self.id,
            self.unix_ms,
            escape_json(&self.client),
            self.verb,
            self.class,
            self.burst,
            self.elapsed_us
        );
        for (i, (shard, name, us)) in self.segments().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // The JSON grammar spells the queue segment out.
            let name = if name == "queue" { "queue_wait" } else { name };
            let _ = write!(
                out,
                "{{\"thread\":\"{}\",\"name\":\"{name}\",\"dur_us\":{us}}}",
                thread_name(shard)
            );
        }
        out.push_str("]}");
        out
    }
}

/// The thread a segment ran on: the connection's, or a shard owner's.
fn thread_name(shard: Option<usize>) -> String {
    shard.map_or_else(|| "conn".to_string(), |shard| format!("shard{shard}"))
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// client strings are peer addresses, but never trust them raw.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A lock-free ring of [`Capture`]s shared by every connection chain.
#[derive(Debug)]
pub struct CaptureRing {
    threshold_us: u64,
    slots: Vec<AtomicRef<Arc<Capture>>>,
    /// Write cursor; also the source of monotonic capture ids.
    head: AtomicLong,
}

impl CaptureRing {
    /// A ring holding the `capacity` most recent captures that took at
    /// least `threshold_us`. Capacity 0 disables capture entirely;
    /// threshold 0 retains everything offered.
    pub fn new(threshold_us: u64, capacity: usize) -> Self {
        CaptureRing {
            threshold_us,
            slots: (0..capacity).map(|_| AtomicRef::empty()).collect(),
            head: AtomicLong::new(0),
        }
    }

    /// Offer an observation; it is stored — one `Arc` — only when it
    /// crosses the threshold and the ring has capacity. Returns
    /// whether it was captured.
    pub fn offer(
        &self,
        seen: &Observation<'_>,
        layers: Option<[Option<u64>; LAYER_COUNT]>,
        store: Vec<StoreSegment>,
    ) -> bool {
        if self.slots.is_empty() || seen.elapsed_us < self.threshold_us {
            return false;
        }
        let id = self.head.get_and_increment() as u64;
        self.slots[(id as usize) % self.slots.len()].set(Arc::new(Capture {
            id,
            unix_ms: unix_ms_now(),
            client: Arc::clone(seen.client),
            verb: seen.verb,
            class: seen.class,
            burst: seen.burst,
            elapsed_us: seen.elapsed_us,
            layers,
            store,
        }));
        true
    }

    /// Snapshot the ring, sorted slowest-first (ties: newest first).
    pub fn entries(&self) -> Vec<Arc<Capture>> {
        let mut out: Vec<Arc<Capture>> = self.slots.iter().filter_map(|s| s.get()).collect();
        out.sort_by(|a, b| b.elapsed_us.cmp(&a.elapsed_us).then(b.id.cmp(&a.id)));
        out
    }

    /// The `/trace` body: every capture, slowest first, as one JSON
    /// object `{"entries":[{...},...]}`.
    pub fn render_json(&self) -> String {
        let entries: Vec<String> = self.entries().iter().map(|c| c.render_json()).collect();
        format!("{{\"entries\":[{}]}}\n", entries.join(","))
    }

    /// Occupied slots (saturates at capacity).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| !s.is_empty()).count()
    }

    /// Whether the ring currently holds no captures.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_empty())
    }

    /// Captures ever stored (not clamped by capacity or reset).
    pub fn total(&self) -> u64 {
        self.head.get() as u64
    }

    /// Drop every capture; ids keep counting from where they were.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Arc<str> {
        Arc::from("test:1")
    }

    /// Offer an unsampled observation of `elapsed_us` to `ring`.
    fn offer(ring: &CaptureRing, who: &Arc<str>, verb: &'static str, elapsed_us: u64) -> bool {
        let seen = Observation {
            client: who,
            verb,
            class: "write",
            burst: 1,
            elapsed_us,
        };
        ring.offer(&seen, None, Vec::new())
    }

    fn capture(layers: &[(LayerKind, u64)], store: Vec<StoreSegment>) -> Capture {
        let mut costs = [None; LAYER_COUNT];
        for (kind, us) in layers {
            costs[kind.index()] = Some(*us);
        }
        Capture {
            id: 9,
            unix_ms: 1_722_470_400_000,
            client: client(),
            verb: "SET",
            class: "write",
            burst: 1,
            elapsed_us: 31_050,
            layers: Some(costs),
            store,
        }
    }

    #[test]
    fn threshold_filters_and_capacity_rings() {
        let ring = CaptureRing::new(100, 2);
        assert!(!offer(&ring, &client(), "GET", 99), "below threshold");
        assert!(ring.is_empty());
        assert_eq!((ring.len(), ring.total()), (0, 0));
        assert!(offer(&ring, &client(), "SET", 500));
        assert!(offer(&ring, &client(), "DEL", 200));
        assert!(offer(&ring, &client(), "INCR", 300)); // evicts id 0
        let entries = ring.entries();
        assert_eq!(entries.len(), 2, "ring keeps the most recent capacity");
        assert_eq!(entries[0].elapsed_us, 300, "slowest-first among survivors");
        assert_eq!(entries[1].verb, "DEL");
        assert_eq!(ring.total(), 3);
    }

    #[test]
    fn reset_clears_but_ids_stay_monotonic() {
        let ring = CaptureRing::new(0, 4);
        offer(&ring, &client(), "GET", 1);
        offer(&ring, &client(), "GET", 2);
        ring.reset();
        assert_eq!(ring.len(), 0);
        assert!(ring.is_empty());
        offer(&ring, &client(), "GET", 3);
        assert_eq!(ring.entries()[0].id, 2, "ids continue across reset");
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let ring = CaptureRing::new(0, 0);
        assert!(!offer(&ring, &client(), "GET", u64::MAX));
        assert!(ring.entries().is_empty());
    }

    #[test]
    fn offered_entries_carry_a_wall_clock_stamp() {
        let ring = CaptureRing::new(0, 1);
        offer(&ring, &client(), "SET", 5);
        let entry = &ring.entries()[0];
        // Any plausible present-day stamp: after 2020-01-01.
        assert!(entry.unix_ms > 1_577_836_800_000, "got {}", entry.unix_ms);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let ring = Arc::new(CaptureRing::new(0, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let who: Arc<str> = Arc::from(format!("w{t}"));
                    for i in 0..500 {
                        offer(&ring, &who, "SET", 100 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 2000);
        let entries = ring.entries();
        assert_eq!(entries.len(), 8);
        for pair in entries.windows(2) {
            assert!(pair[0].elapsed_us >= pair[1].elapsed_us);
        }
    }

    #[test]
    fn render_line_is_well_formed() {
        let entry = capture(&[(LayerKind::Auth, 7), (LayerKind::Ttl, 0)], Vec::new());
        assert_eq!(
            entry.slowlog_line(),
            "id=9 unix_ms=1722470400000 client=test:1 verb=SET class=write burst=1 \
             us=31050 span=auth:7,ttl:0"
        );
        let unsampled = Capture {
            layers: None,
            ..entry
        };
        assert!(unsampled.slowlog_line().ends_with("span=-"));
    }

    #[test]
    fn render_line_spans_both_threads() {
        let seg = StoreSegment {
            shard: 0,
            queue_us: 12,
            apply_us: 30_021,
        };
        let tree = capture(&[(LayerKind::Trace, 3)], vec![seg]);
        assert_eq!(
            tree.trace_line(),
            "id=9 unix_ms=1722470400000 client=test:1 verb=SET class=write burst=1 \
             total_us=31050 span=conn/trace:3,shard0/queue:12,shard0/apply:30021"
        );
    }

    #[test]
    fn render_line_with_no_segments_is_dash() {
        assert!(capture(&[], Vec::new()).trace_line().ends_with("span=-"));
    }

    #[test]
    fn render_json_carries_store_segments() {
        let seg = StoreSegment {
            shard: 2,
            queue_us: 10,
            apply_us: 30,
        };
        let json = capture(&[(LayerKind::Auth, 5)], vec![seg]).render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"total_us\":31050,\"spans\":["), "{json}");
        assert!(
            json.contains("{\"thread\":\"conn\",\"name\":\"auth\",\"dur_us\":5}"),
            "{json}"
        );
        assert!(
            json.contains("{\"thread\":\"shard2\",\"name\":\"queue_wait\",\"dur_us\":10}"),
            "{json}"
        );
        assert!(
            json.contains("{\"thread\":\"shard2\",\"name\":\"apply\",\"dur_us\":30}"),
            "{json}"
        );
    }

    #[test]
    fn json_escaping_neutralizes_hostile_clients() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
