//! The sharded storage plane: dego-core adjusted objects behind N
//! shard-owner threads, handed work **one run at a time**.
//!
//! Every structure is segmented with [`SegmentationKind::Hash`] into
//! one segment per shard, and each shard's segment writers are claimed
//! by exactly one **shard-owner thread** — the single-writer (M2,
//! CWMR) discipline the paper's map adjustment requires. Reads go
//! straight to the lock-free segment readers from any thread;
//! mutations travel through a [`dego_core::mpsc`] queue (the paper's
//! `QueueMasp`, MWSR) to the owning shard, which applies them in
//! arrival order and acks through a per-connection reply channel.
//!
//! **The unit of hand-off is the run.** A connection stages the
//! consecutive mutations of a burst per shard and publishes them as
//! one [`Envelope`] per touched shard: one queue node, one reply
//! handle, one timestamp, one `unpark`. The owner drains its inbox in
//! one sweep, turns each envelope's entries from [`Entry::Op`] into
//! [`Entry::Ack`] **in place**, and sends the same `Vec` back as the
//! envelope's single ack — so the sender's grouping is never
//! re-derived, and what the loop thread allocated the loop thread
//! frees. After the send the owner rings the sender's event-loop
//! doorbell ([`Envelope::waker`]): every burst waits for its acks
//! parked, its loop in `epoll_wait`. Telemetry counts
//! **mutations**, not envelopes: `enqueued` rises by the run's length
//! at publish, `drained` by one per apply, and `ack_us` / a traced
//! entry's `queue_us` are measured from the publish.
//!
//! Routing is [`dego_core::home_segment`] of the key (or user id), the
//! same hash the maps use internally, so a shard writer never touches
//! a foreign segment (`debug_assert`ed inside dego-core).
//!
//! **The owner's write path costs what a single writer should**
//! ([`Owned::apply`]). It reads its own rows through
//! `SegmentedHashMapWriter::peek` — no pin, no clone: nobody else
//! unlinks them — and its `put`s are blind, so an overwrite allocates
//! the new value's box and nothing else. A timeline is a
//! [`dego_core::swmr_recent()`] log **appended to in place**: the
//! `timelines` map holds each user's read half, the owner keeps the
//! append halves in plain owner-local state ([`Owned::logs`]), and a
//! `TimelinePush` is one local lookup and two stores — no allocation,
//! nothing retired. `TIMELINE` copies its window straight out of the
//! ring, newest first.
//!
//! **Key timers live with their key's owner.** `EXPIRE` is a mutation
//! of its key's row, and the deadlines sit in an owner-written segment
//! beside the keyspace ([`Tables::expiry`]). A `GET` that finds its
//! key's timer lapsed becomes a reap mutation. A reap never destroys
//! an acknowledged rewrite: one owner applies a key's mutations in
//! FIFO order and checks the timer again when it applies the reap, and
//! a `SET` or `DEL` that got there first cleared it, so the reap
//! answers the live row. While no timer is armed anywhere, a `GET`
//! pays one relaxed load for all this and a write one branch.

use crate::event_loop::LoopWaker;
use crate::protocol::Reply;
use crate::stats::ServerStats;
use dego_core::{
    home_segment, mpsc, swmr_recent, CounterIncrementOnly, RecentReader, RecentWriter,
    SegmentationKind, SegmentedHashMap, SegmentedHashMapWriter, SegmentedSet, SegmentedSetWriter,
};
use dego_middleware::{
    declare_metrics, Histograms, PipelineMetrics, RelaxedCounter, Row, StoreSegment, Surface,
    WindowedHistogram, P50_P99,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::{Builder, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Slots in a timeline's ring: messages never linger longer than this.
/// What it exceeds [`crate::TIMELINE_LIMIT`] by is how many posts may
/// land on a timeline while it is being read before the read retries.
pub const TIMELINE_KEEP: usize = 64;
// `RecentReader::newest` refuses a window of the whole ring.
const _: () = assert!(crate::TIMELINE_LIMIT < TIMELINE_KEEP);

/// How many followers receive a post synchronously (mirrors
/// `dego_retwis::FANOUT_LIMIT`).
pub const FANOUT_LIMIT: usize = 16;

/// One slot of an [`Envelope`]: a planned mutation on the way to the
/// shard owner, its acknowledgement on the way back. Both carry the
/// per-connection sequence number replies are reassembled by.
pub(crate) enum Entry {
    /// To apply.
    Op(u64, Mutation),
    /// Applied: the reply plus — for a traced envelope — the
    /// store-side span segment the owner stamped (queue wait and apply
    /// time on the owner thread).
    Ack(u64, Reply, Option<StoreSegment>),
}

/// One connection's run of consecutive mutations for one shard.
pub(crate) struct Envelope {
    /// The run, in issue order; sent back through `reply` once every
    /// entry is an [`Entry::Ack`].
    pub entries: Vec<Entry>,
    /// The issuing connection's ack inlet.
    pub reply: Sender<Vec<Entry>>,
    /// The issuing connection's event-loop doorbell, rung after the
    /// ack send so the woken loop's sweep observes the ack.
    pub waker: Arc<LoopWaker>,
    /// When the run was published — the shard owner turns this into
    /// the publish→apply latency samples.
    pub enqueued_at: Instant,
    /// Whether a trace span is open on the issuing connection: asks
    /// the shard owner to stamp a [`StoreSegment`] into each ack.
    /// Untraced envelopes pay nothing extra on the owner thread.
    pub traced: bool,
}

/// Storage shards — on `/metrics`, and the first line of both `STATS`
/// and `STATS SHARDS`.
pub const SHARDS: Row = Row::gauge("shards", "Storage shards.");
/// Keys in the string keyspace.
pub const KEYS: Row = Row::gauge("keys", "Keys in the string keyspace.");

declare_metrics! {
    /// Per-shard observability counters: the load-shedding inputs
    /// (`STATS SHARDS`, `/metrics`) for one shard owner. Each row is a
    /// family labelled by shard: the `{}` in its name.
    ///
    /// Counters are relaxed atomics and the histograms are the same
    /// log₂-bucket windowed histograms the middleware uses — statistics,
    /// not synchronization, on the storage plane's hottest path.
    pub(crate) struct ShardTelemetry {
        /// Mutations handed to the shard since boot.
        enqueued: RelaxedCounter => "shard{}_enqueued",
    }

    fn new(window_secs: u64) {
        /// Mutations the owner has drained and applied.
        drained: AtomicU64 = AtomicU64::new(0),
        /// Mutations per owner sweep (the group-commit width, log₂ buckets).
        drained_batch: WindowedHistogram = WindowedHistogram::new(window_secs),
        /// Publish→apply latency per mutation, microseconds.
        ack_us: WindowedHistogram = WindowedHistogram::new(window_secs),
    }

    impl ShardTelemetry {
        /// Every row's reading, in [`ShardTelemetry::ROWS`] order.
        fn values(&self) {
            /// Mutations enqueued to the shard but not yet applied.
            Gauge "shard{}_queue_depth" = self.queue_depth(),
        }
    }
}

impl ShardTelemetry {
    /// `STATS RESET`: zero the counters and both histogram planes.
    /// The enqueued/drained pair is zeroed together; a mutation in
    /// flight across the reset can transiently read as depth, which
    /// the next drain clears.
    pub fn reset(&self) {
        self.reset_rows();
        self.drained.store(0, Ordering::Relaxed);
        self.drained_batch.reset();
        self.ack_us.reset();
    }

    /// Mutations enqueued but not yet applied. The two counters are
    /// read independently, so the gauge can transiently read high
    /// while a drain is in flight — never negative.
    pub fn queue_depth(&self) -> u64 {
        self.enqueued
            .sum()
            .saturating_sub(self.drained.load(Ordering::Relaxed))
    }

    /// Publish→apply latency histogram, microseconds.
    pub fn ack_us(&self) -> &WindowedHistogram {
        &self.ack_us
    }
}

/// A storage-plane mutation (the payload of an [`Entry::Op`]). `Reap`
/// is a `GET` whose timer a loop saw lapsed.
pub(crate) enum Mutation {
    Set { key: String, value: String },
    Del { key: String },
    Incr { key: String, delta: i64 },
    Expire { key: String, millis: u64 },
    Reap { key: String },
    AddUser { user: u64 },
    TimelinePush { user: u64, msg: u64 },
    FollowerAdd { followee: u64, follower: u64 },
    FollowerDel { followee: u64, follower: u64 },
    GroupJoin { user: u64 },
    GroupLeave { user: u64 },
    ProfileBump { user: u64 },
}

/// The storage plane's tables, each Hash-segmented one segment per
/// shard. Any thread reads them; [`Tables::claim`] hands a shard owner
/// its segment of each.
#[derive(Clone)]
pub(crate) struct Tables {
    /// The string keyspace (GET/SET/DEL/INCR).
    pub kv: Arc<SegmentedHashMap<String, String>>,
    /// key → when its timer lapses; few keys have one, so it starts small.
    pub expiry: Arc<SegmentedHashMap<String, u64>>,
    pub timers: Timers,
    /// user → the read half of their timeline log.
    pub timelines: Arc<SegmentedHashMap<u64, RecentReader>>,
    /// user → who follows them.
    pub followers: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    /// user → profile version.
    pub profiles: Arc<SegmentedHashMap<u64, u64>>,
    /// The interest group.
    pub group: Arc<SegmentedSet<u64>>,
}

/// What every thread shares of the key timers besides their deadlines.
#[derive(Clone)]
pub(crate) struct Timers {
    /// What a deadline counts microseconds from.
    epoch: Instant,
    /// Timers armed on all shards: while none is, nobody looks one up.
    /// Relaxed is enough: a `GET` that must see a timer comes after the
    /// ack of the `EXPIRE` that armed it, so coherence forbids it the
    /// older count, and the deadline itself is published by the map.
    armed: Arc<AtomicUsize>,
    /// Where the owners count `ttl_armed` and `ttl_expired`; `None`
    /// when the stack has no TTL layer, which refuses `EXPIRE`.
    pub metrics: Option<Arc<PipelineMetrics>>,
}

impl Timers {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The deadline `lookup` finds; one relaxed load while none is armed.
    fn deadline(&self, lookup: impl FnOnce() -> Option<u64>) -> Option<u64> {
        (self.armed.load(Ordering::Relaxed) > 0).then(lookup)?
    }

    /// Whether `deadline`, if there is one, has passed.
    fn lapsed(&self, deadline: Option<u64>) -> bool {
        deadline.is_some_and(|at| self.now_us() >= at)
    }
}

impl Tables {
    fn new(shards: usize, capacity: usize, ttl: Option<Arc<PipelineMetrics>>) -> Self {
        Tables {
            kv: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
            expiry: SegmentedHashMap::new(shards, 0, SegmentationKind::Hash),
            timers: Timers {
                epoch: Instant::now(),
                armed: Arc::new(AtomicUsize::new(0)),
                metrics: ttl,
            },
            timelines: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
            followers: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
            profiles: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
            group: SegmentedSet::new(shards, capacity, SegmentationKind::Hash),
        }
    }

    /// Claim the calling thread's segment of every table.
    fn claim(&self) -> Owned {
        Owned {
            kv: self.kv.writer(),
            expiry: self.expiry.writer(),
            timers: self.timers.clone(),
            timelines: self.timelines.writer(),
            logs: HashMap::new(),
            followers: self.followers.writer(),
            profiles: self.profiles.writer(),
            group: self.group.writer(),
        }
    }
}

/// The shared storage plane.
pub(crate) struct Store {
    shards: usize,
    pub tables: Tables,
    /// Mutations applied, one owner-exclusive cell per shard (C3).
    pub applied: Arc<CounterIncrementOnly>,
    /// Mutation inlets, indexed by shard.
    producers: Vec<mpsc::Producer<Envelope>>,
    /// Shard threads, for post-enqueue wakeups.
    wakers: Vec<Thread>,
    /// Per-shard observability counters, indexed by shard.
    telemetry: Vec<Arc<ShardTelemetry>>,
    /// `applied` reading at the last `STATS RESET`
    /// ([`CounterIncrementOnly`] cells are owner-exclusive and cannot
    /// be zeroed, so resets subtract an offset instead).
    applied_offset: AtomicU64,
    /// Chaos hook: nanoseconds every shard owner sleeps before applying
    /// each mutation (0 = off). Shared with every [`ShardCtx`] so the
    /// stall can be turned on and off at runtime
    /// ([`crate::ServerHandle::set_shard_delay`]).
    shard_delay_ns: Arc<AtomicU64>,
}

impl Store {
    /// The shard owning `key`.
    pub fn shard_of_key(&self, key: &String) -> usize {
        home_segment(key, self.shards)
    }

    /// The shard owning `user`'s rows.
    pub fn shard_of_user(&self, user: u64) -> usize {
        home_segment(&user, self.shards)
    }

    /// Whether `key`'s timer has lapsed: a `GET` of it is a reap for
    /// its owner to make.
    pub fn lapsed(&self, key: &String) -> bool {
        let Tables { expiry, timers, .. } = &self.tables;
        timers.lapsed(timers.deadline(|| expiry.get(key)))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Hand a run to its owning shard and wake the owner.
    pub(crate) fn enqueue(&self, shard: usize, run: Envelope) {
        self.telemetry[shard].enqueued.add(run.entries.len() as u64);
        self.producers[shard].offer(run);
        self.wakers[shard].unpark();
    }

    /// Wake a parked shard owner (e.g. to notice shutdown).
    pub(crate) fn wake(&self, shard: usize) {
        self.wakers[shard].unpark();
    }

    /// Per-shard observability counters, indexed by shard.
    pub(crate) fn telemetry(&self) -> &[Arc<ShardTelemetry>] {
        &self.telemetry
    }

    /// Mutations applied since boot or the last `STATS RESET` — the
    /// number `STATS` reports as `applied` (`/metrics` keeps the raw
    /// monotonic counter, as Prometheus counters must).
    pub(crate) fn applied_since_reset(&self) -> u64 {
        self.applied
            .get()
            .saturating_sub(self.applied_offset.load(Ordering::Relaxed))
    }

    /// Set (or clear) the per-mutation apply stall — the chaos hook the
    /// stuck-shard tests and the binary's drain drill lean on. Takes
    /// effect on the next mutation each shard owner applies.
    pub(crate) fn set_shard_delay(&self, delay: Option<Duration>) {
        let ns = delay.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.shard_delay_ns.store(ns, Ordering::Relaxed);
    }

    /// `STATS RESET` on the storage plane: zero every shard's
    /// telemetry and re-baseline the applied counter.
    pub(crate) fn reset_telemetry(&self) {
        for t in &self.telemetry {
            t.reset();
        }
        self.applied_offset
            .store(self.applied.get(), Ordering::Relaxed);
    }

    /// The storage plane's two gauges on either surface.
    pub(crate) fn render_gauges(&self, out: &mut Surface<'_>) {
        out.scalar(&SHARDS, self.shards as u64);
        out.scalar(&KEYS, self.tables.kv.len() as u64);
    }

    /// The per-shard plane on either surface — the body of a
    /// `STATS SHARDS` reply, or the `dego_shard_*` families of a scrape:
    /// per-shard queue depth, group-commit batch shape, and
    /// publish→apply latency percentiles — the inputs a load shedder
    /// (or a human squinting at a hot shard) needs. `STATS` percentile
    /// lines report the rolling window, with `_total`-suffixed lifetime
    /// twins (same contract as the `mw_*` block).
    pub(crate) fn render_shards(&self, out: &mut Surface<'_>) {
        let labels: Vec<String> = (0..self.shards).map(|i| i.to_string()).collect();
        let shards = || labels.iter().map(String::as_str).zip(&self.telemetry);
        let values: Vec<Vec<u64>> = self.telemetry.iter().map(|t| t.values()).collect();
        for (r, row) in ShardTelemetry::ROWS.iter().enumerate() {
            let members: Vec<_> = labels
                .iter()
                .zip(&values)
                .map(|(l, v)| (l.as_str(), v[r]))
                .collect();
            out.labelled(row, "shard", &members);
        }
        if let Surface::Stats(lines) = out {
            // On the scrape side this is the batch family's `_count`.
            let drained = |(l, t): (_, &Arc<ShardTelemetry>)| {
                format!("shard{l}_drained_batches={}", t.drained_batch.count())
            };
            lines.extend(shards().map(drained));
        }
        let batch = Histograms {
            stat: "shard{l}_batch_{p}",
            quantiles: P50_P99,
            family: "dego_shard_drained_batch_size",
            key: "shard",
            help: "Group-commit width: mutations per drained batch.",
        };
        let members: Vec<_> = shards().map(|(l, t)| (l, &t.drained_batch)).collect();
        out.histograms(&batch, &members);
        let ack = Histograms {
            stat: "shard{l}_ack_{p}_us",
            family: "dego_shard_ack_us",
            help: "Enqueue-to-apply latency per mutation, microseconds.",
            ..batch
        };
        let members: Vec<_> = shards().map(|(l, t)| (l, &t.ack_us)).collect();
        out.histograms(&ack, &members);
    }
}

/// The storage plane plus its shard-owner threads.
pub(crate) struct ShardRuntime {
    pub store: Arc<Store>,
    pub threads: Vec<JoinHandle<()>>,
}

/// Build the storage plane and spawn one owner thread per shard.
///
/// Shard threads are spawned **serially**: each claims its segment
/// writers before the next thread starts, so shard `i` always holds
/// slot `i` of every segmented structure and key routing stays aligned
/// with writer ownership.
///
/// `apply_delay` seeds the chaos hook: when set, every owner sleeps
/// that long before applying each mutation (a "stuck shard" for
/// timeout and load-shedding tests). The stall lives in a shared
/// atomic, so [`Store::set_shard_delay`] can change it at runtime.
/// `window_secs` sizes the telemetry histograms' rolling window. An
/// owner exits once `stop` is up and its queue is drained, so `stop`
/// must go up only when nothing can publish any more. `ttl` is the
/// TTL layer's metrics (see [`Timers::metrics`]).
pub(crate) fn spawn_shards(
    shards: usize,
    capacity: usize,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    apply_delay: Option<Duration>,
    window_secs: u64,
    ttl: Option<Arc<PipelineMetrics>>,
) -> ShardRuntime {
    assert!(shards > 0, "need at least one shard");
    let tables = Tables::new(shards, capacity, ttl);
    let applied = CounterIncrementOnly::new(shards);
    let telemetry: Vec<Arc<ShardTelemetry>> = (0..shards)
        .map(|_| Arc::new(ShardTelemetry::new(window_secs)))
        .collect();
    let shard_delay_ns = Arc::new(AtomicU64::new(
        apply_delay.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64),
    ));

    let mut producers = Vec::with_capacity(shards);
    let mut wakers = Vec::with_capacity(shards);
    let mut threads = Vec::with_capacity(shards);

    for (shard, shard_telemetry) in telemetry.iter().enumerate() {
        let (producer, consumer) = mpsc::queue::<Envelope>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<usize>();
        let ctx = ShardCtx {
            shard,
            tables: tables.clone(),
            applied: Arc::clone(&applied),
            stats: Arc::clone(&stats),
            telemetry: Arc::clone(shard_telemetry),
            stop: Arc::clone(&stop),
            apply_delay: Arc::clone(&shard_delay_ns),
        };
        let handle = Builder::new()
            .name(format!("dego-shard-{shard}"))
            .spawn(move || shard_loop(ctx, consumer, ready_tx))
            .expect("spawn shard thread");
        wakers.push(handle.thread().clone());
        threads.push(handle);
        producers.push(producer);
        let claimed = ready_rx
            .recv()
            .expect("shard thread died before claiming its writers");
        assert_eq!(claimed, shard, "serialized startup must assign slot=shard");
    }

    let store = Arc::new(Store {
        shards,
        tables,
        applied,
        producers,
        wakers,
        telemetry,
        applied_offset: AtomicU64::new(0),
        shard_delay_ns,
    });
    ShardRuntime { store, threads }
}

struct ShardCtx {
    shard: usize,
    tables: Tables,
    applied: Arc<CounterIncrementOnly>,
    stats: Arc<ServerStats>,
    telemetry: Arc<ShardTelemetry>,
    /// Up once nothing can publish any more (see [`spawn_shards`]).
    stop: Arc<AtomicBool>,
    /// Nanoseconds slept before each apply (0 = off); shared with the
    /// store so the stall can change at runtime.
    apply_delay: Arc<AtomicU64>,
}

/// The owner loop: claim this shard's writers, then drain and apply
/// envelopes in arrival order until stopped, answering each with one
/// ack — its own entries, applied in place.
fn shard_loop(ctx: ShardCtx, mut inbox: mpsc::Consumer<Envelope>, ready: Sender<usize>) {
    let mut owned = ctx.tables.claim();
    let cell = ctx.applied.cell();
    debug_assert_eq!(owned.kv.slot(), ctx.shard);
    ready.send(owned.kv.slot()).expect("startup handshake");

    loop {
        let batch = inbox.drain();
        if batch.is_empty() {
            if ctx.stop.load(Ordering::Acquire) {
                // Flag is up and the queue is drained: done.
                return;
            }
            // Sleep until a producer wakes us (or a timeout, to
            // re-check the stop flag).
            std::thread::park_timeout(Duration::from_millis(10));
            continue;
        }
        ctx.stats.note_shard_batch();
        let swept: usize = batch.iter().map(|run| run.entries.len()).sum();
        ctx.telemetry.drained_batch.record(swept as u64);
        for run in batch {
            let Envelope {
                mut entries,
                reply,
                waker,
                enqueued_at,
                traced,
            } = run;
            for entry in &mut entries {
                let Entry::Op(seq, op) = std::mem::replace(entry, Entry::Ack(0, Reply::Nil, None))
                else {
                    unreachable!("an envelope arrives as ops");
                };
                // Stamp the apply start before the delay hook: a stuck
                // shard's stall is apply time, and the trace tree must
                // account for it.
                let apply_started = traced.then(Instant::now);
                let stall_ns = ctx.apply_delay.load(Ordering::Relaxed);
                if stall_ns > 0 {
                    std::thread::sleep(Duration::from_nanos(stall_ns));
                }
                let reply = owned.apply(op);
                let seg = apply_started.map(|started| StoreSegment {
                    shard: ctx.shard,
                    // Saturates to zero if clocks read out of order.
                    queue_us: started.duration_since(enqueued_at).as_micros() as u64,
                    apply_us: started.elapsed().as_micros() as u64,
                });
                ctx.telemetry
                    .ack_us
                    .record(enqueued_at.elapsed().as_micros() as u64);
                ctx.telemetry.drained.fetch_add(1, Ordering::Relaxed);
                // Rejected mutations (e.g. INCR on a non-integer) must
                // not inflate the applied count.
                if !matches!(reply, Reply::Error(_)) {
                    cell.inc();
                    ctx.stats.note_applied();
                }
                *entry = Entry::Ack(seq, reply, seg);
            }
            // A closed channel means the connection died mid-flight;
            // the mutations were still applied.
            let _ = reply.send(entries);
            waker.wake();
        }
    }
}

/// One shard's write handles: what its owner thread, and nobody else,
/// holds.
struct Owned {
    kv: SegmentedHashMapWriter<String, String>,
    expiry: SegmentedHashMapWriter<String, u64>,
    timers: Timers,
    timelines: SegmentedHashMapWriter<u64, RecentReader>,
    /// The append halves of the logs whose read halves `timelines`
    /// publishes — plain owner-local state, same key set as this
    /// shard's segment of that map.
    logs: HashMap<u64, RecentWriter>,
    followers: SegmentedHashMapWriter<u64, Vec<u64>>,
    profiles: SegmentedHashMapWriter<u64, u64>,
    group: SegmentedSetWriter<u64>,
}

impl Owned {
    /// `user`'s timeline log, created (and its read half published) on
    /// first use.
    fn timeline(&mut self, user: u64) -> &mut RecentWriter {
        let Owned {
            logs, timelines, ..
        } = self;
        logs.entry(user).or_insert_with(|| {
            let (log, reader) = swmr_recent(TIMELINE_KEEP);
            timelines.put(user, reader);
            log
        })
    }

    /// When `key`'s timer lapses, if it has one.
    fn deadline(&self, key: &String) -> Option<u64> {
        self.timers
            .deadline(|| self.expiry.peek(key, |at| at.copied()))
    }

    /// Drop `key`'s timer, if it has one.
    fn disarm(&mut self, key: &String) {
        if self.deadline(key).is_some() {
            self.expiry.remove(key);
            self.timers.armed.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// A key whose timer has lapsed is gone: drop its row and its
    /// timer, and count it expired. Returns whether it was.
    fn reap(&mut self, key: &String) -> bool {
        let lapsed = self.timers.lapsed(self.deadline(key));
        if lapsed {
            self.kv.remove(key);
            self.disarm(key);
            if let Some(m) = &self.timers.metrics {
                m.ttl_expired.increment();
            }
        }
        lapsed
    }

    /// Arm (or re-arm) `key`'s timer to lapse `millis` from now.
    fn arm(&mut self, key: String, millis: u64) {
        if self.deadline(&key).is_none() {
            self.timers.armed.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.timers.now_us();
        self.expiry
            .put(key, now.saturating_add(millis.saturating_mul(1_000)));
        if let Some(m) = &self.timers.metrics {
            m.ttl_armed.increment();
        }
    }

    /// Apply one mutation through this shard's writers, consuming it
    /// (its strings move into the map). Single-writer per segment, so
    /// read-modify-write sequences on owned rows are races with nobody
    /// — and the read half is a borrow, not a pinned clone.
    fn apply(&mut self, mutation: Mutation) -> Reply {
        match mutation {
            Mutation::Set { key, value } => {
                self.disarm(&key);
                self.kv.put(key, value);
                Reply::Status("OK")
            }
            Mutation::Del { key } => {
                self.disarm(&key);
                self.kv.remove(&key);
                Reply::Status("OK")
            }
            Mutation::Incr { key, delta } => {
                // An expired value must not leak into the sum.
                self.reap(&key);
                let current = self
                    .kv
                    .peek(&key, |raw| raw.map_or(Ok(0), |raw| raw.parse::<i64>()));
                let Ok(current) = current else {
                    return Reply::Error(format!("value at {key:?} is not an integer"));
                };
                let next = current.wrapping_add(delta);
                self.disarm(&key);
                self.kv.put(key, next.to_string());
                Reply::Int(next)
            }
            Mutation::Expire { key, millis } => {
                // A lapsed key is gone: it is not re-armed but reaped.
                if self.reap(&key) || self.kv.peek(&key, |row| row.is_none()) {
                    return Reply::Int(0);
                }
                self.arm(key, millis);
                Reply::Int(1)
            }
            Mutation::Reap { key } => {
                if self.reap(&key) {
                    return Reply::Nil;
                }
                // A rewrite since the loop looked cleared the timer.
                let row = self.kv.peek(&key, |row| row.cloned());
                row.map_or(Reply::Nil, Reply::Value)
            }
            Mutation::AddUser { user } => {
                self.timeline(user);
                if self.followers.peek(&user, |row| row.is_none()) {
                    self.followers.put(user, Vec::new());
                }
                if self.profiles.peek(&user, |version| version.is_none()) {
                    self.profiles.put(user, 0);
                }
                Reply::Status("OK")
            }
            Mutation::TimelinePush { user, msg } => {
                self.timeline(user).push(msg);
                Reply::Status("OK")
            }
            Mutation::FollowerAdd { followee, follower } => {
                let grown = self.followers.peek(&followee, |row| {
                    let row = row.map_or(&[][..], Vec::as_slice);
                    (!row.contains(&follower)).then(|| {
                        let mut grown = Vec::with_capacity(row.len() + 1);
                        grown.extend_from_slice(row);
                        grown.push(follower);
                        grown
                    })
                });
                if let Some(row) = grown {
                    self.followers.put(followee, row);
                }
                Reply::Status("OK")
            }
            Mutation::FollowerDel { followee, follower } => {
                let shrunk = self.followers.peek(&followee, |row| {
                    let row = row.filter(|row| row.contains(&follower))?;
                    // `FollowerAdd` admits no duplicates: one goes.
                    let mut shrunk = Vec::with_capacity(row.len() - 1);
                    shrunk.extend(row.iter().filter(|f| **f != follower));
                    Some(shrunk)
                });
                if let Some(row) = shrunk {
                    self.followers.put(followee, row);
                }
                Reply::Status("OK")
            }
            Mutation::GroupJoin { user } => {
                self.group.add(user);
                Reply::Status("OK")
            }
            Mutation::GroupLeave { user } => {
                self.group.remove(&user);
                Reply::Status("OK")
            }
            Mutation::ProfileBump { user } => {
                let version = self.profiles.peek(&user, |v| v.copied().unwrap_or(0)) + 1;
                self.profiles.put(user, version);
                Reply::Int(version as i64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_alloc::allocations;

    /// The owner's allocation budget, counted on this thread with the
    /// writers claimed here: a mutation allocates what it leaves in the
    /// store and nothing else — no clone of the row it extends, none of
    /// the value it overwrites, nothing at all for a timeline append.
    #[test]
    fn apply_allocates_only_what_it_stores() {
        let tables = Tables::new(1, 64, None);
        let mut owned = tables.claim();
        let mut spent = |op: Mutation| {
            let before = allocations();
            let reply = owned.apply(op);
            assert!(!matches!(reply, Reply::Error(_)), "rejected");
            allocations() - before
        };
        let set = |value: &str| Mutation::Set {
            key: "key".into(),
            value: value.into(),
        };
        let incr = || Mutation::Incr {
            key: "n".into(),
            delta: 1_000_000_007,
        };
        let follow = |follower| Mutation::FollowerAdd {
            followee: 1,
            follower,
        };

        spent(Mutation::AddUser { user: 1 });
        // Well past a wrap of the ring.
        for msg in 0..3 * TIMELINE_KEEP as u64 {
            assert_eq!(spent(Mutation::TimelinePush { user: 1, msg }), 0);
        }

        spent(set("a first value, long enough to be worth not cloning"));
        assert_eq!(spent(set("its replacement")), 1, "the value's box");

        spent(incr());
        assert_eq!(spent(incr()), 2, "the new string and its box");

        spent(follow(2));
        assert_eq!(spent(follow(3)), 2, "the new row and its box");
        assert_eq!(spent(follow(3)), 0, "already following");

        let mut row = Vec::new();
        tables.timelines.read(&1, |log| log.newest(3, &mut row));
        assert_eq!(row, [191, 190, 189]);
        assert_eq!(
            tables.kv.get(&"key".into()).as_deref(),
            Some("its replacement")
        );
        assert_eq!(tables.kv.get(&"n".into()).as_deref(), Some("2000000014"));
        assert_eq!(tables.followers.get(&1), Some(vec![2, 3]));
    }
}
