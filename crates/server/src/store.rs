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
//! frees. The eventfd doorbell is rung only when the sender said it
//! waits in `epoll_wait` ([`Envelope::waker`]); a sender blocked on
//! its ack channel is woken by the send itself. Telemetry counts
//! **mutations**, not envelopes: `enqueued` rises by the run's length
//! at publish, `drained` by one per apply, and `ack_us` / a traced
//! entry's `queue_us` are measured from the publish.
//!
//! Routing is [`dego_core::home_segment`] of the key (or user id), the
//! same hash the maps use internally, so a shard writer never touches
//! a foreign segment (`debug_assert`ed inside dego-core).

use crate::event_loop::LoopWaker;
use crate::protocol::Reply;
use crate::stats::ServerStats;
use dego_core::{
    home_segment, mpsc, CounterIncrementOnly, SegmentationKind, SegmentedHashMap, SegmentedSet,
};
use dego_middleware::{
    declare_metrics, Histograms, RelaxedCounter, Row, StoreSegment, Surface, WindowedHistogram,
    P50_P99,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::{Builder, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Messages never linger longer than this in a timeline row.
pub const TIMELINE_KEEP: usize = 64;

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
    /// The issuing connection's event-loop doorbell, when the sender
    /// will wait for this ack in `epoll_wait` (a parked burst); rung
    /// after the ack send so the woken loop's sweep observes it.
    /// `None` when the sender blocks on the ack channel itself.
    pub waker: Option<Arc<LoopWaker>>,
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

/// A storage-plane mutation (the payload of an [`Entry::Op`]).
pub(crate) enum Mutation {
    Set { key: String, value: String },
    Del { key: String },
    Incr { key: String, delta: i64 },
    AddUser { user: u64 },
    TimelinePush { user: u64, msg: u64 },
    FollowerAdd { followee: u64, follower: u64 },
    FollowerDel { followee: u64, follower: u64 },
    GroupJoin { user: u64 },
    GroupLeave { user: u64 },
    ProfileBump { user: u64 },
}

/// The shared storage plane.
pub(crate) struct Store {
    shards: usize,
    /// The string keyspace (GET/SET/DEL/INCR).
    pub kv: Arc<SegmentedHashMap<String, String>>,
    /// user → recent messages, newest last.
    pub timelines: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    /// user → who follows them.
    pub followers: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    /// user → profile version.
    pub profiles: Arc<SegmentedHashMap<u64, u64>>,
    /// The interest group.
    pub group: Arc<SegmentedSet<u64>>,
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
        out.scalar(&KEYS, self.kv.len() as u64);
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
/// `window_secs` sizes the telemetry histograms' rolling window.
pub(crate) fn spawn_shards(
    shards: usize,
    capacity: usize,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    apply_delay: Option<Duration>,
    window_secs: u64,
) -> ShardRuntime {
    assert!(shards > 0, "need at least one shard");
    let kv = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let timelines = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let followers = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let profiles = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let group = SegmentedSet::new(shards, capacity, SegmentationKind::Hash);
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
            kv: Arc::clone(&kv),
            timelines: Arc::clone(&timelines),
            followers: Arc::clone(&followers),
            profiles: Arc::clone(&profiles),
            group: Arc::clone(&group),
            applied: Arc::clone(&applied),
            stats: Arc::clone(&stats),
            telemetry: Arc::clone(shard_telemetry),
            shutdown: Arc::clone(&shutdown),
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
        kv,
        timelines,
        followers,
        profiles,
        group,
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
    kv: Arc<SegmentedHashMap<String, String>>,
    timelines: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    followers: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    profiles: Arc<SegmentedHashMap<u64, u64>>,
    group: Arc<SegmentedSet<u64>>,
    applied: Arc<CounterIncrementOnly>,
    stats: Arc<ServerStats>,
    telemetry: Arc<ShardTelemetry>,
    shutdown: Arc<AtomicBool>,
    /// Nanoseconds slept before each apply (0 = off); shared with the
    /// store so the stall can change at runtime.
    apply_delay: Arc<AtomicU64>,
}

/// The owner loop: claim this shard's writers, then drain and apply
/// envelopes in arrival order until shutdown, answering each with one
/// ack — its own entries, applied in place.
fn shard_loop(ctx: ShardCtx, mut inbox: mpsc::Consumer<Envelope>, ready: Sender<usize>) {
    let mut kv_w = ctx.kv.writer();
    let mut tl_w = ctx.timelines.writer();
    let mut fo_w = ctx.followers.writer();
    let mut pr_w = ctx.profiles.writer();
    let mut gr_w = ctx.group.writer();
    let cell = ctx.applied.cell();
    debug_assert_eq!(kv_w.slot(), ctx.shard);
    ready.send(kv_w.slot()).expect("startup handshake");

    loop {
        let batch = inbox.drain();
        if batch.is_empty() {
            if ctx.shutdown.load(Ordering::Acquire) {
                // Flag is up and the queue is drained: done.
                return;
            }
            // Sleep until a producer wakes us (or a timeout, to
            // re-check the shutdown flag).
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
                let reply = apply(op, &mut kv_w, &mut tl_w, &mut fo_w, &mut pr_w, &mut gr_w);
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
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }
}

/// Apply one mutation through this shard's writers, consuming it (its
/// strings move into the map). Single-writer per segment, so
/// read-modify-write sequences on owned rows are races with nobody.
fn apply(
    mutation: Mutation,
    kv_w: &mut dego_core::SegmentedHashMapWriter<String, String>,
    tl_w: &mut dego_core::SegmentedHashMapWriter<u64, Vec<u64>>,
    fo_w: &mut dego_core::SegmentedHashMapWriter<u64, Vec<u64>>,
    pr_w: &mut dego_core::SegmentedHashMapWriter<u64, u64>,
    gr_w: &mut dego_core::SegmentedSetWriter<u64>,
) -> Reply {
    match mutation {
        Mutation::Set { key, value } => {
            kv_w.put(key, value);
            Reply::Status("OK")
        }
        Mutation::Del { key } => {
            kv_w.remove(&key);
            Reply::Status("OK")
        }
        Mutation::Incr { key, delta } => {
            let current = match kv_w.get(&key) {
                None => 0,
                Some(raw) => match raw.parse::<i64>() {
                    Ok(n) => n,
                    Err(_) => return Reply::Error(format!("value at {key:?} is not an integer")),
                },
            };
            let next = current.wrapping_add(delta);
            kv_w.put(key, next.to_string());
            Reply::Int(next)
        }
        Mutation::AddUser { user } => {
            if tl_w.get(&user).is_none() {
                tl_w.put(user, Vec::new());
            }
            if fo_w.get(&user).is_none() {
                fo_w.put(user, Vec::new());
            }
            if pr_w.get(&user).is_none() {
                pr_w.put(user, 0);
            }
            Reply::Status("OK")
        }
        Mutation::TimelinePush { user, msg } => {
            let mut row = tl_w.get(&user).unwrap_or_default();
            row.push(msg);
            if row.len() > TIMELINE_KEEP {
                let excess = row.len() - TIMELINE_KEEP;
                row.drain(..excess);
            }
            tl_w.put(user, row);
            Reply::Status("OK")
        }
        Mutation::FollowerAdd { followee, follower } => {
            let mut row = fo_w.get(&followee).unwrap_or_default();
            if !row.contains(&follower) {
                row.push(follower);
            }
            fo_w.put(followee, row);
            Reply::Status("OK")
        }
        Mutation::FollowerDel { followee, follower } => {
            let mut row = fo_w.get(&followee).unwrap_or_default();
            row.retain(|f| *f != follower);
            fo_w.put(followee, row);
            Reply::Status("OK")
        }
        Mutation::GroupJoin { user } => {
            gr_w.add(user);
            Reply::Status("OK")
        }
        Mutation::GroupLeave { user } => {
            gr_w.remove(&user);
            Reply::Status("OK")
        }
        Mutation::ProfileBump { user } => {
            let version = pr_w.get(&user).unwrap_or(0) + 1;
            pr_w.put(user, version);
            Reply::Int(version as i64)
        }
    }
}
