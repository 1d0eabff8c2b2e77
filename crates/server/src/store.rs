//! The sharded storage plane: dego-core adjusted objects whose
//! per-shard writers are held by **one thread at a time**.
//!
//! Every structure is segmented with [`SegmentationKind::Hash`] into
//! one segment per shard. A shard's segment writers, its inbox (a
//! [`dego_core::mpsc`] queue, the paper's `QueueMasp`, MWSR) and its
//! applied-counter cell are its **write side** ([`WriteSide`]), kept
//! behind one `Mutex`: whoever holds it is the segments' one writer —
//! the single-writer (M2, CWMR) discipline the paper's map adjustment
//! requires. Reads go straight to the lock-free segment readers from
//! any thread.
//!
//! **Who holds the write side.** A connection stages the consecutive
//! mutations of a burst per shard as **runs** and publishes them at the
//! end of each staging pass. The runs for other shards go to their
//! owner threads (`dego-shard-<i>`) as one [`Envelope`] per (run,
//! shard): one queue node, one reply handle, one timestamp, one
//! `unpark`. A run for one of the loop's *home* shards is applied by
//! the loop itself ([`Store::apply_in_place`]): it `try_lock`s the
//! write side, sweeps whatever is queued first, applies its own run and
//! files the acks straight into its burst — no wake-up, no ack channel,
//! no doorbell. This is flat combining (Hendler, Incze, Shavit and
//! Tzafrir, SPAA 2010) on the paper's single-writer segments: whoever
//! finds the writer free does the writer's work. A write side that is
//! busy (its owner or another loop mid-sweep) or poisoned, or a shard
//! stalled by the chaos hook, gets the run as an envelope instead. The
//! owner parks while its queue depth reads 0 and takes the write side
//! only to sweep. Either way a sweep ([`Store::sweep`]) applies the
//! queued envelopes in arrival order, turns each one's entries from
//! [`Entry::Op`] into [`Entry::Ack`] **in place** and sends the same
//! `Vec` back as its single ack — what the loop allocated the loop
//! frees — then rings the sender's event-loop doorbell
//! ([`Envelope::waker`]). A run applied in place comes after every
//! envelope queued before it, so each shard's mutations still apply in
//! FIFO order. What reaches a write side at all is the kv verbs and, of
//! the user rows, only the writes that create a row (below); the owners
//! apply those of them that no home loop took.
//!
//! **What needs no write side.** A user's timeline, profile version,
//! group membership and follower row are one [`User`] row in
//! [`Tables::users`]. Only the shard's writer creates a
//! row (when a staged write finds none), so each segment of the map
//! keeps its one writer; once a row exists, any thread may write it
//! through [`User::apply`]. A connection applies `ADDUSER` (nothing to
//! do on a row that exists), a `POST`'s push, `PROFILE`, `JOIN`, `LEAVE`,
//! `FOLLOW` and `UNFOLLOW` so on its own loop while it stages the burst,
//! counted in its loop's cell of [`Store::applied`] — no run, no
//! hand-off, no ack — unless the row is missing, the chaos stall is up,
//! or the burst has a write of that row staged or in flight. A loop
//! `lock`s a follower row as it locks a timeline, and moves the row
//! itself when the edit calls for it.
//!
//! The trade-off is where a slow apply lands. In place it runs on the
//! loop thread, so a slow one — say a 512-line `FOLLOW` burst against a
//! 10k-follower row — stalls that loop and every connection on it, not
//! an owner. Telemetry counts **mutations** on both paths, not
//! envelopes: `enqueued` rises by the run's length when it is handed
//! over, `drained` by one per apply, and `ack_us` / a traced entry's
//! `queue_us` are measured from the publish. A user-row write applied
//! on a loop is none of these, and a traced one carries no store
//! segment.
//!
//! Routing is [`dego_core::home_segment`] of the key (or user id), the
//! same hash the maps use internally, so a shard writer never touches
//! a foreign segment (`debug_assert`ed inside dego-core).
//!
//! **The write path costs what a single writer should**
//! ([`Owned::apply`]), whoever holds the write side. It reads its own
//! rows through `SegmentedHashMapWriter::peek` — no pin, no clone:
//! nobody else unlinks them — and its `put`s are blind, so an
//! overwrite allocates the new value's box and nothing else. A
//! timeline is a [`dego_core::swmr_recent()`] log and a follower row a
//! [`dego_core::RosterWriter`] row, both **appended to in place**, each
//! edit half behind the [`User`] row's own lock and each read half in
//! the row beside it. A timeline push is one lookup, an uncontended lock
//! and two stores — no allocation, nothing retired. A `FOLLOW` or
//! `UNFOLLOW` is one lookup, a lock, a scan of the row's ids for the
//! follower and a few stores; only a row that moves (full, or less than
//! a quarter live) allocates, and the roster publishes the move itself,
//! retiring the old allocation through the epoch, so no map is written.
//! `TIMELINE` copies its window straight out of the ring, newest first,
//! and a `POST` its fan-out straight out of the row's head.
//!
//! **A key's deadline lives in its row.** A key is one [`KvRow`] of
//! [`Tables::kv`]: its value and, once `EXPIRE` gave it one, its
//! deadline, published together by one `put`. So a rewrite drops the
//! timer by replacing the row, and a reader never sees one value with
//! another value's deadline. A `GET` reads the row once and finds the
//! live value, nothing, or a lapsed deadline; a lapsed key's `GET`
//! becomes a reap mutation. A reap never destroys an acknowledged
//! rewrite: a key's mutations apply one at a time in FIFO order, the
//! deadline is checked again when the reap applies, and a `SET` or
//! `DEL` that got there first replaced or removed the row, so the reap
//! answers the live row. A row without a deadline costs a `GET` one
//! branch and a write nothing.

use crate::event_loop::LoopWaker;
use crate::protocol::{DataRow, Reply};
use crate::stats::ServerStats;
use dego_core::{
    home_segment, mpsc, swmr_recent, CounterCell, CounterIncrementOnly, RecentReader, RecentWriter,
    RosterReader, RosterWriter, SegmentationKind, SegmentedHashMap, SegmentedHashMapWriter,
};
use dego_middleware::{
    declare_metrics, Histograms, LatencyHistogram, PipelineMetrics, Reading, Row, StoreSegment,
    Surface, WindowedHistogram, P50_P99,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
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

/// Slots a follower row starts with, and never shrinks below.
const FOLLOWERS_MIN: usize = 4;

/// One slot of a run: a planned mutation on the way to the shard's
/// writer, its acknowledgement on the way back. Both carry the
/// per-connection sequence number replies are reassembled by.
pub(crate) enum Entry {
    /// To apply.
    Op(u64, Mutation),
    /// Applied: the reply plus — for a traced run — the store-side
    /// span segment its writer stamped (queue wait and apply time).
    Ack(u64, Reply, Option<StoreSegment>),
}

/// When a run was published, and whether a trace span is open on the
/// connection that published it (see [`Envelope`]).
pub(crate) type Stamp = (Instant, bool);

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
    /// When the run was published — its writer turns this into the
    /// publish→apply latency samples.
    pub enqueued_at: Instant,
    /// Whether a trace span is open on the issuing connection: asks
    /// the shard's writer to stamp a [`StoreSegment`] into each ack.
    /// Untraced runs pay nothing extra when applied.
    pub traced: bool,
}

/// Storage shards — on `/metrics` and `STATS`, and the first line of
/// `STATS SHARDS`.
pub const SHARDS: Row = Row::gauge("shards", "Storage shards.");
/// Keys in the string keyspace.
pub const KEYS: Row = Row::gauge("keys", "Keys in the string keyspace.");

declare_metrics! {
    /// Per-shard observability counters: the load-shedding inputs
    /// (`STATS SHARDS`, `/metrics`) for one shard. Each row is a
    /// family labelled by shard: the `{}` in its name.
    ///
    /// Counters are atomics and the histograms the middleware's log₂-
    /// bucket ones — statistics on the storage plane's hottest path, but
    /// for the queue depth, which the owner parks on
    /// ([`ShardTelemetry::queue_depth`]). The batch width is
    /// lifetime-only. The ack latency alone keeps a rolling window, for
    /// the shed layer: it is recorded only in [`Store::apply_run`],
    /// under the shard's write side, so its holder is the window's one
    /// writer.
    pub(crate) struct ShardTelemetry {
        /// Mutations handed to the shard since boot.
        enqueued: Rebased => "shard{}_enqueued",
    }

    fn new(window_secs: u64) {
        /// Mutations applied since boot, whoever held the write side.
        drained: AtomicU64 = AtomicU64::new(0),
        /// Mutations per sweep (the group-commit width, log₂ buckets).
        drained_batch: LatencyHistogram = LatencyHistogram::new(),
        /// Publish→apply latency per mutation, microseconds, over the
        /// last `window_secs` and since boot.
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

/// A counter `STATS RESET` re-bases rather than zeroes: it reads the
/// count since the reset, while its total never goes back. The queue
/// depth is a difference of two totals, and an owner parks on it: a
/// zeroing that raced a publish or an apply would skew it for good.
#[derive(Default)]
pub(crate) struct Rebased {
    total: AtomicU64,
    base: AtomicU64,
}

impl Rebased {
    fn add(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// `STATS RESET`: count from here.
    pub fn reset(&self) {
        self.base.store(self.total(), Ordering::Relaxed);
    }
}

impl Reading for Rebased {
    fn reading(&self) -> u64 {
        self.total()
            .saturating_sub(self.base.load(Ordering::Relaxed))
    }
}

impl ShardTelemetry {
    /// `STATS RESET`: re-base the counter and zero both histograms.
    /// The queue depth is untouched.
    pub fn reset(&self) {
        self.reset_rows();
        self.drained_batch.clear();
        self.ack_us.reset();
    }

    /// Mutations handed over but not yet applied. `drained` is read
    /// first, Acquire against each apply's Release, so every hand-over
    /// an apply it counts came after is counted too: the gauge can
    /// transiently read high while a run is being applied, never low —
    /// an owner parked on 0 sleeps on nothing queued.
    pub fn queue_depth(&self) -> u64 {
        let drained = self.drained.load(Ordering::Acquire);
        self.enqueued.total().saturating_sub(drained)
    }

    /// Publish→apply latency histogram, microseconds.
    pub fn ack_us(&self) -> &WindowedHistogram {
        &self.ack_us
    }
}

/// A storage-plane mutation (the payload of an [`Entry::Op`]). `Reap`
/// is a `GET` whose row a loop saw lapsed.
pub(crate) enum Mutation {
    Set { key: String, value: String },
    Del { key: String },
    Incr { key: String, delta: i64 },
    Expire { key: String, millis: u64 },
    Reap { key: String },
    User { user: u64, op: UserOp },
}

/// A write to one user's row: `ADDUSER`, a `POST`'s push to one
/// timeline, `PROFILE`, `JOIN`, `LEAVE`, and a `FOLLOW` or `UNFOLLOW`
/// of the user by the follower it carries.
#[derive(Clone, Copy)]
pub(crate) enum UserOp {
    Add,
    Push(u64),
    Profile,
    Join,
    Leave,
    Follow(u64),
    Unfollow(u64),
}

/// One user's state, one value of [`Tables::users`], each field cut
/// down to its one use. Only the user's shard writer creates a row
/// ([`Owned::apply`]).
pub(crate) struct User {
    /// The timeline's append half, behind the row's own lock: one
    /// writer at a time, the paper's CWMR discipline at row grain.
    log: Mutex<RecentWriter>,
    /// The timeline's read half: newest-`n` reads, lock-free.
    pub timeline: RecentReader,
    /// Profile version, an increment-and-get counter. The writes
    /// (`AcqRel`) and the flag's stores (`Release`) pair with the
    /// readers' `Acquire` loads.
    pub profile: AtomicU64,
    /// Membership of the interest group, a flag.
    pub member: AtomicBool,
    /// The edit half of who follows the user, behind the row's own
    /// lock, as the timeline's.
    roster: Mutex<RosterWriter>,
    /// Who follows the user, in follow order: the read half, lock-free
    /// under the reader's pin, whichever allocation the row moved to.
    pub followers: RosterReader,
}

impl User {
    fn new() -> User {
        let (log, timeline) = swmr_recent(TIMELINE_KEEP);
        let roster = RosterWriter::new(FOLLOWERS_MIN);
        User {
            log: Mutex::new(log),
            timeline,
            profile: AtomicU64::new(0),
            member: AtomicBool::new(false),
            followers: roster.reader(),
            roster: Mutex::new(roster),
        }
    }

    /// Apply `op` — the one implementation, whoever applies it: a loop
    /// or the shard's writer, which alone creates the row.
    pub(crate) fn apply(&self, op: UserOp) -> Reply {
        match op {
            UserOp::Add => {}
            UserOp::Push(msg) => {
                let mut log = self.log.lock().expect("no push panics holding its log");
                log.push(msg);
            }
            UserOp::Profile => {
                let version = self.profile.fetch_add(1, Ordering::AcqRel) + 1;
                return Reply::Int(version as i64);
            }
            UserOp::Join => self.member.store(true, Ordering::Release),
            UserOp::Leave => self.member.store(false, Ordering::Release),
            UserOp::Follow(id) => {
                self.roster
                    .lock()
                    .expect("no roster edit panics")
                    .insert(id);
            }
            UserOp::Unfollow(id) => {
                self.roster
                    .lock()
                    .expect("no roster edit panics")
                    .remove(id);
            }
        }
        Reply::Status("OK")
    }
}

/// One key of [`Tables::kv`]: its value and, if `EXPIRE` set one, when
/// it lapses. A write replaces the whole row, deadline included.
#[derive(Clone)]
pub(crate) struct KvRow {
    pub value: String,
    deadline: Option<Instant>,
}

impl KvRow {
    /// A row of `value` with no deadline, as every write but `EXPIRE`
    /// leaves it.
    fn new(value: String) -> KvRow {
        KvRow {
            value,
            deadline: None,
        }
    }

    fn lapsed(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// The value, unless the row has lapsed.
    pub(crate) fn live(&self) -> Option<String> {
        (!self.lapsed()).then(|| self.value.clone())
    }
}

/// The storage plane's tables, each Hash-segmented one segment per
/// shard. Any thread reads them; [`Tables::claim`] hands a shard's
/// write side its segment of each.
#[derive(Clone)]
pub(crate) struct Tables {
    /// The string keyspace (GET/SET/DEL/INCR/EXPIRE).
    pub kv: Arc<SegmentedHashMap<String, KvRow>>,
    /// Where the writers count `ttl_armed` and `ttl_expired`; `None`
    /// when the stack has no TTL layer, which refuses `EXPIRE`.
    pub ttl: Option<Arc<PipelineMetrics>>,
    /// user → their row.
    pub users: Arc<SegmentedHashMap<u64, Arc<User>>>,
}

impl Tables {
    fn new(shards: usize, capacity: usize, ttl: Option<Arc<PipelineMetrics>>) -> Self {
        Tables {
            kv: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
            ttl,
            users: SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash),
        }
    }

    /// Claim the calling thread's segment of every table.
    fn claim(&self) -> Owned {
        Owned {
            kv: self.kv.writer(),
            ttl: self.ttl.clone(),
            users: self.users.writer(),
        }
    }
}

/// One shard's write side: its segment writers, its inbox and its
/// applied-counter cell. Whoever holds it is the shard's one writer.
struct WriteSide {
    owned: Owned,
    inbox: mpsc::Consumer<Envelope>,
    /// The shard's cell of [`Store::applied`] (C3: one writer at a
    /// time, which the lock provides).
    applied: CounterCell,
}

/// One shard of the storage plane.
struct Shard {
    /// Held by the owner thread for a sweep, or by a home loop for a
    /// run in place.
    write: Mutex<WriteSide>,
    /// The inbox's producer end.
    inlet: mpsc::Producer<Envelope>,
    /// The owner thread, unparked after each enqueue.
    owner: Thread,
    telemetry: ShardTelemetry,
}

/// The shared storage plane.
pub(crate) struct Store {
    pub tables: Tables,
    /// Mutations applied, one cell per shard write side and one per
    /// event loop (C3).
    pub applied: Arc<CounterIncrementOnly>,
    /// Indexed by shard.
    shards: Vec<Shard>,
    stats: Arc<ServerStats>,
    /// `applied` reading at the last `STATS RESET`
    /// ([`CounterIncrementOnly`] cells are owner-exclusive and cannot
    /// be zeroed, so resets subtract an offset instead).
    applied_offset: AtomicU64,
    /// Chaos hook: nanoseconds every shard owner sleeps before applying
    /// each mutation (0 = off), changeable at runtime
    /// ([`crate::ServerHandle::set_shard_delay`]). While it is set no
    /// loop applies a run in place: every run goes to a stalled owner.
    shard_delay_ns: AtomicU64,
}

impl Store {
    /// The shard owning `row`: its key's, or its user's.
    pub(crate) fn shard_of_row(&self, row: DataRow) -> usize {
        let shards = self.shards.len();
        match row {
            DataRow::Key(key) => home_segment(&key, shards),
            DataRow::User(user) => home_segment(&user, shards),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Hand a run to its owning shard and wake the owner.
    pub(crate) fn enqueue(&self, shard: usize, run: Envelope) {
        let plane = &self.shards[shard];
        plane.telemetry.enqueued.add(run.entries.len() as u64);
        plane.inlet.offer(run);
        plane.owner.unpark();
    }

    /// Apply `run`, published and traced as `stamp` says, on the calling
    /// thread if `shard`'s write side is free and the shard is not
    /// stalled: sweep what is queued first, so the shard's FIFO order
    /// holds, then turn `run`'s ops into acks in place. Returns whether
    /// it did; if not, `run` is untouched, for the owner to apply from
    /// an envelope.
    pub(crate) fn apply_in_place(&self, shard: usize, run: &mut [Entry], stamp: Stamp) -> bool {
        if self.stalled() {
            return false;
        }
        // Busy or poisoned alike: the owner takes the run.
        let Ok(mut side) = self.shards[shard].write.try_lock() else {
            return false;
        };
        self.shards[shard].telemetry.enqueued.add(run.len() as u64);
        self.sweep(shard, &mut side, Some((run, stamp)));
        true
    }

    /// Whether the chaos stall is up: then every write, a user row's
    /// included, goes to the stalled owners.
    pub(crate) fn stalled(&self) -> bool {
        self.shard_delay_ns.load(Ordering::Relaxed) > 0
    }

    /// One hold of `shard`'s write side, by its owner or by a home loop:
    /// apply every envelope queued in its inbox, in arrival order,
    /// acking each through its reply channel and doorbell (neither
    /// blocks), then `own`, a loop's run, in place. Returns the number
    /// of mutations applied.
    fn sweep(
        &self,
        shard: usize,
        side: &mut WriteSide,
        own: Option<(&mut [Entry], Stamp)>,
    ) -> usize {
        let queued = side.inbox.drain();
        let own_len = own.as_ref().map_or(0, |(run, _)| run.len());
        let width = queued.iter().map(|run| run.entries.len()).sum::<usize>() + own_len;
        if width == 0 {
            return 0;
        }
        self.stats.note_shard_batch();
        let telemetry = &self.shards[shard].telemetry;
        telemetry.drained_batch.record(width as u64);
        // The stall hook delays owners only: a loop that took the write
        // side must not sleep under it if the hook goes up meanwhile.
        let stall = own.is_none();
        for run in queued {
            let Envelope {
                mut entries,
                reply,
                waker,
                enqueued_at,
                traced,
            } = run;
            self.apply_run(shard, side, &mut entries, (enqueued_at, traced), stall);
            // A closed channel means the connection died mid-flight;
            // the mutations were still applied.
            let _ = reply.send(entries);
            waker.wake();
        }
        if let Some((run, stamp)) = own {
            self.apply_run(shard, side, run, stamp, false);
        }
        width
    }

    /// Turn a run's ops into their acks, in order, with the shard's
    /// telemetry and, for a traced run, a store segment in each ack.
    fn apply_run(
        &self,
        shard: usize,
        side: &mut WriteSide,
        run: &mut [Entry],
        (published, traced): Stamp,
        stall: bool,
    ) {
        let telemetry = &self.shards[shard].telemetry;
        for entry in run {
            let Entry::Op(seq, op) = std::mem::replace(entry, Entry::Ack(0, Reply::Nil, None))
            else {
                unreachable!("a run arrives as ops");
            };
            // Stamp the apply start before the delay hook: a stuck
            // shard's stall is apply time, and the trace tree must
            // account for it.
            let apply_started = traced.then(Instant::now);
            let stall_ns = if stall {
                self.shard_delay_ns.load(Ordering::Relaxed)
            } else {
                0
            };
            if stall_ns > 0 {
                std::thread::sleep(Duration::from_nanos(stall_ns));
            }
            let reply = side.owned.apply(op);
            // One clock read for the ack latency, the window's epoch
            // and a traced apply's end.
            let now = Instant::now();
            let seg = apply_started.map(|started| StoreSegment {
                shard,
                // Saturates to zero if clocks read out of order.
                queue_us: started.duration_since(published).as_micros() as u64,
                apply_us: now.duration_since(started).as_micros() as u64,
            });
            // The write side's holder is the ack window's one writer.
            let ack_us = now.duration_since(published).as_micros() as u64;
            telemetry.ack_us.record(ack_us, now);
            telemetry.drained.fetch_add(1, Ordering::Release);
            // Rejected mutations (e.g. INCR on a non-integer) must
            // not inflate the applied count.
            if !matches!(reply, Reply::Error(_)) {
                side.applied.inc();
            }
            *entry = Entry::Ack(seq, reply, seg);
        }
    }

    /// Wake a parked shard owner (e.g. to notice shutdown).
    pub(crate) fn wake(&self, shard: usize) {
        self.shards[shard].owner.unpark();
    }

    /// `shard`'s observability counters.
    pub(crate) fn telemetry(&self, shard: usize) -> &ShardTelemetry {
        &self.shards[shard].telemetry
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
        for shard in &self.shards {
            shard.telemetry.reset();
        }
        self.applied_offset
            .store(self.applied.get(), Ordering::Relaxed);
    }

    /// The storage plane's two gauges on either surface.
    pub(crate) fn render_gauges(&self, out: &mut Surface<'_>) {
        out.scalar(&SHARDS, self.shards() as u64);
        out.scalar(&KEYS, self.tables.kv.len() as u64);
    }

    /// The per-shard plane on either surface — the body of a
    /// `STATS SHARDS` reply, or the `dego_shard_*` families of a scrape:
    /// per-shard queue depth, group-commit batch shape, and
    /// publish→apply latency percentiles — the inputs a load shedder
    /// (or a human squinting at a hot shard) needs. The batch
    /// percentiles are lifetime; the ack ones report the rolling window,
    /// with `_total`-suffixed lifetime twins.
    pub(crate) fn render_shards(&self, out: &mut Surface<'_>) {
        let labels: Vec<String> = (0..self.shards()).map(|i| i.to_string()).collect();
        let telemetry = self.shards.iter().map(|shard| &shard.telemetry);
        let shards = || labels.iter().map(String::as_str).zip(telemetry.clone());
        let values: Vec<Vec<u64>> = telemetry.clone().map(|t| t.values()).collect();
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
            let drained = |(l, t): (_, &ShardTelemetry)| {
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
        if let Surface::Stats(lines) = out {
            for (l, t) in shards() {
                for (p, rank) in P50_P99 {
                    let windowed = t.ack_us.percentile_us(*rank);
                    lines.push(format!("shard{l}_ack_{p}_us={windowed}"));
                }
            }
        }
        // The lifetime figures: `_total` lines, and the scrape family.
        let ack = Histograms {
            stat: "shard{l}_ack_{p}_us_total",
            family: "dego_shard_ack_us",
            help: "Enqueue-to-apply latency per mutation, microseconds.",
            ..batch
        };
        let members: Vec<_> = shards().map(|(l, t)| (l, t.ack_us.lifetime())).collect();
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
/// with writer ownership. The claimed writers come back to be the
/// shard's write side, and the owner starts once the store holding
/// every write side exists.
///
/// The owners start unstalled: [`Store::set_shard_delay`] sets the
/// chaos hook. [`Store::applied`] has a cell per owner and per event
/// loop, of which there are `loops`. `window_secs` sizes the ack
/// latency's rolling window. An
/// owner exits once `stop` is up and its queue is drained, so `stop`
/// must go up only when nothing can publish any more. `ttl` is the
/// TTL layer's metrics (see [`Tables::ttl`]).
pub(crate) fn spawn_shards(
    shards: usize,
    loops: usize,
    capacity: usize,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    window_secs: u64,
    ttl: Option<Arc<PipelineMetrics>>,
) -> ShardRuntime {
    assert!(shards > 0, "need at least one shard");
    let tables = Tables::new(shards, capacity, ttl);
    let applied = CounterIncrementOnly::new(shards + loops);
    let mut planes = Vec::with_capacity(shards);
    let mut threads = Vec::with_capacity(shards);
    let mut starts = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (inlet, inbox) = mpsc::queue::<Envelope>();
        let (claimed_tx, claimed_rx) = channel::<WriteSide>();
        let (start_tx, start_rx) = channel::<Arc<Store>>();
        let (tables, applied, stop) = (tables.clone(), Arc::clone(&applied), Arc::clone(&stop));
        let handle = Builder::new()
            .name(format!("dego-shard-{shard}"))
            .spawn(move || {
                let side = WriteSide {
                    owned: tables.claim(),
                    inbox,
                    applied: applied.cell(),
                };
                claimed_tx.send(side).expect("startup handshake");
                if let Ok(store) = start_rx.recv() {
                    owner_loop(&store, shard, &stop);
                }
                crate::event_loop::drop_role_name();
            })
            .expect("spawn shard thread");
        let side = claimed_rx
            .recv()
            .expect("shard thread died before claiming its writers");
        assert_eq!(
            side.owned.kv.slot(),
            shard,
            "serialized startup must assign slot=shard"
        );
        planes.push(Shard {
            write: Mutex::new(side),
            inlet,
            owner: handle.thread().clone(),
            telemetry: ShardTelemetry::new(window_secs),
        });
        threads.push(handle);
        starts.push(start_tx);
    }

    let store = Arc::new(Store {
        tables,
        applied,
        shards: planes,
        stats,
        applied_offset: AtomicU64::new(0),
        shard_delay_ns: AtomicU64::new(0),
    });
    for start in starts {
        start
            .send(Arc::clone(&store))
            .expect("owner waits for its store");
    }
    ShardRuntime { store, threads }
}

/// The owner thread: sweep while its shard has mutations queued, park
/// while the queue depth reads 0. The write side is left alone while
/// idle, so a timeout wake never fails a home loop's `try_lock`. Exits
/// once `stop` is up and nothing is queued.
fn owner_loop(store: &Store, shard: usize, stop: &AtomicBool) {
    let plane = &store.shards[shard];
    loop {
        // `stop` first: once it reads up, every run ever handed over
        // is counted in the depth read after it.
        let stopping = stop.load(Ordering::Acquire);
        if plane.telemetry.queue_depth() == 0 {
            if stopping {
                return;
            }
        } else {
            // A loop holding the write side is applying, briefly. One
            // that panicked there may have left a segment torn: this
            // shard stops, and its writes time out as if it were stuck.
            let mut side = plane.write.lock().expect("a writer panicked mid-apply");
            if store.sweep(shard, &mut side, None) > 0 {
                continue;
            }
        }
        // Idle, or the depth was a loop's run in flight in place: sleep
        // until an enqueue unparks us (or a timeout, to re-check
        // `stop`).
        std::thread::park_timeout(Duration::from_millis(10));
    }
}

/// One shard's write handles: used by whoever holds the shard's write
/// side, and by nobody else.
struct Owned {
    kv: SegmentedHashMapWriter<String, KvRow>,
    ttl: Option<Arc<PipelineMetrics>>,
    users: SegmentedHashMapWriter<u64, Arc<User>>,
}

impl Owned {
    /// A key whose deadline has passed is gone: drop its row, and count
    /// it expired.
    fn reap(&mut self, key: &String) {
        if self.kv.peek(key, |row| row.is_some_and(KvRow::lapsed)) {
            self.kv.remove(key);
            if let Some(m) = &self.ttl {
                m.ttl_expired.increment();
            }
        }
    }

    /// `key`'s value, once a lapsed row is reaped.
    fn live_value(&mut self, key: &String) -> Option<String> {
        self.reap(key);
        self.kv.peek(key, |row| row.map(|row| row.value.clone()))
    }

    /// Apply one mutation through this shard's writers, consuming it
    /// (its strings move into the map). Single-writer per segment, so
    /// read-modify-write sequences on owned rows are races with nobody
    /// — and the read half is a borrow, not a pinned clone.
    fn apply(&mut self, mutation: Mutation) -> Reply {
        match mutation {
            Mutation::Set { key, value } => {
                self.kv.put(key, KvRow::new(value));
                Reply::Status("OK")
            }
            Mutation::Del { key } => {
                self.kv.remove(&key);
                Reply::Status("OK")
            }
            Mutation::Incr { key, delta } => {
                // An expired value must not leak into the sum.
                self.reap(&key);
                let current = self.kv.peek(&key, |row| {
                    row.map_or(Ok(0), |row| row.value.parse::<i64>())
                });
                let Ok(current) = current else {
                    return Reply::Error(format!("value at {key:?} is not an integer"));
                };
                let next = current.wrapping_add(delta);
                self.kv.put(key, KvRow::new(next.to_string()));
                Reply::Int(next)
            }
            Mutation::Expire { key, millis } => {
                // A lapsed key is gone: it is not re-armed but reaped.
                let Some(value) = self.live_value(&key) else {
                    return Reply::Int(0);
                };
                // A deadline past the clock's range is none: it never lapses.
                let deadline = Instant::now().checked_add(Duration::from_millis(millis));
                self.kv.put(key, KvRow { value, deadline });
                if let Some(m) = &self.ttl {
                    m.ttl_armed.increment();
                }
                Reply::Int(1)
            }
            // Checked again: a rewrite since the loop looked replaced
            // the lapsed row.
            Mutation::Reap { key } => self.live_value(&key).map_or(Reply::Nil, Reply::Value),
            Mutation::User { user, op } => {
                if let Some(reply) = self.users.peek(&user, |row| row.map(|row| row.apply(op))) {
                    return reply;
                }
                // A missing row is created, written and published, but
                // for an unfollow, which has nothing to take out.
                if let UserOp::Unfollow(_) = op {
                    return Reply::Status("OK");
                }
                let row = User::new();
                let reply = row.apply(op);
                self.users.put(user, Arc::new(row));
                reply
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_alloc::allocations;

    /// `STATS RESET` with mutations in flight: `enqueued` reads from 0
    /// again, and the queue depth an owner parks on stays exact — a
    /// zeroed pair would read the next hand-over as nothing queued.
    #[test]
    fn a_reset_keeps_the_queue_depth_exact() {
        let t = ShardTelemetry::new(60);
        let enqueued = |t: &ShardTelemetry| t.values()[0];
        t.enqueued.add(3);
        t.drained.fetch_add(1, Ordering::Release);
        t.reset();
        assert_eq!((enqueued(&t), t.queue_depth()), (0, 2));
        t.drained.fetch_add(2, Ordering::Release);
        t.enqueued.add(1);
        assert_eq!((enqueued(&t), t.queue_depth()), (1, 1));
    }

    /// The owner's allocation budget, counted on this thread with the
    /// writers claimed here: a mutation allocates what it leaves in the
    /// store and nothing else — no clone of the row it extends, none of
    /// the value it overwrites, nothing at all for a timeline append or
    /// a follower edit that fits its row.
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
        let follow = |follower| Mutation::User {
            user: 1,
            op: UserOp::Follow(follower),
        };

        spent(Mutation::User {
            user: 1,
            op: UserOp::Add,
        });
        // Well past a wrap of the ring.
        for msg in 0..3 * TIMELINE_KEEP as u64 {
            let push = UserOp::Push(msg);
            assert_eq!(spent(Mutation::User { user: 1, op: push }), 0);
        }
        for op in [UserOp::Profile, UserOp::Join, UserOp::Leave] {
            assert_eq!(spent(Mutation::User { user: 1, op }), 0);
        }

        spent(set("a first value, long enough to be worth not cloning"));
        assert_eq!(spent(set("its replacement")), 1, "the value's box");

        spent(incr());
        assert_eq!(spent(incr()), 2, "the new string and its box");

        let timed = || "timed".to_string();
        let expire = |millis| Mutation::Expire {
            key: timed(),
            millis,
        };
        spent(Mutation::Set {
            key: timed(),
            value: "v".into(),
        });
        assert_eq!(spent(expire(3_600_000)), 2, "the value's clone and its box");
        assert_eq!(spent(expire(0)), 2, "the value's clone and its box");
        assert_eq!(
            spent(Mutation::Reap { key: timed() }),
            0,
            "a reap stores nothing"
        );

        let unfollow = |follower| Mutation::User {
            user: 1,
            op: UserOp::Unfollow(follower),
        };
        spent(follow(2));
        assert_eq!(spent(follow(3)), 0, "into spare capacity");
        assert_eq!(spent(follow(3)), 0, "already following");
        assert_eq!(spent(follow(4)), 0, "into spare capacity");
        assert_eq!(spent(unfollow(4)), 0, "three of four left");
        assert_eq!(spent(unfollow(4)), 0, "not following");
        assert_eq!(spent(follow(5)), 0, "into spare capacity");
        // A move retires the old row through the epoch, in a box of its
        // own. The epoch's list of retired boxes is warmed by a first
        // move on another row, and the move is made under a pin, as a
        // loop's staging pass holds one: its unpin then collects
        // nothing, which would allocate the list of what it frees.
        for fan in 1..=5 {
            spent(Mutation::User {
                user: 8,
                op: UserOp::Follow(fan),
            });
        }
        let pin = dego_core::reclaim::pin();
        // All four slots used, three live: the row moves to six.
        assert!(spent(follow(6)) <= 2, "the grown row and the old one's box");
        drop(pin);
        let nobody = Mutation::User {
            user: 9,
            op: UserOp::Unfollow(2),
        };
        assert_eq!(spent(nobody), 0, "an unfollow creates no row");

        let mut row = Vec::new();
        tables
            .users
            .read(&1, |user| user.timeline.newest(3, &mut row));
        assert_eq!(row, [191, 190, 189]);
        let value = |key: &str| tables.kv.get(&key.into()).map(|row| row.value);
        assert_eq!(value("key").as_deref(), Some("its replacement"));
        assert_eq!(value("n").as_deref(), Some("2000000014"));
        assert!(!tables.kv.contains_key(&timed()), "reaped");
        let mut fans = [0; 8];
        let pin = dego_core::reclaim::pin();
        let n = tables
            .users
            .read_in(&pin, &1, |row| row.followers.first(&pin, None, &mut fans));
        assert_eq!(&fans[..n.unwrap()], [2, 3, 5, 6]);
        assert!(!tables.users.contains_key(&9));
    }
}
