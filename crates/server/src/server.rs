//! The TCP front-end: accept loop, the per-connection dispatch chain,
//! the innermost (store-executing) service and shutdown.
//!
//! Connections are served by the event loops in `event_loop.rs`: the
//! accept thread hands each socket round-robin to one of N epoll loop
//! threads, which multiplex every connection they own and never wait
//! for a burst's final acks, so bursts from different connections
//! group-commit into one shard sweep.
//!
//! A connection's request lines are parsed and driven through its
//! session's middleware [`Stack`] chain (trace → breaker → deadline →
//! auth → rate-limit → shed → ttl, whichever are configured — one chain
//! type for every stack, boxed once per connection by
//! [`Stack::service`], absent layers passing everything through); the
//! innermost service ([`ExecService`]) executes against the store,
//! splitting two ways: **reads** (`GET`, `TIMELINE`, `ISFOLLOWING`, …)
//! are served inline from the lock-free segment readers; **mutations**
//! (`EXPIRE` and a lapsed key's `GET` included) are applied by whoever
//! holds the shard's write side — this loop for one of its home shards,
//! the shard's owner thread otherwise (see `store.rs`), this loop again
//! for a write to a user row that exists (`ADDUSER`, a `POST`'s push to
//! one timeline, `PROFILE`, `JOIN`, `LEAVE`, `FOLLOW` and `UNFOLLOW`,
//! whether or not it moves the followee's follower row) — and applied
//! before the response line is emitted, so a client that
//! saw `+OK` for a `SET` observes that value on every later read, from
//! any connection (the shard applied it before acking, and segment
//! publication is release/acquire).
//!
//! Pipelining is **batched end to end** and **two-phase**: the whole
//! buffered burst — a burst of one included — is drained into one
//! `Vec<Request>` and begun with [`Service::begin_batch`], so every
//! layer pays its per-request cost once per burst; a burst whose acks
//! are still in flight *parks* in the chain, and
//! [`Service::poll_batch`] completes it — each layer then observes the
//! real replies after the real wait. Parking is the only way a burst
//! waits: no thread ever blocks on an ack, and an in-process caller's
//! [`Service::call_batch`] polls the parked burst too. How a burst's
//! acks are reassembled (the [`AckTable`], the slots, the ack channel)
//! is known to this module only: the loop sees `Parked`, then
//! responses. Below the stack the unit that reaches a shard is the
//! **run** — the mutations one staging pass stages for it (a `POST`'s
//! fan-out pushes included), but for the user-row writes it applies
//! inline ([`ExecService::apply_inline`]). [`ExecService`] stages
//! mutations by value
//! and *publishes* at one place, the end of each pass (at a barrier or
//! at the end of the burst): the runs for other shards go to their
//! owners, one envelope, one owner wake-up and one ack per (run,
//! shard), and each run for a home shard is applied in place by this
//! thread, its acks filed at once. A pass whose runs all went in place
//! needs no wait: the next pass starts at once, and a burst that never
//! waits finishes inside `begin_batch`. When to publish is read off the
//! input, so there is nothing to tune; a lone mutation is a run of
//! one. Replies are reassembled
//! by sequence number in an [`AckTable`] (a burst's numbers are dense,
//! so a plain index), rendered back to back into the connection's one
//! output buffer and written with one socket write.
//!
//! Within a burst, replies are byte-identical to sequential execution:
//! mutations keep per-row order through the shards' FIFO order, and a
//! read of a row (its verb's `Command::footprint`: a kv key, or a user,
//! whose fields are one row) with a mutation staged or outstanding in
//! the burst waits for the acks (a *barrier*) — the
//! burst parks there unless its runs went in place, and staging resumes
//! once the acks are in, so one burst may park several times. Reads on
//! untouched keys proceed immediately, which is where the batching
//! wins. A user-row write applied inline is visible at once, so a read
//! after it needs no barrier, and it never overtakes a staged write of
//! its row, which keeps that row pending. A user's row is staged only
//! to create it or under the chaos stall, so reads of one user's
//! fields barrier on each other only then. An inline write reaches no
//! shard, so a traced burst's inline writes carry no store segment.

use crate::event_loop::{drop_role_name, run_loop, Epoll, LoopCtx, LoopWaker};
use crate::protocol::{Command, DataRow, Reply};
use crate::stats::{self, ServerStats, StatsSnapshot, View};
use crate::store::{self, Entry, Envelope, KvRow, Mutation, Store, UserOp, FANOUT_LIMIT};
use dego_core::{reclaim, CounterCell};
use dego_middleware::{
    LayerKind, MiddlewareConfig, PressureProbe, Progress, Request, Response, Service,
    ShardPressure, Stack, StoreSegment, Surface,
};
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeline length returned to clients (the paper's "last 50
/// messages").
pub const TIMELINE_LIMIT: usize = 50;

/// The reply when a shard acknowledgement never arrived in time.
const ACK_TIMEOUT_MSG: &str = "shard ack timeout; closing connection";
/// The reply when the shard plane is gone (shutdown mid-request).
const ACK_GONE_MSG: &str = "shard gone; closing connection";

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Longest single backoff sleep after an `accept()` failure.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Test hook: replaces the next `accept()` outcome. Returning
/// `Some(err)` makes the accept loop treat it as an accept failure
/// (without touching the real listener); `None` falls through to the
/// real `accept()`. Used by the fd-pressure regression tests.
#[derive(Clone)]
pub struct AcceptHook(pub Arc<dyn Fn() -> Option<std::io::Error> + Send + Sync>);

impl std::fmt::Debug for AcceptHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AcceptHook(..)")
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of storage shards (= shard-owner threads).
    pub shards: usize,
    /// Expected keyspace size (presizes the segment tables).
    pub capacity: usize,
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Bind address for the Prometheus `/metrics` responder; `None`
    /// (the default) means no metrics endpoint. Port 0 picks an
    /// ephemeral port (see [`ServerHandle::metrics_addr`]).
    pub metrics_addr: Option<SocketAddr>,
    /// The middleware pipeline in front of the store (default: none —
    /// requests go straight to the storage plane).
    pub middleware: MiddlewareConfig,
    /// How long a connection waits for shard acknowledgements before
    /// poisoning itself — **one overall deadline per burst**, armed
    /// when it begins and covering every time it parks (at each
    /// read-after-write barrier and at its end), not per ack (only
    /// reachable when a shard is stuck).
    pub ack_timeout: Duration,
    /// Number of event-loop threads (`--event-loops`); `0` (the
    /// default) means one per available core, floored at two. No loop
    /// ever waits on a burst, so one loop serves all its connections
    /// while any of them is parked.
    pub event_loops: usize,
    /// Close connections that have read nothing for this long
    /// (`--idle-timeout-ms`), freeing their fds; `None` (the default)
    /// never reaps.
    pub idle_timeout: Option<Duration>,
    /// Test hook: inject `accept()` failures (fd-pressure regression
    /// tests). Leave `None` in production.
    pub accept_hook: Option<AcceptHook>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            capacity: 16_384,
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            metrics_addr: None,
            middleware: MiddlewareConfig::none(),
            ack_timeout: Duration::from_secs(5),
            event_loops: 0,
            idle_timeout: None,
            accept_hook: None,
        }
    }
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stack: Arc<Stack>,
    shutdown: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    /// Raised once the event loops are joined, so nothing can publish
    /// a run any more: it stops the shard owners and the metrics
    /// responder. Separate from `shutdown` so the owners keep acking
    /// what a draining loop still publishes (a burst parked at a
    /// barrier stages its next run after the wait) and the responder
    /// keeps serving probes (`/ready` → 503) while the drain flushes.
    loops_joined: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    loop_threads: Vec<JoinHandle<()>>,
    loop_wakers: Vec<Arc<LoopWaker>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address the Prometheus `/metrics` responder is listening
    /// on, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Number of storage shards.
    pub fn shards(&self) -> usize {
        self.store.shards()
    }

    /// The middleware stack every connection drives requests through
    /// (runtime admin: token/policy reloads, metrics).
    pub fn stack(&self) -> &Arc<Stack> {
        &self.stack
    }

    /// A snapshot of the operation counters, as `STATS` reports them
    /// (`applied` since the last `STATS RESET`).
    pub fn stats(&self) -> StatsSnapshot {
        stats::snapshot(&self.stats, &self.store, false)
    }

    /// Whether the server currently reports itself ready (the `READY`
    /// verb and the `/ready` endpoint). Flips to `false` the moment a
    /// drain begins.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Flip the readiness gate by hand (e.g. to take the server out of
    /// rotation before an orchestrated drain). `READY` answers
    /// `-ERR NOTREADY draining` and `/ready` answers 503 while down.
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Release);
    }

    /// Set (or clear) the chaos stall every shard owner sleeps before
    /// applying each mutation. Runtime-tunable: the stuck-shard and
    /// load-shedding tests stall a live server, watch shedding engage,
    /// then clear it and watch the backlog drain. While it is set no
    /// loop applies a run in place, so the stall lands on the owners
    /// only and every loop stays free to serve.
    pub fn set_shard_delay(&self, delay: Option<Duration>) {
        self.store.set_shard_delay(delay);
    }

    /// Stop accepting, drain the shards, join every thread, and hand the
    /// freed heap back to the OS: the process's next server otherwise
    /// inherits this one's freed-but-resident malloc arenas, and reuses
    /// as much of them as the order its threads start in happens to allow.
    pub fn shutdown(mut self) {
        self.finish();
        drop(self);
        // SAFETY: plain glibc call, no pointers.
        #[cfg(target_env = "gnu")]
        let _ = unsafe { malloc_trim(0) };
    }

    fn finish(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Readiness goes first: anything probing `/ready` or `READY`
        // stops routing new work here before the listener closes.
        self.ready.store(false, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Wake every event loop so it observes the flag, then join.
        // Before the shard threads go down, so parked bursts still
        // receive their acks while draining.
        for waker in &self.loop_wakers {
            waker.wake();
        }
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
        // The metrics responder and the shard owners go down last —
        // after the connections, so `/ready` keeps answering 503 (and
        // `/metrics` keeps scraping) while the in-flight bursts flush,
        // and every run a draining burst publishes is acked.
        self.loops_joined.store(true, Ordering::Release);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        // Shard threads exit once `loops_joined` is up and their queue
        // is drained; wake any parked ones.
        for _ in 0..2 {
            for shard in 0..self.store.shards() {
                self.store.wake(shard);
            }
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Bind and spawn a server.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    // The shed layer's ack input is the *windowed* p99. With the window
    // off it would be the lifetime figure, which one stall keeps above
    // the limit until a hundred times as many fast acks have arrived.
    let mw = &config.middleware;
    if mw.layers.contains(&LayerKind::Shed) && mw.shed.ack_p99_us > 0 && mw.trace.window_secs == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "--shed-ack-p99-us needs a rolling window: with --stats-window-secs 0 \
             the ack p99 never recovers from a stall and shedding would latch",
        ));
    }
    // Everything that can fail is acquired before the first thread
    // starts: an error after that would return while the accept thread
    // kept `addr` bound and served it, with nothing left to stop it.
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let metrics_listener = config.metrics_addr.map(TcpListener::bind).transpose()?;
    let metrics_addr = metrics_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;
    // Default: one loop per core, floored at two. The core count is
    // read off the *calling thread's* affinity, so a server spawned
    // from a thread pinned to one CPU (the `benchmark/` harness pins
    // its generator before later set-ups) would otherwise get one loop
    // however many CPUs the process may use. An explicit
    // `--event-loops 1` is honored.
    let loops = if config.event_loops == 0 {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(2)
    } else {
        config.event_loops
    };
    let loop_fds = (0..loops)
        .map(|_| Ok((Arc::new(LoopWaker::new()?), Epoll::new()?)))
        .collect::<std::io::Result<Vec<_>>>()?;

    let stats = Arc::new(ServerStats::new());
    let stack = Stack::build(&config.middleware);
    let shutdown = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicBool::new(true));
    let loops_joined = Arc::new(AtomicBool::new(false));
    // The shard writers count key timers with the TTL layer's metrics.
    let ttl = mw.layers.contains(&LayerKind::Ttl);
    let runtime = store::spawn_shards(
        config.shards,
        loops,
        config.capacity,
        Arc::clone(&stats),
        Arc::clone(&loops_joined),
        config.middleware.trace.window_secs,
        ttl.then(|| Arc::clone(stack.metrics())),
    );
    // The shed layer's pressure probe reads the live shard telemetry;
    // the store exists only now, so the probe is seated post-build.
    // A no-op when the shed layer is not configured.
    let _ = stack.shed_set_probe(Arc::new(StorePressure {
        store: Arc::clone(&runtime.store),
    }));

    let mut loop_threads: Vec<JoinHandle<()>> = Vec::with_capacity(loops);
    let mut loop_wakers: Vec<Arc<LoopWaker>> = Vec::with_capacity(loops);
    let mut sinks: Vec<LoopSink> = Vec::with_capacity(loops);
    for (i, (waker, epoll)) in loop_fds.into_iter().enumerate() {
        let (conn_tx, conn_rx) = channel::<(TcpStream, u64)>();
        // Shard `s` is home to loop `i` iff `s % loops == i % shards`:
        // every shard has a home loop, and with loops == shards each
        // loop has exactly one home shard.
        let home = (0..config.shards)
            .map(|s| s % loops == i % config.shards)
            .collect();
        let ctx = LoopCtx {
            epoll,
            waker: Arc::clone(&waker),
            home,
            inbox: conn_rx,
            store: Arc::clone(&runtime.store),
            stats: Arc::clone(&stats),
            stack: Arc::clone(&stack),
            shutdown: Arc::clone(&shutdown),
            ready: Arc::clone(&ready),
            ack_timeout: config.ack_timeout,
            idle_timeout: config.idle_timeout,
        };
        loop_threads.push(
            std::thread::Builder::new()
                .name(format!("dego-loop-{i}"))
                .spawn(move || {
                    run_loop(ctx);
                    drop_role_name();
                })?,
        );
        sinks.push((conn_tx, Arc::clone(&waker)));
        loop_wakers.push(waker);
    }

    let accept_thread = {
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        let hook = config.accept_hook.clone();
        std::thread::Builder::new()
            .name("dego-accept".into())
            .spawn(move || accept_loop(listener, stats, shutdown, sinks, hook))
            .expect("spawn accept thread")
    };

    let metrics_thread = match metrics_listener {
        Some(listener) => Some(crate::metrics_http::spawn_metrics(
            listener,
            Arc::clone(&runtime.store),
            Arc::clone(&stats),
            Arc::clone(&stack),
            Arc::clone(&loops_joined),
            Arc::clone(&ready),
        )?),
        None => None,
    };

    Ok(ServerHandle {
        addr,
        metrics_addr,
        store: runtime.store,
        stats,
        stack,
        shutdown,
        ready,
        loops_joined,
        accept_thread: Some(accept_thread),
        metrics_thread,
        shard_threads: runtime.threads,
        loop_threads,
        loop_wakers,
    })
}

/// One event loop's connection inlet plus its epoll doorbell.
type LoopSink = (Sender<(TcpStream, u64)>, Arc<LoopWaker>);

/// The shed layer's window onto live shard pressure: routes a write to
/// the home of the row its footprint writes, as
/// [`ExecService::plan_mutation`] does, then reads the target shard's
/// queue-depth gauge and windowed ack p99 straight off the telemetry
/// the shard owners already publish. Lock-free on both calls — this
/// runs on every write's admission path when shedding is armed.
struct StorePressure {
    store: Arc<Store>,
}

impl PressureProbe for StorePressure {
    fn shard_of(&self, cmd: &Command) -> Option<usize> {
        Some(self.store.shard_of_row(cmd.footprint().writes?))
    }

    fn pressure_of(&self, shard: usize) -> ShardPressure {
        let t = self.store.telemetry(shard);
        ShardPressure {
            queue_depth: t.queue_depth(),
            ack_p99_us: t.ack_us().percentile_us(0.99),
        }
    }
}

/// The backoff slept after the `n`-th consecutive `accept()` failure:
/// exponential from 1 ms, capped at [`ACCEPT_BACKOFF_CAP`]. Persistent
/// failures (EMFILE/ENFILE fd exhaustion) therefore cost ~10 wakeups a
/// second instead of a 100%-CPU spin, and the loop stays responsive to
/// shutdown.
pub(crate) fn accept_backoff(consecutive: u32) -> Duration {
    Duration::from_millis(1u64 << consecutive.min(10)).min(ACCEPT_BACKOFF_CAP)
}

fn accept_loop(
    listener: TcpListener,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    sinks: Vec<LoopSink>,
    hook: Option<AcceptHook>,
) {
    let mut next_conn = 0u64;
    let mut consecutive_errors = 0u32;
    loop {
        let accepted = match &hook {
            Some(hook) => match (hook.0)() {
                Some(err) => Err(err),
                None => listener.accept(),
            },
            None => listener.accept(),
        };
        let (socket, _) = match accepted {
            Ok(pair) => {
                consecutive_errors = 0;
                pair
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Persistent accept errors (fd exhaustion) must not
                // busy-spin the core: count them and back off.
                stats.note_accept_error();
                std::thread::sleep(accept_backoff(consecutive_errors));
                consecutive_errors = consecutive_errors.saturating_add(1);
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        stats.note_connection();
        // Round-robin: connection k is served by loop k mod loops.
        let (conn_tx, waker) = &sinks[next_conn as usize % sinks.len()];
        if conn_tx.send((socket, next_conn)).is_ok() {
            waker.wake();
        }
        next_conn += 1;
    }
}

/// A storage-plane row ([`PendingKey::of`] a [`DataRow`]) a burst's
/// outstanding mutation is about to touch; a command whose footprint
/// reads it waits at a barrier, so it observes the writes before it.
/// A user is one row, so a read of any of its fields waits for a
/// staged write of any other.
///
/// Kv keys are tracked by **hash**, not by owned string, so the hot
/// batch path never clones a key: a hash collision merely forces a
/// spurious barrier (always safe — the read just waits a little), a
/// miss is impossible (equal keys hash equally).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum PendingKey {
    Kv(u64),
    User(u64),
}

/// The hash of the pending rows: one multiply-xor per word, for the
/// kv keys ([`PendingKey::of`]) and for the burst's set of them alike. It
/// is unkeyed, which a general-purpose table could not afford with
/// keys a peer chooses; this one holds one burst's rows (at most
/// `MAX_BURST_LINES` lines' worth) for the length of that burst, and
/// equal hashes only cost a barrier.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let mixed = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PendingKey {
    /// How `row` is tracked: a kv key by its hash.
    fn of(row: DataRow) -> PendingKey {
        match row {
            DataRow::Key(key) => PendingKey::Kv(RowHash::new().hash_one(key)),
            DataRow::User(user) => PendingKey::User(user),
        }
    }
}

/// Builds the [`RowHasher`]s of a kv key and of the pending set.
type RowHash = BuildHasherDefault<RowHasher>;

/// The rows with a mutation outstanding in the burst being staged.
type PendingRows = HashSet<PendingKey, RowHash>;

/// What a staging pass's inline writes share: whether it may apply any
/// (the chaos stall was down when it began), and one epoch pin for all
/// their row lookups and its `POST`s' follower-row reads, taken at the
/// first and dropped before the pass publishes, so a pass pays one pin
/// however many it applies.
struct Inline {
    allowed: bool,
    pin: Option<reclaim::Guard>,
}

/// What a batched request is waiting on when assembly begins.
enum Slot {
    /// Answered inline (read, control, structural rejection, a user-row
    /// write applied inline).
    Done(Reply),
    /// `QUIT`: `+OK`, then the session closes.
    Quit,
    /// One mutation: the shard owner's ack with this sequence number.
    Single(u64),
    /// A `POST` fan-out: every one of these (consecutive) acks.
    Fanout(Range<u64>),
}

/// One burst's acknowledgements, reassembled by sequence number. A
/// burst issues its numbers densely from `base`, so the reply of `seq`
/// lives at index `seq − base` — no hashing, one allocation.
#[derive(Default)]
struct AckTable {
    base: u64,
    replies: Vec<Option<Reply>>,
    /// Acks filed so far (each sequence number is acked once).
    filed: usize,
    /// The store-side segments of a traced burst's acks, kept until
    /// the burst resolves.
    segments: Vec<StoreSegment>,
}

impl AckTable {
    fn new(base: u64) -> AckTable {
        AckTable {
            base,
            ..AckTable::default()
        }
    }

    /// The next sequence number (the one [`AckTable::issue`] returns).
    fn next_seq(&self) -> u64 {
        self.base + self.replies.len() as u64
    }

    /// Issue a sequence number and reserve its reply slot.
    fn issue(&mut self) -> u64 {
        self.replies.push(None);
        self.next_seq() - 1
    }

    /// Whether every issued sequence number has been acked.
    fn complete(&self) -> bool {
        self.filed == self.replies.len()
    }

    /// File one run's acks.
    fn accept(&mut self, acked: impl IntoIterator<Item = Entry>) {
        for entry in acked {
            let Entry::Ack(seq, reply, seg) = entry else {
                unreachable!("a run comes back with every entry acked");
            };
            self.segments.extend(seg);
            let index = seq.checked_sub(self.base).map(|i| i as usize);
            if let Some(slot) = index.and_then(|i| self.replies.get_mut(i)) {
                *slot = Some(reply);
                self.filed += 1;
            }
        }
    }

    /// The burst resolves: its store-side segments go to the span that
    /// traced it — active again by now, however long the burst was
    /// parked (a no-op for the untraced).
    fn hand_segments_to_span(&mut self) {
        for seg in self.segments.drain(..) {
            dego_middleware::span::record_store(seg);
        }
    }

    /// The reply the ack of `seq` carried; an ack that never arrived
    /// answers `missing`.
    fn take(&mut self, seq: u64, missing: &'static str) -> Reply {
        self.replies[(seq - self.base) as usize]
            .take()
            .unwrap_or_else(|| Reply::Error(missing.into()))
    }
}

/// A burst between its staging and its resolution: what each staged
/// request waits on, in request order, the requests not staged yet, and
/// the acks gathered so far.
struct Burst {
    slots: Vec<Slot>,
    /// The requests still to stage; at a barrier, the one that waits
    /// comes first.
    rest: std::vec::IntoIter<Request>,
    acks: AckTable,
    /// The rows with a mutation outstanding.
    pending: PendingRows,
    /// Why the session is poisoned (an ack wait failed), if it is.
    dead: Option<&'static str>,
}

/// The innermost service: executes commands against the storage plane
/// (the thing every middleware layer ultimately wraps), and the one
/// place a burst waits — by **parking**. `begin_batch` stages a burst
/// until its end or a barrier (a read-after-write and friends), staging
/// on past each barrier whose runs all went in place, and parks it
/// while acks are in flight; `poll_batch` files the acks that
/// arrived and, once the table is complete, resumes staging after the
/// barrier — so a burst may park several times, all under the one
/// `ack_timeout` armed when it began — and resolves it at the end or
/// once the deadline has lapsed. Nothing blocks on the ack channel.
/// Reply bytes are identical to sequential execution.
pub(crate) struct ExecService {
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    /// The connection's stack, whose pipeline plane `STATS` shows and
    /// `STATS RESET` zeroes.
    stack: Arc<Stack>,
    /// The readiness gate `READY` reports; flips to `false` the moment
    /// a drain begins.
    ready: Arc<AtomicBool>,
    /// Next mutation sequence number (reply reassembly key).
    next_seq: u64,
    /// The runs being staged, per shard. Empty between staging passes
    /// — every pass publishes.
    staged: Vec<Vec<Entry>>,
    /// Per shard, whether it is home to this connection's loop: its
    /// runs are applied in place when its write side is free.
    home: Arc<[bool]>,
    ack_timeout: Duration,
    ack_tx: Sender<Vec<Entry>>,
    ack_rx: Receiver<Vec<Entry>>,
    /// The parked burst, and when its wait times out.
    parked: Option<(Burst, Instant)>,
    /// The owning event loop's `epoll` waker, carried on every envelope
    /// so the shard's ack wakes the loop to poll the parked burst.
    waker: Arc<LoopWaker>,
    /// The creating thread's cell of [`Store::applied`], which counts
    /// the user-row writes this connection applies itself. Every
    /// connection of a loop holds the loop thread's one cell.
    applied: CounterCell,
}

impl ExecService {
    /// Wire up the innermost service for one connection.
    pub(crate) fn new(
        store: Arc<Store>,
        stats: Arc<ServerStats>,
        stack: Arc<Stack>,
        ready: Arc<AtomicBool>,
        ack_timeout: Duration,
        waker: Arc<LoopWaker>,
        home: Arc<[bool]>,
    ) -> ExecService {
        let (ack_tx, ack_rx) = channel();
        ExecService {
            staged: (0..store.shards()).map(|_| Vec::new()).collect(),
            applied: store.applied.cell(),
            home,
            store,
            stats,
            stack,
            ready,
            next_seq: 0,
            ack_timeout,
            ack_tx,
            ack_rx,
            parked: None,
            waker,
        }
    }

    /// Stage one mutation for its shard, returning its sequence number.
    fn stage(&mut self, acks: &mut AckTable, shard: usize, op: Mutation) -> u64 {
        let seq = acks.issue();
        self.staged[shard].push(Entry::Op(seq, op));
        seq
    }

    /// Apply `op` on this thread if it is a write to a user row that
    /// exists, the pass may (see [`Inline`]) and `burst` has no mutation
    /// of that row staged or in flight before it: its reply. `None`
    /// means stage it: its shard's writer creates a missing row, then
    /// applies the same [`UserOp`] ([`store::User::apply`]).
    fn apply_inline(&self, inline: &mut Inline, burst: &Burst, op: &Mutation) -> Option<Reply> {
        let &Mutation::User { user, op } = op else {
            return None;
        };
        if !inline.allowed || burst.pending.contains(&PendingKey::User(user)) {
            return None;
        }
        let users = &self.store.tables.users;
        let pin = inline.pin.get_or_insert_with(reclaim::pin);
        let reply = users.read_in(pin, &user, |row| row.apply(op))?;
        self.applied.inc();
        Some(reply)
    }

    /// Stage a `POST`'s fan-out (author plus up to `FANOUT_LIMIT`
    /// followers), push by push, returning the sequence numbers of the
    /// pushes not applied inline: none, when all were, and then the
    /// `POST` is done. A staged push marks its user's row pending if a
    /// request comes `later` in the burst.
    fn stage_post(
        &mut self,
        burst: &mut Burst,
        (inline, later): (&mut Inline, bool),
        (author, msg): (u64, u64),
    ) -> Range<u64> {
        self.stats.note_mutation();
        let first = burst.acks.next_seq();
        // The author's own timeline is always a target; a self-follow
        // must not deliver twice, so filter the author out of the
        // follower fan-out.
        let mut fans = [0; FANOUT_LIMIT];
        let pin = inline.pin.get_or_insert_with(reclaim::pin);
        let users = &self.store.tables.users;
        let n = users.read_in(pin, &author, |row| {
            row.followers.first(pin, Some(author), &mut fans)
        });
        for user in std::iter::once(author).chain(fans[..n.unwrap_or(0)].iter().copied()) {
            let push = Mutation::User {
                user,
                op: UserOp::Push(msg),
            };
            if self.apply_inline(inline, burst, &push).is_some() {
                continue;
            }
            if later {
                burst.pending.insert(PendingKey::User(user));
            }
            let shard = self.store.shard_of_row(DataRow::User(user));
            self.stage(&mut burst.acks, shard, push);
        }
        first..burst.acks.next_seq()
    }

    /// End the pass's runs, all stamped with one publish time. The
    /// runs for other shards go first, one envelope each carrying the
    /// loop's doorbell, so their owners apply them while this thread
    /// applies each home run in place, filing its acks into `acks`. A
    /// home run whose write side is busy, or whose shard is stalled,
    /// goes to its owner too.
    fn publish(&mut self, acks: &mut AckTable) {
        let mut stamp = None;
        for home in [false, true] {
            for (shard, staged) in self.staged.iter_mut().enumerate() {
                if staged.is_empty() || self.home[shard] != home {
                    continue;
                }
                // Only span-sampled requests pay for shard-side
                // stamping; the flag rides the run to its writer.
                let (at, traced) =
                    *stamp.get_or_insert_with(|| (Instant::now(), dego_middleware::span::active()));
                if home && self.store.apply_in_place(shard, staged, (at, traced)) {
                    // Drained, not taken: the run's vector is reused.
                    acks.accept(staged.drain(..));
                    continue;
                }
                let run = Envelope {
                    entries: std::mem::take(staged),
                    reply: self.ack_tx.clone(),
                    waker: Arc::clone(&self.waker),
                    enqueued_at: at,
                    traced,
                };
                self.store.enqueue(shard, run);
            }
        }
    }

    /// The single-shard mutation `cmd` moves into, with its shard and
    /// the row it marks pending — both read off the row its footprint
    /// writes — or, when it is not one, its reply, served inline. A
    /// `GET` reads its key's row once: a live value or a miss is its
    /// reply, and a lapsed row makes it the key's reap, a write of the
    /// key it reads.
    fn plan_mutation(&self, cmd: Command) -> Result<(usize, Mutation, PendingKey), Reply> {
        use UserOp::{Add, Follow, Join, Leave, Profile, Unfollow};
        let row = match &cmd {
            Command::Get(key) => match self.store.tables.kv.read(key, KvRow::live) {
                Some(None) => DataRow::Key(key),
                Some(Some(value)) => {
                    self.stats.note_get_hit();
                    return Err(Reply::Value(value));
                }
                None => {
                    self.stats.note_get_miss();
                    return Err(Reply::Nil);
                }
            },
            cmd => match cmd.footprint().writes {
                Some(row) => row,
                None => return Err(self.serve_read(cmd)),
            },
        };
        let (shard, pending) = (self.store.shard_of_row(row), PendingKey::of(row));
        let op = match cmd {
            Command::Set(key, value) => Mutation::Set { key, value },
            Command::Del(key) => Mutation::Del { key },
            Command::Incr(key, delta) => Mutation::Incr { key, delta },
            Command::Expire(key, millis) => Mutation::Expire { key, millis },
            Command::Get(key) => Mutation::Reap { key },
            Command::AddUser(user) => Mutation::User { user, op: Add },
            Command::Follow(follower, user) => Mutation::User {
                user,
                op: Follow(follower),
            },
            Command::Unfollow(follower, user) => Mutation::User {
                user,
                op: Unfollow(follower),
            },
            Command::Join(user) => Mutation::User { user, op: Join },
            Command::Leave(user) => Mutation::User { user, op: Leave },
            Command::Profile(user) => Mutation::User { user, op: Profile },
            // A `POST` is staged by `stage_post`, push by push.
            other => return Err(self.serve_read(&other)),
        };
        Ok((shard, op, pending))
    }

    /// Whether `cmd` must wait for `burst`'s outstanding acks — a
    /// *barrier*: a full barrier, or a read of a row (a `POST`'s: its
    /// author's, whose followers its fan-out copies) with a mutation
    /// staged or in flight. With nothing outstanding (the common case: reads ahead of
    /// a burst's first write) no key is even hashed to find out.
    fn waits(burst: &Burst, cmd: &Command) -> bool {
        let rows = cmd.footprint();
        let read_pending = |row| burst.pending.contains(&PendingKey::of(row));
        !burst.acks.complete() && (rows.full_barrier || rows.reads.is_some_and(read_pending))
    }

    /// Serve a read/control command inline from the lock-free segment
    /// readers (never a `GET`, which [`ExecService::plan_mutation`]
    /// answers, a mutation, `QUIT`, or a middleware verb).
    fn serve_read(&self, cmd: &Command) -> Reply {
        match cmd {
            Command::Timeline(user) => {
                self.stats.note_timeline_read();
                let mut newest = Vec::new();
                let users = &self.store.tables.users;
                users.read(user, |row| row.timeline.newest(TIMELINE_LIMIT, &mut newest));
                Reply::Ints(newest)
            }
            Command::IsFollowing(follower, followee) => {
                let (pin, users) = (reclaim::pin(), &self.store.tables.users);
                let follows = users.read_in(&pin, followee, |row| {
                    row.followers.contains(&pin, *follower)
                });
                Reply::Int(follows.unwrap_or(false) as i64)
            }
            Command::Followers(user) => {
                let (pin, users) = (reclaim::pin(), &self.store.tables.users);
                let n = users.read_in(&pin, user, |row| row.followers.len(&pin));
                Reply::Int(n.unwrap_or(0) as i64)
            }
            Command::InGroup(user) => {
                let users = &self.store.tables.users;
                let member = users.read(user, |row| row.member.load(Ordering::Acquire));
                Reply::Int(member.unwrap_or(false) as i64)
            }
            Command::ProfileVer(user) => {
                let users = &self.store.tables.users;
                let version = users.read(user, |row| row.profile.load(Ordering::Acquire));
                Reply::Int(version.unwrap_or(0) as i64)
            }
            Command::Stats => self.render_stats(View::Stats),
            Command::StatsShards => self.render_stats(View::Shards),
            Command::StatsReset => {
                stats::reset(&self.stats, &self.store, &self.stack);
                Reply::Status("OK")
            }
            Command::Ping => Reply::Status("PONG"),
            // Liveness: answers as long as the process serves at all —
            // even mid-drain (the orchestrator must not kill a server
            // that is still flushing its queues).
            Command::Health => Reply::Status("OK"),
            // Readiness: whether *new* traffic should route here.
            Command::Ready => {
                if self.ready.load(Ordering::Acquire) {
                    Reply::Status("READY")
                } else {
                    Reply::Error("NOTREADY draining".into())
                }
            }
            other => Reply::Error(format!("{} reached the read executor", other.verb())),
        }
    }

    /// A `STATS` or `STATS SHARDS` reply.
    fn render_stats(&self, view: View) -> Reply {
        let mut lines = Vec::new();
        let out = &mut Surface::Stats(&mut lines);
        stats::render(view, &self.stats, &self.store, &self.stack, out);
        Reply::Array(lines)
    }

    /// The structural depth-0 rejections: middleware-owned verbs
    /// (`AUTH`, `EXPIRE`, the `SLOWLOG`/`TRACE` rings) answered here,
    /// at the innermost service, when their layer is not in the
    /// pipeline — they never reach the store.
    fn structural_rejection(&self, cmd: &Command) -> Option<Response> {
        match cmd {
            Command::Auth(_) => Some(Response::rejection("AUTH", "auth layer not enabled")),
            Command::Expire(..) if self.store.tables.ttl.is_none() => {
                Some(Response::rejection("TTL", "ttl layer not enabled"))
            }
            Command::SlowlogGet
            | Command::SlowlogReset
            | Command::SlowlogLen
            | Command::TraceGet
            | Command::TraceReset
            | Command::TraceLen => Some(Response::rejection("TRACE", "trace layer not enabled")),
            _ => None,
        }
    }
}

impl ExecService {
    /// The group-commit loop, in staging passes. A pass stages
    /// mutations per shard, serves reads inline, and publishes its runs
    /// at its end — the one place a run ends: the shards' FIFO order
    /// keeps per-key order, and [`ExecService::waits`] makes a barrier
    /// of any read of a row still staged. A pass ends at the end of the
    /// burst or at a barrier, the waiting request left first in `rest`.
    /// If its runs all went in place, every ack is filed and the next
    /// pass begins here; otherwise the caller parks the burst, and the
    /// next pass begins once every outstanding ack is filed.
    fn stage_burst(&mut self, burst: &mut Burst) {
        loop {
            self.stage_pass(burst);
            if !burst.acks.complete() || burst.rest.as_slice().is_empty() {
                return;
            }
        }
    }

    /// One staging pass (see [`ExecService::stage_burst`]).
    fn stage_pass(&mut self, burst: &mut Burst) {
        if burst.acks.complete() {
            // Every mutation staged so far is applied and visible.
            burst.pending.clear();
        }
        // With the stall up, every write goes to the stalled owners.
        let mut inline = Inline {
            allowed: !self.store.stalled(),
            pin: None,
        };
        while let Some(req) = burst.rest.as_slice().first() {
            if Self::waits(burst, &req.command) {
                break;
            }
            let req = burst.rest.next().expect("the request looked at above");
            // Pending rows only matter to a request after this one.
            let later = !burst.rest.as_slice().is_empty();
            if let Some(resp) = self.structural_rejection(&req.command) {
                burst.slots.push(Slot::Done(resp.reply));
                continue;
            }
            let slot = match req.command {
                Command::Quit => Slot::Quit,
                Command::Post(author, msg) => {
                    Slot::Fanout(self.stage_post(burst, (&mut inline, later), (author, msg)))
                }
                cmd => match self.plan_mutation(cmd) {
                    Ok((shard, op, pending)) => {
                        self.stats.note_mutation();
                        if let Some(reply) = self.apply_inline(&mut inline, burst, &op) {
                            Slot::Done(reply)
                        } else {
                            if later {
                                burst.pending.insert(pending);
                            }
                            Slot::Single(self.stage(&mut burst.acks, shard, op))
                        }
                    }
                    Err(reply) => Slot::Done(reply),
                },
            };
            burst.slots.push(slot);
        }
        // Unpinned before the runs apply, which may retire garbage.
        drop(inline);
        self.next_seq = burst.acks.next_seq();
        self.publish(&mut burst.acks);
    }

    /// The response `slot` resolves to; an ack that never arrived
    /// answers `missing`.
    fn resolve(slot: Slot, acks: &mut AckTable, missing: &'static str) -> Response {
        Response::ok(match slot {
            Slot::Done(reply) => reply,
            Slot::Quit => {
                return Response {
                    reply: Reply::Status("OK"),
                    close: true,
                }
            }
            Slot::Single(seq) => acks.take(seq, missing),
            // A fan-out fails as a whole on any error or missing ack
            // (the last one wins).
            Slot::Fanout(seqs) => seqs
                .map(|seq| acks.take(seq, missing))
                .filter(|reply| matches!(reply, Reply::Error(_)))
                .last()
                .unwrap_or(Reply::Status("OK")),
        })
    }

    /// Resolve a burst whose wait is over into its responses, in
    /// request order. A poisoned burst answers its missing acks and the
    /// requests it never staged with the cause and, whatever the client
    /// was told, ends the session — a late ack could otherwise desync
    /// every later request/reply pairing.
    fn finish(&mut self, burst: Burst) -> Vec<Response> {
        let Burst {
            slots,
            rest,
            mut acks,
            dead,
            ..
        } = burst;
        acks.hand_segments_to_span();
        let missing = dead.unwrap_or(ACK_GONE_MSG);
        let unstaged = rest.map(|_| Response::ok(Reply::Error(missing.into())));
        let mut responses: Vec<Response> = slots
            .into_iter()
            .map(|slot| Self::resolve(slot, &mut acks, missing))
            .chain(unstaged)
            .collect();
        if dead.is_some() {
            if let Some(last) = responses.last_mut() {
                last.close = true;
            }
        }
        responses
    }
}

impl Service for ExecService {
    /// A burst of one, for in-process callers (the loop begins every
    /// burst, and no layer calls below itself).
    fn call(&mut self, req: Request) -> Response {
        let mut responses = self.call_batch(vec![req]);
        responses.pop().expect("one response per request")
    }

    /// Stage the burst and park it while its acks are in flight — the
    /// loop serves other connections meanwhile, whose bursts can hit
    /// the same shard sweep — or answer it at once if none is. The
    /// deadline is armed here, once for the whole burst however often
    /// it parks.
    fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
        let mut burst = Burst {
            slots: Vec::with_capacity(reqs.len()),
            rest: reqs.into_iter(),
            acks: AckTable::new(self.next_seq),
            pending: PendingRows::default(),
            dead: None,
        };
        self.stage_burst(&mut burst);
        if burst.acks.complete() {
            return Progress::Done(self.finish(burst));
        }
        self.parked = Some((burst, Instant::now() + self.ack_timeout));
        Progress::Parked
    }

    /// File whatever acks arrived. Once the table is complete, stage
    /// the next pass (the burst was parked at a barrier, or staged to
    /// its end); resolve the burst once it is staged to its end with
    /// every ack in, or once the deadline lapsed — which poisons it.
    fn poll_batch(&mut self) -> Option<Vec<Response>> {
        let (mut burst, deadline) = self.parked.take()?;
        while let Ok(acked) = self.ack_rx.try_recv() {
            burst.acks.accept(acked);
        }
        if burst.acks.complete() {
            self.stage_burst(&mut burst);
        } else if Instant::now() >= deadline {
            burst.dead = Some(ACK_TIMEOUT_MSG);
        }
        if burst.dead.is_none() && !burst.acks.complete() {
            self.parked = Some((burst, deadline));
            return None;
        }
        Some(self.finish(burst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dego_middleware::{BoxService, PipelineMetrics, Session, TraceConfig};

    #[test]
    fn accept_backoff_grows_and_saturates() {
        assert_eq!(accept_backoff(0), Duration::from_millis(1));
        assert_eq!(accept_backoff(3), Duration::from_millis(8));
        assert_eq!(accept_backoff(7), ACCEPT_BACKOFF_CAP);
        // Huge streaks must neither overflow nor exceed the cap.
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_CAP);
    }

    /// A store of `shards` shards whose owners stall `stall` per apply
    /// (and count key timers when given the TTL layer's metrics), its
    /// server counters, and the owners, stopped when the guard drops.
    fn owners(
        shards: usize,
        stall: Option<Duration>,
        ttl: Option<Arc<PipelineMetrics>>,
    ) -> (Arc<ServerStats>, Owners) {
        let stats = Arc::new(ServerStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let runtime = store::spawn_shards(
            shards,
            1,
            256,
            Arc::clone(&stats),
            Arc::clone(&stop),
            60,
            ttl,
        );
        runtime.store.set_shard_delay(stall);
        (stats, Owners { runtime, stop })
    }

    /// A 2-shard store (see [`owners`]) and one connection's innermost
    /// service over it, below an empty stack — on a loop home to no
    /// shard, so every run goes to an owner.
    fn exec_over(
        stall: Option<Duration>,
        ack_timeout: Duration,
        ttl: Option<Arc<PipelineMetrics>>,
    ) -> (ExecService, Arc<ServerStats>, Owners) {
        let (stats, owners) = owners(2, stall, ttl);
        let store = &owners.runtime.store;
        let exec = connection(store, &stats, &bare(), ack_timeout, &[false; 2]);
        (exec, stats, owners)
    }

    /// The empty stack.
    fn bare() -> Arc<Stack> {
        Stack::build(&MiddlewareConfig::none())
    }

    /// One connection's innermost service over `store`, below `stack`,
    /// on a loop whose home shards are those `home` marks.
    fn connection(
        store: &Arc<Store>,
        stats: &Arc<ServerStats>,
        stack: &Arc<Stack>,
        ack_timeout: Duration,
        home: &[bool],
    ) -> ExecService {
        ExecService::new(
            Arc::clone(store),
            Arc::clone(stats),
            Arc::clone(stack),
            Arc::new(AtomicBool::new(true)),
            ack_timeout,
            Arc::new(LoopWaker::new().expect("eventfd")),
            home.into(),
        )
    }

    struct Owners {
        runtime: store::ShardRuntime,
        stop: Arc<AtomicBool>,
    }

    impl Drop for Owners {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Release);
            for thread in self.runtime.threads.drain(..) {
                thread.join().expect("shard owner exits");
            }
        }
    }

    /// Poll a begun burst to its answer, the way the event loop does.
    fn answer(exec: &mut ExecService, progress: Progress) -> Vec<Response> {
        match progress {
            Progress::Done(responses) => responses,
            Progress::Parked => loop {
                match exec.poll_batch() {
                    Some(responses) => break responses,
                    None => std::thread::yield_now(),
                }
            },
        }
    }

    fn set(key: &str, value: &str) -> Request {
        Request::new(Command::Set(key.into(), value.into()))
    }

    fn get(key: &str) -> Request {
        Request::new(Command::Get(key.into()))
    }

    /// The hand-off is counted, not timed: a run of 64 consecutive
    /// SETs over 2 shards is 2 envelopes, so exactly 2 owner sweeps —
    /// and the telemetry still counts the 64 mutations.
    #[test]
    fn a_run_is_handed_off_as_one_envelope_per_shard() {
        let (mut exec, stats, owners) = exec_over(None, Duration::from_secs(5), None);
        let store = Arc::clone(&owners.runtime.store);
        let sets = |keys: Range<u32>| keys.map(|i| set(&format!("k{i}"), "v"));
        // Drive one parking burst to completion the way the event loop
        // does, returning the owner sweeps it cost.
        let mut sweeps_of = |burst: Vec<Request>, writes: usize| {
            let before = stats.snapshot().shard_batches;
            let sent = burst.len();
            let progress = exec.begin_batch(burst);
            let responses = answer(&mut exec, progress);
            assert_eq!(responses.len(), sent);
            let oks = responses.iter().filter(|r| r.reply == Reply::Status("OK"));
            assert_eq!(oks.count(), writes, "every write acknowledged");
            stats.snapshot().shard_batches - before
        };

        assert_eq!(sweeps_of(sets(0..64).collect(), 64), 2);
        assert_eq!(store.applied_since_reset(), 64);
        assert_eq!(
            enqueued(&store),
            64,
            "STATS SHARDS counts mutations, not envelopes"
        );

        // A read of an untouched key in the middle is no barrier and
        // ends no run: the pass publishes once, at its end.
        let mut burst: Vec<Request> = sets(64..96).collect();
        burst.push(get("untouched"));
        burst.extend(sets(96..128));
        assert_eq!(sweeps_of(burst, 64), 2);
        assert_eq!(store.applied_since_reset(), 128);
    }

    /// The mutations handed to every shard, as `STATS SHARDS` counts
    /// them (`shard{}_enqueued`).
    fn enqueued(store: &Store) -> u64 {
        let mut shard_lines = Vec::new();
        store.render_shards(&mut Surface::Stats(&mut shard_lines));
        shard_lines
            .iter()
            .filter_map(|line| line.split_once("_enqueued="))
            .map(|(_, count)| count.parse::<u64>().expect("numeric"))
            .sum()
    }

    /// A write to a user row that exists applies on the connection's
    /// loop, a follower edit that moves its row included: on a loop home
    /// to no shard, a burst of one of each per verb finishes inside
    /// `begin_batch` and hands no owner a mutation, and so does a burst
    /// of `FOLLOW`s past the row's four slots and `UNFOLLOW`s until it
    /// is less than a quarter live, and a burst that reads each field
    /// right after writing it. Counted, not timed.
    #[test]
    fn user_row_writes_to_rows_that_exist_reach_no_owner() {
        let (mut exec, _, owners) = exec_over(None, Duration::from_secs(5), None);
        let store = &owners.runtime.store;
        let requests = |lines: &[&str]| -> Vec<Request> {
            let parse = |line: &&str| Command::parse(line).expect("a line parses");
            lines.iter().map(parse).map(Request::new).collect()
        };
        // Both rows exist, and 1's follower row has its first slots.
        burst(
            &mut exec,
            requests(&["ADDUSER 1", "ADDUSER 2", "FOLLOW 2 1"]),
        );
        let before = enqueued(store);
        let lines = [
            "ADDUSER 1",
            "FOLLOW 3 1",
            "UNFOLLOW 3 1",
            "POST 1 7",
            "PROFILE 1",
            "JOIN 1",
            "LEAVE 1",
        ];
        let replies = finished_at_once(&mut exec, requests(&lines)).expect("the burst parked");
        let ok = Reply::Status("OK");
        assert_eq!(
            replies,
            [
                ok.clone(),
                ok.clone(),
                ok.clone(),
                ok.clone(),
                Reply::Int(1),
                ok.clone(),
                ok.clone()
            ]
        );
        assert_eq!(enqueued(store), before, "handed to an owner");
        let reads = requests(&["FOLLOWERS 1", "ISFOLLOWING 3 1", "TIMELINE 2"]);
        let replies = burst(&mut exec, reads);
        assert_eq!(
            replies,
            [Reply::Int(1), Reply::Int(0), Reply::Ints(vec![7])]
        );

        // The row moves from four slots to 6, 12 and 24, then to 10 and 4.
        let follows = (10..30).map(|fan| format!("FOLLOW {fan} 1"));
        let unfollows = (10..29).map(|fan| format!("UNFOLLOW {fan} 1"));
        let moving: Vec<String> = follows.chain(unfollows).collect();
        let moving: Vec<&str> = moving.iter().map(String::as_str).collect();
        let replies = finished_at_once(&mut exec, requests(&moving)).expect("the burst parked");
        assert!(replies.iter().all(|reply| *reply == ok), "{replies:?}");
        assert_eq!(enqueued(store), before, "a move handed to an owner");
        let reads = requests(&["FOLLOWERS 1", "ISFOLLOWING 29 1", "ISFOLLOWING 10 1"]);
        let replies = burst(&mut exec, reads);
        assert_eq!(replies, [Reply::Int(2), Reply::Int(1), Reply::Int(0)]);

        // A user is one row, yet a read of it after an inline write of
        // another of its fields is no barrier: the burst still finishes
        // inside `begin_batch`, with the replies of one line at a time.
        // 29 follows 1, so its row must exist for `POST 1 8` to apply.
        burst(&mut exec, requests(&["ADDUSER 29"]));
        let before = enqueued(store);
        let lines = [
            "PROFILE 1",
            "PROFILEVER 1",
            "JOIN 1",
            "INGROUP 1",
            "POST 1 8",
            "TIMELINE 1",
            "FOLLOW 5 1",
            "FOLLOWERS 1",
            "ISFOLLOWING 5 1",
        ];
        let replies = finished_at_once(&mut exec, requests(&lines)).expect("the burst parked");
        let lock_step = [
            Reply::Int(2),
            Reply::Int(2),
            ok.clone(),
            Reply::Int(1),
            ok.clone(),
            Reply::Ints(vec![8, 7]),
            ok,
            Reply::Int(3),
            Reply::Int(1),
        ];
        assert_eq!(replies, lock_step);
        assert_eq!(enqueued(store), before, "handed to an owner");
    }

    /// A burst stages a user-row write only to create the row (or under
    /// the stall), so its next write of that row finds the row only when
    /// another connection created it meanwhile. That write must still
    /// wait behind the staged one: a row pending in the burst is never
    /// written inline, though it exists, and is once nothing is pending.
    #[test]
    fn an_inline_write_never_overtakes_a_staged_write_of_its_row() {
        let (mut exec, _, _owners) = exec_over(None, Duration::from_secs(5), None);
        call(&mut exec, Request::new(Command::AddUser(1)));
        let row = PendingKey::User(1);
        let mut burst = Burst {
            slots: Vec::new(),
            rest: Vec::new().into_iter(),
            acks: AckTable::new(0),
            pending: PendingRows::from_iter([row]),
            dead: None,
        };
        let inline = &mut Inline {
            allowed: true,
            pin: None,
        };
        let unfollow = Mutation::User {
            user: 1,
            op: UserOp::Unfollow(5),
        };
        let applied = exec.apply_inline(inline, &burst, &unfollow);
        assert!(applied.is_none(), "overtook the staged write");
        burst.pending.clear();
        let applied = exec.apply_inline(inline, &burst, &unfollow);
        assert_eq!(applied, Some(Reply::Status("OK")));
    }

    /// In process, a chain's `call_batch` takes the served path: the
    /// burst is begun and polled, not split into bursts of one, so 64
    /// `SET`s over 2 shards group-commit into 2 owner sweeps.
    #[test]
    fn call_batch_through_a_chain_group_commits_like_the_served_path() {
        let (exec, stats, _owners) = exec_over(None, Duration::from_secs(5), None);
        let session = Session {
            client: "t:1".into(),
        };
        let mut chain = bare().service(&session, Box::new(exec));
        let before = stats.snapshot().shard_batches;
        let responses = chain.call_batch((0..64).map(|i| set(&format!("k{i}"), "v")).collect());
        let oks = responses.iter().filter(|r| r.reply == Reply::Status("OK"));
        assert_eq!(oks.count(), 64, "every write acknowledged");
        assert_eq!(stats.snapshot().shard_batches - before, 2);
    }

    /// While shedding is armed, every write burst's admission reads its
    /// target shards' pressure: that read allocates nothing, however
    /// many ack samples the window holds.
    #[test]
    fn a_pressure_read_allocates_nothing() {
        use crate::test_alloc::allocations;
        let (mut exec, _, owners) = exec_over(None, Duration::from_secs(5), None);
        let burst = (0..16).map(|i| set(&format!("k{i}"), "v")).collect();
        let progress = exec.begin_batch(burst);
        assert_eq!(answer(&mut exec, progress).len(), 16);
        let probe = StorePressure {
            store: Arc::clone(&owners.runtime.store),
        };
        for shard in 0..2 {
            let before = allocations();
            let pressure = probe.pressure_of(shard);
            assert_eq!(allocations() - before, 0, "shard {shard}");
            assert!(pressure.ack_p99_us > 0, "shard {shard} recorded acks");
        }
    }

    /// A burst parks at each read-after-write barrier instead of
    /// waiting there: `begin_batch` returns within one stall, and each
    /// poll that finds a barrier's acks in stages on to the next one.
    /// Past its one deadline, a burst parked at a barrier is poisoned:
    /// the write never acked, the barrier read and everything after it
    /// all answer the ack timeout, and the last reply closes.
    #[test]
    fn a_burst_reparks_at_each_barrier_and_is_poisoned_at_its_deadline() {
        const STALL: Duration = Duration::from_millis(20);
        let (mut exec, _, _owners) = exec_over(Some(STALL), Duration::from_secs(5), None);
        let began = Instant::now();
        let progress = exec.begin_batch(vec![set("k", "1"), get("k"), set("k", "2"), get("k")]);
        assert!(began.elapsed() < STALL, "waited {:?}", began.elapsed());
        assert!(matches!(progress, Progress::Parked));
        let replies: Vec<Reply> = answer(&mut exec, progress)
            .into_iter()
            .map(|resp| resp.reply)
            .collect();
        let (ok, value) = (Reply::Status("OK"), |v: &str| Reply::Value(v.into()));
        assert_eq!(replies, [ok.clone(), value("1"), ok, value("2")]);

        let (mut exec, _, _owners) = exec_over(
            Some(Duration::from_millis(200)),
            Duration::from_millis(30),
            None,
        );
        let progress = exec.begin_batch(vec![set("k", "1"), get("k"), Request::new(Command::Ping)]);
        let answered: Vec<(Reply, bool)> = answer(&mut exec, progress)
            .into_iter()
            .map(|resp| (resp.reply, resp.close))
            .collect();
        let timeout = Reply::Error(ACK_TIMEOUT_MSG.into());
        assert_eq!(
            answered,
            [
                (timeout.clone(), false),
                (timeout.clone(), false),
                (timeout, true)
            ]
        );
    }

    /// A key that routes to `shard`.
    fn key_on(store: &Store, shard: usize) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|key| store.shard_of_row(DataRow::Key(key)) == shard)
            .expect("some key routes to every shard")
    }

    /// The replies of a burst begun on `exec` if it finished inside
    /// `begin_batch`; a burst that parked is answered, and `None`.
    fn finished_at_once(exec: &mut ExecService, reqs: Vec<Request>) -> Option<Vec<Reply>> {
        match exec.begin_batch(reqs) {
            Progress::Done(responses) => Some(responses.into_iter().map(|r| r.reply).collect()),
            parked => {
                answer(exec, parked);
                None
            }
        }
    }

    /// With shard 0 home to its loop, a connection applies its writes
    /// there in place: a lone `SET` finishes inside `begin_batch`, and
    /// so does a burst with read-after-write barriers, each pass staging
    /// on at once. A `SET` on shard 1 goes to that shard's owner and
    /// parks. An owner caught mid-sweep sends a home write to the owner
    /// too, so the home bursts get a few tries.
    #[test]
    fn a_home_shard_write_finishes_inside_begin_batch() {
        let (_, stats, owners) = exec_over(None, Duration::from_secs(5), None);
        let store = &owners.runtime.store;
        let mut exec = connection(
            store,
            &stats,
            &bare(),
            Duration::from_secs(5),
            &[true, false],
        );
        let (home, away) = (key_on(store, 0), key_on(store, 1));
        let (ok, value) = (Reply::Status("OK"), |v: &str| Reply::Value(v.into()));
        let mut at_once = |reqs: &dyn Fn() -> Vec<Request>| {
            (0..100).find_map(|_| finished_at_once(&mut exec, reqs()))
        };
        let lone = at_once(&|| vec![set(&home, "1")]).expect("a lone home write in place");
        assert_eq!(lone, std::slice::from_ref(&ok));
        let barriers = at_once(&|| vec![set(&home, "2"), get(&home), set(&home, "3"), get(&home)])
            .expect("a home burst in place");
        assert_eq!(barriers, [ok.clone(), value("2"), ok.clone(), value("3")]);

        let parked = exec.begin_batch(vec![set(&away, "v")]);
        assert!(matches!(parked, Progress::Parked));
        let replies: Vec<Reply> = answer(&mut exec, parked)
            .into_iter()
            .map(|resp| resp.reply)
            .collect();
        assert_eq!(replies, [ok]);
        let row = store.tables.kv.get(&away).map(|row| row.value);
        assert_eq!(row.as_deref(), Some("v"));
    }

    /// Per-shard FIFO across the two paths. A connection on a loop home
    /// to no shard enqueues `SET k a`; a connection on the shard's home
    /// loop then writes `SET k b` — in place, after sweeping the queued
    /// `a`, or (owner mid-sweep) queued behind it. Either way `b` is the
    /// last write, every time.
    #[test]
    fn a_run_in_place_applies_after_the_runs_queued_before_it() {
        let (mut away, stats, owners) = exec_over(None, Duration::from_secs(5), None);
        let store = &owners.runtime.store;
        let mut home = connection(store, &stats, &bare(), Duration::from_secs(5), &[true; 2]);
        let key = String::from("k");
        for round in 0..10_000 {
            let queued = away.begin_batch(vec![set(&key, &format!("a{round}"))]);
            assert!(matches!(queued, Progress::Parked));
            let last = format!("b{round}");
            let progress = home.begin_batch(vec![set(&key, &last)]);
            answer(&mut home, progress);
            answer(&mut away, queued);
            let row = store.tables.kv.get(&key).map(|row| row.value);
            assert_eq!(row, Some(last), "round {round}");
        }
    }

    /// One connection's executor over owners that count key timers, the
    /// metrics they count them in, and the owners' guard.
    fn timed() -> (ExecService, Arc<PipelineMetrics>, Owners) {
        let metrics = Arc::new(PipelineMetrics::new());
        let ttl = Some(Arc::clone(&metrics));
        let (exec, _, owners) = exec_over(None, Duration::from_secs(5), ttl);
        (exec, metrics, owners)
    }

    fn call(exec: &mut ExecService, req: Request) -> Reply {
        exec.call(req).reply
    }

    fn expire(key: &str, millis: u64) -> Request {
        Request::new(Command::Expire(key.into(), millis))
    }

    fn incr(key: &str, delta: i64) -> Request {
        Request::new(Command::Incr(key.into(), delta))
    }

    /// A burst through `begin_batch`, answered as the event loop does.
    fn burst(exec: &mut ExecService, reqs: Vec<Request>) -> Vec<Reply> {
        let progress = exec.begin_batch(reqs);
        let responses = answer(exec, progress);
        responses.into_iter().map(|resp| resp.reply).collect()
    }

    /// Every write verb, followed in one burst by each read verb that
    /// observes it, answers as the same lines do one at a time. On a
    /// loop home to no shard a staged write applies only after its pass
    /// publishes, so a read that does not wait at its barrier reads the
    /// row from before the write, which each script checks is another
    /// answer. The rows are fresh, so a user-row write is staged too,
    /// and with the stall up every write is (`LEAVE` of a joined user
    /// included). `ADDUSER` has no such read: it only creates a row.
    /// The last script checks that a `POST`'s fan-out waits for the
    /// `FOLLOW` before it.
    #[test]
    fn each_read_waits_for_the_writes_it_observes() {
        // (setup, the burst) over a key `k` and users `u` and `x`.
        let scripts: [(&[&str], &[&str]); 13] = [
            (&[], &["SET k v", "GET k"]),
            (&["SET k v"], &["DEL k", "GET k"]),
            (&[], &["INCR k 5", "GET k"]),
            (&["SET k v"], &["EXPIRE k 0", "GET k"]),
            (&[], &["POST u 7", "TIMELINE u"]),
            (&[], &["FOLLOW x u", "ISFOLLOWING x u"]),
            (&[], &["FOLLOW x u", "FOLLOWERS u"]),
            (&["FOLLOW x u"], &["UNFOLLOW x u", "ISFOLLOWING x u"]),
            (&["FOLLOW x u"], &["UNFOLLOW x u", "FOLLOWERS u"]),
            (&[], &["JOIN u", "INGROUP u"]),
            (&["JOIN u"], &["LEAVE u", "INGROUP u"]),
            (&[], &["PROFILE u", "PROFILEVER u"]),
            (&[], &["FOLLOW x u", "POST u 9", "TIMELINE x"]),
        ];
        // The lines over fresh rows, numbered `run`.
        let requests = |lines: &[&str], run: usize| -> Vec<Request> {
            let token = |token: &str| match token {
                "k" => format!("k{run}"),
                "u" => (2 * run).to_string(),
                "x" => (2 * run + 1).to_string(),
                token => token.to_string(),
            };
            let line = |line: &&str| line.split(' ').map(token).collect::<Vec<_>>().join(" ");
            let parse = |line: String| Command::parse(&line).expect("a script line parses");
            lines
                .iter()
                .map(line)
                .map(parse)
                .map(Request::new)
                .collect()
        };
        let mut run = 0;
        for stall in [None, Some(Duration::from_micros(100))] {
            let ttl = Some(Arc::new(PipelineMetrics::new()));
            let (mut exec, _, _owners) = exec_over(stall, Duration::from_secs(5), ttl);
            for (setup, script) in scripts {
                let (read, writes) = script.split_last().expect("a script ends in its read");
                let mut replies = |lines: &[&str], whole: bool| {
                    run += 1;
                    for req in requests(setup, run) {
                        call(&mut exec, req);
                    }
                    let reqs = requests(lines, run);
                    if whole {
                        return burst(&mut exec, reqs);
                    }
                    reqs.into_iter().map(|req| call(&mut exec, req)).collect()
                };
                let before = replies(std::slice::from_ref(read), false);
                let lock_step = replies(script, false);
                assert_ne!(
                    lock_step.last(),
                    before.last(),
                    "{script:?} observes {writes:?}"
                );
                assert_eq!(
                    replies(script, true),
                    lock_step,
                    "{script:?}, stall {stall:?}"
                );
            }
        }
    }

    #[test]
    fn expire_on_missing_key_reports_zero() {
        let (mut exec, _, _owners) = timed();
        assert_eq!(call(&mut exec, expire("k", 50)), Reply::Int(0));
    }

    #[test]
    fn expired_key_reads_as_nil_and_is_reaped() {
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("k", "v"));
        assert_eq!(call(&mut exec, expire("k", 20)), Reply::Int(1));
        assert_eq!(
            call(&mut exec, get("k")),
            Reply::Value("v".into()),
            "alive before the deadline"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(call(&mut exec, get("k")), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
        // Reaped for real: later reads miss without a timer to look at.
        assert!(!exec.store.tables.kv.contains_key(&"k".into()));
        assert_eq!(call(&mut exec, get("k")), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1, "no double expiry");
    }

    #[test]
    fn set_disarms_a_pending_timer() {
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("k", "v1"));
        call(&mut exec, expire("k", 20));
        call(&mut exec, set("k", "v2"));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut exec, get("k")),
            Reply::Value("v2".into()),
            "rewrite must cancel the timer"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn rearming_extends_the_deadline() {
        let (mut exec, _, _owners) = timed();
        call(&mut exec, set("k", "v"));
        // Re-armed well inside the first timer, so a loaded box cannot
        // let it lapse first; then read well past it.
        call(&mut exec, expire("k", 200));
        std::thread::sleep(Duration::from_millis(20));
        call(&mut exec, expire("k", 10_000));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(call(&mut exec, get("k")), Reply::Value("v".into()));
    }

    #[test]
    fn expire_cannot_resurrect_a_lapsed_key() {
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("k", "v"));
        call(&mut exec, expire("k", 10));
        std::thread::sleep(Duration::from_millis(30));
        // The timer lapsed (no GET reaped it yet): a re-EXPIRE must
        // treat the key as gone, not re-arm the stale value.
        assert_eq!(call(&mut exec, expire("k", 10_000)), Reply::Int(0));
        assert_eq!(call(&mut exec, get("k")), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
    }

    #[test]
    fn incr_on_a_lapsed_key_restarts_from_zero() {
        let (mut exec, _, _owners) = timed();
        call(&mut exec, set("n", "41"));
        call(&mut exec, expire("n", 10));
        std::thread::sleep(Duration::from_millis(30));
        // The expired 41 must not leak into the increment.
        assert_eq!(call(&mut exec, incr("n", 1)), Reply::Int(1));
        assert_eq!(
            call(&mut exec, get("n")),
            Reply::Value("1".into()),
            "the incremented row has no timer"
        );
    }

    #[test]
    fn incr_on_a_live_timed_key_clears_the_timer() {
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("n", "1"));
        call(&mut exec, expire("n", 20));
        assert_eq!(call(&mut exec, incr("n", 1)), Reply::Int(2));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut exec, get("n")),
            Reply::Value("2".into()),
            "rewritten row survives the stale deadline"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn batch_with_timers_keeps_expiry_semantics() {
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("k", "v"));
        call(&mut exec, expire("k", 10));
        std::thread::sleep(Duration::from_millis(30));
        // The first GET is the reap, the second waits for it at a
        // barrier: both observe the expiry.
        let replies = burst(&mut exec, vec![get("k"), get("k")]);
        assert_eq!(replies, [Reply::Nil, Reply::Nil]);
        assert_eq!(metrics.ttl_expired.sum(), 1, "reaped exactly once");
    }

    #[test]
    fn batch_carrying_expire_arms_timers() {
        let (mut exec, metrics, _owners) = timed();
        let replies = burst(&mut exec, vec![set("k", "v"), expire("k", 10_000)]);
        assert_eq!(replies[1], Reply::Int(1), "armed mid-burst");
        assert_eq!(metrics.ttl_armed.sum(), 1);
    }

    #[test]
    fn non_kv_commands_pass_untouched() {
        // A timer armed, and the verbs that are not kv traffic neither
        // touch it nor are touched by it.
        let (mut exec, metrics, _owners) = timed();
        call(&mut exec, set("k", "v"));
        call(&mut exec, expire("k", 10_000));
        let mut other = |cmd| call(&mut exec, Request::new(cmd));
        assert_eq!(other(Command::Ping), Reply::Status("PONG"));
        assert_eq!(other(Command::AddUser(1)), Reply::Status("OK"));
        assert_eq!(other(Command::Timeline(1)), Reply::Ints(vec![]));
        assert_eq!(call(&mut exec, get("k")), Reply::Value("v".into()));
        assert_eq!(metrics.ttl_armed.sum(), 1);
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    /// The shed layer routes a write with [`StorePressure::shard_of`],
    /// the executor with [`ExecService::plan_mutation`] (a `POST`'s
    /// first push, to the author's timeline, with `stage_post`): both
    /// read the first row of the verb's footprint. They agree on every
    /// write, whatever the shard count, and every read of a live key is
    /// served inline.
    #[test]
    fn the_shed_layer_routes_each_write_to_the_shard_it_is_staged_on() {
        use crate::protocol::CommandClass;
        for shards in [1, 2, 4] {
            let (stats, owners) = owners(shards, None, None);
            let store = &owners.runtime.store;
            let home = vec![false; shards];
            let mut exec = connection(store, &stats, &bare(), Duration::from_secs(5), &home);
            let probe = StorePressure {
                store: Arc::clone(store),
            };
            for i in 0..16u64 {
                let (key, user, fan) = (format!("k{i}"), i, i + 100);
                let every = [
                    Command::Get(key.clone()),
                    Command::Set(key.clone(), "v".into()),
                    Command::Del(key.clone()),
                    Command::Incr(key.clone(), 1),
                    Command::Expire(key, 10_000),
                    Command::AddUser(user),
                    Command::Post(user, 7),
                    Command::Follow(fan, user),
                    Command::Unfollow(fan, user),
                    Command::Timeline(user),
                    Command::IsFollowing(fan, user),
                    Command::Followers(user),
                    Command::Join(user),
                    Command::Leave(user),
                    Command::InGroup(user),
                    Command::Profile(user),
                    Command::ProfileVer(user),
                ];
                for cmd in every {
                    let routed = probe.shard_of(&cmd);
                    let what = format!("{cmd:?} over {shards} shards");
                    match (cmd.class(), cmd) {
                        (CommandClass::Write, Command::Post(author, msg)) => {
                            let mut burst = Burst {
                                slots: Vec::new(),
                                rest: Vec::new().into_iter(),
                                acks: AckTable::new(0),
                                pending: PendingRows::default(),
                                dead: None,
                            };
                            let inline = &mut Inline {
                                allowed: true,
                                pin: None,
                            };
                            let first = exec.stage_post(&mut burst, (inline, false), (author, msg));
                            let author_push = |run: &Vec<Entry>| match run.first() {
                                Some(Entry::Op(seq, Mutation::User { user, .. })) => {
                                    *seq == first.start && *user == author
                                }
                                _ => false,
                            };
                            let staged = exec.staged.iter().position(author_push);
                            exec.staged.iter_mut().for_each(Vec::clear);
                            assert_eq!(routed, staged, "{what}");
                        }
                        (CommandClass::Write, cmd) => {
                            let (staged, ..) = exec.plan_mutation(cmd).expect("a write plans");
                            assert_eq!(routed, Some(staged), "{what}");
                        }
                        (CommandClass::Read, cmd) => {
                            assert_eq!(routed, None, "{what}: reads are never shed");
                            let Err(reply) = exec.plan_mutation(cmd) else {
                                panic!("{what}: a read of a live key plans a mutation");
                            };
                            assert!(!matches!(reply, Reply::Error(_)), "{what}: {reply:?}");
                        }
                        (CommandClass::Control, cmd) => panic!("{cmd:?} is not kv traffic"),
                    }
                }
            }
        }
    }

    /// A stack of five layers, trace outermost, and one connection's
    /// chain through it over a 2-shard store; the store's guard; and an
    /// executor over the same store and stack with no layer above it.
    fn traced(trace: TraceConfig) -> (BoxService, ExecService, Arc<Stack>, Owners) {
        let mut config = MiddlewareConfig::none();
        config.layers = vec![
            LayerKind::Trace,
            LayerKind::Breaker,
            LayerKind::Deadline,
            LayerKind::Shed,
            LayerKind::Ttl,
        ];
        config.trace = trace;
        let stack = Stack::build(&config);
        let (stats, owners) = owners(2, None, None);
        let store = &owners.runtime.store;
        let exec = || connection(store, &stats, &stack, Duration::from_secs(5), &[false; 2]);
        let session = Session {
            client: "t:1".into(),
        };
        let chain = stack.service(&session, Box::new(exec()));
        (chain, exec(), Arc::clone(&stack), owners)
    }

    fn lines(reply: &Reply) -> &[String] {
        match reply {
            Reply::Array(lines) => lines,
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn stats_replies_grow_the_mw_lines() {
        let (mut svc, _, _, _owners) = traced(TraceConfig::default());
        svc.call(Request::new(Command::Ping));
        let resp = svc.call(Request::new(Command::Stats));
        let lines = lines(&resp.reply);
        assert!(lines.contains(&"shards=2".to_string()), "store lines kept");
        assert!(lines.contains(&"mw_depth=5".to_string()));
        assert!(lines.contains(&"mw_traced=1".to_string()));
    }

    /// A `STATS` inside a burst grows the `mw_*` lines in place.
    #[test]
    fn stats_in_a_burst_grows_the_mw_lines() {
        let (mut svc, _, _, _owners) = traced(TraceConfig::default());
        let resps = svc.call_batch(vec![
            get("k"),
            set("k", "v"),
            Request::new(Command::Ping),
            Request::new(Command::Stats),
        ]);
        assert_eq!(resps.len(), 4);
        let lines = lines(&resps[3].reply);
        assert!(lines.contains(&"shards=2".to_string()));
        assert!(lines.iter().any(|l| l.starts_with("mw_batches=")));
    }

    /// `STATS RESET` zeroes the middleware plane, whichever layers the
    /// stack has: sent to the executor itself, so no layer counts the
    /// command after the zeroing.
    #[test]
    fn stats_reset_zeroes_the_middleware_plane() {
        let (mut svc, mut exec, stack, _owners) = traced(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        let metrics = stack.metrics();
        svc.call(set("k", "v"));
        svc.call(get("k"));
        assert!(metrics.traced.sum() > 0);
        let resp = exec.call(Request::new(Command::StatsReset));
        assert_eq!(resp.reply, Reply::Status("OK"), "inner store answered");
        assert_eq!(metrics.traced.sum(), 0, "counters zeroed after reply");
        assert_eq!(metrics.read_latency.count(), 0);
        assert_eq!(metrics.write_latency.count(), 0);
        assert_eq!(metrics.control_latency.count(), 0);
        assert_eq!(metrics.spans_sampled.sum(), 0);
        // The rings are not touched: they have their own RESET verbs.
        assert!(!metrics.slowlog.is_empty(), "slowlog survives STATS RESET");
    }
}
