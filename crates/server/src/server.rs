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
//! are handed to the owning shard thread and acknowledged through
//! the connection's reply channel before the response line is emitted
//! — so a client that saw `+OK` for a `SET` observes that value on
//! every later read, from any connection (the shard applied it before
//! acking, and segment publication is release/acquire).
//!
//! Pipelining is **batched end to end** and **two-phase**: the whole
//! buffered burst is drained into one `Vec<Request>` and begun with
//! [`Service::begin_batch`], so every layer pays its per-request cost
//! once per burst; a burst whose last acks are still in flight *parks*
//! in the chain, and [`Service::poll_batch`] completes it — each layer
//! then observes the real replies after the real wait. How a burst's
//! acks are reassembled (the [`AckTable`], the slots, the ack channel)
//! is known to this module only: the loop sees `Parked`, then
//! responses. Below the stack the unit that crosses to the shard
//! owners is the **run** — the maximal sequence of consecutive
//! mutations in the burst (a `POST`'s fan-out pushes included), split
//! per shard. [`ExecService`] stages a run's mutations by value and
//! *publishes* it when it ends: at the first non-mutation command (so
//! the owners apply while the loop serves the reads that follow), at a
//! barrier, and at the end of the burst — one envelope, one owner
//! wake-up and one ack per (run, shard). When to publish is read off
//! the input, so there is nothing to tune; a burst of one
//! ([`Service::call`]) publishes a run of one. Replies are reassembled
//! by sequence number in an [`AckTable`] (a burst's numbers are dense,
//! so a plain index), rendered back to back into the connection's one
//! output buffer and written with one socket write.
//!
//! Within a burst, replies are byte-identical to sequential execution:
//! mutations keep per-key order through the FIFO shard queues, and a
//! read whose key has an outstanding mutation in the same burst waits
//! for the acks (a *barrier*) before being served — reads on untouched
//! keys proceed immediately, which is where the batching wins.

use crate::event_loop::{run_loop, Epoll, LoopCtx, LoopWaker};
use crate::protocol::{Command, Reply};
use crate::stats::{ServerStats, StatsSnapshot};
use crate::store::{self, Entry, Envelope, Mutation, Store, FANOUT_LIMIT};
use dego_middleware::{
    LayerKind, MiddlewareConfig, PressureProbe, Progress, Request, Response, Service,
    ShardPressure, Stack, StoreSegment, Surface,
};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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
    /// poisoning itself — **one overall deadline per burst or
    /// fan-out**, not per ack (only reachable when a shard is stuck or
    /// shutting down mid-request).
    pub ack_timeout: Duration,
    /// Number of event-loop threads (`--event-loops`); `0` (the
    /// default) means one per available core, floored at two.
    pub event_loops: usize,
    /// Close connections that have read nothing for this long
    /// (`--idle-timeout-ms`), freeing their fds; `None` (the default)
    /// never reaps.
    pub idle_timeout: Option<Duration>,
    /// Test hook: inject `accept()` failures (fd-pressure regression
    /// tests). Leave `None` in production.
    pub accept_hook: Option<AcceptHook>,
    /// Test hook: make every shard apply this much slower (stuck-shard
    /// timeout tests). Leave `None` in production.
    pub shard_delay: Option<Duration>,
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
            shard_delay: None,
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
    /// Stops the metrics responder. Separate from `shutdown` so the
    /// responder keeps serving probes (`/ready` → 503) while the drain
    /// flushes in-flight work; it only goes down last.
    metrics_stop: Arc<AtomicBool>,
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

    /// A snapshot of the operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        // The authoritative applied count lives in the storage plane's
        // per-shard counter (reported since the last `STATS RESET`).
        snap.applied = self.store.applied_since_reset();
        snap
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
    /// then clear it and watch the backlog drain.
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
        // The metrics responder is the last plane to go down — it joins
        // after the connections so `/ready` keeps answering 503 (and
        // `/metrics` keeps scraping) while the in-flight bursts flush.
        self.metrics_stop.store(true, Ordering::Release);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        // Shard threads exit once the flag is up and their queue is
        // drained; wake any parked ones.
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
    // Default: one loop per core, floored at two. A dispatch can still
    // block its loop for a bounded stretch (a burst of one and a
    // read-after-write barrier wait for their acks), and with a
    // single loop that would head-of-line block every
    // other connection on the box — two is the minimum that keeps one
    // stalled burst from serializing the whole connection plane. An
    // explicit `--event-loops 1` is honored (reproductions and
    // single-loop tests).
    let loops = if config.event_loops == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
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
    let runtime = store::spawn_shards(
        config.shards,
        config.capacity,
        Arc::clone(&stats),
        Arc::clone(&shutdown),
        config.shard_delay,
        config.middleware.trace.window_secs,
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
        let ctx = LoopCtx {
            epoll,
            waker: Arc::clone(&waker),
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
                .spawn(move || run_loop(ctx))?,
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

    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = match metrics_listener {
        Some(listener) => Some(crate::metrics_http::spawn_metrics(
            listener,
            Arc::clone(&runtime.store),
            Arc::clone(&stats),
            Arc::clone(&stack),
            Arc::clone(&metrics_stop),
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
        metrics_stop,
        accept_thread: Some(accept_thread),
        metrics_thread,
        shard_threads: runtime.threads,
        loop_threads,
        loop_wakers,
    })
}

/// One event loop's connection inlet plus its epoll doorbell.
type LoopSink = (Sender<(TcpStream, u64)>, Arc<LoopWaker>);

/// The shed layer's window onto live shard pressure: routes a write
/// the way [`ExecService::plan_mutation`] will (same `home_segment`
/// hash), then reads the target shard's queue-depth gauge and windowed
/// ack p99 straight off the telemetry the shard owners already
/// publish. Lock-free on both calls — this runs on every write's
/// admission path when shedding is armed.
struct StorePressure {
    store: Arc<Store>,
}

impl PressureProbe for StorePressure {
    fn shard_of(&self, cmd: &Command) -> Option<usize> {
        let shard = match cmd {
            Command::Set(key, _) | Command::Del(key) | Command::Incr(key, _) => {
                self.store.shard_of_key(key)
            }
            Command::AddUser(user)
            | Command::Join(user)
            | Command::Leave(user)
            | Command::Profile(user) => self.store.shard_of_user(*user),
            Command::Follow(_, followee) | Command::Unfollow(_, followee) => {
                self.store.shard_of_user(*followee)
            }
            // A POST fans out to many shards; gate it on the author's
            // timeline shard (always a target, and the hottest row).
            Command::Post(author, _) => self.store.shard_of_user(*author),
            _ => return None,
        };
        Some(shard)
    }

    fn pressure_of(&self, shard: usize) -> ShardPressure {
        let t = &self.store.telemetry()[shard];
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

/// A storage-plane row a burst's outstanding mutation is about to
/// touch; reads declare the rows they depend on, and a match forces a
/// barrier so the read observes the writes before it in the burst.
///
/// Kv keys are tracked by **hash**, not by owned string, so the hot
/// batch path never clones a key: a hash collision merely forces a
/// spurious barrier (always safe — the read just waits a little), a
/// miss is impossible (equal keys hash equally).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum PendingKey {
    Kv(u64),
    Timeline(u64),
    Follower(u64),
    Profile(u64),
    Group(u64),
}

/// The hash of the pending rows: one multiply-xor per word, for the
/// kv keys ([`kv_pending`]) and for the burst's set of them alike. It
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

/// The rows with a mutation outstanding in the burst being staged.
type PendingRows = HashSet<PendingKey, BuildHasherDefault<RowHasher>>;

/// The hash [`PendingKey::Kv`] tracks string keys by.
fn kv_pending(key: &str) -> PendingKey {
    let mut hasher = RowHasher::default();
    key.hash(&mut hasher);
    PendingKey::Kv(hasher.finish())
}

/// The rows a single-shard mutation touches (`ADDUSER` creates three).
type Touched = [Option<PendingKey>; 3];

/// What a batched request is waiting on when assembly begins.
enum Slot {
    /// Answered inline (read, control, structural rejection).
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

    /// File one envelope's ack.
    fn accept(&mut self, acked: Vec<Entry>) {
        for entry in acked {
            let Entry::Ack(seq, reply, seg) = entry else {
                unreachable!("shard owners ack every entry of an envelope");
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

/// A burst between its staging and its resolution: what each request
/// waits on, in request order, and the acks gathered so far.
struct Burst {
    slots: Vec<Slot>,
    acks: AckTable,
    /// Why the session is poisoned (an ack wait failed), if it is.
    dead: Option<&'static str>,
}

/// The innermost service: executes commands against the storage plane
/// (the thing every middleware layer ultimately wraps), and the one
/// place a burst waits. `call` blocks on the ack channel;
/// `begin_batch` instead parks a burst whose last run is still in
/// flight, and `poll_batch` resolves it once its table is complete or
/// `ack_timeout` has lapsed. Mid-burst barriers
/// (read-after-write and friends) block either way, so reply bytes are
/// identical to sequential execution.
pub(crate) struct ExecService {
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    /// The readiness gate `READY` reports; flips to `false` the moment
    /// a drain begins.
    ready: Arc<AtomicBool>,
    /// Next mutation sequence number (reply reassembly key).
    next_seq: u64,
    /// The run being staged: per shard, the entries of its next
    /// envelope. Empty between calls — every exit publishes.
    staged: Vec<Vec<Entry>>,
    ack_timeout: Duration,
    ack_tx: Sender<Vec<Entry>>,
    ack_rx: Receiver<Vec<Entry>>,
    /// The parked burst, and when its wait times out.
    parked: Option<(Burst, Instant)>,
    /// The owning event loop's `epoll` waker, carried on the envelopes
    /// of a parking burst so the shard's ack can unblock the loop.
    waker: Arc<LoopWaker>,
}

impl ExecService {
    /// Wire up the innermost service for one connection.
    pub(crate) fn new(
        store: Arc<Store>,
        stats: Arc<ServerStats>,
        ready: Arc<AtomicBool>,
        ack_timeout: Duration,
        waker: Arc<LoopWaker>,
    ) -> ExecService {
        let (ack_tx, ack_rx) = channel();
        ExecService {
            staged: (0..store.shards()).map(|_| Vec::new()).collect(),
            store,
            stats,
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
        self.stats.note_mutation();
        let seq = acks.issue();
        self.staged[shard].push(Entry::Op(seq, op));
        seq
    }

    /// Stage a `POST`'s fan-out (author plus up to `FANOUT_LIMIT`
    /// followers), returning its sequence numbers; `dirty` sees every
    /// target.
    fn stage_post(
        &mut self,
        acks: &mut AckTable,
        (author, msg): (u64, u64),
        mut dirty: impl FnMut(u64),
    ) -> Range<u64> {
        self.stats.note_mutation();
        let first = acks.next_seq();
        // The author's own timeline is always a target; a self-follow
        // must not deliver twice, so filter the author out of the
        // follower fan-out.
        let ExecService { store, staged, .. } = self;
        let mut push = |user: u64| {
            dirty(user);
            let seq = acks.issue();
            staged[store.shard_of_user(user)]
                .push(Entry::Op(seq, Mutation::TimelinePush { user, msg }));
        };
        push(author);
        store.tables.followers.read(&author, |row| {
            let followers = row.iter().filter(|f| **f != author);
            followers.take(FANOUT_LIMIT).copied().for_each(&mut push);
        });
        first..acks.next_seq()
    }

    /// End the staged run: one envelope per touched shard, all stamped
    /// with the same publish time. `ring` says how this connection will
    /// wait for the acks — parked, its loop in `epoll_wait` (ring the
    /// loop's doorbell), or blocked on the ack channel (the send itself
    /// wakes it).
    fn publish(&mut self, ring: bool) {
        let mut now = None;
        for (shard, staged) in self.staged.iter_mut().enumerate() {
            if staged.is_empty() {
                continue;
            }
            let run = Envelope {
                entries: std::mem::take(staged),
                reply: self.ack_tx.clone(),
                waker: ring.then(|| Arc::clone(&self.waker)),
                enqueued_at: *now.get_or_insert_with(Instant::now),
                // Only span-sampled requests pay for shard-side
                // stamping; the flag rides the envelope across the
                // queue boundary.
                traced: dego_middleware::span::active(),
            };
            self.store.enqueue(shard, run);
        }
    }

    /// Publish the staged run, then collect acks until every issued
    /// sequence number has one, under **one overall deadline** for the
    /// whole wait. On timeout the connection must be poisoned by the
    /// caller: a late ack may still arrive, and once a stale ack can
    /// be sitting in the channel every later request/reply pairing
    /// would be off by one — closing the session is the only honest
    /// recovery.
    fn collect(&mut self, acks: &mut AckTable) -> Result<(), &'static str> {
        self.publish(false);
        let deadline = Instant::now() + self.ack_timeout;
        while !acks.complete() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ACK_TIMEOUT_MSG);
            }
            match self.ack_rx.recv_timeout(left) {
                Ok(acked) => acks.accept(acked),
                Err(RecvTimeoutError::Timeout) => return Err(ACK_TIMEOUT_MSG),
                Err(RecvTimeoutError::Disconnected) => return Err(ACK_GONE_MSG),
            }
        }
        Ok(())
    }

    /// The single-shard mutation `cmd` moves into (with its shard and
    /// the rows it touches), or `cmd` back when it is not one.
    fn plan_mutation(&self, cmd: Command) -> Result<(usize, Mutation, Touched), Command> {
        use PendingKey::{Follower, Group, Profile, Timeline};
        let kv = |key: &String| {
            let touched = [Some(kv_pending(key)), None, None];
            (self.store.shard_of_key(key), touched)
        };
        let row =
            |user: u64, row: PendingKey| (self.store.shard_of_user(user), [Some(row), None, None]);
        let ((shard, touched), op) = match cmd {
            Command::Set(key, value) => (kv(&key), Mutation::Set { key, value }),
            Command::Del(key) => (kv(&key), Mutation::Del { key }),
            Command::Incr(key, delta) => (kv(&key), Mutation::Incr { key, delta }),
            Command::AddUser(user) => (
                (
                    self.store.shard_of_user(user),
                    [Timeline(user), Follower(user), Profile(user)].map(Some),
                ),
                Mutation::AddUser { user },
            ),
            Command::Follow(follower, followee) => (
                row(followee, Follower(followee)),
                Mutation::FollowerAdd { followee, follower },
            ),
            Command::Unfollow(follower, followee) => (
                row(followee, Follower(followee)),
                Mutation::FollowerDel { followee, follower },
            ),
            Command::Join(user) => (row(user, Group(user)), Mutation::GroupJoin { user }),
            Command::Leave(user) => (row(user, Group(user)), Mutation::GroupLeave { user }),
            Command::Profile(user) => (row(user, Profile(user)), Mutation::ProfileBump { user }),
            other => return Err(other),
        };
        Ok((shard, op, touched))
    }

    /// The row a read-class (or `STATS`) command depends on: `None`
    /// means "everything" (a full barrier), `Some(None)` nothing.
    fn read_dep(cmd: &Command) -> Option<Option<PendingKey>> {
        Some(match cmd {
            Command::Get(key) => Some(kv_pending(key)),
            Command::Timeline(user) => Some(PendingKey::Timeline(*user)),
            Command::IsFollowing(_, followee) => Some(PendingKey::Follower(*followee)),
            Command::Followers(user) => Some(PendingKey::Follower(*user)),
            Command::InGroup(user) => Some(PendingKey::Group(*user)),
            Command::ProfileVer(user) => Some(PendingKey::Profile(*user)),
            Command::Stats | Command::StatsShards | Command::StatsReset => return None,
            _ => None,
        })
    }

    /// Serve a read/control command inline from the lock-free segment
    /// readers (never a mutation, `QUIT`, or a middleware verb).
    fn serve_read(&self, cmd: &Command) -> Reply {
        match cmd {
            Command::Get(key) => match self.store.tables.kv.get(key) {
                Some(v) => {
                    self.stats.note_get_hit();
                    Reply::Value(v)
                }
                None => {
                    self.stats.note_get_miss();
                    Reply::Nil
                }
            },
            Command::Timeline(user) => {
                self.stats.note_timeline_read();
                let mut row = Vec::new();
                let timelines = &self.store.tables.timelines;
                timelines.read(user, |log| log.newest(TIMELINE_LIMIT, &mut row));
                Reply::Ints(row)
            }
            Command::IsFollowing(follower, followee) => {
                let followers = &self.store.tables.followers;
                let follows = followers.read(followee, |row| row.contains(follower));
                Reply::Int(follows.unwrap_or(false) as i64)
            }
            Command::Followers(user) => Reply::Int(
                self.store
                    .tables
                    .followers
                    .read(user, Vec::len)
                    .unwrap_or(0) as i64,
            ),
            Command::InGroup(user) => Reply::Int(self.store.tables.group.contains(user) as i64),
            Command::ProfileVer(user) => {
                Reply::Int(self.store.tables.profiles.get(user).unwrap_or(0) as i64)
            }
            Command::Stats => {
                let mut snap = self.stats.snapshot();
                snap.applied = self.store.applied_since_reset();
                let mut lines = Vec::new();
                let mut out = Surface::Stats(&mut lines);
                self.store.render_gauges(&mut out);
                snap.render(&mut out);
                Reply::Array(lines)
            }
            Command::StatsShards => {
                let mut lines = Vec::new();
                let mut out = Surface::Stats(&mut lines);
                out.scalar(&store::SHARDS, self.store.shards() as u64);
                self.store.render_shards(&mut out);
                Reply::Array(lines)
            }
            Command::StatsReset => {
                // Zero the server-plane counters and shard telemetry;
                // the trace layer (when present) resets the middleware
                // plane after this reply travels back up through it.
                self.stats.reset_rows();
                self.store.reset_telemetry();
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

    /// The structural depth-0 rejections: middleware-owned verbs
    /// (`AUTH`, `EXPIRE`, the `SLOWLOG`/`TRACE` rings) answered here,
    /// at the innermost service, when their layer is not in the
    /// pipeline — they never reach the store.
    fn structural_rejection(cmd: &Command) -> Option<Response> {
        match cmd {
            Command::Auth(_) => Some(Response::rejection("AUTH", "auth layer not enabled")),
            Command::Expire(..) => Some(Response::rejection("TTL", "ttl layer not enabled")),
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
    /// The group-commit staging loop. Consecutive mutations are staged
    /// into a run and published when the run ends (FIFO shard queues
    /// keep per-key order); reads are served inline unless a row they
    /// depend on has an outstanding mutation in this burst, in which
    /// case a barrier collects every outstanding ack first. Returns
    /// with the last run published and its acks still in flight: the
    /// caller parks, so every run published here rings the loop (see
    /// [`ExecService::publish`]).
    fn stage_burst(&mut self, reqs: Vec<Request>) -> Burst {
        let mut dead: Option<&'static str> = None;
        let mut acks = AckTable::new(self.next_seq);
        let mut pending = PendingRows::default();
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());

        // A barrier: publish, wait for every outstanding ack, then
        // forget the pending rows (they are applied and visible).
        // Evaluates to the poison cause, if the wait failed.
        macro_rules! barrier {
            () => {{
                match self.collect(&mut acks) {
                    Ok(()) => pending.clear(),
                    Err(msg) => dead = Some(msg),
                }
                dead
            }};
        }

        for req in reqs {
            if let Some(cause) = dead {
                // The session is poisoned: answer without executing
                // (the sequential path would have hung up already).
                slots.push(Slot::Done(Reply::Error(cause.into())));
                continue;
            }
            if let Some(resp) = Self::structural_rejection(&req.command) {
                self.publish(true);
                slots.push(Slot::Done(resp.reply));
                continue;
            }
            match req.command {
                Command::Quit => {
                    self.publish(true);
                    slots.push(Slot::Quit);
                }
                Command::Post(author, msg) => {
                    // The fan-out reads the follower row: wait for any
                    // outstanding FOLLOW/UNFOLLOW before targeting.
                    if pending.contains(&PendingKey::Follower(author)) {
                        if let Some(cause) = barrier!() {
                            slots.push(Slot::Done(Reply::Error(cause.into())));
                            continue;
                        }
                    }
                    // Every fan-out target's timeline is now dirty: a
                    // TIMELINE of any of them later in this burst must
                    // barrier first.
                    let seqs = self.stage_post(&mut acks, (author, msg), |target| {
                        pending.insert(PendingKey::Timeline(target));
                    });
                    slots.push(Slot::Fanout(seqs));
                }
                cmd => match self.plan_mutation(cmd) {
                    Ok((shard, op, touched)) => {
                        let seq = self.stage(&mut acks, shard, op);
                        pending.extend(touched.into_iter().flatten());
                        slots.push(Slot::Single(seq));
                    }
                    Err(cmd) => {
                        // Nothing outstanding (the common case: reads
                        // ahead of a burst's first write): no barrier,
                        // and no key hashed to find that out.
                        let needs_barrier = !acks.complete()
                            && match Self::read_dep(&cmd) {
                                None => true,
                                Some(dep) => dep.is_some_and(|row| pending.contains(&row)),
                            };
                        if !needs_barrier {
                            // The run ends here: the owners apply it
                            // while this thread serves the read.
                            self.publish(true);
                        } else if let Some(cause) = barrier!() {
                            slots.push(Slot::Done(Reply::Error(cause.into())));
                            continue;
                        }
                        slots.push(Slot::Done(self.serve_read(&cmd)));
                    }
                },
            }
        }
        // The end of the burst ends the run, on every way out.
        self.next_seq = acks.next_seq();
        self.publish(true);
        Burst { slots, acks, dead }
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
    /// request order. A poisoned burst answers its missing acks with
    /// the cause and, whatever the client was told, ends the session —
    /// a late ack could otherwise desync every later request/reply
    /// pairing.
    fn finish(&mut self, burst: Burst) -> Vec<Response> {
        let (mut acks, dead) = (burst.acks, burst.dead);
        acks.hand_segments_to_span();
        let missing = dead.unwrap_or(ACK_GONE_MSG);
        let slots = burst.slots.into_iter();
        let mut responses: Vec<Response> = slots
            .map(|slot| Self::resolve(slot, &mut acks, missing))
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
    /// A burst of one: a run of one (or one fan-out), published at
    /// once and awaited on the ack channel — for a `POST`, every
    /// target's shard under one overall deadline, so a stuck shard
    /// costs `ack_timeout` once, not once per follower. What a burst
    /// tracks to order its reads after its writes is not needed here.
    fn call(&mut self, req: Request) -> Response {
        if let Some(resp) = Self::structural_rejection(&req.command) {
            return resp;
        }
        let mut acks = AckTable::new(self.next_seq);
        let slot = match req.command {
            Command::Quit => Slot::Quit,
            Command::Post(author, msg) => {
                Slot::Fanout(self.stage_post(&mut acks, (author, msg), |_| ()))
            }
            cmd => match self.plan_mutation(cmd) {
                Ok((shard, op, _touched)) => Slot::Single(self.stage(&mut acks, shard, op)),
                Err(cmd) => return Response::ok(self.serve_read(&cmd)),
            },
        };
        self.next_seq = acks.next_seq();
        let dead = self.collect(&mut acks).err();
        acks.hand_segments_to_span();
        let mut resp = Self::resolve(slot, &mut acks, dead.unwrap_or(ACK_GONE_MSG));
        resp.close |= dead.is_some();
        resp
    }

    /// The parking batch path: stage, and leave acks still in flight
    /// to [`Service::poll_batch`] — the loop serves other connections
    /// meanwhile, whose bursts can hit the same shard sweep.
    fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
        let burst = self.stage_burst(reqs);
        if burst.dead.is_some() || burst.acks.complete() {
            return Progress::Done(self.finish(burst));
        }
        self.parked = Some((burst, Instant::now() + self.ack_timeout));
        Progress::Parked
    }

    /// File whatever acks arrived; resolve once the table is full
    /// (every number issued belongs to a slot, so that is a complete
    /// burst) or the deadline lapsed — which answers exactly like a
    /// timed-out blocking collection.
    fn poll_batch(&mut self) -> Option<Vec<Response>> {
        let (burst, deadline) = self.parked.as_mut()?;
        while let Ok(acked) = self.ack_rx.try_recv() {
            burst.acks.accept(acked);
        }
        if !burst.acks.complete() {
            if Instant::now() < *deadline {
                return None;
            }
            burst.dead = Some(ACK_TIMEOUT_MSG);
        }
        let (burst, _) = self.parked.take()?;
        Some(self.finish(burst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_grows_and_saturates() {
        assert_eq!(accept_backoff(0), Duration::from_millis(1));
        assert_eq!(accept_backoff(3), Duration::from_millis(8));
        assert_eq!(accept_backoff(7), ACCEPT_BACKOFF_CAP);
        // Huge streaks must neither overflow nor exceed the cap.
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_CAP);
    }

    /// The hand-off is counted, not timed: a run of 64 consecutive
    /// SETs over 2 shards is 2 envelopes, so exactly 2 owner sweeps —
    /// and the telemetry still counts the 64 mutations.
    #[test]
    fn a_run_is_handed_off_as_one_envelope_per_shard() {
        let stats = Arc::new(ServerStats::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let runtime =
            store::spawn_shards(2, 256, Arc::clone(&stats), Arc::clone(&shutdown), None, 60);
        let mut exec = ExecService::new(
            Arc::clone(&runtime.store),
            Arc::clone(&stats),
            Arc::new(AtomicBool::new(true)),
            Duration::from_secs(5),
            Arc::new(LoopWaker::new().expect("eventfd")),
        );
        let sets = |keys: Range<u32>| {
            keys.map(|i| Request::new(Command::Set(format!("k{i}"), "v".into())))
        };
        // Drive one parking burst to completion the way the event loop
        // does, returning the owner sweeps it cost.
        let mut sweeps_of = |burst: Vec<Request>, writes: usize| {
            let before = stats.snapshot().shard_batches;
            let sent = burst.len();
            let responses = match exec.begin_batch(burst) {
                Progress::Done(responses) => responses,
                Progress::Parked => loop {
                    match exec.poll_batch() {
                        Some(responses) => break responses,
                        None => std::thread::yield_now(),
                    }
                },
            };
            assert_eq!(responses.len(), sent);
            let oks = responses.iter().filter(|r| r.reply == Reply::Status("OK"));
            assert_eq!(oks.count(), writes, "every write acknowledged");
            stats.snapshot().shard_batches - before
        };

        assert_eq!(sweeps_of(sets(0..64).collect(), 64), 2);
        assert_eq!(runtime.store.applied_since_reset(), 64);
        let mut shard_lines = Vec::new();
        runtime
            .store
            .render_shards(&mut Surface::Stats(&mut shard_lines));
        let enqueued: u64 = shard_lines
            .iter()
            .filter_map(|line| line.split_once("_enqueued="))
            .map(|(_, count)| count.parse::<u64>().expect("numeric"))
            .sum();
        assert_eq!(enqueued, 64, "STATS SHARDS counts mutations, not envelopes");

        // A read of an untouched key in the middle ends the first run
        // (published at once, no barrier): two runs, at most 4 sweeps.
        let mut burst: Vec<Request> = sets(64..96).collect();
        burst.push(Request::new(Command::Get("untouched".into())));
        burst.extend(sets(96..128));
        assert!((2..=4).contains(&sweeps_of(burst, 64)));
        assert_eq!(runtime.store.applied_since_reset(), 128);

        shutdown.store(true, Ordering::Release);
        for thread in runtime.threads {
            thread.join().expect("shard owner exits");
        }
    }
}
