//! The TCP front-end: accept loop, the per-connection dispatch chain,
//! the innermost (store-executing) service and shutdown.
//!
//! Connections are served by the event loops in `event_loop.rs`: the
//! accept thread hands each socket round-robin to one of N epoll loop
//! threads, which multiplex every connection they own and defer the
//! final ack barrier of a burst so bursts from different connections
//! group-commit into one shard sweep.
//!
//! A connection's request lines are parsed and driven through its
//! session's middleware [`Stack`] chain (trace → breaker → deadline →
//! auth → rate-limit → shed → ttl, whichever are configured); the
//! innermost service ([`ExecService`]) executes against the store,
//! splitting two ways: **reads** (`GET`, `TIMELINE`, `ISFOLLOWING`, …)
//! are served inline from the lock-free segment readers; **mutations**
//! are enqueued to the owning shard thread and acknowledged through
//! the connection's reply channel before the response line is emitted
//! — so a client that saw `+OK` for a `SET` observes that value on
//! every later read, from any connection (the shard applied it before
//! acking, and segment publication is release/acquire).
//!
//! Pipelining is **batched end to end**: the whole buffered burst is
//! drained into one `Vec<Request>` and driven through
//! [`Service::call_batch`], so every layer pays its per-request cost
//! once per burst; below the stack, the burst's mutations are enqueued
//! tagged with sequence numbers, shard owners group-acknowledge each
//! drained batch, and the replies are reassembled in request order and
//! written with one vectored socket write. A burst of one takes the
//! synchronous [`Service::call`] path instead.
//!
//! Within a burst, replies are byte-identical to sequential execution:
//! mutations keep per-key order through the FIFO shard queues, and a
//! read whose key has an outstanding mutation in the same burst waits
//! for the acks (a *barrier*) before being served — reads on untouched
//! keys proceed immediately, which is where the batching wins.

use crate::event_loop::{run_loop, Epoll, LoopCtx, LoopWaker};
use crate::protocol::{Command, Reply};
use crate::stats::{ServerStats, StatsSnapshot};
use crate::store::{self, AckItem, Mutation, MutationMsg, ShardAck, Store, FANOUT_LIMIT};
use dego_middleware::{
    BoxService, FusedService, MiddlewareConfig, PressureProbe, Request, Response, Service, Session,
    ShardPressure, Stack,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeline length returned to clients (the paper's "last 50
/// messages").
pub const TIMELINE_LIMIT: usize = 50;

/// The reply when a shard acknowledgement never arrived in time.
pub(crate) const ACK_TIMEOUT_MSG: &str = "shard ack timeout; closing connection";
/// The reply when the shard plane is gone (shutdown mid-request).
const ACK_GONE_MSG: &str = "shard gone; closing connection";

/// The placeholder status a deferred slot answers with inside
/// `call_batch` — patched by the event loop once the acks arrive. The
/// sentinel is unforgeable as a *status*: `Reply::Status` only ever
/// carries compile-time literals (client bytes travel in
/// `Reply::Value`/`Error`), and no other literal contains `\u{1}`.
pub(crate) const PENDING_MARKER: &str = "\u{1}DEGO-DEFERRED\u{1}";

/// Whether `reply` is the deferral placeholder (see [`PENDING_MARKER`]).
pub(crate) fn is_pending_marker(reply: &Reply) -> bool {
    matches!(reply, Reply::Status(s) if *s == PENDING_MARKER)
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

    /// Stop accepting, drain the shards, join every thread.
    pub fn shutdown(mut self) {
        self.finish();
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
        // Before the shard threads go down, so in-flight deferred
        // bursts still receive their acks while draining.
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
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
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

    // Default: one loop per core, floored at two. A dispatch can still
    // block its loop for a bounded stretch (a span-sampled burst waits
    // for its store segments, a read-after-write barrier waits for
    // acks), and with a single loop that would head-of-line block every
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
    let mut loop_threads: Vec<JoinHandle<()>> = Vec::with_capacity(loops);
    let mut loop_wakers: Vec<Arc<LoopWaker>> = Vec::with_capacity(loops);
    let mut sinks: Vec<LoopSink> = Vec::with_capacity(loops);
    for i in 0..loops {
        let waker = Arc::new(LoopWaker::new()?);
        let epoll = Epoll::new()?;
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
    let (metrics_addr, metrics_thread) = match config.metrics_addr {
        Some(addr) => {
            let (bound, handle) = crate::metrics_http::spawn_metrics(
                addr,
                Arc::clone(&runtime.store),
                Arc::clone(&stats),
                Arc::clone(&stack),
                Arc::clone(&metrics_stop),
                Arc::clone(&ready),
            )?;
            (Some(bound), Some(handle))
        }
        None => (None, None),
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

/// The per-connection dispatch chain. The canonical seven-layer stack
/// monomorphizes into one concrete [`FusedService`] — direct calls
/// between layers, plus the batch-1 inline fast path — while partial
/// and depth-0 stacks compose as the boxed `dyn Service` onion. Replies
/// and metrics are identical either way (the middleware proptests pin
/// this).
pub(crate) enum Chain {
    Fused(Box<FusedService<ExecService>>),
    Dyn(BoxService),
}

impl Chain {
    /// Dispatch a singleton: the fused chain takes its inline batch-1
    /// fast path; the dyn onion pays the per-layer virtual calls.
    pub(crate) fn call_one(&mut self, req: Request) -> Response {
        match self {
            Chain::Fused(chain) => chain.call_one(req),
            Chain::Dyn(chain) => chain.call(req),
        }
    }

    /// Dispatch a pipelined burst through the group-commit batch path.
    pub(crate) fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        match self {
            Chain::Fused(chain) => chain.call_batch(reqs),
            Chain::Dyn(chain) => chain.call_batch(reqs),
        }
    }
}

/// Build one connection's dispatch chain around its innermost service:
/// fused iff the stack is the canonical full one.
pub(crate) fn build_chain(stack: &Arc<Stack>, session: &Session, exec: ExecService) -> Chain {
    if stack.fusible() {
        let fused = stack
            .fused_service(session, exec)
            .expect("fusible stack fuses");
        Chain::Fused(Box::new(fused))
    } else {
        Chain::Dyn(stack.service(session, Box::new(exec)))
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

/// The hash [`PendingKey::Kv`] tracks string keys by.
fn kv_pending(key: &str) -> PendingKey {
    use std::hash::{Hash as _, Hasher as _};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    PendingKey::Kv(hasher.finish())
}

/// What a batched request is waiting on when assembly begins.
enum Slot {
    /// Answered inline (read, control, structural rejection).
    Done(Reply),
    /// One mutation: the ack with this sequence number.
    Single(u64),
    /// A `POST` fan-out: every one of these acks.
    Fanout(Vec<u64>),
}

/// A slot the event loop must still resolve: the subset of [`Slot`]
/// that can cross the deferral boundary (inline replies never defer).
pub(crate) enum PendingSlot {
    /// One mutation: the ack with this sequence number.
    Single(u64),
    /// A `POST` fan-out: every one of these acks.
    Fanout(Vec<u64>),
}

/// The contract between an event loop and its connection's innermost
/// service, threaded through the middleware onion out of band (the
/// chain is thread-local, so plain `Rc` + interior mutability).
///
/// Every `call_batch` that reaches the innermost service comes from
/// the loop's burst dispatch, so when the burst ended healthy and
/// unsampled the service skips its final ack barrier, answering
/// unresolved slots with [`PENDING_MARKER`] placeholders and parking
/// the real work here. The loop pairs the placeholders with the parked
/// slots positionally (both emitted in request order) and collects the
/// acks without blocking, which is what lets bursts from many
/// connections share one shard sweep.
///
/// Mid-burst barriers (read-after-write and friends) stay synchronous
/// inside `call_batch`, and `call` (a burst of one) never defers, so
/// reply bytes are identical to sequential execution.
pub(crate) struct DeferCell {
    pending: RefCell<Vec<PendingSlot>>,
    received: RefCell<HashMap<u64, Reply>>,
}

impl DeferCell {
    pub(crate) fn new() -> DeferCell {
        DeferCell {
            pending: RefCell::new(Vec::new()),
            received: RefCell::new(HashMap::new()),
        }
    }

    fn park(&self, slot: PendingSlot) {
        self.pending.borrow_mut().push(slot);
    }

    fn stash_received(&self, received: HashMap<u64, Reply>) {
        *self.received.borrow_mut() = received;
    }

    /// The deferred burst's unresolved slots (in emission order) and
    /// any acks that had already arrived before the barrier was
    /// skipped. Empties the cell.
    pub(crate) fn take_output(&self) -> (Vec<PendingSlot>, HashMap<u64, Reply>) {
        (
            std::mem::take(&mut self.pending.borrow_mut()),
            std::mem::take(&mut self.received.borrow_mut()),
        )
    }
}

/// The innermost service: executes commands against the storage plane
/// (the thing every middleware layer ultimately wraps).
pub(crate) struct ExecService {
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    /// The readiness gate `READY` reports; flips to `false` the moment
    /// a drain begins.
    ready: Arc<AtomicBool>,
    /// This connection's id: the group-ack run key shard owners batch
    /// consecutive mutations by.
    conn: u64,
    /// Next mutation sequence number (reply reassembly key).
    next_seq: u64,
    ack_timeout: Duration,
    ack_tx: Sender<ShardAck>,
    /// Shared with the event loop (which drains deferred acks); the
    /// chain is thread-local, so `Rc` suffices.
    ack_rx: Rc<Receiver<ShardAck>>,
    /// The deferral contract with the owning event loop.
    defer: Rc<DeferCell>,
    /// The owning event loop's `epoll` waker, carried on every
    /// mutation envelope so a shard's group-ack flush can unblock the
    /// loop.
    waker: Arc<LoopWaker>,
}

impl ExecService {
    /// Wire up the innermost service for one connection.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        store: Arc<Store>,
        stats: Arc<ServerStats>,
        ready: Arc<AtomicBool>,
        conn: u64,
        ack_timeout: Duration,
        ack_tx: Sender<ShardAck>,
        ack_rx: Rc<Receiver<ShardAck>>,
        defer: Rc<DeferCell>,
        waker: Arc<LoopWaker>,
    ) -> ExecService {
        ExecService {
            store,
            stats,
            ready,
            conn,
            next_seq: 0,
            ack_timeout,
            ack_tx,
            ack_rx,
            defer,
            waker,
        }
    }

    /// Enqueue one mutation to its shard, returning its sequence
    /// number.
    fn enqueue(&mut self, shard: usize, op: Mutation) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.store.enqueue(
            shard,
            MutationMsg {
                conn: self.conn,
                seq,
                reply: self.ack_tx.clone(),
                waker: Arc::clone(&self.waker),
                enqueued_at: Instant::now(),
                // Only span-sampled requests pay for shard-side
                // stamping; the flag rides the envelope across the
                // queue boundary.
                traced: dego_middleware::span::active(),
                op,
            },
        );
        seq
    }

    /// File one acknowledgement: the reply is keyed by sequence number
    /// for reassembly, and a traced envelope's store-side segment is
    /// handed to the connection thread's active span (no-op when the
    /// span already closed — e.g. a late ack after a barrier).
    fn accept_ack(ack: AckItem, received: &mut HashMap<u64, Reply>) {
        if let Some(seg) = ack.seg {
            dego_middleware::span::record_store(seg);
        }
        received.insert(ack.seq, ack.reply);
    }

    /// Collect acks until every sequence number in `want` has a reply
    /// in `received`, under **one overall deadline** for the whole
    /// wait. On timeout the connection must be poisoned by the caller:
    /// a late ack may still arrive, and once a stale ack can be
    /// sitting in the channel every later request/reply pairing would
    /// be off by one — closing the session is the only honest
    /// recovery.
    fn collect(
        &mut self,
        received: &mut HashMap<u64, Reply>,
        want: &[u64],
    ) -> Result<(), &'static str> {
        let deadline = Instant::now() + self.ack_timeout;
        while want.iter().any(|seq| !received.contains_key(seq)) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ACK_TIMEOUT_MSG);
            }
            match self.ack_rx.recv_timeout(left) {
                Ok(ShardAck::One(ack)) => {
                    Self::accept_ack(ack, received);
                }
                Ok(ShardAck::Many(acks)) => {
                    for ack in acks {
                        Self::accept_ack(ack, received);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Err(ACK_TIMEOUT_MSG),
                Err(RecvTimeoutError::Disconnected) => return Err(ACK_GONE_MSG),
            }
        }
        Ok(())
    }

    /// The single-shard mutation (and the rows it touches) for `cmd`,
    /// or `None` when `cmd` is not a single-shard mutation.
    fn plan_mutation(&self, cmd: &Command) -> Option<(usize, Mutation, Vec<PendingKey>)> {
        let planned = match cmd {
            Command::Set(key, value) => (
                self.store.shard_of_key(key),
                Mutation::Set {
                    key: key.clone(),
                    value: value.clone(),
                },
                vec![kv_pending(key)],
            ),
            Command::Del(key) => (
                self.store.shard_of_key(key),
                Mutation::Del { key: key.clone() },
                vec![kv_pending(key)],
            ),
            Command::Incr(key, delta) => (
                self.store.shard_of_key(key),
                Mutation::Incr {
                    key: key.clone(),
                    delta: *delta,
                },
                vec![kv_pending(key)],
            ),
            Command::AddUser(user) => (
                self.store.shard_of_user(*user),
                Mutation::AddUser { user: *user },
                vec![
                    PendingKey::Timeline(*user),
                    PendingKey::Follower(*user),
                    PendingKey::Profile(*user),
                ],
            ),
            Command::Follow(follower, followee) => (
                self.store.shard_of_user(*followee),
                Mutation::FollowerAdd {
                    followee: *followee,
                    follower: *follower,
                },
                vec![PendingKey::Follower(*followee)],
            ),
            Command::Unfollow(follower, followee) => (
                self.store.shard_of_user(*followee),
                Mutation::FollowerDel {
                    followee: *followee,
                    follower: *follower,
                },
                vec![PendingKey::Follower(*followee)],
            ),
            Command::Join(user) => (
                self.store.shard_of_user(*user),
                Mutation::GroupJoin { user: *user },
                vec![PendingKey::Group(*user)],
            ),
            Command::Leave(user) => (
                self.store.shard_of_user(*user),
                Mutation::GroupLeave { user: *user },
                vec![PendingKey::Group(*user)],
            ),
            Command::Profile(user) => (
                self.store.shard_of_user(*user),
                Mutation::ProfileBump { user: *user },
                vec![PendingKey::Profile(*user)],
            ),
            _ => return None,
        };
        Some(planned)
    }

    /// The rows a read-class (or `STATS`) command depends on; `None`
    /// means "everything" (a full barrier).
    fn read_deps(cmd: &Command) -> Option<Vec<PendingKey>> {
        match cmd {
            Command::Get(key) => Some(vec![kv_pending(key)]),
            Command::Timeline(user) => Some(vec![PendingKey::Timeline(*user)]),
            Command::IsFollowing(_, followee) => Some(vec![PendingKey::Follower(*followee)]),
            Command::Followers(user) => Some(vec![PendingKey::Follower(*user)]),
            Command::InGroup(user) => Some(vec![PendingKey::Group(*user)]),
            Command::ProfileVer(user) => Some(vec![PendingKey::Profile(*user)]),
            Command::Stats | Command::StatsShards | Command::StatsReset => None,
            _ => Some(Vec::new()),
        }
    }

    /// Serve a read/control command inline from the lock-free segment
    /// readers (never a mutation, `QUIT`, or a middleware verb).
    fn serve_read(&self, cmd: &Command) -> Reply {
        match cmd {
            Command::Get(key) => match self.store.kv.get(key) {
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
                let mut row = self.store.timelines.get(user).unwrap_or_default();
                // Stored oldest→newest; serve newest first, capped.
                row.reverse();
                row.truncate(TIMELINE_LIMIT);
                Reply::Array(row.iter().map(|m| format!(":{m}")).collect())
            }
            Command::IsFollowing(follower, followee) => {
                let follows = self
                    .store
                    .followers
                    .get(followee)
                    .is_some_and(|row| row.contains(follower));
                Reply::Int(follows as i64)
            }
            Command::Followers(user) => {
                Reply::Int(self.store.followers.get(user).map_or(0, |row| row.len()) as i64)
            }
            Command::InGroup(user) => Reply::Int(self.store.group.contains(user) as i64),
            Command::ProfileVer(user) => {
                Reply::Int(self.store.profiles.get(user).unwrap_or(0) as i64)
            }
            Command::Stats => {
                let mut snap = self.stats.snapshot();
                snap.applied = self.store.applied_since_reset();
                Reply::Array(snap.render_lines(self.store.shards(), self.store.kv.len()))
            }
            Command::StatsShards => Reply::Array(self.store.render_shard_lines()),
            Command::StatsReset => {
                // Zero the server-plane counters and shard telemetry;
                // the trace layer (when present) resets the middleware
                // plane after this reply travels back up through it.
                self.stats.reset();
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

    /// Enqueue a `POST`'s fan-out (author plus up to `FANOUT_LIMIT`
    /// followers), returning `(target, sequence number)` pairs.
    fn enqueue_post(&mut self, author: u64, msg: u64) -> Vec<(u64, u64)> {
        // The author's own timeline is always a target; a self-follow
        // must not deliver twice (Vec::dedup would only catch it when
        // adjacent), so filter the author out of the follower fan-out.
        let mut targets = vec![author];
        if let Some(row) = self.store.followers.get(&author) {
            targets.extend(row.into_iter().filter(|f| *f != author).take(FANOUT_LIMIT));
        }
        targets
            .into_iter()
            .map(|user| {
                let shard = self.store.shard_of_user(user);
                (
                    user,
                    self.enqueue(shard, Mutation::TimelinePush { user, msg }),
                )
            })
            .collect()
    }

    /// Resolve a fan-out's collected acks: any error (or missing ack)
    /// fails the whole `POST`. Also called by the event loop when it
    /// completes a deferred fan-out slot.
    pub(crate) fn fanout_reply(
        received: &mut HashMap<u64, Reply>,
        seqs: &[u64],
        missing: &'static str,
    ) -> Reply {
        let mut failure = None;
        for seq in seqs {
            match received.remove(seq) {
                Some(Reply::Error(e)) => failure = Some(e),
                Some(_) => {}
                None => failure = Some(missing.to_string()),
            }
        }
        match failure {
            None => Reply::Status("OK"),
            Some(e) => Reply::Error(e),
        }
    }

    /// The structural depth-0 rejections: middleware-owned verbs
    /// (`AUTH`, `EXPIRE`, the `SLOWLOG`/`TRACE` rings) answered here,
    /// at the innermost service, when their layer is not in the
    /// pipeline — they never reach the store. One shared check for
    /// `call` and `call_batch`, so the two paths can never drift apart
    /// textually.
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

impl Service for ExecService {
    fn call(&mut self, req: Request) -> Response {
        if let Some(resp) = Self::structural_rejection(&req.command) {
            return resp;
        }
        match &req.command {
            Command::Quit => Response {
                reply: Reply::Status("OK"),
                close: true,
            },
            Command::Post(author, msg) => {
                self.stats.note_mutation();
                // Fan out to the author plus the first FANOUT_LIMIT
                // followers; every target's shard must ack before the
                // client sees +OK, so a post is visible on every
                // timeline it reached once acknowledged. One overall
                // deadline covers the whole fan-out — a stuck shard
                // costs ack_timeout once, not once per follower — and
                // a timeout bails immediately instead of draining the
                // remaining acks against a poisoned session.
                let seqs: Vec<u64> = self
                    .enqueue_post(*author, *msg)
                    .into_iter()
                    .map(|(_, seq)| seq)
                    .collect();
                let mut received = HashMap::new();
                match self.collect(&mut received, &seqs) {
                    Ok(()) => Response::ok(Self::fanout_reply(&mut received, &seqs, ACK_GONE_MSG)),
                    Err(msg) => Response {
                        reply: Reply::Error(msg.into()),
                        close: true,
                    },
                }
            }
            cmd => {
                if let Some((shard, op, _touched)) = self.plan_mutation(cmd) {
                    self.stats.note_mutation();
                    let seq = self.enqueue(shard, op);
                    let mut received = HashMap::new();
                    match self.collect(&mut received, &[seq]) {
                        Ok(()) => {
                            Response::ok(received.remove(&seq).expect("collect delivered this seq"))
                        }
                        Err(msg) => Response {
                            reply: Reply::Error(msg.into()),
                            close: true,
                        },
                    }
                } else {
                    Response::ok(self.serve_read(cmd))
                }
            }
        }
    }

    /// The group-commit batch path. Mutations are enqueued as they are
    /// encountered (FIFO shard queues keep per-key order); reads are
    /// served inline unless a row they depend on has an outstanding
    /// mutation in this burst, in which case a barrier collects every
    /// outstanding ack first. One final collection (single overall
    /// deadline) gathers the rest, and replies are assembled in
    /// request order.
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        let mut dead: Option<&'static str> = None;
        let mut received: HashMap<u64, Reply> = HashMap::new();
        // Sequence numbers issued but not yet confirmed collected.
        let mut unmet: Vec<u64> = Vec::new();
        let mut pending: HashSet<PendingKey> = HashSet::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());

        // A barrier: wait for every outstanding ack, then forget the
        // pending rows (they are applied and visible).
        macro_rules! barrier {
            () => {
                if !unmet.is_empty() {
                    match self.collect(&mut received, &unmet) {
                        Ok(()) => {
                            unmet.clear();
                            pending.clear();
                        }
                        Err(msg) => dead = Some(msg),
                    }
                }
            };
        }

        for req in &reqs {
            if let Some(cause) = dead {
                // The session is poisoned: answer without executing
                // (the sequential path would have hung up already).
                slots.push(Slot::Done(Reply::Error(cause.into())));
                continue;
            }
            if let Some(resp) = Self::structural_rejection(&req.command) {
                slots.push(Slot::Done(resp.reply));
                continue;
            }
            match &req.command {
                Command::Quit => slots.push(Slot::Done(Reply::Status("OK"))),
                Command::Post(author, msg) => {
                    self.stats.note_mutation();
                    // The fan-out reads the follower row: wait for any
                    // outstanding FOLLOW/UNFOLLOW before targeting.
                    if pending.contains(&PendingKey::Follower(*author)) {
                        barrier!();
                        if let Some(cause) = dead {
                            slots.push(Slot::Done(Reply::Error(cause.into())));
                            continue;
                        }
                    }
                    // Every fan-out target's timeline is now dirty: a
                    // TIMELINE of any of them later in this burst must
                    // barrier first.
                    let mut seqs = Vec::new();
                    for (target, seq) in self.enqueue_post(*author, *msg) {
                        pending.insert(PendingKey::Timeline(target));
                        unmet.push(seq);
                        seqs.push(seq);
                    }
                    slots.push(Slot::Fanout(seqs));
                }
                cmd => {
                    if let Some((shard, op, touched)) = self.plan_mutation(cmd) {
                        self.stats.note_mutation();
                        let seq = self.enqueue(shard, op);
                        unmet.push(seq);
                        pending.extend(touched);
                        slots.push(Slot::Single(seq));
                    } else {
                        let needs_barrier = match Self::read_deps(cmd) {
                            None => !unmet.is_empty(),
                            Some(deps) => deps.iter().any(|k| pending.contains(k)),
                        };
                        if needs_barrier {
                            barrier!();
                            if let Some(cause) = dead {
                                slots.push(Slot::Done(Reply::Error(cause.into())));
                                continue;
                            }
                        }
                        slots.push(Slot::Done(self.serve_read(cmd)));
                    }
                }
            }
        }
        // The final barrier — skipped when the burst ended healthy:
        // the owning event loop collects the tail acks asynchronously,
        // so bursts from *other* connections can hit the same shard
        // sweep (cross-connection group commit). A span-sampled burst
        // stays synchronous so its store segments land in the trace
        // tree before the span closes; a poisoned burst already has
        // its answer.
        let deferring = dead.is_none() && !dego_middleware::span::active();
        if dead.is_none() && !deferring {
            barrier!();
        }

        let missing = dead.unwrap_or(ACK_GONE_MSG);
        let mut responses: Vec<Response> = reqs
            .iter()
            .zip(slots)
            .map(|(req, slot)| {
                let reply = match slot {
                    Slot::Done(reply) => reply,
                    Slot::Single(seq) => match received.remove(&seq) {
                        Some(reply) => reply,
                        None if deferring => {
                            self.defer.park(PendingSlot::Single(seq));
                            Reply::Status(PENDING_MARKER)
                        }
                        None => Reply::Error(missing.into()),
                    },
                    Slot::Fanout(seqs) => {
                        if deferring && seqs.iter().any(|seq| !received.contains_key(seq)) {
                            self.defer.park(PendingSlot::Fanout(seqs));
                            Reply::Status(PENDING_MARKER)
                        } else {
                            Self::fanout_reply(&mut received, &seqs, missing)
                        }
                    }
                };
                Response {
                    reply,
                    close: matches!(req.command, Command::Quit),
                }
            })
            .collect();
        if deferring && !received.is_empty() {
            // Acks that arrived early but belong to a parked fan-out:
            // hand them to the loop alongside the parked slots.
            self.defer.stash_received(received);
        }
        if dead.is_some() {
            // Poisoned: whatever the client was told, the session ends.
            if let Some(last) = responses.last_mut() {
                last.close = true;
            }
        }
        responses
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
}
