//! The connection plane: N event-loop threads (default = core count,
//! floored at two) multiplex every connection over raw `epoll`.
//!
//! Each loop owns a set of nonblocking sockets. A readable connection
//! has its buffered burst drained, parsed, and *begun* on its
//! session's middleware chain (`Service::begin_batch`) — every burst,
//! a burst of one included. The burst's runs of mutations for the
//! loop's *home* shards are applied by the loop itself when their
//! write side is free; the rest are published to the shard queues,
//! one envelope per (run, shard) (see `store.rs`). A burst with no ack
//! left in flight is answered at once. While acks are in flight (at
//! the burst's end, or at a read-after-write barrier inside it) the
//! chain **parks** the burst — every layer keeps its own context, the
//! innermost service the slots, the acks and the requests not staged
//! yet — and the loop moves straight on to the next readable
//! connection. A loop never blocks on an ack, and never on a write
//! side: it takes one only if it is free, and an apply in place is the
//! one slow thing it may run. Bursts from *different* connections
//! therefore pile into the same shard sweep — **cross-connection group
//! commit**. A shard owner answers each envelope with one ack and wakes
//! the loop through the `eventfd` the envelope carries; the loop then
//! polls the chains of
//! its parked connections (`Service::poll_batch`): a burst parked at a
//! barrier resumes staging (and may park again), and a chain whose
//! burst is complete — or past its ack deadline — hands back the
//! responses, observed by every layer on the way up, for the loop to
//! render and flush. How acks are matched to requests is the
//! innermost service's business (`server.rs`); all this module keeps
//! for a parked burst is how to lay its replies out ([`Awaiting`]).
//!
//! A connection that dies while its burst is parked leaves the epoll
//! set at once, but its chain is kept until `poll_batch` has answered,
//! so every request a layer admitted is also observed — a half-open
//! breaker probe that never was would hold its probe slot forever. The
//! replies are then dropped.
//!
//! The path from socket bytes to socket bytes allocates only what
//! outlives the request. **In:** one pass over the connection's read
//! buffer validates, bounds and parses each line as a `&str` borrowed
//! from the buffer ([`next_burst`]); the buffer is consumed by cursor
//! ([`ReadBuf`]), not shifted per burst. **Out:** every reply of a
//! burst is rendered straight into the connection's one contiguous
//! output buffer and leaves in one `write` (resumed after a partial
//! one). Both buffers live as long as the connection and hand
//! capacity above [`READ_CHUNK`] back once they run empty.
//!
//! The kernel interface is four raw syscalls (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) declared `extern "C"` against
//! glibc — the workspace is offline and already declares `signal(2)`
//! the same way in the server binary.
//!
//! **Client-visible semantics are those of sequential execution** —
//! however TCP cuts the stream into bursts, the reply bytes equal what
//! a lock-step client (one line, await the reply) would see; the
//! equivalence suite in `tests/integration_batch.rs` pins that. Blank
//! lines are keepalives, parse errors keep their positional slot,
//! `QUIT` discards the rest of its burst, non-UTF-8 input and
//! over-long lines answer a structured error after the burst's earlier
//! replies and close, an ack timeout poisons the session, and a drain
//! flushes in-flight bursts without acknowledging buffered input.
//!
//! **Input is bounded per connection**: a read sweep stops once
//! [`READ_HIGH_WATER`] bytes are buffered (level-triggered epoll
//! re-reports the rest after the buffered bursts were driven), a
//! connection whose burst is parked or whose replies are unflushed
//! keeps reading only up to that mark, and a line longer than
//! [`MAX_LINE_BYTES`] closes the connection.

use crate::protocol::{Command, Reply};
use crate::server::ExecService;
use crate::stats::ServerStats;
use crate::store::Store;
use dego_middleware::{BoxService, Progress, Request, Response, Service, Session, Stack};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw epoll/eventfd bindings. The workspace builds offline with no
/// libc crate; glibc's symbols are declared directly, following the
/// `signal(2)` precedent in `bin/dego-server.rs`.
mod sys {
    /// Kernel `struct epoll_event`. Packed on x86_64 (the kernel ABI
    /// packs it there so 32- and 64-bit layouts agree); natural
    /// alignment everywhere else.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// Events fetched per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// The waker eventfd's token in the loop's epoll set (connection
/// tokens are the global connection counter, which starts at 0 — so
/// the waker lives at the top of the space).
const WAKER_TOKEN: u64 = u64::MAX;
/// Per-read-sweep scratch buffer; also the capacity an idle
/// connection's buffers keep (see [`release_spare`]).
const READ_CHUNK: usize = 16 * 1024;
/// A read sweep stops once this many bytes are buffered unparsed, so
/// one fast sender can neither grow `Conn::rbuf` without bound nor
/// keep its loop reading forever; the socket buffer (and through it
/// TCP flow control) holds the rest until the buffered bursts ran.
const READ_HIGH_WATER: usize = 256 * 1024;
/// Longest request line served, newline excluded. A longer one —
/// terminated or still growing — answers [`LINE_TOO_LONG_MSG`] and
/// closes: the peer is not speaking this protocol.
const MAX_LINE_BYTES: usize = 64 * 1024;
// A maximal line must fit under the high-water mark, or the sweep
// would stop before its newline could ever arrive.
const _: () = assert!(MAX_LINE_BYTES < READ_HIGH_WATER);
/// The two input faults that end a session (positioned after the
/// burst's earlier replies; the byte stream is unrecoverable).
const BAD_UTF8_MSG: &str = "protocol requires UTF-8 input";
const LINE_TOO_LONG_MSG: &str = "line too long";
/// Most lines dispatched as one burst; the remainder stays buffered
/// for the next pass. Bounds the per-burst allocation and keeps one
/// flooding client from parking the loop in a single giant
/// `begin_batch` (burst boundaries are not client-visible — the
/// equivalence suite pins that).
const MAX_BURST_LINES: usize = 512;
/// Idle epoll timeout when nothing is pending: a defensive upper
/// bound so a lost wakeup degrades to latency, never to a hang.
const IDLE_WAIT: Duration = Duration::from_millis(500);
/// Epoll timeout while draining (the loop is polling its own
/// connections dry).
const DRAIN_WAIT: Duration = Duration::from_millis(10);

/// A level-triggered epoll instance owning its fd.
pub(crate) struct Epoll {
    fd: i32,
}

impl Epoll {
    pub(crate) fn new() -> std::io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    fn del(&self, fd: i32) {
        // Best-effort: closing the fd deregisters it anyway when no
        // other description references it.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness, returning the number of events filled in.
    /// `EINTR` (and any other wait failure) reports as zero events.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> usize {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `events` is a valid, writable buffer of its length.
        let n = unsafe { sys::epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed once.
        unsafe { sys::close(self.fd) };
    }
}

/// An `eventfd` that unblocks a loop's `epoll_wait` from another
/// thread. Shard owners wake the loop after acking one of its runs;
/// the accept thread wakes it after handing off a new connection;
/// shutdown wakes it so it observes the flag.
pub(crate) struct LoopWaker {
    fd: i32,
}

impl LoopWaker {
    pub(crate) fn new() -> std::io::Result<LoopWaker> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(LoopWaker { fd })
    }

    /// Make the owning loop's next (or current) `epoll_wait` return.
    /// Nonblocking: a saturated counter is already a pending wakeup.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack value.
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter so level-triggered epoll stops reporting it.
    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a live stack value.
        unsafe { sys::read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }

    fn fd(&self) -> i32 {
        self.fd
    }
}

impl Drop for LoopWaker {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed once.
        unsafe { sys::close(self.fd) };
    }
}

/// Everything a loop thread needs, built in `spawn()` so fd-creation
/// errors surface as bind-time `io::Error`s instead of thread panics.
pub(crate) struct LoopCtx {
    pub(crate) epoll: Epoll,
    pub(crate) waker: Arc<LoopWaker>,
    /// Per shard, whether it is this loop's home shard: runs for it are
    /// applied in place by this thread when its write side is free.
    pub(crate) home: Arc<[bool]>,
    /// New connections from the accept thread (socket, global conn id).
    pub(crate) inbox: Receiver<(TcpStream, u64)>,
    pub(crate) store: Arc<Store>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) stack: Arc<Stack>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) ready: Arc<AtomicBool>,
    /// Overall shard-ack deadline per burst, however often it parks.
    pub(crate) ack_timeout: Duration,
    /// Close connections idle past this deadline (`--idle-timeout-ms`;
    /// `None` = never).
    pub(crate) idle_timeout: Option<Duration>,
}

/// What holds one reply slot of a burst, in line order.
#[derive(Debug, PartialEq)]
enum LineSlot {
    /// A command: the chain's next response.
    Cmd,
    /// A line that did not parse: its error.
    Err(String),
    /// The input fault that ended the burst: positioned after the
    /// burst's replies, it gets its structured error and — the byte
    /// stream being unrecoverable — ends the session.
    Fault(&'static str),
}

/// A burst parked in the connection's chain: what the loop needs to
/// render it once `poll_batch` delivers its responses.
struct Awaiting {
    line_slots: Vec<LineSlot>,
    /// When the chain's ack deadline will have lapsed: poll again by
    /// then, even if no ack rings the doorbell.
    deadline: Instant,
}

/// An empty buffer gives back what it holds above [`READ_CHUNK`], so
/// one burst of large values does not pin its high-water capacity for
/// the rest of an idle connection's life. (At or below the floor it is
/// kept: ordinary traffic never reallocates.)
fn release_spare(buf: &mut Vec<u8>) {
    if buf.is_empty() {
        buf.shrink_to(READ_CHUNK);
    }
}

/// Bytes read but not yet dispatched, consumed by cursor: a burst
/// taken off the front moves nothing. The consumed prefix is dropped
/// when the buffer runs empty (the common case — free) or when the
/// next read would otherwise have to grow it, so the unconsumed bytes
/// are moved once per buffer's worth of input, not once per burst, and
/// the buffer is never larger than the unconsumed input needed.
#[derive(Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    /// Where the unconsumed input starts in `bytes`.
    at: usize,
}

impl ReadBuf {
    /// The unconsumed input.
    fn pending(&self) -> &[u8] {
        &self.bytes[self.at..]
    }

    fn extend(&mut self, chunk: &[u8]) {
        if self.at > 0 && self.bytes.len() + chunk.len() > self.bytes.capacity() {
            self.bytes.drain(..self.at);
            self.at = 0;
        }
        self.bytes.extend_from_slice(chunk);
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        if self.at == self.bytes.len() {
            self.clear();
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.at = 0;
        release_spare(&mut self.bytes);
    }
}

/// One multiplexed connection's state.
struct Conn {
    socket: TcpStream,
    chain: BoxService,
    /// Bytes read but not yet parsed (at most one partial line after
    /// a drive pass, unless a burst is in flight).
    rbuf: ReadBuf,
    /// Rendered replies waiting to flush: at most one burst's, back to
    /// back. Empty whenever nothing is owed (`flush` resets it).
    out: Vec<u8>,
    /// Bytes of `out` already written (partial-write resume).
    out_off: usize,
    awaiting: Option<Awaiting>,
    /// Events currently registered with epoll.
    interest: u32,
    last_read: Instant,
    eof: bool,
    /// Close once `out` drains and nothing is awaited.
    closing: bool,
    /// Hard I/O failure: tear down as soon as no burst is parked.
    dead: bool,
    /// Dead with a burst still parked: already out of the epoll set,
    /// kept only until its chain has observed the burst.
    detached: bool,
}

/// One event-loop thread: multiplexes its share of the connections
/// until shutdown drains them all.
pub(crate) fn run_loop(ctx: LoopCtx) {
    ctx.epoll
        .add(ctx.waker.fd(), WAKER_TOKEN, EPOLLIN)
        .expect("register loop waker");
    let mut el = EventLoop {
        ctx,
        conns: HashMap::new(),
        awaiting: HashSet::new(),
        draining: false,
        drain_deadline: None,
        last_idle_sweep: Instant::now(),
    };
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    loop {
        el.accept_new();
        if !el.draining && el.ctx.shutdown.load(Ordering::Acquire) {
            el.begin_drain();
        }
        if el.draining {
            if el.conns.is_empty() {
                return;
            }
            // A peer that stops reading must not wedge the drain
            // forever: bound it by the ack deadline and cut.
            if el
                .drain_deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                el.conns.clear();
                el.awaiting.clear();
                return;
            }
        }
        let n = el.ctx.epoll.wait(&mut events, el.wait_timeout());
        el.ctx.stats.note_loop_wakeup();
        for ev in &events[..n] {
            // Copy out of the (possibly packed) kernel struct.
            let (token, bits) = (ev.data, ev.events);
            if token == WAKER_TOKEN {
                el.ctx.waker.drain();
                el.accept_new();
            } else {
                el.handle_event(token, bits);
            }
        }
        // Parked bursts: poll every awaiting connection's chain (the
        // waker fired, or a deadline may have lapsed).
        el.sweep_awaiting();
        el.sweep_idle();
    }
}

struct EventLoop {
    ctx: LoopCtx,
    conns: HashMap<u64, Conn>,
    /// Tokens with a parked burst outstanding (kept separately so an
    /// ack wakeup sweeps only the waiters, not every connection).
    awaiting: HashSet<u64>,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_idle_sweep: Instant,
}

impl EventLoop {
    /// Register connections handed off by the accept thread.
    fn accept_new(&mut self) {
        while let Ok((socket, token)) = self.ctx.inbox.try_recv() {
            if self.draining || self.ctx.shutdown.load(Ordering::Acquire) {
                continue; // Dropped: the listener is already closed to new work.
            }
            self.register(socket, token);
        }
    }

    /// Wire one socket into the loop: nonblocking, its own middleware
    /// chain (built here, on the owning thread — chains are
    /// thread-local), and an epoll registration under its token.
    fn register(&mut self, socket: TcpStream, token: u64) {
        if socket.set_nonblocking(true).is_err() || socket.set_nodelay(true).is_err() {
            return;
        }
        let session = Session {
            client: socket
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        };
        let exec = ExecService::new(
            Arc::clone(&self.ctx.store),
            Arc::clone(&self.ctx.stats),
            Arc::clone(&self.ctx.stack),
            Arc::clone(&self.ctx.ready),
            self.ctx.ack_timeout,
            Arc::clone(&self.ctx.waker),
            Arc::clone(&self.ctx.home),
        );
        let chain = self.ctx.stack.service(&session, Box::new(exec));
        let fd = socket.as_raw_fd();
        if self.ctx.epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                socket,
                chain,
                rbuf: ReadBuf::default(),
                out: Vec::new(),
                out_off: 0,
                awaiting: None,
                interest: EPOLLIN | EPOLLRDHUP,
                last_read: Instant::now(),
                eof: false,
                closing: false,
                dead: false,
                detached: false,
            },
        );
    }

    /// Shutdown observed: stop reading everywhere, flush what is owed,
    /// and let parked bursts complete. Buffered input is
    /// never acknowledged.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.ctx.ack_timeout);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            conn.rbuf.clear();
            if conn.awaiting.is_none() {
                conn.closing = true;
            }
            self.flush(&mut conn);
            self.settle(token, conn);
        }
    }

    /// The epoll timeout: tight while draining, bounded by the nearest
    /// ack deadline while bursts are parked, bounded by the idle
    /// sweep cadence when an idle timeout is armed.
    fn wait_timeout(&self) -> Duration {
        let mut wait = if self.draining { DRAIN_WAIT } else { IDLE_WAIT };
        let now = Instant::now();
        for token in &self.awaiting {
            if let Some(aw) = self.conns.get(token).and_then(|c| c.awaiting.as_ref()) {
                wait = wait.min(aw.deadline.saturating_duration_since(now));
            }
        }
        if self.ctx.idle_timeout.is_some() && !self.draining {
            wait = wait.min(Duration::from_millis(50));
        }
        wait
    }

    fn handle_event(&mut self, token: u64, bits: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // Already torn down this iteration.
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            conn.dead = true;
        } else if !conn.dead {
            if bits & EPOLLOUT != 0 {
                self.drive(&mut conn);
            }
            // Also while a burst is parked or replies are unflushed: the
            // bytes wait in `rbuf` (`settle` bounds it), undispatched.
            if bits & (EPOLLIN | EPOLLRDHUP) != 0 && conn.interest & EPOLLIN != 0 && !conn.dead {
                self.read_socket(&mut conn);
                if !conn.dead {
                    self.drive(&mut conn);
                }
            }
        }
        self.settle(token, conn);
    }

    /// Drain the socket until a short read, EOF, or
    /// [`READ_HIGH_WATER`] buffered bytes. A short read emptied the
    /// socket buffer, so a further `read` would only fetch `EAGAIN`;
    /// level-triggered epoll re-reports whatever arrives later (EOF
    /// included) and anything left behind. Reading the whole burst now
    /// is what feeds cross-connection group commit: every readable
    /// connection's mutations hit the shard queues before any of them
    /// waits for an ack.
    fn read_socket(&mut self, conn: &mut Conn) {
        let mut buf = [0u8; READ_CHUNK];
        while conn.rbuf.pending().len() < READ_HIGH_WATER {
            match conn.socket.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend(&buf[..n]);
                    conn.last_read = Instant::now();
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Parse and dispatch bursts until the connection blocks on
    /// something: acks (parked burst), backpressure (unflushed
    /// replies), or input (no complete line left). Flushing comes
    /// first, so a caller that just queued replies (a completed
    /// parked burst) carries on with the lines still buffered.
    fn drive(&mut self, conn: &mut Conn) {
        loop {
            self.flush(conn);
            if conn.closing || conn.dead || conn.awaiting.is_some() || !conn.out.is_empty() {
                break;
            }
            let burst = next_burst(conn.rbuf.pending(), conn.eof);
            if burst.consumed == 0 && burst.fault.is_none() {
                if conn.eof {
                    conn.closing = true;
                }
                break;
            }
            conn.rbuf.consume(burst.consumed);
            self.dispatch(conn, burst);
        }
    }

    /// Drive one parsed burst through the middleware chain. A burst
    /// the chain answers at once is rendered here; one it parks waits
    /// in `conn.awaiting` for `try_complete`. A burst of only blank or
    /// unparsable lines reaches no layer.
    fn dispatch(&mut self, conn: &mut Conn, burst: BurstInput) {
        let BurstInput {
            requests,
            mut line_slots,
            fault,
            ..
        } = burst;
        for _ in &line_slots {
            self.ctx.stats.note_command();
        }
        line_slots.extend(fault.map(LineSlot::Fault));
        let progress = if requests.is_empty() {
            Progress::Done(Vec::new())
        } else {
            conn.chain.begin_batch(requests)
        };
        match progress {
            Progress::Done(responses) => self.render(conn, line_slots, responses),
            Progress::Parked => {
                conn.awaiting = Some(Awaiting {
                    line_slots,
                    deadline: Instant::now() + self.ctx.ack_timeout,
                })
            }
        }
    }

    /// Poll `conn`'s parked burst; when the chain delivers it —
    /// complete, or poisoned at the ack deadline — render it (or, for a
    /// connection that died meanwhile, just let it go: what mattered is
    /// that every layer observed it). Returns whether the wait is over.
    fn try_complete(&mut self, conn: &mut Conn) -> bool {
        if conn.awaiting.is_none() {
            return true;
        }
        let Some(responses) = conn.chain.poll_batch() else {
            return false;
        };
        let aw = conn.awaiting.take().expect("awaiting checked above");
        if !conn.dead {
            self.render(conn, aw.line_slots, responses);
        }
        true
    }

    /// Queue a burst's replies in line order. A response that closes
    /// the session (`QUIT`, an ack timeout, an input fault) ends the
    /// burst there, and whatever input is buffered behind it is
    /// discarded: the session is closing anyway.
    fn render(&mut self, conn: &mut Conn, line_slots: Vec<LineSlot>, responses: Vec<Response>) {
        if render_burst(&mut conn.out, line_slots, responses, &self.ctx.stats) {
            conn.closing = true;
            conn.rbuf.clear();
        }
        conn.closing |= self.draining;
    }

    /// Check every connection with a parked burst outstanding.
    fn sweep_awaiting(&mut self) {
        if self.awaiting.is_empty() {
            return;
        }
        let tokens: Vec<u64> = self.awaiting.iter().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                self.awaiting.remove(&token);
                continue;
            };
            if self.try_complete(&mut conn) {
                self.awaiting.remove(&token);
                self.drive(&mut conn);
            }
            self.settle(token, conn);
        }
    }

    /// Close connections idle past `--idle-timeout-ms` (nothing read,
    /// nothing owed): the classic slow fd leak of event-loop servers.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.ctx.idle_timeout else {
            return;
        };
        if self.draining || self.last_idle_sweep.elapsed() < Duration::from_millis(50) {
            return;
        }
        self.last_idle_sweep = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.awaiting.is_none()
                    && c.out.is_empty()
                    && !c.closing
                    && c.last_read.elapsed() >= limit
            })
            .map(|(token, _)| *token)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                self.ctx.stats.note_idle_closed();
                self.teardown(conn);
            }
        }
    }

    /// Write what is left of the output buffer — normally the whole
    /// burst in one `write` — resuming at `out_off` after a partial
    /// one. Fully written, the buffer is reset (and gives its spare
    /// capacity back), so "replies owed" stays `!out.is_empty()`.
    fn flush(&mut self, conn: &mut Conn) {
        while conn.out_off < conn.out.len() && !conn.dead {
            match (&conn.socket).write(&conn.out[conn.out_off..]) {
                Ok(0) => conn.dead = true,
                Ok(n) => conn.out_off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
        }
        if conn.out_off == conn.out.len() {
            conn.out.clear();
            conn.out_off = 0;
            release_spare(&mut conn.out);
        }
    }

    /// Post-work bookkeeping for a connection pulled out of the map:
    /// tear it down if finished, otherwise reconcile its epoll
    /// interest and put it back.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if conn.dead && conn.awaiting.is_some() {
            // Off the epoll set at once, but the chain lives until
            // `poll_batch` has answered (bounded by `ack_timeout`): see
            // the module doc.
            if !conn.detached {
                self.ctx.epoll.del(conn.socket.as_raw_fd());
                conn.detached = true;
            }
            self.awaiting.insert(token);
            self.conns.insert(token, conn);
            return;
        }
        if conn.dead || (conn.closing && conn.out.is_empty() && conn.awaiting.is_none()) {
            self.awaiting.remove(&token);
            self.teardown(conn);
            return;
        }
        let mut want = 0u32;
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        // While a burst is parked or replies are unflushed nothing new
        // is dispatched, but reading carries on up to the high-water
        // mark: a closed-loop client sends nothing until it has its
        // replies, so dropping read interest for the wait and restoring
        // it after would be two `epoll_ctl` calls per burst for
        // nothing. Only a full `rbuf` stops the reads (level-triggered
        // epoll would spin otherwise).
        let blocked = conn.awaiting.is_some() || !conn.out.is_empty();
        let full = blocked && conn.rbuf.pending().len() >= READ_HIGH_WATER;
        if !full && !conn.eof && !conn.closing && !self.draining {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest {
            let fd = conn.socket.as_raw_fd();
            if self.ctx.epoll.modify(fd, token, want).is_err() {
                // As good as a hard I/O failure: settle again as dead.
                conn.dead = true;
                return self.settle(token, conn);
            }
            conn.interest = want;
        }
        if conn.awaiting.is_some() {
            self.awaiting.insert(token);
        }
        self.conns.insert(token, conn);
    }

    /// Deregister and drop: closing the socket returns the fd.
    fn teardown(&mut self, conn: Conn) {
        if !conn.detached {
            self.ctx.epoll.del(conn.socket.as_raw_fd());
        }
    }
}

/// What one pass over the buffered input took off its front.
struct BurstInput {
    /// The commands to dispatch, in line order.
    requests: Vec<Request>,
    /// Per non-blank line, its [`LineSlot`] — as many `Cmd` slots as
    /// requests, in the same order.
    line_slots: Vec<LineSlot>,
    /// The input fault that ended the burst, if one did.
    fault: Option<&'static str>,
    /// Bytes of the input this burst accounts for.
    consumed: usize,
}

/// Take the next burst off the front of `buf`, in one pass: up to
/// [`MAX_BURST_LINES`] complete lines (plus, at EOF, the final
/// unterminated line), each validated as UTF-8 and parsed where it
/// lies. Blank lines are keepalives: no command, no error, no slot.
/// The burst ends after `QUIT` (what follows is discarded when the
/// session closes). A line that is not valid UTF-8, or longer than
/// [`MAX_LINE_BYTES`] (whether or not its newline has arrived yet),
/// ends the burst with that fault's message — the poisoned line
/// consumed, the over-long one not; the caller discards the rest by
/// closing.
fn next_burst(buf: &[u8], eof: bool) -> BurstInput {
    // Size both vectors once, from the newlines in sight: exact for any
    // burst read in one sweep's first chunk, which is every burst of a
    // client that waits for its replies.
    let in_sight = &buf[..buf.len().min(READ_CHUNK)];
    let lines = in_sight.iter().filter(|b| **b == b'\n').count() + usize::from(eof);
    let lines = lines.min(MAX_BURST_LINES);
    let mut burst = BurstInput {
        requests: Vec::with_capacity(lines),
        line_slots: Vec::with_capacity(lines + 1), // + the fault's slot
        fault: None,
        consumed: 0,
    };
    for _ in 0..MAX_BURST_LINES {
        let rest = &buf[burst.consumed..];
        if rest.is_empty() {
            break;
        }
        let newline = rest.iter().position(|b| *b == b'\n');
        let end = newline.unwrap_or(rest.len());
        if end > MAX_LINE_BYTES {
            burst.fault = Some(LINE_TOO_LONG_MSG);
            break;
        }
        if newline.is_none() && !eof {
            break;
        }
        burst.consumed += end + usize::from(newline.is_some());
        let Ok(text) = std::str::from_utf8(&rest[..end]) else {
            burst.fault = Some(BAD_UTF8_MSG);
            break;
        };
        if text.trim().is_empty() {
            continue;
        }
        match Command::parse(text) {
            Ok(cmd) => {
                let quit = matches!(cmd, Command::Quit);
                burst.requests.push(Request::new(cmd));
                burst.line_slots.push(LineSlot::Cmd);
                if quit {
                    break;
                }
            }
            Err(e) => burst.line_slots.push(LineSlot::Err(e.0)),
        }
    }
    burst
}

/// A burst's responses in line order: each slot's own (see
/// [`LineSlot`]).
fn in_line_order(
    line_slots: Vec<LineSlot>,
    responses: Vec<Response>,
) -> impl Iterator<Item = Response> {
    let mut responses = responses.into_iter();
    line_slots.into_iter().map(move |slot| match slot {
        LineSlot::Cmd => responses.next().expect("one response per command"),
        LineSlot::Err(e) => Response::ok(Reply::Error(e)),
        LineSlot::Fault(msg) => Response {
            reply: Reply::Error(msg.into()),
            close: true,
        },
    })
}

/// Render a burst's replies in line order onto the end of `out`,
/// counting the errors. A response that closes the session ends the
/// burst there; returns whether one did.
fn render_burst(
    out: &mut Vec<u8>,
    line_slots: Vec<LineSlot>,
    responses: Vec<Response>,
    stats: &ServerStats,
) -> bool {
    for resp in in_line_order(line_slots, responses) {
        if matches!(resp.reply, Reply::Error(_)) {
            stats.note_error();
        }
        resp.reply.render_into(out);
        if resp.close {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn waker_unblocks_epoll_and_drains() {
        let epoll = Epoll::new().expect("epoll");
        let waker = LoopWaker::new().expect("eventfd");
        epoll
            .add(waker.fd(), WAKER_TOKEN, EPOLLIN)
            .expect("register");
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a short wait returns empty.
        assert_eq!(epoll.wait(&mut events, Duration::from_millis(0)), 0);
        waker.wake();
        let n = epoll.wait(&mut events, Duration::from_millis(1000));
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, WAKER_TOKEN);
        waker.drain();
        // Drained: level-triggered epoll stops reporting it.
        assert_eq!(epoll.wait(&mut events, Duration::from_millis(0)), 0);
    }

    // The `split_burst_*` tests keep the names they had when splitting
    // was a pass of its own (the suite's floor lists them); what they
    // assert now holds of the fused `next_burst`.
    fn commands(burst: &BurstInput) -> Vec<Command> {
        burst.requests.iter().map(|r| r.command.clone()).collect()
    }

    #[test]
    fn split_burst_takes_complete_lines_only() {
        let buf = b"GET a\nSET b 1\npartial";
        let burst = next_burst(buf, false);
        assert_eq!(
            commands(&burst),
            vec![
                Command::Get("a".into()),
                Command::Set("b".into(), "1".into())
            ]
        );
        assert_eq!(burst.line_slots, vec![LineSlot::Cmd, LineSlot::Cmd]);
        assert_eq!(burst.fault, None);
        assert_eq!(&buf[burst.consumed..], b"partial");
    }

    #[test]
    fn split_burst_serves_unterminated_line_at_eof() {
        let burst = next_burst(b"PING", true);
        assert_eq!(commands(&burst), vec![Command::Ping]);
        assert_eq!(burst.fault, None);
        assert_eq!(burst.consumed, 4);
    }

    #[test]
    fn split_burst_flags_non_utf8_and_keeps_prior_lines() {
        let buf = b"PING\n\xff\xfe garbage\nPING\n";
        let burst = next_burst(buf, false);
        assert_eq!(commands(&burst), vec![Command::Ping]);
        assert_eq!(burst.fault, Some(BAD_UTF8_MSG));
        // The poisoned line is consumed; the tail stays (discarded by
        // the caller when it hangs up).
        assert_eq!(&buf[burst.consumed..], b"PING\n");
    }

    #[test]
    fn split_burst_respects_burst_cap() {
        let buf = b"PING\n".repeat(MAX_BURST_LINES + 10);
        let burst = next_burst(&buf, false);
        assert_eq!(burst.requests.len(), MAX_BURST_LINES);
        assert_eq!(burst.fault, None);
        assert_eq!(buf.len() - burst.consumed, 10 * 5);
        // Keepalives count toward the cap without holding a slot.
        let buf = [b"\n".repeat(MAX_BURST_LINES - 1), b"PING\nPING\n".to_vec()].concat();
        let burst = next_burst(&buf, false);
        assert_eq!(commands(&burst), vec![Command::Ping]);
        assert_eq!(&buf[burst.consumed..], b"PING\n");
    }

    #[test]
    fn split_burst_faults_an_over_long_line_after_prior_lines() {
        // Still growing, no newline yet: already past the cap.
        let mut buf = b"PING\n".to_vec();
        buf.resize(buf.len() + MAX_LINE_BYTES + 1, b'x');
        let burst = next_burst(&buf, false);
        assert_eq!(commands(&burst), vec![Command::Ping]);
        assert_eq!(burst.fault, Some(LINE_TOO_LONG_MSG));
        assert_eq!(burst.consumed, 5);
        // Terminated but over the cap faults the same way; at the cap
        // it is an ordinary line.
        let mut buf = vec![b'x'; MAX_LINE_BYTES + 1];
        buf.push(b'\n');
        assert_eq!(next_burst(&buf, false).fault, Some(LINE_TOO_LONG_MSG));
        let mut buf = vec![b'x'; MAX_LINE_BYTES];
        buf.push(b'\n');
        let burst = next_burst(&buf, false);
        assert_eq!((burst.line_slots.len(), burst.fault), (1, None));
        assert_eq!(burst.consumed, buf.len());
    }

    #[test]
    fn next_burst_ends_after_quit() {
        let buf = b"PING\nquit\nPING\n\xff\n";
        let burst = next_burst(buf, false);
        assert_eq!(commands(&burst), vec![Command::Ping, Command::Quit]);
        assert_eq!(burst.line_slots, vec![LineSlot::Cmd, LineSlot::Cmd]);
        assert_eq!(burst.fault, None);
        assert_eq!(&buf[burst.consumed..], b"PING\n\xff\n");
    }

    /// A high-water-full buffer of short lines is served burst by
    /// burst without being shifted once per burst — not at all when it
    /// is served in one go, and, when a slow reader lets only one burst
    /// through per read, once per buffer's worth of input: bytes moved
    /// stay within the bytes served, where a shift per burst moved a
    /// hundred times as many.
    #[test]
    fn read_buf_consumes_by_cursor() {
        let flood = b"PING\n".repeat(8 * READ_HIGH_WATER / 5);
        let (mut rbuf, mut fed) = (ReadBuf::default(), 0usize);
        let (mut seen, mut moved, mut bursts) = (0usize, 0usize, 0usize);
        while seen < flood.len() {
            // One read sweep (to the high-water mark), then one burst.
            while fed < flood.len() && rbuf.pending().len() < READ_HIGH_WATER {
                let chunk = &flood[fed..flood.len().min(fed + READ_CHUNK)];
                let at = rbuf.at;
                rbuf.extend(chunk);
                moved += if rbuf.at < at {
                    rbuf.pending().len() - chunk.len()
                } else {
                    0
                };
                fed += chunk.len();
            }
            let burst = next_burst(rbuf.pending(), false);
            assert_eq!(
                burst.requests.len(),
                MAX_BURST_LINES.min((flood.len() - seen) / 5)
            );
            rbuf.consume(burst.consumed);
            seen += burst.consumed;
            bursts += 1;
            assert_eq!(rbuf.pending(), &flood[seen..fed]);
            assert!(rbuf.bytes.capacity() <= 2 * READ_HIGH_WATER);
        }
        assert!(
            bursts > 800 && moved <= flood.len(),
            "{moved} moved in {bursts}"
        );
        assert_eq!((rbuf.at, rbuf.bytes.len()), (0, 0));
    }

    /// What an idle connection keeps: a buffer that ran empty gives
    /// back its capacity above the floor; one still holding bytes, or
    /// never grown past the floor, is left alone.
    #[test]
    fn empty_buffers_release_capacity_above_the_floor() {
        let mut big = vec![0u8; 4 * READ_HIGH_WATER];
        release_spare(&mut big);
        assert!(big.capacity() >= 4 * READ_HIGH_WATER, "bytes still owed");
        big.clear();
        release_spare(&mut big);
        assert!(big.capacity() <= READ_CHUNK, "{}", big.capacity());

        let mut small = Vec::with_capacity(READ_CHUNK / 2);
        release_spare(&mut small);
        assert_eq!(small.capacity(), READ_CHUNK / 2);

        // The read buffer releases through `consume`/`clear`.
        let mut rbuf = ReadBuf::default();
        rbuf.extend(&vec![b'x'; READ_HIGH_WATER]);
        rbuf.consume(READ_HIGH_WATER);
        assert!(rbuf.bytes.capacity() <= READ_CHUNK);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes through `ReadBuf`, `next_burst` and
        /// `in_line_order`: nothing panics, every byte is consumed
        /// exactly once, and every non-blank line that is dispatched
        /// holds exactly one reply slot.
        #[test]
        fn arbitrary_input_is_consumed_once_and_answered_line_for_line(
            fragments in collection::vec(
                prop_oneof![
                    Just(b"PING\n".to_vec()),
                    Just(b"SET k v\n".to_vec()),
                    Just(b"get k\r\n".to_vec()),
                    Just(b"QUIT\n".to_vec()),
                    Just(b"BLORP 1 2\n".to_vec()),
                    Just(b"\n".to_vec()),
                    Just(b" \t\r\n".to_vec()),
                    Just(b"\xff\xfe\n".to_vec()),
                    Just(b"INCR n".to_vec()),
                    Just(vec![b'x'; MAX_LINE_BYTES + 1]),
                    any::<u8>().prop_map(|b| vec![b]),
                ],
                0..24,
            ),
            eof in any::<bool>(),
        ) {
            let input = fragments.concat();
            let mut rbuf = ReadBuf::default();
            rbuf.extend(&input);
            let mut seen = 0usize; // bytes of `input` accounted for
            loop {
                let BurstInput { requests, line_slots, fault, consumed } =
                    next_burst(rbuf.pending(), eof);
                // Consumed bytes are whole lines, in order: valid UTF-8
                // but for (only) a last line poisoned by bad UTF-8.
                let mut lines: Vec<&[u8]> = input[seen..seen + consumed]
                    .split_inclusive(|b| *b == b'\n')
                    .collect();
                prop_assert!(lines.len() <= MAX_BURST_LINES);
                let unterminated = lines.iter().filter(|l| !l.ends_with(b"\n")).count();
                prop_assert!(unterminated == 0 || (eof && unterminated == 1));
                if fault == Some(BAD_UTF8_MSG) {
                    let poisoned = lines.pop().expect("the poisoned line is consumed");
                    prop_assert!(std::str::from_utf8(poisoned).is_err());
                }
                let lines: Vec<&str> = lines
                    .into_iter()
                    .map(|l| std::str::from_utf8(l).expect("only the last line may be poisoned"))
                    .collect();
                rbuf.consume(consumed);
                seen += consumed;
                prop_assert_eq!(&input[seen..], rbuf.pending());

                let quit = matches!(requests.last(), Some(r) if matches!(r.command, Command::Quit));
                let cmds = line_slots.iter().filter(|s| **s == LineSlot::Cmd).count();
                prop_assert_eq!(cmds, requests.len());
                // Every consumed non-blank line holds a slot — nothing
                // is consumed past a `QUIT`, so none follows its slot.
                let non_blank = lines.iter().filter(|l| !l.trim().is_empty()).count();
                prop_assert_eq!(line_slots.len(), non_blank);
                if quit {
                    prop_assert_eq!(line_slots.last(), Some(&LineSlot::Cmd));
                    prop_assert!(fault.is_none());
                    prop_assert_eq!(
                        lines.last().map(|l| l.trim().to_ascii_uppercase()),
                        Some("QUIT".to_string())
                    );
                }
                // Number the responses: they come back in their `Cmd`
                // slots in order, around the parse errors.
                let responses = (0..requests.len() as i64)
                    .map(|i| Response::ok(Reply::Int(i)))
                    .collect();
                let mut numbers = 0i64..;
                let expected: Vec<Reply> = line_slots
                    .iter()
                    .map(|slot| match slot {
                        LineSlot::Cmd => Reply::Int(numbers.next().expect("unbounded")),
                        LineSlot::Err(e) => Reply::Error(e.clone()),
                        LineSlot::Fault(msg) => Reply::Error((*msg).into()),
                    })
                    .collect();
                let laid_out: Vec<Reply> = in_line_order(line_slots, responses)
                    .map(|resp| resp.reply)
                    .collect();
                prop_assert_eq!(laid_out, expected);
                if fault.is_some() || consumed == 0 {
                    // Whatever is left is one unfinished line.
                    prop_assert!(fault.is_some() || !rbuf.pending().contains(&b'\n'));
                    prop_assert!(fault.is_some() || !eof || rbuf.pending().is_empty());
                    break;
                }
            }
        }
    }

    /// The request path's allocation budget, counted on this thread
    /// from raw bytes to rendered bytes the way the loop runs a burst
    /// (`next_burst` → the chain of a `none` stack → `render_burst`
    /// into a connection-lived buffer): per command only what outlives
    /// its parse — a `GET`'s key and the value read, a `TIMELINE`'s
    /// row — plus four per burst (the vectors of requests, line slots,
    /// reply slots and responses). No line copy, no verb copy, no
    /// `String` per reply or per timeline element.
    #[test]
    fn request_path_allocates_only_what_outlives_the_request() {
        const GETS: u64 = 16;
        const TIMELINES: u64 = 8;
        const PER_BURST: u64 = 4;
        let stats = Arc::new(ServerStats::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let runtime =
            crate::store::spawn_shards(2, 256, Arc::clone(&stats), Arc::clone(&shutdown), 60, None);
        let stack = Stack::build(&dego_middleware::MiddlewareConfig::none());
        let exec = ExecService::new(
            Arc::clone(&runtime.store),
            Arc::clone(&stats),
            Arc::clone(&stack),
            Arc::new(AtomicBool::new(true)),
            Duration::from_secs(5),
            Arc::new(LoopWaker::new().expect("eventfd")),
            Arc::new([false; 2]),
        );
        let session = Session {
            client: "budget".into(),
        };
        let mut chain = stack.service(&session, Box::new(exec));
        let mut out: Vec<u8> = Vec::new();
        // One burst, start to finish, returning what it allocated.
        let mut serve = |input: &[u8]| {
            let before = crate::test_alloc::allocations();
            let burst = next_burst(input, false);
            assert_eq!((burst.consumed, burst.fault), (input.len(), None));
            let responses = match chain.begin_batch(burst.requests) {
                Progress::Done(responses) => responses,
                Progress::Parked => loop {
                    match chain.poll_batch() {
                        Some(responses) => break responses,
                        None => std::thread::yield_now(),
                    }
                },
            };
            out.clear();
            render_burst(&mut out, burst.line_slots, responses, &stats);
            (crate::test_alloc::allocations() - before, out.clone())
        };

        let mut preload = String::new();
        for key in 0..GETS {
            preload += &format!("SET key:{key} value-of-{key}\n");
        }
        for user in 0..TIMELINES {
            preload += &format!("ADDUSER {user}\n");
            for msg in 0..crate::TIMELINE_LIMIT as u64 {
                preload += &format!("POST {user} {}\n", 1000 * user + msg);
            }
        }
        serve(preload.as_bytes());

        let gets: String = (0..GETS).map(|k| format!("GET key:{k}\n")).collect();
        let timelines: String = (0..TIMELINES).map(|u| format!("TIMELINE {u}\n")).collect();
        // Once to grow `out` to its working size, as a live connection
        // has after its first bursts; the second is the steady state.
        serve(gets.as_bytes());
        let (allocated, replies) = serve(gets.as_bytes());
        assert!(replies.starts_with(b"$value-of-0\n$value-of-1\n"));
        assert!(
            allocated <= 2 * GETS + PER_BURST,
            "{allocated} allocations for {GETS} GETs"
        );
        serve(timelines.as_bytes());
        let (allocated, replies) = serve(timelines.as_bytes());
        assert!(replies.starts_with(b"*50\n:49\n:48\n"));
        let lines = replies.iter().filter(|b| **b == b'\n').count() as u64;
        assert_eq!(lines, TIMELINES * (1 + crate::TIMELINE_LIMIT as u64));
        assert!(
            allocated <= 2 * TIMELINES + PER_BURST,
            "{allocated} allocations for {TIMELINES} TIMELINEs"
        );

        shutdown.store(true, Ordering::Release);
        for shard in 0..2 {
            runtime.store.wake(shard);
        }
        for thread in runtime.threads {
            thread.join().expect("shard owner exits");
        }
    }

    fn one_loop_server() -> crate::ServerHandle {
        stalled_one_loop_server(None)
    }

    fn stalled_one_loop_server(shard_delay: Option<Duration>) -> crate::ServerHandle {
        let server = crate::spawn(crate::ServerConfig {
            shards: 2,
            capacity: 256,
            event_loops: 1,
            ..crate::ServerConfig::default()
        })
        .expect("server spawns");
        server.set_shard_delay(shard_delay);
        server
    }

    /// Write a two-`SET` burst and return once the server has staged
    /// it: behind the stall, it is parked from here on.
    fn park_a_burst(server: &crate::ServerHandle, mut socket: &TcpStream) {
        socket.write_all(b"SET a 1\nSET b 2\n").expect("write");
        while server.stats().mutations < 2 {
            std::thread::yield_now();
        }
    }

    /// Most `epoll_wait` returns a parked burst may cost its loop: the
    /// input event, an ack or two per shard, the flush. A loop spinning
    /// on a level-triggered socket would make thousands.
    const PARKED_WAKEUPS: u64 = 16;

    /// Read interest stays registered while a burst is parked: input
    /// that arrives meanwhile is buffered by one event and dispatched
    /// after the parked burst's replies, in order.
    #[test]
    fn second_burst_written_while_the_first_is_parked_waits_its_turn() {
        let server = stalled_one_loop_server(Some(Duration::from_millis(30)));
        let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
        park_a_burst(&server, &socket);
        let before = server.stats().loop_wakeups;
        socket.write_all(b"GET a\nGET b\nPING\n").expect("write");
        let mut replies = [0u8; 20];
        socket.read_exact(&mut replies).expect("five replies");
        assert_eq!(&replies, b"+OK\n+OK\n$1\n$2\n+PONG\n");
        let wakeups = server.stats().loop_wakeups - before;
        assert!(wakeups <= PARKED_WAKEUPS, "{wakeups} epoll_wait returns");
        server.shutdown();
    }

    /// A peer that half-closes while its burst is parked: the EOF is
    /// read once (and read interest dropped, so `EPOLLRDHUP` cannot
    /// spin), the replies still arrive, then the close is clean.
    #[test]
    fn half_close_while_a_burst_is_parked_gets_replies_then_eof() {
        let server = stalled_one_loop_server(Some(Duration::from_millis(30)));
        let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
        park_a_burst(&server, &socket);
        let before = server.stats().loop_wakeups;
        socket
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut replies = String::new();
        socket.read_to_string(&mut replies).expect("clean EOF");
        assert_eq!(replies, "+OK\n+OK\n");
        let wakeups = server.stats().loop_wakeups - before;
        assert!(wakeups <= PARKED_WAKEUPS, "{wakeups} epoll_wait returns");
        server.shutdown();
    }

    /// Over loopback, around a run of writes that parks: every
    /// non-blank line draws exactly one reply in line order — a parse
    /// error in its slot, a blank keepalive none — or, for bad UTF-8
    /// and an over-long line, the session ends after the earlier
    /// replies and one structured error. Each placed before, inside
    /// and after the run.
    #[test]
    fn faults_around_a_parked_run_are_answered_line_for_line() {
        use std::io::{BufRead, BufReader};
        let server = stalled_one_loop_server(Some(Duration::from_millis(2)));
        let over_long = vec![b'x'; MAX_LINE_BYTES + 1];
        // (the line, its reply, whether it ends the session)
        let faults: [(&[u8], Option<String>, bool); 4] = [
            (b"BLORP 1", Some("-ERR unknown verb".into()), false),
            (b" \t", None, false),
            (b"\xff\xfe", Some(format!("-ERR {BAD_UTF8_MSG}")), true),
            (&over_long, Some(format!("-ERR {LINE_TOO_LONG_MSG}")), true),
        ];
        for (fault, reply, fatal) in &faults {
            for at in [0, 1, 3] {
                let mut lines: Vec<&[u8]> = vec![b"SET r0 v", b"SET r1 v", b"SET r2 v", b"PING"];
                lines.insert(at, fault);
                let mut expected: Vec<String> = Vec::new();
                for (i, line) in lines.iter().enumerate() {
                    if i == at {
                        expected.extend(reply.clone());
                        if *fatal {
                            break;
                        }
                    } else if *line == b"PING" {
                        expected.push("+PONG".into());
                    } else {
                        expected.push("+OK".into());
                    }
                }
                if fault.len() > MAX_LINE_BYTES {
                    // Sent unterminated and last: the server hangs up
                    // the moment the line is over-long, and bytes still
                    // on their way then would turn the close into a
                    // reset that can cost the client the error reply.
                    lines.truncate(at + 1);
                }
                let mut input = lines.join(&b'\n');
                if fault.len() <= MAX_LINE_BYTES {
                    input.push(b'\n');
                }
                let socket = TcpStream::connect(server.local_addr()).expect("connect");
                (&socket).write_all(&input).expect("write");
                let mut replies = BufReader::new(&socket).lines();
                for want in &expected {
                    let got = replies.next().expect("open").expect("reply");
                    assert!(got.starts_with(want), "fault at {at}: {got:?} for {want:?}");
                }
                if *fatal {
                    assert!(replies.next().is_none(), "closed after the error");
                }
            }
        }
        server.shutdown();
    }

    /// A line of exactly `MAX_LINE_BYTES` is served over TCP; one byte
    /// more answers the structured error (counted) and closes.
    #[test]
    fn line_at_the_cap_is_served_and_one_past_it_closes() {
        use std::io::{BufRead, BufReader};
        let server = one_loop_server();
        let socket = TcpStream::connect(server.local_addr()).expect("connect");
        let mut replies = BufReader::new(socket.try_clone().expect("clone")).lines();
        let mut next = || replies.next().expect("open").expect("reply");
        let value = "v".repeat(MAX_LINE_BYTES - "SET k ".len());
        (&socket)
            .write_all(format!("SET k {value}\nGET k\n").as_bytes())
            .expect("write");
        assert_eq!(next(), "+OK");
        assert_eq!(next(), format!("${value}"));
        (&socket)
            .write_all(format!("SET k {value}v\n").as_bytes())
            .expect("write");
        assert_eq!(next(), format!("-ERR {LINE_TOO_LONG_MSG}"));
        // Closed: EOF, or a reset when the close outran unread bytes.
        assert!(replies.next().is_none_or(|r| r.is_err()));
        assert_eq!(server.stats().errors, 1);
        server.shutdown();
    }

    /// A read sweep ends on a short read, so the EOF behind a peer's
    /// last line is only seen when epoll re-reports the socket: the
    /// line is answered, then the session closes cleanly.
    #[test]
    fn half_closed_peer_gets_its_reply_then_a_clean_eof() {
        let server = one_loop_server();
        let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
        socket.write_all(b"INCR n 7\n").expect("write");
        socket
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut replies = String::new();
        socket.read_to_string(&mut replies).expect("clean EOF");
        assert_eq!(replies, ":7\n");
        server.shutdown();
    }

    /// A burst of four high-water marks cannot be read in one sweep:
    /// it is answered completely and in order across several.
    #[test]
    fn burst_past_the_high_water_mark_is_answered_in_order() {
        use std::io::{BufRead, BufReader};
        const LINES: usize = 4 * READ_HIGH_WATER / "PING\n".len();
        const INCR_EVERY: usize = 1000;
        let server = one_loop_server();
        let socket = TcpStream::connect(server.local_addr()).expect("connect");
        let reader = BufReader::new(socket.try_clone().expect("clone"));
        // Write from a second thread: the server stops reading while
        // replies are unflushed, so writer and reader must overlap.
        let writer = std::thread::spawn(move || {
            let mut burst = Vec::with_capacity(LINES * 8);
            for i in 0..LINES {
                let line: &[u8] = if i % INCR_EVERY == 0 {
                    b"INCR n 1\n"
                } else {
                    b"PING\n"
                };
                burst.extend_from_slice(line);
            }
            (&socket).write_all(&burst).expect("write burst");
            socket
        });
        let mut count = 0usize;
        for (i, reply) in reader.lines().take(LINES).enumerate() {
            let want = match i % INCR_EVERY {
                0 => format!(":{}", i / INCR_EVERY + 1),
                _ => "+PONG".to_string(),
            };
            assert_eq!(reply.expect("reply"), want, "reply {i}");
            count += 1;
        }
        assert_eq!(count, LINES);
        drop(writer.join().expect("writer"));
        server.shutdown();
    }
}
