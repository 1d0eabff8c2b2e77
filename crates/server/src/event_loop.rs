//! The connection plane: N event-loop threads (default = core count,
//! floored at two) multiplex every connection over raw `epoll`.
//!
//! Each loop owns a set of nonblocking sockets. A readable connection
//! has its buffered burst drained, parsed, and driven through its
//! session's middleware chain; the innermost service *defers* the
//! final ack barrier (see `DeferCell` in `server.rs`): the burst's
//! runs of mutations are published to the shard queues, one envelope
//! per (run, shard), and the loop moves straight on to the next
//! readable connection instead of blocking. Bursts from *different*
//! connections therefore pile into the same shard sweep —
//! **cross-connection group commit**. A shard owner answers each
//! envelope with one ack and wakes the loop through the `eventfd` the
//! envelope carries; the loop files the acks into the burst's
//! `AckTable`, patches the late replies into their positional slots
//! and flushes.
//!
//! Replies are rendered as **per-reply chunks** and written with
//! `write_vectored`, so a burst's responses go out in one syscall
//! without first concatenating into a burst-sized `String`.
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
//! re-reports the rest after the buffered bursts were driven), and a
//! line longer than [`MAX_LINE_BYTES`] closes the connection.

use crate::protocol::{Command, Reply};
use crate::server::{
    build_chain, AckTable, Chain, DeferCell, ExecService, PendingSlot, ACK_TIMEOUT_MSG,
};
use crate::stats::ServerStats;
use crate::store::{Entry, Store};
use dego_middleware::{Request, Session, Stack};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
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
/// Per-read-sweep scratch buffer.
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
/// `call_batch` (burst boundaries are not client-visible — the
/// equivalence suite pins that).
const MAX_BURST_LINES: usize = 512;
/// `IoSlice`s handed to one `write_vectored` call (the kernel caps a
/// vectored write at `UIO_MAXIOV` = 1024 anyway).
const MAX_IOV: usize = 64;
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
/// thread. Shard owners wake the loop after acking a deferred run;
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
    /// New connections from the accept thread (socket, global conn id).
    pub(crate) inbox: Receiver<(TcpStream, u64)>,
    pub(crate) store: Arc<Store>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) stack: Arc<Stack>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) ready: Arc<AtomicBool>,
    /// Overall shard-ack deadline per deferred burst (and per
    /// synchronous barrier inside the chain).
    pub(crate) ack_timeout: Duration,
    /// Close connections idle past this deadline (`--idle-timeout-ms`;
    /// `None` = never).
    pub(crate) idle_timeout: Option<Duration>,
}

/// What one reply slot of a dispatched burst is: already rendered, or
/// waiting on shard acknowledgements the loop collects asynchronously.
enum Emit {
    Ready(String),
    Pending(PendingSlot),
}

/// A burst whose final ack barrier was deferred: the loop completes it
/// when the acks arrive (or poisons the session at the deadline, one
/// overall deadline per burst like the synchronous barriers).
struct Awaiting {
    emits: Vec<Emit>,
    acks: AckTable,
    deadline: Instant,
    /// The dispatch already decided to close after these replies
    /// (QUIT in the burst).
    closing: bool,
}

/// One multiplexed connection's state.
struct Conn {
    socket: TcpStream,
    chain: Chain,
    defer: Rc<DeferCell>,
    ack_rx: Rc<Receiver<Vec<Entry>>>,
    /// Bytes read but not yet parsed (at most one partial line after
    /// a drive pass, unless a burst is in flight).
    rbuf: Vec<u8>,
    /// Rendered replies waiting to flush, one chunk per reply —
    /// `write_vectored` sends them without concatenating.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written (partial-write resume).
    out_off: usize,
    awaiting: Option<Awaiting>,
    /// Events currently registered with epoll.
    interest: u32,
    last_read: Instant,
    eof: bool,
    /// Close once `out` drains and nothing is awaited.
    closing: bool,
    /// Hard I/O failure: tear down immediately.
    dead: bool,
}

/// One event-loop thread: multiplexes its share of the connections
/// until shutdown drains them all.
pub(crate) fn run_loop(ctx: LoopCtx) {
    let LoopCtx {
        epoll,
        waker,
        inbox,
        store,
        stats,
        stack,
        shutdown,
        ready,
        ack_timeout,
        idle_timeout,
    } = ctx;
    epoll
        .add(waker.fd(), WAKER_TOKEN, EPOLLIN)
        .expect("register loop waker");
    let mut el = EventLoop {
        epoll,
        waker,
        inbox,
        store,
        stats,
        stack,
        shutdown,
        ready,
        ack_timeout,
        idle_timeout,
        conns: HashMap::new(),
        awaiting: HashSet::new(),
        draining: false,
        drain_deadline: None,
        last_idle_sweep: Instant::now(),
    };
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    loop {
        el.accept_new();
        if !el.draining && el.shutdown.load(Ordering::Acquire) {
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
        let n = el.epoll.wait(&mut events, el.wait_timeout());
        let mut woke = false;
        let mut fired: Vec<(u64, u32)> = Vec::with_capacity(n);
        for ev in &events[..n] {
            // Copy out of the (possibly packed) kernel struct.
            let token = ev.data;
            let bits = ev.events;
            if token == WAKER_TOKEN {
                woke = true;
            } else {
                fired.push((token, bits));
            }
        }
        if woke {
            el.waker.drain();
            el.accept_new();
        }
        for (token, bits) in fired {
            el.handle_event(token, bits);
        }
        // Deferred bursts: collect acks (the waker fired, or the
        // deadline may have lapsed) for every awaiting connection.
        el.sweep_awaiting();
        el.sweep_idle();
    }
}

struct EventLoop {
    epoll: Epoll,
    waker: Arc<LoopWaker>,
    inbox: Receiver<(TcpStream, u64)>,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stack: Arc<Stack>,
    shutdown: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    ack_timeout: Duration,
    idle_timeout: Option<Duration>,
    conns: HashMap<u64, Conn>,
    /// Tokens with a deferred burst outstanding (kept separately so an
    /// ack wakeup sweeps only the waiters, not every connection).
    awaiting: HashSet<u64>,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_idle_sweep: Instant,
}

impl EventLoop {
    /// Register connections handed off by the accept thread.
    fn accept_new(&mut self) {
        while let Ok((socket, token)) = self.inbox.try_recv() {
            if self.draining || self.shutdown.load(Ordering::Acquire) {
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
        let (ack_tx, ack_rx) = channel::<Vec<Entry>>();
        let ack_rx = Rc::new(ack_rx);
        let defer = Rc::new(DeferCell::new());
        let exec = ExecService::new(
            Arc::clone(&self.store),
            Arc::clone(&self.stats),
            Arc::clone(&self.ready),
            self.ack_timeout,
            (ack_tx, Rc::clone(&ack_rx)),
            Rc::clone(&defer),
            Arc::clone(&self.waker),
        );
        let chain = build_chain(&self.stack, &session, exec);
        let fd = socket.as_raw_fd();
        if self.epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                socket,
                chain,
                defer,
                ack_rx,
                rbuf: Vec::new(),
                out: VecDeque::new(),
                out_off: 0,
                awaiting: None,
                interest: EPOLLIN | EPOLLRDHUP,
                last_read: Instant::now(),
                eof: false,
                closing: false,
                dead: false,
            },
        );
    }

    /// Shutdown observed: stop reading everywhere, flush what is owed,
    /// and let in-flight deferred bursts complete. Buffered input is
    /// never acknowledged.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.ack_timeout);
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
    /// ack deadline while bursts are deferred, bounded by the idle
    /// sweep cadence when an idle timeout is armed.
    fn wait_timeout(&self) -> Duration {
        let mut wait = if self.draining { DRAIN_WAIT } else { IDLE_WAIT };
        let now = Instant::now();
        for token in &self.awaiting {
            if let Some(aw) = self.conns.get(token).and_then(|c| c.awaiting.as_ref()) {
                wait = wait.min(aw.deadline.saturating_duration_since(now));
            }
        }
        if self.idle_timeout.is_some() && !self.draining {
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
        } else {
            if bits & EPOLLOUT != 0 {
                self.drive(&mut conn);
            }
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
        while conn.rbuf.len() < READ_HIGH_WATER {
            match conn.socket.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&buf[..n]);
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
    /// something: acks (deferred burst), backpressure (unflushed
    /// replies), or input (no complete line left). Flushing comes
    /// first, so a caller that just queued replies (a resolved
    /// deferred burst) carries on with the lines still buffered.
    fn drive(&mut self, conn: &mut Conn) {
        loop {
            self.flush(conn);
            if conn.closing || conn.dead || conn.awaiting.is_some() || !conn.out.is_empty() {
                break;
            }
            let (lines, fault) = split_burst(&mut conn.rbuf, conn.eof);
            if lines.is_empty() && fault.is_none() {
                if conn.eof {
                    conn.closing = true;
                }
                break;
            }
            self.dispatch(conn, lines, fault);
        }
    }

    /// Drive one burst through the middleware chain: parse each line
    /// (errors keep their positional slot), dispatch the commands, and
    /// queue the replies — slots whose acks were deferred become
    /// `Emit::Pending` placeholders instead of blocking here. `fault`
    /// is the input error that ended the burst, if any: answered after
    /// the burst's replies, then the session closes.
    fn dispatch(&mut self, conn: &mut Conn, lines: Vec<String>, fault: Option<&'static str>) {
        /// What one request line turned into (parse errors keep their
        /// positional slot).
        enum LineSlot {
            Cmd,
            Err(String),
        }
        let mut requests: Vec<Request> = Vec::new();
        let mut line_slots: Vec<LineSlot> = Vec::new();
        for raw in &lines {
            let text = raw.trim_end_matches('\n');
            // Blank lines are keepalives: no command, no error, no
            // token — skip before any accounting.
            if text.trim().is_empty() {
                continue;
            }
            self.stats.note_command();
            match Command::parse(text) {
                Ok(cmd) => {
                    let quit = matches!(cmd, Command::Quit);
                    requests.push(Request::new(cmd));
                    line_slots.push(LineSlot::Cmd);
                    if quit {
                        // Input after QUIT is discarded; the session is
                        // closing anyway.
                        conn.rbuf.clear();
                        break;
                    }
                }
                Err(e) => line_slots.push(LineSlot::Err(e.0)),
            }
        }
        let responses = match requests.len() {
            0 => Vec::new(),
            // Singletons keep the unamortized path (and its per-command
            // metrics); nothing to group-commit in a burst of one.
            1 => vec![conn.chain.call_one(requests.pop().expect("one request"))],
            // The innermost service skips its final barrier and parks
            // unresolved slots in the cell instead.
            _ => conn.chain.call_batch(requests),
        };
        let (pending, acks) = conn.defer.take_output();
        let mut pending = pending.into_iter();
        let mut responses = responses.into_iter();
        let mut emits: Vec<Emit> = Vec::with_capacity(line_slots.len());
        let mut closing = false;
        for slot in line_slots {
            let (reply, close) = match slot {
                LineSlot::Cmd => {
                    let resp = responses.next().expect("one response per command");
                    (resp.reply, resp.close)
                }
                LineSlot::Err(e) => (Reply::Error(e), false),
            };
            if crate::server::is_pending_marker(&reply) {
                emits.push(Emit::Pending(
                    pending.next().expect("a deferred slot per marker"),
                ));
            } else {
                if matches!(reply, Reply::Error(_)) {
                    self.stats.note_error();
                }
                let mut rendered = String::new();
                reply.render(&mut rendered);
                emits.push(Emit::Ready(rendered));
            }
            if close {
                closing = true;
                break;
            }
        }
        if let Some(msg) = fault.filter(|_| !closing) {
            // Positioned after the burst's replies: the input fault
            // gets its structured error, and the byte stream is
            // unrecoverable — drop what is buffered and hang up.
            self.stats.note_error();
            let mut rendered = String::new();
            Reply::Error(msg.into()).render(&mut rendered);
            emits.push(Emit::Ready(rendered));
            conn.rbuf.clear();
            closing = true;
        }
        if emits.iter().any(|e| matches!(e, Emit::Pending(_))) {
            conn.awaiting = Some(Awaiting {
                emits,
                acks,
                deadline: Instant::now() + self.ack_timeout,
                closing,
            });
        } else {
            for emit in emits {
                if let Emit::Ready(rendered) = emit {
                    push_out(conn, rendered);
                }
            }
            conn.closing |= closing;
        }
    }

    /// Collect any acks that arrived for `conn`'s deferred burst; when
    /// the burst is complete (or its deadline lapsed), render the late
    /// replies into their slots. Returns whether the wait is over.
    fn try_complete(&mut self, conn: &mut Conn) -> bool {
        let Some(aw) = conn.awaiting.as_mut() else {
            return true;
        };
        while let Ok(acked) = conn.ack_rx.try_recv() {
            aw.acks.accept(acked);
        }
        // Every sequence number the burst issued belongs to one of its
        // slots, so a full table is a complete burst.
        let satisfied = aw.acks.complete();
        let timed_out = !satisfied && Instant::now() >= aw.deadline;
        if !satisfied && !timed_out {
            return false;
        }
        let aw = conn.awaiting.take().expect("awaiting checked above");
        self.resolve(conn, aw, timed_out);
        true
    }

    /// Render a completed (or deadline-poisoned) deferred burst into
    /// the out queue. On timeout the missing slots answer the same
    /// `ACK_TIMEOUT_MSG` a synchronous barrier produces, and the
    /// session closes — a late ack could otherwise desync every later
    /// request/reply pairing.
    fn resolve(&mut self, conn: &mut Conn, aw: Awaiting, timed_out: bool) {
        let Awaiting {
            emits,
            mut acks,
            closing,
            ..
        } = aw;
        for emit in emits {
            let rendered = match emit {
                Emit::Ready(rendered) => rendered,
                Emit::Pending(slot) => {
                    let reply = acks.resolve(slot, ACK_TIMEOUT_MSG);
                    if matches!(reply, Reply::Error(_)) {
                        self.stats.note_error();
                    }
                    let mut rendered = String::new();
                    reply.render(&mut rendered);
                    rendered
                }
            };
            push_out(conn, rendered);
        }
        conn.closing |= closing || timed_out || self.draining;
    }

    /// Check every connection with a deferred burst outstanding.
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
        let Some(limit) = self.idle_timeout else {
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
                self.stats.note_idle_closed();
                self.teardown(conn);
            }
        }
    }

    /// Flush the out queue with vectored writes: one syscall covers up
    /// to [`MAX_IOV`] reply chunks, resuming mid-chunk after a partial
    /// write.
    fn flush(&mut self, conn: &mut Conn) {
        while !conn.out.is_empty() && !conn.dead {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.out.len().min(MAX_IOV));
            for (i, chunk) in conn.out.iter().take(MAX_IOV).enumerate() {
                let from = if i == 0 { conn.out_off } else { 0 };
                slices.push(IoSlice::new(&chunk[from..]));
            }
            match (&conn.socket).write_vectored(&slices) {
                Ok(0) => {
                    conn.dead = true;
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front = conn.out.front().expect("bytes written from a chunk");
                        let left = front.len() - conn.out_off;
                        if n >= left {
                            conn.out.pop_front();
                            conn.out_off = 0;
                            n -= left;
                        } else {
                            conn.out_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                }
            }
        }
    }

    /// Post-work bookkeeping for a connection pulled out of the map:
    /// tear it down if finished, otherwise reconcile its epoll
    /// interest and put it back.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if conn.dead || (conn.closing && conn.out.is_empty() && conn.awaiting.is_none()) {
            self.awaiting.remove(&token);
            self.teardown(conn);
            return;
        }
        let mut want = 0u32;
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        // Reading stops while a burst awaits acks or backpressure is
        // owed (level-triggered epoll would spin otherwise, and new
        // bursts must not start ahead of this one's replies).
        if conn.awaiting.is_none()
            && conn.out.is_empty()
            && !conn.eof
            && !conn.closing
            && !self.draining
        {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest {
            if self
                .epoll
                .modify(conn.socket.as_raw_fd(), token, want)
                .is_err()
            {
                self.awaiting.remove(&token);
                self.teardown(conn);
                return;
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
        self.epoll.del(conn.socket.as_raw_fd());
        drop(conn);
    }
}

fn push_out(conn: &mut Conn, rendered: String) {
    if !rendered.is_empty() {
        conn.out.push_back(rendered.into_bytes());
    }
}

/// Extract the next burst from `rbuf`: up to [`MAX_BURST_LINES`]
/// complete lines (plus, at EOF, the final unterminated line). A line
/// that is not valid UTF-8, or longer than [`MAX_LINE_BYTES`] (whether
/// or not its newline has arrived yet), ends the burst with that
/// fault's message; everything consumed is removed from the buffer,
/// and the caller discards the rest by closing.
fn split_burst(rbuf: &mut Vec<u8>, eof: bool) -> (Vec<String>, Option<&'static str>) {
    let mut consumed = 0usize;
    let mut lines = Vec::new();
    let mut fault = None;
    while lines.len() < MAX_BURST_LINES {
        let rest = &rbuf[consumed..];
        if rest.is_empty() {
            break;
        }
        let newline = rest.iter().position(|b| *b == b'\n');
        if newline.unwrap_or(rest.len()) > MAX_LINE_BYTES {
            fault = Some(LINE_TOO_LONG_MSG);
            break;
        }
        let take = match newline {
            Some(nl) => nl + 1,
            None if eof => rest.len(),
            None => break,
        };
        consumed += take;
        match std::str::from_utf8(&rest[..take]) {
            Ok(line) => lines.push(line.to_string()),
            Err(_) => {
                fault = Some(BAD_UTF8_MSG);
                break;
            }
        }
    }
    rbuf.drain(..consumed);
    (lines, fault)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn split_burst_takes_complete_lines_only() {
        let mut buf = b"GET a\nSET b 1\npartial".to_vec();
        let (lines, fault) = split_burst(&mut buf, false);
        assert_eq!(lines, vec!["GET a\n".to_string(), "SET b 1\n".to_string()]);
        assert_eq!(fault, None);
        assert_eq!(buf, b"partial");
    }

    #[test]
    fn split_burst_serves_unterminated_line_at_eof() {
        let mut buf = b"PING".to_vec();
        let (lines, fault) = split_burst(&mut buf, true);
        assert_eq!(lines, vec!["PING".to_string()]);
        assert_eq!(fault, None);
        assert!(buf.is_empty());
    }

    #[test]
    fn split_burst_flags_non_utf8_and_keeps_prior_lines() {
        let mut buf = b"PING\n\xff\xfe garbage\nPING\n".to_vec();
        let (lines, fault) = split_burst(&mut buf, false);
        assert_eq!(lines, vec!["PING\n".to_string()]);
        assert_eq!(fault, Some(BAD_UTF8_MSG));
        // The poisoned line is consumed; the tail stays (discarded by
        // the caller when it hangs up).
        assert_eq!(buf, b"PING\n");
    }

    #[test]
    fn split_burst_respects_burst_cap() {
        let mut buf = Vec::new();
        for _ in 0..(MAX_BURST_LINES + 10) {
            buf.extend_from_slice(b"PING\n");
        }
        let (lines, fault) = split_burst(&mut buf, false);
        assert_eq!(lines.len(), MAX_BURST_LINES);
        assert_eq!(fault, None);
        assert_eq!(buf.len(), 10 * 5);
    }

    #[test]
    fn split_burst_faults_an_over_long_line_after_prior_lines() {
        // Still growing, no newline yet: already past the cap.
        let mut buf = b"PING\n".to_vec();
        buf.resize(buf.len() + MAX_LINE_BYTES + 1, b'x');
        let (lines, fault) = split_burst(&mut buf, false);
        assert_eq!(lines, vec!["PING\n".to_string()]);
        assert_eq!(fault, Some(LINE_TOO_LONG_MSG));
        // Terminated but over the cap faults the same way; at the cap
        // it is an ordinary line.
        let mut buf = vec![b'x'; MAX_LINE_BYTES + 1];
        buf.push(b'\n');
        assert_eq!(split_burst(&mut buf, false).1, Some(LINE_TOO_LONG_MSG));
        let mut buf = vec![b'x'; MAX_LINE_BYTES];
        buf.push(b'\n');
        let (lines, fault) = split_burst(&mut buf, false);
        assert_eq!((lines.len(), fault), (1, None));
    }

    fn one_loop_server() -> crate::ServerHandle {
        crate::spawn(crate::ServerConfig {
            shards: 2,
            capacity: 256,
            event_loops: 1,
            ..crate::ServerConfig::default()
        })
        .expect("server spawns")
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
