//! Integration of the event-loop connection plane, over real loopback
//! TCP:
//!
//! * **idle timeout**: `idle_timeout` reaps connections that stay
//!   quiet past the deadline (counted in `idle_closed`) while active
//!   connections on the same loop keep serving;
//! * **bounded input**: a newline-free flood is cut off with a
//!   structured error instead of growing server memory, and its loop
//!   keeps serving everyone else;
//! * **drain**: a shutdown with a burst parked flips readiness first,
//!   then acks every parked write before it closes the session — the
//!   writes a burst stages after a barrier included;
//! * **cross-connection group commit**: concurrent bursts share shard
//!   sweeps;
//! * **no head-of-line blocking**: every burst parks — a span-sampled
//!   one, one at a read-after-write barrier, a lone write, with a key
//!   timer armed or not — so the other connections on its loop are
//!   served meanwhile.
//!
//! (Reply-byte equivalence of pipelined and sequential execution lives
//! in `integration_batch.rs`.)

use dego_server::{spawn, Client, MiddlewareConfig, ServerConfig};
use std::time::{Duration, Instant};

mod common;
use common::{assert_unanswered, http_get, shards, wait_until};

/// `--idle-timeout-ms`: a connection quiet past the deadline with
/// nothing in flight is reaped (and counted), while a chatty
/// connection sharing the plane keeps serving.
#[test]
fn idle_timeout_reaps_quiet_connections() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .expect("server boots");

    let mut idle = Client::connect(server.local_addr()).expect("connect");
    let mut active = Client::connect(server.local_addr()).expect("connect");
    idle.ping().expect("idle client serves before going quiet");
    active.ping().expect("active client serves");

    // Stay quiet well past the deadline; the active client keeps the
    // clock honest by talking the whole time.
    let parked = Instant::now();
    while parked.elapsed() < Duration::from_millis(400) {
        active
            .ping()
            .expect("active connection must survive the sweep");
        std::thread::sleep(Duration::from_millis(20));
    }

    assert!(
        idle.ping().is_err(),
        "the idle connection must have been closed by the sweep"
    );
    assert!(
        server.stats().idle_closed >= 1,
        "the reap must be counted in idle_closed"
    );
    // Reconnecting after a reap works — the slot is gone, not poisoned.
    let mut again = Client::connect(server.local_addr()).expect("reconnect");
    again.ping().expect("fresh connection serves");
    server.shutdown();
}

/// A peer that never sends a newline cannot grow server memory or
/// starve its loop: a 1 MiB newline-free stream is cut off with
/// `-ERR line too long` and a close, while a second connection on the
/// same (only) event loop keeps getting `PONG` throughout.
#[test]
fn newline_free_flood_is_cut_off_while_the_loop_keeps_serving() {
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        event_loops: 1,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut bystander = Client::connect(server.local_addr()).expect("connect");
    bystander.ping().expect("serves before the flood");

    let flood = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(flood.try_clone().expect("clone"));
    let writer = std::thread::spawn(move || {
        // The server hangs up mid-stream, so late writes may fail.
        let _ = (&flood).write_all(&vec![b'x'; 1 << 20]);
        flood
    });
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert_eq!(line.trim_end(), "-ERR line too long");
    bystander.ping().expect("the loop serves others mid-flood");
    // Then the connection is closed. Bytes the server never read turn
    // its close into a reset, so either ending counts.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing after the error"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset),
    }
    drop(writer.join().expect("writer"));
    bystander.ping().expect("and after it");
    assert_eq!(server.stats().errors, 1, "counted as an error");
    server.shutdown();
}

/// Idle timeout off (the default): a quiet connection lives
/// indefinitely.
#[test]
fn no_idle_timeout_means_no_reaping() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.ping().expect("serves");
    std::thread::sleep(Duration::from_millis(300));
    c.ping().expect("still serving after a long quiet spell");
    assert_eq!(server.stats().idle_closed, 0);
    server.shutdown();
}

/// Drain with a burst parked. A pipelined burst of writes parks behind
/// a shard stall; a bystander's burst parks at a read-after-write
/// barrier behind it, a `READY` as its tail. `shutdown()` runs on a
/// second thread: readiness flips while neither has been answered (the
/// queues are still flushing), then the barrier's tail reads
/// `-ERR NOTREADY`, every parked write is acked `+OK`, and both
/// sessions are closed. Ordered by what the server exports — staged
/// mutations, `/ready` — not by the clock. (The binary's `SIGTERM` half
/// of this drill is `crates/server/tests/binary.rs`.)
#[test]
fn event_loop_drain_under_load_keeps_acked_writes() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    const BURST: usize = 32;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        middleware: MiddlewareConfig::full(),
        event_loops: 2,
        metrics_addr: Some("127.0.0.1:0".parse().expect("literal")),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let metrics = server.metrics_addr().expect("configured");
    server.set_shard_delay(Some(Duration::from_millis(20)));
    let staged = |n: usize| {
        wait_until("the burst to be staged", || {
            server.stats().mutations == n as u64
        })
    };

    let mut parked = TcpStream::connect(server.local_addr()).expect("connect");
    let burst: String = (0..BURST).map(|i| format!("SET evdrain{i} v\n")).collect();
    parked.write_all(burst.as_bytes()).expect("one write");
    staged(BURST);
    let mut bystander = TcpStream::connect(server.local_addr()).expect("connect");
    bystander
        .write_all(b"SET seen v\nGET seen\nREADY\n")
        .expect("one write");
    staged(BURST + 1);

    assert!(server.ready(), "serving before the drain");
    let drain = std::thread::spawn(move || server.shutdown());
    wait_until("/ready to answer 503", || {
        http_get(metrics, "/ready").starts_with("HTTP/1.0 503")
    });
    assert_unanswered(&parked, "the parked burst");
    assert_unanswered(&bystander, "the bystander's barrier");

    let mut replies = String::new();
    bystander
        .read_to_string(&mut replies)
        .expect("to the close");
    assert_eq!(replies, "+OK\n$v\n-ERR NOTREADY draining\n");
    replies.clear();
    parked.read_to_string(&mut replies).expect("to the close");
    assert_eq!(replies, "+OK\n".repeat(BURST), "every parked write acked");
    drain.join().expect("drain thread");
}

/// Cross-connection group commit: several connections flooding
/// pipelined writes at a slow shard plane (1 ms per apply, so the
/// queues actually build) produce far fewer shard batches than
/// mutations — bursts from different connections coalesce into shared
/// shard sweeps (and all of it stays correct: every ack reads back).
#[test]
fn concurrent_bursts_share_shard_sweeps() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 4096,
        shard_delay: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    const WRITERS: usize = 4;
    const BURSTS: usize = 5;
    const BURST: usize = 32;

    let workers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for b in 0..BURSTS {
                    let lines: Vec<String> =
                        (0..BURST).map(|i| format!("SET w{w}b{b}i{i} v")).collect();
                    for reply in c.pipeline(&lines).expect("burst") {
                        assert!(
                            matches!(reply, dego_server::ClientReply::Status(_)),
                            "got {reply:?}"
                        );
                    }
                }
                c.get(&format!("w{w}b0i0", w = w)).expect("read back")
            })
        })
        .collect();
    for worker in workers {
        assert_eq!(
            worker.join().expect("writer").as_deref(),
            Some("v"),
            "acked writes read back"
        );
    }

    let snap = server.stats();
    let writes = (WRITERS * BURSTS * BURST) as u64;
    assert_eq!(snap.applied, writes, "every write applied exactly once");
    assert!(
        snap.shard_batches < writes / 4,
        "group commit must amortize: {} batches for {} writes",
        snap.shard_batches,
        writes
    );
    server.shutdown();
}

/// Every burst span-sampled, a long shard stall, two loops: connection
/// 0's burst parks, and connection 2 — same loop — gets its `+PONG`
/// while connection 0 still has nothing to read. Ordered by events,
/// not by a threshold. The sampled burst still carries its trace
/// context through completion: one store segment per mutation, and a
/// total that covers the stall.
#[test]
fn sampled_burst_does_not_block_its_loop() {
    use std::io::{Read, Write};
    const STALL: Duration = Duration::from_millis(100);
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        middleware,
        event_loops: 2,
        shard_delay: Some(STALL),
        ..ServerConfig::default()
    })
    .expect("server boots");
    // The k-th connection is served by loop k mod 2.
    let mut first = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let _other_loop = Client::connect(server.local_addr()).expect("connect");
    let mut neighbour = Client::connect(server.local_addr()).expect("connect");

    first
        .write_all(b"SET h0 v\nSET h1 v\nSET h2 v\nSET h3 v\n")
        .expect("write burst");
    neighbour.ping().expect("served while the burst is parked");
    assert_unanswered(&first, "the burst (before the PING)");
    let mut replies = [0u8; 16];
    first.read_exact(&mut replies).expect("four replies");
    assert_eq!(&replies, b"+OK\n+OK\n+OK\n+OK\n");

    let entries = neighbour.trace_get().expect("trace get");
    let tree = entries
        .iter()
        .find(|line| line.contains("burst=4 "))
        .unwrap_or_else(|| panic!("no burst tree in {entries:?}"));
    assert_eq!(tree.matches("/apply:").count(), 4, "got {tree:?}");
    let total_us: u128 = tree
        .split_whitespace()
        .find_map(|f| f.strip_prefix("total_us="))
        .expect("total_us field")
        .parse()
        .expect("numeric total");
    assert!(total_us >= STALL.as_micros(), "covers the stall: {tree:?}");
    server.shutdown();
}

/// No loop waits: one event loop, a 200 ms shard stall. B's burst
/// parks at its read-after-write barrier and A's lone write parks too,
/// so bystander C on the same loop gets its `+PONG` before either has
/// a byte to read — then both are answered in full. Ordered by staged
/// mutations, not by the clock.
#[test]
fn no_loop_waits_for_a_barrier_or_a_lone_write() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        event_loops: 1,
        shard_delay: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let staged = |n: u64| {
        wait_until("the write to be staged", || server.stats().mutations >= n);
    };
    let mut barrier = TcpStream::connect(server.local_addr()).expect("connect");
    barrier.write_all(b"SET k v\nGET k\n").expect("one write");
    staged(1);
    let mut lone = TcpStream::connect(server.local_addr()).expect("connect");
    lone.write_all(b"SET a 1\n").expect("one write");
    staged(2);

    let mut bystander = Client::connect(server.local_addr()).expect("connect");
    bystander
        .ping()
        .expect("served while both bursts are parked");
    assert_unanswered(&barrier, "the barrier burst");
    assert_unanswered(&lone, "the lone write");
    let mut replies = [0u8; 7];
    barrier.read_exact(&mut replies).expect("two replies");
    assert_eq!(&replies, b"+OK\n$v\n");
    let mut reply = [0u8; 4];
    lone.read_exact(&mut reply).expect("one reply");
    assert_eq!(&reply, b"+OK\n");
    server.shutdown();
}

/// An armed timer blocks no loop: with a timer armed on some key, a
/// lone write through the full stack (TTL layer included) still parks,
/// so bystander C on the same loop gets its `+PONG` while the write
/// waits out a 200 ms shard stall. Ordered by staged mutations, not by
/// the clock.
#[test]
fn an_armed_timer_blocks_no_loop() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        event_loops: 1,
        middleware: MiddlewareConfig::full(),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut timer = Client::connect(server.local_addr()).expect("connect");
    timer.set("t", "1").expect("set");
    assert!(timer.expire("t", 3_600_000).expect("arm"), "timer armed");
    server.set_shard_delay(Some(Duration::from_millis(200)));

    let before = server.stats().mutations;
    let mut lone = TcpStream::connect(server.local_addr()).expect("connect");
    lone.write_all(b"SET a 1\n").expect("one write");
    wait_until("the write to be staged", || {
        server.stats().mutations > before
    });
    let mut bystander = Client::connect(server.local_addr()).expect("connect");
    bystander
        .ping()
        .expect("served while the lone write is parked");
    assert_unanswered(&lone, "the lone write");
    let mut reply = [0u8; 4];
    lone.read_exact(&mut reply).expect("one reply");
    assert_eq!(&reply, b"+OK\n");
    server.shutdown();
}

/// A drain keeps the writes a burst stages after its barrier: the
/// burst's second run is published once the first is acked, after the
/// drain has begun, and the shard owners stay up to ack it — the
/// session ends with every reply, long before the ack deadline.
#[test]
fn drain_acks_the_writes_behind_a_barrier() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    const ACK_TIMEOUT: Duration = Duration::from_secs(2);
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        ack_timeout: ACK_TIMEOUT,
        shard_delay: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket
        .write_all(b"SET k 1\nGET k\nSET k 2\n")
        .expect("one write");
    wait_until("the first run to be staged", || {
        server.stats().mutations >= 1
    });
    let began = Instant::now();
    server.shutdown();
    let mut replies = String::new();
    socket.read_to_string(&mut replies).expect("to the close");
    assert_eq!(replies, "+OK\n$1\n+OK\n");
    assert!(began.elapsed() < ACK_TIMEOUT, "{:?}", began.elapsed());
}
