//! Chaos integration of the overload-protection suite: shard stalls,
//! deadline bursts, and graceful drain against a real sharded server
//! over loopback TCP.
//!
//! Asserted end to end:
//!
//! * a stalled shard plane sheds new writes with structured `SHED`
//!   errors instead of hanging the client, and admission recovers once
//!   the stall clears;
//! * every write acknowledged `+OK` under shedding reads back — shed
//!   rejections never eat an acked write;
//! * a burst of `DEADLINE` failures trips the write-class circuit
//!   breaker (`BREAKER` rejections answer instantly), reads keep
//!   flowing, and the class recovers through a half-open probe after
//!   the cooldown;
//! * the same holds for *pipelined* clients, whose bursts park in the
//!   chain: they draw `DEADLINE`, count toward the trip, cannot keep a
//!   breaker closed (or close a half-open one) against a stalled shard,
//!   and a probe whose connection dies while parked is still observed;
//! * `HEALTH`/`READY` are admitted even with the token bucket drained,
//!   and readiness flips are visible to connected clients;
//! * a drain under live write load completes promptly and every
//!   acknowledged write remains readable until the connection closes.

use dego_server::{spawn, Client, ClientReply, MiddlewareConfig, ServerConfig, ServerHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{error_of, shards, wait_until};

fn connect(server: &ServerHandle) -> Client {
    Client::connect(server.local_addr()).expect("connect")
}

fn stat(c: &mut Client, name: &str) -> u64 {
    c.stats_map()
        .expect("stats")
        .get(name)
        .unwrap_or_else(|| panic!("stat {name} missing"))
        .parse()
        .expect("numeric stat")
}

/// Stall every shard owner, pile up a backlog from one client, and
/// watch a second client's writes get shed — quickly, with structured
/// errors — then recover once the stall clears.
#[test]
fn shard_stall_sheds_writes_instead_of_hanging() {
    let mut middleware = MiddlewareConfig::full();
    middleware.shed.queue_depth = 4;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 4096,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(Duration::from_millis(10)));

    // Client A: one pipelined burst big enough that, at 10 ms per
    // apply, the shard queues stay above the threshold for hundreds of
    // milliseconds. Its admission sweep runs against empty queues, so
    // the burst itself is (mostly) admitted.
    let mut backlog = connect(&server);
    for i in 0..64 {
        backlog.send(&format!("SET sta{i} v")).expect("send");
    }
    backlog.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(100));

    // Client B arrives mid-backlog: its writes must be answered
    // promptly with SHED rejections, not queued behind the stall.
    let mut latecomer = connect(&server);
    for i in 0..16 {
        latecomer.send(&format!("SET stb{i} v")).expect("send");
    }
    // An EXPIRE is a write on its key's shard: shed like the SETs.
    latecomer.send("EXPIRE sta0 60000").expect("send");
    latecomer.flush().expect("flush");
    let mut shed = 0usize;
    for _ in 0..16 {
        match latecomer.read_reply().expect("reply") {
            ClientReply::Error(e) => {
                assert!(e.starts_with("SHED "), "structured shed error, got {e:?}");
                assert!(
                    e.contains("shard="),
                    "shed detail names the shard, got {e:?}"
                );
                shed += 1;
            }
            ClientReply::Status(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(shed > 0, "a backlogged shard plane must shed new writes");
    let expire = error_of(latecomer.read_reply().expect("reply"));
    assert!(expire.starts_with("SHED shard="), "got {expire:?}");

    // Clear the stall and collect client A's replies: every write the
    // server acknowledged must read back — shedding never eats an ack.
    server.set_shard_delay(None);
    let mut acked = Vec::new();
    for i in 0..64 {
        match backlog.read_reply().expect("reply") {
            ClientReply::Status(_) => acked.push(i),
            ClientReply::Error(e) => {
                assert!(e.starts_with("SHED "), "got {e:?}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(!acked.is_empty(), "the first burst must land some writes");
    for i in acked {
        assert_eq!(
            backlog.get(&format!("sta{i}")).expect("get").as_deref(),
            Some("v"),
            "acked write sta{i} must be applied"
        );
    }

    // With the backlog drained, admission recovers.
    let recovered = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        matches!(
            latecomer.request("SET recover v").expect("reply"),
            ClientReply::Status(_)
        )
    });
    assert!(recovered, "shedding must stop once the pressure clears");

    let mut observer = connect(&server);
    assert!(stat(&mut observer, "mw_shed_checked") > 0);
    assert!(stat(&mut observer, "mw_shed_shed") > 0);
    server.shutdown();
}

/// Consecutive deadline overruns trip the write-class breaker; the
/// open class rejects instantly while reads keep flowing; after the
/// cooldown a half-open probe closes it again.
#[test]
fn deadline_burst_trips_breaker_then_recovers() {
    let mut middleware = MiddlewareConfig::full();
    middleware.breaker.failures = 2;
    middleware.breaker.cooldown_ms = 200;
    middleware.breaker.probes = 1;
    // Writes get a 1 ms budget the 20 ms stall always blows; reads stay
    // generous so their class never trips.
    middleware.deadline.write_us = 1_000;
    middleware.deadline.read_us = 30_000_000;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(Duration::from_millis(20)));

    let mut c = connect(&server);
    for key in ["bk1", "bk2"] {
        match c.request(&format!("SET {key} v")).expect("reply") {
            ClientReply::Error(e) => {
                assert!(e.starts_with("DEADLINE "), "budget overrun, got {e:?}")
            }
            other => panic!("stalled write must miss its deadline, got {other:?}"),
        }
    }
    // Two consecutive failures: the write class is now open and
    // rejects before touching the shard plane.
    let rejected_at = Instant::now();
    match c.request("SET bk3 v").expect("reply") {
        ClientReply::Error(e) => {
            assert!(e.starts_with("BREAKER "), "breaker rejection, got {e:?}");
            assert!(e.contains("write"), "names the tripped class, got {e:?}");
            assert!(e.contains("retry_us="), "retry hint, got {e:?}");
        }
        other => panic!("open breaker must reject, got {other:?}"),
    }
    assert!(
        rejected_at.elapsed() < Duration::from_millis(15),
        "an open breaker answers without queueing behind the stall"
    );
    // The read class is independent: deadline-blown writes were still
    // applied, and reads never tripped.
    assert_eq!(c.get("bk1").expect("get").as_deref(), Some("v"));

    // Clear the fault, wait out the cooldown, and let the half-open
    // probe close the class.
    server.set_shard_delay(None);
    std::thread::sleep(Duration::from_millis(300));
    c.set("bk4", "v").expect("half-open probe succeeds");
    c.set("bk5", "v").expect("closed class admits");

    let stats = c.stats_map().expect("stats");
    let lookup = |name: &str| -> u64 {
        stats
            .get(name)
            .unwrap_or_else(|| panic!("stat {name} missing"))
            .parse()
            .expect("numeric stat")
    };
    assert!(lookup("mw_breaker_rejected") >= 1, "open state rejected");
    assert!(lookup("mw_breaker_trips") >= 1, "trip was counted");
    assert!(lookup("mw_breaker_recoveries") >= 1, "recovery was counted");
    assert_eq!(lookup("mw_breaker_write_state"), 0, "class closed again");
    server.shutdown();
}

/// A server whose writes carry a 1 ms budget that `stall` always
/// blows; reads stay generous so their class never trips.
fn stalled_server(failures: u32, cooldown_ms: u64, stall: Duration) -> ServerHandle {
    let mut middleware = MiddlewareConfig::full();
    middleware.breaker.failures = failures;
    middleware.breaker.cooldown_ms = cooldown_ms;
    middleware.breaker.probes = 1;
    middleware.deadline.write_us = 1_000;
    middleware.deadline.read_us = 30_000_000;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(stall));
    server
}

/// A client past its connection's first, always span-sampled command
/// (before bursts could park, sampled ones were the only pipelined
/// traffic the layers saw honestly).
fn primed(server: &ServerHandle) -> Client {
    let mut c = connect(server);
    c.ping().expect("ping");
    c
}

fn sets(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("SET {prefix}{i} v")).collect()
}

/// The pipelined twin of `deadline_burst_trips_breaker_then_recovers`:
/// bursts park in the chain, so the deadline times their real wait and
/// the breaker counts their real outcome.
#[test]
fn pipelined_deadline_bursts_trip_the_breaker() {
    let server = stalled_server(2, 60_000, Duration::from_millis(20));
    // Two bursts, each one write, both begun (on their own loops)
    // while the class is still closed: both park behind the stall.
    let (mut a, mut b) = (primed(&server), primed(&server));
    for (client, prefix) in [(&mut a, "pa"), (&mut b, "pb")] {
        for line in sets(prefix, 4) {
            client.send(&line).expect("send");
        }
        client.flush().expect("flush");
    }
    for client in [&mut a, &mut b] {
        for _ in 0..4 {
            let e = error_of(client.read_reply().expect("reply"));
            assert!(e.starts_with("DEADLINE batch took "), "got {e:?}");
        }
    }
    // The class is open: the next burst is rejected without touching
    // the shard plane.
    let mutations = server.stats().mutations;
    for reply in a.pipeline(sets("pc", 4)).expect("burst") {
        let e = error_of(reply);
        assert!(e.starts_with("BREAKER write open retry_us="), "got {e:?}");
    }
    assert_eq!(server.stats().mutations, mutations, "nothing was staged");
    // Deadline-blown writes were still applied; reads never tripped.
    for key in ["pa0", "pa3", "pb0", "pb3"] {
        assert_eq!(a.get(key).expect("get").as_deref(), Some("v"));
    }
    assert_eq!(stat(&mut a, "mw_deadline_missed"), 8);
    assert!(stat(&mut a, "mw_breaker_trips") >= 1);
    assert_eq!(stat(&mut a, "mw_breaker_write_state"), 1, "open");
    server.shutdown();
}

/// A pipelined bystander sharing the breaker with a lock-step client
/// must not disarm it: its parked bursts are failures too, not
/// streak-resetting placeholders.
#[test]
fn pipelined_bystander_does_not_keep_the_breaker_closed() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let server = stalled_server(3, 60_000, Duration::from_millis(10));
    let stop = Arc::new(AtomicBool::new(false));
    let bystander = {
        let (addr, stop) = (server.local_addr(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().expect("ping");
            while !stop.load(Ordering::Acquire) {
                for reply in c.pipeline(sets("by", 2)).expect("burst") {
                    let e = error_of(reply);
                    assert!(e.starts_with("DEADLINE ") || e.starts_with("BREAKER "));
                }
            }
        })
    };
    let mut c = connect(&server);
    let tripped = (0..12).any(|i| {
        let e = error_of(c.request(&format!("SET ls{i} v")).expect("reply"));
        assert!(e.starts_with("DEADLINE ") || e.starts_with("BREAKER "));
        e.starts_with("BREAKER write open")
    });
    stop.store(true, Ordering::Release);
    bystander.join().expect("bystander");
    assert!(tripped, "three consecutive overruns must open the class");
    server.shutdown();
}

/// A pipelined probe against a still-stalled shard re-opens the class
/// (its real outcome is an overrun); once the stall clears, the next
/// pipelined probe closes it.
#[test]
fn pipelined_probe_reopens_a_class_whose_shard_still_stalls() {
    let server = stalled_server(2, 100, Duration::from_millis(20));
    let mut c = primed(&server);
    for reply in c.pipeline(sets("ho", 4)).expect("burst") {
        assert!(error_of(reply).starts_with("DEADLINE batch "));
    }
    assert_eq!(stat(&mut c, "mw_breaker_trips"), 1);
    std::thread::sleep(Duration::from_millis(150)); // the cooldown
    let replies = c.pipeline(sets("hp", 2)).expect("probe burst");
    let [probe, rest] = <[ClientReply; 2]>::try_from(replies).expect("two replies");
    // The breaker admits the one probe, so the deadline layer below it
    // times a burst of one and names its verb.
    assert!(
        error_of(probe).starts_with("DEADLINE SET took "),
        "the probe"
    );
    assert!(error_of(rest).contains("half-open probe quota exhausted"));
    assert_eq!(stat(&mut c, "mw_breaker_trips"), 2, "the probe re-opened");
    assert_eq!(stat(&mut c, "mw_breaker_recoveries"), 0);
    assert_eq!(stat(&mut c, "mw_breaker_write_state"), 1, "open again");

    // (Retried: on a loaded box even an unstalled probe can miss 1 ms.)
    server.set_shard_delay(None);
    let closed = (0..20).any(|_| {
        std::thread::sleep(Duration::from_millis(150));
        let replies = c.pipeline(sets("hq", 2)).expect("probe burst");
        replies[0] == ClientReply::Status("OK".into())
    });
    assert!(closed, "an unstalled pipelined probe closes the class");
    assert_eq!(stat(&mut c, "mw_breaker_recoveries"), 1);
    assert_eq!(stat(&mut c, "mw_breaker_write_state"), 0, "closed");
    server.shutdown();
}

/// A half-open probe admitted on a connection that is reset while the
/// probe is parked must still be observed, or its slot is never given
/// back and the class wedges at "probe quota exhausted".
#[test]
fn reset_while_a_probe_is_parked_does_not_wedge_the_class() {
    use std::io::Write;
    let server = stalled_server(2, 100, Duration::from_millis(100));
    let mut c = primed(&server);
    for reply in c.pipeline(sets("rs", 2)).expect("burst") {
        assert!(error_of(reply).starts_with("DEADLINE batch "));
    }
    std::thread::sleep(Duration::from_millis(150)); // the cooldown
    let probes = stat(&mut c, "mw_breaker_probes");
    {
        // Closing a socket with unread input (the +PONG) resets it.
        let mut doomed = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        doomed.write_all(b"PING\n").expect("write");
        assert_eq!(doomed.peek(&mut [0u8; 1]).expect("peek"), 1, "+PONG waits");
        doomed
            .write_all(b"SET rp0 v\nSET rp1 v\n")
            .expect("write burst");
        while stat(&mut c, "mw_breaker_probes") == probes {
            std::thread::yield_now();
        }
    }
    // The parked probe completes (an overrun: the class re-opens),
    // the cooldown passes, and a fresh client's probe is admitted.
    server.set_shard_delay(None);
    let mut fresh = connect(&server);
    let mut last = String::new();
    let admitted = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        match fresh.request("SET fresh v").expect("reply") {
            ClientReply::Status(_) => true,
            other => {
                last = error_of(other);
                false
            }
        }
    });
    assert!(admitted, "class wedged; last rejection: {last:?}");
    assert_eq!(stat(&mut c, "mw_breaker_write_state"), 0, "closed");
    server.shutdown();
}

/// HEALTH/READY are liveness/readiness probes: admitted even when the
/// session's token bucket is drained, and readiness flips are visible
/// mid-session without reconnecting.
#[test]
fn health_and_ready_bypass_the_rate_limiter() {
    let mut middleware = MiddlewareConfig::full();
    middleware.rate.burst = 2;
    middleware.rate.refill_per_sec = 1;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);

    // Drain the bucket and prove the limiter is actually armed.
    let mut limited = false;
    for i in 0..10 {
        if let ClientReply::Error(e) = c.request(&format!("GET rl{i}")).expect("reply") {
            assert!(e.starts_with("RATELIMIT "), "got {e:?}");
            limited = true;
            break;
        }
    }
    assert!(limited, "a 2-token bucket must trip within 10 reads");

    // Probes keep answering on the drained bucket: 50 in a row, none
    // charged, none rejected.
    for _ in 0..25 {
        c.health().expect("HEALTH bypasses the limiter");
        assert!(c.ready().expect("READY bypasses the limiter"));
    }

    // A readiness flip is observable mid-session; liveness stays up.
    server.set_ready(false);
    assert!(!server.ready());
    assert!(!c.ready().expect("READY still answers"), "drain visible");
    c.health().expect("liveness stays up during a drain");
    server.set_ready(true);
    assert!(c.ready().expect("READY answers"), "readiness restored");
    server.shutdown();
}

/// Drain under live write load: shutdown completes promptly (in-flight
/// bursts finish, the connection closes after its current burst), and
/// every write acknowledged before the cut reads back consistently.
#[test]
fn drain_under_load_keeps_acked_writes() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        middleware: MiddlewareConfig::full(),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    let acked = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&acked);

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        let mut pairs = 0u64;
        loop {
            let key = format!("drain{pairs}");
            if c.set(&key, "v").is_err() {
                break; // Connection cut before the ack: write unacked.
            }
            match c.get(&key) {
                Ok(got) => assert_eq!(
                    got.as_deref(),
                    Some("v"),
                    "acked write {key} must be readable"
                ),
                Err(_) => break, // Cut between ack and read-back.
            }
            pairs += 1;
            counted.store(pairs, Ordering::Release);
        }
        pairs
    });

    wait_until("16 acked pairs", || acked.load(Ordering::Acquire) >= 16);
    assert!(server.ready(), "serving before the drain");
    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "drain must not wait out a chatty client"
    );
    let pairs = worker.join().expect("worker");
    assert!(pairs > 0, "the worker made progress before the drain");
}
