//! Integration of the batched execution path and the server-plane
//! robustness fixes, over real loopback TCP:
//!
//! * **pipelined ≡ lock-step**: randomized scripts (kv and social
//!   verbs, parse errors) sent in pipelined bursts of random sizes — so
//!   through `call_batch`, deferred ack barriers and group commit —
//!   produce byte-identical reply streams to the same script sent one
//!   line at a time (every command through `call`) on an identically
//!   booted server, with no layer, a partial stack and the full stack
//!   (one chain type, absent layers passing through), and with a key
//!   timer armed;
//! * **run boundaries**: the same equivalence for a write-run-heavy
//!   script (runs of up to 64 consecutive mutations, each followed
//!   directly by a same-key read, a parse error, a keepalive, `QUIT`
//!   or an input fault), and a staged run is published even when the
//!   burst ends the session;
//! * **accept backoff**: injected `accept()` failures (fd pressure)
//!   are counted in `STATS` and back off instead of busy-spinning;
//! * **fan-out deadline**: a stuck shard costs a `POST` one overall
//!   ack deadline, not one per follower, and the poisoned session
//!   closes instead of draining stale acks;
//! * **blank lines**: keepalive newlines burn no stats and no
//!   rate-limit tokens.

use dego_server::{
    spawn, AcceptHook, Client, MiddlewareConfig, Role, ServerConfig, ServerHandle, TokenSpec,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{drive, drive_raw, lock_step, random_script, shards, wait_until, write_run_script};

fn boot(middleware: MiddlewareConfig) -> ServerHandle {
    spawn(ServerConfig {
        shards: shards(4),
        capacity: 4096,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// The `--middleware` spec `layers` with a login token and limits
/// generous enough that no timing-dependent rejection can fire.
fn generous(layers: &str) -> MiddlewareConfig {
    let mut mw = MiddlewareConfig {
        layers: MiddlewareConfig::parse_layers(layers).expect("layer spec"),
        ..MiddlewareConfig::default()
    };
    mw.auth.tokens = vec![TokenSpec {
        name: "writer".into(),
        token: "sekrit".into(),
        role: Role::ReadWrite,
    }];
    mw.auth.anon_role = Role::ReadWrite;
    mw.deadline.read_us = 30_000_000;
    mw.deadline.write_us = 30_000_000;
    mw
}

/// The equivalence guarantee: however the stream is cut into bursts,
/// the reply bytes are those of sequential execution. One server takes
/// each script pipelined in random bursts, an identically booted one
/// takes it in lock step; the streams must match.
fn assert_pipelined_matches_lock_step(layers: &str, seeds: &[u64]) {
    assert_servers_agree(layers, seeds, false);
}

/// [`assert_pipelined_matches_lock_step`], with both servers holding a
/// far timer on a key the scripts never write when `timer_armed`.
fn assert_servers_agree(layers: &str, seeds: &[u64], timer_armed: bool) {
    let pipelined = boot(generous(layers));
    let sequential = boot(generous(layers));
    if timer_armed {
        for server in [&pipelined, &sequential] {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            c.set("far", "1").expect("set");
            assert!(c.expire("far", 3_600_000).expect("arm"), "timer armed");
        }
    }
    let login = layers != "none";
    for &seed in seeds {
        let script = random_script(seed, 400);
        let mut a = Client::connect(pipelined.local_addr()).expect("connect");
        let mut b = Client::connect(sequential.local_addr()).expect("connect");
        if login {
            a.auth("sekrit").expect("login");
            b.auth("sekrit").expect("login");
        }
        let got = drive(&mut a, &script, seed ^ 0xff);
        let want = lock_step(&mut b, &script);
        assert_eq!(got, want, "reply streams diverged for seed {seed:#x}");
    }
    // The same guarantee at the run boundaries: long runs of
    // consecutive writes, each followed directly by a same-key read, a
    // parse error, a keepalive, and finally the session's end (QUIT or
    // an input fault, by seed parity) — raw bytes, fresh connections.
    for &seed in &[seeds[0] & !1, seeds[0] | 1] {
        let mut script = write_run_script(seed, 24);
        if login {
            script.insert(0, b"AUTH sekrit\n".to_vec());
        }
        let mut rng = dego_metrics::rng::XorShift64::new(seed ^ 0xff);
        let cut = || 1 + rng.next_bounded(96) as usize;
        let got = drive_raw(pipelined.local_addr(), &script, cut);
        let want = drive_raw(sequential.local_addr(), &script, || 1);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "write-run reply streams diverged for seed {seed:#x}"
        );
        // One reply per non-blank line, the closing one included.
        assert!(got.ends_with(if seed.is_multiple_of(2) {
            b"+OK\n".as_slice()
        } else {
            b"-ERR protocol requires UTF-8 input\n".as_slice()
        }));
    }
    pipelined.shutdown();
    sequential.shutdown();
}

/// Depth 0: every link of the chain passes through.
#[test]
fn pipelined_replies_match_lock_step_plain() {
    assert_pipelined_matches_lock_step("none", &[0x5eed1, 0x5eed2, 0x5eed3]);
}

/// A partial stack: deferral passing through real layers and absent
/// ones alike, over TCP.
#[test]
fn pipelined_replies_match_lock_step_partial_stack() {
    assert_pipelined_matches_lock_step("trace,auth,ttl", &[0xe5001, 0xe5002]);
}

/// The full seven-layer stack.
#[test]
fn pipelined_replies_match_lock_step_full_stack() {
    assert_pipelined_matches_lock_step("full", &[0xbee5, 0xfee1]);
}

/// The partial and full stacks' seeds once more, while a timer is
/// armed: an armed timer does not change the reply bytes.
#[test]
fn pipelined_replies_match_lock_step_with_a_timer_armed() {
    assert_servers_agree("trace,auth,ttl", &[0xe5001, 0xe5002], true);
    assert_servers_agree("full", &[0xbee5, 0xfee1], true);
}

/// Regression (run hand-off): a run still staged when the burst ends
/// the session is published all the same — writes ahead of a `QUIT` in
/// one socket write are acknowledged and visible to everyone.
#[test]
fn writes_ahead_of_quit_in_one_burst_are_applied() {
    let server = boot(MiddlewareConfig::none());
    let script = [b"SET a 1\nSET b 2\nQUIT\n".to_vec()];
    let replies = drive_raw(server.local_addr(), &script, || 1);
    assert_eq!(String::from_utf8_lossy(&replies), "+OK\n+OK\n+OK\n");
    let mut other = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(other.get("a").expect("get").as_deref(), Some("1"));
    assert_eq!(other.get("b").expect("get").as_deref(), Some("2"));
    server.shutdown();
}

/// Regression (fd pressure): persistent `accept()` failures must count
/// into `accept_errors` and back off — the loop used to busy-spin at
/// 100% CPU on `Err(_) => continue`.
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    let injected = Arc::new(AtomicU64::new(0));
    let healthy = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let hook = {
        let (injected, healthy) = (Arc::clone(&injected), Arc::clone(&healthy));
        AcceptHook(Arc::new(move || {
            // EMFILE-style pressure for the first 250 ms, then healthy.
            if started.elapsed() < Duration::from_millis(250) {
                injected.fetch_add(1, Ordering::Relaxed);
                Some(std::io::Error::other("injected EMFILE"))
            } else {
                healthy.store(true, Ordering::Release);
                None
            }
        }))
    };
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        accept_hook: Some(hook),
        ..ServerConfig::default()
    })
    .expect("server boots");
    // Wait out the pressure window, then the listener must serve again.
    wait_until("the pressure window to end", || {
        healthy.load(Ordering::Acquire)
    });
    let mut c = Client::connect(server.local_addr()).expect("connect after pressure");
    c.ping().expect("server survived fd pressure");
    let errors = injected.load(Ordering::Relaxed);
    assert!(errors >= 3, "pressure window must inject, got {errors}");
    assert!(
        errors < 1000,
        "backoff must bound the retry rate (busy-spin would hit millions), got {errors}"
    );
    let stats = c.stats_map().expect("stats");
    let accept_errors: u64 = stats
        .get("accept_errors")
        .expect("accept_errors stat")
        .parse()
        .expect("numeric");
    assert_eq!(accept_errors, errors, "every failure counted");
    server.shutdown();
}

/// Regression (stuck shard): a `POST` fan-out pays **one** overall ack
/// deadline — not a fresh one per follower (up to 17 × timeout ≈ 85 s
/// with the old code) — and bails as soon as the session is poisoned.
#[test]
fn stuck_shard_fanout_times_out_once_overall() {
    const FOLLOWERS: u64 = 8;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        ack_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    })
    .expect("server boots");
    // Every mutation applies 100 ms late; a single command fits the
    // 250 ms deadline, a 9-target fan-out (~900 ms) cannot.
    server.set_shard_delay(Some(Duration::from_millis(100)));
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for u in 0..=FOLLOWERS {
        c.add_user(u).expect("adduser");
    }
    for f in 1..=FOLLOWERS {
        c.follow(f, 0).expect("follow");
    }
    let started = Instant::now();
    let err = c.post(0, 99).expect_err("fan-out must blow the deadline");
    let elapsed = started.elapsed();
    assert!(
        err.to_string().contains("timeout"),
        "structured timeout error, got {err}"
    );
    assert!(
        elapsed < Duration::from_millis(700),
        "one overall deadline + immediate bail, took {elapsed:?}"
    );
    // The poisoned session is closed: a stale ack can never desync a
    // later reply.
    assert!(c.ping().is_err(), "connection must be closed");
    server.shutdown();
}

/// Regression (batched parse failure): non-UTF-8 bytes in the middle
/// of a pipelined burst must answer exactly like the sequential path —
/// the valid lines before them reply, then the structured UTF-8 error,
/// then the connection closes (the byte stream is unrecoverable). The
/// batched drain loop used to swallow the failed line reply-less.
#[test]
fn non_utf8_mid_burst_errors_and_closes() {
    use std::io::{BufRead, BufReader, Read, Write};
    let server = boot(MiddlewareConfig::none());
    let mut socket = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    socket
        .write_all(b"PING\n\xff\xfe garbage\nPING\n")
        .expect("write");
    socket.flush().expect("flush");
    let mut reader = BufReader::new(socket.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("first reply");
    assert_eq!(line.trim_end(), "+PONG", "valid line before answers");
    line.clear();
    reader.read_line(&mut line).expect("error reply");
    assert_eq!(
        line.trim_end(),
        "-ERR protocol requires UTF-8 input",
        "the failed line gets its structured error"
    );
    // Then the server hangs up: the trailing PING is never answered.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("eof");
    assert_eq!(n, 0, "connection closed after the unrecoverable input");
    server.shutdown();
}

/// Regression (keepalives): blank and whitespace-only lines are
/// skipped before parsing — no command count, no error count, and no
/// rate-limit token burned.
#[test]
fn blank_lines_burn_no_tokens_or_counters() {
    let mut mw = MiddlewareConfig::full();
    mw.rate.burst = 3;
    mw.rate.refill_per_sec = 1;
    let server = boot(mw);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // Six keepalives would exhaust a burst of 3 if they were charged.
    for _ in 0..6 {
        c.send("").expect("send");
        c.send("   ").expect("send");
    }
    for _ in 0..3 {
        c.ping().expect("keepalives must not burn tokens");
    }
    let snap = server.stats();
    assert_eq!(snap.commands, 3, "only the PINGs count");
    assert_eq!(snap.errors, 0, "keepalives are not errors");
    server.shutdown();
}
