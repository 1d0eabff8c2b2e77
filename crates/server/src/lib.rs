//! # dego-server — the sharded adjusted-object middleware server
//!
//! The paper adjusts shared objects to their usage so they scale; this
//! crate puts those objects behind a network: a multi-threaded TCP
//! key-value + retwis service whose entire storage plane is built from
//! `dego-core`'s catalogue.
//!
//! | Piece | Adjusted object | Type (Table 1) |
//! |---|---|---|
//! | keyspace, user rows | [`dego_core::SegmentedHashMap`], rows created only by their shard's writer; a key's row holds its value and its deadline, replaced together | `(M2, CWMR)` |
//! | each user's timeline | [`dego_core::swmr_recent()`] log, appended under its row's lock by any thread | CWMR at row grain, newest-`n` reads |
//! | each user's profile version / group membership | `AtomicU64` increment-and-get / `AtomicBool` flag in the user's row | written by any thread |
//! | each user's followers | [`dego_core::RosterWriter`] row in the user's row, edited under its lock by any thread, in place or by a move the row publishes itself | CWMR at row grain, size / member / first-`k` reads |
//! | mutation funnel, one per shard, drained by whoever holds the shard's write side | [`dego_core::mpsc`] (`QueueMasp`) | `(Q1, MWSR)` |
//! | applied-mutation counter, one cell per shard and per event loop | [`dego_core::CounterIncrementOnly`] | `(C3, CWSR)` |
//!
//! The server keeps the paper's access disciplines **by construction**:
//! every segmented structure has one segment per shard, and a shard's
//! writer handles and its MPSC queue's consumer end sit together behind
//! one mutex — its write side — so one thread at a time writes the
//! segments and drains the queue: the shard's owner thread, or an
//! event loop applying a run for one of its home shards in place. The
//! event-loop threads read lock-free from any segment and hand the
//! other shards' runs to their queues — multi-producer is exactly what
//! the `(Q1, MWSR)` adjustment grants, and single-consumer is what the
//! single-writer segments require. A user row's writes need no write
//! side once the row exists: any loop applies them, its timeline push
//! under the row's own lock, held for two stores, and a follower edit
//! under the row's roster lock, held for a scan of the row's ids and,
//! when the row moves, a copy of them. Otherwise the objects take no
//! lock, and a loop only ever `try_lock`s a write side.
//! The epoch reclamation under the maps and the follower rows does,
//! rarely: the workspace's
//! offline `crossbeam-epoch` stand-in keeps deferred garbage behind one
//! mutex, taken by an owner once per 256 retirements and by whichever
//! thread next drops the process's last guard while garbage waits —
//! and every map read bumps its process-wide guard count twice (see
//! `dego_core::swmr_hash`; ROADMAP item 14), but a staging pass's
//! user-row writes and `POST` fan-out reads, whose row lookups share one
//! pin.
//!
//! Consistency: a mutation is acknowledged only after it was applied,
//! so `GET` after a `SET`'s `+OK` observes the value from
//! any connection (per-key linearizable — one writer serializes each
//! key, and segment publication is release/acquire).
//!
//! The wire protocol is a compact RESP-like line protocol; see
//! [`protocol`]. A blocking [`Client`] with pipelining support lives
//! in [`client`].
//!
//! ## Quickstart
//!
//! ```
//! use dego_server::{spawn, Client, ServerConfig};
//!
//! let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.set("greeting", "hello world").unwrap();
//! assert_eq!(client.get("greeting").unwrap().as_deref(), Some("hello world"));
//! assert_eq!(client.incr("visits", 2).unwrap(), 2);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
mod event_loop;
mod metrics_http;
mod server;
pub mod stats;
mod store;
#[cfg(test)]
mod test_alloc;

// The wire protocol lives in dego-middleware (the pipeline intercepts
// and rewrites commands); re-exported here so `dego_server::protocol`
// keeps working.
pub use dego_middleware::protocol;

pub use client::{Client, ClientReply};
pub use dego_middleware::{Kind, MiddlewareConfig, PipelineMetrics, Role, Row, Stack, TokenSpec};
pub use server::{spawn, AcceptHook, ServerConfig, ServerHandle, TIMELINE_LIMIT};
pub use stats::{ServerStats, StatsSnapshot};
pub use store::{FANOUT_LIMIT, KEYS, SHARDS, TIMELINE_KEEP};

/// The per-shard plane's declared rows (`{}` in a name is the shard).
pub const SHARD_ROWS: &[dego_middleware::Row] = store::ShardTelemetry::ROWS;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerHandle {
        spawn(ServerConfig {
            shards: 2,
            capacity: 256,
            ..ServerConfig::default()
        })
        .expect("server spawns")
    }

    #[test]
    fn kv_roundtrip_over_tcp() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.ping().unwrap();
        assert_eq!(c.get("missing").unwrap(), None);
        c.set("k", "v1").unwrap();
        assert_eq!(c.get("k").unwrap().as_deref(), Some("v1"));
        c.set("k", "value with spaces").unwrap();
        assert_eq!(c.get("k").unwrap().as_deref(), Some("value with spaces"));
        c.del("k").unwrap();
        assert_eq!(c.get("k").unwrap(), None);
        assert_eq!(c.incr("n", 5).unwrap(), 5);
        assert_eq!(c.incr("n", -2).unwrap(), 3);
        c.set("s", "notanumber").unwrap();
        assert!(c.incr("s", 1).is_err());
        server.shutdown();
    }

    #[test]
    fn social_verbs_roundtrip() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for u in 0..4 {
            c.add_user(u).unwrap();
        }
        c.follow(1, 0).unwrap();
        c.follow(2, 0).unwrap();
        assert!(c.is_following(1, 0).unwrap());
        assert!(!c.is_following(0, 1).unwrap());
        assert_eq!(c.follower_count(0).unwrap(), 2);
        c.post(0, 41).unwrap();
        c.post(0, 42).unwrap();
        // Author and followers all see the messages, newest first.
        assert_eq!(c.timeline(0).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(1).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(2).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(3).unwrap(), Vec::<u64>::new());
        c.unfollow(1, 0).unwrap();
        assert!(!c.is_following(1, 0).unwrap());
        assert_eq!(c.follower_count(0).unwrap(), 1);
        c.join_group(3).unwrap();
        assert!(c.in_group(3).unwrap());
        c.leave_group(3).unwrap();
        assert!(!c.in_group(3).unwrap());
        assert_eq!(c.profile_bump(2).unwrap(), 1);
        assert_eq!(c.profile_bump(2).unwrap(), 2);
        assert_eq!(c.profile_version(2).unwrap(), 2);
        server.shutdown();
    }

    #[test]
    fn pipelined_burst_keeps_order() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..100 {
            c.send(&format!("SET k{i} {i}")).unwrap();
        }
        for _ in 0..100 {
            c.send("INCR total 1").unwrap();
        }
        c.flush().unwrap();
        for _ in 0..100 {
            assert_eq!(c.read_reply().unwrap(), ClientReply::Status("OK".into()));
        }
        for i in 1..=100 {
            assert_eq!(c.read_reply().unwrap(), ClientReply::Int(i));
        }
        assert_eq!(c.get("k37").unwrap().as_deref(), Some("37"));
        server.shutdown();
    }

    #[test]
    fn pipeline_api_keeps_reply_order() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let replies = c
            .pipeline([
                "SET k one",
                "GET k",
                "INCR n 2",
                "SET k two",
                "GET k",
                "PING",
            ])
            .unwrap();
        assert_eq!(
            replies,
            vec![
                ClientReply::Status("OK".into()),
                ClientReply::Value("one".into()),
                ClientReply::Int(2),
                ClientReply::Status("OK".into()),
                ClientReply::Value("two".into()),
                ClientReply::Status("PONG".into()),
            ]
        );
        server.shutdown();
    }

    #[test]
    fn blank_lines_are_keepalives_not_commands() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Blank and whitespace-only lines produce no reply, no command
        // count, no error count — the PING right after answers first.
        c.send("").unwrap();
        c.send("   ").unwrap();
        c.send("\t").unwrap();
        c.ping().unwrap();
        let snap = server.stats();
        assert_eq!(snap.commands, 1, "only the PING counts");
        assert_eq!(snap.errors, 0, "keepalives are not errors");
        server.shutdown();
    }

    #[test]
    fn pipelined_bursts_group_commit_on_the_shards() {
        // The burst is one run, handed to the one shard as a single
        // envelope — one sweep, if it arrives in one read. The burst
        // is a single socket write, so at worst TCP cuts it in two.
        // The same holds through the full stack with a far timer armed
        // on a key the burst does not touch.
        for (middleware, timer) in [
            (MiddlewareConfig::none(), false),
            (MiddlewareConfig::full(), true),
        ] {
            let server = spawn(ServerConfig {
                shards: 1,
                capacity: 256,
                middleware,
                ..ServerConfig::default()
            })
            .expect("server spawns");
            let mut c = Client::connect(server.local_addr()).unwrap();
            if timer {
                c.set("far", "1").unwrap();
                assert!(c.expire("far", 3_600_000).unwrap(), "timer armed");
            }
            let before = server.stats();
            let burst: Vec<String> = (0..16).map(|i| format!("SET g{i} v{i}")).collect();
            for reply in c.pipeline(&burst).unwrap() {
                assert_eq!(reply, ClientReply::Status("OK".into()));
            }
            let snap = server.stats();
            assert_eq!(snap.applied - before.applied, 16);
            let sweeps = snap.shard_batches - before.shard_batches;
            assert!(sweeps > 0, "shard drained batches");
            assert!(
                sweeps <= 2,
                "group commit: one sweep per run, got {sweeps} (timer armed: {timer})"
            );
            assert_eq!(c.get("g15").unwrap().as_deref(), Some("v15"));
            server.shutdown();
        }
    }

    #[test]
    fn stats_reflect_traffic() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("a", "1").unwrap();
        c.set("b", "2").unwrap();
        let _ = c.get("a").unwrap();
        let _ = c.get("nope").unwrap();
        let stats = c.stats_map().unwrap();
        let lookup = |name: &str| -> u64 {
            stats
                .get(name)
                .unwrap_or_else(|| panic!("stat {name} missing"))
                .parse()
                .expect("numeric stat")
        };
        assert_eq!(lookup("shards"), 2);
        assert_eq!(lookup("keys"), 2);
        assert!(lookup("gets") >= 2);
        assert!(lookup("get_hits") >= 1);
        assert!(lookup("mutations") >= 2);
        assert!(lookup("applied") >= 2);
        let snap = server.stats();
        assert!(snap.commands >= 5);
        assert_eq!(snap.applied, 2);
        server.shutdown();
    }

    #[test]
    fn self_follow_delivers_posts_once() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for u in 0..3 {
            c.add_user(u).unwrap();
        }
        c.follow(1, 0).unwrap();
        c.follow(0, 0).unwrap(); // the author follows themselves
        c.post(0, 9).unwrap();
        assert_eq!(c.timeline(0).unwrap(), vec![9], "no double delivery");
        assert_eq!(c.timeline(1).unwrap(), vec![9]);
        server.shutdown();
    }

    #[test]
    fn rejected_mutations_do_not_count_as_applied() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("s", "notanumber").unwrap();
        let before = server.stats().applied;
        assert!(c.incr("s", 1).is_err());
        assert_eq!(server.stats().applied, before);
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_errors_not_disconnects() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            c.request("BLORP 1").unwrap(),
            ClientReply::Error(_)
        ));
        assert!(matches!(c.request("GET").unwrap(), ClientReply::Error(_)));
        // The session survives protocol errors.
        c.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn quit_closes_the_session() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.quit().unwrap();
        assert!(c.ping().is_err());
        server.shutdown();
    }

    #[test]
    fn middleware_full_stack_serves_ttl_over_tcp() {
        let server = spawn(ServerConfig {
            shards: 2,
            capacity: 256,
            middleware: MiddlewareConfig::full(),
            ..ServerConfig::default()
        })
        .expect("server spawns");
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("k", "v").unwrap();
        assert!(c.expire("k", 30).unwrap(), "timer armed on a live key");
        assert!(!c.expire("ghost", 30).unwrap(), "no timer on a miss");
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(c.get("k").unwrap(), None, "lazily expired");
        // No tokens are configured, so AUTH is a structured rejection.
        let err = c.auth("nope").unwrap_err();
        assert!(err.to_string().contains("AUTH"), "got {err}");
        // STATS carries the pipeline plane's mw_* lines.
        let stats = c.stats_map().unwrap();
        assert_eq!(stats.get("mw_depth").map(String::as_str), Some("7"));
        assert!(stats.contains_key("mw_ttl_expired"));
        server.shutdown();
    }

    #[test]
    fn middleware_verbs_reject_structurally_at_depth_zero() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        match c.request("EXPIRE k 100").unwrap() {
            ClientReply::Error(e) => assert!(e.starts_with("TTL "), "got {e:?}"),
            other => panic!("expected TTL rejection, got {other:?}"),
        }
        match c.request("AUTH tok").unwrap() {
            ClientReply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_clean() {
        let server = tiny();
        let addr = server.local_addr();
        {
            let mut c = Client::connect(addr).unwrap();
            c.set("x", "1").unwrap();
        }
        server.shutdown();
        // The port is released: a fresh connection must not find a
        // live server behind it.
        assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
    }

    /// `--shed-ack-p99-us` reads the windowed ack p99; without a
    /// window it would latch, so that pair is refused — either alone
    /// still boots.
    #[test]
    fn shedding_on_ack_latency_needs_the_rolling_window() {
        let boot = |ack_p99_us: u64, window_secs: u64| {
            let mut middleware = MiddlewareConfig::full();
            middleware.shed.ack_p99_us = ack_p99_us;
            middleware.trace.window_secs = window_secs;
            spawn(ServerConfig {
                shards: 1,
                middleware,
                ..ServerConfig::default()
            })
        };
        let refused = boot(50_000, 0).err().expect("the pair is refused");
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        let message = refused.to_string();
        assert!(message.contains("--shed-ack-p99-us"), "got {message:?}");
        assert!(message.contains("--stats-window-secs"), "got {message:?}");
        boot(50_000, 60)
            .expect("windowed shedding boots")
            .shutdown();
        boot(0, 0)
            .expect("no window, no ack shedding boots")
            .shutdown();
    }

    /// A `--metrics-addr` already in use fails the spawn before any
    /// thread starts, so the server's own address is not left bound.
    #[test]
    fn a_failed_spawn_leaves_nothing_listening() {
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = {
            let free = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            free.local_addr().expect("bound")
        };
        let refused = spawn(ServerConfig {
            shards: 1,
            addr,
            metrics_addr: Some(taken.local_addr().expect("bound")),
            ..ServerConfig::default()
        });
        let err = refused.err().expect("the metrics address is taken");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        std::net::TcpListener::bind(addr).expect("the server address was released");
    }
}
