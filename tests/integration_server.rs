//! Integration of the middleware server: concurrent pipelined clients
//! over a real loopback TCP socket.
//!
//! The properties asserted are the ones the storage plane's
//! adjustments are supposed to buy:
//!
//! * **GET-after-SET per key is linearizable across connections** — a
//!   mutation is acknowledged only after its owning shard applied it;
//! * **INCR totals are exact under contention** — one writer per shard
//!   means increments to a key serialize, losing nothing;
//! * **shutdown is clean** — every thread joins, the port dies.

use dego_metrics::rng::XorShift64;
use dego_server::{
    spawn, Client, ClientReply, MiddlewareConfig, ServerConfig, ServerHandle, FANOUT_LIMIT,
    TIMELINE_KEEP, TIMELINE_LIMIT,
};
use dego_spec::lin::{is_linearizable, Completed};
use dego_spec::DataType;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const CLIENTS: usize = 8;

mod common;

fn boot(shards: usize) -> ServerHandle {
    let shards = common::shards(shards);
    spawn(ServerConfig {
        shards,
        capacity: 4096,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// ≥8 concurrent pipelined clients, each hammering its own keys and
/// reading back: every GET after an acknowledged SET must see the last
/// value this client wrote (per-key linearizability — each key has one
/// writer here, so the acknowledged value is the key's latest).
#[test]
fn get_after_set_is_linearizable_per_key() {
    let server = boot(4);
    let addr = server.local_addr();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client_id in 0..CLIENTS {
            let barrier = &barrier;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                for round in 0..60u64 {
                    // A pipelined burst of writes across disjoint keys…
                    for key in 0..8u64 {
                        c.send(&format!("SET c{client_id}k{key} r{round}"))
                            .expect("send");
                    }
                    c.flush().expect("flush");
                    for _ in 0..8 {
                        assert_eq!(
                            c.read_reply().expect("ack"),
                            ClientReply::Status("OK".into())
                        );
                    }
                    // …then every key must read back this round's value,
                    // even though other clients keep mutating their own
                    // keys on the same shards.
                    for key in 0..8u64 {
                        let got = c.get(&format!("c{client_id}k{key}")).expect("get");
                        assert_eq!(
                            got.as_deref(),
                            Some(format!("r{round}").as_str()),
                            "client {client_id} key {key} round {round}"
                        );
                    }
                }
            });
        }
    });
    server.shutdown();
}

/// All clients INCR the same small set of hot keys concurrently; the
/// final totals must equal exactly the number of acknowledged
/// increments (nothing lost, nothing double-applied).
#[test]
fn incr_totals_are_exact_under_contention() {
    let server = boot(4);
    let addr = server.local_addr();
    const HOT_KEYS: u64 = 3;
    const PER_CLIENT: u64 = 300;
    let acknowledged = AtomicU64::new(0);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client_id in 0..CLIENTS {
            let acknowledged = &acknowledged;
            let barrier = &barrier;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                let mut last_seen = vec![0i64; HOT_KEYS as usize];
                for i in 0..PER_CLIENT {
                    let key = (client_id as u64 + i) % HOT_KEYS;
                    let n = c.incr(&format!("hot{key}"), 1).expect("incr");
                    // Monotonicity per key per client: the counter this
                    // client observes never goes backwards.
                    assert!(
                        n > last_seen[key as usize],
                        "client {client_id} saw {n} after {}",
                        last_seen[key as usize]
                    );
                    last_seen[key as usize] = n;
                    acknowledged.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let mut c = Client::connect(addr).expect("connect");
    let total: i64 = (0..HOT_KEYS)
        .map(|k| c.incr(&format!("hot{k}"), 0).expect("read back"))
        .sum();
    assert_eq!(total as u64, acknowledged.load(Ordering::Relaxed));
    assert_eq!(total as u64, CLIENTS as u64 * PER_CLIENT);
    // Every acknowledged increment was applied by a shard owner.
    assert!(server.stats().applied >= CLIENTS as u64 * PER_CLIENT);
    server.shutdown();
}

/// Mixed pipelined traffic from many clients at once: deep pipelines
/// interleaving reads and writes keep strict request/reply order.
#[test]
fn pipelined_clients_keep_reply_order() {
    let server = boot(2);
    let addr = server.local_addr();
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client_id in 0..CLIENTS {
            let barrier = &barrier;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                for round in 0..20 {
                    // 3 commands per slot, 16 slots, one flush.
                    for i in 0..16u64 {
                        c.send(&format!("SET p{client_id} {round}-{i}"))
                            .expect("send");
                        c.send(&format!("GET p{client_id}")).expect("send");
                        c.send(&format!("INCR q{client_id} 1")).expect("send");
                    }
                    c.flush().expect("flush");
                    for i in 0..16u64 {
                        assert_eq!(
                            c.read_reply().expect("set ack"),
                            ClientReply::Status("OK".into())
                        );
                        assert_eq!(
                            c.read_reply().expect("get reply"),
                            ClientReply::Value(format!("{round}-{i}")),
                            "client {client_id}"
                        );
                        assert_eq!(
                            c.read_reply().expect("incr reply"),
                            ClientReply::Int((round * 16 + i + 1) as i64)
                        );
                    }
                }
            });
        }
    });
    server.shutdown();
}

/// The retwis surface under concurrency: one author, many followers
/// posting and reading from separate connections.
#[test]
fn social_fanout_across_connections() {
    let server = boot(4);
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect");
    for u in 0..CLIENTS as u64 {
        setup.add_user(u).expect("adduser");
    }
    for fan in 1..CLIENTS as u64 {
        setup.follow(fan, 0).expect("follow");
    }
    setup.post(0, 7001).expect("post");
    setup.post(0, 7002).expect("post");
    // Every follower sees both messages from its own connection, newest
    // first, because POST acks only after every touched shard applied.
    std::thread::scope(|s| {
        for fan in 1..CLIENTS as u64 {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                assert_eq!(c.timeline(fan).expect("timeline"), vec![7002, 7001]);
                assert!(c.is_following(fan, 0).expect("isfollowing"));
            });
        }
    });
    assert_eq!(setup.follower_count(0).expect("count"), CLIENTS - 1);
    server.shutdown();
}

/// The timeline's wire contract over its in-place log: a reader gets
/// the newest `TIMELINE_LIMIT` posts, newest first, however far past
/// `TIMELINE_KEEP` the ring has wrapped; an unknown user reads as an
/// empty array, not an error; and a `POST` → `TIMELINE` pair inside one
/// burst reads its own write.
#[test]
fn timeline_serves_the_newest_posts_of_a_wrapped_log() {
    let server = boot(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.add_user(1).expect("adduser");
    let posts = (TIMELINE_KEEP + 10) as u64;
    // Lock step first, then one burst that wraps the ring once more.
    for msg in 0..posts {
        client.post(1, msg).expect("post");
    }
    let newest_first =
        |last: u64| -> Vec<u64> { (0..TIMELINE_LIMIT as u64).map(|k| last - k).collect() };
    assert_eq!(
        client.timeline(1).expect("timeline"),
        newest_first(posts - 1)
    );
    let burst: Vec<String> = (posts..2 * posts)
        .map(|msg| format!("POST 1 {msg}"))
        .collect();
    let acks = client.pipeline(&burst).expect("burst of posts");
    assert!(acks.iter().all(|ack| matches!(ack, ClientReply::Status(_))));
    assert_eq!(
        client.timeline(1).expect("timeline"),
        newest_first(2 * posts - 1)
    );

    assert_eq!(
        client.timeline(404).expect("unknown user"),
        Vec::<u64>::new()
    );
    assert_eq!(
        client.request("TIMELINE 404").expect("unknown user"),
        ClientReply::Array(Vec::new())
    );

    let pair = client
        .pipeline(["POST 1 9000", "TIMELINE 1", "POST 2 9001", "TIMELINE 2"])
        .expect("post then read in one burst");
    let ClientReply::Array(own) = &pair[1] else {
        panic!("TIMELINE answered {:?}", pair[1]);
    };
    assert_eq!((own.len(), own[0].as_str()), (TIMELINE_LIMIT, ":9000"));
    // A user nobody added: the post creates the row it reads back.
    assert_eq!(pair[3], ClientReply::Array(vec![":9001".into()]));
    server.shutdown();
}

/// The follower row's wire contract over its in-place set, through the
/// row's growth and compaction: after 300 `FOLLOW`s of user 0 (lock
/// step, a self-follow among them), 250 `UNFOLLOW`s (one pipelined
/// burst) and 50 re-`FOLLOW`s, `FOLLOWERS 0` and every `ISFOLLOWING f 0`
/// answer as a `Vec` model does, and a `POST 0` reaches exactly the
/// model's first `FANOUT_LIMIT` followers but the author.
#[test]
fn followers_serve_the_model_through_growth_and_compaction() {
    const USERS: u64 = 400;
    let server = boot(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = dego_metrics::rng::XorShift64::new(0x5eed);
    let mut model: Vec<u64> = Vec::new();
    let mut followed = Vec::new();
    let check = |client: &mut Client, model: &[u64], msg: u64| {
        assert_eq!(client.follower_count(0).expect("followers"), model.len());
        for f in 0..USERS {
            let follows = client.is_following(f, 0).expect("isfollowing");
            assert_eq!(follows, model.contains(&f), "ISFOLLOWING {f} 0");
        }
        client.post(0, msg).expect("post");
        let fans: Vec<u64> = model.iter().copied().filter(|f| *f != 0).collect();
        assert!(fans.len() > FANOUT_LIMIT, "the seed left too few followers");
        for (rank, fan) in fans.iter().take(FANOUT_LIMIT + 1).enumerate() {
            let got = client.timeline(*fan).expect("timeline").contains(&msg);
            assert_eq!(
                got,
                rank < FANOUT_LIMIT,
                "follower #{rank} ({fan}) of {fans:?}"
            );
        }
        assert_eq!(client.timeline(0).expect("own timeline")[0], msg);
    };

    let follow = |client: &mut Client, model: &mut Vec<u64>, fan: u64| {
        client.follow(fan, 0).expect("follow");
        if !model.contains(&fan) {
            model.push(fan);
        }
    };

    for i in 0..300 {
        let fan = if i == 150 { 0 } else { rng.next_bounded(USERS) };
        follow(&mut client, &mut model, fan);
        followed.push(fan);
    }
    check(&mut client, &model, 1);

    let burst: Vec<String> = (0..250)
        .map(|_| {
            let fan = followed[rng.next_bounded(followed.len() as u64) as usize];
            model.retain(|f| *f != fan);
            format!("UNFOLLOW {fan} 0")
        })
        .collect();
    let acks = client.pipeline(&burst).expect("burst of unfollows");
    assert!(acks.iter().all(|ack| matches!(ack, ClientReply::Status(_))));
    check(&mut client, &model, 2);

    for _ in 0..50 {
        let fan = followed[rng.next_bounded(followed.len() as u64) as usize];
        follow(&mut client, &mut model, fan);
    }
    check(&mut client, &model, 3);
    server.shutdown();
}

/// One kv key as the wire shows it: an integer register that `GET`,
/// `SET`, `INCR`, `DEL` and `EXPIRE` act on. `EXPIRE k 0` lapses the key
/// at once, so it reads absent after; any other `EXPIRE` here is an
/// hour, which never lapses within a test and changes nothing. Either
/// answers whether the key was present.
#[derive(Debug)]
struct Register;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum KvOp {
    Get,
    Set(i64),
    Incr(i64),
    Del,
    Expire(u64),
}

/// A reply as the register's specification returns it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum KvRet {
    Value(Option<i64>),
    Ok,
    Int(i64),
}

impl DataType for Register {
    type State = Option<i64>;
    type Op = KvOp;
    type Ret = KvRet;

    fn apply(&self, state: &Option<i64>, op: &KvOp) -> (Option<i64>, KvRet) {
        match op {
            KvOp::Get => (*state, KvRet::Value(*state)),
            KvOp::Set(v) => (Some(*v), KvRet::Ok),
            KvOp::Incr(d) => {
                let next = state.unwrap_or(0).wrapping_add(*d);
                (Some(next), KvRet::Int(next))
            }
            KvOp::Del => (None, KvRet::Ok),
            KvOp::Expire(millis) => {
                let next = if *millis == 0 { None } else { *state };
                (next, KvRet::Int(state.is_some() as i64))
            }
        }
    }
}

impl KvOp {
    fn line(&self, key: &str) -> String {
        match self {
            KvOp::Get => format!("GET {key}"),
            KvOp::Set(v) => format!("SET {key} {v}"),
            KvOp::Incr(d) => format!("INCR {key} {d}"),
            KvOp::Del => format!("DEL {key}"),
            KvOp::Expire(millis) => format!("EXPIRE {key} {millis}"),
        }
    }

    fn ret(reply: ClientReply) -> KvRet {
        match reply {
            ClientReply::Value(v) => KvRet::Value(Some(v.parse().expect("an integer value"))),
            ClientReply::Nil => KvRet::Value(None),
            ClientReply::Status(s) if s == "OK" => KvRet::Ok,
            ClientReply::Int(n) => KvRet::Int(n),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Per-key linearizability over the wire, across connections, loops
/// and shards. Two event loops over two shards, so a run one loop
/// applies in place races the runs the other loop queued on the same
/// shard; half the rounds stall the owners instead, so every run goes
/// through a queue. In each round four pipelined clients send two
/// bursts of six random `GET`/`SET`/`INCR`/`DEL`s on four fresh keys,
/// and each key's history must linearize against [`Register`].
///
/// An op's invocation is stamped just before its burst is flushed and
/// its response just after its reply is read, so the check covers
/// real-time order only: the ops of one burst overlap, and their order
/// inside the connection is pinned by `integration_batch` instead.
#[test]
fn wire_histories_are_linearizable_per_key() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 200;
    const KEYS: u64 = 4;
    const BURSTS: usize = 2;
    const OPS: usize = 6;
    let server = spawn(ServerConfig {
        shards: common::shards(2),
        capacity: 4096,
        event_loops: 2,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    let clock = AtomicU64::new(0);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let barrier = Barrier::new(CLIENTS + 1);
    type History = Vec<Completed<Register>>;
    let histories: Vec<Vec<std::sync::Mutex<History>>> = (0..ROUNDS)
        .map(|_| (0..KEYS).map(|_| Default::default()).collect())
        .collect();
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (barrier, histories, tick) = (&barrier, &histories, &tick);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut rng = XorShift64::new(0x11E5 + id as u64);
                for (round, keys) in histories.iter().enumerate() {
                    barrier.wait();
                    for _ in 0..BURSTS {
                        let burst: Vec<(usize, KvOp)> = (0..OPS)
                            .map(|_| {
                                let key = rng.next_bounded(KEYS) as usize;
                                let arg = rng.next_bounded(100) as i64;
                                let op = match rng.next_bounded(4) {
                                    0 => KvOp::Get,
                                    1 => KvOp::Set(arg),
                                    2 => KvOp::Incr(arg % 5 + 1),
                                    _ => KvOp::Del,
                                };
                                (key, op)
                            })
                            .collect();
                        for (key, op) in &burst {
                            c.send(&op.line(&format!("lin{round}k{key}")))
                                .expect("send");
                        }
                        let invoke = tick();
                        c.flush().expect("flush");
                        for (key, op) in burst {
                            let ret = KvOp::ret(c.read_reply().expect("reply"));
                            let done = Completed::new(op, ret, invoke, tick());
                            keys[key].lock().expect("history lock").push(done);
                        }
                    }
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            let stall = round % 2 == 1;
            server.set_shard_delay(stall.then_some(std::time::Duration::from_micros(200)));
            barrier.wait();
            barrier.wait();
        }
    });
    server.shutdown();
    for (round, keys) in histories.into_iter().enumerate() {
        for (key, history) in keys.into_iter().enumerate() {
            let history = history.into_inner().expect("history lock");
            assert!(
                is_linearizable(&Register, &None, &history),
                "round {round} key lin{round}k{key}: {history:#?}"
            );
        }
    }
}

/// [`wire_histories_are_linearizable_per_key`] over timed keys, behind
/// a stack with the TTL layer: a burst's ops also `EXPIRE` a key for 0
/// ms, which lapses it at once, or for an hour. A `GET` of a lapsed key
/// is its reap, a write that races the other connections' rewrites of
/// the key: a reap must never destroy a rewrite applied before it.
/// Each key's history must linearize against [`Register`]. Over 1000
/// rounds it catches a reap that skips its second look at the deadline
/// in 10 of 10 runs.
#[test]
fn wire_histories_of_timed_keys_are_linearizable() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 1000;
    const KEYS: u64 = 4;
    const BURSTS: usize = 2;
    const OPS: usize = 6;
    let middleware = MiddlewareConfig {
        layers: MiddlewareConfig::parse_layers("ttl").expect("layer spec"),
        ..MiddlewareConfig::none()
    };
    let server = spawn(ServerConfig {
        shards: common::shards(2),
        capacity: 4096,
        event_loops: 2,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    let clock = AtomicU64::new(0);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let barrier = Barrier::new(CLIENTS + 1);
    type History = Vec<Completed<Register>>;
    let histories: Vec<Vec<std::sync::Mutex<History>>> = (0..ROUNDS)
        .map(|_| (0..KEYS).map(|_| Default::default()).collect())
        .collect();
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (barrier, histories, tick) = (&barrier, &histories, &tick);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut rng = XorShift64::new(0x77E5 + id as u64);
                for (round, keys) in histories.iter().enumerate() {
                    barrier.wait();
                    for _ in 0..BURSTS {
                        let burst: Vec<(usize, KvOp)> = (0..OPS)
                            .map(|_| {
                                let key = rng.next_bounded(KEYS) as usize;
                                let arg = rng.next_bounded(100) as i64;
                                // Reads, rewrites and lapses weigh most:
                                // they make the reap's race.
                                let op = match rng.next_bounded(11) {
                                    0..=2 => KvOp::Get,
                                    3..=5 => KvOp::Set(arg),
                                    6 => KvOp::Incr(arg % 5 + 1),
                                    7 => KvOp::Del,
                                    8 | 9 => KvOp::Expire(0),
                                    _ => KvOp::Expire(3_600_000),
                                };
                                (key, op)
                            })
                            .collect();
                        for (key, op) in &burst {
                            c.send(&op.line(&format!("ttl{round}k{key}")))
                                .expect("send");
                        }
                        let invoke = tick();
                        c.flush().expect("flush");
                        for (key, op) in burst {
                            let ret = KvOp::ret(c.read_reply().expect("reply"));
                            let done = Completed::new(op, ret, invoke, tick());
                            keys[key].lock().expect("history lock").push(done);
                        }
                    }
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            let stall = round % 2 == 1;
            server.set_shard_delay(stall.then_some(std::time::Duration::from_micros(200)));
            barrier.wait();
            barrier.wait();
        }
    });
    server.shutdown();
    for (round, keys) in histories.into_iter().enumerate() {
        for (key, history) in keys.into_iter().enumerate() {
            let history = history.into_inner().expect("history lock");
            assert!(
                is_linearizable(&Register, &None, &history),
                "round {round} key ttl{round}k{key}: {history:#?}"
            );
        }
    }
}

/// One user's rows as the wire shows them: a profile version that
/// `PROFILE` increments and `PROFILEVER` reads (a counter), a
/// membership that `JOIN`/`LEAVE` write and `INGROUP` reads (a
/// register), and a timeline that `POST u m` appends to and `TIMELINE`
/// reads the newest [`TIMELINE_LIMIT`] entries of (a log).
#[derive(Debug)]
struct UserRow;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum RowOp {
    Profile,
    ProfileVer,
    Join,
    Leave,
    InGroup,
    Post(u64),
    Timeline,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum RowRet {
    Ok,
    Int(i64),
    Window(Vec<u64>),
}

impl DataType for UserRow {
    /// Profile version, membership, every message posted, oldest first.
    type State = (u64, bool, Vec<u64>);
    type Op = RowOp;
    type Ret = RowRet;

    fn apply(&self, state: &Self::State, op: &RowOp) -> (Self::State, RowRet) {
        let (version, member, log) = state.clone();
        match op {
            RowOp::Profile => ((version + 1, member, log), RowRet::Int(version as i64 + 1)),
            RowOp::ProfileVer => ((version, member, log), RowRet::Int(version as i64)),
            RowOp::Join => ((version, true, log), RowRet::Ok),
            RowOp::Leave => ((version, false, log), RowRet::Ok),
            RowOp::InGroup => ((version, member, log), RowRet::Int(member as i64)),
            RowOp::Post(msg) => {
                let mut log = log;
                log.push(*msg);
                ((version, member, log), RowRet::Ok)
            }
            RowOp::Timeline => {
                let newest = log.iter().rev().take(TIMELINE_LIMIT).copied().collect();
                ((version, member, log), RowRet::Window(newest))
            }
        }
    }
}

impl RowOp {
    /// Which of the row's three objects the op acts on.
    fn object(&self) -> usize {
        match self {
            RowOp::Profile | RowOp::ProfileVer => 0,
            RowOp::Join | RowOp::Leave | RowOp::InGroup => 1,
            RowOp::Post(_) | RowOp::Timeline => 2,
        }
    }

    fn line(&self, user: u64) -> String {
        match self {
            RowOp::Profile => format!("PROFILE {user}"),
            RowOp::ProfileVer => format!("PROFILEVER {user}"),
            RowOp::Join => format!("JOIN {user}"),
            RowOp::Leave => format!("LEAVE {user}"),
            RowOp::InGroup => format!("INGROUP {user}"),
            RowOp::Post(msg) => format!("POST {user} {msg}"),
            RowOp::Timeline => format!("TIMELINE {user}"),
        }
    }

    fn ret(reply: ClientReply) -> RowRet {
        match reply {
            ClientReply::Status(s) if s == "OK" => RowRet::Ok,
            ClientReply::Int(n) => RowRet::Int(n),
            ClientReply::Array(items) => RowRet::Window(
                items
                    .iter()
                    .map(|item| item[1..].parse().expect("a timeline element"))
                    .collect(),
            ),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Linearizability of the per-user rows over the wire, in the shape of
/// [`wire_histories_are_linearizable_per_key`]: two loops over two
/// shards, four pipelined clients, and every other round with the
/// owners stalled. Each round's users are fresh and followed by nobody,
/// so the first write to a row is staged (its shard's writer creates
/// the row) and, the stall down, later writes apply on the loops —
/// both paths meet on one row. Each user's profile version, membership
/// and timeline are checked as three objects against [`UserRow`].
#[test]
fn wire_histories_of_user_rows_are_linearizable() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 200;
    const USERS: u64 = 2;
    const BURSTS: usize = 2;
    const OPS: usize = 6;
    let server = spawn(ServerConfig {
        shards: common::shards(2),
        capacity: 4096,
        event_loops: 2,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    let clock = AtomicU64::new(0);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let barrier = Barrier::new(CLIENTS + 1);
    type History = Vec<Completed<UserRow>>;
    // Per round, per user, per object.
    let histories: Vec<Vec<[std::sync::Mutex<History>; 3]>> = (0..ROUNDS)
        .map(|_| (0..USERS).map(|_| Default::default()).collect())
        .collect();
    let user_of = |round: usize, user: usize| 1_000_000 + round as u64 * USERS + user as u64;
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (barrier, histories, tick) = (&barrier, &histories, &tick);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut rng = XorShift64::new(0x05E4 + id as u64);
                let mut posted = 0u64;
                for (round, users) in histories.iter().enumerate() {
                    barrier.wait();
                    for _ in 0..BURSTS {
                        let burst: Vec<(usize, RowOp)> = (0..OPS)
                            .map(|_| {
                                let user = rng.next_bounded(USERS) as usize;
                                // Mostly `PROFILE`: a lost update
                                // shows only when two loops bump one
                                // row at the same instant.
                                let op = match rng.next_bounded(16) {
                                    0..=8 => RowOp::Profile,
                                    9 => RowOp::ProfileVer,
                                    10 => RowOp::Join,
                                    11 => RowOp::Leave,
                                    12 => RowOp::InGroup,
                                    13 | 14 => {
                                        posted += 1;
                                        RowOp::Post(((id as u64) << 32) | posted)
                                    }
                                    _ => RowOp::Timeline,
                                };
                                (user, op)
                            })
                            .collect();
                        for (user, op) in &burst {
                            c.send(&op.line(user_of(round, *user))).expect("send");
                        }
                        let invoke = tick();
                        c.flush().expect("flush");
                        for (user, op) in burst {
                            let ret = RowOp::ret(c.read_reply().expect("reply"));
                            let object = op.object();
                            let done = Completed::new(op, ret, invoke, tick());
                            users[user][object].lock().expect("history lock").push(done);
                        }
                    }
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            let stall = round % 2 == 1;
            server.set_shard_delay(stall.then_some(std::time::Duration::from_micros(200)));
            barrier.wait();
            barrier.wait();
        }
    });
    server.shutdown();
    let objects = ["profile", "membership", "timeline"];
    for (round, users) in histories.into_iter().enumerate() {
        for (user, rows) in users.into_iter().enumerate() {
            for (object, history) in rows.into_iter().enumerate() {
                let history = history.into_inner().expect("history lock");
                assert!(
                    is_linearizable(&UserRow, &(0, false, Vec::new()), &history),
                    "round {round} user {} {}: {history:#?}",
                    user_of(round, user),
                    objects[object]
                );
            }
        }
    }
}

/// One user's follower row as the wire shows it: a set that `FOLLOW f
/// u` adds `f` to, `UNFOLLOW f u` takes `f` out of, and `ISFOLLOWING f
/// u` and `FOLLOWERS u` read. The server also answers a burst as it
/// would the same lines one at a time, so each connection's ops on a row
/// take effect in the order it sent them: an op carries its connection
/// and its turn there, and the model answers an op out of turn with a
/// reply no wire reply matches. The check then covers program order
/// inside a burst as well as real-time order across bursts.
#[derive(Debug)]
struct FollowerRow;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum FanOp {
    Follow(u64),
    Unfollow(u64),
    IsFollowing(u64),
    Followers,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FanRet {
    Ok,
    Int(i64),
    OutOfTurn,
}

/// Connections of [`wire_histories_of_follower_rows_are_linearizable`].
const FAN_CLIENTS: usize = 4;

impl DataType for FollowerRow {
    /// The followers, ascending, and each connection's next turn.
    type State = (Vec<u64>, [u32; FAN_CLIENTS]);
    /// The connection, its turn, the op.
    type Op = (usize, u32, FanOp);
    type Ret = FanRet;

    fn apply(&self, state: &Self::State, (client, turn, op): &Self::Op) -> (Self::State, FanRet) {
        let (mut fans, mut turns) = state.clone();
        if turns[*client] != *turn {
            return (state.clone(), FanRet::OutOfTurn);
        }
        turns[*client] += 1;
        let ret = match op {
            FanOp::Follow(fan) => {
                if let Err(at) = fans.binary_search(fan) {
                    fans.insert(at, *fan);
                }
                FanRet::Ok
            }
            FanOp::Unfollow(fan) => {
                if let Ok(at) = fans.binary_search(fan) {
                    fans.remove(at);
                }
                FanRet::Ok
            }
            FanOp::IsFollowing(fan) => FanRet::Int(fans.binary_search(fan).is_ok() as i64),
            FanOp::Followers => FanRet::Int(fans.len() as i64),
        };
        ((fans, turns), ret)
    }
}

impl FanOp {
    fn line(&self, user: u64) -> String {
        match self {
            FanOp::Follow(fan) => format!("FOLLOW {fan} {user}"),
            FanOp::Unfollow(fan) => format!("UNFOLLOW {fan} {user}"),
            FanOp::IsFollowing(fan) => format!("ISFOLLOWING {fan} {user}"),
            FanOp::Followers => format!("FOLLOWERS {user}"),
        }
    }

    fn ret(reply: ClientReply) -> FanRet {
        match reply {
            ClientReply::Status(s) if s == "OK" => FanRet::Ok,
            ClientReply::Int(n) => FanRet::Int(n),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Linearizability of follower rows over the wire, in the shape of
/// [`wire_histories_are_linearizable_per_key`]: two loops over two
/// shards, four pipelined clients, and every other round with the
/// owners stalled. Each round's followees are fresh, so a row's first
/// edit is staged (its shard's writer creates the row); its six
/// followers then overflow the first four slots. With the stall down,
/// every later edit applies on a loop, and the loop whose edit
/// overflows the row moves it under the row's lock while readers scan;
/// with the stall up, the owners apply them all. Each row's history is
/// checked against [`FollowerRow`].
#[test]
fn wire_histories_of_follower_rows_are_linearizable() {
    const ROUNDS: u64 = 400;
    const USERS: u64 = 2;
    const FANS: u64 = 6;
    const BURSTS: usize = 2;
    const OPS: usize = 4;
    let server = spawn(ServerConfig {
        shards: common::shards(2),
        capacity: 4096,
        event_loops: 2,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    let clock = AtomicU64::new(0);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let barrier = Barrier::new(FAN_CLIENTS + 1);
    type History = Vec<Completed<FollowerRow>>;
    let histories: Vec<Vec<std::sync::Mutex<History>>> = (0..ROUNDS)
        .map(|_| (0..USERS).map(|_| Default::default()).collect())
        .collect();
    let user_of = |round: usize, user: usize| 2_000_000 + round as u64 * USERS + user as u64;
    std::thread::scope(|s| {
        for id in 0..FAN_CLIENTS {
            let (barrier, histories, tick) = (&barrier, &histories, &tick);
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut rng = XorShift64::new(0xFA45 + id as u64);
                for (round, users) in histories.iter().enumerate() {
                    let mut turns = [0u32; USERS as usize];
                    barrier.wait();
                    for _ in 0..BURSTS {
                        let burst: Vec<(usize, FanOp)> = (0..OPS)
                            .map(|_| {
                                let user = rng.next_bounded(USERS) as usize;
                                let fan = 1 + rng.next_bounded(FANS);
                                let op = match rng.next_bounded(16) {
                                    0..=6 => FanOp::Follow(fan),
                                    7..=9 => FanOp::Unfollow(fan),
                                    10..=12 => FanOp::IsFollowing(fan),
                                    _ => FanOp::Followers,
                                };
                                (user, op)
                            })
                            .collect();
                        for (user, op) in &burst {
                            c.send(&op.line(user_of(round, *user))).expect("send");
                        }
                        let invoke = tick();
                        c.flush().expect("flush");
                        for (user, op) in burst {
                            let ret = FanOp::ret(c.read_reply().expect("reply"));
                            let turn = turns[user];
                            turns[user] += 1;
                            let done = Completed::new((id, turn, op), ret, invoke, tick());
                            users[user].lock().expect("history lock").push(done);
                        }
                    }
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            let stall = round % 2 == 1;
            server.set_shard_delay(stall.then_some(std::time::Duration::from_micros(200)));
            barrier.wait();
            barrier.wait();
        }
    });
    server.shutdown();
    let init = (Vec::new(), [0; FAN_CLIENTS]);
    for (round, users) in histories.into_iter().enumerate() {
        for (user, history) in users.into_iter().enumerate() {
            let history = history.into_inner().expect("history lock");
            assert!(
                is_linearizable(&FollowerRow, &init, &history),
                "round {round} followee {}: {history:#?}",
                user_of(round, user)
            );
        }
    }
}

/// Shutdown with live connections parked on the socket: the server
/// must still come down within the read-timeout tick, joining every
/// shard and connection thread (ServerHandle::shutdown blocks on the
/// joins, so returning at all is the assertion).
#[test]
fn shutdown_is_clean_with_idle_connections() {
    let server = boot(2);
    let addr = server.local_addr();
    let mut idle: Vec<Client> = (0..4)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    for c in idle.iter_mut() {
        c.ping().expect("ping");
    }
    // Keep the idle connections open while shutting down.
    server.shutdown();
    // The port no longer serves.
    assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
}
