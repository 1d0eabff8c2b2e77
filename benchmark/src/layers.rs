//! Per-layer measurements taken from outside the program: small probes
//! against a bare server, and single-thread timings of the public
//! functions each layer is made of. Nothing here adds code to the
//! server; a layer is seen only through calls a user could make.

use crate::client::Conn;
use crate::metrics::Values;
use crate::run::{pin_generator, pin_server_threads, SHARDS};
use crate::stats::percentile;
use crate::workload::{Stream, CONNS};
use dego_core::{home_segment, mpsc, CounterIncrementOnly, SegmentationKind, SegmentedHashMap};
use dego_middleware::protocol::{Command, Reply};
use dego_middleware::{LayerKind, MiddlewareConfig, Request, Response, Service, Session, Stack};
use dego_server::{spawn, ServerConfig, ServerHandle, FANOUT_LIMIT, TIMELINE_LIMIT};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Seconds each bare-server probe runs.
const PROBE_SECS: f64 = 0.5;
/// Each in-process timing stops at this many calls or this long,
/// whichever comes first; its value is the median chunk.
const TIMING_CALLS: u64 = 1_000_000;
const TIMING_BUDGET: Duration = Duration::from_secs(1);
/// Samples of `server.connect_us_p50`.
const CONNECTS: usize = 200;
/// Calls per timed chunk. Inputs are built outside the timed region,
/// chunk by chunk; one chunk also stays far below the rate limiter's
/// default burst, so a timing never measures rejections.
const CHUNK: usize = 16_384;
const BATCH: usize = 16;

/// A server with no middleware, placed as the workloads' servers are,
/// with the calling thread as generator 0: its connection is the
/// server's first, served by event loop 0 on the same CPU.
fn bare_server() -> io::Result<ServerHandle> {
    let server = spawn(ServerConfig {
        shards: SHARDS,
        middleware: MiddlewareConfig::none(),
        ..ServerConfig::default()
    })?;
    pin_server_threads()?;
    pin_generator(0);
    Ok(server)
}

/// Send `request` and await its `replies` replies, over and over for
/// `secs`; the round-trip times in nanoseconds, sorted.
fn round_trips(conn: &mut Conn, request: &[u8], kinds: &[u8], secs: f64) -> io::Result<Vec<u32>> {
    let mut samples = Vec::with_capacity(1 << 16);
    let began = Instant::now();
    let until = began + Duration::from_secs_f64(secs);
    // The first tenth warms the path up and is thrown away.
    let keep_from = began + Duration::from_secs_f64(secs / 10.0);
    loop {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        conn.send(request)?;
        let tally = conn.recv(kinds, false)?;
        let took = sent.elapsed();
        if tally.wrong_kind > 0 {
            return Err(io::Error::other(format!(
                "probe {:?} got a reply of the wrong kind",
                String::from_utf8_lossy(request)
            )));
        }
        if sent >= keep_from {
            samples.push(took.as_nanos().min(u32::MAX as u128) as u32);
        }
    }
    samples.sort_unstable();
    Ok(samples)
}

fn p50_us(samples: &[u32]) -> f64 {
    percentile(samples, 0.50) / 1e3
}

/// The workload-independent probes: the connection plane's floor
/// (PING), then the store's read and write paths as differences from
/// it. One connection, bare server, nothing else running.
pub fn bare_probes() -> io::Result<Values> {
    let server = bare_server()?;
    let addr = server.local_addr();
    let mut out = Values::default();

    let mut conn = Conn::connect(addr)?;
    let ping = round_trips(&mut conn, b"PING\n", b"+", PROBE_SECS * 1.5)?;
    out.put("server.ping_rtt_p50_us", p50_us(&ping));
    out.put("server.ping_rtt_p99_us", percentile(&ping, 0.99) / 1e3);
    let ping16 = round_trips(
        &mut conn,
        &b"PING\n".repeat(BATCH),
        &[b'+'; BATCH],
        PROBE_SECS,
    )?;
    let ping_ns_d16 = percentile(&ping16, 0.50) / BATCH as f64;
    out.put("server.ping_ns_per_cmd_d16", ping_ns_d16);

    let value = "v0123456789abcde";
    conn.send(format!("SET probe {value}\n").as_bytes())?;
    conn.recv(b"+", false)?;
    let get = round_trips(&mut conn, b"GET probe\n", b"$", PROBE_SECS)?;
    let set = round_trips(
        &mut conn,
        format!("SET probe {value}\n").as_bytes(),
        b"+",
        PROBE_SECS,
    )?;
    out.put("store.get_minus_ping_rtt_us", p50_us(&get) - p50_us(&ping));
    out.put("store.set_minus_get_rtt_us", p50_us(&set) - p50_us(&get));
    let set16: String = (0..BATCH)
        .map(|i| format!("SET probe{i} {value}\n"))
        .collect();
    let set16 = round_trips(&mut conn, set16.as_bytes(), &[b'+'; BATCH], PROBE_SECS)?;
    out.put(
        "store.write_extra_ns_per_cmd_d16",
        percentile(&set16, 0.50) / BATCH as f64 - ping_ns_d16,
    );
    drop(conn);

    // A sample is a connection to each event loop in turn (the server
    // deals connections round), halved: one loop shares this thread's
    // CPU and the other does not, and single connects would be a
    // median between two modes.
    let mut connects = Vec::with_capacity(CONNECTS);
    for _ in 0..CONNECTS {
        let began = Instant::now();
        for _ in 0..CONNS {
            let mut conn = Conn::connect(addr)?;
            conn.send(b"PING\n")?;
            conn.recv(b"+", false)?;
        }
        connects.push((began.elapsed() / CONNS as u32).as_nanos() as u32);
    }
    connects.sort_unstable();
    out.put("server.connect_us_p50", p50_us(&connects));
    server.shutdown();
    Ok(out)
}

/// The social verbs at their most expensive: a `POST` by an author
/// with a full fan-out, and a `TIMELINE` read of a full row.
pub fn retwis_probes() -> io::Result<Values> {
    let server = bare_server()?;
    let mut conn = Conn::connect(server.local_addr())?;
    let mut script = String::new();
    for user in 0..=FANOUT_LIMIT {
        script.push_str(&format!("ADDUSER {user}\n"));
    }
    for follower in 1..=FANOUT_LIMIT {
        script.push_str(&format!("FOLLOW {follower} 0\n"));
    }
    for msg in 0..TIMELINE_LIMIT {
        script.push_str(&format!("POST 0 {msg}\n"));
    }
    conn.send(script.as_bytes())?;
    let replies = 2 * FANOUT_LIMIT + 1 + TIMELINE_LIMIT;
    if conn.recv(&vec![b'+'; replies], false)?.wrong_kind > 0 {
        return Err(io::Error::other("retwis probe preload was refused"));
    }
    let timeline = round_trips(&mut conn, b"TIMELINE 0\n", b"*", PROBE_SECS)?;
    let post = round_trips(&mut conn, b"POST 0 7\n", b"+", PROBE_SECS)?;
    drop(conn);
    server.shutdown();
    let mut out = Values::default();
    out.put("retwis.timeline_rtt_p50_us", p50_us(&timeline));
    out.put("retwis.post_rtt_p50_us", p50_us(&post));
    Ok(out)
}

/// Nanoseconds per item of `work`, as the median over chunks. `build`
/// makes a chunk's inputs (and any fresh state) outside the clock.
fn ns_per_item<C, I>(
    mut build: impl FnMut() -> (C, Vec<I>),
    mut work: impl FnMut(&mut C, I),
    items_per_call: usize,
) -> f64 {
    let mut chunks = Vec::new();
    let (mut spent, mut calls) = (Duration::ZERO, 0u64);
    while calls < TIMING_CALLS && spent < TIMING_BUDGET {
        let (mut state, inputs) = build();
        let n = inputs.len();
        let began = Instant::now();
        for input in inputs {
            work(&mut state, input);
        }
        let took = began.elapsed();
        chunks.push(took.as_nanos() as f64 / (n * items_per_call) as f64);
        spent += took;
        calls += n as u64;
    }
    chunks.sort_by(f64::total_cmp);
    chunks[chunks.len() / 2]
}

/// The terminal service of every middleware timing: the store's place,
/// holding nothing.
struct Nop;

impl Service for Nop {
    fn call(&mut self, _req: Request) -> Response {
        Response::ok(Reply::Status("OK"))
    }
}

fn session() -> Session {
    Session {
        client: "benchmark:0".into(),
    }
}

fn singles(commands: &[Command]) -> Vec<Request> {
    commands.iter().cloned().map(Request::new).collect()
}

fn batches(commands: &[Command]) -> Vec<Vec<Request>> {
    commands.chunks_exact(BATCH).map(singles).collect()
}

fn refused(resp: &Response) -> bool {
    matches!(resp.reply, Reply::Error(_))
}

/// The `protocol` layer over the workload's own lines, and — on the
/// `_full` workloads — the `middleware` layer over its own commands.
pub fn workload_timings(pool: &Stream, full_stack: bool) -> Values {
    let lines: Vec<&str> = pool.lines().take(CHUNK).collect();
    let commands: Vec<Command> = lines
        .iter()
        .map(|l| Command::parse(l).expect("the pool holds valid commands"))
        .collect();
    let mut out = Values::default();

    let parse = ns_per_item(
        || ((), lines.clone()),
        |_, line| {
            black_box(Command::parse(black_box(line)).is_ok());
        },
        1,
    );
    out.put("protocol.parse_ns_per_line", parse);
    // The replies the workload's commands draw, at their usual size.
    let replies: Vec<Reply> = commands.iter().map(typical_reply).collect();
    let render = ns_per_item(
        || (String::with_capacity(1024), replies.iter().collect()),
        |buf: &mut String, reply: &Reply| {
            buf.clear();
            reply.render(buf);
            black_box(&*buf);
        },
        1,
    );
    out.put("protocol.render_ns_per_reply", render);
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    out.put(
        "protocol.line_bytes_mean",
        bytes as f64 / lines.len() as f64,
    );

    // A workload with no middleware has no middleware layer to report.
    // `None` is the whole stack, `Some` one layer alone.
    let stacks = std::iter::once(None).chain(LayerKind::ALL.map(Some));
    for layer in stacks {
        let stack = layer.map_or("stack", LayerKind::name);
        let [b1, b16] = match layer {
            _ if !full_stack => [0.0, 0.0],
            // One layer alone, as the boxed onion builds it.
            Some(kind) => {
                let config = MiddlewareConfig {
                    layers: vec![kind],
                    ..MiddlewareConfig::default()
                };
                chain_timings(
                    || Stack::build(&config).service(&session(), Box::new(Nop)),
                    |chain, req| chain.call(req),
                    &commands,
                )
            }
            // The chain the server builds for a connection by default:
            // the fused seven-layer stack; a one-line burst enters by
            // `call_one`, a longer one by `call_batch`.
            None => chain_timings(
                || {
                    Stack::build(&MiddlewareConfig::full())
                        .fused_service(&session(), Nop)
                        .expect("the full stack fuses")
                },
                |chain, req| chain.call_one(req),
                &commands,
            ),
        };
        out.put(&format!("middleware.{stack}_ns_per_cmd_b1"), b1);
        out.put(&format!("middleware.{stack}_ns_per_cmd_b16"), b16);
    }
    out
}

/// Nanoseconds per command through a fresh chain from `build`: one at
/// a time through `one`, and sixteen at a time through `call_batch`.
fn chain_timings<S: Service>(
    build: impl Fn() -> S,
    one: impl Fn(&mut S, Request) -> Response,
    commands: &[Command],
) -> [f64; 2] {
    let mut refusals = 0usize;
    let b1 = ns_per_item(
        || (build(), singles(commands)),
        |chain, req| refusals += refused(&black_box(one(chain, req))) as usize,
        1,
    );
    let b16 = ns_per_item(
        || (build(), batches(commands)),
        |chain, reqs| {
            refusals += black_box(chain.call_batch(reqs))
                .iter()
                .filter(|r| refused(r))
                .count()
        },
        BATCH,
    );
    assert_eq!(refusals, 0, "a middleware timing measured rejections");
    [b1, b16]
}

fn typical_reply(command: &Command) -> Reply {
    match command {
        Command::Get(_) => Reply::Value("v0123456789abcde".into()),
        Command::Incr(..) | Command::Profile(_) => Reply::Int(1234),
        Command::Timeline(_) => Reply::Array(
            (0..TIMELINE_LIMIT)
                .map(|i| format!(":{}", 100_000 + i))
                .collect(),
        ),
        _ => Reply::Status("OK"),
    }
}

/// The adjusted objects the store is made of, driven the way the store
/// drives them.
pub fn core_timings() -> Values {
    const KEYS: usize = 8192;
    let keys: Vec<String> = (0..KEYS)
        .map(|i| format!("c{}k{:04}", i % 2, i / 2))
        .collect();
    let value = String::from("v0123456789abcde");
    let map = SegmentedHashMap::<String, String>::new(SHARDS, KEYS, SegmentationKind::Hash);
    let mut writer = map.writer();
    let mine = writer.slot();
    // A segment has one writer, a thread one segment: keys homed on
    // the other segment are loaded by a thread of their own.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut other = map.writer();
            let slot = other.slot();
            for key in keys.iter().filter(|k| home_segment(*k, SHARDS) == slot) {
                other.put(key.clone(), value.clone());
            }
        });
    });
    let own: Vec<&String> = keys
        .iter()
        .filter(|k| home_segment(*k, SHARDS) == mine)
        .collect();
    for key in &own {
        writer.put((*key).clone(), value.clone());
    }
    assert_eq!(map.len(), KEYS, "every key found its segment's writer");

    let get = ns_per_item(
        || ((), keys.iter().collect()),
        |_, key: &String| {
            black_box(map.get(black_box(key)));
        },
        1,
    );
    // As `apply` does it: the key and value are cloned into the map.
    let put = ns_per_item(
        || ((), own.clone()),
        |_, key: &String| writer.put(key.clone(), value.clone()),
        1,
    );

    let offer_poll = ns_per_item(
        || ((), vec![CHUNK as u64 * 8]),
        |_, n| {
            let (producer, mut consumer) = mpsc::queue::<u64>();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    // The producer on the other CPU, as a connection's
                    // event loop is to a foreign shard's owner.
                    pin_generator(1);
                    for i in 0..n {
                        producer.offer(i);
                    }
                });
                let mut seen = 0;
                while seen < n {
                    match consumer.poll() {
                        Some(item) => {
                            black_box(item);
                            seen += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
        },
        CHUNK * 8,
    );

    let counter = CounterIncrementOnly::new(SHARDS);
    let cell = counter.cell();
    let inc = ns_per_item(|| ((), vec![(); CHUNK]), |_, ()| black_box(&cell).inc(), 1);
    assert!(counter.get() >= CHUNK as u64);

    let mut out = Values::default();
    out.put("core.segmap_get_ns", get);
    out.put("core.segmap_put_ns", put);
    out.put("core.mpsc_offer_poll_ns", offer_poll);
    out.put("core.counter_inc_ns", inc);
    out
}
