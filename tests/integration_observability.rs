//! Integration of the observability plane: per-layer span attribution
//! in `STATS`, per-shard telemetry behind `STATS SHARDS`, the SLOWLOG
//! ring, and the Prometheus `/metrics` responder — all exercised over
//! real loopback TCP.

use dego_server::{
    spawn, Client, ClientReply, Kind, MiddlewareConfig, PipelineMetrics, Row, ServerConfig,
    ServerHandle, ServerStats, KEYS, SHARDS, SHARD_ROWS,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

mod common;
use common::{http_get, shards};

fn connect(server: &ServerHandle) -> Client {
    Client::connect(server.local_addr()).expect("client connects")
}

fn lookup(stats: &std::collections::BTreeMap<String, String>, name: &str) -> u64 {
    stats
        .get(name)
        .unwrap_or_else(|| panic!("stat {name} missing"))
        .parse()
        .expect("numeric stat")
}

/// Every request sampled (1-in-1): the seven per-layer histograms fill
/// and surface as `mw_<layer>_us_p50/p99` in `STATS`.
#[test]
fn sampled_spans_attribute_cost_per_layer() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);
    for i in 0..32 {
        c.set(&format!("span{i}"), "v").expect("set");
        let _ = c.get(&format!("span{i}")).expect("get");
    }
    let stats = c.stats_map().expect("stats");
    assert!(
        lookup(&stats, "mw_spans_sampled") >= 64,
        "every call sampled"
    );
    for layer in ["trace", "deadline", "auth", "ratelimit", "ttl"] {
        assert!(
            stats.contains_key(&format!("mw_{layer}_us_p50")),
            "p50 line for {layer}"
        );
        assert!(
            stats.contains_key(&format!("mw_{layer}_us_p99")),
            "p99 line for {layer}"
        );
    }
    server.shutdown();
}

/// `STATS SHARDS` reports per-shard queue depth, drained batches and
/// ack latency, and the enqueue counters add up to the write traffic.
#[test]
fn stats_shards_reports_per_shard_telemetry() {
    let n_shards = shards(2);
    let server = spawn(ServerConfig {
        shards: n_shards,
        capacity: 512,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);
    const WRITES: u64 = 64;
    for i in 0..WRITES {
        c.set(&format!("sh{i}"), "v").expect("set");
    }
    let shard_stats = c.stats_shards().expect("stats shards");
    assert_eq!(lookup(&shard_stats, "shards"), n_shards as u64);
    let mut enqueued = 0;
    let mut batches = 0;
    for i in 0..n_shards {
        // Acked writes are applied writes: nothing can still be queued.
        assert_eq!(lookup(&shard_stats, &format!("shard{i}_queue_depth")), 0);
        enqueued += lookup(&shard_stats, &format!("shard{i}_enqueued"));
        batches += lookup(&shard_stats, &format!("shard{i}_drained_batches"));
        // Percentile lines exist for every shard, loaded or not.
        lookup(&shard_stats, &format!("shard{i}_batch_p50"));
        lookup(&shard_stats, &format!("shard{i}_batch_p99"));
        lookup(&shard_stats, &format!("shard{i}_ack_p50_us"));
        lookup(&shard_stats, &format!("shard{i}_ack_p99_us"));
    }
    assert_eq!(enqueued, WRITES, "every SET routed to some shard");
    assert!(batches > 0, "shard owners drained batches");
    server.shutdown();
}

/// A seeded slow request (stuck-shard delay, low threshold) lands in
/// the slowlog; `GET` returns it slowest-first, `RESET` clears, `LEN`
/// counts.
#[test]
fn slowlog_captures_the_seeded_slow_request() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.slowlog_threshold_us = 10_000; // 10 ms
    let server = spawn(ServerConfig {
        shards: shards(1),
        capacity: 256,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    // Every mutation applies 30 ms late: comfortably over threshold.
    server.set_shard_delay(Some(Duration::from_millis(30)));
    let mut c = connect(&server);
    c.set("slow", "v").expect("slow set");
    let _ = c.get("slow").expect("fast get");

    assert!(c.slowlog_len().expect("len") >= 1);
    let entries = c.slowlog_get().expect("slowlog get");
    assert!(!entries.is_empty());
    // The SET is the slowest thing this session did.
    assert!(
        entries[0].contains("verb=SET") && entries[0].contains("class=write"),
        "slowest entry is the delayed SET: {:?}",
        entries[0]
    );
    c.slowlog_reset().expect("reset");
    assert_eq!(c.slowlog_len().expect("len after reset"), 0);
    assert!(c.slowlog_get().expect("get after reset").is_empty());
    server.shutdown();
}

/// A pipelined burst parks in the chain while the shard stalls; the
/// trace layer observes it when it completes, so it enters the slowlog
/// as one `BATCH` entry whose time covers the stall.
#[test]
fn slowlog_captures_a_stalled_pipelined_burst() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.slowlog_threshold_us = 10_000; // 10 ms
    let server = spawn(ServerConfig {
        shards: shards(1),
        capacity: 256,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(Duration::from_millis(30)));
    let mut c = connect(&server);
    // Past the connection's first, always span-sampled command.
    c.ping().expect("ping");
    for reply in c.pipeline(["SET pa v", "SET pb v"]).expect("burst") {
        assert_eq!(reply, ClientReply::Status("OK".into()));
    }
    let entries = c.slowlog_get().expect("slowlog get");
    let batches: Vec<&String> = entries
        .iter()
        .filter(|line| line.contains("verb=BATCH"))
        .collect();
    assert_eq!(batches.len(), 1, "one BATCH entry in {entries:?}");
    assert!(batches[0].contains("burst=2 "), "got {:?}", batches[0]);
    let elapsed_us: u64 = batches[0]
        .split_whitespace()
        .find_map(|f| f.strip_prefix("us="))
        .expect("us field")
        .parse()
        .expect("numeric us");
    assert!(elapsed_us >= 30_000, "covers the stall: {elapsed_us} µs");
    server.shutdown();
}

/// Without a trace layer, the SLOWLOG verbs reject structurally — same
/// shape as AUTH/EXPIRE at depth 0 — on both the single and batched
/// paths.
#[test]
fn slowlog_rejects_structurally_without_a_trace_layer() {
    let server = spawn(ServerConfig {
        shards: shards(1),
        capacity: 256,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);
    for verb in [
        "SLOWLOG GET",
        "SLOWLOG RESET",
        "SLOWLOG LEN",
        "TRACE GET",
        "TRACE RESET",
        "TRACE LEN",
    ] {
        match c.request(verb).expect("reply") {
            ClientReply::Error(e) => assert!(e.starts_with("TRACE "), "got {e:?}"),
            other => panic!("expected TRACE rejection for {verb}, got {other:?}"),
        }
    }
    // The batched path produces the identical rejection text.
    let replies = c
        .pipeline(["SET k v", "SLOWLOG LEN", "GET k"])
        .expect("burst");
    match &replies[1] {
        ClientReply::Error(e) => assert!(e.starts_with("TRACE "), "got {e:?}"),
        other => panic!("expected TRACE rejection in burst, got {other:?}"),
    }
    assert_eq!(replies[2], ClientReply::Value("v".into()));
    let replies = c
        .pipeline(["SET k v", "TRACE LEN", "GET k"])
        .expect("burst");
    match &replies[1] {
        ClientReply::Error(e) => assert!(e.starts_with("TRACE "), "got {e:?}"),
        other => panic!("expected TRACE rejection in burst, got {other:?}"),
    }
    assert_eq!(replies[2], ClientReply::Value("v".into()));
    server.shutdown();
}

/// 8 clients hammer `STATS`, `STATS SHARDS` and the SLOWLOG verbs
/// while other clients drive write bursts: no torn replies, no
/// panics, every stats reply parses with unique names.
#[test]
fn observability_verbs_survive_concurrent_hammering() {
    const READERS: usize = 8;
    const WRITERS: usize = 4;
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 4;
    middleware.trace.slowlog_threshold_us = 0; // capture everything
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 2048,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let barrier = Barrier::new(READERS + WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let mut c = connect(&server);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..16u64 {
                    let burst: Vec<String> = (0..16)
                        .map(|k| format!("SET hammer{w}k{k} r{round}"))
                        .collect();
                    for reply in c.pipeline(&burst).expect("write burst") {
                        assert_eq!(reply, ClientReply::Status("OK".into()));
                    }
                }
            });
        }
        for _ in 0..READERS {
            let mut c = connect(&server);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..24 {
                    let stats = c.stats_map().expect("stats under load");
                    assert!(stats.contains_key("mw_spans_sampled"));
                    let shard_stats = c.stats_shards().expect("stats shards under load");
                    assert!(shard_stats.contains_key("shard0_queue_depth"));
                    let _ = c.slowlog_len().expect("slowlog len under load");
                    let entries = c.slowlog_get().expect("slowlog get under load");
                    for line in &entries {
                        assert!(line.contains("us="), "entry renders whole: {line:?}");
                    }
                    if round % 8 == 0 {
                        c.slowlog_reset().expect("slowlog reset under load");
                    }
                }
            });
        }
    });
    server.shutdown();
}

/// `--metrics-addr`: a raw HTTP/1.0 `GET /metrics` serves a parseable
/// Prometheus text exposition; other paths get a 404.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        middleware,
        metrics_addr: Some("127.0.0.1:0".parse().expect("literal addr")),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");

    let mut c = connect(&server);
    for i in 0..16 {
        c.set(&format!("m{i}"), "v").expect("set");
        let _ = c.get(&format!("m{i}")).expect("get");
    }

    let body = http_get(metrics_addr, "/metrics");
    let (head, payload) = body.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "got {head:?}");
    assert!(head.contains("Content-Type: text/plain"));

    // The exposition parses: every line is a comment or `name[{labels}] value`.
    let mut families = std::collections::BTreeSet::new();
    for line in payload.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            families.insert(parts.next().expect("family name").to_string());
            assert!(
                matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                "known type: {line:?}"
            );
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        assert!(
            value.parse::<f64>().is_ok(),
            "numeric sample value: {line:?}"
        );
        let name = series.split('{').next().expect("series name");
        assert!(
            name.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
            "metric name charset: {name:?}"
        );
    }
    for family in [
        "dego_commands_total",
        "dego_get_hits_total",
        "dego_shard_queue_depth",
        "dego_shard_ack_us",
        "dego_mw_traced_total",
        "dego_mw_layer_admission_us",
        "dego_mw_slowlog_total",
    ] {
        assert!(families.contains(family), "family {family} exposed");
    }
    // Histogram series carry cumulative le buckets ending at +Inf.
    assert!(payload.contains("dego_mw_layer_admission_us_bucket"));
    assert!(payload.contains("le=\"+Inf\""));
    // Per-shard series are labelled by shard index.
    assert!(payload.contains("dego_shard_queue_depth{shard=\"0\"}"));

    let miss = http_get(metrics_addr, "/nope");
    assert!(miss.starts_with("HTTP/1.0 404"), "got {miss:?}");

    server.shutdown();
}

/// The tentpole end to end: a seeded slow write's trace tree crosses
/// the conn-thread/shard-owner boundary — the captured tree carries
/// both a conn-side layer segment and the shard's queue-wait and apply
/// segments, and the store-side time accounts for most of the total.
#[test]
fn trace_tree_crosses_the_shard_boundary() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1; // every command traced
    let server = spawn(ServerConfig {
        shards: shards(1),
        capacity: 256,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    // The shard applies 30 ms late: the tree's apply segment must
    // own that stall.
    server.set_shard_delay(Some(Duration::from_millis(30)));
    let mut c = connect(&server);
    c.set("slow", "v").expect("slow set");

    assert!(c.trace_len().expect("trace len") >= 1);
    let entries = c.trace_get().expect("trace get");
    let tree = entries
        .iter()
        .find(|line| line.contains("verb=SET"))
        .unwrap_or_else(|| panic!("no SET tree in {entries:?}"));
    // Conn-thread segment and both store-side segments, in one tree.
    assert!(tree.contains("conn/"), "conn-side segment in {tree:?}");
    assert!(tree.contains("shard0/queue:"), "queue segment in {tree:?}");
    assert!(tree.contains("shard0/apply:"), "apply segment in {tree:?}");

    // The segments must account for the elapsed total: parse
    // `total_us=N` and the `span=` breakdown, then check the sum lands
    // within [50%, 110%] of the end-to-end time (the apply segment
    // alone owns the 30 ms stall, so 50% is a loose floor).
    let total_us: u64 = tree
        .split_whitespace()
        .find_map(|f| f.strip_prefix("total_us="))
        .expect("total_us field")
        .parse()
        .expect("numeric total");
    let span = tree
        .split_whitespace()
        .find_map(|f| f.strip_prefix("span="))
        .expect("span field");
    let segment_sum: u64 = span
        .split(',')
        .map(|seg| {
            seg.rsplit_once(':')
                .expect("thread/name:us segment")
                .1
                .parse::<u64>()
                .expect("numeric segment")
        })
        .sum();
    assert!(
        segment_sum * 2 >= total_us && segment_sum <= total_us + total_us / 10,
        "segments sum to {segment_sum} µs of total {total_us} µs: {tree:?}"
    );
    assert!(
        total_us >= 30_000,
        "the 30 ms stall is inside the total: {total_us}"
    );

    c.trace_reset().expect("trace reset");
    assert_eq!(c.trace_len().expect("len after reset"), 0);
    assert!(c.trace_get().expect("get after reset").is_empty());
    server.shutdown();
}

/// A span-sampled burst hands its writes over as one run, yet the tree
/// still carries one store segment per mutation, and each queue wait
/// is measured from the run's publish: behind a 5 ms apply stall the
/// k-th mutation of the run has waited for the k before it.
#[test]
fn sampled_burst_keeps_one_store_segment_per_mutation() {
    const WRITES: usize = 8;
    const STALL_US: u64 = 5_000;
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: 1, // every segment from shard0, in issue order
        capacity: 256,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(Duration::from_micros(STALL_US)));
    let mut c = connect(&server);
    let burst: Vec<String> = (0..WRITES).map(|i| format!("SET run{i} v")).collect();
    for reply in c.pipeline(&burst).expect("burst") {
        assert_eq!(reply, ClientReply::Status("OK".into()));
    }
    let entries = c.trace_get().expect("trace get");
    let tree = entries
        .iter()
        .find(|line| line.contains(&format!("burst={WRITES} ")))
        .unwrap_or_else(|| panic!("no burst tree in {entries:?}"));
    let segment = |name: &str| -> Vec<u64> {
        let span = tree.split("span=").nth(1).expect("span field");
        span.split(',')
            .filter_map(|seg| seg.strip_prefix(name))
            .map(|us| us.trim().parse().expect("numeric segment"))
            .collect()
    };
    let (queue, apply) = (segment("shard0/queue:"), segment("shard0/apply:"));
    assert_eq!(
        apply.len(),
        WRITES,
        "one apply segment per mutation: {tree:?}"
    );
    assert_eq!(
        queue.len(),
        WRITES,
        "one queue segment per mutation: {tree:?}"
    );
    for (k, waited) in queue.iter().enumerate() {
        assert!(
            *waited >= k as u64 * STALL_US,
            "mutation {k} waited {waited} µs since the publish: {tree:?}"
        );
    }
    server.shutdown();
}

/// `STATS RESET` zeroes both planes over the wire: server counters,
/// shard telemetry and the middleware block all restart, while the
/// slowlog (its own `RESET` verb) keeps its entries.
#[test]
fn stats_reset_zeroes_both_planes_over_the_wire() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    middleware.trace.slowlog_threshold_us = 0; // capture everything
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);
    for i in 0..8 {
        c.set(&format!("r{i}"), "v").expect("set");
        let _ = c.get(&format!("r{i}")).expect("get");
    }
    let stats = c.stats_map().expect("stats before reset");
    assert!(lookup(&stats, "mutations") >= 8);
    assert!(lookup(&stats, "applied") >= 8);
    assert!(lookup(&stats, "mw_traced") >= 16);
    // The window width is reported; the mw_* percentiles are
    // lifetime-only, so they have no `_total` twin.
    assert!(stats.contains_key("mw_window_secs"), "window width line");
    assert!(
        !stats.contains_key("mw_read_p99_us_total"),
        "no lifetime twin"
    );
    let slow_before = c.slowlog_len().expect("slowlog len");
    assert!(slow_before >= 1, "threshold 0 captures everything");

    c.stats_reset().expect("stats reset");

    let stats = c.stats_map().expect("stats after reset");
    assert_eq!(lookup(&stats, "mutations"), 0, "server plane zeroed");
    assert_eq!(lookup(&stats, "applied"), 0, "shard applied re-based");
    assert_eq!(lookup(&stats, "gets"), 0);
    // Only the RESET itself and this STATS have passed through the
    // trace layer since the zeroing.
    assert!(lookup(&stats, "mw_traced") <= 2, "middleware plane zeroed");
    let shard_stats = c.stats_shards().expect("stats shards after reset");
    for shard in 0..server.shards() {
        assert_eq!(lookup(&shard_stats, &format!("shard{shard}_enqueued")), 0);
    }
    // The slowlog ring is owned by SLOWLOG RESET, not STATS RESET.
    assert!(
        c.slowlog_len().expect("slowlog survives") >= slow_before,
        "slowlog untouched by STATS RESET"
    );
    server.shutdown();
}

/// A server with the metrics responder and `layers` for a stack.
fn scraped_server(layers: &str) -> ServerHandle {
    let mut middleware = MiddlewareConfig::none();
    middleware.layers = MiddlewareConfig::parse_layers(layers).expect("layer list");
    spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        middleware,
        metrics_addr: Some("127.0.0.1:0".parse().expect("literal addr")),
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// `STATS` shows, and `STATS RESET` zeroes, the whole pipeline plane
/// whatever the stack. A rate-limit + auth stack has no trace layer,
/// yet its `STATS` carries every `mw_*` row once and its reset reaches
/// `/metrics` too; the `STATS` and `STATS SHARDS` name sets of the
/// empty, this partial and the full stack are one.
#[test]
fn every_stack_shows_and_resets_the_whole_pipeline_plane() {
    let server = scraped_server("ratelimit,auth");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");
    let mut c = connect(&server);
    for i in 0..8 {
        c.set(&format!("p{i}"), "v").expect("set");
        let _ = c.get(&format!("p{i}")).expect("get");
    }
    let stats = line_names(&mut c, "STATS");
    for row in PipelineMetrics::ROWS {
        let hits = stats.iter().filter(|n| *n == row.stat).count();
        assert_eq!(hits, 1, "{} is one STATS line", row.stat);
    }
    let stats = c.stats_map().expect("stats");
    assert_eq!(lookup(&stats, "mw_depth"), 2);
    assert!(
        lookup(&stats, "mw_rate_admitted") > 0,
        "rate layer admitted"
    );

    c.stats_reset().expect("stats reset");
    // The RESET's own tail and the STATS that observes it are counted.
    let admitted = lookup(
        &c.stats_map().expect("stats after reset"),
        "mw_rate_admitted",
    );
    assert!(
        admitted <= 4,
        "STATS RESET zeroed the rate plane: {admitted}"
    );
    let scraped = sample(
        &http_get(metrics_addr, "/metrics"),
        "dego_mw_rate_admitted_total",
    );
    assert!(scraped <= 4, "and /metrics shows it: {scraped}");

    let names = |c: &mut Client| {
        ["STATS", "STATS SHARDS"]
            .map(|verb| line_names(c, verb).into_iter().collect::<BTreeSet<_>>())
    };
    let partial = names(&mut c);
    server.shutdown();
    for layers in ["none", "full"] {
        let server = scraped_server(layers);
        assert_eq!(names(&mut connect(&server)), partial, "{layers} stack");
        server.shutdown();
    }
}

/// `GET /trace` on the metrics endpoint serves the flight recorder as
/// JSON, store-side segments included.
#[test]
fn trace_endpoint_serves_flight_recorder_json() {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: shards(1),
        capacity: 256,
        middleware,
        metrics_addr: Some("127.0.0.1:0".parse().expect("literal addr")),
        ..ServerConfig::default()
    })
    .expect("server boots");
    server.set_shard_delay(Some(Duration::from_millis(20)));
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");
    let mut c = connect(&server);
    c.set("jsonslow", "v").expect("set");

    let body = http_get(metrics_addr, "/trace");
    let (head, payload) = body.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "got {head:?}");
    assert!(head.contains("Content-Type: application/json"));
    let payload = payload.trim();
    assert!(
        payload.starts_with("{\"entries\":[") && payload.ends_with("]}"),
        "JSON envelope: {payload:?}"
    );
    assert!(
        payload.contains("\"spans\":["),
        "span array present: {payload:?}"
    );
    assert!(
        payload.contains("\"thread\":\"shard0\"") && payload.contains("\"name\":\"queue_wait\""),
        "store-side segment crossed into the JSON: {payload:?}"
    );
    assert!(payload.contains("\"verb\":\"SET\""), "got {payload:?}");
    // No windowed gauge family rides the Prometheus exposition.
    let metrics = http_get(metrics_addr, "/metrics");
    assert!(!metrics.contains("dego_mw_p99_us_window"));
    assert!(metrics.contains("dego_mw_trace_total"));
    server.shutdown();
}

/// A full-stack server with the metrics responder, after a little
/// traffic of every kind: singletons, a pipelined burst, a miss.
fn observed_server() -> (ServerHandle, Client) {
    let mut middleware = MiddlewareConfig::full();
    middleware.trace.sample_every = 1;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        middleware,
        metrics_addr: Some("127.0.0.1:0".parse().expect("literal addr")),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = connect(&server);
    for i in 0..16 {
        c.set(&format!("d{i}"), "v").expect("set");
        let _ = c.get(&format!("d{i}")).expect("get");
    }
    let _ = c.get("absent").expect("miss");
    c.pipeline(["SET p1 v", "SET p2 v", "GET p1"])
        .expect("burst");
    (server, c)
}

/// The `name` of every `name=value` line of an array reply, in order.
fn line_names(c: &mut Client, verb: &str) -> Vec<String> {
    match c.request(verb).expect("reply") {
        ClientReply::Array(lines) => lines
            .iter()
            .map(|l| l.split_once('=').expect("name=value").0.to_string())
            .collect(),
        other => panic!("expected an array for {verb}, got {other:?}"),
    }
}

/// The `# TYPE` family names of an exposition.
fn families(exposition: &str) -> Vec<&str> {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().expect("family name"))
        .collect()
}

/// The sample of an unlabelled family.
fn sample(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{family} ")))
        .unwrap_or_else(|| panic!("no sample of {family}"))
        .parse()
        .expect("numeric sample")
}

/// The declaration is the contract: every row of the three declared
/// planes is one `STATS` (or `STATS SHARDS`) line and one `/metrics`
/// family under its derived name, with the row's help and kind — and
/// `STATS RESET` zeroes exactly the rows that say so.
#[test]
fn every_declared_row_is_on_both_surfaces() {
    let (server, mut c) = observed_server();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");
    let unlabelled: Vec<&Row> = [&SHARDS, &KEYS]
        .into_iter()
        .chain(ServerStats::ROWS)
        .chain(PipelineMetrics::ROWS)
        .collect();
    assert!(
        unlabelled.len() > 40 && SHARD_ROWS.len() == 2,
        "declarations found"
    );

    let stats = line_names(&mut c, "STATS");
    for row in &unlabelled {
        let hits = stats.iter().filter(|n| *n == row.stat).count();
        assert_eq!(hits, 1, "{} is one STATS line", row.stat);
    }
    let shard_stats = line_names(&mut c, "STATS SHARDS");
    for row in SHARD_ROWS {
        for shard in 0..server.shards() {
            let name = row.stat.replace("{}", &shard.to_string());
            let hits = shard_stats.iter().filter(|n| **n == name).count();
            assert_eq!(hits, 1, "{name} is one STATS SHARDS line");
        }
    }

    let before = http_get(metrics_addr, "/metrics");
    for row in unlabelled.iter().copied().chain(SHARD_ROWS) {
        let family = row.family();
        let kind = match row.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        let help = format!("# HELP {family} {}", row.help.trim());
        let kind = format!("# TYPE {family} {kind}");
        assert_eq!(before.lines().filter(|l| *l == help).count(), 1, "{help}");
        assert_eq!(before.lines().filter(|l| *l == kind).count(), 1, "{kind}");
        let headers = |l: &&str| l.starts_with(&format!("# HELP {family} "));
        assert_eq!(
            before.lines().filter(headers).count(),
            1,
            "one HELP for {family}"
        );
    }

    let applied = sample(&before, "dego_applied_total");
    assert!(applied >= 18, "every SET applied: {applied}");
    assert!(lookup(&c.stats_map().expect("stats"), "commands") >= 35);
    c.stats_reset().expect("stats reset");
    // Over the wire a row cannot read exactly 0: the tail of the RESET
    // and the STATS that observes it are themselves counted.
    let stats = c.stats_map().expect("stats after reset");
    for row in unlabelled.iter().filter(|row| row.resets) {
        let value = lookup(&stats, row.stat);
        assert!(
            value <= 4,
            "{} zeroed by STATS RESET, reads {value}",
            row.stat
        );
    }
    let shard_stats = c.stats_shards().expect("stats shards after reset");
    for row in SHARD_ROWS.iter().filter(|row| row.resets) {
        for shard in 0..server.shards() {
            let name = row.stat.replace("{}", &shard.to_string());
            assert_eq!(lookup(&shard_stats, &name), 0, "{name} zeroed");
        }
    }
    let after = http_get(metrics_addr, "/metrics");
    assert!(
        sample(&after, "dego_applied_total") >= applied,
        "a Prometheus counter stays monotonic across STATS RESET"
    );
    assert_eq!(
        sample(&after, "dego_mutations_total"),
        0,
        "reset shows here too"
    );
    server.shutdown();
}

/// The `STATS` names of a full-stack server at the parent of the PR
/// that declared the metrics once.
#[rustfmt::skip]
const STATS_NAMES: &[&str] = &[
    "shards", "keys", "connections", "commands", "gets", "get_hits", "mutations",
    "applied", "timeline_reads", "errors", "accept_errors", "shard_batches",
    "idle_closed", "loop_wakeups", "cas_failures", "lock_spins", "rmw_ops", "mw_depth",
    "mw_window_secs", "mw_traced", "mw_read_p50_us", "mw_read_p99_us",
    "mw_write_p50_us", "mw_write_p99_us", "mw_batches",
    "mw_batch_commands", "mw_batch_p99_us",
    "mw_rate_admitted", "mw_rate_rejected", "mw_rate_refilled", "mw_auth_admitted",
    "mw_auth_denied", "mw_auth_logins", "mw_auth_reloads", "mw_deadline_checked",
    "mw_deadline_missed", "mw_breaker_checked", "mw_breaker_rejected",
    "mw_breaker_trips", "mw_breaker_recoveries", "mw_breaker_probes",
    "mw_breaker_read_state", "mw_breaker_write_state", "mw_shed_checked",
    "mw_shed_shed", "mw_ttl_checked", "mw_ttl_armed", "mw_ttl_expired",
    "mw_spans_sampled", "mw_trace_us_p50", "mw_trace_us_p99", "mw_breaker_us_p50",
    "mw_breaker_us_p99", "mw_deadline_us_p50", "mw_deadline_us_p99",
    "mw_auth_us_p50", "mw_auth_us_p99", "mw_ratelimit_us_p50", "mw_ratelimit_us_p99",
    "mw_shed_us_p50", "mw_shed_us_p99", "mw_ttl_us_p50", "mw_ttl_us_p99",
    "mw_slowlog_len", "mw_slowlog_total",
    "mw_trace_len", "mw_trace_total",
];

/// Its `STATS SHARDS` names after the leading `shards` (`{}`: the shard).
#[rustfmt::skip]
const SHARD_STATS_NAMES: &[&str] = &[
    "shard{}_queue_depth", "shard{}_enqueued", "shard{}_drained_batches",
    "shard{}_batch_p50", "shard{}_batch_p99", "shard{}_ack_p50_us", "shard{}_ack_p99_us",
    "shard{}_ack_p50_us_total", "shard{}_ack_p99_us_total",
];

/// And its `/metrics` families — but for the three the naming rule
/// renamed: `dego_mw_shed_total`, `dego_mw_flight_len` and
/// `dego_mw_flight_total` are `dego_mw_shed_shed_total`,
/// `dego_mw_trace_len` and `dego_mw_trace_total` here.
#[rustfmt::skip]
const FAMILIES: &[&str] = &[
    "dego_ready", "dego_connections_total", "dego_commands_total", "dego_gets_total",
    "dego_get_hits_total", "dego_mutations_total", "dego_applied_total",
    "dego_timeline_reads_total", "dego_errors_total", "dego_accept_errors_total",
    "dego_shard_batches_total", "dego_idle_closed_total", "dego_loop_wakeups_total",
    "dego_cas_failures_total", "dego_lock_spins_total", "dego_rmw_ops_total",
    "dego_shards", "dego_keys", "dego_shard_queue_depth", "dego_shard_enqueued_total",
    "dego_shard_drained_batch_size", "dego_shard_ack_us", "dego_mw_depth",
    "dego_mw_traced_total", "dego_mw_read_us", "dego_mw_write_us",
    "dego_mw_control_us", "dego_mw_batches_total", "dego_mw_batch_commands_total",
    "dego_mw_batch_us", "dego_mw_rate_admitted_total", "dego_mw_rate_rejected_total",
    "dego_mw_rate_refilled_total", "dego_mw_auth_admitted_total",
    "dego_mw_auth_denied_total", "dego_mw_auth_logins_total",
    "dego_mw_auth_reloads_total", "dego_mw_deadline_checked_total",
    "dego_mw_deadline_missed_total", "dego_mw_breaker_checked_total",
    "dego_mw_breaker_rejected_total", "dego_mw_breaker_trips_total",
    "dego_mw_breaker_recoveries_total", "dego_mw_breaker_probes_total",
    "dego_mw_breaker_state", "dego_mw_shed_checked_total", "dego_mw_shed_shed_total",
    "dego_mw_ttl_checked_total", "dego_mw_ttl_armed_total",
    "dego_mw_ttl_expired_total", "dego_mw_spans_sampled_total",
    "dego_mw_layer_admission_us", "dego_mw_slowlog_len", "dego_mw_slowlog_total",
    "dego_mw_trace_len", "dego_mw_trace_total", "dego_mw_window_seconds",
];

/// Both surfaces serve exactly the names they served before the
/// metrics were declared once: a dropped, doubled or misspelt line is
/// a failure here, not a review comment.
#[test]
fn name_sets_are_the_parents_but_for_three_renamed_families() {
    let (server, mut c) = observed_server();
    let set = |names: Vec<String>| -> BTreeSet<String> {
        let unique: BTreeSet<String> = names.iter().cloned().collect();
        assert_eq!(unique.len(), names.len(), "no name twice in {names:?}");
        unique
    };
    let want: BTreeSet<String> = STATS_NAMES.iter().map(|n| n.to_string()).collect();
    let stats = line_names(&mut c, "STATS");
    let mw = stats
        .iter()
        .position(|n| n.starts_with("mw_"))
        .expect("mw block");
    assert!(
        stats[mw..].iter().all(|n| n.starts_with("mw_")),
        "the server block precedes the mw_* block: {stats:?}"
    );
    assert_eq!(set(stats), want);
    let want: BTreeSet<String> = (0..server.shards())
        .flat_map(|i| {
            SHARD_STATS_NAMES
                .iter()
                .map(move |n| n.replace("{}", &i.to_string()))
        })
        .chain(["shards".to_string()])
        .collect();
    assert_eq!(set(line_names(&mut c, "STATS SHARDS")), want);
    let exposition = http_get(server.metrics_addr().expect("configured"), "/metrics");
    let want: BTreeSet<String> = FAMILIES.iter().map(|n| n.to_string()).collect();
    let got = families(&exposition)
        .iter()
        .map(|n| n.to_string())
        .collect();
    assert_eq!(set(got), want);
    server.shutdown();
}

/// The metrics responder bounds the request line in size and in time:
/// neither a newline-free flood nor a one-byte drip keeps it from
/// serving the next scrape.
#[test]
fn metrics_responder_bounds_the_request_line() {
    let (server, _c) = observed_server();
    let addr = server.metrics_addr().expect("metrics endpoint configured");

    // 1 MiB without a newline: a 400 (or a reset, if the close beats
    // the rest of the flood), never an unbounded buffer.
    let mut flood = TcpStream::connect(addr).expect("connect");
    let _ = flood.write_all(&vec![b'x'; 1 << 20]);
    let mut answer = String::new();
    let _ = flood.read_to_string(&mut answer);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.0 400"),
        "got {answer:?}"
    );
    assert!(http_get(addr, "/metrics").starts_with("HTTP/1.0 200 OK"));

    // One byte every 300 ms, for longer than anyone should wait: the
    // responder gives the whole line 2 s, not each read.
    let (dripping, first_byte) = std::sync::mpsc::channel();
    let drip = std::thread::spawn(move || {
        let mut socket = TcpStream::connect(addr).expect("connect");
        for _ in 0..20 {
            if socket.write_all(b"G").is_err() {
                break;
            }
            let _ = dripping.send(());
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    first_byte
        .recv()
        .expect("the drip is in the accept queue first");
    let asked = Instant::now();
    assert!(http_get(addr, "/metrics").starts_with("HTTP/1.0 200 OK"));
    assert!(
        asked.elapsed() < Duration::from_secs(4),
        "the scrape waited {:?} behind the drip",
        asked.elapsed()
    );
    drip.join().expect("drip thread");
    server.shutdown();
}
