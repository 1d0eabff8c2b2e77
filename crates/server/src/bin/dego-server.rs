//! Standalone server: `dego-server [addr] [flags]` (default
//! 127.0.0.1:7878). Runs until killed; state is in-memory only.
//! `SIGTERM` drains gracefully: readiness flips (`READY` answers
//! `-ERR NOTREADY`, `/ready` answers 503), the listener closes, every
//! in-flight burst finishes and the shard queues flush, then the
//! process exits 0 — no acknowledged write is lost.
//!
//! Flags:
//!
//! * `--shards N` — storage shards (default 4)
//! * `--middleware SPEC` — `none` (default), `full`, or a comma list
//!   of `trace,breaker,deadline,auth,ratelimit,shed,ttl`
//! * `--auth-token NAME:TOKEN:ROLE` — add a token (repeatable; roles:
//!   `none`, `readonly`, `readwrite`)
//! * `--anon-role ROLE` — role of unauthenticated sessions
//! * `--rate-burst N` / `--rate-per-sec N` — token-bucket tuning
//! * `--deadline-read-us N` / `--deadline-write-us N` — class budgets
//! * `--breaker-failures N` — consecutive deadline/ack-timeout
//!   failures that trip a class's circuit breaker (0 = disabled,
//!   the default)
//! * `--breaker-cooldown-ms N` / `--breaker-probes N` — open-state
//!   cooldown before half-open, and the half-open probe quota
//! * `--shed-queue-depth N` / `--shed-ack-p99-us N` — shed writes when
//!   their target shard's queue depth or windowed ack p99 crosses the
//!   threshold (0 = signal disabled; both 0 — the default — disables
//!   shedding)
//! * `--shard-delay-ms N` — chaos hook: every shard owner sleeps this
//!   long before applying each mutation (stuck-shard drills; 0 = off)
//! * `--trace-sample N` — sample per-layer span costs 1-in-N (0 = off,
//!   default 64)
//! * `--slowlog-threshold-us N` / `--slowlog-capacity N` — slowlog ring
//!   tuning (0 threshold captures everything, 0 capacity disables)
//! * `--trace-capacity N` / `--trace-threshold-us N` — flight-recorder
//!   ring tuning for sampled trace trees (`TRACE GET`; 0 capacity
//!   disables, 0 threshold keeps every sampled tree, default 64/0)
//! * `--stats-window-secs N` — rolling window of the shard ack
//!   latency, `STATS SHARDS`' `shard<i>_ack_p50_us`/`_p99_us` (0 =
//!   lifetime only, default 60; refused together with
//!   `--shed-ack-p99-us`, which reads the windowed p99); every other
//!   percentile is lifetime-only
//! * `--metrics-addr ADDR` — serve Prometheus text exposition at
//!   `http://ADDR/metrics` and flight-recorder JSON at
//!   `http://ADDR/trace` (off by default)
//! * `--event-loops N` — event-loop thread count (0 = one per core,
//!   floored at two, the default)
//! * `--idle-timeout-ms N` — event loops close connections idle this
//!   long with nothing in flight (0 = never, the default)
//! * `--ack-timeout-ms N` — overall shard-ack deadline per burst/fan-out
//!
//! Every flag takes a value; an unknown flag prints the usage and
//! exits 2. There is one server configuration: epoll event loops, one
//! middleware chain type whatever `--middleware` names (absent layers
//! pass through), batched pipelining.

use dego_server::{spawn, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn usage_exit(err: &str) -> ! {
    eprintln!("dego-server: {err}");
    eprintln!(
        "usage: dego-server [addr] [--shards N] [--middleware none|full|LAYERS] \
         [--auth-token NAME:TOKEN:ROLE] [--anon-role ROLE] [--rate-burst N] \
         [--rate-per-sec N] [--deadline-read-us N] [--deadline-write-us N] \
         [--breaker-failures N] [--breaker-cooldown-ms N] [--breaker-probes N] \
         [--shed-queue-depth N] [--shed-ack-p99-us N] [--shard-delay-ms N] \
         [--trace-sample N] [--slowlog-threshold-us N] [--slowlog-capacity N] \
         [--trace-capacity N] [--trace-threshold-us N] [--stats-window-secs N] \
         [--metrics-addr ADDR] [--event-loops N] [--idle-timeout-ms N] [--ack-timeout-ms N]"
    );
    std::process::exit(2);
}

/// Set once the process receives `SIGTERM`; the main thread polls it
/// and runs the drain. (A signal handler may only do async-signal-safe
/// work — flag-and-poll keeps the actual drain on a normal thread.)
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::Release);
}

const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)` — declared directly so the binary needs no
    /// libc crate; the handler installed is async-signal-safe (one
    /// relaxed store).
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut shard_delay = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            let flag = arg.as_str();
            let value = it
                .next()
                .unwrap_or_else(|| usage_exit(&format!("flag {flag} needs a value")));
            match config.middleware.apply_flag(flag, value) {
                Ok(true) => {}
                Ok(false) if flag == "--shards" => match value.parse() {
                    Ok(n) if n > 0 => config.shards = n,
                    _ => usage_exit(&format!("bad shard count {value:?}")),
                },
                Ok(false) if flag == "--shard-delay-ms" => match value.parse() {
                    Ok(0u64) => shard_delay = None,
                    Ok(ms) => shard_delay = Some(std::time::Duration::from_millis(ms)),
                    _ => usage_exit(&format!("bad shard delay {value:?}")),
                },
                Ok(false) if flag == "--event-loops" => match value.parse() {
                    Ok(n) => config.event_loops = n,
                    _ => usage_exit(&format!("bad event-loop count {value:?}")),
                },
                Ok(false) if flag == "--idle-timeout-ms" => match value.parse() {
                    Ok(0u64) => config.idle_timeout = None,
                    Ok(ms) => config.idle_timeout = Some(std::time::Duration::from_millis(ms)),
                    _ => usage_exit(&format!("bad idle timeout {value:?}")),
                },
                Ok(false) if flag == "--ack-timeout-ms" => match value.parse() {
                    Ok(ms) if ms > 0u64 => {
                        config.ack_timeout = std::time::Duration::from_millis(ms)
                    }
                    _ => usage_exit(&format!("bad ack timeout {value:?}")),
                },
                Ok(false) if flag == "--metrics-addr" => match value.parse() {
                    Ok(addr) => config.metrics_addr = Some(addr),
                    Err(e) => usage_exit(&format!("bad metrics address {value:?}: {e}")),
                },
                Ok(false) => usage_exit(&format!("unknown flag {flag}")),
                Err(e) => usage_exit(&e),
            }
        } else {
            addr = arg.clone();
        }
    }

    config.addr = addr.parse().unwrap_or_else(|e| {
        usage_exit(&format!("bad listen address {addr:?}: {e}"));
    });
    // Before the listener exists: a supervisor that reacts to the
    // `listening` line must never find the default action in force.
    // SAFETY: `on_term` only stores to an atomic (async-signal-safe).
    unsafe {
        signal(SIGTERM, on_term);
    }
    let server = spawn(config).unwrap_or_else(|e| {
        eprintln!("failed to start on {addr}: {e}");
        std::process::exit(1);
    });
    server.set_shard_delay(shard_delay);
    println!(
        "dego-server listening on {} ({} shards, {} middleware layers)",
        server.local_addr(),
        server.shards(),
        server.stack().depth()
    );
    if let Some(addr) = server.metrics_addr() {
        println!("metrics exposition at http://{addr}/metrics");
    }

    // Graceful drain on SIGTERM: flip readiness, stop accepting, let
    // in-flight bursts finish and the shard queues flush, exit 0.
    while !TERM.load(Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("dego-server: SIGTERM received, draining");
    server.shutdown();
    println!("dego-server: drain complete");
    std::process::exit(0);
}
