//! The contract only the `dego-server` *binary* has, driven as a child
//! process over real sockets: flag parsing and its exit codes, the
//! `/health` and `/ready` probes, and the `SIGTERM` drain. Everything
//! the library can show in process lives in the workspace's `tests/`.
//!
//! A child listens on `127.0.0.1:0` (and `--metrics-addr 127.0.0.1:0`)
//! and the bound addresses are read back from the lines it prints, so
//! no port is fixed and booting is an event, not a wait. Every wait
//! below is a bounded poll on a condition the server exports; a child
//! is killed when its [`Server`] guard drops, passing test or not.

use dego_server::{Client, ClientReply};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitStatus, Output, Stdio};
use std::time::Duration;

// The workspace's integration-test helpers (`tests/common`): one copy
// of the bounded poll, the raw HTTP probe and the shard-leg override.
#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{assert_unanswered, error_of, http_get, shards, wait_until};

const BIN: &str = env!("CARGO_BIN_EXE_dego-server");
const ANY_PORT: &str = "127.0.0.1:0";
const SIGTERM: i32 = 15;

extern "C" {
    /// libc `kill(2)`, declared directly like the binary's `signal(2)`.
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A booted child; killed on drop.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The `dego-server listening on …` line.
    banner: String,
    /// The `metrics exposition at …` line, when booted with the flag.
    metrics_banner: Option<String>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Boot the binary on ephemeral ports with `flags`. The CI leg that
    /// sets `DEGO_TEST_SHARDS` funnels the child through that many
    /// owners too (a later `--shards` among `flags` wins).
    fn boot(flags: &[&str]) -> Server {
        let mut child = Command::new(BIN)
            .args([ANY_PORT, "--shards", &shards(4).to_string()])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dego-server");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The guard first: a panic below must not leak the child.
        let mut server = Server {
            child,
            stdout,
            banner: String::new(),
            metrics_banner: None,
        };
        server.banner = server.line();
        if flags.contains(&"--metrics-addr") {
            server.metrics_banner = Some(server.line());
        }
        server
    }

    /// The next line the child prints.
    fn line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("child stdout");
        assert!(!line.is_empty(), "dego-server exited before printing");
        line
    }

    /// Where the child listens, as it printed it.
    fn addr(&self) -> SocketAddr {
        address_after(&self.banner, "listening on ")
    }

    /// Where its metrics responder listens.
    fn metrics(&self) -> SocketAddr {
        let banner = self.metrics_banner.as_ref();
        address_after(banner.expect("booted with --metrics-addr"), "http://")
    }

    fn term(&self) {
        // SAFETY: plain syscall on the pid of a child we still own.
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0);
    }

    /// Wait for the child to exit on its own; its status and whatever
    /// it printed since the last [`Server::line`].
    fn exit(mut self) -> (ExitStatus, String) {
        let mut status = None;
        wait_until("dego-server to exit", || {
            status = self.child.try_wait().expect("try_wait");
            status.is_some()
        });
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("child stdout");
        (status.expect("exited"), rest)
    }
}

/// The socket address that follows `marker` in a line the child printed.
fn address_after(line: &str, marker: &str) -> SocketAddr {
    let (_, tail) = line
        .split_once(marker)
        .unwrap_or_else(|| panic!("no {marker:?} in {line:?}"));
    let end = tail.find([' ', '/', '\n']).unwrap_or(tail.len());
    tail[..end]
        .parse()
        .unwrap_or_else(|e| panic!("address in {line:?}: {e}"))
}

/// The status code the metrics responder answers `GET path` with.
fn status(addr: SocketAddr, path: &str) -> u16 {
    let response = http_get(addr, path);
    let code = response.split_whitespace().nth(1).expect("status code");
    code.parse().expect("numeric status")
}

/// The value of the `/metrics` sample `name` (its labels included).
fn scraped(addr: SocketAddr, name: &str) -> u64 {
    http_get(addr, "/metrics")
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample of {name}"))
}

/// Run the binary to completion (it must refuse to boot).
fn refused(args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(BIN).args(args).output().expect("run");
    (status.code(), String::from_utf8(stderr).expect("utf-8"))
}

/// Every `--flag` the usage text names.
fn usage_flags() -> Vec<String> {
    let (_, usage) = refused(&["--no-such-flag", "1"]);
    let flags: Vec<String> = usage
        .split_whitespace()
        .filter_map(|word| word.strip_prefix("[--"))
        .map(|name| format!("--{name}"))
        .collect();
    assert!(flags.len() > 20, "found the flag list in {usage:?}");
    flags
}

/// Unknown flags — the three A/B flags PR 13 removed among them — a
/// flag without its value and an unparseable listen address are usage
/// errors: exit 2, the cause, the usage text. (The removed flags are
/// spelled as words so a grep for the old names stays empty.)
#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    for words in ["frobnicate", "thread per conn", "dyn stack", "no batch"] {
        let flag = format!("--{}", words.replace(' ', "-"));
        let (code, stderr) = refused(&[ANY_PORT, &flag, "1"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(stderr.contains("usage: dego-server [addr]"), "{stderr}");
    }
    let (code, stderr) = refused(&[ANY_PORT, "--shards"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("flag --shards needs a value"), "{stderr}");
    assert!(stderr.contains("usage: dego-server [addr]"), "{stderr}");
    let (code, stderr) = refused(&["nowhere"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad listen address"), "{stderr}");
}

/// The flags are hand-listed in the usage text and in two `match`es.
/// No flag accepts the value `x`, so `<flag> x` must exit 2 for a
/// reason other than `unknown flag`: a flag the usage names and the
/// parser lacks fails here by name. (The reverse direction is the first
/// assertion of `every_flag_boots_and_takes_effect`.)
#[test]
fn every_usage_flag_is_known_to_the_parser() {
    for flag in usage_flags() {
        let (code, stderr) = refused(&[ANY_PORT, &flag, "x"]);
        let cause = stderr.lines().next().unwrap_or_default();
        assert_eq!(code, Some(2), "{flag} x: {stderr}");
        assert!(cause.starts_with("dego-server: "), "{flag} x: {stderr}");
        assert!(
            !cause.contains("unknown flag"),
            "{flag} is in the usage text only"
        );
    }
}

/// The shed layer reads the windowed ack p99, so arming it with the
/// window off is refused at boot: exit 1, both flags named, no usage.
#[test]
fn shed_on_ack_latency_without_a_window_exits_1() {
    let pair = ["--shed-ack-p99-us", "50000", "--stats-window-secs", "0"];
    let (code, stderr) = refused(&[&[ANY_PORT, "--middleware", "full"][..], &pair[..]].concat());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--shed-ack-p99-us"), "{stderr}");
    assert!(stderr.contains("--stats-window-secs"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    // Without the shed layer nothing reads the figure: the pair boots.
    let server = Server::boot(&pair);
    Client::connect(server.addr())
        .expect("connect")
        .ping()
        .expect("serves");
}

/// One boot with every flag of the usage text, then one drill that
/// shows each taking effect over the wire: an anonymous write refused,
/// a token accepted, stalled writes answered `DEADLINE`, a burst parked
/// behind the stall, a latecomer shed, the class's breaker open, the
/// recording plane's rings and window sized as told, a flooding session
/// rate-limited, a quiet one reaped.
///
/// Four flags are only shown to parse and boot, because observing them
/// needs a fault this drill does not stage: `--deadline-read-us`,
/// `--breaker-probes`, `--shed-ack-p99-us`, `--ack-timeout-ms`.
#[test]
fn every_flag_boots_and_takes_effect() {
    const BURST: usize = 96;
    let flags = [
        ["--shards", "3"],
        ["--middleware", "full"],
        ["--auth-token", "ops:sekrit:readwrite"],
        ["--anon-role", "readonly"],
        ["--rate-burst", "128"],
        ["--rate-per-sec", "4"],
        ["--deadline-read-us", "400000"],
        ["--deadline-write-us", "1000"],
        ["--breaker-failures", "3"],
        ["--breaker-cooldown-ms", "60000"],
        ["--breaker-probes", "2"],
        ["--shed-queue-depth", "4"],
        ["--shed-ack-p99-us", "60000000"],
        ["--shard-delay-ms", "20"],
        ["--trace-sample", "1"],
        ["--slowlog-threshold-us", "0"],
        ["--slowlog-capacity", "3"],
        ["--trace-capacity", "2"],
        ["--trace-threshold-us", "5000"],
        ["--stats-window-secs", "30"],
        ["--metrics-addr", ANY_PORT],
        ["--event-loops", "1"],
        ["--idle-timeout-ms", "1500"],
        ["--ack-timeout-ms", "20000"],
    ];
    // A flag added to the parser and the usage must be added here.
    assert_eq!(
        usage_flags().into_iter().collect::<BTreeSet<_>>(),
        flags.iter().map(|[flag, _]| flag.to_string()).collect(),
        "this boot passes exactly the flags the usage text names"
    );
    let server = Server::boot(flags.as_flattened());
    let session = || {
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .auth("sekrit")
            .expect("--auth-token: the token logs in");
        client
    };

    // --shards, --middleware, --event-loops, --metrics-addr.
    let banner = &server.banner;
    assert!(
        banner.contains("(3 shards, 7 middleware layers)"),
        "{banner}"
    );
    // (A thread names itself once it runs: wait until only the main
    // thread still carries the process's name.)
    let tasks = format!("/proc/{}/task", server.child.id());
    let mut threads: Vec<String> = Vec::new();
    wait_until("every thread to have named itself", || {
        threads = std::fs::read_dir(&tasks)
            .expect("the child's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .collect();
        threads.iter().filter(|n| *n == "dego-server\n").count() == 1
    });
    let named = |prefix: &str| threads.iter().filter(|t| t.starts_with(prefix)).count();
    assert_eq!(
        (named("dego-shard-"), named("dego-loop-")),
        (3, 1),
        "{threads:?}"
    );
    assert_eq!(status(server.metrics(), "/health"), 200);

    // --idle-timeout-ms: this session goes quiet now and is reaped.
    let mut quiet = TcpStream::connect(server.addr()).expect("connect");
    quiet.write_all(b"PING\n").expect("ping");
    quiet.read_exact(&mut [0u8; 6]).expect("+PONG");

    // --anon-role: an unauthenticated session may not write.
    let mut writer = Client::connect(server.addr()).expect("connect");
    let denied = error_of(writer.request("SET k v").expect("reply"));
    assert!(
        denied.starts_with("AUTH ") && denied.contains("readonly"),
        "{denied}"
    );
    writer
        .auth("sekrit")
        .expect("--auth-token: the token logs in");

    // --shard-delay-ms, --deadline-write-us: a write waits out the
    // owner's stall and is told it overran (twice: one short of
    // --breaker-failures).
    for key in ["one", "two"] {
        let missed = error_of(writer.request(&format!("SET {key} v")).expect("reply"));
        assert!(missed.starts_with("DEADLINE SET took "), "{missed}");
    }
    // A burst parks behind the stalled owners.
    for i in 0..BURST {
        writer.send(&format!("SET flag{i} v")).expect("queue");
    }
    writer.flush().expect("one write");
    // --shed-queue-depth: once every queue is that deep, a latecomer's
    // write is refused before it queues.
    let mut late = session();
    wait_until("every shard queue to be 4 deep", || {
        let shards = late.stats_shards().expect("STATS SHARDS");
        let depth = |i: usize| shards[&format!("shard{i}_queue_depth")].parse::<u64>();
        (0..3).all(|i| depth(i).expect("numeric depth") >= 4)
    });
    let shed = error_of(late.request("SET late v").expect("reply"));
    assert!(
        shed.starts_with("SHED shard=") && shed.ends_with("limit=4"),
        "{shed}"
    );
    // The burst is timed over its real wait.
    for _ in 0..BURST {
        let missed = error_of(writer.read_reply().expect("burst reply"));
        assert!(missed.starts_with("DEADLINE batch took "), "{missed}");
    }
    // --breaker-failures, --breaker-cooldown-ms: those overruns opened
    // the write class, for a minute.
    let open = error_of(late.request("SET again v").expect("reply"));
    let retry_us = open.strip_prefix("BREAKER write open retry_us=");
    let retry_us: u64 = retry_us.expect(&open).parse().expect("numeric hint");
    assert!(retry_us > 50_000_000, "{open}");
    // The scrape side saw the same drill.
    let metrics = server.metrics();
    assert!(scraped(metrics, "dego_mw_shed_shed_total") > 0);
    assert_eq!(
        scraped(metrics, "dego_mw_breaker_state{class=\"write\"}"),
        1
    );

    // --stats-window-secs, --trace-sample: every command is sampled,
    // not just each connection's first.
    let stats = late.stats_map().expect("STATS");
    let stat = |name: &str| stats[name].parse::<u64>().expect("numeric stat");
    assert_eq!(stat("mw_window_secs"), 30);
    assert!(
        stat("mw_spans_sampled") > 2 * stat("connections"),
        "{stats:?}"
    );
    // --slowlog-threshold-us 0 keeps fast commands too, in a ring of
    // --slowlog-capacity.
    assert_eq!(late.slowlog_len().expect("SLOWLOG LEN"), 3);
    // --trace-threshold-us keeps only what stalled — three so far, the
    // burst last, none of the fast commands since evicted it — in a
    // ring of --trace-capacity.
    assert!(stat("mw_trace_total") >= 3, "{stats:?}");
    let trees = late.trace_get().expect("TRACE GET");
    assert_eq!(trees.len(), 2, "{trees:?}");
    assert!(trees[0].contains(&format!("burst={BURST} ")), "{trees:?}");

    // --rate-burst, --rate-per-sec: a fresh session's bucket holds 128
    // tokens and refills one per 250 ms.
    let pings = vec!["PING"; 130];
    let replies = Client::connect(server.addr())
        .expect("connect")
        .pipeline(&pings);
    let replies = replies.expect("flood");
    assert!(replies[..128]
        .iter()
        .all(|r| *r == ClientReply::Status("PONG".into())));
    let limited = error_of(replies[129].clone());
    assert_eq!(limited, "RATELIMIT rejected retry_us=250000");

    // --idle-timeout-ms: the quiet session's read ends in a close.
    let patience = Duration::from_secs(8);
    quiet.set_read_timeout(Some(patience)).expect("timeout");
    let closed = quiet.read_to_end(&mut Vec::new());
    assert_eq!(closed.expect("closed, not timed out"), 0);
    assert!(session().stats_map().expect("STATS")["idle_closed"] != "0");
}

/// The probes an orchestrator polls answer on the metrics responder.
#[test]
fn health_and_ready_answer_200() {
    let server = Server::boot(&["--metrics-addr", ANY_PORT]);
    assert!(http_get(server.metrics(), "/health").ends_with("\r\n\r\nok\n"));
    for (path, code) in [("/health", 200), ("/ready", 200), ("/nope", 404)] {
        assert_eq!(status(server.metrics(), path), code, "{path}");
    }
}

/// A supervisor may send `SIGTERM` the moment it has read the
/// `listening` line; the handler is installed before that line is
/// printed, so the signal drains instead of killing.
#[test]
fn sigterm_right_after_the_banner_still_drains() {
    let server = Server::boot(&[]);
    server.term();
    let (status, printed) = server.exit();
    assert_eq!(status.code(), Some(0), "{status:?}");
    assert!(
        printed.ends_with("dego-server: drain complete\n"),
        "{printed:?}"
    );
}

/// The drain drill. 96 writes in one socket write park behind a 30 ms
/// shard stall; a second session's burst parks at a read-after-write
/// barrier behind them, with a `READY` as its tail. `SIGTERM` lands;
/// `/ready` flips to 503 while neither session has been answered (the
/// queues are still flushing); then the barrier's tail reads
/// `-ERR NOTREADY`, every write comes back `+OK`, both sessions are
/// closed, and the process exits 0 by itself.
///
/// (A draining loop closes idle sessions and reads no new input, so a
/// burst begun before the signal is the only place `READY` can still be
/// answered over the wire.)
#[test]
fn sigterm_drains_a_parked_burst_and_exits_0() {
    const BURST: usize = 96;
    // Budgets far past the flush (~3 s on the one-shard leg): only a
    // lost ack could put an `-ERR` among the replies.
    let server = Server::boot(
        &[
            ["--middleware", "full"],
            ["--shard-delay-ms", "30"],
            ["--event-loops", "2"],
            ["--deadline-write-us", "60000000"],
            ["--ack-timeout-ms", "60000"],
            ["--metrics-addr", ANY_PORT],
        ]
        .concat(),
    );
    let metrics = server.metrics();
    assert_eq!(status(metrics, "/ready"), 200);
    let staged = |n: usize| {
        wait_until(&format!("{n} staged mutations"), || {
            scraped(metrics, "dego_mutations_total") == n as u64
        })
    };

    let mut burst = TcpStream::connect(server.addr()).expect("connect");
    let lines: String = (0..BURST).map(|i| format!("SET drain{i} v\n")).collect();
    burst.write_all(lines.as_bytes()).expect("one write");
    staged(BURST);
    let mut bystander = TcpStream::connect(server.addr()).expect("connect");
    bystander
        .write_all(b"SET seen v\nGET seen\nREADY\n")
        .expect("one write");
    staged(BURST + 1);

    server.term();
    wait_until("/ready to answer 503", || status(metrics, "/ready") == 503);
    assert_unanswered(&burst, "the parked burst");
    assert_unanswered(&bystander, "the bystander's barrier");

    let mut replies = String::new();
    bystander
        .read_to_string(&mut replies)
        .expect("until the close");
    assert_eq!(replies, "+OK\n$v\n-ERR NOTREADY draining\n");
    replies.clear();
    burst.read_to_string(&mut replies).expect("until the close");
    assert_eq!(
        replies,
        "+OK\n".repeat(BURST),
        "every write acked, none lost"
    );

    let (status, printed) = server.exit();
    assert_eq!(status.code(), Some(0), "{status:?}");
    assert_eq!(
        printed,
        "dego-server: SIGTERM received, draining\ndego-server: drain complete\n"
    );
}
