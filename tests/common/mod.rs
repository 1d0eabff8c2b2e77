//! Helpers shared by the integration test binaries (each test file
//! pulls this in with `mod common;`, and uses its own subset).
#![allow(dead_code)]

use dego_metrics::rng::XorShift64;
use dego_server::{Client, ClientReply};

/// Shard count for a test server, honoring the CI matrix's
/// `DEGO_TEST_SHARDS` override — the single-shard leg funnels every
/// integration server through one shard-owner thread (the clients=4
/// regression class from PR 2 only reproduced there).
pub fn shards(default: usize) -> usize {
    std::env::var("DEGO_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One raw HTTP/1.0 request to the metrics responder; returns the
/// full response text.
pub fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut socket = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    socket
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut body = String::new();
    socket.read_to_string(&mut body).expect("read response");
    body
}

/// Poll `done` until it holds: an event-driven wait with a bound, for
/// conditions the server exports (a counter, a gauge, a probe).
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The error text of a reply that must be one.
pub fn error_of(reply: ClientReply) -> String {
    match reply {
        ClientReply::Error(message) => message,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// Nothing has reached `socket` yet: the server has not answered `who`.
pub fn assert_unanswered(socket: &std::net::TcpStream, who: &str) {
    socket.set_nonblocking(true).expect("nonblocking");
    match socket.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("{who} was answered too early: {other:?}"),
    }
    socket.set_nonblocking(false).expect("blocking");
}

/// A deterministic pseudo-random script over kv and social verbs (no
/// `STATS` — its counters legitimately depend on how the stream was
/// cut into bursts).
pub fn random_script(seed: u64, len: usize) -> Vec<String> {
    let mut rng = XorShift64::new(seed);
    let mut script = Vec::with_capacity(len);
    for i in 0..len {
        let key = rng.next_bounded(6);
        let user = rng.next_bounded(5);
        let line = match rng.next_bounded(16) {
            0..=3 => format!("GET k{key}"),
            4..=5 => format!("SET k{key} v{i}"),
            6 => format!("DEL k{key}"),
            7 => format!("INCR c{key} {}", rng.next_bounded(9) as i64 - 4),
            8 => format!("ADDUSER {user}"),
            9 => format!("FOLLOW {} {user}", rng.next_bounded(5)),
            10 => format!("UNFOLLOW {} {user}", rng.next_bounded(5)),
            11 => format!("POST {user} {i}"),
            12 => format!("TIMELINE {user}"),
            13 => format!("ISFOLLOWING {} {user}", rng.next_bounded(5)),
            14 => match rng.next_bounded(4) {
                0 => format!("JOIN {user}"),
                1 => format!("LEAVE {user}"),
                2 => format!("INGROUP {user}"),
                _ => format!("PROFILE {user}"),
            },
            _ => match rng.next_bounded(3) {
                0 => "PING".to_string(),
                1 => format!("FOLLOWERS {user}"),
                // Parse errors must keep their positional slot.
                _ => format!("BLORP {i}"),
            },
        };
        script.push(line);
    }
    script
}

/// Drive `script` through `client` in pipelined bursts of pseudo-random
/// sizes, returning the raw reply stream.
pub fn drive(client: &mut Client, script: &[String], seed: u64) -> Vec<ClientReply> {
    let mut rng = XorShift64::new(seed);
    let mut replies = Vec::with_capacity(script.len());
    let mut at = 0;
    while at < script.len() {
        let burst = (1 + rng.next_bounded(48) as usize).min(script.len() - at);
        replies.extend(
            client
                .pipeline(&script[at..at + burst])
                .expect("pipelined burst"),
        );
        at += burst;
    }
    replies
}

/// Drive `script` in lock step — one line, await its reply — so the
/// server executes every command sequentially through the batch-1
/// path: the reference a pipelined run must match byte for byte.
pub fn lock_step(client: &mut Client, script: &[String]) -> Vec<ClientReply> {
    script
        .iter()
        .map(|line| client.request(line).expect("lock-step request"))
        .collect()
}

/// A write-run-heavy script as raw request lines (newline included):
/// runs of 1–64 consecutive `SET`/`INCR`/`DEL`/`FOLLOW`/`POST` — the
/// unit the server hands to its shard owners — each followed directly
/// by one non-mutation: a `GET` of a key the run just wrote, a read of
/// an untouched key, a `TIMELINE`, a `BLORP` parse error or a blank
/// line. The script ends, straight after a last run, with the session
/// closing: `QUIT` for even seeds, a non-UTF-8 line for odd ones.
pub fn write_run_script(seed: u64, runs: usize) -> Vec<Vec<u8>> {
    let mut rng = XorShift64::new(seed);
    let mut script: Vec<String> = (0..5).map(|u| format!("ADDUSER {u}")).collect();
    script.push("FOLLOWERS 0".to_string());
    for run in 0..=runs {
        let mut wrote = None;
        for i in 0..1 + rng.next_bounded(64) {
            let key = rng.next_bounded(6);
            let user = rng.next_bounded(5);
            script.push(match rng.next_bounded(8) {
                0..=2 => {
                    wrote = Some(format!("k{key}"));
                    format!("SET k{key} r{run}i{i}")
                }
                3 => {
                    wrote = Some(format!("c{key}"));
                    format!("INCR c{key} {}", rng.next_bounded(9) as i64 - 4)
                }
                // A counter bump on a string key: an error ack from
                // the shard owner in the middle of a run.
                4 => format!("INCR k{key} 1"),
                5 => {
                    wrote = Some(format!("k{key}"));
                    format!("DEL k{key}")
                }
                6 => format!("FOLLOW {} {user}", rng.next_bounded(5)),
                _ => format!("POST {user} {}", run as u64 * 100 + i),
            });
        }
        if run == runs {
            break;
        }
        script.push(match (run % 5, wrote) {
            (0, Some(key)) => format!("GET {key}"),
            (1, _) => format!("BLORP {run}"),
            (2, _) => String::new(),
            (3, _) => format!("TIMELINE {}", rng.next_bounded(5)),
            _ => "GET untouched".to_string(),
        });
    }
    let mut lines: Vec<Vec<u8>> = script
        .into_iter()
        .map(|line| format!("{line}\n").into_bytes())
        .collect();
    lines.push(if seed.is_multiple_of(2) {
        b"QUIT\n".to_vec()
    } else {
        b"\xff\xfe garbage\n".to_vec()
    });
    lines
}

/// Send raw request `lines` in bursts of `burst()` lines — each burst
/// one socket write, its replies awaited before the next — and return
/// every reply byte up to the server's close. The script must end the
/// session (as [`write_run_script`] does).
pub fn drive_raw(
    addr: std::net::SocketAddr,
    lines: &[Vec<u8>],
    mut burst: impl FnMut() -> usize,
) -> Vec<u8> {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut socket = std::net::TcpStream::connect(addr).expect("connect");
    socket.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(socket.try_clone().expect("clone"));
    let mut replies = Vec::new();
    let mut read_line = |replies: &mut Vec<u8>| -> Option<usize> {
        let at = replies.len();
        match reader.read_until(b'\n', replies) {
            Ok(n) if n > 0 => Some(at),
            _ => None, // closed (or reset): the session is over
        }
    };
    let mut sent = 0;
    'bursts: while sent < lines.len() {
        let chunk = &lines[sent..(sent + burst().max(1)).min(lines.len())];
        sent += chunk.len();
        socket.write_all(&chunk.concat()).expect("write burst");
        // Blank lines are keepalives: no reply to wait for.
        let owed = chunk.iter().filter(|l| !l.trim_ascii().is_empty()).count();
        for _ in 0..owed {
            let Some(at) = read_line(&mut replies) else {
                break 'bursts;
            };
            // `*n` announces n more lines of the same reply.
            if replies[at] == b'*' {
                let header = std::str::from_utf8(&replies[at + 1..]).expect("array header");
                for _ in 0..header.trim().parse::<usize>().expect("array length") {
                    if read_line(&mut replies).is_none() {
                        break 'bursts;
                    }
                }
            }
        }
    }
    let _ = reader.read_to_end(&mut replies);
    replies
}
