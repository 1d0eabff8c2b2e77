//! A minimal Prometheus text-exposition responder.
//!
//! `--metrics-addr` spawns one thread running an HTTP/1.0 accept loop:
//! `GET /metrics` renders a point-in-time snapshot of every server and
//! middleware counter in the Prometheus text format (version 0.0.4);
//! `GET /trace` renders the flight recorder's captured trace trees as
//! JSON (slowest first); `GET /health` is liveness (200 as long as the
//! process serves); `GET /ready` is readiness (200 normally, 503 once
//! a drain has begun — the signal an orchestrator uses to stop routing
//! new traffic here). Each closes the connection after one reply;
//! anything else is a 404. One request per connection, served
//! sequentially — a scrape endpoint, not a web server. No HTTP library
//! is involved: the protocol surface is a request line in, a
//! `Content-Length`-framed body out.

use crate::stats::{self, ServerStats, View};
use crate::store::Store;
use dego_middleware::{Stack, Surface};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A client gets this long, in all, to send its request line before
/// the responder hangs up (one stuck scraper must not wedge the loop).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// And the line may be this long: a peer streaming bytes without a
/// newline gets a 400, not an ever-growing buffer.
const MAX_REQUEST_LINE: usize = 8 * 1024;

/// And this long to drain the reply. Without a write timeout a scraper
/// that stops reading mid-body pins the responder in `write` — during a
/// drain that keeps `/ready` probes from being answered, so the
/// orchestrator never sees the 503.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Spawn the responder thread on its bound `listener`. The thread
/// exits once `stop` is up and the accept loop is poked with a
/// throwaway connection. `stop` is deliberately NOT the server's
/// shutdown flag: during a drain the responder keeps serving probes
/// (`/ready` answering 503 is how an orchestrator sees the drain) and
/// only goes down after the connection plane has flushed.
pub(crate) fn spawn_metrics(
    listener: TcpListener,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stack: Arc<Stack>,
    stop: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("dego-metrics".into())
        .spawn(move || loop {
            let socket = match listener.accept() {
                Ok((socket, _)) => socket,
                Err(_) => {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    // Accept failures (fd pressure) must not busy-spin.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if stop.load(Ordering::Acquire) {
                return;
            }
            let _ = serve_one(socket, &store, &stats, &stack, &ready);
        })
}

/// Read the request line: `None` when the peer sent [`MAX_REQUEST_LINE`]
/// bytes without ending it. The deadline covers the whole line, not each
/// read, so a peer dripping a byte at a time cannot hold the responder
/// (and with it `/ready` during a drain) past [`READ_TIMEOUT`].
fn read_request_line(mut socket: &TcpStream) -> std::io::Result<Option<String>> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut line = Vec::new();
    let mut chunk = [0u8; 1024];
    while line.len() < MAX_REQUEST_LINE {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        socket.set_read_timeout(Some(left))?;
        let n = socket.read(&mut chunk)?;
        line.extend_from_slice(&chunk[..n]);
        if n == 0 || chunk[..n].contains(&b'\n') {
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
    }
    Ok(None)
}

/// Answer one scrape: read the request line, write the exposition (or
/// an error status), close.
fn serve_one(
    mut socket: TcpStream,
    store: &Store,
    stats: &ServerStats,
    stack: &Stack,
    ready: &AtomicBool,
) -> std::io::Result<()> {
    socket.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let line = read_request_line(&socket)?;
    let mut parts = line.as_deref().unwrap_or("").split_whitespace();
    let is_get = parts.next() == Some("GET");
    let path = parts.next().unwrap_or("").trim_end_matches('/');
    let plain = "text/plain";
    let (status, content_type, body) = match path {
        _ if line.is_none() => ("400 Bad Request", plain, "request line too long\n".into()),
        // Liveness: the responder thread answering *is* the signal.
        "/health" if is_get => ("200 OK", plain, "ok\n".into()),
        // Readiness: 503 once a drain has begun, so load balancers
        // stop routing new traffic while the queues flush.
        "/ready" if is_get && ready.load(Ordering::Acquire) => ("200 OK", plain, "ready\n".into()),
        "/ready" if is_get => ("503 Service Unavailable", plain, "draining\n".into()),
        "/metrics" if is_get => {
            let (mut text, ready) = (String::new(), ready.load(Ordering::Acquire));
            let out = &mut Surface::Prom(&mut text);
            stats::render(View::Scrape { ready }, stats, store, stack, out);
            ("200 OK", "text/plain; version=0.0.4", text)
        }
        "/trace" if is_get => (
            "200 OK",
            "application/json",
            stack.metrics().trace.render_json(),
        ),
        _ => ("404 Not Found", plain, "not found\n".into()),
    };
    // One write: `write!` on the socket would send each formatted piece
    // on its own, and a peer whose unread bytes turn the close into a
    // reset would get the pieces before the reset — a torn status line.
    let reply = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    socket.write_all(reply.as_bytes())
}
