//! A small blocking client for the wire protocol, with explicit
//! pipelining support (`send` many, then `read_reply` many).
//!
//! Used by the retwis `NetworkBackend`, the load-generator bench and
//! the integration tests; applications are equally welcome to speak
//! the line protocol directly.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A reply parsed off the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientReply {
    /// `+STATUS`
    Status(String),
    /// `$value`
    Value(String),
    /// `_`
    Nil,
    /// `:n`
    Int(i64),
    /// `-ERR message`
    Error(String),
    /// `*n` plus `n` element lines, returned raw.
    Array(Vec<String>),
}

impl ClientReply {
    fn expect_status(self, what: &str) -> std::io::Result<()> {
        match self {
            ClientReply::Status(_) => Ok(()),
            other => Err(bad_reply(what, &other)),
        }
    }

    fn expect_int(self, what: &str) -> std::io::Result<i64> {
        match self {
            ClientReply::Int(n) => Ok(n),
            other => Err(bad_reply(what, &other)),
        }
    }
}

fn bad_reply(what: &str, got: &ClientReply) -> std::io::Error {
    std::io::Error::other(format!("unexpected reply to {what}: {got:?}"))
}

/// A blocking connection to a dego-server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Queue one request line without flushing (pipelining).
    pub fn send(&mut self, request: &str) -> std::io::Result<()> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Push queued requests to the server.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Read one reply (blocking).
    pub fn read_reply(&mut self) -> std::io::Result<ClientReply> {
        let line = self.read_line()?;
        let reply = match line.as_bytes().first() {
            Some(b'+') => ClientReply::Status(line[1..].to_string()),
            Some(b'$') => ClientReply::Value(line[1..].to_string()),
            Some(b'_') => ClientReply::Nil,
            Some(b':') => ClientReply::Int(
                line[1..]
                    .parse()
                    .map_err(|_| std::io::Error::other(format!("bad integer reply {line:?}")))?,
            ),
            Some(b'-') => {
                let msg = line[1..].strip_prefix("ERR ").unwrap_or(&line[1..]);
                ClientReply::Error(msg.to_string())
            }
            Some(b'*') => {
                let n: usize = line[1..]
                    .parse()
                    .map_err(|_| std::io::Error::other(format!("bad array header {line:?}")))?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.read_line()?);
                }
                ClientReply::Array(items)
            }
            _ => return Err(std::io::Error::other(format!("unparseable reply {line:?}"))),
        };
        Ok(reply)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Send one request and read its reply.
    pub fn request(&mut self, request: &str) -> std::io::Result<ClientReply> {
        self.send(request)?;
        self.flush()?;
        self.read_reply()
    }

    /// Drive a whole pipelined batch in one round trip: send every
    /// request line, flush once, read one reply per request, in order.
    ///
    /// The server executes the burst through its batched
    /// `begin_batch`/group-commit path (one middleware walk, one
    /// deadline check, one bulk token-bucket take, group-acked shard
    /// writes), so this is the fastest way to push bulk traffic —
    /// replies are identical to sending the same requests one at a
    /// time.
    ///
    /// Blank/whitespace-only entries are skipped without being sent:
    /// the server treats them as reply-less keepalives, so counting a
    /// reply for one would block this call forever.
    pub fn pipeline<I, S>(&mut self, requests: I) -> std::io::Result<Vec<ClientReply>>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut sent = 0usize;
        for request in requests {
            let request = request.as_ref();
            if request.trim().is_empty() {
                continue;
            }
            self.send(request)?;
            sent += 1;
        }
        self.flush()?;
        (0..sent).map(|_| self.read_reply()).collect()
    }

    // ------------------------------------------------------ kv verbs

    /// `GET key`.
    pub fn get(&mut self, key: &str) -> std::io::Result<Option<String>> {
        match self.request(&format!("GET {key}"))? {
            ClientReply::Value(v) => Ok(Some(v)),
            ClientReply::Nil => Ok(None),
            other => Err(bad_reply("GET", &other)),
        }
    }

    /// `SET key value`.
    pub fn set(&mut self, key: &str, value: &str) -> std::io::Result<()> {
        self.request(&format!("SET {key} {value}"))?
            .expect_status("SET")
    }

    /// `DEL key`.
    pub fn del(&mut self, key: &str) -> std::io::Result<()> {
        self.request(&format!("DEL {key}"))?.expect_status("DEL")
    }

    /// `INCR key delta`, returning the new value.
    pub fn incr(&mut self, key: &str, delta: i64) -> std::io::Result<i64> {
        self.request(&format!("INCR {key} {delta}"))?
            .expect_int("INCR")
    }

    // -------------------------------------------------- social verbs

    /// `ADDUSER user`.
    pub fn add_user(&mut self, user: u64) -> std::io::Result<()> {
        self.request(&format!("ADDUSER {user}"))?
            .expect_status("ADDUSER")
    }

    /// `POST user msg`.
    pub fn post(&mut self, user: u64, msg: u64) -> std::io::Result<()> {
        self.request(&format!("POST {user} {msg}"))?
            .expect_status("POST")
    }

    /// `FOLLOW follower followee`.
    pub fn follow(&mut self, follower: u64, followee: u64) -> std::io::Result<()> {
        self.request(&format!("FOLLOW {follower} {followee}"))?
            .expect_status("FOLLOW")
    }

    /// `UNFOLLOW follower followee`.
    pub fn unfollow(&mut self, follower: u64, followee: u64) -> std::io::Result<()> {
        self.request(&format!("UNFOLLOW {follower} {followee}"))?
            .expect_status("UNFOLLOW")
    }

    /// `TIMELINE user`, newest first.
    pub fn timeline(&mut self, user: u64) -> std::io::Result<Vec<u64>> {
        match self.request(&format!("TIMELINE {user}"))? {
            ClientReply::Array(items) => items
                .iter()
                .map(|item| {
                    item.strip_prefix(':')
                        .and_then(|m| m.parse().ok())
                        .ok_or_else(|| {
                            std::io::Error::other(format!("bad timeline element {item:?}"))
                        })
                })
                .collect(),
            other => Err(bad_reply("TIMELINE", &other)),
        }
    }

    /// `ISFOLLOWING follower followee`.
    pub fn is_following(&mut self, follower: u64, followee: u64) -> std::io::Result<bool> {
        Ok(self
            .request(&format!("ISFOLLOWING {follower} {followee}"))?
            .expect_int("ISFOLLOWING")?
            != 0)
    }

    /// `FOLLOWERS user` (count).
    pub fn follower_count(&mut self, user: u64) -> std::io::Result<usize> {
        Ok(self
            .request(&format!("FOLLOWERS {user}"))?
            .expect_int("FOLLOWERS")? as usize)
    }

    /// `JOIN user`.
    pub fn join_group(&mut self, user: u64) -> std::io::Result<()> {
        self.request(&format!("JOIN {user}"))?.expect_status("JOIN")
    }

    /// `LEAVE user`.
    pub fn leave_group(&mut self, user: u64) -> std::io::Result<()> {
        self.request(&format!("LEAVE {user}"))?
            .expect_status("LEAVE")
    }

    /// `INGROUP user`.
    pub fn in_group(&mut self, user: u64) -> std::io::Result<bool> {
        Ok(self
            .request(&format!("INGROUP {user}"))?
            .expect_int("INGROUP")?
            != 0)
    }

    /// `PROFILE user` (bump), returning the new version.
    pub fn profile_bump(&mut self, user: u64) -> std::io::Result<i64> {
        self.request(&format!("PROFILE {user}"))?
            .expect_int("PROFILE")
    }

    /// `PROFILEVER user`.
    pub fn profile_version(&mut self, user: u64) -> std::io::Result<u64> {
        Ok(self
            .request(&format!("PROFILEVER {user}"))?
            .expect_int("PROFILEVER")? as u64)
    }

    // --------------------------------------------- middleware verbs

    /// `AUTH token` — authenticate this session (auth layer).
    pub fn auth(&mut self, token: &str) -> std::io::Result<()> {
        self.request(&format!("AUTH {token}"))?
            .expect_status("AUTH")
    }

    /// `EXPIRE key millis` — arm a TTL timer (ttl layer). Returns
    /// whether a timer was armed (`false`: no such key).
    pub fn expire(&mut self, key: &str, millis: u64) -> std::io::Result<bool> {
        Ok(self
            .request(&format!("EXPIRE {key} {millis}"))?
            .expect_int("EXPIRE")?
            != 0)
    }

    // --------------------------------------------------------- misc

    /// `PING`.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.request("PING")?.expect_status("PING")
    }

    /// `HEALTH` — liveness. `+OK` as long as the process serves at
    /// all, even mid-drain.
    pub fn health(&mut self) -> std::io::Result<()> {
        self.request("HEALTH")?.expect_status("HEALTH")
    }

    /// `READY` — readiness. `Ok(true)` while the server accepts new
    /// traffic, `Ok(false)` once a drain began (`-ERR NOTREADY …`).
    pub fn ready(&mut self) -> std::io::Result<bool> {
        match self.request("READY")? {
            ClientReply::Status(_) => Ok(true),
            ClientReply::Error(e) if e.starts_with("NOTREADY") => Ok(false),
            other => Err(bad_reply("READY", &other)),
        }
    }

    /// `STATS` as `name=value` pairs.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, String)>> {
        self.name_value_array("STATS")
    }

    /// `STATS` parsed into a map — the ergonomic way to assert on
    /// individual stats (names are unique per reply by construction).
    pub fn stats_map(&mut self) -> std::io::Result<BTreeMap<String, String>> {
        Ok(self.stats()?.into_iter().collect())
    }

    /// `STATS SHARDS` — per-shard queue depth, drained-batch shape and
    /// enqueue→apply latency — parsed into a map.
    pub fn stats_shards(&mut self) -> std::io::Result<BTreeMap<String, String>> {
        Ok(self.name_value_array("STATS SHARDS")?.into_iter().collect())
    }

    /// Issue `verb` and parse its array reply's `name=value` lines.
    fn name_value_array(&mut self, verb: &str) -> std::io::Result<Vec<(String, String)>> {
        match self.request(verb)? {
            ClientReply::Array(items) => Ok(items
                .into_iter()
                .filter_map(|item| {
                    item.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                })
                .collect()),
            other => Err(bad_reply(verb, &other)),
        }
    }

    /// `SLOWLOG GET` — the slowest captured commands, slowest first,
    /// one rendered line per entry.
    pub fn slowlog_get(&mut self) -> std::io::Result<Vec<String>> {
        match self.request("SLOWLOG GET")? {
            ClientReply::Array(items) => Ok(items),
            other => Err(bad_reply("SLOWLOG GET", &other)),
        }
    }

    /// `SLOWLOG LEN` — entries currently held by the ring.
    pub fn slowlog_len(&mut self) -> std::io::Result<u64> {
        Ok(self.request("SLOWLOG LEN")?.expect_int("SLOWLOG LEN")? as u64)
    }

    /// `SLOWLOG RESET` — clear the ring (entry ids keep counting).
    pub fn slowlog_reset(&mut self) -> std::io::Result<()> {
        self.request("SLOWLOG RESET")?
            .expect_status("SLOWLOG RESET")
    }

    /// `TRACE GET` — the flight recorder's captured trace trees,
    /// slowest first, one rendered line per tree.
    pub fn trace_get(&mut self) -> std::io::Result<Vec<String>> {
        match self.request("TRACE GET")? {
            ClientReply::Array(items) => Ok(items),
            other => Err(bad_reply("TRACE GET", &other)),
        }
    }

    /// `TRACE LEN` — trees currently held by the flight recorder.
    pub fn trace_len(&mut self) -> std::io::Result<u64> {
        Ok(self.request("TRACE LEN")?.expect_int("TRACE LEN")? as u64)
    }

    /// `TRACE RESET` — clear the flight recorder (ids keep counting).
    pub fn trace_reset(&mut self) -> std::io::Result<()> {
        self.request("TRACE RESET")?.expect_status("TRACE RESET")
    }

    /// `STATS RESET` — zero the middleware and server counter planes
    /// (lifetime percentiles restart; slowlog and flight recorder keep
    /// their own `RESET` verbs).
    pub fn stats_reset(&mut self) -> std::io::Result<()> {
        self.request("STATS RESET")?.expect_status("STATS RESET")
    }

    /// `QUIT` (the server closes the connection afterwards).
    pub fn quit(&mut self) -> std::io::Result<()> {
        self.request("QUIT")?.expect_status("QUIT")
    }
}
