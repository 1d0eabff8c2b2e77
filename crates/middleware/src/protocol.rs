//! The wire protocol: a compact, RESP-inspired line protocol.
//!
//! Requests are single lines, `VERB arg1 arg2 ...`, terminated by `\n`
//! (a trailing `\r` is tolerated). `SET`'s value is the rest of the
//! line, so values may contain spaces but not newlines. Verbs are
//! case-insensitive.
//!
//! Replies are lines too:
//!
//! | First byte | Meaning |
//! |---|---|
//! | `+` | status (`+OK`, `+PONG`) |
//! | `$` | one value, rest of line |
//! | `_` | nil (absent key) |
//! | `:` | signed integer |
//! | `-` | error (`-ERR <message>`) |
//! | `*` | array header `*<n>`, followed by `n` element lines |
//!
//! An array's elements are lines of any kind. Two [`Reply`] variants
//! render as one: [`Reply::Array`] holds pre-rendered element lines
//! (`STATS`, `SLOWLOG GET`, …), [`Reply::Ints`] holds the integers
//! themselves and renders each as a `:<m>` line (`TIMELINE`) — the
//! same bytes, without a `String` per element.
//!
//! The full verb set is listed in [`Command`].
//!
//! ## Error-reply grammar
//!
//! Middleware rejections are structured: the message after `-ERR ` is
//! `<LAYER> <detail>` where `<LAYER>` is one of `AUTH`, `RATELIMIT`,
//! `DEADLINE`, `TTL`, `TRACE`, `SHED`, `BREAKER`, and `<detail>` is
//! free text that may carry `key=value` hints (e.g.
//! `-ERR RATELIMIT rejected retry_us=50000`,
//! `-ERR SHED shard=2 queue_depth=4096 limit=1024`,
//! `-ERR BREAKER write open retry_us=740000`).
//! Parse errors and store-level errors keep their historical free-form
//! messages.

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `GET key` → `$value` | `_`
    Get(String),
    /// `SET key value...` → `+OK`
    Set(String, String),
    /// `DEL key` → `+OK` (blind, like the M2 map's `remove`)
    Del(String),
    /// `INCR key [delta]` → `:new` (missing keys count from 0)
    Incr(String, i64),
    /// `ADDUSER user` → `+OK`
    AddUser(u64),
    /// `POST user msg` → `+OK` (fans out to followers' timelines)
    Post(u64, u64),
    /// `FOLLOW follower followee` → `+OK`
    Follow(u64, u64),
    /// `UNFOLLOW follower followee` → `+OK`
    Unfollow(u64, u64),
    /// `TIMELINE user` → `*n` + n × `:msg` (newest first)
    Timeline(u64),
    /// `ISFOLLOWING follower followee` → `:0` | `:1`
    IsFollowing(u64, u64),
    /// `FOLLOWERS user` → `:count`
    Followers(u64),
    /// `JOIN user` → `+OK`
    Join(u64),
    /// `LEAVE user` → `+OK`
    Leave(u64),
    /// `INGROUP user` → `:0` | `:1`
    InGroup(u64),
    /// `PROFILE user` → `:version` (bump the profile version)
    Profile(u64),
    /// `PROFILEVER user` → `:version`
    ProfileVer(u64),
    /// `STATS` → `*n` + n × `name=value`
    Stats,
    /// `STATS SHARDS` → `*n` + n × `name=value` of per-shard telemetry
    /// (queue depth, drained batch sizes, ack latency)
    StatsShards,
    /// `STATS RESET` → `+OK` (zeroes middleware and shard
    /// counters/histograms; the slowlog and flight-recorder rings keep
    /// their own `RESET` verbs)
    StatsReset,
    /// `SLOWLOG GET` → `*n` + n × entry lines, slowest first (handled
    /// by the trace middleware layer; rejected when it is absent)
    SlowlogGet,
    /// `SLOWLOG RESET` → `+OK`
    SlowlogReset,
    /// `SLOWLOG LEN` → `:n`
    SlowlogLen,
    /// `TRACE GET` → `*n` + n × flight-recorder trace-tree lines,
    /// slowest first (handled by the trace middleware layer; rejected
    /// when it is absent)
    TraceGet,
    /// `TRACE RESET` → `+OK`
    TraceReset,
    /// `TRACE LEN` → `:n`
    TraceLen,
    /// `PING` → `+PONG`
    Ping,
    /// `HEALTH` → `+OK` while the process is alive (a liveness probe;
    /// exempt from rate-limit charging, like `QUIT`)
    Health,
    /// `READY` → `+READY` while the server accepts work,
    /// `-ERR NOTREADY draining` once a graceful drain has begun
    Ready,
    /// `QUIT` → `+OK`, then the server closes the connection
    Quit,
    /// `AUTH token` → `+OK` | `-ERR AUTH ...` (handled by the auth
    /// middleware layer; never reaches the store)
    Auth(String),
    /// `EXPIRE key millis` → `:1` (timer armed) | `:0` (no such key)
    /// (handled by the TTL middleware layer)
    Expire(String, u64),
}

/// The coarse class of a command, read off its [`Footprint`], used by
/// the middleware layers for ACL checks and per-class deadline budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandClass {
    /// Reads a row and writes none.
    Read,
    /// Writes a row.
    Write,
    /// Touches no row (`PING`, `AUTH`, the rings …) or every row (`STATS`).
    Control,
}

/// One row of the storage plane, borrowing its key: the rows the store
/// keeps, so a user is one row whatever field a verb touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataRow<'a> {
    /// A key of the string keyspace (and its timer).
    Key(&'a str),
    /// The user: timeline, profile version, group membership and who
    /// follows them.
    User(u64),
}

/// The rows a command reads and writes: what the server routes it by
/// and makes it wait for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint<'a> {
    /// The row it reads where it is staged, ahead of the writes queued
    /// before it: a barrier while a write of that row is outstanding.
    pub reads: Option<DataRow<'a>>,
    /// The row it writes, whose shard is its shard.
    pub writes: Option<DataRow<'a>>,
    /// It observes every row (`STATS*`): a full barrier.
    pub full_barrier: bool,
}

/// A parse failure, reported to the client as `-ERR ...`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

fn need<'a>(parts: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, ParseError> {
    parts
        .next()
        .ok_or_else(|| ParseError(format!("missing {what}")))
}

fn need_u64<'a>(parts: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<u64, ParseError> {
    let raw = need(parts, what)?;
    raw.parse()
        .map_err(|_| ParseError(format!("{what} must be an unsigned integer, got {raw:?}")))
}

/// The `GET|RESET|LEN` subcommand of a ring verb (`SLOWLOG`, `TRACE`).
fn ring_subcommand<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    ring: &str,
    [get, reset, len]: [Command; 3],
) -> Result<Command, ParseError> {
    let sub = need(parts, "subcommand (GET|RESET|LEN)")?;
    if sub.eq_ignore_ascii_case("GET") {
        Ok(get)
    } else if sub.eq_ignore_ascii_case("RESET") {
        Ok(reset)
    } else if sub.eq_ignore_ascii_case("LEN") {
        Ok(len)
    } else {
        Err(ParseError(format!(
            "unknown {ring} subcommand {:?} (want GET|RESET|LEN)",
            sub.to_ascii_uppercase()
        )))
    }
}

/// The longest verb: what the case-folding buffer on
/// [`Command::parse`]'s stack must hold.
const LONGEST_VERB: usize = "ISFOLLOWING".len();

impl Command {
    /// Parse one request line (without its terminator).
    pub fn parse(line: &str) -> Result<Command, ParseError> {
        let line = line.strip_suffix('\r').unwrap_or(line).trim_start();
        let mut parts = line.split_whitespace();
        let raw_verb = need(&mut parts, "verb")?;
        // Fold the verb's case on the stack. A token longer than every
        // verb (or with non-ASCII bytes, which folding leaves alone)
        // matches none and falls through to the error arm.
        let mut folded = [0u8; LONGEST_VERB];
        let verb: &[u8] = match folded.get_mut(..raw_verb.len()) {
            Some(verb) => {
                verb.copy_from_slice(raw_verb.as_bytes());
                verb.make_ascii_uppercase();
                verb
            }
            None => &[],
        };
        let cmd = match verb {
            b"GET" => Command::Get(need(&mut parts, "key")?.to_string()),
            b"SET" => {
                let key = need(&mut parts, "key")?;
                // The value is the rest of the line after the key, so
                // it may contain spaces.
                let after_verb = &line[line.find(char::is_whitespace).unwrap_or(line.len())..];
                let after_verb = after_verb.trim_start();
                let value = after_verb[key.len()..].trim();
                if value.is_empty() {
                    return Err(ParseError("missing value".into()));
                }
                Command::Set(key.to_string(), value.to_string())
            }
            b"DEL" => Command::Del(need(&mut parts, "key")?.to_string()),
            b"INCR" => {
                let key = need(&mut parts, "key")?.to_string();
                let delta = match parts.next() {
                    None => 1,
                    Some(raw) => raw
                        .parse()
                        .map_err(|_| ParseError(format!("bad delta {raw:?}")))?,
                };
                Command::Incr(key, delta)
            }
            b"ADDUSER" => Command::AddUser(need_u64(&mut parts, "user")?),
            b"POST" => Command::Post(need_u64(&mut parts, "user")?, need_u64(&mut parts, "msg")?),
            b"FOLLOW" => Command::Follow(
                need_u64(&mut parts, "follower")?,
                need_u64(&mut parts, "followee")?,
            ),
            b"UNFOLLOW" => Command::Unfollow(
                need_u64(&mut parts, "follower")?,
                need_u64(&mut parts, "followee")?,
            ),
            b"TIMELINE" => Command::Timeline(need_u64(&mut parts, "user")?),
            b"ISFOLLOWING" => Command::IsFollowing(
                need_u64(&mut parts, "follower")?,
                need_u64(&mut parts, "followee")?,
            ),
            b"FOLLOWERS" => Command::Followers(need_u64(&mut parts, "user")?),
            b"JOIN" => Command::Join(need_u64(&mut parts, "user")?),
            b"LEAVE" => Command::Leave(need_u64(&mut parts, "user")?),
            b"INGROUP" => Command::InGroup(need_u64(&mut parts, "user")?),
            b"PROFILE" => Command::Profile(need_u64(&mut parts, "user")?),
            b"PROFILEVER" => Command::ProfileVer(need_u64(&mut parts, "user")?),
            b"STATS" => match parts.next() {
                // Extra tokens after a plain STATS were historically
                // ignored; only the SHARDS and RESET subcommands change
                // meaning.
                Some(sub) if sub.eq_ignore_ascii_case("SHARDS") => Command::StatsShards,
                Some(sub) if sub.eq_ignore_ascii_case("RESET") => Command::StatsReset,
                _ => Command::Stats,
            },
            b"SLOWLOG" => ring_subcommand(
                &mut parts,
                "SLOWLOG",
                [
                    Command::SlowlogGet,
                    Command::SlowlogReset,
                    Command::SlowlogLen,
                ],
            )?,
            b"TRACE" => ring_subcommand(
                &mut parts,
                "TRACE",
                [Command::TraceGet, Command::TraceReset, Command::TraceLen],
            )?,
            b"PING" => Command::Ping,
            b"HEALTH" => Command::Health,
            b"READY" => Command::Ready,
            b"QUIT" => Command::Quit,
            b"AUTH" => Command::Auth(need(&mut parts, "token")?.to_string()),
            b"EXPIRE" => {
                let key = need(&mut parts, "key")?.to_string();
                let raw = need(&mut parts, "millis")?;
                let millis = raw
                    .parse()
                    .map_err(|_| ParseError(format!("bad millis {raw:?}")))?;
                Command::Expire(key, millis)
            }
            _ => {
                return Err(ParseError(format!(
                    "unknown verb {:?}",
                    raw_verb.to_ascii_uppercase()
                )))
            }
        };
        Ok(cmd)
    }

    /// The wire verb of this command.
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Get(..) => "GET",
            Command::Set(..) => "SET",
            Command::Del(..) => "DEL",
            Command::Incr(..) => "INCR",
            Command::AddUser(..) => "ADDUSER",
            Command::Post(..) => "POST",
            Command::Follow(..) => "FOLLOW",
            Command::Unfollow(..) => "UNFOLLOW",
            Command::Timeline(..) => "TIMELINE",
            Command::IsFollowing(..) => "ISFOLLOWING",
            Command::Followers(..) => "FOLLOWERS",
            Command::Join(..) => "JOIN",
            Command::Leave(..) => "LEAVE",
            Command::InGroup(..) => "INGROUP",
            Command::Profile(..) => "PROFILE",
            Command::ProfileVer(..) => "PROFILEVER",
            Command::Stats | Command::StatsShards | Command::StatsReset => "STATS",
            Command::SlowlogGet | Command::SlowlogReset | Command::SlowlogLen => "SLOWLOG",
            Command::TraceGet | Command::TraceReset | Command::TraceLen => "TRACE",
            Command::Ping => "PING",
            Command::Health => "HEALTH",
            Command::Ready => "READY",
            Command::Quit => "QUIT",
            Command::Auth(..) => "AUTH",
            Command::Expire(..) => "EXPIRE",
        }
    }

    /// The rows this command reads and writes: the one place a verb's
    /// rows are written down. Inlined, so `class` folds to a lookup.
    #[inline]
    pub fn footprint(&self) -> Footprint<'_> {
        use DataRow::{Key, User};
        let (reads, writes, full_barrier) = match *self {
            Command::Get(ref key) => (Some(Key(key)), None, false),
            Command::Set(ref key, _)
            | Command::Del(ref key)
            | Command::Incr(ref key, _)
            | Command::Expire(ref key, _) => (None, Some(Key(key)), false),
            Command::AddUser(user)
            | Command::Follow(_, user)
            | Command::Unfollow(_, user)
            | Command::Join(user)
            | Command::Leave(user)
            | Command::Profile(user) => (None, Some(User(user)), false),
            Command::Timeline(user)
            | Command::IsFollowing(_, user)
            | Command::Followers(user)
            | Command::InGroup(user)
            | Command::ProfileVer(user) => (Some(User(user)), None, false),
            // It copies the author's followers and pushes to the
            // author's timeline first.
            Command::Post(user, _) => (Some(User(user)), Some(User(user)), false),
            Command::Stats | Command::StatsShards | Command::StatsReset => (None, None, true),
            Command::SlowlogGet
            | Command::SlowlogReset
            | Command::SlowlogLen
            | Command::TraceGet
            | Command::TraceReset
            | Command::TraceLen
            | Command::Ping
            | Command::Health
            | Command::Ready
            | Command::Quit
            | Command::Auth(_) => (None, None, false),
        };
        Footprint {
            reads,
            writes,
            full_barrier,
        }
    }

    /// The coarse class this command belongs to, read off its footprint.
    pub fn class(&self) -> CommandClass {
        let footprint = self.footprint();
        match (footprint.writes, footprint.reads) {
            (Some(_), _) => CommandClass::Write,
            (None, Some(_)) => CommandClass::Read,
            (None, None) => CommandClass::Control,
        }
    }

    /// Render the request line (without terminator) that parses back to
    /// this command — the encoder the client-side helpers and the
    /// round-trip property tests use. `parse(render_line(c)) == c` holds
    /// whenever keys/tokens are whitespace-free and values are non-empty
    /// with no surrounding whitespace or newlines.
    pub fn render_line(&self) -> String {
        match self {
            Command::Get(k) => format!("GET {k}"),
            Command::Set(k, v) => format!("SET {k} {v}"),
            Command::Del(k) => format!("DEL {k}"),
            Command::Incr(k, d) => format!("INCR {k} {d}"),
            Command::AddUser(u) => format!("ADDUSER {u}"),
            Command::Post(u, m) => format!("POST {u} {m}"),
            Command::Follow(a, b) => format!("FOLLOW {a} {b}"),
            Command::Unfollow(a, b) => format!("UNFOLLOW {a} {b}"),
            Command::Timeline(u) => format!("TIMELINE {u}"),
            Command::IsFollowing(a, b) => format!("ISFOLLOWING {a} {b}"),
            Command::Followers(u) => format!("FOLLOWERS {u}"),
            Command::Join(u) => format!("JOIN {u}"),
            Command::Leave(u) => format!("LEAVE {u}"),
            Command::InGroup(u) => format!("INGROUP {u}"),
            Command::Profile(u) => format!("PROFILE {u}"),
            Command::ProfileVer(u) => format!("PROFILEVER {u}"),
            Command::Stats => "STATS".into(),
            Command::StatsShards => "STATS SHARDS".into(),
            Command::StatsReset => "STATS RESET".into(),
            Command::SlowlogGet => "SLOWLOG GET".into(),
            Command::SlowlogReset => "SLOWLOG RESET".into(),
            Command::SlowlogLen => "SLOWLOG LEN".into(),
            Command::TraceGet => "TRACE GET".into(),
            Command::TraceReset => "TRACE RESET".into(),
            Command::TraceLen => "TRACE LEN".into(),
            Command::Ping => "PING".into(),
            Command::Health => "HEALTH".into(),
            Command::Ready => "READY".into(),
            Command::Quit => "QUIT".into(),
            Command::Auth(t) => format!("AUTH {t}"),
            Command::Expire(k, ms) => format!("EXPIRE {k} {ms}"),
        }
    }
}

/// A reply on its way to the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `+OK` / `+PONG` status.
    Status(&'static str),
    /// A present value.
    Value(String),
    /// An absent value.
    Nil,
    /// A signed integer.
    Int(i64),
    /// An error.
    Error(String),
    /// An array of pre-rendered element lines.
    Array(Vec<String>),
    /// An array of integers, each rendered as a `:<m>` element line
    /// (a `TIMELINE` row: the wire bytes of an [`Reply::Array`] of
    /// `":<m>"` strings, without building them).
    Ints(Vec<u64>),
}

/// Where wire bytes are appended: a `String` (the public
/// [`Reply::render`]) or a connection's output buffer
/// ([`Reply::render_into`]). Everything rendered is UTF-8, so one
/// rendering body serves both.
trait WireSink {
    fn put(&mut self, text: &str);

    /// ASCII digits, which only the `String` has to see proof of.
    fn put_digits(&mut self, digits: &[u8]);

    /// Decimal digits, without going through `fmt`.
    fn put_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20]; // u64::MAX has 20
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put_digits(&digits[at..]);
    }
}

impl WireSink for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }

    fn put_digits(&mut self, digits: &[u8]) {
        self.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
    }
}

impl WireSink for Vec<u8> {
    fn put(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }

    fn put_digits(&mut self, digits: &[u8]) {
        self.extend_from_slice(digits);
    }
}

impl Reply {
    /// Append the wire form (with terminators) to `out`.
    pub fn render(&self, out: &mut String) {
        self.write_wire(out);
    }

    /// Append the wire form (with terminators) to a byte buffer — the
    /// same bytes as [`Reply::render`].
    pub fn render_into(&self, out: &mut Vec<u8>) {
        self.write_wire(out);
    }

    fn write_wire(&self, out: &mut impl WireSink) {
        match self {
            Reply::Status(s) => {
                out.put("+");
                out.put(s);
            }
            Reply::Value(v) => {
                out.put("$");
                out.put(v);
            }
            Reply::Nil => out.put("_"),
            Reply::Int(i) => {
                out.put(if *i < 0 { ":-" } else { ":" });
                out.put_u64(i.unsigned_abs());
            }
            Reply::Error(e) => {
                out.put("-ERR ");
                out.put(e);
            }
            Reply::Array(items) => {
                out.put("*");
                out.put_u64(items.len() as u64);
                for item in items {
                    out.put("\n");
                    out.put(item);
                }
            }
            Reply::Ints(items) => {
                out.put("*");
                out.put_u64(items.len() as u64);
                for item in items {
                    out.put("\n:");
                    out.put_u64(*item);
                }
            }
        }
        out.put("\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kv_verbs() {
        assert_eq!(Command::parse("GET a"), Ok(Command::Get("a".into())));
        assert_eq!(
            Command::parse("set key hello world "),
            Ok(Command::Set("key".into(), "hello world".into()))
        );
        assert_eq!(Command::parse("DEL k\r"), Ok(Command::Del("k".into())));
        assert_eq!(Command::parse("INCR k"), Ok(Command::Incr("k".into(), 1)));
        assert_eq!(
            Command::parse("INCR k -5"),
            Ok(Command::Incr("k".into(), -5))
        );
    }

    #[test]
    fn parses_the_social_verbs() {
        assert_eq!(Command::parse("POST 3 77"), Ok(Command::Post(3, 77)));
        assert_eq!(Command::parse("FOLLOW 1 2"), Ok(Command::Follow(1, 2)));
        assert_eq!(Command::parse("TIMELINE 9"), Ok(Command::Timeline(9)));
        assert_eq!(Command::parse("stats"), Ok(Command::Stats));
    }

    #[test]
    fn parses_the_observability_verbs() {
        assert_eq!(Command::parse("STATS SHARDS"), Ok(Command::StatsShards));
        assert_eq!(Command::parse("stats shards"), Ok(Command::StatsShards));
        assert_eq!(Command::parse("STATS RESET"), Ok(Command::StatsReset));
        assert_eq!(Command::parse("stats reset"), Ok(Command::StatsReset));
        // Unknown trailing tokens keep meaning plain STATS (historical
        // leniency).
        assert_eq!(Command::parse("STATS extra"), Ok(Command::Stats));
        assert_eq!(Command::parse("SLOWLOG GET"), Ok(Command::SlowlogGet));
        assert_eq!(Command::parse("slowlog reset"), Ok(Command::SlowlogReset));
        assert_eq!(Command::parse("SLOWLOG len"), Ok(Command::SlowlogLen));
        assert!(Command::parse("SLOWLOG").is_err());
        assert!(Command::parse("SLOWLOG FROB").is_err());
        assert_eq!(Command::parse("TRACE GET"), Ok(Command::TraceGet));
        assert_eq!(Command::parse("trace reset"), Ok(Command::TraceReset));
        assert_eq!(Command::parse("TRACE len"), Ok(Command::TraceLen));
        assert!(Command::parse("TRACE").is_err());
        assert!(Command::parse("TRACE FROB").is_err());
        assert_eq!(Command::SlowlogGet.class(), CommandClass::Control);
        assert_eq!(Command::StatsShards.class(), CommandClass::Control);
        assert_eq!(Command::StatsReset.class(), CommandClass::Control);
        assert_eq!(Command::TraceGet.class(), CommandClass::Control);
    }

    #[test]
    fn leading_whitespace_does_not_corrupt_set() {
        assert_eq!(
            Command::parse("  SET k v"),
            Ok(Command::Set("k".into(), "v".into()))
        );
        assert_eq!(
            Command::parse("\t SET key hello world"),
            Ok(Command::Set("key".into(), "hello world".into()))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Command::parse("").is_err());
        assert!(Command::parse("BLORP 1").is_err());
        assert!(Command::parse("GET").is_err());
        assert!(Command::parse("SET k").is_err());
        assert!(Command::parse("POST notanumber 5").is_err());
        assert!(Command::parse("AUTH").is_err());
        assert!(Command::parse("EXPIRE k").is_err());
        assert!(Command::parse("EXPIRE k soon").is_err());
    }

    #[test]
    fn parses_the_middleware_verbs() {
        assert_eq!(
            Command::parse("AUTH sekrit"),
            Ok(Command::Auth("sekrit".into()))
        );
        assert_eq!(
            Command::parse("expire k 250"),
            Ok(Command::Expire("k".into(), 250))
        );
    }

    #[test]
    fn render_line_round_trips() {
        for cmd in every_variant() {
            assert_eq!(Command::parse(&cmd.render_line()), Ok(cmd));
        }
    }

    /// One command of every [`Command`] variant. Adding a variant
    /// breaks the `match` below until it is numbered, and then the
    /// final assertion until it is listed.
    fn every_variant() -> Vec<Command> {
        let every = vec![
            Command::Get("a".into()),
            Command::Set("k".into(), "hello world".into()),
            Command::Del("k".into()),
            Command::Incr("n".into(), -4),
            Command::AddUser(3),
            Command::Post(3, 77),
            Command::Follow(4, 3),
            Command::Unfollow(4, 3),
            Command::Timeline(3),
            Command::IsFollowing(4, 3),
            Command::Followers(3),
            Command::Join(3),
            Command::Leave(3),
            Command::InGroup(3),
            Command::Profile(3),
            Command::ProfileVer(3),
            Command::Stats,
            Command::StatsShards,
            Command::StatsReset,
            Command::SlowlogGet,
            Command::SlowlogReset,
            Command::SlowlogLen,
            Command::TraceGet,
            Command::TraceReset,
            Command::TraceLen,
            Command::Ping,
            Command::Health,
            Command::Ready,
            Command::Quit,
            Command::Auth("tok".into()),
            Command::Expire("k".into(), 99),
        ];
        let mut listed = [false; 31];
        for cmd in &every {
            let variant = match cmd {
                Command::Get(_) => 0,
                Command::Set(..) => 1,
                Command::Del(_) => 2,
                Command::Incr(..) => 3,
                Command::AddUser(_) => 4,
                Command::Post(..) => 5,
                Command::Follow(..) => 6,
                Command::Unfollow(..) => 7,
                Command::Timeline(_) => 8,
                Command::IsFollowing(..) => 9,
                Command::Followers(_) => 10,
                Command::Join(_) => 11,
                Command::Leave(_) => 12,
                Command::InGroup(_) => 13,
                Command::Profile(_) => 14,
                Command::ProfileVer(_) => 15,
                Command::Stats => 16,
                Command::StatsShards => 17,
                Command::StatsReset => 18,
                Command::SlowlogGet => 19,
                Command::SlowlogReset => 20,
                Command::SlowlogLen => 21,
                Command::TraceGet => 22,
                Command::TraceReset => 23,
                Command::TraceLen => 24,
                Command::Ping => 25,
                Command::Health => 26,
                Command::Ready => 27,
                Command::Quit => 28,
                Command::Auth(_) => 29,
                Command::Expire(..) => 30,
            };
            listed[variant] = true;
        }
        assert!(listed.iter().all(|&listed| listed), "{listed:?}");
        every
    }

    /// The footprint table, checked whole: each verb's class is the one
    /// its rows give it (and the one it had before the table), every
    /// row kind some verb waits to read is written by some verb, so no
    /// barrier is unreachable, and the `STATS` verbs alone are full
    /// barriers, touching no row of their own.
    #[test]
    fn classes_partition_the_verbs() {
        let writes = [
            "SET", "DEL", "INCR", "ADDUSER", "POST", "FOLLOW", "UNFOLLOW", "JOIN", "LEAVE",
            "PROFILE", "EXPIRE",
        ];
        let reads = [
            "GET",
            "TIMELINE",
            "ISFOLLOWING",
            "FOLLOWERS",
            "INGROUP",
            "PROFILEVER",
        ];
        /// A row's kind: the row with its key or user dropped.
        fn kind(row: DataRow) -> DataRow<'static> {
            match row {
                DataRow::Key(_) => DataRow::Key(""),
                DataRow::User(_) => DataRow::User(0),
            }
        }
        let (mut read_kinds, mut written_kinds) = (Vec::new(), Vec::new());
        for cmd in every_variant() {
            let rows = cmd.footprint();
            let class = match (rows.writes, rows.reads) {
                (Some(_), _) => CommandClass::Write,
                (None, Some(_)) => CommandClass::Read,
                (None, None) => CommandClass::Control,
            };
            assert_eq!(cmd.class(), class, "{cmd:?}");
            let verb = cmd.verb();
            let expected = if writes.contains(&verb) {
                CommandClass::Write
            } else if reads.contains(&verb) {
                CommandClass::Read
            } else {
                CommandClass::Control
            };
            assert_eq!(class, expected, "{cmd:?}");
            read_kinds.extend(rows.reads.map(kind));
            written_kinds.extend(rows.writes.map(kind));
            let stats = matches!(
                cmd,
                Command::Stats | Command::StatsShards | Command::StatsReset
            );
            assert_eq!(rows.full_barrier, stats, "{cmd:?}");
            if stats {
                assert_eq!(class, CommandClass::Control, "{cmd:?}");
            }
        }
        for read in &read_kinds {
            assert!(
                written_kinds.contains(read),
                "{read:?} is read, never written"
            );
        }
        assert_eq!(
            Command::Post(3, 77).footprint().reads,
            Some(DataRow::User(3))
        );
        let timed = ["GET", "SET", "DEL", "INCR", "EXPIRE"];
        for cmd in every_variant() {
            let rows = cmd.footprint();
            let keyed = matches!(rows.reads.or(rows.writes), Some(DataRow::Key(_)));
            assert_eq!(keyed, timed.contains(&cmd.verb()), "{cmd:?}");
        }
    }

    #[test]
    fn parses_the_health_verbs() {
        assert_eq!(Command::parse("HEALTH"), Ok(Command::Health));
        assert_eq!(Command::parse("health"), Ok(Command::Health));
        assert_eq!(Command::parse("READY"), Ok(Command::Ready));
        assert_eq!(Command::parse("ready"), Ok(Command::Ready));
    }

    #[test]
    fn renders_replies() {
        let mut out = String::new();
        Reply::Status("OK").render(&mut out);
        Reply::Value("v with spaces".into()).render(&mut out);
        Reply::Nil.render(&mut out);
        Reply::Int(-3).render(&mut out);
        Reply::Error("nope".into()).render(&mut out);
        Reply::Array(vec![":1".into(), ":2".into()]).render(&mut out);
        Reply::Ints(vec![7, u64::MAX]).render(&mut out);
        Reply::Int(i64::MIN).render(&mut out);
        assert_eq!(
            out,
            "+OK\n$v with spaces\n_\n:-3\n-ERR nope\n*2\n:1\n:2\n\
             *2\n:7\n:18446744073709551615\n:-9223372036854775808\n"
        );
        let mut bytes = Vec::new();
        Reply::Ints(vec![]).render_into(&mut bytes);
        Reply::Int(0).render_into(&mut bytes);
        assert_eq!(bytes, b"*0\n:0\n");
    }
}
