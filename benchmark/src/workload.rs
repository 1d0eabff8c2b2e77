//! The four workloads: what each connection sends, as pre-formatted
//! bytes, and the model each connection keeps of what it wrote.
//!
//! A connection's traffic is a *pool* of bursts generated once from the
//! seed and replayed in a cycle, so the generator does no formatting
//! and draws no random numbers inside a measured window. Every pool is
//! built so that one full cycle leaves the server's data the size it
//! found it (follows are later unfollowed, joins later left, new users
//! come from a capped id range): every slice of a window sees the same
//! working set.

use crate::rng::{XorShift, Zipf};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Connections per workload, one generator thread each. The box has
/// two cores; more generators would only measure their own queueing.
pub const CONNS: usize = 2;

/// Keys each connection owns in the kv workloads. Key sets of
/// different connections are disjoint, so each connection can predict
/// every value it reads back.
pub const KV_KEYS: usize = 4096;
/// One key in this many is a counter (target of `INCR`); the others
/// hold 16-byte strings (targets of `SET`). `GET` reads both.
const KV_COUNTER_EVERY: usize = 8;
const KV_STRING_KEYS: usize = KV_KEYS - KV_KEYS / KV_COUNTER_EVERY;

/// Users preloaded by `retwis_mix_full`, and the id range `ADDUSER`
/// may grow the population to.
pub const USERS_PRELOAD: usize = 10_000;
pub const USERS_CAP: usize = 2 * USERS_PRELOAD;
/// Follows per preloaded user; followees are Zipf picks, which makes
/// the in-degree (and so the `POST` fan-out) power-law.
const FOLLOWS_PER_USER: usize = 10;
const ZIPF_ALPHA: f64 = 1.0;

/// Lines per preload or read-back burst.
pub const BULK_BURST: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Percentages of GET / SET / INCR.
    Kv { get: u64, set: u64 },
    /// The paper's Table 2 mix.
    Retwis,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Commands per burst. Traffic is a closed loop on every workload:
    /// send a burst, wait for all its replies, send the next.
    pub depth: usize,
    pub mix: Mix,
    /// `MiddlewareConfig::full()` or `none()`.
    pub full_stack: bool,
    /// `ServerConfig::capacity`: the expected number of rows.
    pub capacity: usize,
    /// Bursts in one connection's pool.
    pub pool_bursts: usize,
    /// Set-ups per end-to-end run, each against a fresh server;
    /// `setup_s` is their median and the last one carries the traffic.
    /// A 14 ms set-up needs more repeats than a 300 ms one for a steady
    /// median, and can afford them.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv_read_full",
        why: "90/5/5 GET/SET/INCR at depth 16 through the full stack: connection plane, \
              parse/render, call_batch and the recording plane do the work, the store little",
        depth: 16,
        mix: Mix::Kv { get: 90, set: 5 },
        full_stack: true,
        capacity: 16_384,
        pool_bursts: 4096,
        setup_reps: 25,
    },
    Workload {
        name: "kv_write_bare",
        why: "50/50 SET/INCR at depth 16 with no middleware: every command crosses the shard \
              queue, apply and group ack; a middleware change must not move it",
        depth: 16,
        mix: Mix::Kv { get: 0, set: 50 },
        full_stack: false,
        capacity: 16_384,
        pool_bursts: 4096,
        setup_reps: 25,
    },
    Workload {
        name: "kv_depth1_full",
        why: "50/50 GET/SET one request at a time: per-request fixed costs (syscalls, wake-ups, \
              call_one, one ack round trip per SET), where batching amortises nothing",
        depth: 1,
        mix: Mix::Kv { get: 50, set: 50 },
        full_stack: true,
        capacity: 16_384,
        pool_bursts: 65_536,
        setup_reps: 25,
    },
    Workload {
        name: "retwis_mix_full",
        why: "the paper's Table 2 social mix at depth 8 over 10k users: POST fan-out across \
              shards, multi-line TIMELINE replies, read-after-write barriers set the rate",
        depth: 8,
        mix: Mix::Retwis,
        full_stack: true,
        capacity: 32_768,
        pool_bursts: 8192,
        setup_reps: 7,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn index(&self) -> u64 {
        WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .expect("workload comes from the table") as u64
    }
}

/// What a command does to the sending connection's model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    Set { key: u32, value: u64 },
    Incr { key: u32, delta: u32 },
    Follow { follower: u32, followee: u32 },
    Unfollow { follower: u32, followee: u32 },
    Join(u32),
    Leave(u32),
    Profile(u32),
}

/// One burst of a [`Stream`].
pub struct Burst<'a> {
    /// The request lines, ready to write.
    pub bytes: &'a [u8],
    /// The kind byte each reply must start with.
    pub kinds: &'a [u8],
    pub effects: &'a [Effect],
    /// Mutations that go to exactly one shard, and `POST`s (which fan
    /// out): what the store's `applied` counter is checked against.
    pub singles: u32,
    pub posts: u32,
}

#[derive(Clone, Copy, Default)]
struct Cut {
    bytes: usize,
    kinds: usize,
    effects: usize,
    singles: u32,
    posts: u32,
}

/// A sequence of bursts in three flat arrays.
#[derive(Default)]
pub struct Stream {
    bytes: Vec<u8>,
    kinds: Vec<u8>,
    effects: Vec<Effect>,
    /// Where each burst ends.
    cuts: Vec<Cut>,
    open: Cut,
}

/// How a command is counted against the store's `applied` counter.
#[derive(Clone, Copy, PartialEq)]
enum Applies {
    Nothing,
    Single,
    Post,
}

impl Stream {
    fn push(&mut self, line: &str, kind: u8, applies: Applies, effect: Option<Effect>) {
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.kinds.push(kind);
        self.effects.extend(effect);
        match applies {
            Applies::Nothing => {}
            Applies::Single => self.open.singles += 1,
            Applies::Post => self.open.posts += 1,
        }
    }

    fn end_burst(&mut self) {
        let cut = Cut {
            bytes: self.bytes.len(),
            kinds: self.kinds.len(),
            effects: self.effects.len(),
            ..self.open
        };
        if self.cuts.last().is_none_or(|last| last.kinds < cut.kinds) {
            self.cuts.push(cut);
        }
        self.open = Cut::default();
    }

    fn end_burst_at(&mut self, lines: usize) {
        let begun = self.cuts.last().map_or(0, |c| c.kinds);
        if self.kinds.len() - begun >= lines {
            self.end_burst();
        }
    }

    pub fn bursts(&self) -> usize {
        self.cuts.len()
    }

    #[cfg(test)]
    pub fn commands(&self) -> usize {
        self.kinds.len()
    }

    pub fn burst(&self, i: usize) -> Burst<'_> {
        let from = if i == 0 {
            Cut::default()
        } else {
            self.cuts[i - 1]
        };
        let to = self.cuts[i];
        Burst {
            bytes: &self.bytes[from.bytes..to.bytes],
            kinds: &self.kinds[from.kinds..to.kinds],
            effects: &self.effects[from.effects..to.effects],
            singles: to.singles,
            posts: to.posts,
        }
    }

    /// Every request byte, in order (what "the same stream" means).
    #[cfg(test)]
    pub fn all_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The request lines, for the protocol-layer timings.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.bytes
            .split(|b| *b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| std::str::from_utf8(l).expect("request lines are ASCII"))
    }
}

fn kv_key(conn: usize, idx: usize) -> String {
    format!("c{conn}k{idx:04}")
}

fn kv_is_counter(idx: usize) -> bool {
    idx % KV_COUNTER_EVERY == KV_COUNTER_EVERY - 1
}

/// The `j`-th string key's index: skips the counters.
fn kv_string_idx(j: usize) -> usize {
    j + j / (KV_COUNTER_EVERY - 1)
}

/// The `j`-th counter key's index.
fn kv_counter_idx(j: usize) -> usize {
    j * KV_COUNTER_EVERY + KV_COUNTER_EVERY - 1
}

/// A 16-byte value from 60 random bits.
fn kv_value(id: u64) -> String {
    format!("v{id:015x}")
}

fn kv_value_id(rng: &mut XorShift) -> u64 {
    rng.next_u64() >> 4
}

/// What one connection believes the server holds for the rows it alone
/// writes. Replaying a stream's effects in send order keeps it exact,
/// because every reply was awaited before the next burst went out.
pub struct Model {
    conn: usize,
    /// String keys: the last value id set. Counter keys: the sum.
    kv: Vec<u64>,
    /// `follower << 32 | followee` for followees this connection owns.
    edges: HashSet<u64>,
    followers: Vec<u32>,
    profile: Vec<u32>,
    group: Vec<bool>,
}

fn edge(follower: u32, followee: u32) -> u64 {
    (follower as u64) << 32 | followee as u64
}

impl Model {
    pub fn new(workload: &Workload, conn: usize) -> Model {
        let (keys, users) = match workload.mix {
            Mix::Kv { .. } => (KV_KEYS, 0),
            Mix::Retwis => (0, USERS_CAP),
        };
        Model {
            conn,
            kv: vec![0; keys],
            edges: HashSet::new(),
            followers: vec![0; users],
            profile: vec![0; users],
            group: vec![false; users],
        }
    }

    #[inline]
    pub fn apply(&mut self, effect: &Effect) {
        match *effect {
            Effect::Set { key, value } => self.kv[key as usize] = value,
            Effect::Incr { key, delta } => self.kv[key as usize] += delta as u64,
            Effect::Follow { follower, followee } => {
                if self.edges.insert(edge(follower, followee)) {
                    self.followers[followee as usize] += 1;
                }
            }
            Effect::Unfollow { follower, followee } => {
                if self.edges.remove(&edge(follower, followee)) {
                    self.followers[followee as usize] -= 1;
                }
            }
            Effect::Join(user) => self.group[user as usize] = true,
            Effect::Leave(user) => self.group[user as usize] = false,
            Effect::Profile(user) => self.profile[user as usize] += 1,
        }
    }

    /// The read-back: one query per row this connection owns, and the
    /// exact reply line the model predicts for it.
    pub fn read_back(&self) -> (Stream, Vec<Vec<u8>>) {
        let mut stream = Stream::default();
        let mut expected = Vec::new();
        let mut ask = |line: String, want: String| {
            stream.push(&line, want.as_bytes()[0], Applies::Nothing, None);
            stream.end_burst_at(BULK_BURST);
            expected.push(want.into_bytes());
        };
        for (idx, held) in self.kv.iter().enumerate() {
            let want = if kv_is_counter(idx) {
                format!("${held}")
            } else {
                format!("${}", kv_value(*held))
            };
            ask(format!("GET {}", kv_key(self.conn, idx)), want);
        }
        for user in (self.conn..self.followers.len()).step_by(CONNS) {
            ask(
                format!("FOLLOWERS {user}"),
                format!(":{}", self.followers[user]),
            );
            ask(
                format!("PROFILEVER {user}"),
                format!(":{}", self.profile[user]),
            );
            ask(
                format!("INGROUP {user}"),
                format!(":{}", self.group[user] as u8),
            );
        }
        stream.end_burst();
        (stream, expected)
    }
}

/// The rows a connection writes before the first measured request.
pub fn preload(workload: &Workload, seed: u64, conn: usize) -> Stream {
    let mut stream = Stream::default();
    match workload.mix {
        Mix::Kv { .. } => {
            let mut rng = XorShift::derive(seed, &[workload.index(), conn as u64, 0]);
            for idx in 0..KV_KEYS {
                let key = kv_key(conn, idx);
                if kv_is_counter(idx) {
                    stream.push(&format!("SET {key} 0"), b'+', Applies::Single, None);
                } else {
                    let value = kv_value_id(&mut rng);
                    stream.push(
                        &format!("SET {key} {}", kv_value(value)),
                        b'+',
                        Applies::Single,
                        Some(Effect::Set {
                            key: idx as u32,
                            value,
                        }),
                    );
                }
                stream.end_burst_at(BULK_BURST);
            }
        }
        Mix::Retwis => {
            for user in (conn..USERS_PRELOAD).step_by(CONNS) {
                stream.push(&format!("ADDUSER {user}"), b'+', Applies::Single, None);
                stream.end_burst_at(BULK_BURST);
            }
            for (follower, followee) in follow_graph(seed) {
                if followee as usize % CONNS == conn {
                    stream.push(
                        &format!("FOLLOW {follower} {followee}"),
                        b'+',
                        Applies::Single,
                        Some(Effect::Follow { follower, followee }),
                    );
                    stream.end_burst_at(BULK_BURST);
                }
            }
        }
    }
    stream.end_burst();
    stream
}

/// The preloaded follow graph: the same for both connections, each of
/// which sends the edges whose followee it owns.
fn follow_graph(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = XorShift::derive(seed, &[u64::MAX, 0]);
    let zipf = Zipf::new(USERS_PRELOAD, ZIPF_ALPHA);
    let mut edges = Vec::with_capacity(USERS_PRELOAD * FOLLOWS_PER_USER);
    for follower in 0..USERS_PRELOAD as u32 {
        let mut picked = [u32::MAX; FOLLOWS_PER_USER];
        let mut n = 0;
        while n < FOLLOWS_PER_USER {
            let followee = zipf.sample(&mut rng) as u32;
            if followee != follower && !picked[..n].contains(&followee) {
                picked[n] = followee;
                n += 1;
                edges.push((follower, followee));
            }
        }
    }
    edges
}

/// One connection's pool of measured traffic.
pub fn pool(workload: &Workload, seed: u64, conn: usize) -> Stream {
    let mut rng = XorShift::derive(seed, &[workload.index(), conn as u64, 1]);
    match workload.mix {
        Mix::Kv { get, set } => kv_pool(workload, conn, get, set, &mut rng),
        Mix::Retwis => retwis_pool(workload, seed, conn, &mut rng),
    }
}

fn kv_pool(workload: &Workload, conn: usize, get: u64, set: u64, rng: &mut XorShift) -> Stream {
    let mut stream = Stream::default();
    let mut line = String::new();
    for _ in 0..workload.pool_bursts {
        for _ in 0..workload.depth {
            line.clear();
            let roll = rng.below(100);
            if roll < get {
                let idx = rng.below(KV_KEYS as u64) as usize;
                let _ = write!(line, "GET {}", kv_key(conn, idx));
                stream.push(&line, b'$', Applies::Nothing, None);
            } else if roll < get + set {
                let idx = kv_string_idx(rng.below(KV_STRING_KEYS as u64) as usize);
                let value = kv_value_id(rng);
                let _ = write!(line, "SET {} {}", kv_key(conn, idx), kv_value(value));
                let effect = Effect::Set {
                    key: idx as u32,
                    value,
                };
                stream.push(&line, b'+', Applies::Single, Some(effect));
            } else {
                let idx = kv_counter_idx(rng.below((KV_KEYS / KV_COUNTER_EVERY) as u64) as usize);
                let delta = 1 + rng.below(9) as u32;
                let _ = write!(line, "INCR {} {delta}", kv_key(conn, idx));
                let effect = Effect::Incr {
                    key: idx as u32,
                    delta,
                };
                stream.push(&line, b':', Applies::Single, Some(effect));
            }
        }
        stream.end_burst();
    }
    stream
}

/// Table 2 of the paper, in percent. FOLLOW and UNFOLLOW share one
/// class, as do JOIN and LEAVE.
#[derive(Clone, Copy, PartialEq)]
enum Verb {
    AddUser,
    Follow,
    Post,
    Timeline,
    Join,
    Profile,
}

fn retwis_verb(roll: u64) -> Verb {
    match roll {
        0..5 => Verb::AddUser,
        5..10 => Verb::Follow,
        10..25 => Verb::Post,
        25..85 => Verb::Timeline,
        85..90 => Verb::Join,
        _ => Verb::Profile,
    }
}

/// Paired commands come in groups of four — open x, open y, close x,
/// close y — so a pair is a few bursts apart and every group nets to
/// nothing. Slots left over after the last whole group become reads.
const PAIR_GROUP: usize = 4;

fn retwis_pool(workload: &Workload, seed: u64, conn: usize, rng: &mut XorShift) -> Stream {
    let slots = workload.pool_bursts * workload.depth;
    let mut verbs: Vec<Verb> = (0..slots).map(|_| retwis_verb(rng.below(100))).collect();
    for paired in [Verb::Follow, Verb::Join] {
        let spare = verbs.iter().filter(|v| **v == paired).count() % PAIR_GROUP;
        for verb in verbs.iter_mut().rev().filter(|v| **v == paired).take(spare) {
            *verb = Verb::Timeline;
        }
    }

    // Edges the preload created: a measured FOLLOW must add a new one.
    let preloaded: HashSet<u64> = follow_graph(seed)
        .into_iter()
        .map(|(follower, followee)| edge(follower, followee))
        .collect();
    let zipf = Zipf::new(USERS_CAP, ZIPF_ALPHA);
    // A Zipf pick among the users this connection may mutate.
    let owned = |rng: &mut XorShift| (zipf.sample(rng) / CONNS * CONNS + conn) as u32;

    let mut stream = Stream::default();
    let mut line = String::new();
    let (mut added, mut posted, mut follows, mut joins) = (0usize, 0u64, 0usize, 0usize);
    let mut open_edges = [(0u32, 0u32); PAIR_GROUP / 2];
    let mut open_joins = [0u32; PAIR_GROUP / 2];
    for (slot, verb) in verbs.into_iter().enumerate() {
        line.clear();
        match verb {
            Verb::AddUser => {
                let user = USERS_PRELOAD + (added * CONNS + conn) % USERS_PRELOAD;
                added += 1;
                let _ = write!(line, "ADDUSER {user}");
                stream.push(&line, b'+', Applies::Single, None);
            }
            Verb::Follow => {
                let phase = follows % PAIR_GROUP;
                follows += 1;
                if phase < PAIR_GROUP / 2 {
                    let (follower, followee) = loop {
                        let follower = rng.below(USERS_PRELOAD as u64) as u32;
                        let followee = owned(rng);
                        let taken = preloaded.contains(&edge(follower, followee))
                            || open_edges[..phase].contains(&(follower, followee));
                        if follower != followee && !taken {
                            break (follower, followee);
                        }
                    };
                    open_edges[phase] = (follower, followee);
                    let _ = write!(line, "FOLLOW {follower} {followee}");
                    let effect = Effect::Follow { follower, followee };
                    stream.push(&line, b'+', Applies::Single, Some(effect));
                } else {
                    let (follower, followee) = open_edges[phase - PAIR_GROUP / 2];
                    let _ = write!(line, "UNFOLLOW {follower} {followee}");
                    let effect = Effect::Unfollow { follower, followee };
                    stream.push(&line, b'+', Applies::Single, Some(effect));
                }
            }
            Verb::Post => {
                let msg = posted * CONNS as u64 + conn as u64;
                posted += 1;
                let _ = write!(line, "POST {} {msg}", owned(rng));
                stream.push(&line, b'+', Applies::Post, None);
            }
            Verb::Timeline => {
                let _ = write!(line, "TIMELINE {}", zipf.sample(rng));
                stream.push(&line, b'*', Applies::Nothing, None);
            }
            Verb::Join => {
                let phase = joins % PAIR_GROUP;
                joins += 1;
                if phase < PAIR_GROUP / 2 {
                    let user = loop {
                        let user = owned(rng);
                        if !open_joins[..phase].contains(&user) {
                            break user;
                        }
                    };
                    open_joins[phase] = user;
                    let _ = write!(line, "JOIN {user}");
                    stream.push(&line, b'+', Applies::Single, Some(Effect::Join(user)));
                } else {
                    let user = open_joins[phase - PAIR_GROUP / 2];
                    let _ = write!(line, "LEAVE {user}");
                    stream.push(&line, b'+', Applies::Single, Some(Effect::Leave(user)));
                }
            }
            Verb::Profile => {
                let user = owned(rng);
                let _ = write!(line, "PROFILE {user}");
                stream.push(&line, b':', Applies::Single, Some(Effect::Profile(user)));
            }
        }
        if (slot + 1) % workload.depth == 0 {
            stream.end_burst();
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams_and_seeds_differ() {
        for w in &WORKLOADS {
            for conn in 0..CONNS {
                let a = pool(w, 1, conn);
                let b = pool(w, 1, conn);
                let c = pool(w, 2, conn);
                assert_eq!(a.all_bytes(), b.all_bytes(), "{} pool", w.name);
                assert_ne!(a.all_bytes(), c.all_bytes(), "{} pool by seed", w.name);
                let pa = preload(w, 1, conn);
                let pb = preload(w, 1, conn);
                let pc = preload(w, 2, conn);
                assert_eq!(pa.all_bytes(), pb.all_bytes(), "{} preload", w.name);
                assert_ne!(pa.all_bytes(), pc.all_bytes(), "{} preload by seed", w.name);
            }
            assert_ne!(
                pool(w, 1, 0).all_bytes(),
                pool(w, 1, 1).all_bytes(),
                "{}: connections send different traffic",
                w.name
            );
        }
    }

    #[test]
    fn pools_have_the_stated_shape() {
        for w in &WORKLOADS {
            let p = pool(w, 3, 1);
            assert_eq!(p.bursts(), w.pool_bursts, "{}", w.name);
            assert_eq!(p.commands(), w.pool_bursts * w.depth, "{}", w.name);
            let mut lines = 0;
            for i in 0..p.bursts() {
                let b = p.burst(i);
                assert_eq!(b.kinds.len(), w.depth);
                assert_eq!(b.bytes.iter().filter(|c| **c == b'\n').count(), w.depth);
                lines += b.kinds.len();
            }
            assert_eq!(lines, p.lines().count());
        }
    }

    fn share(stream: &Stream, verb: &str) -> f64 {
        let hits = stream
            .lines()
            .filter(|l| l.split(' ').next() == Some(verb))
            .count();
        hits as f64 / stream.commands() as f64
    }

    #[test]
    fn mixes_match_their_tables() {
        let near = |got: f64, want: f64| (got - want).abs() < 0.01;
        let read = pool(by_name("kv_read_full").unwrap(), 1, 0);
        assert!(near(share(&read, "GET"), 0.90));
        assert!(near(share(&read, "SET"), 0.05));
        assert!(near(share(&read, "INCR"), 0.05));
        let write = pool(by_name("kv_write_bare").unwrap(), 1, 0);
        assert_eq!(share(&write, "GET"), 0.0);
        assert!(near(share(&write, "SET"), 0.50));
        let rtt = pool(by_name("kv_depth1_full").unwrap(), 1, 0);
        assert!(near(share(&rtt, "GET"), 0.50));
        assert_eq!(share(&rtt, "INCR"), 0.0);
        let retwis = pool(by_name("retwis_mix_full").unwrap(), 1, 0);
        assert!(near(share(&retwis, "ADDUSER"), 0.05));
        assert!(near(
            share(&retwis, "FOLLOW") + share(&retwis, "UNFOLLOW"),
            0.05
        ));
        assert!(near(share(&retwis, "POST"), 0.15));
        assert!(near(share(&retwis, "TIMELINE"), 0.60));
        assert!(near(share(&retwis, "JOIN") + share(&retwis, "LEAVE"), 0.05));
        assert!(near(share(&retwis, "PROFILE"), 0.10));
    }

    #[test]
    fn connections_write_disjoint_rows() {
        let w = by_name("retwis_mix_full").unwrap();
        for conn in 0..CONNS {
            for stream in [preload(w, 5, conn), pool(w, 5, conn)] {
                for line in stream.lines() {
                    let mut parts = line.split(' ');
                    let verb = parts.next().unwrap();
                    let args: Vec<usize> = parts.map(|a| a.parse().unwrap()).collect();
                    let written = match verb {
                        "TIMELINE" => continue,
                        "FOLLOW" | "UNFOLLOW" => args[1],
                        _ => args[0],
                    };
                    assert_eq!(written % CONNS, conn, "{line}");
                    assert!(args.iter().all(|u| *u < USERS_CAP), "{line}");
                }
            }
        }
        let kv = by_name("kv_write_bare").unwrap();
        assert!(pool(kv, 5, 0).lines().all(|l| l.contains(" c0k")));
        assert!(pool(kv, 5, 1).lines().all(|l| l.contains(" c1k")));
    }

    #[test]
    fn kv_key_classes_do_not_overlap() {
        let strings: HashSet<usize> = (0..KV_STRING_KEYS).map(kv_string_idx).collect();
        let counters: HashSet<usize> = (0..KV_KEYS / KV_COUNTER_EVERY)
            .map(kv_counter_idx)
            .collect();
        assert_eq!(strings.len() + counters.len(), KV_KEYS);
        assert!(strings.iter().all(|i| !kv_is_counter(*i) && *i < KV_KEYS));
        assert!(counters.iter().all(|i| kv_is_counter(*i) && *i < KV_KEYS));
        assert_eq!(kv_value(0xabc).len(), 16);
        assert_eq!(kv_value(u64::MAX >> 4).len(), 16);
    }

    /// Replaying preload plus whole pool cycles must leave the model
    /// where the preload left it, except for the rows that only grow
    /// by design (counters, profile versions, last values).
    #[test]
    fn a_full_retwis_cycle_nets_to_nothing() {
        let w = by_name("retwis_mix_full").unwrap();
        let mut model = Model::new(w, 0);
        let pre = preload(w, 9, 0);
        for i in 0..pre.bursts() {
            pre.burst(i).effects.iter().for_each(|e| model.apply(e));
        }
        let followers = model.followers.clone();
        let edges = model.edges.len();
        assert_eq!(
            followers.iter().map(|n| *n as usize).sum::<usize>(),
            edges,
            "every preloaded edge is distinct"
        );
        let p = pool(w, 9, 0);
        for _ in 0..2 {
            for i in 0..p.bursts() {
                p.burst(i).effects.iter().for_each(|e| model.apply(e));
            }
        }
        assert_eq!(model.followers, followers);
        assert_eq!(model.edges.len(), edges);
        assert!(model.group.iter().all(|g| !g));
        assert!(model.profile.iter().sum::<u32>() > 0);
    }

    #[test]
    fn read_back_asks_for_every_owned_row() {
        let kv = by_name("kv_read_full").unwrap();
        let mut model = Model::new(kv, 1);
        model.apply(&Effect::Set {
            key: 0,
            value: 0xabc,
        });
        model.apply(&Effect::Incr { key: 7, delta: 5 });
        model.apply(&Effect::Incr { key: 7, delta: 4 });
        let (stream, expected) = model.read_back();
        assert_eq!(stream.commands(), KV_KEYS);
        assert_eq!(expected.len(), KV_KEYS);
        assert_eq!(stream.lines().next(), Some("GET c1k0000"));
        assert_eq!(expected[0], b"$v000000000000abc");
        assert_eq!(expected[7], b"$9");
        assert_eq!(stream.burst(0).kinds.len(), BULK_BURST);

        let retwis = by_name("retwis_mix_full").unwrap();
        let mut model = Model::new(retwis, 1);
        model.apply(&Effect::Follow {
            follower: 4,
            followee: 1,
        });
        model.apply(&Effect::Follow {
            follower: 4,
            followee: 1,
        });
        model.apply(&Effect::Profile(3));
        model.apply(&Effect::Join(3));
        let (stream, expected) = model.read_back();
        assert_eq!(stream.commands(), 3 * USERS_CAP / CONNS);
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(&lines[..3], ["FOLLOWERS 1", "PROFILEVER 1", "INGROUP 1"]);
        assert_eq!(expected[0], b":1", "a repeated FOLLOW counts once");
        assert_eq!(expected[4], b":1");
        assert_eq!(expected[5], b":1");
    }
}
