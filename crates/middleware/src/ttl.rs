//! TTL/expiry: an expiry sidecar in front of the store.
//!
//! The store itself stays TTL-ignorant; this layer keeps a
//! [`SegmentedHashMap`] of `key → expires_at` sidecar entries.
//! `EXPIRE key millis` arms a timer on an existing key (probing
//! existence with a downstream `GET`); a `GET` whose sidecar timer has
//! lapsed is answered `_` (nil) and the stale row is reaped with a
//! synthesized downstream `DEL` — lazy expiry, Redis-style. A `SET` or
//! `DEL` passing through clears the key's timer; `INCR` (a
//! read-modify-write) respects a lapsed timer by reaping first, so it
//! restarts from zero instead of resurrecting an expired value.
//!
//! **Safety of the rewrite-vs-expiry race.** The destructive half of a
//! reap (the synthesized `DEL`) and every store mutation on a *timed*
//! key are serialized under the sidecar's writer mutex, and the reap
//! re-checks the entry after acquiring it. A mutation that won the
//! lock first removed the entry, so the reap aborts; a mutation that
//! lost waits until the reap's `DEL` was acknowledged, so its write
//! lands after. Either way an acknowledged write is never destroyed by
//! an expiry.
//!
//! Hot path: while no timer is armed anywhere (the sidecar is empty),
//! `GET`/`SET`/`DEL`/`INCR` forward without a sidecar lookup, one
//! command or a whole burst alike. Otherwise each pays one lock-free
//! lookup; keys without timers never touch the mutex, and timed keys
//! pay it only on mutation or reap (live reads stay lock-free).

use crate::metrics::PipelineMetrics;
use crate::pipeline::{
    Admission, Layer, LayerKind, LayerRule, Request, Response, Service, Session,
};
use crate::protocol::{Command, Reply};
use dego_core::{SegmentationKind, SegmentedHashMap, SegmentedHashMapWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Sidecar entry: when the key's value expires (micros since the layer
/// epoch).
#[derive(Debug)]
struct TtlEntry {
    expires_at_us: AtomicU64,
}

struct TtlState {
    epoch: Instant,
    sidecar: Arc<SegmentedHashMap<String, Arc<TtlEntry>>>,
    /// Serializes entry insert/remove *and* every cross-plane sequence
    /// (reap `DEL`s, mutations on timed keys) — see the module doc.
    writer: Mutex<SegmentedHashMapWriter<String, Arc<TtlEntry>>>,
    metrics: Arc<PipelineMetrics>,
}

impl TtlState {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Whether `key` currently has a *lapsed* entry (unlocked probe).
    fn lapsed(&self, entry: &TtlEntry) -> bool {
        self.now_us() >= entry.expires_at_us.load(Ordering::Acquire)
    }
}

/// The TTL [`Layer`]: stateless per session (the sidecar is shared),
/// so it serves as its own session rules.
#[derive(Clone)]
pub struct TtlLayer {
    state: Arc<TtlState>,
}

impl TtlLayer {
    /// Build the layer with its shared sidecar map.
    pub fn new(metrics: Arc<PipelineMetrics>) -> Self {
        let sidecar = SegmentedHashMap::new(1, 1024, SegmentationKind::Hash);
        let writer = Mutex::new(sidecar.writer());
        TtlLayer {
            state: Arc::new(TtlState {
                epoch: Instant::now(),
                sidecar,
                writer,
                metrics,
            }),
        }
    }
}

impl Layer for TtlLayer {
    type Rule = Self;

    fn rule(&self, _session: &Session) -> Self {
        self.clone()
    }
}

type SidecarWriter<'a> = MutexGuard<'a, SegmentedHashMapWriter<String, Arc<TtlEntry>>>;

impl TtlLayer {
    /// With the lock held: if `key`'s entry is (still) lapsed, reap it
    /// — `DEL` the stale row downstream and drop the entry. Returns
    /// whether a reap happened. The lock stays held across the `DEL`,
    /// which is what makes expiry safe against concurrent rewrites.
    fn reap_if_lapsed<S: Service>(
        &self,
        inner: &mut S,
        writer: &mut SidecarWriter<'_>,
        key: &String,
    ) -> bool {
        match self.state.sidecar.get(key) {
            Some(entry) if self.state.lapsed(&entry) => {
                let _ = inner.call(Request::new(Command::Del(key.clone())));
                writer.remove(key);
                self.state.metrics.ttl_expired.increment();
                true
            }
            _ => false,
        }
    }

    /// `EXPIRE key millis`: probe the key and arm (or re-arm) a timer.
    fn expire<S: Service>(&self, inner: &mut S, key: String, millis: u64) -> Response {
        let mut writer = self.state.writer.lock().expect("ttl writer");
        // A lapsed timer means the value is gone: reap it and report
        // "no such key" instead of resurrecting it.
        if self.reap_if_lapsed(inner, &mut writer, &key) {
            return Response::ok(Reply::Int(0));
        }
        match inner.call(Request::new(Command::Get(key.clone()))).reply {
            Reply::Nil => Response::ok(Reply::Int(0)),
            Reply::Value(_) => {
                let deadline = self
                    .state
                    .now_us()
                    .saturating_add(millis.saturating_mul(1_000));
                if let Some(entry) = self.state.sidecar.get(&key) {
                    entry.expires_at_us.store(deadline, Ordering::Release);
                } else {
                    writer.put(
                        key,
                        Arc::new(TtlEntry {
                            expires_at_us: AtomicU64::new(deadline),
                        }),
                    );
                }
                self.state.metrics.ttl_armed.increment();
                Response::ok(Reply::Int(1))
            }
            // Propagate downstream failures (e.g. the store refused).
            other => Response::ok(other),
        }
    }

    /// A mutation (`SET`/`DEL`/`INCR`) on a key that has a sidecar
    /// entry: serialize against reaps, clearing a lapsed value first so
    /// `INCR` restarts from zero, then clear the timer (`SET`/`DEL`
    /// rewrite the value; `INCR` keeps its — now reaped-or-live — row
    /// fresh, Redis-style it would keep the TTL, but after a rewrite
    /// through this path the timer is gone either way).
    fn mutate_timed<S: Service>(&self, inner: &mut S, req: Request, key: String) -> Response {
        let mut writer = self.state.writer.lock().expect("ttl writer");
        self.reap_if_lapsed(inner, &mut writer, &key);
        let resp = inner.call(req);
        if !matches!(resp.reply, Reply::Error(_)) {
            // The rewrite clears any remaining timer (and its entry).
            writer.remove(&key);
        }
        resp
    }

    /// A `GET` on a key whose unlocked probe saw a lapsed timer:
    /// re-check under the lock, reap, answer nil.
    fn get_lapsed<S: Service>(&self, inner: &mut S, req: Request, key: String) -> Response {
        let mut writer = self.state.writer.lock().expect("ttl writer");
        if self.reap_if_lapsed(inner, &mut writer, &key) {
            return Response::ok(Reply::Nil);
        }
        // Lost the race to a rewrite: the key is live again.
        drop(writer);
        inner.call(req)
    }

    /// The sequential path: one request, its sidecar probe and whatever
    /// store round trips its plan takes, each waited for in turn.
    fn sequential<S: Service>(&mut self, inner: &mut S, req: Request) -> Response {
        let admission_t = crate::span::start();
        // Decide on a borrowed view first so forwarding moves `req`
        // without cloning its key.
        enum Plan {
            Forward,
            MutateTimed(String),
            GetLapsed(String),
            Expire(String, u64),
        }
        let plan = match &req.command {
            Command::Expire(key, millis) => {
                self.state.metrics.ttl_checked.increment();
                Plan::Expire(key.clone(), *millis)
            }
            Command::Get(key) => {
                self.state.metrics.ttl_checked.increment();
                match self.state.sidecar.get(key) {
                    // Live timers read lock-free; only a lapsed one
                    // takes the slow path.
                    Some(entry) if self.state.lapsed(&entry) => Plan::GetLapsed(key.clone()),
                    _ => Plan::Forward,
                }
            }
            Command::Set(key, _) | Command::Del(key) | Command::Incr(key, _) => {
                self.state.metrics.ttl_checked.increment();
                match self.state.sidecar.get(key) {
                    Some(_) => Plan::MutateTimed(key.clone()),
                    None => Plan::Forward,
                }
            }
            _ => Plan::Forward,
        };
        // The sidecar probe is this layer's admission cost; the plan's
        // own downstream work (reaps, the rewrite) is real store
        // traffic, not admission overhead.
        crate::span::record(LayerKind::Ttl, admission_t);
        match plan {
            Plan::Forward => inner.call(req),
            Plan::MutateTimed(key) => self.mutate_timed(inner, req, key),
            Plan::GetLapsed(key) => self.get_lapsed(inner, req, key),
            Plan::Expire(key, millis) => self.expire(inner, key, millis),
        }
    }
}

impl LayerRule for TtlLayer {
    /// Nothing to observe: a burst is forwarded whole or answered here.
    type Ctx = std::convert::Infallible;

    /// **One** sidecar sweep per burst. When no timer is armed anywhere
    /// (`sidecar` empty — by far the common state under kv load) and
    /// the burst carries no `EXPIRE`, no key can be timed, so the
    /// per-command sidecar probes are skipped and the burst forwards as
    /// one inner batch. Any armed timer (or an `EXPIRE` arming one
    /// mid-burst) drops to the sequential path, whose reap locking is
    /// what makes expiry safe.
    fn admit<S: Service>(&mut self, inner: &mut S, reqs: Vec<Request>) -> Admission<Self::Ctx> {
        let admission_t = crate::span::start();
        let arming = reqs
            .iter()
            .any(|r| matches!(r.command, Command::Expire(..)));
        if !arming && self.state.sidecar.is_empty() {
            let kv = reqs
                .iter()
                .filter(|r| {
                    matches!(
                        r.command,
                        Command::Get(_) | Command::Set(..) | Command::Del(_) | Command::Incr(..)
                    )
                })
                .count() as u64;
            self.state.metrics.ttl_checked.add(kv);
            crate::span::record(LayerKind::Ttl, admission_t);
            return Admission::Pass(reqs);
        }
        crate::span::record(LayerKind::Ttl, admission_t);
        let answered = reqs.into_iter().map(|req| self.sequential(inner, req));
        Admission::Answered(answered.collect())
    }

    fn observe(&mut self, ctx: Self::Ctx, _inner: Vec<Response>) -> Vec<Response> {
        match ctx {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BoxService;
    use std::collections::HashMap;
    use std::time::Duration;

    /// A tiny in-memory store standing in for the shard plane.
    struct MapStore {
        map: HashMap<String, String>,
    }

    impl Service for MapStore {
        fn call(&mut self, req: Request) -> Response {
            match req.command {
                Command::Get(k) => Response::ok(match self.map.get(&k) {
                    Some(v) => Reply::Value(v.clone()),
                    None => Reply::Nil,
                }),
                Command::Set(k, v) => {
                    self.map.insert(k, v);
                    Response::ok(Reply::Status("OK"))
                }
                Command::Del(k) => {
                    self.map.remove(&k);
                    Response::ok(Reply::Status("OK"))
                }
                Command::Incr(k, d) => {
                    let next = self
                        .map
                        .get(&k)
                        .and_then(|v| v.parse::<i64>().ok())
                        .unwrap_or(0)
                        + d;
                    self.map.insert(k, next.to_string());
                    Response::ok(Reply::Int(next))
                }
                _ => Response::ok(Reply::Error("unsupported".into())),
            }
        }
    }

    fn ttl_over_store() -> (BoxService, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        let layer = TtlLayer::new(Arc::clone(&metrics));
        let session = Session {
            client: "t:1".into(),
        };
        let store = MapStore {
            map: HashMap::new(),
        };
        (Box::new(layer.wrap(&session, store)), metrics)
    }

    fn call(svc: &mut BoxService, cmd: Command) -> Reply {
        svc.call(Request::new(cmd)).reply
    }

    #[test]
    fn expire_on_missing_key_reports_zero() {
        let (mut svc, _) = ttl_over_store();
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 50)),
            Reply::Int(0)
        );
    }

    #[test]
    fn expired_key_reads_as_nil_and_is_reaped() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 20)),
            Reply::Int(1)
        );
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v".into()),
            "alive before the deadline"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
        // Reaped for real: later reads miss without touching the sidecar.
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1, "no double expiry");
    }

    #[test]
    fn set_disarms_a_pending_timer() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v1".into()));
        call(&mut svc, Command::Expire("k".into(), 20));
        call(&mut svc, Command::Set("k".into(), "v2".into()));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v2".into()),
            "rewrite must cancel the timer"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn rearming_extends_the_deadline() {
        let (mut svc, _) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        // Re-armed well inside the first timer, so a loaded box cannot
        // let it lapse first; then read well past it.
        call(&mut svc, Command::Expire("k".into(), 200));
        std::thread::sleep(Duration::from_millis(20));
        call(&mut svc, Command::Expire("k".into(), 10_000));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v".into())
        );
    }

    #[test]
    fn expire_cannot_resurrect_a_lapsed_key() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        call(&mut svc, Command::Expire("k".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The timer lapsed (no GET reaped it yet): a re-EXPIRE must
        // treat the key as gone, not re-arm the stale value.
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 10_000)),
            Reply::Int(0)
        );
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
    }

    #[test]
    fn incr_on_a_lapsed_key_restarts_from_zero() {
        let (mut svc, _) = ttl_over_store();
        call(&mut svc, Command::Set("n".into(), "41".into()));
        call(&mut svc, Command::Expire("n".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The expired 41 must not leak into the increment.
        assert_eq!(call(&mut svc, Command::Incr("n".into(), 1)), Reply::Int(1));
        assert_eq!(
            call(&mut svc, Command::Get("n".into())),
            Reply::Value("1".into()),
            "the incremented row has no timer"
        );
    }

    #[test]
    fn incr_on_a_live_timed_key_clears_the_timer() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("n".into(), "1".into()));
        call(&mut svc, Command::Expire("n".into(), 20));
        assert_eq!(call(&mut svc, Command::Incr("n".into(), 1)), Reply::Int(2));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut svc, Command::Get("n".into())),
            Reply::Value("2".into()),
            "rewritten row survives the stale deadline"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn batch_with_no_timers_sweeps_once_and_forwards() {
        let (mut svc, metrics) = ttl_over_store();
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("a".into(), "1".into())),
            Request::new(Command::Get("a".into())),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps[1].reply, Reply::Value("1".into()));
        // The two kv commands are counted by the one sweep; PING is
        // not kv traffic.
        assert_eq!(metrics.ttl_checked.sum(), 2);
    }

    #[test]
    fn batch_with_timers_keeps_expiry_semantics() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        call(&mut svc, Command::Expire("k".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The armed (now lapsed) timer forces the sequential path:
        // the batched GET must still observe the expiry.
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Get("k".into())),
        ]);
        assert_eq!(resps[0].reply, Reply::Nil);
        assert_eq!(resps[1].reply, Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1, "reaped exactly once");
    }

    #[test]
    fn batch_carrying_expire_arms_timers() {
        let (mut svc, metrics) = ttl_over_store();
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Expire("k".into(), 10_000)),
        ]);
        assert_eq!(resps[1].reply, Reply::Int(1), "armed mid-burst");
        assert_eq!(metrics.ttl_armed.sum(), 1);
    }

    #[test]
    fn non_kv_commands_pass_untouched() {
        let (mut svc, metrics) = ttl_over_store();
        let before = metrics.ttl_checked.sum();
        call(&mut svc, Command::Ping);
        assert_eq!(metrics.ttl_checked.sum(), before);
    }
}
