//! Token-bucket rate limiting, one bucket per client.
//!
//! Buckets are kept in a [`SegmentedHashMap`] keyed by the session's
//! client identity. The hot path is entirely lock-free: the bucket
//! lookup is a segment read, refill is a CAS on the bucket's
//! last-refill stamp (losers skip — the winner refills), and taking a
//! token is one `fetch_sub`. The only lock is the map's single-writer
//! handle, taken once per *new* client to insert its bucket (the
//! SWMR discipline: many readers, one mutex-serialized writer).
//! Aggregate admission/rejection/refill counts are `LongAdder`s.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{
    split, Admission, Layer, LayerKind, LayerRule, Request, Response, Session, Split,
};
use crate::protocol::Command;
use dego_core::{SegmentationKind, SegmentedHashMap, SegmentedHashMapWriter};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rate-limiter tuning.
#[derive(Clone, Debug)]
pub struct RateLimitConfig {
    /// Bucket capacity: how many requests a client may burst.
    pub burst: u64,
    /// Sustained refill rate, tokens per second.
    pub refill_per_sec: u64,
}

impl Default for RateLimitConfig {
    /// Generous defaults sized so well-behaved benchmark traffic never
    /// trips the limiter (tighten via config/CLI for real deployments).
    fn default() -> Self {
        RateLimitConfig {
            burst: 1 << 20,
            refill_per_sec: 4_000_000,
        }
    }
}

/// One client's token bucket. Tokens can briefly go negative under a
/// concurrent burst; negative observations reject and restore.
#[derive(Debug)]
struct Bucket {
    tokens: AtomicI64,
    /// Micros since the layer's epoch at the last refill.
    last_refill_us: AtomicU64,
}

struct RateLimitState {
    config: RateLimitConfig,
    epoch: Instant,
    buckets: Arc<SegmentedHashMap<String, Arc<Bucket>>>,
    /// Insert path for first-seen clients; serialized (SWMR writer).
    writer: Mutex<SegmentedHashMapWriter<String, Arc<Bucket>>>,
    metrics: Arc<PipelineMetrics>,
}

impl RateLimitState {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The bucket for `client`, inserting a full one on first sight.
    fn bucket_for(&self, client: &str) -> Arc<Bucket> {
        let key = client.to_string();
        if let Some(b) = self.buckets.get(&key) {
            return b;
        }
        let mut writer = self.writer.lock().expect("rate-limit writer");
        // Double-check under the lock: another connection of the same
        // client may have inserted while we waited.
        if let Some(b) = self.buckets.get(&key) {
            return b;
        }
        let bucket = Arc::new(Bucket {
            tokens: AtomicI64::new(self.config.burst as i64),
            last_refill_us: AtomicU64::new(self.now_us()),
        });
        writer.put(key, Arc::clone(&bucket));
        bucket
    }

    /// Refill `bucket` for the elapsed time. One CAS decides which
    /// observer performs the refill; the token top-up is clamped to the
    /// burst capacity.
    fn refill(&self, bucket: &Bucket) {
        let now = self.now_us();
        let last = bucket.last_refill_us.load(Ordering::Acquire);
        let elapsed = now.saturating_sub(last);
        let add = elapsed.saturating_mul(self.config.refill_per_sec) / 1_000_000;
        if add == 0 {
            return;
        }
        if bucket
            .last_refill_us
            .compare_exchange(last, now, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // another observer refilled for this interval
        }
        let cur = bucket.tokens.load(Ordering::Relaxed);
        let headroom = (self.config.burst as i64).saturating_sub(cur);
        let add = (add.min(i64::MAX as u64) as i64).min(headroom);
        if add > 0 {
            bucket.tokens.fetch_add(add, Ordering::AcqRel);
            self.metrics.rate_refilled.add(add);
        }
    }

    /// Take up to `n` tokens in **one** refill and one `fetch_sub`,
    /// returning how many were granted. Matches `n` one-token takes:
    /// with `t` tokens on hand, `min(t, n)` commands are admitted and
    /// the rest rejected (sequential takes would refill between them,
    /// but a burst is sub-millisecond — the next burst's refill
    /// recovers the difference).
    fn admit_n(&self, bucket: &Bucket, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.refill(bucket);
        let take = n.min(i64::MAX as u64) as i64;
        let prev = bucket.tokens.fetch_sub(take, Ordering::AcqRel);
        let admitted = prev.clamp(0, take);
        if admitted < take {
            // Return the tokens the rejected remainder did not earn.
            bucket.tokens.fetch_add(take - admitted, Ordering::AcqRel);
        }
        self.metrics.rate_admitted.add(admitted);
        self.metrics.rate_rejected.add(take - admitted);
        admitted as u64
    }

    /// The structured rejection; its `retry_us` hint is the micros
    /// until one token refills.
    fn rejection(&self) -> Response {
        let retry_us = 1_000_000 / self.config.refill_per_sec.max(1);
        Response::rejection("RATELIMIT", format_args!("rejected retry_us={retry_us}"))
    }
}

/// The rate-limit [`Layer`].
pub struct RateLimitLayer {
    state: Arc<RateLimitState>,
}

impl RateLimitLayer {
    /// Build the layer with its shared bucket map.
    pub fn new(config: RateLimitConfig, metrics: Arc<PipelineMetrics>) -> Self {
        // A single segment: all inserts go through the one
        // mutex-serialized writer; reads are lock-free from any thread.
        let buckets = SegmentedHashMap::new(1, 1024, SegmentationKind::Hash);
        let writer = Mutex::new(buckets.writer());
        RateLimitLayer {
            state: Arc::new(RateLimitState {
                config,
                epoch: Instant::now(),
                buckets,
                writer,
                metrics,
            }),
        }
    }
}

impl Layer for RateLimitLayer {
    type Rule = RateLimitRule;

    fn rule(&self, session: &Session) -> RateLimitRule {
        let bucket = self.state.bucket_for(&session.client);
        RateLimitRule {
            state: Arc::clone(&self.state),
            bucket,
            client: session.client.clone(),
        }
    }
}

/// The rate-limit layer's per-session rules.
pub struct RateLimitRule {
    state: Arc<RateLimitState>,
    bucket: Arc<Bucket>,
    client: String,
}

impl Drop for RateLimitRule {
    /// Reclaim the client's bucket when its last session ends —
    /// without this, peer-keyed buckets accumulate one entry per
    /// connection ever made. Strong-count 2 = the map and us; the
    /// re-check happens under the insert lock, so a session being
    /// wrapped concurrently keeps the entry alive. (A reader that
    /// fetched the `Arc` in the razor-thin window between the re-check
    /// and the remove keeps a working bucket; the next session for
    /// that client simply starts a fresh one.)
    fn drop(&mut self) {
        if Arc::strong_count(&self.bucket) > 2 {
            return;
        }
        let mut writer = self.state.writer.lock().expect("rate-limit writer");
        if Arc::strong_count(&self.bucket) == 2 {
            writer.remove(&self.client);
        }
    }
}

/// `QUIT` is never charged (a throttled client must still hang up
/// cleanly), nor are the `HEALTH`/`READY` probes (an orchestrator must
/// see liveness even through a throttled connection).
fn uncharged(cmd: &Command) -> bool {
    matches!(cmd, Command::Quit | Command::Health | Command::Ready)
}

impl LayerRule for RateLimitRule {
    type Ctx = Split;

    /// `token_bucket.take(n)` instead of `n` takes — one refill and one
    /// `fetch_sub` admit the first `k` chargeable commands of the
    /// burst; the rest are rejected in place. Order is preserved:
    /// admitted commands travel downstream as one inner batch and are
    /// zipped back around the rejections.
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<Split> {
        let admission_t = crate::span::start();
        let chargeable = reqs.iter().filter(|r| !uncharged(&r.command)).count() as u64;
        let granted = self.state.admit_n(&self.bucket, chargeable);
        crate::span::record(LayerKind::RateLimit, admission_t);
        // Fast path: the whole burst fit the bucket — no slot
        // bookkeeping.
        if granted == chargeable {
            return Admission::Pass(reqs);
        }
        let mut spent = 0u64;
        let (reqs, rejections) = split(reqs, |req| {
            if uncharged(&req.command) {
                None
            } else if spent < granted {
                spent += 1;
                None
            } else {
                Some(self.state.rejection())
            }
        });
        Admission::Observe(reqs, rejections)
    }

    fn observe(&mut self, rejections: Split, inner: Vec<Response>) -> Vec<Response> {
        rejections.zip(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Service;
    use crate::protocol::Reply;

    struct Ok200;
    impl Service for Ok200 {
        fn call(&mut self, _req: Request) -> Response {
            Response::ok(Reply::Status("OK"))
        }
    }

    fn limited(burst: u64, refill: u64) -> (RateLimitLayer, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        (
            RateLimitLayer::new(
                RateLimitConfig {
                    burst,
                    refill_per_sec: refill,
                },
                Arc::clone(&metrics),
            ),
            metrics,
        )
    }

    fn session(name: &str) -> Session {
        Session {
            client: name.into(),
        }
    }

    #[test]
    fn burst_admits_then_rejects_with_structured_error() {
        let (layer, metrics) = limited(3, 1); // 1 token/s: no refill mid-test
        let mut svc = layer.wrap(&session("a"), Ok200);
        for _ in 0..3 {
            assert_eq!(
                svc.call(Request::new(Command::Ping)).reply,
                Reply::Status("OK")
            );
        }
        let resp = svc.call(Request::new(Command::Ping));
        match resp.reply {
            Reply::Error(e) => {
                assert!(e.starts_with("RATELIMIT "), "structured tag, got {e:?}");
                assert!(e.contains("retry_us="), "retry hint, got {e:?}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(metrics.rate_admitted.sum(), 3);
        assert_eq!(metrics.rate_rejected.sum(), 1);
    }

    #[test]
    fn buckets_are_per_client() {
        let (layer, _) = limited(2, 1);
        let mut a = layer.wrap(&session("a"), Ok200);
        let mut b = layer.wrap(&session("b"), Ok200);
        for _ in 0..2 {
            assert!(matches!(
                a.call(Request::new(Command::Ping)).reply,
                Reply::Status(_)
            ));
        }
        assert!(matches!(
            a.call(Request::new(Command::Ping)).reply,
            Reply::Error(_)
        ));
        // b's bucket is untouched by a's exhaustion.
        assert!(matches!(
            b.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
    }

    #[test]
    fn quit_bypasses_an_exhausted_bucket() {
        let (layer, _) = limited(1, 1);
        let mut svc = layer.wrap(&session("a"), Ok200);
        svc.call(Request::new(Command::Ping));
        assert!(matches!(
            svc.call(Request::new(Command::Quit)).reply,
            Reply::Status(_)
        ));
    }

    #[test]
    fn batch_takes_tokens_in_bulk_and_rejects_the_tail() {
        let (layer, metrics) = limited(3, 1); // no refill mid-test
        let mut svc = layer.wrap(&session("a"), Ok200);
        let burst: Vec<Request> = (0..5)
            .map(|i| Request::new(Command::Get(format!("k{i}"))))
            .collect();
        let resps = svc.call_batch(burst);
        // Sequential semantics positionally: the first 3 admitted, the
        // rest rejected with the structured error.
        for resp in &resps[..3] {
            assert!(matches!(resp.reply, Reply::Status(_)));
        }
        for resp in &resps[3..] {
            match &resp.reply {
                Reply::Error(e) => {
                    assert!(e.starts_with("RATELIMIT "), "got {e:?}");
                    assert!(e.contains("retry_us="), "got {e:?}");
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert_eq!(metrics.rate_admitted.sum(), 3);
        assert_eq!(metrics.rate_rejected.sum(), 2);
    }

    #[test]
    fn batch_never_charges_quit() {
        let (layer, _) = limited(1, 1);
        let mut svc = layer.wrap(&session("a"), Ok200);
        let resps = svc.call_batch(vec![
            Request::new(Command::Ping), // takes the only token
            Request::new(Command::Ping), // rejected
            Request::new(Command::Quit), // still passes
        ]);
        assert!(matches!(resps[0].reply, Reply::Status(_)));
        assert!(matches!(resps[1].reply, Reply::Error(_)));
        assert!(matches!(resps[2].reply, Reply::Status(_)));
    }

    #[test]
    fn tokens_refill_over_time() {
        let (layer, metrics) = limited(1, 1_000_000); // 1 token/µs
        let mut svc = layer.wrap(&session("a"), Ok200);
        svc.call(Request::new(Command::Ping));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert!(metrics.rate_refilled.sum() >= 1);
    }

    #[test]
    fn buckets_are_reclaimed_when_the_last_session_ends() {
        let (layer, _) = limited(2, 1);
        let a = layer.wrap(&session("a"), Ok200);
        let _b = layer.wrap(&session("b"), Ok200);
        let a2 = layer.wrap(&session("a"), Ok200);
        assert_eq!(layer.state.buckets.len(), 2);
        drop(a);
        assert_eq!(layer.state.buckets.len(), 2, "a still has a session");
        drop(a2);
        assert_eq!(layer.state.buckets.len(), 1, "a's bucket reclaimed");
    }

    #[test]
    fn same_client_shares_one_bucket_across_connections() {
        let (layer, _) = limited(2, 1);
        let mut c1 = layer.wrap(&session("shared"), Ok200);
        let mut c2 = layer.wrap(&session("shared"), Ok200);
        assert!(matches!(
            c1.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert!(matches!(
            c2.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert!(matches!(
            c1.call(Request::new(Command::Ping)).reply,
            Reply::Error(_)
        ));
    }
}
