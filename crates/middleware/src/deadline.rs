//! Deadline/timeout enforcement with per-class budgets.
//!
//! Each request is timed around the layers below (auth, rate-limit,
//! TTL, the store round-trip). A request that overruns its class
//! budget is answered with a structured `DEADLINE` error instead of
//! its reply — the mutation may still have applied (exactly like an
//! HTTP 504 behind a gateway), the client just lost the latency SLO.
//! `Control` verbs are exempt.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{Admission, Layer, LayerKind, LayerRule, Request, Response, Session};
use crate::protocol::{CommandClass, Reply};
use crate::span;
use std::sync::Arc;
use std::time::Instant;

/// Per-class budgets, microseconds. A zero budget disables the check
/// for that class.
#[derive(Clone, Debug)]
pub struct DeadlineConfig {
    /// Budget for read-class commands.
    pub read_us: u64,
    /// Budget for write-class commands (shard round-trips included).
    pub write_us: u64,
}

impl Default for DeadlineConfig {
    /// Generous defaults (0.5 s reads, 2 s writes): an SLO on
    /// pathological stalls, not a throttle.
    fn default() -> Self {
        DeadlineConfig {
            read_us: 500_000,
            write_us: 2_000_000,
        }
    }
}

/// The deadline [`Layer`]: stateless per session, so it serves as its
/// own session rules.
#[derive(Clone)]
pub struct DeadlineLayer {
    config: DeadlineConfig,
    metrics: Arc<PipelineMetrics>,
}

impl DeadlineLayer {
    /// Build the layer.
    pub fn new(config: DeadlineConfig, metrics: Arc<PipelineMetrics>) -> Self {
        DeadlineLayer { config, metrics }
    }
}

impl Layer for DeadlineLayer {
    type Rule = Self;

    fn rule(&self, _session: &Session) -> Self {
        self.clone()
    }
}

/// A timed burst's budget and clock.
pub struct DeadlineCtx {
    /// The positions of the requests that carry no budget (and keep
    /// their reply on an overrun), ascending.
    exempt: Vec<usize>,
    budget_us: u64,
    /// Requests that do carry one.
    checked: u64,
    /// What an overrun names: a burst of one's verb, else `batch`.
    verb: &'static str,
    start: Instant,
}

impl DeadlineLayer {
    /// This request's class budget (0 = exempt).
    fn budget_us(&self, req: &Request) -> u64 {
        match req.command.class() {
            CommandClass::Read => self.config.read_us,
            CommandClass::Write => self.config.write_us,
            CommandClass::Control => 0,
        }
    }
}

impl LayerRule for DeadlineLayer {
    type Ctx = DeadlineCtx;

    /// **One** deadline check per burst. The budget is the sum of the
    /// per-request class budgets (exempt requests contribute zero), so
    /// the SLO scales with the work admitted; the clock runs from here
    /// to the observe half, so a burst that parks is timed over its
    /// real wait. For a burst of one that is the request's own budget.
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<DeadlineCtx> {
        let admission_t = span::start();
        let (mut budget_us, mut checked, mut exempt) = (0u64, 0u64, Vec::new());
        for (at, req) in reqs.iter().enumerate() {
            match self.budget_us(req) {
                0 => exempt.push(at),
                b => {
                    budget_us = budget_us.saturating_add(b);
                    checked += 1;
                }
            }
        }
        span::record(LayerKind::Deadline, admission_t);
        if budget_us == 0 {
            return Admission::Pass(reqs);
        }
        let verb = match reqs.as_slice() {
            [req] => req.command.verb(),
            _ => "batch",
        };
        let start = Instant::now();
        let ctx = DeadlineCtx {
            exempt,
            budget_us,
            checked,
            verb,
            start,
        };
        Admission::Observe(reqs, ctx)
    }

    /// If the burst overran its budget, every non-exempt response is
    /// replaced by a structured `DEADLINE` error, which names the verb
    /// of a burst of one and `batch` otherwise — the per-request
    /// attribution of a longer burst is gone, which is exactly the
    /// cost amortization buys. Under generous budgets (the production
    /// default) the group check fires in the same pathological stalls
    /// the per-request one would, and replies stay identical to
    /// sequential `call`s.
    fn observe(&mut self, ctx: DeadlineCtx, mut resps: Vec<Response>) -> Vec<Response> {
        let elapsed_us = ctx.start.elapsed().as_micros() as u64;
        let check_t = span::start();
        let (budget_us, verb) = (ctx.budget_us, ctx.verb);
        self.metrics.deadline_checked.add(ctx.checked);
        if elapsed_us > budget_us {
            self.metrics.deadline_missed.add(ctx.checked);
            let mut exempt = ctx.exempt.into_iter().peekable();
            for (at, resp) in resps.iter_mut().enumerate() {
                if exempt.next_if_eq(&at).is_none() {
                    resp.reply = Reply::Error(format!(
                        "DEADLINE {verb} took {elapsed_us}us budget {budget_us}us"
                    ));
                }
            }
        }
        span::record(LayerKind::Deadline, check_t);
        resps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BoxService, Service};
    use crate::protocol::Command;
    use std::time::Duration;

    struct Slow(Duration);
    impl Service for Slow {
        fn call(&mut self, _req: Request) -> Response {
            std::thread::sleep(self.0);
            Response::ok(Reply::Status("OK"))
        }
    }

    fn wrap(config: DeadlineConfig, delay: Duration) -> (BoxService, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        let layer = DeadlineLayer::new(config, Arc::clone(&metrics));
        let session = Session {
            client: "t:1".into(),
        };
        (Box::new(layer.wrap(&session, Slow(delay))), metrics)
    }

    #[test]
    fn fast_requests_pass_and_are_counted() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        let resp = svc.call(Request::new(Command::Get("k".into())));
        assert!(matches!(resp.reply, Reply::Status(_)));
        assert_eq!(metrics.deadline_checked.sum(), 1);
        assert_eq!(metrics.deadline_missed.sum(), 0);
    }

    #[test]
    fn overruns_become_structured_deadline_errors() {
        let tight = DeadlineConfig {
            read_us: 1_000,
            write_us: 1_000,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(20));
        match svc.call(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => {
                assert!(e.starts_with("DEADLINE "), "got {e:?}");
                assert!(e.contains("budget 1000us"), "got {e:?}");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(metrics.deadline_missed.sum(), 1);
    }

    #[test]
    fn batch_pays_one_check_against_the_summed_budget() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping), // exempt
        ]);
        assert!(resps.iter().all(|r| matches!(r.reply, Reply::Status(_))));
        assert_eq!(metrics.deadline_checked.sum(), 2, "exempt not counted");
        assert_eq!(metrics.deadline_missed.sum(), 0);
    }

    #[test]
    fn batch_overrun_rejects_every_non_exempt_request() {
        let tight = DeadlineConfig {
            read_us: 500,
            write_us: 500,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(10));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Ping), // exempt: keeps its reply
            Request::new(Command::Set("k".into(), "v".into())),
        ]);
        match &resps[0].reply {
            Reply::Error(e) => assert!(e.starts_with("DEADLINE "), "got {e:?}"),
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(matches!(resps[1].reply, Reply::Status(_)), "exempt passes");
        assert!(matches!(resps[2].reply, Reply::Error(_)));
        assert_eq!(metrics.deadline_missed.sum(), 2);
    }

    #[test]
    fn a_parked_burst_is_timed_to_its_completion() {
        use crate::pipeline::tests::Parking;
        use crate::pipeline::Progress;
        let metrics = Arc::new(PipelineMetrics::new());
        let tight = DeadlineConfig {
            read_us: 500,
            write_us: 500,
        };
        let layer = DeadlineLayer::new(tight, Arc::clone(&metrics));
        let session = Session {
            client: "t:1".into(),
        };
        let (parking, ready) = Parking::new();
        let mut svc = layer.wrap(&session, parking);
        let begun = svc.begin_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping), // exempt: keeps its reply
        ]);
        assert!(matches!(begun, Progress::Parked));
        assert_eq!(metrics.deadline_checked.sum(), 0, "not checked yet");
        // The wait between the halves is what overruns the budget.
        std::thread::sleep(Duration::from_millis(5));
        ready.set(true);
        let resps = svc.poll_batch().expect("delivered");
        match &resps[0].reply {
            Reply::Error(e) => assert!(e.starts_with("DEADLINE batch took "), "got {e:?}"),
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(matches!(resps[1].reply, Reply::Value(_)), "exempt passes");
        assert_eq!(metrics.deadline_missed.sum(), 1);
    }

    #[test]
    fn all_exempt_batch_skips_the_clock() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Stats),
        ]);
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }

    #[test]
    fn control_verbs_are_exempt() {
        let tight = DeadlineConfig {
            read_us: 1,
            write_us: 1,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(5));
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }

    #[test]
    fn zero_budget_disables_the_class_check() {
        let off = DeadlineConfig {
            read_us: 0,
            write_us: 0,
        };
        let (mut svc, metrics) = wrap(off, Duration::from_millis(5));
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Status(_)
        ));
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }
}
