//! TTL/expiry: the gate in front of the key timers. In `dego-server` a
//! key's deadline lives in its keyspace row, beside its value, and its
//! shard's writer arms and reaps it (its `store.rs` says how).
//! This layer counts `ttl_checked` in one pass over a burst and passes
//! the burst on whole; without it the store refuses `EXPIRE`.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{Admission, Layer, LayerKind, LayerRule, Request, Response, Session};
use crate::protocol::DataRow;
use std::sync::Arc;

/// The TTL [`Layer`]: stateless per session, so it serves as its own
/// session rules.
#[derive(Clone)]
pub struct TtlLayer {
    metrics: Arc<PipelineMetrics>,
}

impl TtlLayer {
    /// Build the layer over the pipeline's counters.
    pub fn new(metrics: Arc<PipelineMetrics>) -> Self {
        TtlLayer { metrics }
    }
}

impl Layer for TtlLayer {
    type Rule = Self;

    fn rule(&self, _session: &Session) -> Self {
        self.clone()
    }
}

impl LayerRule for TtlLayer {
    /// Nothing to observe: every burst passes on whole.
    type Ctx = std::convert::Infallible;

    /// One pass per burst, counting the commands whose row, read or
    /// written, is a key (a user's verbs touch no timer).
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<Self::Ctx> {
        let admission_t = crate::span::start();
        let timed = reqs.iter().map(|r| r.command.footprint());
        let timed = timed.filter(|f| matches!(f.reads.or(f.writes), Some(DataRow::Key(_))));
        self.metrics.ttl_checked.add(timed.count() as u64);
        crate::span::record(LayerKind::Ttl, admission_t);
        Admission::Pass(reqs)
    }

    fn observe(&mut self, ctx: Self::Ctx, _inner: Vec<Response>) -> Vec<Response> {
        match ctx {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Service;
    use crate::protocol::{Command, Reply};

    /// Answers every request with its verb.
    struct Echo;

    impl Service for Echo {
        fn call(&mut self, req: Request) -> Response {
            Response::ok(Reply::Value(req.command.verb().into()))
        }
    }

    #[test]
    fn batch_with_no_timers_sweeps_once_and_forwards() {
        let metrics = Arc::new(PipelineMetrics::new());
        let session = Session {
            client: "t:1".into(),
        };
        let mut svc = TtlLayer::new(Arc::clone(&metrics)).wrap(&session, Echo);
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("a".into(), "1".into())),
            Request::new(Command::Get("a".into())),
            Request::new(Command::Ping),
            Request::new(Command::Expire("a".into(), 10_000)),
        ]);
        assert_eq!(resps[1].reply, Reply::Value("GET".into()), "forwarded");
        // The three commands a timer concerns are counted by the one
        // sweep; PING is not.
        assert_eq!(metrics.ttl_checked.sum(), 3);
    }
}
