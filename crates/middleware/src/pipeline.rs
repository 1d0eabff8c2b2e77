//! The interceptor pipeline: tower-style `Layer`/`Service` onion
//! composition over protocol [`Request`]s and [`Response`]s.
//!
//! A [`Service`] is one synchronous request handler; a [`Layer`] wraps
//! a service in another service. A [`Stack`] owns the *shared* state of
//! every configured layer (token buckets, ACL tables, histograms, TTL
//! sidecar) and stamps out one per-connection service chain per
//! session — per-session state (the authenticated principal, the
//! session's token bucket) lives in the chain, shared state behind
//! `Arc`s in the stack.
//!
//! Layer order is canonical regardless of configuration order:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! so tracing observes every rejection, the circuit breaker sits
//! outside the deadline layer whose `DEADLINE` overruns trip it,
//! deadlines cover the layers below them, authentication gates
//! rate-limit accounting, load shedding consults shard pressure only
//! for writes that survived admission (and sits above TTL so the TTL
//! layer's synthesized reap deletes are never shed), and the TTL
//! rewriter sits immediately in front of the store.

use crate::auth::AuthLayer;
use crate::breaker::BreakerLayer;
use crate::config::MiddlewareConfig;
use crate::deadline::DeadlineLayer;
use crate::metrics::PipelineMetrics;
use crate::protocol::{Command, Reply};
use crate::rate_limit::RateLimitLayer;
use crate::shed::{PressureProbe, ShedLayer};
use crate::trace::TraceLayer;
use crate::ttl::TtlLayer;
use std::sync::Arc;

/// A parsed request travelling down the pipeline.
#[derive(Clone, Debug)]
pub struct Request {
    /// The command (layers may rewrite it before forwarding).
    pub command: Command,
}

impl Request {
    /// Wrap a command.
    pub fn new(command: Command) -> Self {
        Request { command }
    }
}

/// A reply travelling back up the pipeline.
#[derive(Clone, Debug)]
pub struct Response {
    /// The wire reply.
    pub reply: Reply,
    /// Whether the server should close the connection after sending it.
    pub close: bool,
}

impl Response {
    /// A normal (keep-alive) response.
    pub fn ok(reply: Reply) -> Self {
        Response {
            reply,
            close: false,
        }
    }

    /// A structured middleware rejection: `-ERR <layer> <detail>` (see
    /// the error-reply grammar in [`crate::protocol`]).
    pub fn rejection(layer: &str, detail: impl std::fmt::Display) -> Self {
        Response {
            reply: Reply::Error(format!("{layer} {detail}")),
            close: false,
        }
    }
}

/// One synchronous request handler (the innermost one executes against
/// the store; every other one is a layer's wrapper).
pub trait Service {
    /// Handle one request.
    fn call(&mut self, req: Request) -> Response;

    /// Handle a pipelined burst of requests, returning one response per
    /// request **in request order**.
    ///
    /// The default forwards each request through [`Service::call`], so
    /// third-party layers keep working unchanged; the seven production
    /// layers override it to pay their per-request costs once per burst
    /// (one clock read and histogram sample in trace, one breaker
    /// admission sweep, one deadline check, one auth lookup, one bulk
    /// token-bucket take, one pressure read per shard in shed, one TTL
    /// sweep) — and the innermost store executor overrides it to
    /// group-acknowledge a whole burst of mutations per shard.
    ///
    /// Contract: `call_batch(reqs)` must produce the same responses, in
    /// the same order, as calling `call` on each request sequentially
    /// (timing-dependent layers — deadline, rate-limit refill — are
    /// exempt only in how they meter time, never in ordering).
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter().map(|req| self.call(req)).collect()
    }
}

/// A boxed service chain link. Chains are built and driven entirely on
/// their connection's thread, so no `Send` bound is needed.
pub type BoxService = Box<dyn Service>;

/// Boxing preserves service-ness: a `Box<S>` (including the type-erased
/// [`BoxService`]) delegates both entry points to its contents, so the
/// generic layer services compose identically over concrete inners and
/// over boxed ones. The explicit `call_batch` forwarding matters — the
/// default would loop `call` and silently lose the inner service's
/// batch amortization.
impl<S: Service + ?Sized> Service for Box<S> {
    fn call(&mut self, req: Request) -> Response {
        (**self).call(req)
    }

    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        (**self).call_batch(reqs)
    }
}

/// Drive a burst through `inner` with per-request admission control:
/// requests `admit` rejects are answered in place, the rest travel
/// downstream as **one** inner batch, and the replies are zipped back
/// around the rejections in request order. The shared partial path of
/// the auth and rate-limit layers' `call_batch` — one implementation
/// of the ordering invariant instead of two drifting copies.
pub(crate) fn partition_batch<S: Service + ?Sized>(
    inner: &mut S,
    reqs: Vec<Request>,
    mut admit: impl FnMut(&Request) -> Option<Response>,
) -> Vec<Response> {
    let mut slots: Vec<Option<Response>> = Vec::with_capacity(reqs.len());
    let mut admitted: Vec<Request> = Vec::with_capacity(reqs.len());
    for req in reqs {
        match admit(&req) {
            Some(rejection) => slots.push(Some(rejection)),
            None => {
                slots.push(None);
                admitted.push(req);
            }
        }
    }
    let mut inner_resps = if admitted.is_empty() {
        Vec::new()
    } else {
        inner.call_batch(admitted)
    }
    .into_iter();
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(rejection) => rejection,
            None => inner_resps
                .next()
                .expect("one inner response per admitted request"),
        })
        .collect()
}

/// Per-connection identity the layers key their session state on.
#[derive(Clone, Debug)]
pub struct Session {
    /// The client's identity: the peer `ip:port` (one bucket per
    /// connection), or any stable name an embedding chooses.
    pub client: String,
}

/// A middleware layer: shared state plus a factory wrapping an inner
/// service in this layer's per-connection service.
pub trait Layer: Send + Sync {
    /// Which of the seven production layers this is.
    fn kind(&self) -> LayerKind;

    /// Wrap `inner` for one session.
    fn wrap(&self, session: &Session, inner: BoxService) -> BoxService;
}

/// Number of production [`LayerKind`]s — the size of every
/// per-layer metric array (span cost tables, admission histograms).
pub const LAYER_COUNT: usize = 7;

/// The seven production layers, in canonical outer→inner order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LayerKind {
    /// Per-command latency histograms + per-layer counters folded into
    /// `STATS` (outermost, so it observes every rejection).
    Trace,
    /// Per-verb-class circuit breaker (outside deadline, so it observes
    /// the `DEADLINE` overruns that trip it).
    Breaker,
    /// Per-class execution budgets.
    Deadline,
    /// Token-keyed authentication and role ACLs (`AUTH`).
    Auth,
    /// Per-client token-bucket admission control.
    RateLimit,
    /// Shard-pressure load shedding for writes (below rate-limit, so a
    /// shed burst still pays tokens; above TTL, so reap deletes pass).
    Shed,
    /// TTL/expiry sidecar: `EXPIRE` arms timers, `GET` lazily expires
    /// (innermost, immediately in front of the store).
    Ttl,
}

impl LayerKind {
    /// Every production layer in canonical outer→inner order.
    pub const ALL: [LayerKind; LAYER_COUNT] = [
        LayerKind::Trace,
        LayerKind::Breaker,
        LayerKind::Deadline,
        LayerKind::Auth,
        LayerKind::RateLimit,
        LayerKind::Shed,
        LayerKind::Ttl,
    ];

    /// This layer's slot in per-layer metric arrays (canonical order).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LayerKind::Trace => 0,
            LayerKind::Breaker => 1,
            LayerKind::Deadline => 2,
            LayerKind::Auth => 3,
            LayerKind::RateLimit => 4,
            LayerKind::Shed => 5,
            LayerKind::Ttl => 6,
        }
    }

    /// The lowercase config/display name.
    pub fn name(self) -> &'static str {
        match self {
            LayerKind::Trace => "trace",
            LayerKind::Breaker => "breaker",
            LayerKind::Deadline => "deadline",
            LayerKind::Auth => "auth",
            LayerKind::RateLimit => "ratelimit",
            LayerKind::Shed => "shed",
            LayerKind::Ttl => "ttl",
        }
    }

    /// Parse a config name (`trace`, `breaker`, `deadline`, `auth`,
    /// `ratelimit`, `shed`, `ttl`).
    pub fn parse(name: &str) -> Result<LayerKind, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "trace" | "tracing" => Ok(LayerKind::Trace),
            "breaker" | "circuit-breaker" => Ok(LayerKind::Breaker),
            "deadline" | "timeout" => Ok(LayerKind::Deadline),
            "auth" | "acl" => Ok(LayerKind::Auth),
            "ratelimit" | "rate" | "rate-limit" => Ok(LayerKind::RateLimit),
            "shed" | "load-shed" | "loadshed" => Ok(LayerKind::Shed),
            "ttl" | "expiry" => Ok(LayerKind::Ttl),
            other => Err(format!("unknown middleware layer {other:?}")),
        }
    }
}

/// The configured pipeline: shared layer state + the per-connection
/// chain factory.
///
/// The seven production layers are held as **typed** fields (not a
/// `Vec<Box<dyn Layer>>`), which is what lets [`Stack::fused_service`]
/// stamp out the fully monomorphized chain — one concrete
/// `Trace<Breaker<Deadline<Auth<RateLimit<Shed<Ttl<S>>>>>>>` type with
/// zero virtual calls — while [`Stack::service`] builds the boxed
/// `dyn` onion, the composition rule for partial/custom stacks.
pub struct Stack {
    trace: Option<TraceLayer>,
    breaker: Option<BreakerLayer>,
    deadline: Option<DeadlineLayer>,
    auth: Option<AuthLayer>,
    rate: Option<RateLimitLayer>,
    shed: Option<ShedLayer>,
    ttl: Option<TtlLayer>,
    metrics: Arc<PipelineMetrics>,
    auth_state: Option<Arc<crate::auth::AuthState>>,
    shed_state: Option<Arc<crate::shed::ShedState>>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field(
                "layers",
                &self.kinds().iter().map(|k| k.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Stack {
    /// Build the stack from a config. Layer order in the config is
    /// irrelevant; duplicates collapse.
    pub fn build(config: &MiddlewareConfig) -> Arc<Stack> {
        let metrics = Arc::new(PipelineMetrics::with_trace(&config.trace));
        let mut kinds = config.layers.clone();
        kinds.sort();
        kinds.dedup();
        let depth = kinds.len();
        let mut stack = Stack {
            trace: None,
            breaker: None,
            deadline: None,
            auth: None,
            rate: None,
            shed: None,
            ttl: None,
            metrics: Arc::clone(&metrics),
            auth_state: None,
            shed_state: None,
        };
        for kind in kinds {
            match kind {
                LayerKind::Trace => {
                    stack.trace = Some(TraceLayer::new(
                        Arc::clone(&metrics),
                        depth,
                        config.trace.sample_every,
                    ))
                }
                LayerKind::Breaker => {
                    stack.breaker = Some(BreakerLayer::new(
                        config.breaker.clone(),
                        Arc::clone(&metrics),
                    ))
                }
                LayerKind::Deadline => {
                    stack.deadline = Some(DeadlineLayer::new(
                        config.deadline.clone(),
                        Arc::clone(&metrics),
                    ))
                }
                LayerKind::Auth => {
                    let layer = AuthLayer::new(&config.auth, Arc::clone(&metrics));
                    stack.auth_state = Some(layer.state());
                    stack.auth = Some(layer);
                }
                LayerKind::RateLimit => {
                    stack.rate = Some(RateLimitLayer::new(
                        config.rate.clone(),
                        Arc::clone(&metrics),
                    ))
                }
                LayerKind::Shed => {
                    let layer = ShedLayer::new(config.shed.clone(), Arc::clone(&metrics));
                    stack.shed_state = Some(layer.state());
                    stack.shed = Some(layer);
                }
                LayerKind::Ttl => stack.ttl = Some(TtlLayer::new(Arc::clone(&metrics))),
            }
        }
        Arc::new(stack)
    }

    /// The configured layers in canonical outer→inner order.
    pub fn kinds(&self) -> Vec<LayerKind> {
        let mut kinds = Vec::new();
        if self.trace.is_some() {
            kinds.push(LayerKind::Trace);
        }
        if self.breaker.is_some() {
            kinds.push(LayerKind::Breaker);
        }
        if self.deadline.is_some() {
            kinds.push(LayerKind::Deadline);
        }
        if self.auth.is_some() {
            kinds.push(LayerKind::Auth);
        }
        if self.rate.is_some() {
            kinds.push(LayerKind::RateLimit);
        }
        if self.shed.is_some() {
            kinds.push(LayerKind::Shed);
        }
        if self.ttl.is_some() {
            kinds.push(LayerKind::Ttl);
        }
        kinds
    }

    /// Number of configured layers.
    pub fn depth(&self) -> usize {
        self.kinds().len()
    }

    /// The shared per-layer counters and histograms.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    /// Build one session's service chain around `inner` (the store
    /// executor), innermost layer first — the type-erased onion, one
    /// `Box<dyn Service>` per layer. This is the path for partial
    /// stacks and third-party [`Layer`]s, and the reference the fused
    /// chain is property-tested against.
    pub fn service(&self, session: &Session, inner: BoxService) -> BoxService {
        let mut chain = inner;
        if let Some(layer) = &self.ttl {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.shed {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.rate {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.auth {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.deadline {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.breaker {
            chain = layer.wrap(session, chain);
        }
        if let Some(layer) = &self.trace {
            chain = layer.wrap(session, chain);
        }
        chain
    }

    /// Whether this stack is the canonical full seven-layer pipeline,
    /// i.e. whether [`Stack::fused_service`] can build the
    /// monomorphized chain for it.
    pub fn fusible(&self) -> bool {
        self.trace.is_some()
            && self.breaker.is_some()
            && self.deadline.is_some()
            && self.auth.is_some()
            && self.rate.is_some()
            && self.shed.is_some()
            && self.ttl.is_some()
    }

    /// Build one session's **fused** chain around `inner`: the seven
    /// canonical layers composed as a single concrete type, so every
    /// inter-layer call is a direct (inlinable) call rather than a
    /// vtable dispatch, and batch-1 traffic can take
    /// [`crate::fused::FusedService::call_one`]. Returns `None` unless
    /// the stack is [`Stack::fusible`] (all seven layers configured).
    pub fn fused_service<S: Service>(
        &self,
        session: &Session,
        inner: S,
    ) -> Option<crate::fused::FusedService<S>> {
        match (
            &self.trace,
            &self.breaker,
            &self.deadline,
            &self.auth,
            &self.rate,
            &self.shed,
            &self.ttl,
        ) {
            (
                Some(trace),
                Some(breaker),
                Some(deadline),
                Some(auth),
                Some(rate),
                Some(shed),
                Some(ttl),
            ) => {
                let chain = ttl.wrap_typed(session, inner);
                let chain = shed.wrap_typed(session, chain);
                let chain = rate.wrap_typed(session, chain);
                let chain = auth.wrap_typed(session, chain);
                let chain = deadline.wrap_typed(session, chain);
                let chain = breaker.wrap_typed(session, chain);
                Some(trace.wrap_typed(session, chain))
            }
            _ => None,
        }
    }

    /// Seat the live shard-pressure probe the shed layer consults (the
    /// storage plane does not exist yet when the stack is built, so the
    /// embedding injects it here once the store is up). Returns `false`
    /// when the shed layer is not configured.
    pub fn shed_set_probe(&self, probe: Arc<dyn PressureProbe>) -> bool {
        match &self.shed_state {
            Some(shed) => {
                shed.set_probe(probe);
                true
            }
            None => false,
        }
    }

    /// Add (or replace) an auth token at runtime. Returns `false` when
    /// the auth layer is not configured.
    pub fn auth_set_token(&self, name: &str, token: &str, role: crate::auth::Role) -> bool {
        match &self.auth_state {
            Some(auth) => {
                auth.set_token(name, token, role);
                self.metrics.auth_reloads.increment();
                true
            }
            None => false,
        }
    }

    /// RCU-publish a new anonymous-session role (a policy reload: every
    /// connection observes it on its next request). Returns `false`
    /// when the auth layer is not configured.
    pub fn auth_set_anon_role(&self, role: crate::auth::Role) -> bool {
        match &self.auth_state {
            Some(auth) => {
                auth.publish_anon_role(role);
                self.metrics.auth_reloads.increment();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Service for Echo {
        fn call(&mut self, req: Request) -> Response {
            Response::ok(Reply::Value(req.command.verb().to_string()))
        }
    }

    fn session() -> Session {
        Session {
            client: "t:1".into(),
        }
    }

    #[test]
    fn empty_stack_is_a_passthrough() {
        let stack = Stack::build(&MiddlewareConfig::none());
        assert_eq!(stack.depth(), 0);
        let mut svc = stack.service(&session(), Box::new(Echo));
        let resp = svc.call(Request::new(Command::Ping));
        assert_eq!(resp.reply, Reply::Value("PING".into()));
        assert!(!resp.close);
    }

    #[test]
    fn full_stack_has_seven_layers_in_canonical_order() {
        let stack = Stack::build(&MiddlewareConfig::full());
        assert_eq!(stack.depth(), 7);
        assert_eq!(stack.kinds(), LayerKind::ALL.to_vec());
        assert!(stack.fusible());
    }

    #[test]
    fn partial_stacks_are_not_fusible() {
        let mut config = MiddlewareConfig::none();
        assert!(!Stack::build(&config).fusible(), "empty stack");
        config.layers = vec![LayerKind::Trace, LayerKind::Ttl];
        let stack = Stack::build(&config);
        assert!(!stack.fusible());
        assert!(stack.fused_service(&session(), Echo).is_none());
    }

    #[test]
    fn duplicate_layer_names_collapse() {
        let mut config = MiddlewareConfig::none();
        config.layers = vec![LayerKind::Ttl, LayerKind::Trace, LayerKind::Ttl];
        let stack = Stack::build(&config);
        assert_eq!(stack.depth(), 2);
    }

    #[test]
    fn default_call_batch_loops_over_call() {
        // A service that only implements `call` (a third-party layer)
        // still answers batches, one response per request, in order.
        let mut svc: BoxService = Box::new(Echo);
        let resps = svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Get("k".into())),
            Request::new(Command::Stats),
        ]);
        let verbs: Vec<Reply> = resps.into_iter().map(|r| r.reply).collect();
        assert_eq!(
            verbs,
            vec![
                Reply::Value("PING".into()),
                Reply::Value("GET".into()),
                Reply::Value("STATS".into()),
            ]
        );
    }

    #[test]
    fn full_stack_batch_matches_sequential() {
        // Same burst through two identically configured stacks: the
        // batched chain must answer exactly like the sequential one.
        let burst: Vec<Command> = vec![
            Command::Ping,
            Command::Get("a".into()),
            Command::Set("a".into(), "1".into()),
            Command::Incr("n".into(), 4),
            Command::Del("a".into()),
            Command::Timeline(7),
        ];
        let seq_stack = Stack::build(&MiddlewareConfig::full());
        let mut seq = seq_stack.service(&session(), Box::new(Echo));
        let batch_stack = Stack::build(&MiddlewareConfig::full());
        let mut batched = batch_stack.service(&session(), Box::new(Echo));
        let want: Vec<Reply> = burst
            .iter()
            .map(|c| seq.call(Request::new(c.clone())).reply)
            .collect();
        let got: Vec<Reply> = batched
            .call_batch(burst.into_iter().map(Request::new).collect())
            .into_iter()
            .map(|r| r.reply)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn layer_names_round_trip() {
        for kind in LayerKind::ALL {
            assert_eq!(LayerKind::parse(kind.name()), Ok(kind));
        }
        assert!(LayerKind::parse("blorp").is_err());
    }

    #[test]
    fn probe_injection_requires_the_shed_layer() {
        struct NoPressure;
        impl PressureProbe for NoPressure {
            fn shard_of(&self, _cmd: &Command) -> Option<usize> {
                None
            }
            fn pressure_of(&self, _shard: usize) -> crate::shed::ShardPressure {
                crate::shed::ShardPressure {
                    queue_depth: 0,
                    ack_p99_us: 0,
                }
            }
        }
        let full = Stack::build(&MiddlewareConfig::full());
        assert!(full.shed_set_probe(Arc::new(NoPressure)));
        let none = Stack::build(&MiddlewareConfig::none());
        assert!(!none.shed_set_probe(Arc::new(NoPressure)));
    }
}
