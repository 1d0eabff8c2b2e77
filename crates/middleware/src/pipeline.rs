//! The interceptor pipeline: tower-style `Layer`/`Service` composition
//! over protocol [`Request`]s and [`Response`]s.
//!
//! A [`Service`] is one request handler; a [`Layer`] wraps a service in
//! another service. A [`Stack`] owns the *shared* state of every
//! configured layer (token buckets, ACL tables, histograms, breaker
//! states) and stamps out one per-connection service chain per
//! session — per-session state (the authenticated principal, the
//! session's token bucket) lives in the chain, shared state behind
//! `Arc`s in the stack.
//!
//! **There is one chain.** Every stack, full, partial or empty, is the
//! same concrete type, [`FusedService`]: seven [`Layered`] links whose
//! rules are `Option`s, a layer the stack leaves out being a `None`
//! link that passes every entry point straight through. Calls between
//! layers are direct; [`Stack::service`] boxes the chain once.
//!
//! **A burst is two-phase, and that is the only way through a chain.**
//! [`Service::begin_batch`] admits a burst and starts its work; while
//! the outcome is not known yet (the store executor awaits shard acks)
//! the chain answers [`Progress::Parked`] instead of blocking its
//! thread, and [`Service::poll_batch`] later delivers the responses
//! ([`Service::call_batch`] polls for in-process callers). Each
//! production layer writes its rule once, as the *admit half* and the
//! *observe half* of a [`LayerRule`], and [`Layered`] builds both
//! phases from them — so deferral is nothing but the gap between the
//! halves: deadline, breaker and trace see the **real replies after
//! the real wait**.
//!
//! **Every admitted request is observed exactly once.** A chain that
//! answered `Parked` must be polled until it delivers — also when the
//! client is gone — because a layer may hold something only its
//! observe half gives back (a half-open breaker probe slot).
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
//! for writes that survived admission, and the TTL gate sits
//! immediately in front of the store that keeps the timers. No layer
//! calls the service below it: a burst travels down as one inner batch
//! or is answered in place.

use crate::auth::{AuthLayer, AuthRule};
use crate::breaker::BreakerLayer;
use crate::config::MiddlewareConfig;
use crate::deadline::DeadlineLayer;
use crate::metrics::PipelineMetrics;
use crate::protocol::{Command, Reply};
use crate::rate_limit::{RateLimitLayer, RateLimitRule};
use crate::shed::{PressureProbe, ShedLayer};
use crate::trace::{TraceLayer, TraceRule};
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

/// How far a burst got when [`Service::begin_batch`] returned.
#[derive(Debug)]
pub enum Progress {
    /// Answered: one response per request, in request order.
    Done(Vec<Response>),
    /// Admitted and in flight: the chain holds the burst's context and
    /// [`Service::poll_batch`] will deliver its responses.
    Parked,
}

/// One request handler (the innermost one executes against the store;
/// every other one is a layer's wrapper).
pub trait Service {
    /// Handle one request. A `call` written as a [`Service::call_batch`]
    /// of one is valid only where [`Service::begin_batch`] is
    /// overridden: the default `begin_batch` loops `call`.
    fn call(&mut self, req: Request) -> Response;

    /// Handle a pipelined burst of requests, returning one response per
    /// request **in request order**: [`Service::begin_batch`], then
    /// [`Service::poll_batch`], yielding the thread, until it answers.
    /// No service overrides it, and the event loops never call it.
    ///
    /// Contract: `call_batch(reqs)` must produce the same responses, in
    /// the same order, as calling `call` on each request sequentially
    /// (timing-dependent layers — deadline, rate-limit refill — are
    /// exempt only in how they meter time, never in ordering).
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        if let Progress::Done(resps) = self.begin_batch(reqs) {
            return resps;
        }
        loop {
            match self.poll_batch() {
                Some(resps) => return resps,
                None => std::thread::yield_now(),
            }
        }
    }

    /// The first phase of a burst: admit it and start its work, but
    /// rather than wait for an outcome, keep the burst's context and
    /// answer [`Progress::Parked`]. The default loops [`Service::call`]
    /// and is `Done` at once; the production layers pay their
    /// per-request costs once per burst (see [`LayerRule`]).
    fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
        Progress::Done(reqs.into_iter().map(|req| self.call(req)).collect())
    }

    /// The second phase: `None` while the parked burst is still in
    /// flight, its responses once it is not. Must be called until it
    /// answers after every `Parked`, and nothing else may be dispatched
    /// to the service in between: that is what lets each layer observe
    /// every request it admitted exactly once.
    fn poll_batch(&mut self) -> Option<Vec<Response>> {
        None
    }
}

/// A boxed service chain link. Chains are built and driven entirely on
/// their connection's thread, so no `Send` bound is needed.
pub type BoxService = Box<dyn Service>;

/// A `Box<S>` (including the type-erased [`BoxService`]) delegates to
/// its contents. Forwarding both phases matters: the default
/// `begin_batch` loops `call` and never parks, losing the inner
/// service's amortization and waiting in `call` where it would park.
impl<S: Service + ?Sized> Service for Box<S> {
    fn call(&mut self, req: Request) -> Response {
        (**self).call(req)
    }

    fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
        (**self).begin_batch(reqs)
    }

    fn poll_batch(&mut self) -> Option<Vec<Response>> {
        (**self).poll_batch()
    }
}

/// The rejections a layer answered in place, holding their positions
/// in the burst until the admitted requests' responses come back: the
/// single implementation of the ordering invariant.
#[derive(Debug)]
pub struct Split {
    /// One entry per request of the burst: its rejection, or `None`
    /// for an admitted request.
    slots: Vec<Option<Response>>,
}

/// Partition a burst: requests `reject` answers stay behind in the
/// [`Split`], the rest are returned to travel downstream as one batch.
pub(crate) fn split(
    reqs: Vec<Request>,
    mut reject: impl FnMut(&Request) -> Option<Response>,
) -> (Vec<Request>, Split) {
    let mut slots = Vec::with_capacity(reqs.len());
    let mut admitted = Vec::with_capacity(reqs.len());
    for req in reqs {
        let verdict = reject(&req);
        if verdict.is_none() {
            admitted.push(req);
        }
        slots.push(verdict);
    }
    (admitted, Split { slots })
}

impl Split {
    /// Zip the admitted requests' responses back around the rejections,
    /// in request order.
    pub(crate) fn zip(self, inner: Vec<Response>) -> Vec<Response> {
        let mut inner = inner.into_iter();
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Some(rejection) => rejection,
                None => inner.next().expect("a response per admitted request"),
            })
            .collect()
    }
}

/// What a layer's admit half decided about a burst.
pub enum Admission<C> {
    /// Forward the burst as it is; this layer has nothing to observe.
    Pass(Vec<Request>),
    /// Forward these requests as one inner batch and hand their
    /// responses, with the context, to [`LayerRule::observe`].
    Observe(Vec<Request>, C),
    /// Answered here, with no inner traffic and nothing to observe
    /// (the trace layer's lone ring verb).
    Answered(Vec<Response>),
}

/// One production layer's rule, written once as an *admit half* and an
/// *observe half*. [`Layered`] derives both phases of a burst from the
/// halves, so how long a burst stays parked between them is not the
/// layer's business.
pub trait LayerRule {
    /// What the admit half hands the observe half.
    type Ctx;

    /// The admit half: decide, per request, what travels downstream in
    /// the one inner batch (a layer never calls the service below).
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<Self::Ctx>;

    /// The observe half: turn the inner responses of the requests
    /// `admit` forwarded into this layer's responses for the burst.
    fn observe(&mut self, ctx: Self::Ctx, inner: Vec<Response>) -> Vec<Response>;

    /// The burst parked below this layer: the thread goes on to serve
    /// other connections until [`LayerRule::resume`].
    fn suspend(&mut self, _ctx: &mut Self::Ctx) {}

    /// The parked burst is being polled (and may complete).
    fn resume(&mut self, _ctx: &mut Self::Ctx) {}
}

/// A layer the stack does not configure: it admits everything, observes
/// nothing, and forwards every request unchanged.
impl<L: LayerRule> LayerRule for Option<L> {
    type Ctx = L::Ctx;

    fn admit(&mut self, reqs: Vec<Request>) -> Admission<L::Ctx> {
        match self {
            Some(rule) => rule.admit(reqs),
            None => Admission::Pass(reqs),
        }
    }

    fn observe(&mut self, ctx: L::Ctx, inner: Vec<Response>) -> Vec<Response> {
        let rule = self
            .as_mut()
            .expect("only a present layer admits to observe");
        rule.observe(ctx, inner)
    }

    fn suspend(&mut self, ctx: &mut L::Ctx) {
        if let Some(rule) = self {
            rule.suspend(ctx);
        }
    }

    fn resume(&mut self, ctx: &mut L::Ctx) {
        if let Some(rule) = self {
            rule.resume(ctx);
        }
    }
}

/// A [`LayerRule`] around an inner service: one layer's per-session
/// link of the chain. `begin_batch` is admit · inner · observe-or-park.
pub struct Layered<L: LayerRule, S> {
    layer: L,
    inner: S,
    /// The context of the burst parked below this layer, if any.
    parked: Option<L::Ctx>,
}

impl<L: LayerRule, S: Service> Layered<L, S> {
    fn new(layer: L, inner: S) -> Self {
        Layered {
            layer,
            inner,
            parked: None,
        }
    }
}

impl<L: LayerRule, S: Service> Service for Layered<L, S> {
    /// A burst of one, through the same halves as any burst.
    fn call(&mut self, req: Request) -> Response {
        let mut resps = self.call_batch(vec![req]);
        resps.pop().expect("one response per request")
    }

    fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
        let (reqs, mut ctx) = match self.layer.admit(reqs) {
            Admission::Pass(reqs) => return self.inner.begin_batch(reqs),
            Admission::Answered(resps) => return Progress::Done(resps),
            Admission::Observe(reqs, ctx) => (reqs, ctx),
        };
        // Nothing admitted: no inner traffic, but still observed.
        let progress = if reqs.is_empty() {
            Progress::Done(Vec::new())
        } else {
            self.inner.begin_batch(reqs)
        };
        match progress {
            Progress::Done(inner) => Progress::Done(self.layer.observe(ctx, inner)),
            Progress::Parked => {
                self.layer.suspend(&mut ctx);
                self.parked = Some(ctx);
                Progress::Parked
            }
        }
    }

    fn poll_batch(&mut self) -> Option<Vec<Response>> {
        // Nothing parked here: this layer passed the burst through.
        let Some(ctx) = self.parked.as_mut() else {
            return self.inner.poll_batch();
        };
        self.layer.resume(ctx);
        match self.inner.poll_batch() {
            Some(inner) => {
                let ctx = self.parked.take().expect("parked context checked above");
                Some(self.layer.observe(ctx, inner))
            }
            None => {
                self.layer.suspend(ctx);
                None
            }
        }
    }
}

/// Per-connection identity the layers key their session state on.
#[derive(Clone, Debug)]
pub struct Session {
    /// The client's identity: the peer `ip:port` (one bucket per
    /// connection), or any stable name an embedding chooses.
    pub client: String,
}

/// A middleware layer: shared state plus the factory of its
/// per-session rules.
pub trait Layer: Send + Sync {
    /// The layer's per-session rules.
    type Rule: LayerRule + 'static;

    /// This layer's rules for one session.
    fn rule(&self, session: &Session) -> Self::Rule;

    /// This layer alone around `inner`, for one session.
    fn wrap<S: Service>(&self, session: &Session, inner: S) -> Layered<Self::Rule, S> {
        Layered::new(self.rule(session), inner)
    }
}

/// One link of the chain: a layer's rules, `None` where the stack
/// leaves the layer out.
type Link<L, S> = Layered<Option<L>, S>;

/// One session's chain around `S`: the seven canonical layers as one
/// concrete type, outermost first. Built by [`Stack::service`] (boxed)
/// and [`Stack::fused_service`].
pub type FusedService<S> = Link<
    TraceRule,
    Link<
        BreakerLayer,
        Link<
            DeadlineLayer,
            Link<AuthRule, Link<RateLimitRule, Link<ShedLayer, Link<TtlLayer, S>>>>,
        >,
    >,
>;

impl<S: Service> FusedService<S> {
    /// A burst of one: [`Service::call`], through the same halves as any
    /// burst. The name is part of what the `benchmark/` harness compiles
    /// against.
    pub fn call_one(&mut self, req: Request) -> Response {
        self.call(req)
    }
}

/// Number of production [`LayerKind`]s — the size of every
/// per-layer metric array (span cost tables, admission histograms).
pub const LAYER_COUNT: usize = 7;

/// The seven production layers, in canonical outer→inner order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LayerKind {
    /// Per-command latency histograms, span sampling and the slowlog
    /// and trace rings (outermost, so it observes every rejection).
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
    /// shed burst still pays tokens).
    Shed,
    /// TTL/expiry: meters the traffic of the key timers the shard
    /// owners keep (innermost, immediately in front of the store).
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

    /// This layer's slot in per-layer metric arrays (canonical order:
    /// the declaration order above).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
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
/// The seven production layers are held as **typed** `Option` fields
/// (not a `Vec<Box<dyn Layer>>`), and a session's chain holds each
/// one's rules as an `Option` too: whatever the configuration, the
/// chain is one concrete [`FusedService`] type with no virtual call
/// between layers, an absent layer a `None` link.
pub struct Stack {
    trace: Option<TraceLayer>,
    breaker: Option<BreakerLayer>,
    deadline: Option<DeadlineLayer>,
    auth: Option<AuthLayer>,
    rate: Option<RateLimitLayer>,
    shed: Option<ShedLayer>,
    ttl: Option<TtlLayer>,
    metrics: Arc<PipelineMetrics>,
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
        let on = |kind: LayerKind| config.layers.contains(&kind);
        let m = || Arc::clone(&metrics);
        let sample_every = config.trace.sample_every;
        Arc::new(Stack {
            trace: on(LayerKind::Trace).then(|| TraceLayer::new(m(), sample_every)),
            breaker: on(LayerKind::Breaker).then(|| BreakerLayer::new(config.breaker.clone(), m())),
            deadline: on(LayerKind::Deadline)
                .then(|| DeadlineLayer::new(config.deadline.clone(), m())),
            auth: on(LayerKind::Auth).then(|| AuthLayer::new(&config.auth, m())),
            rate: on(LayerKind::RateLimit).then(|| RateLimitLayer::new(config.rate.clone(), m())),
            shed: on(LayerKind::Shed).then(|| ShedLayer::new(config.shed.clone(), m())),
            ttl: on(LayerKind::Ttl).then(|| TtlLayer::new(m())),
            metrics: m(),
        })
    }

    /// The configured layers in canonical outer→inner order.
    pub fn kinds(&self) -> Vec<LayerKind> {
        let configured = [
            self.trace.is_some(),
            self.breaker.is_some(),
            self.deadline.is_some(),
            self.auth.is_some(),
            self.rate.is_some(),
            self.shed.is_some(),
            self.ttl.is_some(),
        ];
        let kinds = LayerKind::ALL.into_iter().zip(configured);
        kinds.filter(|(_, on)| *on).map(|(kind, _)| kind).collect()
    }

    /// Number of configured layers.
    pub fn depth(&self) -> usize {
        self.kinds().len()
    }

    /// The shared per-layer counters and histograms.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    /// Build one session's chain around `inner` (the store executor),
    /// boxed: a connection's dispatch chain.
    pub fn service(&self, session: &Session, inner: BoxService) -> BoxService {
        Box::new(self.chain(session, inner))
    }

    /// Build one session's chain around `inner`, unboxed. Every stack
    /// builds one, so this is always `Some` (the `Option` is part of
    /// what the `benchmark/` harness compiles against).
    pub fn fused_service<S: Service>(
        &self,
        session: &Session,
        inner: S,
    ) -> Option<FusedService<S>> {
        Some(self.chain(session, inner))
    }

    /// The chain, innermost layer first.
    fn chain<S: Service>(&self, session: &Session, inner: S) -> FusedService<S> {
        fn link<L: Layer, S: Service>(
            layer: &Option<L>,
            session: &Session,
            inner: S,
        ) -> Link<L::Rule, S> {
            Layered::new(layer.as_ref().map(|layer| layer.rule(session)), inner)
        }
        let chain = link(&self.ttl, session, inner);
        let chain = link(&self.shed, session, chain);
        let chain = link(&self.rate, session, chain);
        let chain = link(&self.auth, session, chain);
        let chain = link(&self.deadline, session, chain);
        let chain = link(&self.breaker, session, chain);
        link(&self.trace, session, chain)
    }

    /// Seat the live shard-pressure probe the shed layer consults (the
    /// storage plane does not exist yet when the stack is built, so the
    /// embedding injects it here once the store is up). Returns `false`
    /// when the shed layer is not configured.
    pub fn shed_set_probe(&self, probe: Arc<dyn PressureProbe>) -> bool {
        let Some(shed) = &self.shed else {
            return false;
        };
        shed.state.set_probe(probe);
        true
    }

    /// Add (or replace) an auth token at runtime. Returns `false` when
    /// the auth layer is not configured.
    pub fn auth_set_token(&self, name: &str, token: &str, role: crate::auth::Role) -> bool {
        let Some(auth) = &self.auth else {
            return false;
        };
        auth.state.set_token(name, token, role);
        self.metrics.auth_reloads.increment();
        true
    }

    /// RCU-publish a new anonymous-session role (a policy reload: every
    /// connection observes it on its next request). Returns `false`
    /// when the auth layer is not configured.
    pub fn auth_set_anon_role(&self, role: crate::auth::Role) -> bool {
        let Some(auth) = &self.auth else {
            return false;
        };
        auth.state.publish_anon_role(role);
        self.metrics.auth_reloads.increment();
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Echo;
    impl Service for Echo {
        fn call(&mut self, req: Request) -> Response {
            Response::ok(Reply::Value(req.command.verb().to_string()))
        }
    }

    /// An innermost service that parks every burst until the test
    /// flips `ready`, then answers it like [`Echo`].
    pub(crate) struct Parking {
        ready: Rc<Cell<bool>>,
        held: Option<Vec<Request>>,
    }

    impl Parking {
        pub(crate) fn new() -> (Parking, Rc<Cell<bool>>) {
            let ready = Rc::new(Cell::new(false));
            let parking = Parking {
                ready: Rc::clone(&ready),
                held: None,
            };
            (parking, ready)
        }
    }

    impl Service for Parking {
        fn call(&mut self, req: Request) -> Response {
            Echo.call(req)
        }

        fn begin_batch(&mut self, reqs: Vec<Request>) -> Progress {
            self.held = Some(reqs);
            Progress::Parked
        }

        fn poll_batch(&mut self) -> Option<Vec<Response>> {
            if !self.ready.get() {
                return None;
            }
            let reqs = self.held.take()?;
            Some(reqs.into_iter().map(|req| self.call(req)).collect())
        }
    }

    fn burst() -> Vec<Request> {
        vec![
            Request::new(Command::Ping),
            Request::new(Command::Get("k".into())),
            Request::new(Command::TraceLen),
            Request::new(Command::Set("k".into(), "v".into())),
        ]
    }

    fn replies(resps: Vec<Response>) -> Vec<Reply> {
        resps.into_iter().map(|r| r.reply).collect()
    }

    fn session() -> Session {
        Session {
            client: "t:1".into(),
        }
    }

    /// A stack from `config` and one session's chain around `inner`, as
    /// a connection holds it.
    fn session_chain(
        config: &MiddlewareConfig,
        inner: impl Service + 'static,
    ) -> (BoxService, Arc<Stack>) {
        let stack = Stack::build(config);
        (stack.service(&session(), Box::new(inner)), stack)
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
    }

    fn stack_shapes() -> [MiddlewareConfig; 3] {
        let partial = MiddlewareConfig {
            layers: vec![LayerKind::Trace, LayerKind::Ttl],
            ..MiddlewareConfig::none()
        };
        [MiddlewareConfig::full(), partial, MiddlewareConfig::none()]
    }

    #[test]
    fn every_stack_builds_the_one_chain() {
        // Full, partial and empty stacks all build the typed chain.
        for config in stack_shapes() {
            let stack = Stack::build(&config);
            assert!(stack.fused_service(&session(), Echo).is_some());
        }
    }

    #[test]
    fn the_fused_chain_is_a_service() {
        // `call_one` and `call_batch` on the concrete chain, and `call`
        // through it as a `dyn Service`, give the same replies.
        for config in stack_shapes() {
            let stack = Stack::build(&config);
            let mut chain = stack.fused_service(&session(), Echo).expect("always built");
            let resp = chain.call_one(Request::new(Command::Ping));
            assert_eq!(resp.reply, Reply::Value("PING".into()));
            let want = replies(chain.call_batch(burst()));
            assert_eq!(want.len(), 4);
            let svc: &mut dyn Service = &mut chain;
            let got: Vec<Reply> = burst().into_iter().map(|r| svc.call(r).reply).collect();
            assert_eq!(got, want);
        }
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
    fn call_only_services_are_done_at_once() {
        // A third-party service that implements nothing but `call`
        // never parks: `begin_batch` loops `call`.
        let mut svc = Echo;
        match svc.begin_batch(burst()) {
            Progress::Done(resps) => assert_eq!(resps.len(), 4),
            Progress::Parked => panic!("a call-only service cannot park"),
        }
        assert!(svc.poll_batch().is_none(), "nothing was parked");
    }

    #[test]
    fn boxed_services_forward_both_phases() {
        // The bare server stack is a `Box` around the parking executor:
        // a missed forward would fall back to defaults that never park.
        let (parking, ready) = Parking::new();
        let mut svc: BoxService = Box::new(parking);
        assert!(matches!(svc.begin_batch(burst()), Progress::Parked));
        assert!(svc.poll_batch().is_none(), "still in flight");
        ready.set(true);
        assert_eq!(svc.poll_batch().expect("delivered").len(), 4);
        assert!(svc.poll_batch().is_none(), "delivered exactly once");
    }

    #[test]
    fn a_parked_burst_is_observed_once_when_it_completes() {
        // Same burst, answered at once and parked, through a full, a
        // partial and an empty stack: same replies, and the layers record
        // it only once it has completed — through `None` links too.
        let partial = MiddlewareConfig {
            layers: vec![LayerKind::Deadline, LayerKind::Ttl],
            ..MiddlewareConfig::none()
        };
        for config in [MiddlewareConfig::full(), partial, MiddlewareConfig::none()] {
            let on = |kind| config.layers.contains(&kind) as u64;
            let want = replies(session_chain(&config, Echo).0.call_batch(burst()));
            let (parking, ready) = Parking::new();
            let (mut svc, stack) = session_chain(&config, parking);
            assert!(matches!(svc.begin_batch(burst()), Progress::Parked));
            assert!(svc.poll_batch().is_none());
            let metrics = stack.metrics();
            assert_eq!(metrics.batches.sum(), 0, "not observed while parked");
            assert_eq!(metrics.deadline_checked.sum(), 0);
            ready.set(true);
            assert_eq!(replies(svc.poll_batch().expect("delivered")), want);
            assert_eq!(metrics.batches.sum(), on(LayerKind::Trace));
            let traced = 4 * on(LayerKind::Trace);
            assert_eq!(metrics.traced.sum(), traced, "ring verb included");
            let checked = 2 * on(LayerKind::Deadline);
            assert_eq!(metrics.deadline_checked.sum(), checked, "GET and SET");
            assert!(svc.poll_batch().is_none(), "delivered exactly once");
        }
    }

    #[test]
    fn a_breaker_rejection_skips_the_deadline_check_but_is_traced() {
        // A store slower than the 1 ms read budget: the first read
        // overruns it, which trips the breaker (one failure); the
        // second is rejected by the breaker, outside the deadline layer.
        struct Slow;
        impl Service for Slow {
            fn call(&mut self, req: Request) -> Response {
                std::thread::sleep(std::time::Duration::from_millis(3));
                Echo.call(req)
            }
        }
        let mut config = MiddlewareConfig::full();
        config.deadline.read_us = 1_000;
        config.breaker.failures = 1;
        config.breaker.cooldown_ms = 60_000;
        let (mut svc, stack) = session_chain(&config, Slow);
        let mut read = || match svc.call(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => e,
            other => panic!("expected a rejection, got {other:?}"),
        };
        assert!(read().starts_with("DEADLINE GET took "));
        assert!(read().starts_with("BREAKER read open "));
        let m = stack.metrics();
        assert_eq!((m.breaker_trips.sum(), m.breaker_rejected.sum()), (1, 1));
        assert_eq!(m.deadline_checked.sum(), 1, "the rejection skipped it");
        assert_eq!(m.traced.sum(), 2, "but was traced");
    }

    #[test]
    fn a_shed_write_is_auth_admitted_and_rate_charged() {
        // Shedding sits below auth and rate-limit: a write it refuses
        // has passed both, while one auth denies never reaches them.
        struct Stressed;
        impl PressureProbe for Stressed {
            fn shard_of(&self, _cmd: &Command) -> Option<usize> {
                Some(3)
            }
            fn pressure_of(&self, _shard: usize) -> crate::shed::ShardPressure {
                crate::shed::ShardPressure {
                    queue_depth: 4_096,
                    ack_p99_us: 0,
                }
            }
        }
        let mut config = MiddlewareConfig::full();
        config.shed.queue_depth = 1_024;
        config.auth.anon_role = crate::auth::Role::ReadOnly;
        let (mut svc, stack) = session_chain(&config, Echo);
        assert!(stack.shed_set_probe(Arc::new(Stressed)));
        let mut set = || svc.call(Request::new(Command::Set("k".into(), "v".into())));
        assert!(matches!(set().reply, Reply::Error(e) if e.starts_with("AUTH SET requires")));
        assert!(stack.auth_set_anon_role(crate::auth::Role::ReadWrite));
        let shed = "SHED shard=3 queue_depth=4096 limit=1024";
        assert_eq!(set().reply, Reply::Error(shed.into()));
        let get = svc.call(Request::new(Command::Get("k".into())));
        assert_eq!(get.reply, Reply::Value("GET".into()), "reads never shed");
        let m = stack.metrics();
        assert_eq!(m.shed_shed.sum(), 1);
        assert_eq!((m.auth_admitted.sum(), m.rate_admitted.sum()), (2, 2));
    }

    #[test]
    fn singletons_are_sampled_one_in_n() {
        // The sampling phase starts at "now": 3 of 7 is singletons 1,
        // 4 and 7 (any later phase would sample 2).
        let mut config = MiddlewareConfig::full();
        config.trace.sample_every = 3;
        let (mut svc, stack) = session_chain(&config, Echo);
        for _ in 0..7 {
            svc.call(Request::new(Command::Get("k".into())));
        }
        assert_eq!(stack.metrics().spans_sampled.sum(), 3);
        assert_eq!(stack.metrics().traced.sum(), 7);
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
