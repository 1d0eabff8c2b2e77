//! # dego-middleware — a composable request-interceptor pipeline
//!
//! The paper adjusts shared objects so a middleware's hot paths scale;
//! this crate *is* the middleware: a tower-style [`Layer`]/[`Service`]
//! chain over the wire protocol's [`protocol::Command`] /
//! [`protocol::Reply`], composed by a [`Stack`] in front of the
//! `dego-server` storage plane. Every layer's shared state is built
//! from the adjusted-object catalogue, so the pipeline itself is a
//! contention workload for the paper's data structures:
//!
//! | Layer | Concern | Shared state |
//! |---|---|---|
//! | [`TraceLayer`] | latency histograms, span sampling, the `SLOWLOG`/`TRACE` rings | relaxed-atomic histograms, lock-free capture rings |
//! | [`BreakerLayer`] | per-class circuit breaker (closed/open/half-open) | lock-free per-class atomics |
//! | [`DeadlineLayer`] | per-class execution budgets | none (config only) |
//! | [`AuthLayer`] | `AUTH` tokens + role ACLs | SWMR hash map, RCU-published policy |
//! | [`RateLimitLayer`] | per-client token buckets | `SegmentedHashMap` of atomic buckets, `LongAdder` refill counters |
//! | [`ShedLayer`] | shard-pressure load shedding for writes | injected [`PressureProbe`] over live shard telemetry |
//! | [`TtlLayer`] | meters `EXPIRE` timers and lazy expiry on `GET`, both applied by the key's shard writer | none (a key's deadline lives in its keyspace row) |
//!
//! Composition is canonical regardless of configuration order:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! Every stack is that one chain: a single concrete type,
//! [`FusedService`], with direct calls between layers, in which a
//! layer the configuration leaves out is a `None` link that passes
//! everything through. A connection holds it boxed once
//! ([`Stack::service`]). Each layer writes its rule once, as the admit
//! and observe halves of its [`pipeline::LayerRule`], and a burst of one
//! ([`Service::call`]) goes through them like any other burst.
//!
//! Rejections are structured (`-ERR RATELIMIT …`, `-ERR AUTH …`,
//! `-ERR DEADLINE …`, `-ERR SHED …`, `-ERR BREAKER …`); see the
//! error-reply grammar in [`protocol`].
//!
//! ## Quickstart
//!
//! ```
//! use dego_middleware::protocol::{Command, Reply};
//! use dego_middleware::{
//!     BoxService, MiddlewareConfig, Request, Response, Service, Session, Stack,
//! };
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn call(&mut self, req: Request) -> Response {
//!         Response::ok(Reply::Value(req.command.verb().into()))
//!     }
//! }
//!
//! let stack = Stack::build(&MiddlewareConfig::full());
//! assert_eq!(stack.depth(), 7);
//! let session = Session { client: "10.0.0.7:5501".into() };
//! let mut chain: BoxService = stack.service(&session, Box::new(Echo));
//! let resp = chain.call(Request::new(Command::Ping));
//! assert_eq!(resp.reply, Reply::Value("PING".into()));
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod breaker;
pub mod config;
pub mod deadline;
pub mod flight;
pub mod metrics;
pub mod pipeline;
pub mod prom;
pub mod protocol;
pub mod rate_limit;
pub mod shed;
pub mod span;
pub mod trace;
pub mod ttl;

pub use auth::{AuthConfig, AuthLayer, Principal, Role, TokenSpec};
pub use breaker::{BreakerConfig, BreakerLayer};
pub use config::{MiddlewareConfig, TraceConfig};
pub use deadline::{DeadlineConfig, DeadlineLayer};
pub use flight::{Capture, CaptureRing, Observation, StoreSegment};
pub use metrics::{LatencyHistogram, PipelineMetrics, Reading, RelaxedCounter, WindowedHistogram};
pub use pipeline::{
    BoxService, FusedService, Layer, LayerKind, Progress, Request, Response, Service, Session,
    Stack, LAYER_COUNT,
};
pub use prom::{Histograms, Kind, Quantiles, Row, Surface, P50_P99};
pub use rate_limit::{RateLimitConfig, RateLimitLayer};
pub use shed::{PressureProbe, ShardPressure, ShedConfig, ShedLayer};
pub use trace::TraceLayer;
pub use ttl::TtlLayer;
