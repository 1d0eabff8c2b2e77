//! Criterion bench: per-request middleware overhead, axum-style.
//!
//! * `layer_overhead` — each of the seven layers in isolation
//!   (monomorphized over a no-op inner) against the bare inner, so a
//!   layer's per-request cost is one subtraction away.
//! * `stack_scaling` — the composed onion at increasing depth (the
//!   boxed `dyn Service` path every partial stack takes), showing how
//!   overhead accumulates per layer.
//! * `stack_dispatch` — full-depth fused vs dyn: the monomorphized
//!   chain's batch-1 `call_one` fast path against the boxed onion's
//!   `call`, plus `call_batch` at 8 and 32 where group-commit
//!   amortization dominates the dispatch mode.
//!
//! Rate limits are tuned effectively off (huge burst) so the A/B
//! compares dispatch cost, not token exhaustion; span sampling stays
//! at the production default (1-in-64) so the numbers include the
//! real sampling duty cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dego_middleware::protocol::{Command, Reply};
use dego_middleware::{
    AuthLayer, BreakerLayer, DeadlineLayer, Layer, MiddlewareConfig, PipelineMetrics,
    RateLimitLayer, Request, Response, Service, Session, ShedLayer, Stack, TraceLayer, TtlLayer,
};
use std::sync::Arc;
use std::time::Duration;

/// The no-op inner service: the floor every overhead is measured from.
struct Nop;

impl Service for Nop {
    fn call(&mut self, _req: Request) -> Response {
        Response::ok(Reply::Status("OK"))
    }
}

fn session() -> Session {
    Session {
        client: "bench:1".into(),
    }
}

/// A full-depth config with the rate limiter effectively off (the
/// bench loop would drain any realistic bucket) and everything else at
/// production defaults.
fn bench_config(layers: &str) -> MiddlewareConfig {
    let mut config = MiddlewareConfig::full();
    config.layers = MiddlewareConfig::parse_layers(layers).expect("valid layer spec");
    config.rate.burst = 1 << 40;
    config.rate.refill_per_sec = u64::MAX / (1 << 22);
    config
}

fn get_req() -> Request {
    Request::new(Command::Get("bench-key".into()))
}

/// Each layer alone, monomorphized over [`Nop`], against bare [`Nop`].
fn layer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_overhead/layer_overhead");
    group.measurement_time(Duration::from_secs(1));

    group.bench_function("baseline/nop", |b| {
        let mut svc = Nop;
        b.iter(|| svc.call(get_req()));
    });

    let config = bench_config("full");
    let metrics = Arc::new(PipelineMetrics::new());

    group.bench_function("trace", |b| {
        let layer = TraceLayer::new(Arc::clone(&metrics), 1, config.trace.sample_every);
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("breaker", |b| {
        // Disarmed, as in the default full stack: the cost measured is
        // the pass-through check every request pays.
        let layer = BreakerLayer::new(config.breaker.clone(), Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("deadline", |b| {
        let layer = DeadlineLayer::new(config.deadline.clone(), Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("auth", |b| {
        let layer = AuthLayer::new(&config.auth, Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("rate_limit", |b| {
        let layer = RateLimitLayer::new(config.rate.clone(), Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("shed", |b| {
        // Unarmed/unseated, as in the default full stack: a pure
        // pass-through — the per-request floor of the admission check.
        let layer = ShedLayer::new(config.shed.clone(), Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.bench_function("ttl", |b| {
        let layer = TtlLayer::new(Arc::clone(&metrics));
        let mut svc = layer.wrap_typed(&session(), Nop);
        b.iter(|| svc.call(get_req()));
    });
    group.finish();
}

/// The boxed onion at increasing depth: overhead per added layer.
fn stack_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_overhead/stack_scaling");
    group.measurement_time(Duration::from_secs(1));
    for (depth, layers) in [(1, "trace"), (3, "trace,deadline,auth"), (7, "full")] {
        group.bench_function(BenchmarkId::new("dyn", depth), |b| {
            let stack = Stack::build(&bench_config(layers));
            let mut chain = stack.service(&session(), Box::new(Nop));
            b.iter(|| chain.call(get_req()));
        });
    }
    group.finish();
}

/// Full-depth fused vs dyn, singleton and batched.
fn stack_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_overhead/stack_dispatch");
    group.measurement_time(Duration::from_secs(1));

    group.bench_function(BenchmarkId::new("fused", 1), |b| {
        let stack = Stack::build(&bench_config("full"));
        let mut chain = stack
            .fused_service(&session(), Nop)
            .expect("full stack fuses");
        b.iter(|| chain.call_one(get_req()));
    });
    group.bench_function(BenchmarkId::new("dyn", 1), |b| {
        let stack = Stack::build(&bench_config("full"));
        let mut chain = stack.service(&session(), Box::new(Nop));
        b.iter(|| chain.call(get_req()));
    });

    for burst in [8usize, 32] {
        group.bench_function(BenchmarkId::new("fused-batch", burst), |b| {
            let stack = Stack::build(&bench_config("full"));
            let mut chain = stack
                .fused_service(&session(), Nop)
                .expect("full stack fuses");
            b.iter(|| chain.call_batch((0..burst).map(|_| get_req()).collect()));
        });
        group.bench_function(BenchmarkId::new("dyn-batch", burst), |b| {
            let stack = Stack::build(&bench_config("full"));
            let mut chain = stack.service(&session(), Box::new(Nop));
            b.iter(|| chain.call_batch((0..burst).map(|_| get_req()).collect()));
        });
    }
    group.finish();
}

criterion_group!(benches, layer_overhead, stack_scaling, stack_dispatch);
criterion_main!(benches);
