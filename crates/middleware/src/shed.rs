//! Load shedding: reject writes early when their target shard is
//! already distressed.
//!
//! The shed layer reads *live shard telemetry* — the queue-depth gauge
//! and the windowed ack p99 the store publishes — through an injected
//! [`PressureProbe`], and rejects a write with a structured
//! `-ERR SHED <detail>` before it ever queues when either signal
//! crosses its configured threshold (`--shed-queue-depth`,
//! `--shed-ack-p99-us`). Shedding at admission keeps the rejection
//! latency flat (microseconds) while the shard works down its backlog,
//! instead of letting every new mutation join the queue and blow its
//! ack deadline.
//!
//! Only `Write`-class verbs shed: reads are served from the lock-free
//! plane without queueing, and control verbs must stay answerable under
//! load. A lapsed key's reap is a store mutation planned from its
//! `GET`, a read-class verb, so this layer never sheds it and expiry
//! still makes progress while the shard drains.
//!
//! The probe is injected after the stack is built (the store does not
//! exist yet when layers are constructed): [`Stack::shed_set_probe`]
//! seats it in a `OnceLock`. Unseated or unconfigured (both thresholds
//! zero — the default), the layer is a pure passthrough.
//!
//! [`Stack::shed_set_probe`]: crate::pipeline::Stack::shed_set_probe

use crate::metrics::PipelineMetrics;
use crate::pipeline::{
    split, Admission, Layer, LayerKind, LayerRule, Request, Response, Session, Split,
};
use crate::protocol::{Command, CommandClass};
use crate::span;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Shed thresholds. Zero disables a signal; both zero (the default)
/// disables the layer.
#[derive(Clone, Debug, Default)]
pub struct ShedConfig {
    /// Reject a write when its target shard's queue depth is at or
    /// above this many entries (0 = ignore queue depth).
    pub queue_depth: u64,
    /// Reject a write when its target shard's windowed ack p99 is at
    /// or above this many microseconds (0 = ignore ack latency).
    pub ack_p99_us: u64,
}

impl ShedConfig {
    /// Whether any threshold is armed.
    pub fn enabled(&self) -> bool {
        self.queue_depth > 0 || self.ack_p99_us > 0
    }
}

/// A point-in-time pressure reading for one shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardPressure {
    /// Entries currently queued on the shard.
    pub queue_depth: u64,
    /// Windowed ack p99 for the shard, µs.
    pub ack_p99_us: u64,
}

/// Live shard telemetry, implemented by the storage plane and injected
/// post-build. Both methods are called on the hot admission path and
/// must be cheap and lock-free.
pub trait PressureProbe: Send + Sync {
    /// The shard `cmd`'s key (or user) hashes to, or `None` when the
    /// command is untargeted.
    fn shard_of(&self, cmd: &Command) -> Option<usize>;
    /// The current pressure reading for `shard`.
    fn pressure_of(&self, shard: usize) -> ShardPressure;
}

/// Shared shed state: thresholds plus the seated probe.
pub(crate) struct ShedState {
    config: ShedConfig,
    probe: OnceLock<Arc<dyn PressureProbe>>,
    metrics: Arc<PipelineMetrics>,
}

impl std::fmt::Debug for ShedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShedState")
            .field("config", &self.config)
            .field("probe_seated", &self.probe.get().is_some())
            .finish()
    }
}

impl ShedState {
    fn new(config: ShedConfig, metrics: Arc<PipelineMetrics>) -> Self {
        ShedState {
            config,
            probe: OnceLock::new(),
            metrics,
        }
    }

    /// Seat the probe. The first caller wins; later calls are ignored
    /// (the probe outlives every session, so reseating is never
    /// needed).
    pub(crate) fn set_probe(&self, probe: Arc<dyn PressureProbe>) {
        let _ = self.probe.set(probe);
    }

    /// Whether admissions can actually shed: thresholds armed *and* a
    /// probe seated.
    #[inline]
    fn active(&self) -> Option<&Arc<dyn PressureProbe>> {
        if self.config.enabled() {
            self.probe.get()
        } else {
            None
        }
    }

    /// Compare one pressure reading against the thresholds. Metrics
    /// are counted per *response* by the caller, not here — a burst
    /// caches one verdict per shard but still counts every shed reply.
    fn verdict(&self, shard: usize, p: ShardPressure) -> Option<Response> {
        if self.config.queue_depth > 0 && p.queue_depth >= self.config.queue_depth {
            return Some(Response::rejection(
                "SHED",
                format_args!(
                    "shard={shard} queue_depth={} limit={}",
                    p.queue_depth, self.config.queue_depth
                ),
            ));
        }
        if self.config.ack_p99_us > 0 && p.ack_p99_us >= self.config.ack_p99_us {
            return Some(Response::rejection(
                "SHED",
                format_args!(
                    "shard={shard} ack_p99_us={} limit={}",
                    p.ack_p99_us, self.config.ack_p99_us
                ),
            ));
        }
        None
    }
}

/// The load-shedding [`Layer`]: stateless per session, so it serves as
/// its own session rules.
#[derive(Clone)]
pub struct ShedLayer {
    pub(crate) state: Arc<ShedState>,
}

impl ShedLayer {
    /// Build the layer.
    pub fn new(config: ShedConfig, metrics: Arc<PipelineMetrics>) -> Self {
        ShedLayer {
            state: Arc::new(ShedState::new(config, metrics)),
        }
    }
}

impl Layer for ShedLayer {
    type Rule = Self;

    fn rule(&self, _session: &Session) -> Self {
        self.clone()
    }
}

impl LayerRule for ShedLayer {
    type Ctx = Split;

    /// Pressure is read once per *shard* per burst and the verdict
    /// reused for every write targeting it — the amortized
    /// metering exemption the contract allows (pressure is a clock,
    /// not state the burst itself mutates). Ordering and reply bytes
    /// are unchanged.
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<Split> {
        let state = &self.state;
        let Some(probe) = state.active() else {
            return Admission::Pass(reqs);
        };
        let admission_t = span::start();
        let mut verdicts: HashMap<usize, Option<Response>> = HashMap::new();
        let (reqs, shed) = split(reqs, |req| {
            if req.command.class() != CommandClass::Write {
                return None;
            }
            let shard = probe.shard_of(&req.command)?;
            state.metrics.shed_checked.increment();
            let verdict = verdicts
                .entry(shard)
                .or_insert_with(|| state.verdict(shard, probe.pressure_of(shard)))
                .clone();
            if verdict.is_some() {
                state.metrics.shed_shed.increment();
            }
            verdict
        });
        span::record(LayerKind::Shed, admission_t);
        Admission::Observe(reqs, shed)
    }

    fn observe(&mut self, shed: Split, inner: Vec<Response>) -> Vec<Response> {
        shed.zip(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Layered, Service};
    use crate::protocol::Reply;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fake storage plane: every key lands on shard `key.len() % 2`,
    /// both shards share one mutable pressure cell.
    struct FakeProbe {
        depth: [AtomicU64; 2],
        p99: [AtomicU64; 2],
    }

    impl FakeProbe {
        fn calm() -> Arc<Self> {
            Arc::new(FakeProbe {
                depth: [AtomicU64::new(0), AtomicU64::new(0)],
                p99: [AtomicU64::new(0), AtomicU64::new(0)],
            })
        }
    }

    impl PressureProbe for FakeProbe {
        fn shard_of(&self, cmd: &Command) -> Option<usize> {
            match cmd {
                Command::Set(k, _) | Command::Del(k) | Command::Incr(k, _) => Some(k.len() % 2),
                _ => None,
            }
        }
        fn pressure_of(&self, shard: usize) -> ShardPressure {
            ShardPressure {
                queue_depth: self.depth[shard].load(Ordering::Relaxed),
                ack_p99_us: self.p99[shard].load(Ordering::Relaxed),
            }
        }
    }

    struct Always;
    impl Service for Always {
        fn call(&mut self, _req: Request) -> Response {
            Response::ok(Reply::Status("OK"))
        }
    }

    fn wrap(
        config: ShedConfig,
    ) -> (
        Layered<ShedLayer, Always>,
        Arc<FakeProbe>,
        Arc<PipelineMetrics>,
    ) {
        let metrics = Arc::new(PipelineMetrics::new());
        let layer = ShedLayer::new(config, Arc::clone(&metrics));
        let probe = FakeProbe::calm();
        layer
            .state
            .set_probe(probe.clone() as Arc<dyn PressureProbe>);
        let session = Session {
            client: "t:1".into(),
        };
        (layer.wrap(&session, Always), probe, metrics)
    }

    fn set(key: &str) -> Request {
        Request::new(Command::Set(key.into(), "v".into()))
    }

    #[test]
    fn calm_shards_admit_everything() {
        let (mut svc, _, metrics) = wrap(ShedConfig {
            queue_depth: 8,
            ack_p99_us: 0,
        });
        assert!(matches!(svc.call(set("k")).reply, Reply::Status("OK")));
        assert_eq!(metrics.shed_checked.sum(), 1);
        assert_eq!(metrics.shed_shed.sum(), 0);
    }

    #[test]
    fn deep_queue_sheds_only_the_distressed_shard() {
        let (mut svc, probe, metrics) = wrap(ShedConfig {
            queue_depth: 8,
            ack_p99_us: 0,
        });
        probe.depth[1].store(8, Ordering::Relaxed);
        match svc.call(set("k")).reply {
            // "k" has length 1 → shard 1, at the limit → shed.
            Reply::Error(e) => {
                assert_eq!(e, "SHED shard=1 queue_depth=8 limit=8", "got {e:?}")
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Shard 0 is calm; same verb class, different key.
        assert!(matches!(svc.call(set("kk")).reply, Reply::Status("OK")));
        assert_eq!(metrics.shed_shed.sum(), 1);
    }

    #[test]
    fn slow_acks_shed_via_the_p99_threshold() {
        let (mut svc, probe, _) = wrap(ShedConfig {
            queue_depth: 0,
            ack_p99_us: 5_000,
        });
        probe.p99[1].store(7_500, Ordering::Relaxed);
        match svc.call(set("k")).reply {
            Reply::Error(e) => {
                assert_eq!(e, "SHED shard=1 ack_p99_us=7500 limit=5000", "got {e:?}")
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn reads_and_control_verbs_never_shed() {
        let (mut svc, probe, metrics) = wrap(ShedConfig {
            queue_depth: 1,
            ack_p99_us: 1,
        });
        probe.depth[0].store(99, Ordering::Relaxed);
        probe.depth[1].store(99, Ordering::Relaxed);
        probe.p99[0].store(99, Ordering::Relaxed);
        probe.p99[1].store(99, Ordering::Relaxed);
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Status("OK")
        ));
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status("OK")
        ));
        assert_eq!(metrics.shed_checked.sum(), 0, "non-writes never probed");
    }

    #[test]
    fn unseated_probe_is_a_passthrough() {
        let metrics = Arc::new(PipelineMetrics::new());
        let layer = ShedLayer::new(
            ShedConfig {
                queue_depth: 1,
                ack_p99_us: 1,
            },
            Arc::clone(&metrics),
        );
        let session = Session {
            client: "t:1".into(),
        };
        let mut svc = layer.wrap(&session, Always);
        assert!(matches!(svc.call(set("k")).reply, Reply::Status("OK")));
        assert_eq!(metrics.shed_checked.sum(), 0);
    }

    #[test]
    fn batch_reads_pressure_once_per_shard() {
        let (mut svc, probe, metrics) = wrap(ShedConfig {
            queue_depth: 8,
            ack_p99_us: 0,
        });
        probe.depth[1].store(8, Ordering::Relaxed);
        let resps = svc.call_batch(vec![
            set("a"),  // shard 1: shed
            set("bb"), // shard 0: admitted
            set("c"),  // shard 1 again: cached verdict, same bytes
            Request::new(Command::Ping),
        ]);
        assert!(matches!(&resps[0].reply, Reply::Error(e) if e.starts_with("SHED shard=1 ")));
        assert!(matches!(resps[1].reply, Reply::Status("OK")));
        assert_eq!(resps[0].reply, resps[2].reply);
        assert!(matches!(resps[3].reply, Reply::Status("OK")));
        assert_eq!(metrics.shed_checked.sum(), 3);
        assert_eq!(
            metrics.shed_shed.sum(),
            2,
            "each shed response counted, pressure read once"
        );
    }
}
