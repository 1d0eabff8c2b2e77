//! Tracing: the outermost layer.
//!
//! Times every command (whatever layer ultimately answers it) into the
//! per-class latency histograms and counts it. It does not render or
//! reset the plane it records into: the server lays out every plane,
//! this one included, for `STATS` and `/metrics`, and zeroes them all
//! on `STATS RESET`, whatever layers the stack has.
//!
//! Being outermost also makes it the observability anchor:
//!
//! * **Span sampling**: every `sample_every`-th command (or burst) per
//!   connection opens a [`crate::span`] scope; each layer below charges
//!   its admission cost to the scope, and the harvest lands in the
//!   per-layer histograms behind `mw_<layer>_us_p50/p99`.
//! * **Slowlog capture**: commands/bursts whose wall-clock time crosses
//!   the configured threshold are pushed into the slowlog
//!   [`crate::flight::CaptureRing`], together with the sampled
//!   breakdown when one was taken.
//! * **Flight recording**: every sampled command/burst offers a tree —
//!   the per-layer admission segments from this thread plus the
//!   store-side queue-wait/apply segments the shard owners stamped into
//!   the ack envelopes — to the trace ring, a second instance of the
//!   same lock-free structure.
//! * **`SLOWLOG GET|RESET|LEN`** and **`TRACE GET|RESET|LEN`** are
//!   answered here — they never travel further down the stack, so they
//!   are immune to deadline/rate/ACL policy and usable for diagnosis
//!   even mid-overload.

use crate::flight::{Capture, CaptureRing, Observation};
use crate::metrics::PipelineMetrics;
use crate::pipeline::{
    split, Admission, Layer, LayerKind, LayerRule, Request, Response, Session, Split,
};
use crate::protocol::{Command, CommandClass, Reply};
use crate::span;
use std::sync::Arc;
use std::time::Instant;

fn class_name(class: CommandClass) -> &'static str {
    match class {
        CommandClass::Read => "read",
        CommandClass::Write => "write",
        CommandClass::Control => "control",
    }
}

/// Whether `cmd` is one of the ring verbs [`observability_reply`]
/// answers.
fn is_ring_verb(cmd: &Command) -> bool {
    use Command::*;
    matches!(
        cmd,
        SlowlogGet | SlowlogReset | SlowlogLen | TraceGet | TraceReset | TraceLen
    )
}

/// Answer a slowlog or flight-recorder verb from its ring, or `None`
/// for anything else.
fn observability_reply(metrics: &PipelineMetrics, cmd: &Command) -> Option<Reply> {
    use Command::*;
    let (ring, line): (&CaptureRing, fn(&Capture) -> String) = match cmd {
        SlowlogGet | SlowlogReset | SlowlogLen => (&metrics.slowlog, Capture::slowlog_line),
        TraceGet | TraceReset | TraceLen => (&metrics.trace, Capture::trace_line),
        _ => return None,
    };
    Some(match cmd {
        SlowlogGet | TraceGet => Reply::Array(ring.entries().iter().map(|e| line(e)).collect()),
        SlowlogLen | TraceLen => Reply::Int(ring.len() as i64),
        _ => {
            ring.reset();
            Reply::Status("OK")
        }
    })
}

/// The trace [`Layer`].
pub struct TraceLayer {
    metrics: Arc<PipelineMetrics>,
    sample_every: u32,
}

impl TraceLayer {
    /// Build the layer; `sample_every` is the span-sampling period (0
    /// disables sampling, 1 samples everything).
    pub fn new(metrics: Arc<PipelineMetrics>, sample_every: u32) -> Self {
        TraceLayer {
            metrics,
            sample_every,
        }
    }
}

impl Layer for TraceLayer {
    type Rule = TraceRule;

    fn rule(&self, session: &Session) -> TraceRule {
        TraceRule {
            metrics: Arc::clone(&self.metrics),
            client: Arc::from(session.client.as_str()),
            sample_every: self.sample_every,
            tick: 0,
        }
    }
}

/// The trace layer's per-session rules.
pub struct TraceRule {
    metrics: Arc<PipelineMetrics>,
    client: Arc<str>,
    sample_every: u32,
    /// Per-connection sampling phase: 0 means "sample now", so the
    /// first command of every connection is always covered —
    /// contention-free and deterministic for tests.
    tick: u32,
}

/// What a traced burst carries from admission to completion.
pub struct TraceCtx {
    /// The ring verbs answered here, when the burst carried any.
    ring: Option<Split>,
    /// A burst of one's verb and class: it is metered as that command,
    /// not as a `BATCH`.
    single: Option<(&'static str, CommandClass)>,
    /// The burst's span, when it was sampled.
    span: Option<span::SpanGuard>,
    start: Instant,
}

impl TraceRule {
    /// Whether this command/burst is span-sampled; advances the phase.
    fn tick_sample(&mut self) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        let hit = self.tick == 0;
        self.tick += 1;
        if self.tick >= self.sample_every {
            self.tick = 0;
        }
        hit
    }

    /// Count one singleton into its class's latency histogram.
    fn record_singleton(&self, class: CommandClass, elapsed_us: u64) {
        self.metrics.traced.increment();
        match class {
            CommandClass::Read => self.metrics.read_latency.record(elapsed_us),
            CommandClass::Write => self.metrics.write_latency.record(elapsed_us),
            CommandClass::Control => self.metrics.control_latency.record(elapsed_us),
        }
    }

    /// Close out one traced command/burst: harvest the span (if any)
    /// into the per-layer histograms and offer the completed tree to
    /// the trace ring, then offer the observation to the slowlog ring.
    fn finish(
        &self,
        span: Option<span::SpanGuard>,
        verb: &'static str,
        class: &'static str,
        burst: usize,
        elapsed_us: u64,
    ) {
        let seen = Observation {
            client: &self.client,
            verb,
            class,
            burst,
            elapsed_us,
        };
        let costs = span.map(|guard| {
            let harvest = guard.finish();
            self.metrics.note_span(&harvest.layer_us);
            let costs = Some(harvest.layer_us);
            self.metrics.trace.offer(&seen, costs, harvest.store);
            harvest.layer_us
        });
        self.metrics.slowlog.offer(&seen, costs, Vec::new());
    }
}

impl LayerRule for TraceRule {
    type Ctx = TraceCtx;

    /// One `Instant::now()` pair and one histogram sample per burst. A
    /// burst of one is metered as its command: into its class's
    /// histogram, and under its verb and class in the rings. A longer
    /// one is one sample in `batch_latency` and one `BATCH` entry (a
    /// per-class sample would conflate k commands into one latency).
    /// The clock runs from here to the observe half, so a burst that
    /// parks is charged its real wait. Ring verbs are answered in place
    /// without travelling further down — a lone one without a sampling
    /// tick, counted as traffic and nothing else.
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<TraceCtx> {
        let single = match reqs.as_slice() {
            [req] => match observability_reply(&self.metrics, &req.command) {
                Some(reply) => {
                    self.metrics.traced.increment();
                    return Admission::Answered(vec![Response::ok(reply)]);
                }
                None => Some((req.command.verb(), req.command.class())),
            },
            _ => None,
        };
        let has_ring_verbs = reqs.iter().any(|req| is_ring_verb(&req.command));
        let span = self.tick_sample().then(span::enter);
        let start = Instant::now();
        let (reqs, ring) = if has_ring_verbs {
            let (reqs, ring) = split(reqs, |req| {
                observability_reply(&self.metrics, &req.command).map(Response::ok)
            });
            (reqs, Some(ring))
        } else {
            (reqs, None)
        };
        let ctx = TraceCtx {
            ring,
            single,
            span,
            start,
        };
        Admission::Observe(reqs, ctx)
    }

    /// A slow longer burst enters the slowlog as one `BATCH` entry
    /// (covering the burst end to end, which no position inside it
    /// could observe anyway).
    fn observe(&mut self, ctx: TraceCtx, inner: Vec<Response>) -> Vec<Response> {
        let elapsed_us = ctx.start.elapsed().as_micros() as u64;
        let trace_t = span::start();
        let resps = match ctx.ring {
            Some(ring) => ring.zip(inner),
            None => inner,
        };
        let burst = resps.len();
        let (verb, class) = match ctx.single {
            Some((verb, class)) => {
                self.record_singleton(class, elapsed_us);
                (verb, class_name(class))
            }
            None => {
                self.metrics.traced.add(burst as u64);
                self.metrics.batch_commands.add(burst as u64);
                self.metrics.batches.increment();
                self.metrics.batch_latency.record(elapsed_us);
                ("BATCH", "batch")
            }
        };
        span::record(LayerKind::Trace, trace_t);
        self.finish(ctx.span, verb, class, burst, elapsed_us);
        resps
    }

    /// A parked burst's span stops collecting: what this thread does
    /// for other connections meanwhile is not charged to it.
    fn suspend(&mut self, ctx: &mut TraceCtx) {
        if let Some(span) = &mut ctx.span {
            span.suspend();
        }
    }

    fn resume(&mut self, ctx: &mut TraceCtx) {
        if let Some(span) = &mut ctx.span {
            span.resume();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::pipeline::{BoxService, Service};

    struct Store;
    impl Service for Store {
        fn call(&mut self, _: Request) -> Response {
            Response::ok(Reply::Status("OK"))
        }
    }

    fn traced_with(config: TraceConfig) -> (BoxService, Arc<PipelineMetrics>) {
        let sample_every = config.sample_every;
        let metrics = Arc::new(PipelineMetrics::with_trace(&config));
        let layer = TraceLayer::new(Arc::clone(&metrics), sample_every);
        let session = Session {
            client: "t:1".into(),
        };
        (Box::new(layer.wrap(&session, Store)), metrics)
    }

    fn traced() -> (BoxService, Arc<PipelineMetrics>) {
        traced_with(TraceConfig::default())
    }

    #[test]
    fn commands_are_counted_into_class_histograms() {
        let (mut svc, metrics) = traced();
        svc.call(Request::new(Command::Get("k".into())));
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        svc.call(Request::new(Command::Ping));
        assert_eq!(metrics.traced.sum(), 3);
        assert_eq!(metrics.read_latency.count(), 1);
        assert_eq!(metrics.write_latency.count(), 1);
        assert_eq!(metrics.control_latency.count(), 1);
    }

    #[test]
    fn batches_pay_one_histogram_sample() {
        let (mut svc, metrics) = traced();
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping),
            Request::new(Command::Stats),
        ]);
        assert_eq!(resps.len(), 4);
        assert_eq!(metrics.traced.sum(), 4, "every command counted");
        assert_eq!(metrics.batches.sum(), 1, "one burst");
        assert_eq!(metrics.batch_commands.sum(), 4);
        assert_eq!(metrics.batch_latency.count(), 1, "one sample per burst");
        // Per-class histograms only meter singleton traffic.
        assert_eq!(metrics.read_latency.count(), 0);
    }

    #[test]
    fn spans_sample_one_in_n_per_connection() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 3,
            ..TraceConfig::default()
        });
        for _ in 0..7 {
            svc.call(Request::new(Command::Ping));
        }
        // Commands 1, 4 and 7 are sampled (phase starts at "now").
        assert_eq!(metrics.spans_sampled.sum(), 3);
        assert!(metrics.layer_admission_us[LayerKind::Trace.index()].count() >= 3);
    }

    #[test]
    fn sampling_zero_disables_spans() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        for _ in 0..10 {
            svc.call(Request::new(Command::Ping));
        }
        assert_eq!(metrics.spans_sampled.sum(), 0);
    }

    #[test]
    fn slow_commands_enter_the_slowlog() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0, // everything is "slow"
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        assert_eq!(metrics.slowlog.len(), 1);
        let entry = &metrics.slowlog.entries()[0];
        assert_eq!(entry.verb, "SET");
        assert_eq!(entry.class, "write");
        assert_eq!(entry.burst, 1);
        assert_eq!(&*entry.client, "t:1");
        assert!(entry.layers.is_some(), "first command is sampled");
    }

    #[test]
    fn slowlog_verbs_are_answered_by_the_trace_layer() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        match svc.call(Request::new(Command::SlowlogLen)).reply {
            Reply::Int(1) => {}
            other => panic!("expected :1, got {other:?}"),
        }
        match svc.call(Request::new(Command::SlowlogGet)).reply {
            Reply::Array(lines) => {
                assert_eq!(lines.len(), 1);
                assert!(lines[0].contains("verb=SET"), "line: {}", lines[0]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            svc.call(Request::new(Command::SlowlogReset)).reply,
            Reply::Status("OK")
        );
        assert_eq!(metrics.slowlog.len(), 0);
        // The verbs themselves never entered the ring or the class
        // histograms, but were counted as traffic.
        assert_eq!(metrics.traced.sum(), 4);
        assert_eq!(metrics.control_latency.count(), 0);
    }

    #[test]
    fn slowlog_verbs_in_bursts_answer_in_place() {
        let (mut svc, _) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::SlowlogLen),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].reply, Reply::Status("OK"), "inner store reply");
        assert_eq!(resps[1].reply, Reply::Int(1), "answered by trace");
        assert_eq!(resps[2].reply, Reply::Status("OK"));
    }

    #[test]
    fn sampled_commands_enter_the_flight_recorder() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        assert_eq!(metrics.trace.len(), 1, "sampled tree captured");
        let tree = &metrics.trace.entries()[0];
        assert_eq!(tree.verb, "SET");
        assert_eq!(tree.class, "write");
        assert_eq!(&*tree.client, "t:1");
        assert!(
            tree.layers.expect("sampled")[LayerKind::Trace.index()].is_some(),
            "trace segment present"
        );
    }

    #[test]
    fn unsampled_commands_skip_the_flight_recorder() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 2,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Ping)); // sampled (phase 0)
        svc.call(Request::new(Command::Ping)); // not sampled
        assert_eq!(metrics.trace.total(), 1, "only the sampled command");
    }

    #[test]
    fn trace_verbs_are_answered_by_the_trace_layer() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        match svc.call(Request::new(Command::TraceLen)).reply {
            Reply::Int(1) => {}
            other => panic!("expected :1, got {other:?}"),
        }
        match svc.call(Request::new(Command::TraceGet)).reply {
            Reply::Array(lines) => {
                assert_eq!(lines.len(), 1);
                assert!(lines[0].contains("verb=SET"), "line: {}", lines[0]);
                assert!(lines[0].contains("conn/trace:"), "line: {}", lines[0]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            svc.call(Request::new(Command::TraceReset)).reply,
            Reply::Status("OK")
        );
        assert_eq!(metrics.trace.len(), 0);
        // The verbs themselves never became trees (they return before
        // sampling) but were counted as traffic.
        assert_eq!(metrics.traced.sum(), 4);
    }

    #[test]
    fn trace_verbs_in_bursts_answer_in_place() {
        let (mut svc, _) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::TraceLen),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].reply, Reply::Status("OK"), "inner store reply");
        assert_eq!(resps[1].reply, Reply::Int(1), "answered by trace");
        assert_eq!(resps[2].reply, Reply::Status("OK"));
    }

    #[test]
    fn slow_bursts_enter_as_one_batch_entry() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Ping),
        ]);
        let entries = metrics.slowlog.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].verb, "BATCH");
        assert_eq!(entries[0].class, "batch");
        assert_eq!(entries[0].burst, 2);
    }
}
