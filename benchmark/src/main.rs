//! `dego-benchmark`: the repo's benchmark.
//!
//! ```text
//! dego-benchmark --workload <name> --seed <n> [--seconds 20] --trace <0|1>
//! dego-benchmark all [--seed <n>]
//! dego-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload and is what
//! `BENCHMARK.json` names: it prints every metric by name and unit,
//! then one JSON object on the last line. `--trace 0` gives the
//! end-to-end metrics, `--trace 1` the per-layer ones. `all` runs both
//! passes of every workload, each in a fresh process, and writes
//! `out/result_<seed>.json`; `compare` judges two such files.

mod client;
mod json;
mod layers;
mod metrics;
mod procstat;
mod report;
mod rng;
mod run;
mod speed;
mod stats;
mod workload;

use client::Tally;
use dego_middleware::TraceConfig;
use dego_server::MiddlewareConfig;
use json::Json;
use metrics::{Metric, Values};
use run::{check_and_stop, drive, set_up, At, Inputs, Placement, Rig, SetUp, Verdict};
use stats::{percentile, Spread};
use std::io;
use std::process::ExitCode;
use workload::{Mix, Workload};

/// One run's results: what the last output line and the detail file
/// are made from.
pub struct Outcome {
    pub verdict: Verdict,
    pub correct: bool,
    pub values: Vec<(Metric, Spread)>,
    /// Facts about the run that are not metrics (sample counts, window
    /// lengths): recorded in the detail file.
    pub notes: Vec<(String, Json)>,
}

/// The end-to-end pass: tracing off, the full window.
fn end_to_end_run(workload: &Workload, seed: u64) -> io::Result<Outcome> {
    let inputs = Inputs::generate(workload, seed);
    let mut setups: Vec<SetUp> = Vec::new();
    let mut rig: Option<Rig> = None;
    let mut verdict = Verdict::default();
    for _ in 0..workload.setup_reps {
        if let Some(spent) = rig.take() {
            verdict.add(&check_and_stop(spent, false)?);
        }
        let (fresh, set_up) = set_up(workload, run::default_middleware(workload), &inputs)?;
        setups.push(set_up);
        rig = Some(fresh);
    }
    let mut rig = rig.expect("every workload sets up at least once");
    let placement = rig.placement.clone();
    drive(&mut rig, run::WARMUP_SECS, 1, false)?;
    let slice_secs = run::WINDOW_SECS / run::SLICES as f64;
    let window = drive(&mut rig, slice_secs, run::SLICES, false)?;
    verdict.add(&check_and_stop(rig, true)?);

    let series = |at: At| {
        [
            ("throughput_ops_s", window.throughput_ops_s(at)),
            ("latency_p50_us", window.latency_us(0.50, at)),
            ("latency_p99_us", window.latency_us(0.99, at)),
            ("cpu_us_per_op", window.cpu_us_per_op(at)),
        ]
    };
    let setup_at = |at: At| -> Vec<f64> {
        setups
            .iter()
            .map(|s| s.secs * at.factor(s.speed, speed::Timing::SetUp))
            .collect()
    };
    let mut measured = Values::default();
    measured.put_spread("setup_s", Spread::of(&setup_at(At::Reference)));
    for (name, slices) in &series(At::Reference) {
        measured.put_spread(name, slices.spread());
    }
    measured.put("rss_peak_mb", procstat::rss_peak_mib());
    let numbers = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
    // Everything the reported values were made from: the speed the box
    // ran at, slice by slice, and every timing as the clock read it.
    let mut notes = vec![
        ("box_speed".to_string(), numbers(&window.speed().0)),
        (
            "box_speed_setups".to_string(),
            numbers(&setups.iter().map(|s| s.speed).collect::<Vec<_>>()),
        ),
        (
            "setups_s_measured".to_string(),
            numbers(&setup_at(At::Measured)),
        ),
    ];
    for (at, label) in [(At::Reference, "slices"), (At::Measured, "slices_measured")] {
        notes.extend(
            series(at)
                .iter()
                .map(|(name, s)| (format!("{label}_{name}"), numbers(&s.0))),
        );
    }
    notes.extend([
        (
            "latency_samples_per_slice_min".to_string(),
            Json::Num(window.min_samples() as f64),
        ),
        (
            "window_commands".to_string(),
            Json::Num(window.ops() as f64),
        ),
        ("placement".to_string(), placement_json(&placement)),
    ]);
    Ok(Outcome {
        correct: verdict.correct(),
        verdict,
        values: measured.fill(metrics::end_to_end()),
        notes,
    })
}

/// Thread name -> CPU, for the detail file.
fn placement_json(placement: &Placement) -> Json {
    Json::obj(
        placement
            .iter()
            .map(|(name, cpu)| (name.clone(), Json::Num(*cpu as f64))),
    )
}

/// What the generators had sent and seen when a window began or ended.
#[derive(Clone, Copy, Default)]
struct Sent {
    commands: u64,
    singles: u64,
    posts: u64,
    tally: Tally,
}

fn sent(rig: &Rig) -> Sent {
    let mut total = Sent::default();
    for gen in &rig.gens {
        total.commands += gen.commands;
        total.singles += gen.singles;
        total.posts += gen.posts;
        total.tally.add(&gen.tally);
    }
    total
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The recording plane switched off: no span sampling, no slowlog, no
/// flight recorder, no rolling windows.
fn quiet_stack() -> MiddlewareConfig {
    let mut config = MiddlewareConfig::full();
    config.trace = TraceConfig {
        sample_every: 0,
        slowlog_capacity: 0,
        trace_capacity: 0,
        window_secs: 0,
        ..config.trace
    };
    config
}

/// The traced pass: short windows with benchmark-side spans, the
/// differential re-runs, the bare-server probes and the in-process
/// timings.
fn per_layer_run(workload: &Workload, seed: u64) -> io::Result<Outcome> {
    let inputs = Inputs::generate(workload, seed);
    let slice_secs = run::TRACED_WINDOW_SECS / run::TRACED_SLICES as f64;
    let warmup_secs = run::WARMUP_SECS / 2.0;
    let window = |rig: &mut Rig, trace: bool| drive(rig, slice_secs, run::TRACED_SLICES, trace);
    let mut measured = Values::default();
    let mut correct = true;

    let (mut rig, _) = set_up(workload, run::default_middleware(workload), &inputs)?;
    let placement = rig.placement.clone();
    drive(&mut rig, warmup_secs, 1, false)?;
    let plain = window(&mut rig, false)?;
    let before = sent(&rig);
    let traced = window(&mut rig, true)?;
    let after = sent(&rig);
    let mut verdict = check_and_stop(rig, true)?;
    report::write_trace(workload.name, &traced.spans)?;

    // Counts over the traced window: the server's against the clients'.
    let (s0, s1) = (&traced.stats_before, &traced.stats_after);
    let commands = after.commands - before.commands;
    let applied = s1.applied - s0.applied;
    let singles = after.singles - before.singles;
    let posts = after.posts - before.posts;
    correct &= s1.commands - s0.commands == commands;
    // Every command was awaited, so every mutation had been applied
    // when the window closed; only a POST applies more than once.
    correct &= applied >= singles + posts && (posts > 0 || applied == singles);
    let (read, seen) = (&before.tally, &after.tally);
    measured.put("server.commands", (s1.commands - s0.commands) as f64);
    measured.put("server.errors", (s1.errors - s0.errors) as f64);
    measured.put(
        "server.reply_bytes_per_op",
        ratio(seen.bytes - read.bytes, commands),
    );
    measured.put("store.applied", applied as f64);
    let drains = s1.shard_batches - s0.shard_batches;
    measured.put("store.shard_batches", drains as f64);
    measured.put("store.cmds_per_drain", ratio(applied, drains));
    measured.put(
        "store.get_hit_share",
        ratio(s1.get_hits - s0.get_hits, s1.gets - s0.gets),
    );
    measured.put(
        "retwis.timeline_len_mean",
        ratio(
            seen.array_items - read.array_items,
            seen.arrays - read.arrays,
        ),
    );
    measured.put(
        "retwis.fanout_mean",
        ratio(applied.saturating_sub(singles), posts),
    );
    let mut waits: Vec<u32> = traced
        .spans
        .iter()
        .filter(|s| s.name == "client.wait_first")
        .map(|s| (s.end_ns - s.start_ns).min(u32::MAX as u64) as u32)
        .collect();
    waits.sort_unstable();
    let throughput = plain.throughput_ops_s(At::Reference).spread();
    measured.put("server.first_byte_us_p50", percentile(&waits, 0.50) / 1e3);
    measured.put("bench.slice_iqr_pct", throughput.iqr_share() * 100.0);
    measured.put(
        "bench.trace_overhead_pct",
        (1.0 - traced.throughput_ops_s(At::Reference).spread().median / throughput.median) * 100.0,
    );
    measured.put_spread("bench.box_speed", plain.speed().spread());

    // What the middleware costs over TCP, by running without it; what
    // the recording plane costs, by running with it switched off.
    let cpu = plain.cpu_us_per_op(At::Reference).spread().median;
    let mut cpu_without = |middleware: MiddlewareConfig| -> io::Result<f64> {
        let (mut rig, _) = set_up(workload, middleware, &inputs)?;
        drive(&mut rig, warmup_secs, 1, false)?;
        let other = window(&mut rig, false)?;
        verdict.add(&check_and_stop(rig, false)?);
        Ok(cpu - other.cpu_us_per_op(At::Reference).spread().median)
    };
    let (tcp_delta, recording_delta) = if workload.full_stack {
        (
            cpu_without(MiddlewareConfig::none())?,
            cpu_without(quiet_stack())?,
        )
    } else {
        (0.0, 0.0)
    };
    measured.put("middleware.rejections", verdict.rejections as f64);
    measured.put("bench.failed_share", verdict.failed_share());
    measured.put("middleware.tcp_delta_cpu_us_per_op", tcp_delta);
    measured.put("middleware.recording_delta_cpu_us_per_op", recording_delta);

    measured.append(layers::bare_probes()?);
    match workload.mix {
        Mix::Retwis => measured.append(layers::retwis_probes()?),
        Mix::Kv { .. } => {
            measured.put("retwis.timeline_rtt_p50_us", 0.0);
            measured.put("retwis.post_rtt_p50_us", 0.0);
        }
    }
    measured.append(layers::workload_timings(
        inputs.pool(0),
        workload.full_stack,
    ));
    measured.append(layers::core_timings());
    let p50 = plain.latency_us(0.50, At::Reference).spread().median;
    measured.put(
        "bench.stages_sum_over_e2e",
        if workload.depth == 1 {
            stages_sum_us(&measured) / p50
        } else {
            0.0
        },
    );

    Ok(Outcome {
        correct: correct && verdict.correct(),
        verdict,
        values: measured.fill(metrics::per_layer()),
        notes: vec![
            ("spans".to_string(), Json::Num(traced.spans.len() as f64)),
            ("placement".to_string(), placement_json(&placement)),
            (
                "untraced_throughput_ops_s".to_string(),
                Json::Num(throughput.median),
            ),
            ("untraced_latency_p50_us".to_string(), Json::Num(p50)),
            ("untraced_cpu_us_per_op".to_string(), Json::Num(cpu)),
        ],
    })
}

/// The stages of the median request of `kv_depth1_full` (half GETs,
/// half SETs), as far as they can be seen from outside: the connection
/// plane's round trip, parse, the stack's batch-1 entry, the store's
/// read path, half of what a write adds to it, and render.
/// Microseconds.
fn stages_sum_us(measured: &Values) -> f64 {
    let get = |name: &str| measured.get(name).median;
    get("server.ping_rtt_p50_us")
        + get("protocol.parse_ns_per_line") / 1e3
        + get("middleware.stack_ns_per_cmd_b1") / 1e3
        + get("store.get_minus_ping_rtt_us")
        + get("store.set_minus_get_rtt_us") / 2.0
        + get("protocol.render_ns_per_reply") / 1e3
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = flag(args, "--seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed takes a whole number")?;
    // The window is a constant of the benchmark, so that every result
    // ever written compares with every other; the flag is there because
    // the driver passes `run_seconds` back.
    if let Some(seconds) = flag(args, "--seconds") {
        if seconds.parse() != Ok(run::WINDOW_SECS) {
            return Err(format!(
                "--seconds {seconds}: the window is {} s and is not adjustable",
                run::WINDOW_SECS
            ));
        }
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(RunArgs {
        workload,
        seed,
        trace,
    })
}

fn single_run(args: &[String]) -> Result<(), String> {
    let run = parse_run_args(args)?;
    let outcome = if run.trace {
        per_layer_run(run.workload, run.seed)
    } else {
        end_to_end_run(run.workload, run.seed)
    }
    .map_err(|e| format!("{} failed: {e}", run.workload.name))?;
    report::write_detail(run.workload, run.seed, run.trace, &outcome)
        .map_err(|e| format!("cannot write the detail file: {e}"))?;
    println!(
        "{} seed {} trace {}: {} commands, {} failed (failed_share {}), output {}",
        run.workload.name,
        run.seed,
        run.trace as u8,
        outcome.verdict.attempted,
        outcome.verdict.failed,
        outcome.verdict.failed_share(),
        if outcome.correct { "correct" } else { "WRONG" },
    );
    for (metric, value) in &outcome.values {
        println!(
            "  {:<44} {:>16.4} {:<12} iqr {:.4}",
            metric.name, value.median, metric.unit, value.iqr
        );
    }
    // The contract's last line: exactly these four keys.
    println!("{}", report::result_line(&outcome).render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => single_run(&args).map(|()| true),
        _ => Err("usage: dego-benchmark --workload <name> --seed <n> [--seconds 20] --trace <0|1>\n       \
                  dego-benchmark all [--seed <n>]\n       \
                  dego-benchmark compare <a.json> <b.json>"
            .to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
