//! Result files: one detail file per run, `all` to run everything and
//! merge them into `result_<seed>.json`, `compare` to judge two such
//! files against the bounds.

use crate::json::Json;
use crate::metrics::{self, Metric};
use crate::run::{self, Span};
use crate::speed;
use crate::stats::Spread;
use crate::workload::{self, Workload};
use crate::Outcome;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::Command;

/// `benchmark/out/`, wherever the checkout is: the path is fixed when
/// the benchmark is built, which the driver does inside the checkout.
fn out_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn detail_path(workload: &str, seed: u64, trace: bool) -> io::Result<PathBuf> {
    Ok(out_dir()?.join(format!(
        "run_{workload}_seed{seed}_trace{}.json",
        trace as u8
    )))
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how a result was measured (ROADMAP item 1d).
fn provenance(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("git_head", Json::Str(git_head())),
        ("nproc", Json::Num(nproc as f64)),
        ("shards", Json::Num(run::SHARDS as f64)),
        // Not set by the benchmark: the server's own default, one loop
        // per core and at least two.
        ("event_loops", Json::Num(nproc.max(2) as f64)),
        ("connections", Json::Num(workload::CONNS as f64)),
        ("window_s", Json::Num(run::WINDOW_SECS)),
        ("slices", Json::Num(run::SLICES as f64)),
        ("slice_s", Json::Num(run::WINDOW_SECS / run::SLICES as f64)),
        ("warmup_s", Json::Num(run::WARMUP_SECS)),
        ("traced_window_s", Json::Num(run::TRACED_WINDOW_SECS)),
        ("traced_slices", Json::Num(run::TRACED_SLICES as f64)),
        (
            "setup_reps",
            Json::obj(
                workload::WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.setup_reps as f64))),
            ),
        ),
        ("trace_every_bursts", Json::Num(run::TRACE_EVERY as f64)),
        (
            "speed_probe_every_ms",
            Json::Num(run::PROBE_EVERY.as_millis() as f64),
        ),
        (
            "speed_reference_ns",
            Json::obj([
                ("alu", Json::Num(speed::ALU_REFERENCE_NS)),
                ("tcp", Json::Num(speed::TCP_REFERENCE_NS)),
            ]),
        ),
        (
            "speed_sensitivity",
            Json::obj([
                ("typical", Json::Num(speed::SENSITIVITY)),
                ("typical_below_knee", Json::Num(1.0)),
                ("knee", Json::Num(speed::KNEE)),
                ("latency_p99_us", Json::Num(speed::TAIL_SENSITIVITY)),
                ("setup_s", Json::Num(1.0)),
            ]),
        ),
    ])
}

/// The last line of a run's standard output.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.verdict.attempted as f64)),
        ("failed", Json::Num(outcome.verdict.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.values.iter().map(|(metric, value)| {
                (
                    metric.name.clone(),
                    Json::obj([
                        ("value", Json::Num(value.median)),
                        ("unit", Json::str(metric.unit)),
                    ]),
                )
            })),
        ),
    ])
}

/// Everything about one run, for `all` to merge and people to read.
pub fn write_detail(
    workload: &Workload,
    seed: u64,
    trace: bool,
    outcome: &Outcome,
) -> io::Result<()> {
    let metrics = Json::obj(outcome.values.iter().map(|(metric, value)| {
        let mut entry = vec![
            ("value", Json::Num(value.median)),
            ("unit", Json::str(metric.unit)),
            ("iqr", Json::Num(value.iqr)),
        ];
        if !metric.moves.is_empty() {
            entry.push(("moves", Json::str(metric.moves)));
        }
        (metric.name.clone(), Json::obj(entry))
    }));
    let verdict = &outcome.verdict;
    let detail = Json::obj([
        ("workload", Json::str(workload.name)),
        ("trace", Json::Bool(trace)),
        ("provenance", provenance(seed)),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("failed_share", Json::Num(verdict.failed_share())),
        ("server_commands", Json::Num(verdict.server_commands as f64)),
        ("server_errors", Json::Num(verdict.server_errors as f64)),
        ("metrics", metrics),
        ("notes", Json::Obj(outcome.notes.clone())),
    ]);
    fs::write(
        detail_path(workload.name, seed, trace)?,
        detail.render_pretty(),
    )
}

/// The traced pass's spans, one JSON object per line.
pub fn write_trace(workload: &str, spans: &[Span]) -> io::Result<()> {
    let path = out_dir()?.join(format!("trace_{workload}.jsonl"));
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    for span in spans {
        let line = Json::obj([
            ("name", Json::str(span.name)),
            ("burst", Json::Num(span.burst as f64)),
            ("span", Json::Num(span.id as f64)),
            ("parent", Json::Num(span.parent as f64)),
            ("conn", Json::Num(span.conn as f64)),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
        ]);
        writeln!(file, "{}", line.render())?;
    }
    file.flush()
}

/// Run both passes of every workload, each in a process of its own (a
/// workload must not inherit its predecessor's heap, threads or peak
/// memory), and merge the detail files. `Ok(false)`: a run was wrong.
pub fn all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = crate::flag(args, "--seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed takes a whole number")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in &workload::WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("cannot start the {} run: {e}", workload.name))?;
            if !status.success() {
                return Err(format!("the {} run ended with {status}", workload.name));
            }
            let path = detail_path(workload.name, seed, trace).map_err(|e| e.to_string())?;
            let detail = fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|text| Json::parse(&text))?;
            all_correct &= detail.get("correct") == Some(&Json::Bool(true));
            passes.push(detail);
        }
        let pick = |detail: &Json, key: &str| detail.get(key).cloned().unwrap_or(Json::Null);
        let (plain, traced) = (&passes[0], &passes[1]);
        workloads.push((
            workload.name,
            Json::obj([
                ("why", Json::str(workload.why)),
                (
                    "correct",
                    Json::Bool(
                        [plain, traced]
                            .iter()
                            .all(|d| d.get("correct") == Some(&Json::Bool(true))),
                    ),
                ),
                ("attempted", pick(plain, "attempted")),
                ("failed", pick(plain, "failed")),
                ("failed_share", pick(plain, "failed_share")),
                ("end_to_end", pick(plain, "metrics")),
                ("end_to_end_notes", pick(plain, "notes")),
                ("per_layer", pick(traced, "metrics")),
                ("per_layer_notes", pick(traced, "notes")),
            ]),
        ));
    }
    let result = Json::obj([
        ("provenance", provenance(seed)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("result_{seed}.json"));
    fs::write(&path, result.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}; every output check {}",
        path.display(),
        if all_correct { "passed" } else { "FAILED" }
    );
    Ok(all_correct)
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, PartialEq)]
pub enum Judgement {
    Ok,
    Worse,
    /// A slice IQR is wider than the bound: the runs cannot tell a
    /// change of that size from their own noise.
    Unresolved,
}

/// `worsening` is positive when `b` is worse than `a`, as a share of
/// `a`'s median. What is allowed is the metric's bound as a share of
/// `a`'s median, or its floor if that is more.
pub fn judge(metric: &Metric, a: Spread, b: Spread) -> (f64, Judgement) {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let allowed = (bound * a.median).max(metric.floor);
    let change = b.median - a.median;
    let worse_by = if metric.better == "lower" {
        change
    } else {
        -change
    };
    let judgement = if a.iqr > allowed || b.iqr > allowed {
        Judgement::Unresolved
    } else if worse_by > allowed {
        Judgement::Worse
    } else {
        Judgement::Ok
    };
    (worse_by / a.median, judgement)
}

fn spread_in(result: &Json, workload: &str, metric: &str) -> Option<Spread> {
    let entry = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Spread {
        median: entry.get("value")?.as_f64()?,
        iqr: entry.get("iqr")?.as_f64()?,
    })
}

/// The median speed the box ran at over a workload's window (1.0 where
/// the file does not say).
fn box_speed_in(result: &Json, workload: &str) -> f64 {
    let slices = || {
        result
            .get("workloads")?
            .get(workload)?
            .get("end_to_end_notes")?
            .get("box_speed")?
            .as_arr()
    };
    let speeds: Vec<f64> = slices()
        .into_iter()
        .flatten()
        .filter_map(Json::as_f64)
        .collect();
    if speeds.is_empty() {
        1.0
    } else {
        Spread::of(&speeds).median
    }
}

/// Judge result file `b` against baseline `a`. `Ok(false)`: some
/// metric is worse or unresolved.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: dego-benchmark compare <a.json> <b.json>".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let provenance = |file: &Json, key: &str| file.get("provenance")?.get(key).cloned();
    for (label, file) in [("a", &a), ("b", &b)] {
        let head = provenance(file, "git_head");
        let head = head.as_ref().and_then(Json::as_str).unwrap_or("unknown");
        println!("{label}: commit {head}");
    }
    // Numbers measured to different plans do not compare.
    for key in [
        "window_s",
        "slices",
        "warmup_s",
        "setup_reps",
        "speed_reference_ns",
        "speed_sensitivity",
    ] {
        if provenance(&a, key) != provenance(&b, key) {
            return Err(format!("the files were measured with different {key}"));
        }
    }
    let mut clean = true;
    for workload in &workload::WORKLOADS {
        println!("{}", workload.name);
        // A run measured while the box was slower than the correction
        // for its speed was ever fitted on settles nothing about time.
        let crawled = [("a", &a), ("b", &b)]
            .into_iter()
            .find(|(_, file)| box_speed_in(file, workload.name) < speed::SLOWEST_FITTED);
        if let Some((label, file)) = crawled {
            println!(
                "  {label} was measured at box speed {:.2}, below {}: its timings are unresolved",
                box_speed_in(file, workload.name),
                speed::SLOWEST_FITTED
            );
        }
        for metric in metrics::end_to_end() {
            let (Some(sa), Some(sb)) = (
                spread_in(&a, workload.name, &metric.name),
                spread_in(&b, workload.name, &metric.name),
            ) else {
                return Err(format!(
                    "{} / {} is missing from a file",
                    workload.name, metric.name
                ));
            };
            let (worsening, mut judgement) = judge(&metric, sa, sb);
            if crawled.is_some() && metric.name != "rss_peak_mb" {
                judgement = Judgement::Unresolved;
            }
            clean &= judgement == Judgement::Ok;
            println!(
                "  {:<18} {:>14.4} -> {:>14.4} {:<11} worse by {:>+7.2}%  bound {:>4.1}%  iqr {:>5.2}% / {:>5.2}%  {}",
                metric.name,
                sa.median,
                sb.median,
                metric.unit,
                worsening * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                sa.iqr_share() * 100.0,
                sb.iqr_share() * 100.0,
                match judgement {
                    Judgement::Ok => "ok",
                    Judgement::Worse => "worse",
                    Judgement::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Verdict;

    fn outcome(table: Vec<Metric>) -> Outcome {
        Outcome {
            verdict: Verdict {
                attempted: 1000,
                failed: 0,
                rejections: 0,
                server_commands: 1000,
                server_errors: 0,
            },
            correct: true,
            values: table
                .into_iter()
                .enumerate()
                .map(|(i, m)| {
                    (
                        m,
                        Spread {
                            median: 1.5 + i as f64,
                            iqr: 0.25,
                        },
                    )
                })
                .collect(),
            notes: Vec::new(),
        }
    }

    /// The last output line has exactly the contract's shape, and names
    /// every metric of its table.
    #[test]
    fn result_line_carries_every_metric_and_nothing_else() {
        for table in [metrics::end_to_end(), metrics::per_layer()] {
            let names: Vec<String> = table.iter().map(|m| m.name.clone()).collect();
            let line = result_line(&outcome(table)).render();
            assert!(!line.contains('\n'));
            let parsed = Json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("attempted"), Some(&Json::Num(1000.0)));
            assert!(
                line.contains("\"attempted\": 1000,"),
                "whole numbers print whole"
            );
            let listed = parsed.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(
                listed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                names
            );
            for (_, entry) in listed {
                let keys: Vec<&str> = entry
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
    }

    #[test]
    fn judgements_follow_direction_bound_and_spread() {
        let metric = |better: &'static str| Metric {
            name: "m".to_string(),
            unit: "us",
            better,
            bound: Some(0.10),
            floor: 0.0,
            moves: "",
        };
        let at = |median: f64, iqr: f64| Spread { median, iqr };
        // Higher is better: 5% less is ok, 15% less is worse, more is fine.
        let up = metric("higher");
        assert_eq!(judge(&up, at(100.0, 1.0), at(95.0, 1.0)).1, Judgement::Ok);
        assert_eq!(
            judge(&up, at(100.0, 1.0), at(85.0, 1.0)).1,
            Judgement::Worse
        );
        assert_eq!(judge(&up, at(100.0, 1.0), at(150.0, 1.0)).1, Judgement::Ok);
        // Lower is better.
        let down = metric("lower");
        assert_eq!(
            judge(&down, at(100.0, 1.0), at(109.0, 1.0)).1,
            Judgement::Ok
        );
        assert_eq!(
            judge(&down, at(100.0, 1.0), at(111.0, 1.0)).1,
            Judgement::Worse
        );
        let (worsening, _) = judge(&down, at(100.0, 1.0), at(80.0, 1.0));
        assert!((worsening + 0.2).abs() < 1e-12);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(
            judge(&down, at(100.0, 11.0), at(50.0, 1.0)).1,
            Judgement::Unresolved
        );
        assert_eq!(
            judge(&down, at(100.0, 1.0), at(200.0, 30.0)).1,
            Judgement::Unresolved
        );
        // Below the floor nothing counts: 13 ms against 18 ms is
        // neither worse nor unresolved when 50 ms is the floor.
        let floored = Metric {
            floor: 0.05,
            ..metric("lower")
        };
        assert_eq!(
            judge(&floored, at(0.013, 0.004), at(0.018, 0.006)).1,
            Judgement::Ok
        );
        assert_eq!(
            judge(&floored, at(0.013, 0.004), at(0.070, 0.006)).1,
            Judgement::Worse
        );
        assert_eq!(
            judge(&floored, at(0.6, 0.01), at(0.65, 0.01)).1,
            Judgement::Ok
        );
        assert_eq!(
            judge(&floored, at(0.6, 0.01), at(0.67, 0.01)).1,
            Judgement::Worse
        );
    }
}
