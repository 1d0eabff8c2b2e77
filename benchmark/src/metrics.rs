//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) bound. `BENCHMARK.json` carries the same
//! tables for the driver; a self-test holds the two together.

use crate::stats::Spread;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression; per-layer metrics have
    /// no bound.
    pub bound: Option<f64>,
    /// In the metric's own unit: a worsening smaller than this is not a
    /// regression whatever share of the baseline it is. `compare`
    /// applies it; `BENCHMARK.json` has no place for it.
    pub floor: f64,
    /// Per-layer metrics: the end-to-end metric and workload a change
    /// in this one should move ("none" for a count or a check).
    pub moves: &'static str,
}

fn metric(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
        floor: 0.0,
        moves: "",
    }
}

/// What a run measured, by metric name.
#[derive(Default)]
pub struct Values(Vec<(String, Spread)>);

impl Values {
    /// A single measurement.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_spread(name, Spread::point(value));
    }

    /// A median of slices (or repeats) with their spread.
    pub fn put_spread(&mut self, name: &str, value: Spread) {
        self.0.push((name.to_string(), value));
    }

    pub fn append(&mut self, mut other: Values) {
        self.0.append(&mut other.0);
    }

    /// The value measured for `name`. A metric nobody measured is a
    /// bug in this program, not a result.
    pub fn get(&self, name: &str) -> Spread {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1
    }

    /// Pair every metric of `table` with its measured value.
    pub fn fill(&self, table: Vec<Metric>) -> Vec<(Metric, Spread)> {
        table
            .into_iter()
            .map(|metric| {
                let value = self.get(&metric.name);
                (metric, value)
            })
            .collect()
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// What a client of the server sees, per workload, tracing off. Every
/// timing is stated at the box's reference speed (see `speed`).
///
/// The bounds are what the box can resolve, not what the issue wished
/// for. It asked for 5-10% and for no bound past 10%; the driver that
/// accepts the benchmark refuses a bound that ten runs of one commit
/// spread past, asks for three times the spread seen, and allows at
/// most 25%. At 10% throughout it refused this benchmark: `kv_write_bare`
/// spread its p99 by 9.5% and 11.8% in the driver's two sets. Corrected
/// for the box's speed, ten runs with ten seeds spread by 1-5% of their
/// median while the box keeps to one level of speed, and by up to 9%
/// (p99 on `kv_write_bare`; 7% for throughput, 11% for `setup_s`, both
/// on `retwis_mix_full`) in sets made while it went from its best to 0.6
/// of it and back: every timing has the widest bound the driver allows.
/// Resident memory spreads by 1-8% and has 15%. `setup_s` also has the
/// issue's floor of 0.05 s: a 14 ms set-up that takes 3 ms longer is not
/// a regression of anything.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        Metric {
            floor: 0.05,
            ..metric("setup_s", "s", LOWER, Some(0.25))
        },
        metric("throughput_ops_s", "commands/s", HIGHER, Some(0.25)),
        metric("latency_p50_us", "us", LOWER, Some(0.25)),
        metric("latency_p99_us", "us", LOWER, Some(0.25)),
        metric("cpu_us_per_op", "us/command", LOWER, Some(0.25)),
        metric("rss_peak_mb", "MiB", LOWER, Some(0.15)),
    ]
}

/// The layer names of `dego_middleware::LayerKind::name`, outermost
/// first. Spelled out so a renamed layer fails a self-test instead of
/// silently renaming a metric.
pub const MIDDLEWARE_LAYERS: [&str; 7] = [
    "trace",
    "breaker",
    "deadline",
    "auth",
    "ratelimit",
    "shed",
    "ttl",
];

/// One layer at a time, from the traced pass. Layers are the repo's
/// modules. Each metric names the end-to-end metric and workload it
/// should move (the README's interaction table, row by row).
pub fn per_layer() -> Vec<Metric> {
    const NONE_COUNT: &str = "none: a count the output check holds against what was sent";
    const NONE_INPUT: &str = "none: describes the work, not the server";
    const NONE_HARNESS: &str = "none: the harness itself";
    const BURSTS: &str = "throughput_ops_s, cpu_us_per_op on kv_read_full, retwis_mix_full";
    const SINGLES: &str = "cpu_us_per_op on kv_depth1_full";
    const WRITES: &str = "throughput_ops_s on kv_write_bare, retwis_mix_full";
    const RETWIS: &str = "throughput_ops_s on retwis_mix_full";
    let m = |name: &str, unit, better, moves| Metric {
        moves,
        ..metric(name, unit, better, None)
    };
    let mut out = vec![
        // crates/server: the connection plane.
        m(
            "server.ping_rtt_p50_us",
            "us",
            LOWER,
            "latency_p50_us on kv_depth1_full, about 1:1",
        ),
        m(
            "server.ping_rtt_p99_us",
            "us",
            LOWER,
            "latency_p99_us on kv_depth1_full",
        ),
        m(
            "server.ping_ns_per_cmd_d16",
            "ns/command",
            LOWER,
            "throughput_ops_s, cpu_us_per_op on kv_read_full, kv_write_bare",
        ),
        m(
            "server.connect_us_p50",
            "us",
            LOWER,
            "setup_s on every workload",
        ),
        m(
            "server.first_byte_us_p50",
            "us",
            LOWER,
            "latency_p50_us on the same workload",
        ),
        m("server.reply_bytes_per_op", "B/command", LOWER, RETWIS),
        m("server.commands", "count", HIGHER, NONE_COUNT),
        m("server.errors", "count", LOWER, NONE_COUNT),
        // dego_middleware::protocol.
        m(
            "protocol.parse_ns_per_line",
            "ns",
            LOWER,
            "throughput_ops_s on kv_read_full",
        ),
        m(
            "protocol.render_ns_per_reply",
            "ns",
            LOWER,
            "throughput_ops_s on kv_read_full, retwis_mix_full",
        ),
        m("protocol.line_bytes_mean", "B", LOWER, NONE_INPUT),
        // dego_middleware: the stack.
        m(
            "middleware.stack_ns_per_cmd_b1",
            "ns/command",
            LOWER,
            SINGLES,
        ),
        m(
            "middleware.stack_ns_per_cmd_b16",
            "ns/command",
            LOWER,
            BURSTS,
        ),
    ];
    for layer in MIDDLEWARE_LAYERS {
        for (batch, moves) in [("b1", SINGLES), ("b16", BURSTS)] {
            out.push(m(
                &format!("middleware.{layer}_ns_per_cmd_{batch}"),
                "ns/command",
                LOWER,
                moves,
            ));
        }
    }
    out.extend([
        m("middleware.rejections", "count", LOWER, NONE_COUNT),
        m(
            "middleware.tcp_delta_cpu_us_per_op",
            "us/command",
            LOWER,
            "cpu_us_per_op on the same workload",
        ),
        m(
            "middleware.recording_delta_cpu_us_per_op",
            "us/command",
            LOWER,
            "throughput_ops_s on kv_read_full; latency_p99_us on kv_depth1_full",
        ),
        // crates/server/src/store.rs, through the server.
        m("store.applied", "count", HIGHER, NONE_COUNT),
        m("store.shard_batches", "count", LOWER, NONE_COUNT),
        m("store.cmds_per_drain", "ratio", HIGHER, WRITES),
        m("store.get_hit_share", "ratio", HIGHER, NONE_COUNT),
        m(
            "store.get_minus_ping_rtt_us",
            "us",
            LOWER,
            "latency_p50_us on kv_depth1_full",
        ),
        m(
            "store.set_minus_get_rtt_us",
            "us",
            LOWER,
            "latency_p50_us on kv_depth1_full, by about half of it",
        ),
        m(
            "store.write_extra_ns_per_cmd_d16",
            "ns/command",
            LOWER,
            WRITES,
        ),
        // dego_core: the adjusted objects.
        m(
            "core.segmap_get_ns",
            "ns",
            LOWER,
            "throughput_ops_s on kv_read_full",
        ),
        m(
            "core.segmap_put_ns",
            "ns",
            LOWER,
            "throughput_ops_s on kv_write_bare",
        ),
        m(
            "core.mpsc_offer_poll_ns",
            "ns",
            LOWER,
            "throughput_ops_s on kv_write_bare",
        ),
        m(
            "core.counter_inc_ns",
            "ns",
            LOWER,
            "throughput_ops_s on kv_read_full, kv_write_bare",
        ),
        // The social verbs.
        m("retwis.timeline_rtt_p50_us", "us", LOWER, RETWIS),
        m("retwis.post_rtt_p50_us", "us", LOWER, RETWIS),
        m("retwis.timeline_len_mean", "count", HIGHER, NONE_INPUT),
        m("retwis.fanout_mean", "count", HIGHER, NONE_INPUT),
        // The harness itself.
        m("bench.failed_share", "ratio", LOWER, NONE_COUNT),
        m("bench.box_speed", "ratio", HIGHER, NONE_HARNESS),
        m("bench.slice_iqr_pct", "%", LOWER, NONE_HARNESS),
        m("bench.trace_overhead_pct", "%", LOWER, NONE_HARNESS),
        m("bench.stages_sum_over_e2e", "ratio", HIGHER, NONE_HARNESS),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;
    use dego_middleware::LayerKind;

    fn legal_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn legal_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(legal_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in &all {
            assert!(legal_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(per_layer().len() <= 128);
        assert!(per_layer().iter().all(|m| !m.moves.is_empty()));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn layer_names_follow_the_middleware_crate() {
        let theirs: Vec<&str> = LayerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(theirs, MIDDLEWARE_LAYERS);
    }

    /// The README's table of end-to-end metrics gives each its unit's
    /// direction and bound as this table does.
    #[test]
    fn readme_gives_the_same_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        for m in end_to_end() {
            let row = readme
                .lines()
                .find(|l| l.starts_with(&format!("| `{}` | ", m.name)) && l.contains(m.better))
                .unwrap_or_else(|| panic!("no README row for {}", m.name));
            let bound = format!("| {} | {:.0}%", m.better, m.bound.unwrap() * 100.0);
            assert!(row.contains(&bound), "{}: {row}", m.name);
        }
        for w in WORKLOADS.iter() {
            assert!(readme.contains(&format!("| `{}` | closed loop, ", w.name)));
        }
    }

    /// `BENCHMARK.json` must list exactly what the code prints: every
    /// workload, every metric, the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);

        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            // What `BENCHMARK.json` can say of a metric.
            type Listed = (String, String, String, Option<f64>);
            let listed: Vec<Listed> = json
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        field(m, "name").unwrap(),
                        field(m, "unit").unwrap(),
                        field(m, "better").unwrap(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect();
            let ours: Vec<Listed> = table
                .into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.to_string(), m.bound))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let seconds = json.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(seconds, crate::run::WINDOW_SECS);
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
