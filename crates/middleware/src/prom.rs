//! The two surfaces a metric is rendered on, and the one description
//! both are derived from.
//!
//! A [`Row`] declares an unlabelled counter or gauge once. A
//! [`Surface`] is either the `name=value` lines of a `STATS` reply or a
//! Prometheus text exposition (version 0.0.4; no timestamps — the
//! scraper assigns them). Rendering a row, a labelled family of rows or
//! a family of histograms is one call whichever surface it is, so the
//! two cannot name a metric differently: the `STATS` name is the source
//! of truth and the Prometheus family name is [`Row::family`] of it.

use crate::metrics::LatencyHistogram;
use std::fmt::Write as _;

/// Whether a metric only grows or moves both ways — its `# TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic between resets.
    Counter,
    /// A level.
    Gauge,
}

/// One declared counter or gauge — everything any surface needs to
/// know about it.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The `STATS` name. For a labelled family, a pattern whose `{}`
    /// is the member's label (`shard{}_queue_depth`).
    pub stat: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Whether `STATS RESET` zeroes it.
    pub resets: bool,
    /// The one help string — the field's rustdoc and the `# HELP`
    /// line — as written: trim a doc comment's leading space.
    pub help: &'static str,
}

impl Row {
    /// A gauge declared by hand rather than by [`crate::declare_metrics!`].
    pub const fn gauge(stat: &'static str, help: &'static str) -> Row {
        Row {
            stat,
            kind: Kind::Gauge,
            resets: false,
            help,
        }
    }

    /// The Prometheus family name, derived by the one rule: `dego_` +
    /// the `STATS` name (less a labelled family's `{}` slot), with
    /// `_total` appended to counters that do not already end in it.
    pub fn family(&self) -> String {
        let stem = self.stat.replace("{}", "").replace("__", "_");
        match self.kind {
            Kind::Counter if !stem.ends_with("_total") => format!("dego_{stem}_total"),
            _ => format!("dego_{stem}"),
        }
    }
}

/// The percentiles a histogram family shows on `STATS`: the name that
/// fills a pattern's `{p}`, and the rank.
pub type Quantiles = &'static [(&'static str, f64)];

/// `p50` and `p99`, the usual pair.
pub const P50_P99: Quantiles = &[("p50", 0.50), ("p99", 0.99)];

/// A family of histograms, described once for both surfaces.
#[derive(Clone, Copy, Debug)]
pub struct Histograms<'a> {
    /// The `STATS` percentile line's name: `{l}` is the member's label,
    /// `{p}` the percentile.
    pub stat: &'a str,
    /// Which percentiles `STATS` shows.
    pub quantiles: Quantiles,
    /// The Prometheus histogram family (cumulative, per the exposition
    /// contract).
    pub family: &'a str,
    /// The label key, or `""` for a family of one unlabelled member.
    pub key: &'a str,
    /// The `# HELP` text.
    pub help: &'a str,
}

/// Where metrics are being rendered to.
#[derive(Debug)]
pub enum Surface<'a> {
    /// The `name=value` lines of a `STATS` or `STATS SHARDS` reply.
    Stats(&'a mut Vec<String>),
    /// A `/metrics` response body. Nothing here stops a family being
    /// rendered twice: the declarations' unit test and the literal
    /// family set in `tests/integration_observability.rs` do.
    Prom(&'a mut String),
}

impl Surface<'_> {
    /// One unlabelled row.
    pub fn scalar(&mut self, row: &Row, value: u64) {
        self.labelled(row, "", &[("", value)]);
    }

    /// A plane's unlabelled rows, paired with their readings.
    pub fn rows(&mut self, rows: &[Row], values: &[u64]) {
        debug_assert_eq!(rows.len(), values.len(), "one reading per row");
        for (row, value) in rows.iter().zip(values) {
            self.scalar(row, *value);
        }
    }

    /// A labelled family of one row: a `STATS` line per member, named
    /// by filling the pattern's `{}` with the member's label; one
    /// Prometheus family with a `key="label"` sample per member.
    pub fn labelled(&mut self, row: &Row, key: &str, members: &[(&str, u64)]) {
        match self {
            Surface::Stats(lines) => lines.extend(
                members
                    .iter()
                    .map(|(label, value)| format!("{}={value}", row.stat.replace("{}", label))),
            ),
            Surface::Prom(text) => family(text, &row.family(), row.help, row.kind, key, members),
        }
    }

    /// A family of histograms: lifetime percentile lines on `STATS`,
    /// cumulative buckets on `/metrics`.
    pub fn histograms(&mut self, family: &Histograms<'_>, members: &[(&str, &LatencyHistogram)]) {
        match self {
            Surface::Stats(lines) => {
                for (label, hist) in members {
                    for (p, rank) in family.quantiles {
                        let name = family.stat.replace("{l}", label).replace("{p}", p);
                        lines.push(format!("{name}={}", hist.percentile_us(*rank)));
                    }
                }
            }
            Surface::Prom(text) => {
                header(text, family.family, family.help, "histogram");
                for (label, hist) in members {
                    histogram(text, family.family, family.key, label, hist);
                }
            }
        }
    }
}

/// Escape a label value for the text exposition format.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", help.trim());
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One sample; `key` `""` means unlabelled, `le` is a histogram
/// bucket's bound.
fn sample(out: &mut String, name: &str, key: &str, label: &str, le: Option<&str>, value: u64) {
    out.push_str(name);
    let label = (!key.is_empty()).then(|| format!("{key}=\"{}\"", escape_label_value(label)));
    let le = le.map(|le| format!("le=\"{le}\""));
    let labels: Vec<String> = label.into_iter().chain(le).collect();
    if !labels.is_empty() {
        let _ = write!(out, "{{{}}}", labels.join(","));
    }
    let _ = writeln!(out, " {value}");
}

/// Append a counter or gauge family to an exposition: one
/// `key="label"` sample per member, or one unlabelled sample when
/// `key` is `""`.
pub fn family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: Kind,
    key: &str,
    members: &[(&str, u64)],
) {
    let kind = match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
    };
    header(out, name, help, kind);
    for (label, value) in members {
        sample(out, name, key, label, None, *value);
    }
}

/// One member of a histogram family: its cumulative `_bucket` series,
/// `_sum` and `_count`.
fn histogram(out: &mut String, name: &str, key: &str, label: &str, hist: &LatencyHistogram) {
    let bucket = format!("{name}_bucket");
    let mut total = 0;
    for (le, cumulative) in hist.cumulative_buckets() {
        let le = le.map_or("+Inf".to_string(), |bound| bound.to_string());
        sample(out, &bucket, key, label, Some(&le), cumulative);
        total = cumulative;
    }
    sample(out, &format!("{name}_sum"), key, label, None, hist.sum_us());
    sample(out, &format!("{name}_count"), key, label, None, total);
}

#[cfg(test)]
mod tests {
    use super::*;

    const HITS: Row = Row {
        stat: "get_hits",
        kind: Kind::Counter,
        resets: true,
        help: " GETs that found the key.",
    };
    const DEPTH: Row = Row::gauge("shard{}_queue_depth", "Queued.");

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let (mut text, mut lines) = (String::new(), Vec::new());
        for mut out in [Surface::Prom(&mut text), Surface::Stats(&mut lines)] {
            out.scalar(&HITS, 42);
            out.labelled(&DEPTH, "shard", &[("0", 7), ("1", 5)]);
        }
        assert_eq!(
            lines,
            [
                "get_hits=42",
                "shard0_queue_depth=7",
                "shard1_queue_depth=5"
            ]
        );
        assert!(text.contains("# HELP dego_get_hits_total GETs that found the key.\n"));
        assert!(text.contains("# TYPE dego_get_hits_total counter\n"));
        assert!(text.contains("dego_get_hits_total 42\n"));
        assert!(text.contains("# TYPE dego_shard_queue_depth gauge\n"));
        assert!(text.contains("dego_shard_queue_depth{shard=\"0\"} 7\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("a\nb"), r#"a\nb"#);
        let mut text = String::new();
        let members = [("he said \"hi\"\n", 1)];
        family(
            &mut text,
            "dego_widget",
            "Widget.",
            Kind::Gauge,
            "name",
            &members,
        );
        assert!(text.contains(r#"dego_widget{name="he said \"hi\"\n"} 1"#));
    }

    #[test]
    fn histogram_emits_cumulative_buckets_sum_and_count() {
        let hist = LatencyHistogram::new();
        for us in [0, 3, 3, 100] {
            hist.record(us);
        }
        let family = Histograms {
            stat: "lat_{p}_us",
            quantiles: P50_P99,
            family: "dego_lat_us",
            key: "",
            help: "Latency.",
        };
        let mut text = String::new();
        Surface::Prom(&mut text).histograms(&family, &[("", &hist)]);
        assert!(text.contains("# TYPE dego_lat_us histogram\n"));
        assert!(text.contains("dego_lat_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("dego_lat_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("dego_lat_us_bucket{le=\"127\"} 4\n"));
        assert!(text.contains("dego_lat_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("dego_lat_us_sum 106\n"));
        assert!(text.contains("dego_lat_us_count 4\n"));
        let mut lines = Vec::new();
        Surface::Stats(&mut lines).histograms(&family, &[("", &hist)]);
        assert_eq!(lines, ["lat_p50_us=4", "lat_p99_us=128"]);
    }
}
