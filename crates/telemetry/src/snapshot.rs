//! Versioned metrics snapshots: the queryable rollup of one run.
//!
//! A [`MetricsSnapshot`] is a flat bag of named counters, gauges, and
//! histogram summaries (count/sum/p50/p99) with a schema version —
//! the machine-readable sibling of the human report CSVs. The sim
//! builds one per run (`rescq_sim::metrics_snapshot`) and `sim run
//! --metrics-out` writes it. Sweep rows do not come from snapshots: the
//! harness builds them from the report (`JobMetrics::from_report`).
//!
//! Everything in a snapshot is **schedule-derived** (rounds, cycles,
//! counters) — wall-clock never enters, so a snapshot is a pure
//! function of config + seed and the `tracing_is_inert` property can
//! byte-compare snapshots taken with and without a recorder attached.
//!
//! The text exposition (`to_text`) is a stable `kind name value` line
//! format; `to_json` / `parse` round-trip through the crate's mini
//! JSON parser ([`crate::chrome::parse_json`]).

use crate::chrome::{parse_json, Json};
use std::fmt::Write as _;

/// Version stamp written into every snapshot; bump on any field
/// change so readers can refuse incompatible documents.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Quantile summary of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// 50th-percentile sample.
    pub p50: u64,
    /// 99th-percentile sample.
    pub p99: u64,
}

/// A versioned, ordered bag of named metrics describing one run.
///
/// Names use the `rescq_` prefix and snake_case; insertion order is
/// preserved and is the serialization order, so two snapshots built
/// the same way compare byte-for-byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone event counts (e.g. `rescq_preemptions`).
    pub counters: Vec<(String, u64)>,
    /// Point-in-time fractions/ratios (e.g. `rescq_idle_fraction`).
    pub gauges: Vec<(String, f64)>,
    /// Latency distributions summarized to count/sum/p50/p99.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.counters.push((name.to_owned(), value));
        self
    }

    /// Appends a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        self.gauges.push((name.to_owned(), value));
        self
    }

    /// Appends a histogram summary.
    pub fn histogram(&mut self, name: &str, summary: HistogramSummary) -> &mut Self {
        self.histograms.push((name.to_owned(), summary));
        self
    }

    /// Looks up a counter by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the stable text exposition: one `kind name value` line
    /// per metric (histograms as `count=.. sum=.. p50=.. p99=..`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# rescq metrics snapshot v{METRICS_SCHEMA_VERSION}");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v:.6}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} p50={} p99={}",
                h.count, h.sum, h.p50, h.p99
            );
        }
        out
    }

    /// Renders the snapshot as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema_version\": {METRICS_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"counters\": {{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {v}{comma}");
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"gauges\": {{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {v:.6}{comma}");
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"histograms\": {{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}{comma}",
                h.count, h.sum, h.p50, h.p99
            );
        }
        let _ = writeln!(out, "  }}");
        out.push_str("}\n");
        out
    }

    /// Parses a document written by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on syntax errors, a missing or mismatched
    /// schema version, or malformed metric values.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing `schema_version`")? as u32;
        if version != METRICS_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema v{version} but this build reads v{METRICS_SCHEMA_VERSION}"
            ));
        }
        let section = |key: &str| -> Result<Vec<(String, Json)>, String> {
            match doc.get(key) {
                Some(Json::Obj(pairs)) => Ok(pairs.clone()),
                _ => Err(format!("missing `{key}` object")),
            }
        };
        let mut snap = MetricsSnapshot::new();
        for (name, v) in section("counters")? {
            let v = v.as_num().ok_or_else(|| format!("counter `{name}`"))?;
            snap.counters.push((name, v as u64));
        }
        for (name, v) in section("gauges")? {
            let v = v.as_num().ok_or_else(|| format!("gauge `{name}`"))?;
            snap.gauges.push((name, v));
        }
        for (name, h) in section("histograms")? {
            let field = |key: &str| {
                h.get(key)
                    .and_then(Json::as_num)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("histogram `{name}`: missing `{key}`"))
            };
            let summary = HistogramSummary {
                count: field("count")?,
                sum: field("sum")?,
                p50: field("p50")?,
                p99: field("p99")?,
            };
            snap.histograms.push((name, summary));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counter("rescq_gates_executed", 42)
            .counter("rescq_preemptions", 3)
            .gauge("rescq_idle_fraction", 0.25)
            .histogram(
                "rescq_cnot_latency_cycles",
                HistogramSummary {
                    count: 10,
                    sum: 120,
                    p50: 11,
                    p99: 30,
                },
            );
        s
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = sample();
        let parsed = MetricsSnapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.get_counter("rescq_preemptions"), Some(3));
        // Serialization is deterministic.
        assert_eq!(s.to_json(), parsed.to_json());
    }

    #[test]
    fn text_exposition_is_line_per_metric() {
        let text = sample().to_text();
        assert!(text.starts_with("# rescq metrics snapshot v1\n"));
        assert!(text.contains("counter rescq_gates_executed 42\n"));
        assert!(text.contains("gauge rescq_idle_fraction 0.250000\n"));
        assert!(
            text.contains("histogram rescq_cnot_latency_cycles count=10 sum=120 p50=11 p99=30\n")
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let err = MetricsSnapshot::parse("{\"schema_version\": 9}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(MetricsSnapshot::parse("nope").is_err());
    }
}
