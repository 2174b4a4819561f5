//! Deterministic aggregation of sweep results: per-job rows, per-point
//! summary statistics, and CSV/JSON writers.
//!
//! Rows are always emitted in job-index order — the executor stores results
//! by index, so output is byte-identical no matter how many workers ran the
//! sweep. Floats are formatted with Rust's shortest-round-trip `Display`,
//! so a checkpointed row parses back to exactly the value that was written.

use crate::cache::CacheStats;
use crate::spec::{fmt_k, fmt_priority, JobSpec, SweepSpec};
use rescq_sim::ExecutionReport;
use std::fmt::Write as _;

/// Declares every column of a sweep row once and derives everything that
/// lists the columns from that declaration: [`JobMetrics`] and its
/// `from_report`, [`CSV_HEADER`], [`COLUMNS`], [`csv_row`],
/// [`parse_csv_metrics`] and the per-point aggregates of
/// [`PointSummary`] (in [`SweepResults::summaries`] and
/// [`SweepResults::to_json`]).
///
/// `grid` columns are formatted from the [`JobSpec`]; `metrics` columns
/// are typed [`JobMetrics`] fields extracted from an [`ExecutionReport`].
/// A metric row may name a per-point aggregation after its extractor:
/// `sum`, `max` or `mean` (the latter is an `f64` field); rows without one
/// are kept per job only.
macro_rules! sweep_columns {
    (
        grid |$job:ident| {
            $( $(#[doc = $gdoc:literal])+ $gname:ident = $gget:expr; )+
        }
        metrics |$r:ident| {
            $( $(#[doc = $mdoc:literal])+ $mname:ident: $mty:ident = $mget:expr $(, $agg:ident)?; )+
        }
    ) => {
        /// The scalar metrics of one completed job (one seeded run): one
        /// typed field per metric column of [`CSV_HEADER`].
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct JobMetrics {
            $( $(#[doc = $mdoc])+ pub $mname: $mty, )+
        }

        impl JobMetrics {
            /// Extracts the metrics a sweep keeps from a full report.
            pub fn from_report($r: &ExecutionReport) -> Self {
                JobMetrics { $( $mname: $mget, )+ }
            }
        }

        /// Every column of a per-job row as `(name, doc)`, in row order:
        /// the grid columns, then the [`JobMetrics`] columns.
        pub const COLUMNS: &[(&str, &str)] = &[
            $( (stringify!($gname), concat!($($gdoc),+).trim_ascii_start()), )+
            $( (stringify!($mname), concat!($($mdoc),+).trim_ascii_start()), )+
        ];

        /// Number of leading grid columns in a row.
        const GRID_COLUMNS: usize = [$(stringify!($gname)),+].len();

        /// The CSV column header of per-job rows ([`COLUMNS`] joined by
        /// commas). Every column is sim-time derived, so rows are
        /// byte-identical whether or not a run was traced.
        pub const CSV_HEADER: &str = {
            let names = concat!($(stringify!($gname), ",",)+ $(stringify!($mname), ",",)+);
            names.split_at(names.len() - 1).0
        };

        /// Formats one job + metrics as a CSV row (no trailing newline).
        pub fn csv_row($job: &JobSpec, m: &JobMetrics) -> String {
            let mut row = String::new();
            $( let _ = write!(row, "{},", $gget); )+
            $( let _ = write!(row, "{},", m.$mname); )+
            row.pop();
            row
        }

        /// Parses the metric columns of a [`csv_row`] back into
        /// [`JobMetrics`] (used by checkpoint resume; the job columns are
        /// identified by fingerprint, not re-parsed). A row of any other
        /// width — a checkpoint written before a schema change — is an
        /// error, so the checkpoint loader skips it and the job re-runs.
        pub fn parse_csv_metrics(row: &str) -> Result<JobMetrics, String> {
            let cols: Vec<&str> = row.split(',').collect();
            if cols.len() != COLUMNS.len() {
                return Err(format!(
                    "expected {} columns, got {}",
                    COLUMNS.len(),
                    cols.len()
                ));
            }
            let mut metric = cols.iter().enumerate().skip(GRID_COLUMNS);
            Ok(JobMetrics { $( $mname: parse_column(metric.next())?, )+ })
        }

        /// Aggregate statistics of one sweep point across its seeds.
        #[derive(Debug, Clone)]
        pub struct PointSummary {
            /// Index of the point in expansion order.
            pub point: usize,
            /// The point's first job (carries every grid coordinate).
            pub job: JobSpec,
            /// Seeds that completed successfully.
            pub completed: u64,
            /// Mean makespan in cycles.
            pub mean_cycles: f64,
            /// Median makespan.
            pub p50_cycles: f64,
            /// 99th-percentile makespan.
            pub p99_cycles: f64,
            /// Minimum makespan.
            pub min_cycles: f64,
            /// Maximum makespan.
            pub max_cycles: f64,
            /// Mean decoder stall cycles.
            pub mean_stall_cycles: f64,
            /// Mean stall fraction of the makespan (`stall / total`, averaged).
            pub stall_fraction: f64,
            $( $(
                #[doc = concat!(
                    "Per-point `", stringify!($agg), "` of [`JobMetrics::", stringify!($mname), "`]."
                )]
                pub $mname: aggregate!(@ty $agg $mty),
            )? )+
        }

        impl PointSummary {
            /// Aggregates the successful runs `ok` of one point.
            fn new(point: usize, job: JobSpec, ok: &[&JobMetrics]) -> Self {
                let mut cycles: Vec<f64> = ok.iter().map(|m| m.total_cycles).collect();
                cycles.sort_by(f64::total_cmp);
                let n = ok.len().max(1) as f64;
                let stall_fraction = ok
                    .iter()
                    .map(|m| {
                        if m.total_cycles > 0.0 {
                            m.stall_cycles / m.total_cycles
                        } else {
                            0.0
                        }
                    })
                    .sum::<f64>()
                    / n;
                PointSummary {
                    point,
                    job,
                    completed: ok.len() as u64,
                    mean_cycles: ok.iter().map(|m| m.total_cycles).sum::<f64>() / n,
                    p50_cycles: percentile(&cycles, 0.5),
                    p99_cycles: percentile(&cycles, 0.99),
                    min_cycles: cycles.first().copied().unwrap_or(0.0),
                    max_cycles: cycles.last().copied().unwrap_or(0.0),
                    mean_stall_cycles: ok.iter().map(|m| m.stall_cycles).sum::<f64>() / n,
                    stall_fraction,
                    $( $( $mname: aggregate!($agg, ok, $mname, n), )? )+
                }
            }

            /// Appends `, "name": value` for every aggregated column.
            fn write_aggregates_json(&self, out: &mut String) {
                $( $( let _ = write!(
                    out,
                    concat!(", \"", stringify!($mname), "\": {}"),
                    aggregate!(@value $agg self.$mname)
                ); )? )+
            }
        }
    };
}

/// The per-point aggregations a [`sweep_columns!`] metric row can name:
/// the field type, and the value over a point's successful runs `ok`.
macro_rules! aggregate {
    (@ty mean $ty:ident) => {
        f64
    };
    (@ty $agg:ident $ty:ident) => {
        $ty
    };
    // Passes the value through; naming `$agg` lets an optional row repeat.
    (@value $agg:ident $e:expr) => {
        $e
    };
    (sum, $ok:ident, $f:ident, $n:ident) => {
        $ok.iter().map(|m| m.$f).sum()
    };
    (max, $ok:ident, $f:ident, $n:ident) => {
        $ok.iter().map(|m| m.$f).max().unwrap_or_default()
    };
    (mean, $ok:ident, $f:ident, $n:ident) => {
        $ok.iter().map(|m| m.$f as f64).sum::<f64>() / $n
    };
}

sweep_columns! {
    grid |job| {
        /// Benchmark name: a Table 3 name, a synthetic family, or `file:<path>`.
        workload = job.workload;
        /// Scheduler: `rescq`, `greedy` or `autobraid`.
        scheduler = job.config.scheduler;
        /// Code distance.
        distance = job.config.distance;
        /// Physical error rate.
        error_rate = job.config.physical_error_rate;
        /// MST period `k`: an integer or `dynamic`.
        k = fmt_k(job.config.k_policy);
        /// Requested grid compression fraction.
        compression = job.config.compression;
        /// Decoder point: `ideal` or `union_find:TP`.
        decoder = job.decoder;
        /// Priority-class lattice the ledger arbitrated with (`off` = class-blind).
        priority = fmt_priority(&job.config.priority_classes);
    }
    metrics |r| {
        /// The run seed.
        seed: u64 = r.seed;
        /// Makespan in lattice-surgery cycles.
        total_cycles: f64 = r.total_cycles();
        /// Data-qubit idle fraction.
        idle_fraction: f64 = r.idle_fraction();
        /// Cycles feed-forward decisions stalled on the decoder.
        stall_cycles: f64 = r.decoder_stall_cycles();
        /// Syndrome windows submitted to the decoder.
        decode_windows: u64 = r.counters.decode_windows;
        /// Largest decode backlog observed.
        peak_backlog: u64 = r.counters.decoder_peak_backlog, max;
        /// Injection attempts.
        injections: u64 = r.counters.injections;
        /// Injection failures.
        injection_failures: u64 = r.counters.injection_failures;
        /// Preparations started.
        preps_started: u64 = r.counters.preps_started;
        /// Preparations cancelled.
        preps_cancelled: u64 = r.counters.preps_cancelled;
        /// Ledger preemptions applied (constrained-fabric RESCQ).
        preemptions: u64 = r.counters.preemptions, sum;
        /// Preemptions the ledger rejected to keep the wait-for graph acyclic.
        preemptions_rejected: u64 = r.counters.preemptions_rejected_cycle, sum;
        /// Peak distinct edges in the task wait-for graph.
        waitgraph_peak_edges: u64 = r.counters.waitgraph_peak_edges, max;
        /// Preemptions granted by the priority-class lattice (0 in class-blind runs).
        preemptions_class: u64 = r.counters.preemptions_class, sum;
        /// Task-cycles stalled on ancilla contention (no free route tiles).
        stall_ancilla: u64 = r.counters.stall_ancilla_cycles, sum;
        /// Task-cycles stalled on decoder backlog (feed-forward gated).
        stall_decoder: u64 = r.counters.stall_decoder_cycles, sum;
        /// Task-cycles stalled on a blocked CNOT route.
        stall_route: u64 = r.counters.stall_route_cycles, sum;
        /// Task-cycles stalled after displacement by a higher priority class.
        stall_class: u64 = r.counters.stall_class_cycles, sum;
        /// Median CNOT completion latency in cycles.
        cnot_p50: u64 = r.cnot_latency.percentile(0.5), mean;
        /// 99th-percentile CNOT completion latency in cycles.
        cnot_p99: u64 = r.cnot_latency.percentile(0.99), max;
        /// 99th-percentile decode-window latency in cycles.
        decode_p99: u64 = r.decode_latency.percentile(0.99), max;
        /// Defects the union-find decoder observed (0 under the ideal decoder).
        decode_defects: u64 = r.counters.decode_defects, sum;
        /// Union-find cluster-growth half-steps performed.
        decode_growth_steps: u64 = r.counters.decode_growth_steps, sum;
        /// Windows whose residual error crossed the logical cut.
        decode_failures: u64 = r.counters.decode_failures, sum;
    }
}

/// Parses one `(index, text)` column of a row.
fn parse_column<T: std::str::FromStr>(col: Option<(usize, &&str)>) -> Result<T, String> {
    let (i, text) = col.ok_or("row ended early")?;
    text.parse()
        .map_err(|_| format!("bad value `{text}` in column {i}"))
}

/// One job with its outcome (metrics, or the error that stopped it).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job that ran.
    pub job: JobSpec,
    /// Metrics on success, error text on failure.
    pub outcome: Result<JobMetrics, String>,
    /// Whether the result was restored from a checkpoint instead of run.
    pub resumed: bool,
}

/// Smallest value `v` in sorted `xs` such that at least `p` of samples ≤ `v`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Everything a sweep run produced, in deterministic order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// One record per job, sorted by job index.
    pub records: Vec<JobRecord>,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Wall-clock seconds the execution took.
    pub elapsed_secs: f64,
}

impl SweepResults {
    /// The first job error, if any job failed.
    pub fn first_error(&self) -> Option<&str> {
        self.records
            .iter()
            .find_map(|r| r.outcome.as_ref().err().map(String::as_str))
    }

    /// Number of records restored from a checkpoint.
    pub fn resumed_count(&self) -> usize {
        self.records.iter().filter(|r| r.resumed).count()
    }

    /// Successful `(job, metrics)` pairs in job order.
    pub fn ok_rows(&self) -> impl Iterator<Item = (&JobSpec, &JobMetrics)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|m| (&r.job, m)))
    }

    /// The per-job CSV document (header + one row per successful job, in
    /// job order; failed jobs are omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for (job, m) in self.ok_rows() {
            out.push_str(&csv_row(job, m));
            out.push('\n');
        }
        out
    }

    /// Per-point aggregate statistics, in point order. Records are grouped
    /// by their job's point index (not fixed-size chunks), so sharded
    /// result sets — where a point may hold fewer than `seeds` records —
    /// aggregate correctly too.
    pub fn summaries(&self) -> Vec<PointSummary> {
        self.records
            .chunk_by(|a, b| a.job.point == b.job.point)
            .map(|chunk| {
                let ok: Vec<&JobMetrics> = chunk
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .collect();
                PointSummary::new(chunk[0].job.point, chunk[0].job.clone(), &ok)
            })
            .collect()
    }

    /// The whole result set as a JSON document: cache stats, per-point
    /// summaries and per-job rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"points\": {}, \"jobs\": {}, \"elapsed_secs\": {},",
            self.spec.num_points(),
            self.records.len(),
            self.elapsed_secs
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{\"circuit_builds\": {}, \"circuit_hits\": {}, \"layout_builds\": {}, \"layout_hits\": {}}},",
            self.cache.circuit_builds,
            self.cache.circuit_hits,
            self.cache.layout_builds,
            self.cache.layout_hits
        );
        out.push_str("  \"summaries\": [\n");
        let summaries = self.summaries();
        for (i, s) in summaries.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"distance\": {}, \"error_rate\": {}, \"k\": \"{}\", \"compression\": {}, \"decoder\": \"{}\", \"priority\": \"{}\", \"completed\": {}, \"mean_cycles\": {}, \"p50_cycles\": {}, \"p99_cycles\": {}, \"min_cycles\": {}, \"max_cycles\": {}, \"mean_stall_cycles\": {}, \"stall_fraction\": {}",
                json_escape(&s.job.workload),
                s.job.config.scheduler,
                s.job.config.distance,
                s.job.config.physical_error_rate,
                fmt_k(s.job.config.k_policy),
                s.job.config.compression,
                s.job.decoder,
                fmt_priority(&s.job.config.priority_classes),
                s.completed,
                s.mean_cycles,
                s.p50_cycles,
                s.p99_cycles,
                s.min_cycles,
                s.max_cycles,
                s.mean_stall_cycles,
                s.stall_fraction,
            );
            s.write_aggregates_json(&mut out);
            out.push('}');
            out.push_str(if i + 1 < summaries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"rows\": [\n");
        let rows: Vec<String> = self
            .ok_rows()
            .map(|(job, m)| format!("    \"{}\"", json_escape(&csv_row(job, m))))
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_sorted_samples() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn csv_metrics_round_trip() {
        let spec = SweepSpec {
            workloads: vec!["dnn_n16".into()],
            ..SweepSpec::default()
        };
        let job = spec.expand().remove(0);
        assert_eq!(CSV_HEADER.split(',').count(), COLUMNS.len());
        // Distinct values in every metric column land back in the same
        // column.
        let grid = csv_row(&job, &JobMetrics::default());
        let grid: Vec<&str> = grid.split(',').take(GRID_COLUMNS).collect();
        let values: Vec<String> = (GRID_COLUMNS..COLUMNS.len())
            .map(|i| (i * 7 + 1).to_string())
            .collect();
        let row = format!("{},{}", grid.join(","), values.join(","));
        let mut m = parse_csv_metrics(&row).unwrap();
        assert_eq!(csv_row(&job, &m), row);
        // Floats round-trip exactly through shortest-round-trip `Display`.
        m.total_cycles = 123.456789;
        m.idle_fraction = 0.9876543210123;
        m.stall_cycles = 1.0 / 3.0;
        assert_eq!(parse_csv_metrics(&csv_row(&job, &m)).unwrap(), m);
        assert!(parse_csv_metrics("a,b,c").is_err());
    }
}
