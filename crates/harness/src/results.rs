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

/// The scalar metrics of one completed job (one seeded run).
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// The run seed.
    pub seed: u64,
    /// Makespan in lattice-surgery cycles.
    pub total_cycles: f64,
    /// Data-qubit idle fraction.
    pub idle_fraction: f64,
    /// Cycles feed-forward decisions stalled on the decoder.
    pub stall_cycles: f64,
    /// Syndrome windows submitted to the decoder.
    pub decode_windows: u64,
    /// Largest decode backlog observed.
    pub peak_backlog: u64,
    /// Injection attempts.
    pub injections: u64,
    /// Injection failures.
    pub injection_failures: u64,
    /// Preparations started.
    pub preps_started: u64,
    /// Preparations cancelled.
    pub preps_cancelled: u64,
    /// Ledger preemptions applied (constrained-fabric RESCQ).
    pub preemptions: u64,
    /// Preemptions the ledger rejected to keep the wait-for graph acyclic.
    pub preemptions_rejected: u64,
    /// Peak distinct edges in the task wait-for graph.
    pub waitgraph_peak_edges: u64,
    /// Preemptions granted by the priority-class lattice (the preemptor's
    /// class strictly outranked a displaced entry; 0 in class-blind runs).
    pub preemptions_class: u64,
    /// Task-cycles stalled on ancilla contention (no free route tiles).
    pub stall_ancilla: u64,
    /// Task-cycles stalled on decoder backlog (feed-forward gated).
    pub stall_decoder: u64,
    /// Task-cycles stalled on a blocked CNOT route.
    pub stall_route: u64,
    /// Task-cycles stalled after displacement by a higher priority class.
    pub stall_class: u64,
    /// Median CNOT completion latency in cycles.
    pub cnot_p50: u64,
    /// 99th-percentile CNOT completion latency in cycles.
    pub cnot_p99: u64,
    /// 99th-percentile decode-window latency in cycles.
    pub decode_p99: u64,
    /// Defects the union-find decoder observed (0 for latency models).
    pub decode_defects: u64,
    /// Union-find cluster-growth half-steps performed.
    pub decode_growth_steps: u64,
    /// Windows whose residual error crossed the logical cut.
    pub decode_failures: u64,
}

impl JobMetrics {
    /// Extracts the metrics a sweep keeps from a full report.
    pub fn from_report(report: &ExecutionReport) -> Self {
        JobMetrics {
            seed: report.seed,
            total_cycles: report.total_cycles(),
            idle_fraction: report.idle_fraction(),
            stall_cycles: report.decoder_stall_cycles(),
            decode_windows: report.counters.decode_windows,
            peak_backlog: report.counters.decoder_peak_backlog,
            injections: report.counters.injections,
            injection_failures: report.counters.injection_failures,
            preps_started: report.counters.preps_started,
            preps_cancelled: report.counters.preps_cancelled,
            preemptions: report.counters.preemptions,
            preemptions_rejected: report.counters.preemptions_rejected_cycle,
            waitgraph_peak_edges: report.counters.waitgraph_peak_edges,
            preemptions_class: report.counters.preemptions_class,
            stall_ancilla: report.counters.stall_ancilla_cycles,
            stall_decoder: report.counters.stall_decoder_cycles,
            stall_route: report.counters.stall_route_cycles,
            stall_class: report.counters.stall_class_cycles,
            cnot_p50: report.cnot_latency.percentile(0.5),
            cnot_p99: report.cnot_latency.percentile(0.99),
            decode_p99: report.decode_latency.percentile(0.99),
            decode_defects: report.counters.decode_defects,
            decode_growth_steps: report.counters.decode_growth_steps,
            decode_failures: report.counters.decode_failures,
        }
    }
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

/// The CSV column header of per-job rows. `priority` sits with the grid
/// columns (it is a spec axis, not a result: it names the arbitration
/// policy a point ran under). The union-find decode-work
/// counters are the last metric columns, per the strip-last-column
/// convention for newly added counters; they are sim-time derived, so the
/// rows stay byte-identical whether or not a run was traced.
pub const CSV_HEADER: &str = "workload,scheduler,distance,error_rate,k,compression,decoder,\
priority,seed,\
total_cycles,idle_fraction,stall_cycles,decode_windows,peak_backlog,injections,\
injection_failures,preps_started,preps_cancelled,preemptions,preemptions_rejected,\
waitgraph_peak_edges,preemptions_class,stall_ancilla,stall_decoder,stall_route,stall_class,\
cnot_p50,cnot_p99,decode_p99,decode_defects,decode_growth_steps,decode_failures";

/// Formats one job + metrics as a CSV row (no trailing newline).
pub fn csv_row(job: &JobSpec, m: &JobMetrics) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        job.workload,
        job.config.scheduler,
        job.config.distance,
        job.config.physical_error_rate,
        fmt_k(job.config.k_policy),
        job.config.compression,
        job.decoder,
        fmt_priority(&job.config.priority_classes),
        m.seed,
        m.total_cycles,
        m.idle_fraction,
        m.stall_cycles,
        m.decode_windows,
        m.peak_backlog,
        m.injections,
        m.injection_failures,
        m.preps_started,
        m.preps_cancelled,
        m.preemptions,
        m.preemptions_rejected,
        m.waitgraph_peak_edges,
        m.preemptions_class,
        m.stall_ancilla,
        m.stall_decoder,
        m.stall_route,
        m.stall_class,
        m.cnot_p50,
        m.cnot_p99,
        m.decode_p99,
        m.decode_defects,
        m.decode_growth_steps,
        m.decode_failures,
    )
}

/// Parses the metric columns of a [`csv_row`] back into [`JobMetrics`]
/// (used by checkpoint resume; the job columns are identified by
/// fingerprint, not re-parsed).
pub fn parse_csv_metrics(row: &str) -> Result<JobMetrics, String> {
    let cols: Vec<&str> = row.split(',').collect();
    // 32 columns since the engine-thread column was dropped; older
    // 20/21/23/27/30/33-column checkpoint rows fail here and are skipped
    // gracefully by the checkpoint loader (the jobs simply re-run).
    if cols.len() != 32 {
        return Err(format!("expected 32 columns, got {}", cols.len()));
    }
    let f = |i: usize| -> Result<f64, String> {
        cols[i]
            .parse()
            .map_err(|_| format!("bad float `{}` in column {i}", cols[i]))
    };
    let u = |i: usize| -> Result<u64, String> {
        cols[i]
            .parse()
            .map_err(|_| format!("bad integer `{}` in column {i}", cols[i]))
    };
    Ok(JobMetrics {
        seed: u(8)?,
        total_cycles: f(9)?,
        idle_fraction: f(10)?,
        stall_cycles: f(11)?,
        decode_windows: u(12)?,
        peak_backlog: u(13)?,
        injections: u(14)?,
        injection_failures: u(15)?,
        preps_started: u(16)?,
        preps_cancelled: u(17)?,
        preemptions: u(18)?,
        preemptions_rejected: u(19)?,
        waitgraph_peak_edges: u(20)?,
        preemptions_class: u(21)?,
        stall_ancilla: u(22)?,
        stall_decoder: u(23)?,
        stall_route: u(24)?,
        stall_class: u(25)?,
        cnot_p50: u(26)?,
        cnot_p99: u(27)?,
        decode_p99: u(28)?,
        decode_defects: u(29)?,
        decode_growth_steps: u(30)?,
        decode_failures: u(31)?,
    })
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
    /// Largest decode backlog across seeds.
    pub peak_backlog: u64,
    /// Total ledger preemptions across seeds.
    pub preemptions: u64,
    /// Total cycle-rejected preemptions across seeds.
    pub preemptions_rejected: u64,
    /// Total class-lattice-granted preemptions across seeds.
    pub preemptions_class: u64,
    /// Largest wait-for-graph edge peak across seeds.
    pub waitgraph_peak_edges: u64,
    /// Total task-cycles stalled on ancilla contention across seeds.
    pub stall_ancilla: u64,
    /// Total task-cycles stalled on decoder backlog across seeds.
    pub stall_decoder: u64,
    /// Total task-cycles stalled on blocked routes across seeds.
    pub stall_route: u64,
    /// Total task-cycles stalled by class displacement across seeds.
    pub stall_class: u64,
    /// Mean of the per-seed median CNOT latencies (cycles).
    pub cnot_p50: f64,
    /// Worst per-seed p99 CNOT latency across seeds (cycles).
    pub cnot_p99: u64,
    /// Worst per-seed p99 decode-window latency across seeds (cycles).
    pub decode_p99: u64,
    /// Total defects the union-find decoder observed across seeds.
    pub decode_defects: u64,
    /// Total union-find growth half-steps across seeds.
    pub decode_growth_steps: u64,
    /// Total logical-cut crossings after correction across seeds.
    pub decode_failures: u64,
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
        let mut out = Vec::new();
        let mut chunks: Vec<&[JobRecord]> = Vec::new();
        let mut start = 0;
        for i in 1..=self.records.len() {
            if i == self.records.len() || self.records[i].job.point != self.records[start].job.point
            {
                chunks.push(&self.records[start..i]);
                start = i;
            }
        }
        for chunk in chunks {
            let Some(first) = chunk.first() else { continue };
            let ok: Vec<&JobMetrics> = chunk
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok())
                .collect();
            let mut cycles: Vec<f64> = ok.iter().map(|m| m.total_cycles).collect();
            cycles.sort_by(f64::total_cmp);
            let n = ok.len().max(1) as f64;
            let mean_cycles = ok.iter().map(|m| m.total_cycles).sum::<f64>() / n;
            let mean_stall = ok.iter().map(|m| m.stall_cycles).sum::<f64>() / n;
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
            out.push(PointSummary {
                point: first.job.point,
                job: first.job.clone(),
                completed: ok.len() as u64,
                mean_cycles,
                p50_cycles: percentile(&cycles, 0.5),
                p99_cycles: percentile(&cycles, 0.99),
                min_cycles: cycles.first().copied().unwrap_or(0.0),
                max_cycles: cycles.last().copied().unwrap_or(0.0),
                mean_stall_cycles: mean_stall,
                stall_fraction,
                peak_backlog: ok.iter().map(|m| m.peak_backlog).max().unwrap_or(0),
                preemptions: ok.iter().map(|m| m.preemptions).sum(),
                preemptions_rejected: ok.iter().map(|m| m.preemptions_rejected).sum(),
                preemptions_class: ok.iter().map(|m| m.preemptions_class).sum(),
                waitgraph_peak_edges: ok.iter().map(|m| m.waitgraph_peak_edges).max().unwrap_or(0),
                stall_ancilla: ok.iter().map(|m| m.stall_ancilla).sum(),
                stall_decoder: ok.iter().map(|m| m.stall_decoder).sum(),
                stall_route: ok.iter().map(|m| m.stall_route).sum(),
                stall_class: ok.iter().map(|m| m.stall_class).sum(),
                cnot_p50: ok.iter().map(|m| m.cnot_p50 as f64).sum::<f64>() / n,
                cnot_p99: ok.iter().map(|m| m.cnot_p99).max().unwrap_or(0),
                decode_p99: ok.iter().map(|m| m.decode_p99).max().unwrap_or(0),
                decode_defects: ok.iter().map(|m| m.decode_defects).sum(),
                decode_growth_steps: ok.iter().map(|m| m.decode_growth_steps).sum(),
                decode_failures: ok.iter().map(|m| m.decode_failures).sum(),
            });
        }
        out
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
                "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"distance\": {}, \"error_rate\": {}, \"k\": \"{}\", \"compression\": {}, \"decoder\": \"{}\", \"priority\": \"{}\", \"completed\": {}, \"mean_cycles\": {}, \"p50_cycles\": {}, \"p99_cycles\": {}, \"min_cycles\": {}, \"max_cycles\": {}, \"mean_stall_cycles\": {}, \"stall_fraction\": {}, \"peak_backlog\": {}, \"preemptions\": {}, \"preemptions_rejected\": {}, \"preemptions_class\": {}, \"waitgraph_peak_edges\": {}, \"stall_ancilla\": {}, \"stall_decoder\": {}, \"stall_route\": {}, \"stall_class\": {}, \"cnot_p50\": {}, \"cnot_p99\": {}, \"decode_p99\": {}, \"decode_defects\": {}, \"decode_growth_steps\": {}, \"decode_failures\": {}}}",
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
                s.peak_backlog,
                s.preemptions,
                s.preemptions_rejected,
                s.preemptions_class,
                s.waitgraph_peak_edges,
                s.stall_ancilla,
                s.stall_decoder,
                s.stall_route,
                s.stall_class,
                s.cnot_p50,
                s.cnot_p99,
                s.decode_p99,
                s.decode_defects,
                s.decode_growth_steps,
                s.decode_failures
            );
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
        let m = JobMetrics {
            seed: 1,
            total_cycles: 123.456789,
            idle_fraction: 0.9876543210123,
            stall_cycles: 1.0 / 3.0,
            decode_windows: 42,
            peak_backlog: 7,
            injections: 100,
            injection_failures: 49,
            preps_started: 120,
            preps_cancelled: 3,
            preemptions: 2,
            preemptions_rejected: 5,
            waitgraph_peak_edges: 17,
            preemptions_class: 3,
            stall_ancilla: 11,
            stall_decoder: 6,
            stall_route: 4,
            stall_class: 1,
            cnot_p50: 21,
            cnot_p99: 35,
            decode_p99: 12,
            decode_defects: 9,
            decode_growth_steps: 88,
            decode_failures: 1,
        };
        let row = csv_row(&job, &m);
        assert_eq!(
            parse_csv_metrics(&row).unwrap(),
            m,
            "floats must round-trip"
        );
        assert!(parse_csv_metrics("a,b,c").is_err());
    }
}
