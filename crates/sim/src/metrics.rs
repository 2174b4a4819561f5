//! Execution metrics: total cycles, per-gate latency histograms (Fig 5),
//! idle fractions (Fig 11/12), and classical-overhead counters (§5.4).

use rescq_core::SchedulerKind;
use rescq_telemetry::{HistogramSummary, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Histogram of per-gate completion latencies in lattice-surgery cycles,
/// measured from the moment the gate is *scheduled* (paper Fig 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: BTreeMap<u64, u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one gate latency (whole cycles, rounded up from rounds).
    pub fn record(&mut self, cycles: u64) {
        *self.buckets.entry(cycles).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.buckets.iter().map(|(&lat, &n)| lat * n).sum();
        sum as f64 / self.total as f64
    }

    /// Fraction of samples with latency ≤ `cycles`.
    pub fn fraction_at_most(&self, cycles: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self.buckets.range(..=cycles).map(|(_, &count)| count).sum();
        n as f64 / self.total as f64
    }

    /// Smallest latency `L` such that at least `p` (0..=1) of samples are ≤ `L`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let threshold = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (&lat, &n) in &self.buckets {
            acc += n;
            if acc >= threshold {
                return lat;
            }
        }
        *self.buckets.keys().last().expect("non-empty")
    }

    /// Iterates `(latency_cycles, count)` in ascending latency order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&l, &n)| (l, n))
    }

    /// Merges another histogram into this one (used to accumulate across
    /// benchmarks for Fig 5).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&lat, &n) in &other.buckets {
            *self.buckets.entry(lat).or_insert(0) += n;
        }
        self.total += other.total;
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.2}", self.total, self.mean())
    }
}

/// Counters describing one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCounters {
    /// Preparations started.
    pub preps_started: u64,
    /// Preparations that completed successfully (state held).
    pub preps_succeeded: u64,
    /// Preparations cancelled (reclaimed ancilla / in-place angle update).
    pub preps_cancelled: u64,
    /// Prepared states discarded unused (extra parallel successes).
    pub states_discarded: u64,
    /// Injection attempts.
    pub injections: u64,
    /// Injection failures (−1 measurement outcomes).
    pub injection_failures: u64,
    /// Edge-rotation gates executed.
    pub edge_rotations: u64,
    /// CNOT surgeries executed.
    pub cnot_surgeries: u64,
    /// Stalled CNOT routes re-planned (RESCQ on constrained fabrics).
    pub cnot_replans: u64,
    /// Ledger preemptions applied: an older stalled task reordered ahead of
    /// younger speculative preparations (RESCQ on constrained fabrics).
    pub preemptions: u64,
    /// Preemptions rejected because the reordered wait-for edges would have
    /// created a cycle (the naive-yield deadlock, caught by the ledger).
    pub preemptions_rejected_cycle: u64,
    /// Largest number of distinct edges the task wait-for graph ever held.
    pub waitgraph_peak_edges: u64,
    /// Cycles live tasks spent stalled on ancilla availability (runnable,
    /// but no prepared state / free ancilla to proceed with). Sampled once
    /// per lattice-surgery cycle per stalled task; derived purely from
    /// simulated time, so it is part of the determinism contract.
    pub stall_ancilla_cycles: u64,
    /// Cycles live tasks spent stalled waiting on classical decode results
    /// (feed-forward or preparation-verification windows in flight).
    pub stall_decoder_cycles: u64,
    /// Cycles live CNOTs spent stalled with a planned route they could not
    /// occupy (route claims queued behind other work).
    pub stall_route_cycles: u64,
    /// Always 0. No engine assigns priority classes any more; the field
    /// stays only because the out-of-workspace `perfbench` tool reads it
    /// for its `sim.stall_class_cycles` layer metric. No sink prints it.
    pub stall_class_cycles: u64,
    /// MST computations completed (RESCQ).
    pub mst_computations: u64,
    /// Edge weights changed between consecutive completed MST computations
    /// (RESCQ, §5.4.1's update count), counted at every completion whether
    /// or not a route read rebuilt the tree from it.
    pub mst_incremental_updates: u64,
    /// Geometric-path lookups answered by the route planner's memo
    /// ([`rescq_core::PathCache`]; RESCQ). Every plan looks up each of its
    /// endpoint pairs once, whether or not the pair's floor lets it win;
    /// MST tree paths are read from the tree directly and are not counted.
    pub path_cache_hits: u64,
    /// Geometric-path lookups the memo could not answer: one per distinct
    /// endpoint pair the planner has considered. A plan's misses share
    /// their searches, one BFS per distinct smaller endpoint id.
    pub path_cache_misses: u64,
    /// Syndrome windows submitted to the classical decoder.
    pub decode_windows: u64,
    /// Rounds feed-forward decisions waited on decode results (0 under the
    /// ideal decoder).
    pub decoder_stall_rounds: u64,
    /// Largest decode backlog (windows simultaneously in flight).
    pub decoder_peak_backlog: u64,
    /// Defects (flipped detectors) the decoder observed; non-zero only for
    /// the union-find decoder, which samples real syndromes.
    pub decode_defects: u64,
    /// Union-find cluster-growth half-steps performed (the dominant decode
    /// work term; zero under the ideal decoder).
    pub decode_growth_steps: u64,
    /// Windows whose residual error crossed the logical cut after
    /// correction (union-find decoder only).
    pub decode_failures: u64,
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Scheduler that produced the run.
    pub scheduler: SchedulerKind,
    /// The run seed.
    pub seed: u64,
    /// Code distance.
    pub distance: u32,
    /// Total execution time in measurement rounds.
    pub total_rounds: u64,
    /// Gates executed (all kinds).
    pub gates_executed: usize,
    /// CNOT latency histogram (schedule → completion, Fig 5 left).
    pub cnot_latency: LatencyHistogram,
    /// Rz latency histogram including all correction gates (Fig 5 right).
    pub rz_latency: LatencyHistogram,
    /// Decode latency histogram: whole cycles from syndrome-window
    /// submission to result visibility (all zeros under the ideal decoder).
    pub decode_latency: LatencyHistogram,
    /// Sum over data qubits of rounds spent busy.
    pub data_busy_rounds: u64,
    /// Number of data qubits.
    pub num_qubits: u32,
    /// Achieved grid compression (may differ from requested, §5.3).
    pub achieved_compression: f64,
    /// Resolved MST period `k` (RESCQ; 0 for baselines).
    pub k_used: u32,
    /// Modelled `τ_MST` (RESCQ; 0 for baselines).
    pub tau_used: u32,
    /// Event counters.
    pub counters: RunCounters,
    /// Wall-clock nanoseconds spent in each dispatch phase
    /// (schedule/start/propose/commit, indexed like
    /// `rescq_telemetry::Phase::index`). Measured only when the run is
    /// traced; all zeros otherwise, so untraced reports stay comparable by
    /// equality. Wall-clock never feeds back into the schedule.
    pub phase_nanos: [u64; 4],
}

impl ExecutionReport {
    /// Total execution time in lattice-surgery cycles (fractional).
    pub fn total_cycles(&self) -> f64 {
        self.total_rounds as f64 / self.distance as f64
    }

    /// Cycles feed-forward decisions spent stalled on the classical decoder
    /// (fractional; 0 under the ideal decoder).
    pub fn decoder_stall_cycles(&self) -> f64 {
        self.counters.decoder_stall_rounds as f64 / self.distance as f64
    }

    /// Total cycles attributed to stalls, summed over the three causes
    /// (ancilla contention, decoder backlog, route blocked).
    /// Per-task-per-cycle samples, so concurrent stalls count once each.
    pub fn stall_cycles(&self) -> u64 {
        self.counters.stall_ancilla_cycles
            + self.counters.stall_decoder_cycles
            + self.counters.stall_route_cycles
    }

    /// Fraction of data-qubit time spent idle (Fig 11/12 bottom rows):
    /// `1 − busy / (qubits × makespan)`.
    pub fn idle_fraction(&self) -> f64 {
        if self.total_rounds == 0 || self.num_qubits == 0 {
            return 0.0;
        }
        let window = self.total_rounds as f64 * self.num_qubits as f64;
        (1.0 - self.data_busy_rounds as f64 / window).clamp(0.0, 1.0)
    }
}

/// Declares the reports-CSV columns once; [`REPORTS_CSV_HEADER`] and
/// [`reports_csv_row`] both derive from the list. Each row names the
/// column, its format and its value.
macro_rules! report_columns {
    (|$r:ident| $( $name:ident = $fmt:literal, $get:expr; )+) => {
        /// Header of the per-run reports CSV that `sim run` and
        /// `sim bench` write with `--csv`.
        pub const REPORTS_CSV_HEADER: &str = {
            let names = concat!($(stringify!($name), ",",)+);
            names.split_at(names.len() - 1).0
        };

        /// Formats one report as a reports-CSV row (no trailing newline).
        /// Every column is sim-time derived — no wall-clock ever enters the
        /// file, so traced and untraced runs produce byte-identical rows.
        pub fn reports_csv_row($r: &ExecutionReport) -> String {
            let mut row = String::new();
            $( let _ = write!(row, concat!($fmt, ","), $get); )+
            row.pop();
            row
        }
    };
}

// Newest columns go last, so older tooling keeps its column positions.
report_columns! { |r|
    scheduler = "{}", r.scheduler;
    seed = "{}", r.seed;
    distance = "{}", r.distance;
    total_cycles = "{:.3}", r.total_cycles();
    idle_fraction = "{:.4}", r.idle_fraction();
    gates = "{}", r.gates_executed;
    injections = "{}", r.counters.injections;
    injection_failures = "{}", r.counters.injection_failures;
    preps_started = "{}", r.counters.preps_started;
    preps_cancelled = "{}", r.counters.preps_cancelled;
    edge_rotations = "{}", r.counters.edge_rotations;
    mst_computations = "{}", r.counters.mst_computations;
    k = "{}", r.k_used;
    tau = "{}", r.tau_used;
    decode_windows = "{}", r.counters.decode_windows;
    decoder_stall_cycles = "{:.3}", r.decoder_stall_cycles();
    decoder_peak_backlog = "{}", r.counters.decoder_peak_backlog;
    preemptions = "{}", r.counters.preemptions;
    preemptions_rejected_cycle = "{}", r.counters.preemptions_rejected_cycle;
    waitgraph_peak_edges = "{}", r.counters.waitgraph_peak_edges;
    stall_ancilla = "{}", r.counters.stall_ancilla_cycles;
    stall_decoder = "{}", r.counters.stall_decoder_cycles;
    stall_route = "{}", r.counters.stall_route_cycles;
    decode_defects = "{}", r.counters.decode_defects;
    decode_growth_steps = "{}", r.counters.decode_growth_steps;
    decode_failures = "{}", r.counters.decode_failures;
}

/// Summarizes a [`LatencyHistogram`] to the snapshot's quantile form
/// (exact quantiles — cycle histograms keep every bucket).
fn summarize(h: &LatencyHistogram) -> HistogramSummary {
    HistogramSummary {
        count: h.count(),
        sum: h.iter().map(|(lat, n)| lat * n).sum(),
        p50: h.percentile(0.5),
        p99: h.percentile(0.99),
    }
}

/// Builds the versioned [`MetricsSnapshot`] of one run: the
/// machine-queryable rollup `sim run --metrics-out` writes. (Sweep rows
/// are built from the report itself, not from this snapshot.)
///
/// Every metric is schedule-derived (rounds, cycles, counters) — the
/// wall-clock `phase_nanos` are deliberately excluded — so the
/// snapshot is a pure function of config + seed, byte-identical with
/// tracing on or off.
pub fn metrics_snapshot(report: &ExecutionReport) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::new();
    let c = &report.counters;
    s.counter("rescq_total_rounds", report.total_rounds)
        .counter("rescq_gates_executed", report.gates_executed as u64)
        .counter("rescq_preps_started", c.preps_started)
        .counter("rescq_preps_succeeded", c.preps_succeeded)
        .counter("rescq_preps_cancelled", c.preps_cancelled)
        .counter("rescq_injections", c.injections)
        .counter("rescq_injection_failures", c.injection_failures)
        .counter("rescq_cnot_surgeries", c.cnot_surgeries)
        .counter("rescq_cnot_replans", c.cnot_replans)
        .counter("rescq_preemptions", c.preemptions)
        .counter("rescq_preemptions_rejected", c.preemptions_rejected_cycle)
        .counter("rescq_waitgraph_peak_edges", c.waitgraph_peak_edges)
        .counter("rescq_stall_ancilla_cycles", c.stall_ancilla_cycles)
        .counter("rescq_stall_decoder_cycles", c.stall_decoder_cycles)
        .counter("rescq_stall_route_cycles", c.stall_route_cycles)
        .counter("rescq_decode_windows", c.decode_windows)
        .counter("rescq_decoder_stall_rounds", c.decoder_stall_rounds)
        .counter("rescq_decoder_peak_backlog", c.decoder_peak_backlog)
        .counter("rescq_decode_defects", c.decode_defects)
        .counter("rescq_decode_growth_steps", c.decode_growth_steps)
        .counter("rescq_decode_failures", c.decode_failures)
        .gauge("rescq_total_cycles", report.total_cycles())
        .gauge("rescq_idle_fraction", report.idle_fraction())
        .gauge("rescq_achieved_compression", report.achieved_compression)
        .histogram("rescq_cnot_latency_cycles", summarize(&report.cnot_latency))
        .histogram("rescq_rz_latency_cycles", summarize(&report.rz_latency))
        .histogram(
            "rescq_decode_latency_cycles",
            summarize(&report.decode_latency),
        );
    s
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} cycles ({} gates, idle {:.0}%)",
            self.scheduler,
            self.total_cycles(),
            self.gates_executed,
            self.idle_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let mut h = LatencyHistogram::new();
        for v in [2, 2, 2, 5, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.8).abs() < 1e-12);
        assert!((h.fraction_at_most(2) - 0.6).abs() < 1e-12);
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.percentile(0.9), 8);
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        a.record(2);
        let mut b = LatencyHistogram::new();
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.fraction_at_most(2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.fraction_at_most(100), 0.0);
    }

    /// A 700-round, 4-qubit RESCQ report at d = 7 with `counters`.
    fn sample_report(counters: RunCounters) -> ExecutionReport {
        ExecutionReport {
            scheduler: SchedulerKind::Rescq,
            seed: 1,
            distance: 7,
            total_rounds: 700,
            gates_executed: 10,
            cnot_latency: LatencyHistogram::new(),
            rz_latency: LatencyHistogram::new(),
            decode_latency: LatencyHistogram::new(),
            data_busy_rounds: 1400,
            num_qubits: 4,
            achieved_compression: 0.0,
            k_used: 25,
            tau_used: 17,
            counters,
            phase_nanos: [0; 4],
        }
    }

    #[test]
    fn report_derived_quantities() {
        let r = sample_report(RunCounters {
            stall_ancilla_cycles: 3,
            stall_decoder_cycles: 2,
            stall_route_cycles: 1,
            ..RunCounters::default()
        });
        assert!((r.total_cycles() - 100.0).abs() < 1e-12);
        assert!((r.idle_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.stall_cycles(), 6);
        assert_eq!(
            reports_csv_row(&r).split(',').count(),
            REPORTS_CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn metrics_snapshot_covers_counters_and_quantiles() {
        let mut cnot = LatencyHistogram::new();
        for v in [10, 20, 20, 40] {
            cnot.record(v);
        }
        let r = ExecutionReport {
            cnot_latency: cnot,
            achieved_compression: 0.25,
            // Wall-clock never reaches the snapshot: identical schedule,
            // different phase timings must snapshot identically.
            phase_nanos: [123, 456, 789, 1011],
            ..sample_report(RunCounters {
                stall_decoder_cycles: 2,
                decode_windows: 9,
                ..RunCounters::default()
            })
        };
        let s = metrics_snapshot(&r);
        assert_eq!(s.get_counter("rescq_total_rounds"), Some(700));
        assert_eq!(s.get_counter("rescq_decode_windows"), Some(9));
        assert_eq!(s.get_counter("rescq_stall_decoder_cycles"), Some(2));
        let (_, cnot_summary) = s
            .histograms
            .iter()
            .find(|(name, _)| name == "rescq_cnot_latency_cycles")
            .unwrap();
        assert_eq!(cnot_summary.count, 4);
        assert_eq!(cnot_summary.sum, 90);
        assert_eq!(cnot_summary.p50, 20);
        assert_eq!(cnot_summary.p99, 40);

        let mut zeroed = r;
        zeroed.phase_nanos = [0; 4];
        assert_eq!(s.to_json(), metrics_snapshot(&zeroed).to_json());
        assert!(s.to_text().contains("gauge rescq_idle_fraction"));
    }
}
