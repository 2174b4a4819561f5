//! The untraced end-to-end run (`--trace 0`): a closed loop of timed calls
//! from one client, each call starting after the previous one returned,
//! followed by correctness checks outside the timed region.

use crate::alloc;
use crate::host::ScaledTimer;
use crate::layers::{check_corrections, same_schedule, NullRecorder};
use crate::plan::{Plan, Workload};
use crate::report::{geomean, mean, median, metric, quantile, Checks, Outcome};
use rescq_core::SchedulerKind;
use rescq_harness::{run_sweep, HarnessError, JobMetrics, SweepResults};
use rescq_sim::{simulate_prepared, simulate_prepared_traced, ExecutionReport};
use std::time::Instant;

/// The paper's compressed-fabric claim (Contribution 3 / Fig 9, quoted in
/// `tests/paper_claims.rs`): RESCQ averages 1.65x fewer cycles than greedy.
const PAPER_COMPRESSED_SPEEDUP: f64 = 1.65;

/// Timed calls a run makes at least, even past `--seconds` on a slow host,
/// so that at least 10 samples lie above `wall_ms_p90`.
const MIN_CALLS: usize = 100;

/// What the timed loop of one workload measured.
#[derive(Default)]
struct Timed {
    /// Per-call walls scaled to the reference host speed, and raw.
    scaled_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    gates_per_call: usize,
    sim_cycles_mean: f64,
    rescq_speedup: f64,
}

impl Timed {
    fn push(&mut self, raw_ms: f64, scaled_ms: f64) {
        self.raw_ms.push(raw_ms);
        self.scaled_ms.push(scaled_ms);
    }
}

pub fn run(plan: &Plan, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let (timed, call) = match plan.workload {
        Workload::CompressedSweep => (sweep(plan, seconds, &mut checks), "run_sweep"),
        Workload::IsingWide | Workload::IsingUf => {
            (ising(plan, seconds, &mut checks), "simulate_prepared")
        }
    };
    let p50 = median(&timed.scaled_ms);
    let p90 = quantile(&timed.scaled_ms, 0.9);
    let beyond_p90 = timed.scaled_ms.iter().filter(|&&w| w > p90).count();
    let rss = alloc::peak_rss_mb();
    checks.check(rss.is_some(), || {
        "VmHWM missing from /proc/self/status".into()
    });
    let mut notes = vec![
        format!(
            "{}: {} timed calls of {call} in {seconds} s (closed loop, one client, {} harness worker(s), host parallelism {}); {beyond_p90} samples above p90",
            plan.workload.name(),
            timed.scaled_ms.len(),
            plan.workers,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        format!(
            "  raw host times: p50 {:.3} ms, p90 {:.3} ms, setup {:.6} s (the metrics are scaled to the reference host speed)",
            median(&timed.raw_ms),
            quantile(&timed.raw_ms, 0.9),
            plan.setup_raw_s
        ),
    ];
    if plan.workload == Workload::CompressedSweep {
        notes.push(format!(
            "  rescq_speedup {:.3}x vs the paper's {PAPER_COMPRESSED_SPEEDUP}x on compressed fabrics: relative error {:+.1}%",
            timed.rescq_speedup,
            (timed.rescq_speedup / PAPER_COMPRESSED_SPEEDUP - 1.0) * 100.0
        ));
    }
    Outcome {
        checks,
        notes,
        metrics: vec![
            metric("wall_ms_p50", p50, "ms"),
            metric("wall_ms_p90", p90, "ms"),
            metric(
                "gates_per_s",
                timed.gates_per_call as f64 / (p50 / 1e3),
                "1/s",
            ),
            metric("setup_s", plan.setup_s, "s"),
            metric("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
            metric("sim_cycles_mean", timed.sim_cycles_mean, "cycles"),
            metric("rescq_speedup", timed.rescq_speedup, "x"),
        ],
    }
}

/// One `simulate_prepared` per call, cycling through the workload's runs.
fn ising(plan: &Plan, seconds: f64, checks: &mut Checks) -> Timed {
    let gates = plan.circuits[0].art.circuit.len();
    let run = |k: usize| simulate_prepared(plan.artifacts(&plan.jobs[k]), &plan.jobs[k].config);
    // Warm-up, excluded from timing.
    let _ = run(0);
    let mut refs: Vec<Option<ExecutionReport>> = vec![None; plan.jobs.len()];
    let mut timed = Timed {
        gates_per_call: gates,
        ..Timed::default()
    };
    let mut timer = ScaledTimer::new(plan.workers);
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_CALLS.max(plan.jobs.len()) || start.elapsed().as_secs_f64() < seconds {
        let k = i % plan.jobs.len();
        let (result, raw, scaled) = timer.time(|| run(k));
        timed.push(raw, scaled);
        match result {
            Ok(r) => {
                let ok = r.gates_executed == gates && refs[k].as_ref().is_none_or(|x| *x == r);
                checks.check(ok, || {
                    format!(
                        "run {k}: {} of {gates} gates, or a report differing from its first",
                        r.gates_executed
                    )
                });
                refs[k].get_or_insert(r);
            }
            Err(e) => {
                checks.check(false, || format!("simulate_prepared: {e}"));
            }
        }
        i += 1;
    }
    let rescq: Vec<f64> = refs.iter().flatten().map(|r| r.total_cycles()).collect();
    let greedy: Vec<f64> = plan
        .jobs
        .iter()
        .enumerate()
        .filter_map(|(k, job)| {
            let mut config = job.config.clone();
            config.scheduler = SchedulerKind::Greedy;
            let r = simulate_prepared(plan.artifacts(job), &config).ok();
            checks.check(
                r.as_ref().is_some_and(|r| r.gates_executed == gates),
                || format!("greedy run {k} did not execute every gate"),
            );
            r.map(|r| r.total_cycles())
        })
        .collect();
    if let Some(untraced) = &refs[0] {
        let job = &plan.jobs[0];
        let traced =
            simulate_prepared_traced(plan.artifacts(job), &job.config, Some(&NullRecorder));
        checks.check(traced.is_ok_and(|t| same_schedule(&t, untraced)), || {
            "traced report differs from the untraced one".into()
        });
        let bad = check_corrections(&job.config, untraced.counters.decode_windows);
        checks.check(bad == 0, || {
            format!("{bad} decoder corrections miss their syndrome")
        });
    }
    timed.sim_cycles_mean = mean(&rescq);
    timed.rescq_speedup = mean(&greedy) / mean(&rescq);
    timed
}

/// Checks a sweep has no errored job and one CSV row per job.
pub fn check_sweep(
    plan: &Plan,
    checks: &mut Checks,
    result: &Result<SweepResults, HarnessError>,
) -> bool {
    let ok = result.as_ref().is_ok_and(|r| {
        r.first_error().is_none()
            && r.records.len() == plan.spec.expand().len()
            && r.to_csv().lines().count() == r.records.len() + 1
    });
    checks.check(ok, || {
        format!("sweep errored or lost rows: {:?}", result.as_ref().err())
    })
}

/// Whether two sweeps produced the same per-job metrics.
fn same_rows(a: &SweepResults, b: &SweepResults) -> bool {
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.outcome == y.outcome)
}

/// One `run_sweep` per call over the whole grid.
fn sweep(plan: &Plan, seconds: f64, checks: &mut Checks) -> Timed {
    let opts = plan.sweep_options();
    // Warm-up, excluded from timing; its rows are the reference.
    let reference = run_sweep(&plan.spec, &opts);
    if !check_sweep(plan, checks, &reference) {
        return Timed::default();
    }
    let Ok(reference) = reference else {
        return Timed::default();
    };
    let mut timed = Timed {
        gates_per_call: plan
            .jobs
            .iter()
            .map(|j| plan.artifacts(j).circuit.len())
            .sum(),
        ..Timed::default()
    };
    let mut timer = ScaledTimer::new(plan.workers);
    let start = Instant::now();
    while timed.raw_ms.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let (result, raw, scaled) = timer.time(|| run_sweep(&plan.spec, &opts));
        timed.push(raw, scaled);
        if check_sweep(plan, checks, &result) {
            checks.check(result.is_ok_and(|r| same_rows(&r, &reference)), || {
                "sweep rows differ from the first sweep's".into()
            });
        }
    }
    // Every job once more through the simulator directly, untraced and
    // traced, against the sweep's rows.
    for (job, record) in plan.jobs.iter().zip(&reference.records) {
        let art = plan.artifacts(job);
        let ok = simulate_prepared(art, &job.config).is_ok_and(|r| {
            r.gates_executed == art.circuit.len()
                && record.outcome.as_ref() == Ok(&JobMetrics::from_report(&r))
                && simulate_prepared_traced(art, &job.config, Some(&NullRecorder))
                    .is_ok_and(|t| same_schedule(&t, &r))
        });
        checks.check(ok, || {
            format!(
                "job {}: gates, sweep row or traced report differ",
                record.job.index
            )
        });
    }
    let cycles = |name: &str, scheduler: SchedulerKind| -> f64 {
        let xs: Vec<f64> = reference
            .ok_rows()
            .filter(|(j, _)| j.workload == name && j.config.scheduler == scheduler)
            .map(|(_, m)| m.total_cycles)
            .collect();
        mean(&xs)
    };
    let speedups: Vec<f64> = plan
        .circuits
        .iter()
        .map(|c| cycles(c.name, SchedulerKind::Greedy) / cycles(c.name, SchedulerKind::Rescq))
        .collect();
    let all: Vec<f64> = reference.ok_rows().map(|(_, m)| m.total_cycles).collect();
    timed.sim_cycles_mean = mean(&all);
    timed.rescq_speedup = geomean(&speedups);
    timed
}
