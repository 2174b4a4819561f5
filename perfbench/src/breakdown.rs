//! The traced per-layer run (`--trace 1`). Every simulation runs twice in a
//! row, untraced then traced, so both see the same host conditions; the
//! engine's `phase_nanos` give the dispatch phases, the benchmark's own
//! spans time every other layer call, and the report counters give the
//! simulated work.

use crate::alloc;
use crate::e2e::check_sweep;
use crate::layers::{
    check_corrections, counter_metrics, prepare_by_layer, replay_decoder, same_schedule, MstReplay,
    NullRecorder, RouteReplay,
};
use crate::plan::{Plan, Workload};
use crate::report::{median, metric, Checks, Metric, Outcome};
use crate::spans::Spans;
use rescq_harness::{run_sweep, JobMetrics};
use rescq_sim::{simulate_prepared, simulate_prepared_traced, ExecutionReport};
use std::path::Path;
use std::time::Instant;

/// Repetitions of each layer replay (medians are reported).
const REPS: usize = 5;
/// MST update batches replayed per ancilla graph.
const MST_BATCHES: usize = 200;

/// Sums over one group of simulations: one job for `ising_*`, the whole
/// grid for `compressed_sweep`.
#[derive(Default)]
struct Group {
    untraced_ms: f64,
    traced_ms: f64,
    phases_ms: [f64; 4],
    cycles: f64,
    allocs: f64,
    bytes: f64,
    runs: f64,
}

pub fn run(plan: &Plan, seconds: f64, seed: u64) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new();
    let mut metrics = setup_metrics(plan, &mut spans, &mut checks);

    // Groups: each `ising_*` run on its own, or the whole sweep grid.
    let groups: Vec<Vec<usize>> = if plan.workload == Workload::CompressedSweep {
        vec![(0..plan.jobs.len()).collect()]
    } else {
        (0..plan.jobs.len()).map(|j| vec![j]).collect()
    };
    let mut refs: Vec<Option<ExecutionReport>> = vec![None; plan.jobs.len()];
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); plan.jobs.len()];
    let mut samples: Vec<Group> = Vec::new();
    let start = Instant::now();
    while samples.len() < groups.len() || start.elapsed().as_secs_f64() < seconds {
        let run = samples.len();
        spans.set_run(run as u64);
        let mut g = Group::default();
        for &j in &groups[run % groups.len()] {
            let job = &plan.jobs[j];
            let art = plan.artifacts(job);
            let ((untraced, allocs, bytes), ms) = spans.time("sim.simulate", || {
                alloc::counted(|| simulate_prepared(art, &job.config))
            });
            let (traced, traced_ms) = spans.time("sim.simulate_traced", || {
                simulate_prepared_traced(art, &job.config, Some(&NullRecorder))
            });
            let (Ok(u), Ok(t)) = (untraced, traced) else {
                checks.check(false, || format!("job {j}: simulation error"));
                continue;
            };
            let ok = u.gates_executed == art.circuit.len()
                && same_schedule(&t, &u)
                && refs[j].as_ref().is_none_or(|r| *r == u);
            checks.check(ok, || {
                format!("job {j}: gates, traced report or rerun differ")
            });
            job_ms[j].push(ms);
            g.untraced_ms += ms;
            g.traced_ms += traced_ms;
            for (sum, ns) in g.phases_ms.iter_mut().zip(t.phase_nanos) {
                *sum += ns as f64 / 1e6;
            }
            g.cycles += u.total_cycles();
            g.allocs += allocs as f64;
            g.bytes += bytes as f64;
            g.runs += 1.0;
            refs[j].get_or_insert(u);
        }
        samples.push(g);
    }
    let med = |f: &dyn Fn(&Group) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let phases: Vec<f64> = (0..4).map(|p| med(&|g| g.phases_ms[p])).collect();
    metrics.extend([
        metric("sim.schedule_ms", phases[0], "ms"),
        metric("sim.start_ms", phases[1], "ms"),
        metric("sim.propose_ms", phases[2], "ms"),
        metric("sim.commit_ms", phases[3], "ms"),
        metric(
            "sim.phase_coverage",
            med(&|g| g.phases_ms.iter().sum::<f64>() / g.traced_ms),
            "ratio",
        ),
        metric(
            "sim.unattributed_ms",
            med(&|g| g.traced_ms - g.phases_ms.iter().sum::<f64>()),
            "ms",
        ),
        metric(
            "sim.host_us_per_sim_cycle",
            med(&|g| g.untraced_ms * 1e3 / g.cycles),
            "us",
        ),
        metric("sim.allocs_per_run", med(&|g| g.allocs / g.runs), "count"),
        metric("sim.alloc_bytes_per_run", med(&|g| g.bytes / g.runs), "B"),
    ]);

    let reports: Vec<&ExecutionReport> = refs.iter().flatten().collect();
    metrics.push(route_metric(plan, &mut spans, &mut checks));
    metrics.push(mst_metric(plan, &mut spans, seed, &mut checks));
    metrics.extend(decoder_metrics(plan, &refs, &mut spans, &mut checks));
    metrics.extend(counter_metrics(&reports));
    let serial_ms: f64 = job_ms
        .iter()
        .take(plan.spec.expand().len())
        .map(|w| median(w))
        .sum();
    metrics.extend(harness_metrics(
        plan,
        &refs,
        serial_ms,
        &mut spans,
        &mut checks,
    ));
    metrics.push(metric(
        "telemetry.trace_overhead_pct",
        med(&|g| (g.traced_ms / g.untraced_ms - 1.0) * 100.0),
        "%",
    ));

    let path = Path::new(".bench_out").join(format!("spans-{}-{seed}.jsonl", plan.workload.name()));
    checks.check(spans.write_jsonl(&path).is_ok(), || {
        format!("cannot write {}", path.display())
    });
    let mut notes = vec![format!(
        "{}: {} traced/untraced samples in {seconds} s; spans in {}",
        plan.workload.name(),
        samples.len(),
        path.display()
    )];
    notes.push(format!(
        "  {:<24} {:>6} {:>12} {:>12}",
        "layer (spans)", "count", "total_ms", "self_ms"
    ));
    for (name, t) in spans.layer_times() {
        notes.push(format!(
            "  {name:<24} {:>6} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        ));
    }
    Outcome {
        checks,
        metrics,
        notes,
    }
}

/// Median time of each preparation layer, summed over the plan's circuits.
fn setup_metrics(plan: &Plan, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let mut reps: Vec<[f64; 4]> = Vec::new();
    for _ in 0..=REPS {
        let mut sum = [0.0; 4];
        for (i, c) in plan.circuits.iter().enumerate() {
            match prepare_by_layer(spans, c.name, c.seed, plan.config_of(i)) {
                Ok((fresh, ms)) => {
                    checks.check(fresh.circuit == c.art.circuit, || {
                        format!("{}: circuit differs on rebuild", c.name)
                    });
                    sum.iter_mut().zip(ms).for_each(|(s, m)| *s += m);
                }
                Err(e) => {
                    checks.check(false, || e);
                }
            }
        }
        reps.push(sum);
    }
    // The first repetition is a warm-up.
    let piece = |i: usize| median(&reps[1..].iter().map(|r| r[i]).collect::<Vec<_>>());
    vec![
        metric("circuit.generate_ms", piece(0), "ms"),
        metric("circuit.dag_ms", piece(1), "ms"),
        metric("lattice.layout_ms", piece(2), "ms"),
        metric("lattice.graph_ms", piece(3), "ms"),
    ]
}

/// Median µs per planned CNOT route over the workload's circuits.
fn route_metric(plan: &Plan, spans: &mut Spans, checks: &mut Checks) -> Metric {
    let distance = plan.jobs[0].config.distance;
    let replays: Vec<RouteReplay> = plan
        .distinct_circuits()
        .map(|c| RouteReplay::new(&c.art, distance))
        .collect();
    let cnots: usize = replays.iter().map(RouteReplay::cnots).sum();
    let mut us = Vec::new();
    for _ in 0..REPS {
        let (planned, ms) = spans.time("core.route_plan", || {
            replays.iter().map(RouteReplay::run).sum::<usize>()
        });
        checks.check(planned == cnots, || {
            format!("{planned} of {cnots} CNOTs routed")
        });
        us.push(ms * 1e3 / cnots.max(1) as f64);
    }
    metric("core.route_plan_us", median(&us), "us")
}

/// Median µs per batch of `k = 25` MST weight updates on the workload's
/// ancilla graphs.
fn mst_metric(plan: &Plan, spans: &mut Spans, seed: u64, checks: &mut Checks) -> Metric {
    let mut us = Vec::new();
    for c in plan.distinct_circuits() {
        let mut replay = MstReplay::new(&c.art.graph, MST_BATCHES, seed);
        for b in 0..replay.batches() {
            let ((), ms) = spans.time("lattice.mst_update", || replay.run_batch(b));
            us.push(ms * 1e3);
        }
        checks.check(replay.spans_graph(), || {
            format!("{}: MST no longer spans the graph", c.name)
        });
    }
    metric("lattice.mst_update_us", median(&us), "us")
}

/// Replays every run's decode windows through its own decoder.
fn decoder_metrics(
    plan: &Plan,
    refs: &[Option<ExecutionReport>],
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<Metric> {
    let runs: Vec<(&rescq_sim::SimConfig, u64, u32)> = plan
        .jobs
        .iter()
        .zip(refs)
        .filter_map(|(job, r)| {
            let r = r.as_ref()?;
            Some((
                &job.config,
                r.counters.decode_windows,
                plan.artifacts(job).graph.len() as u32,
            ))
        })
        .collect();
    let windows: u64 = runs.iter().map(|r| r.1).sum();
    let mut per_run_ms = Vec::new();
    let mut total_ms = Vec::new();
    for _ in 0..REPS {
        let (ok, ms) = spans.time("decoder.replay", || {
            runs.iter()
                .all(|&(config, w, tiles)| replay_decoder(config, w, tiles))
        });
        checks.check(ok, || "decoder replay left windows in flight".into());
        per_run_ms.push(ms / runs.len().max(1) as f64);
        total_ms.push(ms);
    }
    for &(config, w, _) in &runs {
        let bad = check_corrections(config, w);
        checks.check(bad == 0, || {
            format!("{bad} decoder corrections miss their syndrome")
        });
    }
    vec![
        metric("decoder.replay_ms", median(&per_run_ms), "ms"),
        metric(
            "decoder.us_per_window",
            median(&total_ms) * 1e3 / windows.max(1) as f64,
            "us",
        ),
    ]
}

/// The workload's harness sweep: wall, serialization, cache reuse and
/// parallel efficiency against the serial per-job walls measured above.
fn harness_metrics(
    plan: &Plan,
    refs: &[Option<ExecutionReport>],
    serial_ms: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<Metric> {
    let opts = plan.sweep_options();
    let expected: Vec<Option<JobMetrics>> = refs
        .iter()
        .map(|r| r.as_ref().map(JobMetrics::from_report))
        .collect();
    let mut sweep_ms = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let (result, ms) = spans.time("harness.sweep", || run_sweep(&plan.spec, &opts));
        check_sweep(plan, checks, &result);
        if let Ok(r) = result {
            let same = r
                .records
                .iter()
                .zip(&expected)
                .all(|(rec, exp)| exp.as_ref().is_some_and(|e| rec.outcome.as_ref() == Ok(e)));
            checks.check(same, || "sweep rows differ from the direct runs".into());
            last = Some(r);
        }
        sweep_ms.push(ms);
    }
    let Some(results) = last else {
        return Vec::new();
    };
    let mut serialize_ms = Vec::new();
    for _ in 0..REPS {
        let ((csv, json, summaries), ms) = spans.time("harness.serialize", || {
            (results.to_csv(), results.to_json(), results.summaries())
        });
        checks.check(
            !csv.is_empty() && !json.is_empty() && !summaries.is_empty(),
            || "empty sweep serialization".into(),
        );
        serialize_ms.push(ms);
    }
    let c = results.cache;
    let hits = (c.circuit_hits + c.layout_hits) as f64;
    let requests = hits + (c.circuit_builds + c.layout_builds) as f64;
    let sweep = median(&sweep_ms);
    vec![
        metric("harness.sweep_ms", sweep, "ms"),
        metric("harness.serialize_ms", median(&serialize_ms), "ms"),
        metric("harness.cache_hit_ratio", hits / requests.max(1.0), "ratio"),
        metric(
            "harness.parallel_efficiency",
            serial_ms / (plan.workers as f64 * sweep),
            "ratio",
        ),
    ]
}
