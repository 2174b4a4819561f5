//! Calls into single layers, shared by every workload: piecewise artifact
//! preparation, replays of route planning, MST maintenance and decoding on
//! a workload's own fabric and parameters, and the counters a run reports.

use crate::report::{metric, mix, ratio, Metric};
use crate::spans::Spans;
use rescq_circuit::{DependencyDag, Gate, QubitId};
use rescq_core::{plan_cnot_route, PathCache, SurgeryCosts};
use rescq_decoder::{decode_chain, sample_error, DecoderKind, DecoderRuntime, DetectorGraph};
use rescq_lattice::{AncillaGraph, IncrementalMst, Orientation};
use rescq_sim::{build_layout, ExecutionReport, SimArtifacts, SimConfig};
use rescq_telemetry::{Event, Recorder};
use std::sync::Arc;

/// The recorder attached to traced runs. It drops every event, so the
/// traced/untraced difference is the engine's own instrumentation cost.
#[derive(Debug)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _ev: Event) {}
}

/// One fresh preparation through the public entry points: the circuit,
/// then `SimArtifacts::prepare`.
pub fn prepare(name: &str, circuit_seed: u64, config: &SimConfig) -> Result<SimArtifacts, String> {
    let circuit = rescq_workloads::generate(name, circuit_seed)
        .ok_or_else(|| format!("unknown workload circuit `{name}`"))?;
    SimArtifacts::prepare(Arc::new(circuit), config).map_err(|e| e.to_string())
}

/// The same preparation split by layer, each piece timed as a span.
/// Returns the artifacts and the four durations in milliseconds
/// (`circuit.generate`, `circuit.dag`, `lattice.layout`, `lattice.graph`).
pub fn prepare_by_layer(
    spans: &mut Spans,
    name: &str,
    circuit_seed: u64,
    config: &SimConfig,
) -> Result<(SimArtifacts, [f64; 4]), String> {
    let setup = spans.open("setup");
    let (circuit, gen_ms) = spans.time("circuit.generate", || {
        rescq_workloads::generate(name, circuit_seed)
    });
    let circuit = Arc::new(circuit.ok_or_else(|| format!("unknown workload circuit `{name}`"))?);
    let (dag, dag_ms) = spans.time("circuit.dag", || DependencyDag::new(&circuit));
    let (layout, layout_ms) = spans.time("lattice.layout", || {
        build_layout(circuit.num_qubits(), config)
    });
    let layout = layout.map_err(|e| e.to_string())?;
    let (graph, graph_ms) = spans.time("lattice.graph", || AncillaGraph::from_grid(layout.grid()));
    spans.close(setup);
    let art = SimArtifacts::assemble(circuit, Arc::new(dag), Arc::new(layout), Arc::new(graph));
    Ok((art, [gen_ms, dag_ms, layout_ms, graph_ms]))
}

/// Algorithm-1 route planning over every CNOT of a circuit, on the
/// circuit's own fabric, against a zero-weight MST and a fresh path cache.
pub struct RouteReplay<'a> {
    art: &'a SimArtifacts,
    mst: IncrementalMst,
    orientations: Vec<Orientation>,
    cnots: Vec<(QubitId, QubitId)>,
    distance: u32,
}

impl<'a> RouteReplay<'a> {
    pub fn new(art: &'a SimArtifacts, distance: u32) -> Self {
        let edges: Vec<(u32, u32, u32)> =
            art.graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
        let cnots = art
            .circuit
            .gates()
            .iter()
            .filter_map(|g| match *g {
                Gate::Cnot { control, target } => Some((control, target)),
                _ => None,
            })
            .collect();
        RouteReplay {
            art,
            mst: IncrementalMst::new(art.graph.len(), &edges),
            orientations: vec![Orientation::Standard; art.circuit.num_qubits() as usize],
            cnots,
            distance,
        }
    }

    pub fn cnots(&self) -> usize {
        self.cnots.len()
    }

    /// Plans every CNOT once; returns how many got a route.
    pub fn run(&self) -> usize {
        let mut cache = PathCache::new();
        let costs = SurgeryCosts::default();
        self.cnots
            .iter()
            .filter(|&&(c, t)| {
                plan_cnot_route(
                    &self.art.layout,
                    &self.art.graph,
                    &self.mst,
                    0,
                    &mut cache,
                    c,
                    t,
                    &self.orientations,
                    &costs,
                    self.distance,
                    |_| 0,
                )
                .is_some()
            })
            .count()
    }
}

/// Updates per MST batch: one recomputation period at the paper's `k = 25`.
const MST_BATCH: usize = 25;

/// Batches of `IncrementalMst::update_weight` on an ancilla graph, with
/// weights an activity window of `k = 25` cycles can record.
pub struct MstReplay {
    mst: IncrementalMst,
    batches: Vec<Vec<(u32, u32)>>,
}

impl MstReplay {
    pub fn new(graph: &AncillaGraph, batches: usize, seed: u64) -> Self {
        let edges: Vec<(u32, u32, u32)> = graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
        let num_edges = edges.len().max(1) as u64;
        let batches = (0..batches as u64)
            .map(|b| {
                (0..MST_BATCH as u64)
                    .map(|i| {
                        let r = mix(seed, b * MST_BATCH as u64 + i);
                        (
                            (r % num_edges) as u32,
                            ((r >> 32) % (MST_BATCH as u64 + 1)) as u32,
                        )
                    })
                    .collect()
            })
            .collect();
        MstReplay {
            mst: IncrementalMst::new(graph.len(), &edges),
            batches,
        }
    }

    pub fn batches(&self) -> usize {
        self.batches.len()
    }

    pub fn run_batch(&mut self, b: usize) {
        for &(e, w) in &self.batches[b] {
            self.mst.update_weight(e, w);
        }
    }

    /// Whether the maintained tree still spans the graph.
    pub fn spans_graph(&self) -> bool {
        self.mst.tree_size() + 1 == self.mst.num_nodes()
    }
}

/// Replays `windows` submit/retire pairs through the run's decoder at its
/// distance, error rate and `decoder_channel()`, spreading windows over the
/// fabric's `tiles` ancillas, one `d`-round injection window each. Returns
/// whether every window was retired and the backlog drained.
pub fn replay_decoder(config: &SimConfig, windows: u64, tiles: u32) -> bool {
    let d = config.distance;
    let mut rt = DecoderRuntime::with_channel(&config.decoder, d, config.decoder_channel());
    for i in 0..windows {
        let (id, ready) = rt.submit((i % tiles.max(1) as u64) as u32, d, i * d as u64);
        rt.retire(id, ready);
    }
    rt.stats().windows_decoded == windows && rt.backlog().is_conserved()
}

/// Decodes `windows` sampled `d`-round windows at the run's `(d, p)` with
/// the union-find decoder and checks each correction reproduces its
/// syndrome; returns how many do not. Latency-model decoders produce no
/// corrections to check.
pub fn check_corrections(config: &SimConfig, windows: u64) -> u64 {
    if config.decoder.kind != DecoderKind::UnionFind {
        return 0;
    }
    let d = config.distance;
    let graph = DetectorGraph::new(d, d);
    let channel = config.decoder_channel();
    (0..windows)
        .filter(|&w| {
            let error = sample_error(&graph, channel.error_rate, mix(channel.seed, w));
            let outcome = decode_chain(&graph, &error);
            graph.syndrome_of(&outcome.correction) != graph.syndrome_of(&error)
        })
        .count() as u64
}

/// Whether a traced report equals the untraced one, wall-clock excluded.
pub fn same_schedule(traced: &ExecutionReport, untraced: &ExecutionReport) -> bool {
    let mut t = traced.clone();
    t.phase_nanos = [0; 4];
    &t == untraced
}

/// The counters of a set of runs: per-run means of the counts, and ratios
/// taken over the summed numerators and denominators.
pub fn counter_metrics(reports: &[&ExecutionReport]) -> Vec<Metric> {
    let n = reports.len().max(1) as f64;
    let sum = |f: &dyn Fn(&ExecutionReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r) as f64).sum::<f64>()
    };
    let per_run = |f: &dyn Fn(&ExecutionReport) -> u64| sum(f) / n;
    vec![
        metric(
            "decoder.windows",
            per_run(&|r| r.counters.decode_windows),
            "count",
        ),
        metric(
            "decoder.defects",
            per_run(&|r| r.counters.decode_defects),
            "count",
        ),
        metric(
            "decoder.growth_steps",
            per_run(&|r| r.counters.decode_growth_steps),
            "count",
        ),
        metric(
            "decoder.stall_rounds",
            per_run(&|r| r.counters.decoder_stall_rounds),
            "rounds",
        ),
        metric(
            "decoder.peak_backlog",
            per_run(&|r| r.counters.decoder_peak_backlog),
            "count",
        ),
        metric(
            "core.path_cache_hit_ratio",
            ratio(
                sum(&|r| r.counters.path_cache_hits),
                sum(&|r| r.counters.path_cache_hits + r.counters.path_cache_misses),
            ),
            "ratio",
        ),
        metric(
            "core.cnot_replans",
            per_run(&|r| r.counters.cnot_replans),
            "count",
        ),
        metric(
            "core.preemptions",
            per_run(&|r| r.counters.preemptions),
            "count",
        ),
        metric(
            "core.preemption_accept_ratio",
            ratio(
                sum(&|r| r.counters.preemptions),
                sum(&|r| r.counters.preemptions + r.counters.preemptions_rejected_cycle),
            ),
            "ratio",
        ),
        metric(
            "core.waitgraph_peak_edges",
            per_run(&|r| r.counters.waitgraph_peak_edges),
            "count",
        ),
        metric(
            "lattice.mst_computations",
            per_run(&|r| r.counters.mst_computations),
            "count",
        ),
        metric(
            "rus.prep_success_ratio",
            ratio(
                sum(&|r| r.counters.preps_succeeded),
                sum(&|r| r.counters.preps_started),
            ),
            "ratio",
        ),
        metric(
            "rus.injection_failure_ratio",
            ratio(
                sum(&|r| r.counters.injection_failures),
                sum(&|r| r.counters.injections),
            ),
            "ratio",
        ),
        metric(
            "rus.states_discarded",
            per_run(&|r| r.counters.states_discarded),
            "count",
        ),
        metric(
            "sim.stall_ancilla_cycles",
            per_run(&|r| r.counters.stall_ancilla_cycles),
            "cycles",
        ),
        metric(
            "sim.stall_decoder_cycles",
            per_run(&|r| r.counters.stall_decoder_cycles),
            "cycles",
        ),
        metric(
            "sim.stall_route_cycles",
            per_run(&|r| r.counters.stall_route_cycles),
            "cycles",
        ),
        metric(
            "sim.stall_class_cycles",
            per_run(&|r| r.counters.stall_class_cycles),
            "cycles",
        ),
        metric(
            "sim.idle_fraction",
            reports.iter().map(|r| r.idle_fraction()).sum::<f64>() / n,
            "ratio",
        ),
    ]
}
