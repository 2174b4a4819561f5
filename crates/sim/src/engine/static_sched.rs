//! The static baseline engine: greedy [18] and AutoBraid [16] scheduling.
//!
//! Both baselines execute the dependency DAG layer by layer — "execution of
//! the next layer is stalled until the gate with the highest execution time
//! of the current layer is completed" (§3.1) — and use the naive Rz protocol:
//! exactly one designated ancilla per data qubit prepares `|mθ⟩`, preparation
//! starts only when the gate's layer begins (no eager prep), and an injection
//! failure restarts preparation from scratch with the doubled angle (§5.1,
//! Fig 1d).
//!
//! The two baselines differ in routing order within a layer: greedy routes in
//! program order with the current shortest free path; AutoBraid sorts the
//! layer's CNOTs by endpoint distance and routes them as an edge-disjoint
//! batch, which extracts more parallelism.

use crate::engine::region::RegionPartition;
use crate::engine::{qubit_adjacency, EventQueue};
use crate::fabric::Fabric;
use crate::metrics::{ExecutionReport, LatencyHistogram, RunCounters};
use crate::{SimConfig, SimError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::{Angle, Circuit, DependencyDag, Gate, GateId, QubitId};
use rescq_core::{
    plan_static_route, Bitset, LedgerEvent, QueueEntry, ReservationLedger, Role, SchedulerKind,
    StaticRouteOutcome, SurgeryCosts, TaskId, VecPool,
};
use rescq_decoder::{DecoderRuntime, WindowId};
use rescq_lattice::{AncillaIndex, BfsScratch, DataAdjacency};
use rescq_rus::{InjectionLadder, PreparationModel};
use rescq_telemetry::{Event as TraceEvent, Phase, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Per-gate state within the current layer.
#[derive(Debug)]
enum LayerGate {
    Hadamard {
        qubit: QubitId,
        running: bool,
    },
    Rz {
        qubit: QubitId,
        ladder: InjectionLadder,
        designated: AncillaIndex,
        phase: RzPhase,
    },
    Cnot {
        control: QubitId,
        target: QubitId,
        phase: CnotPhase,
    },
    Done,
}

impl LayerGate {
    /// Whether a dispatch attempt may act on this gate: an H not yet
    /// running, an Rz that needs a preparation or is ready to inject, a
    /// CNOT that needs a route. Any other gate is done or has its
    /// operation in flight, and [`dispatch_gate`] leaves it untouched and
    /// draws nothing.
    fn can_act(&self) -> bool {
        match self {
            LayerGate::Hadamard { running, .. } => !*running,
            LayerGate::Rz { phase, .. } => {
                matches!(phase, RzPhase::NeedPrep | RzPhase::ReadyToInject)
            }
            LayerGate::Cnot { phase, .. } => *phase == CnotPhase::NeedRoute,
            LayerGate::Done => false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RzPhase {
    NeedPrep,
    Prepping,
    ReadyToInject,
    Injecting,
}

#[derive(Debug, Clone, PartialEq)]
enum CnotPhase {
    NeedRoute,
    Rotating,
    /// Surgery in flight over this path (released at `SurgeryDone`).
    Surgery(Vec<AncillaIndex>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)] // the shared postfix is the point: each is a completion
enum Ev {
    HDone(usize),
    PrepDone(usize),
    InjectDone {
        idx: usize,
        helper: Option<AncillaIndex>,
        rounds: u32,
    },
    /// The classical decoder finished an injection's syndrome window; its
    /// outcome becomes visible to the ladder now.
    DecodeDone {
        idx: usize,
        success: bool,
        window: WindowId,
    },
    /// The classical decoder finished a preparation-verification window
    /// (`DecoderConfig::decode_prep`); the prepared state is usable now.
    PrepDecoded {
        idx: usize,
        window: WindowId,
    },
    RotationDone {
        idx: usize,
        qubit: QubitId,
    },
    SurgeryDone(usize),
}

impl Ev {
    /// The layer slot whose gate the event completes a step of.
    fn slot(self) -> usize {
        match self {
            Ev::HDone(idx) | Ev::PrepDone(idx) | Ev::SurgeryDone(idx) => idx,
            Ev::InjectDone { idx, .. }
            | Ev::DecodeDone { idx, .. }
            | Ev::PrepDecoded { idx, .. }
            | Ev::RotationDone { idx, .. } => idx,
        }
    }
}

/// Held routing buffers of a static run: the BFS scratch every route
/// attempt searches in, and the recycled path buffers of in-flight
/// surgeries (taken at a route, returned at `SurgeryDone`).
#[derive(Default)]
struct RouteBuffers {
    bfs: BfsScratch,
    paths: VecPool<AncillaIndex>,
}

/// Runs a static baseline schedule. `recorder` attaches a structured
/// trace sink: ledger claims/wait edges, ancilla occupancy, and phase
/// spans — each layer's setup (building, sorting and registering its
/// gates) as [`Phase::Schedule`] and each dispatch pass as
/// [`Phase::Start`]. `None` runs untraced with zero instrumentation cost
/// and reports zero phase time. Task ids in static-engine events are
/// per-layer slot indices, reused across layers.
///
/// Per-run tables (each qubit's tile adjacency and designated ancilla)
/// are built once; the layer's gate list, its start frontier, the event
/// queue, the BFS scratch and the surgery path buffers are reused across
/// layers, so a warm run routes without allocating.
///
/// A dispatch pass tries only the layer's start frontier: the slots whose
/// gate can act ([`LayerGate::can_act`]), in ascending slot order. A slot
/// leaves it when its attempt puts the gate in flight, and an event puts
/// back the slot it moved to an actable phase. A scan over every slot
/// makes the same attempts in the same order, because its other visits
/// are no-ops that draw nothing.
pub(crate) fn run_static(
    circuit: &Circuit,
    dag: Arc<DependencyDag>,
    config: &SimConfig,
    kind: SchedulerKind,
    mut fabric: Fabric,
    mut rng: ChaCha8Rng,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    let d = config.rounds_per_cycle();
    let prep_model = PreparationModel::with_calibration(config.rus_params(), config.calibration);
    let costs = SurgeryCosts::default();
    let max_rounds = config.max_cycles.saturating_mul(d as u64);

    let mut clock: u64 = 0;
    let mut counters = RunCounters::default();
    // Mirror of the realtime engine's reservation ledger: static baselines
    // never reorder (no preemption), but their designated-ancilla claims and
    // in-flight routes go through the same API so the wait-graph counters
    // are comparable across schedulers. Accounting only — no decision below
    // reads the ledger.
    let mut ledger = ReservationLedger::new(fabric.num_ancillas());
    // Occupancy/ledger tracing mirrors the realtime engine: the same
    // fabric-derived region partition, the same transition-only
    // AncillaState stream, all sampled from pure schedule state.
    let partition = RegionPartition::for_fabric(fabric.num_ancillas());
    let mut traced_occupancy = if recorder.is_some() {
        ledger.enable_event_log();
        vec![(0u32, false); fabric.num_ancillas()]
    } else {
        Vec::new()
    };
    // Wall-clock per phase, accumulated only when traced.
    let mut phase_nanos = [0u64; 4];
    let phase_start = || recorder.is_some().then(Instant::now);
    let mut cnot_latency = LatencyHistogram::new();
    let mut rz_latency = LatencyHistogram::new();
    let mut decoder = DecoderRuntime::with_channel(&config.decoder, d, config.decoder_channel());
    let mut decode_latency = LatencyHistogram::new();
    let mut gates_executed = 0usize;
    let achieved_compression = fabric.layout.compression();

    // Geometry never changes mid-run: each qubit's tile adjacency and the
    // dense index of its designated prep ancilla are read from tables.
    let adjacency = qubit_adjacency(&fabric, circuit.num_qubits());
    let designated_of: Vec<Option<AncillaIndex>> = (0..circuit.num_qubits())
        .map(|q| {
            fabric
                .layout
                .designated_prep_ancilla(QubitId(q))
                .and_then(|tile| fabric.graph.index_of(tile))
        })
        .collect();
    let mut gates: Vec<(GateId, LayerGate)> = Vec::new();
    let mut frontier = Bitset::new();
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut route = RouteBuffers::default();

    for layer in dag.layers() {
        let t0 = phase_start();
        let layer_start = clock;
        gates.clear();
        for &gid in layer {
            let gate = circuit.gate(gid);
            gates_executed += 1;
            if gate.is_free() {
                continue; // software gate: zero cycles
            }
            let state = match gate {
                Gate::H { qubit } => LayerGate::Hadamard {
                    qubit,
                    running: false,
                },
                Gate::Rz { qubit, angle } => LayerGate::Rz {
                    qubit,
                    ladder: InjectionLadder::new(angle),
                    designated: designated_of[qubit.index()]
                        .ok_or(SimError::NoAncillaForQubit(qubit))?,
                    phase: RzPhase::NeedPrep,
                },
                Gate::Cnot { control, target } => LayerGate::Cnot {
                    control,
                    target,
                    phase: CnotPhase::NeedRoute,
                },
                _ => unreachable!("free gates filtered above"),
            };
            gates.push((gid, state));
        }

        // AutoBraid sorts the layer's gates by routing distance; greedy keeps
        // program order.
        if kind == SchedulerKind::Autobraid {
            gates.sort_by_key(|(gid, s)| match s {
                LayerGate::Cnot {
                    control, target, ..
                } => {
                    let a = fabric.layout.data_tile(*control);
                    let b = fabric.layout.data_tile(*target);
                    (fabric.layout.grid().manhattan(a, b), gid.index())
                }
                _ => (0, gid.index()),
            });
        }

        // Register the layer's designated-ancilla claims with the ledger
        // (after the AutoBraid sort so task ids match slot indices). The
        // naive protocol claims its designated ancilla for the gate's whole
        // lifetime; two same-layer rotations sharing one ancilla show up as
        // a ledger wait edge.
        for (idx, (_, state)) in gates.iter().enumerate() {
            if let LayerGate::Rz {
                designated, ladder, ..
            } = state
            {
                ledger.push(
                    *designated,
                    QueueEntry::new(TaskId(idx as u32), Role::PrepZz, ladder.current_angle()),
                );
            }
        }

        let mut remaining = gates
            .iter()
            .filter(|(_, s)| !matches!(s, LayerGate::Done))
            .count();
        frontier.clear();
        for i in 0..gates.len() {
            frontier.insert(i);
        }
        note_phase(recorder, &mut phase_nanos, Phase::Schedule, clock, t0);

        while remaining > 0 {
            // Dispatch pass: try to advance every gate that can act.
            let t1 = phase_start();
            let mut next = frontier.first();
            while let Some(i) = next {
                dispatch_gate(
                    i,
                    &mut gates,
                    &mut fabric,
                    &mut ledger,
                    &mut events,
                    &mut rng,
                    &prep_model,
                    &mut counters,
                    clock,
                    d,
                    &costs,
                    &adjacency,
                    &mut route,
                )?;
                if !gates[i].1.can_act() {
                    frontier.remove(i);
                }
                next = frontier.next_from(i + 1);
            }
            note_phase(recorder, &mut phase_nanos, Phase::Start, clock, t1);
            #[cfg(debug_assertions)]
            audit_static_frontier(&gates, &frontier);
            drain_trace(
                recorder,
                &mut ledger,
                &fabric,
                &partition,
                &mut traced_occupancy,
                clock,
            );
            if remaining == 0 {
                break;
            }
            let Some((t, ev)) = events.pop() else {
                return Err(SimError::Deadlock {
                    round: clock,
                    detail: format!("layer stalled with {remaining} gates pending"),
                });
            };
            clock = t;
            if clock > max_rounds {
                return Err(SimError::WatchdogExceeded {
                    cycles: clock / d as u64,
                });
            }
            let slot = handle_event(
                ev,
                &mut gates,
                &mut fabric,
                &mut ledger,
                &mut events,
                &mut rng,
                &mut counters,
                &mut remaining,
                &mut cnot_latency,
                &mut rz_latency,
                &mut decoder,
                &mut decode_latency,
                &mut route.paths,
                layer_start,
                clock,
                d,
            );
            if gates[slot].1.can_act() {
                frontier.insert(slot);
            }
        }
        // Every gate's last event completed it, so the queue is drained
        // and carries nothing into the next layer.
        debug_assert!(events.is_empty());
        // Catch the final completions of the layer (releases, pops).
        drain_trace(
            recorder,
            &mut ledger,
            &fabric,
            &partition,
            &mut traced_occupancy,
            clock,
        );
    }

    let dec = decoder.stats();
    debug_assert!(decoder.backlog().is_conserved());
    debug_assert_eq!(decoder.backlog().in_flight(), 0);
    counters.decode_windows = dec.windows_submitted;
    counters.decoder_stall_rounds = dec.stall_rounds;
    counters.decoder_peak_backlog = dec.peak_backlog;
    counters.decode_defects = dec.defects;
    counters.decode_growth_steps = dec.growth_steps;
    counters.decode_failures = dec.logical_failures;
    counters.waitgraph_peak_edges = ledger.stats().waitgraph_peak_edges;
    debug_assert_eq!(
        ledger.stats().preemptions,
        0,
        "static engines never preempt"
    );

    Ok(ExecutionReport {
        scheduler: kind,
        seed: config.seed,
        distance: d,
        total_rounds: clock,
        gates_executed,
        cnot_latency,
        rz_latency,
        decode_latency,
        data_busy_rounds: fabric.total_qubit_busy_rounds(),
        num_qubits: circuit.num_qubits(),
        achieved_compression,
        k_used: 0,
        tau_used: 0,
        counters,
        // Layer setup and dispatch passes, timed only when traced.
        phase_nanos,
    })
}

/// Closes a phase timed from `start` (`Some` only when traced): adds its
/// wall-clock to `phase_nanos` and emits a [`TraceEvent::PhaseSpan`]
/// stamped with `round`.
fn note_phase(
    recorder: Option<&dyn Recorder>,
    phase_nanos: &mut [u64; 4],
    phase: Phase,
    round: u64,
    start: Option<Instant>,
) {
    let (Some(rec), Some(t0)) = (recorder, start) else {
        return;
    };
    let dur_ns = t0.elapsed().as_nanos() as u64;
    phase_nanos[phase.index()] += dur_ns;
    rec.record(TraceEvent::PhaseSpan {
        phase,
        round,
        dur_ns,
    });
}

/// Debug audit of the static start frontier: every slot outside it must
/// hold a gate that is done or has its operation in flight — an H running,
/// an Rz preparing or injecting (which covers awaiting a decode), a CNOT
/// rotating or in surgery — read from the gate's state. An event that
/// forgot to put its slot back fails here instead of stalling the layer
/// or changing a schedule.
#[cfg(debug_assertions)]
fn audit_static_frontier(gates: &[(GateId, LayerGate)], frontier: &Bitset) {
    for (i, (gid, state)) in gates.iter().enumerate() {
        let in_flight = match state {
            LayerGate::Done => true,
            LayerGate::Hadamard { running, .. } => *running,
            LayerGate::Rz { phase, .. } => {
                matches!(phase, RzPhase::Prepping | RzPhase::Injecting)
            }
            LayerGate::Cnot { phase, .. } => {
                matches!(phase, CnotPhase::Rotating | CnotPhase::Surgery(_))
            }
        };
        assert!(
            frontier.contains(i) || in_flight,
            "slot {i} (gate {gid:?}) left the static start frontier while it could act: {state:?}"
        );
    }
}

/// Forwards buffered ledger events (stamped with the current round) and
/// emits ancilla-occupancy transitions, mirroring the realtime engine's
/// `drain_ledger_events` + `sample_occupancy`. A no-op — one check —
/// when no recorder is attached.
fn drain_trace(
    recorder: Option<&dyn Recorder>,
    ledger: &mut ReservationLedger,
    fabric: &Fabric,
    partition: &RegionPartition,
    occupancy: &mut [(u32, bool)],
    round: u64,
) {
    let Some(rec) = recorder else { return };
    for ev in ledger.take_events() {
        rec.record(match ev {
            LedgerEvent::Claim { task, ancilla } => TraceEvent::Claim {
                round,
                task: task.0 as u64,
                ancilla,
            },
            LedgerEvent::Preempted {
                task,
                ancilla,
                class_won,
            } => TraceEvent::Preemption {
                round,
                task: task.0 as u64,
                ancilla,
                class_won,
            },
            LedgerEvent::Rejected { task, ancilla } => TraceEvent::PreemptionRejected {
                round,
                task: task.0 as u64,
                ancilla,
            },
            LedgerEvent::WaitEdge {
                waiter,
                holder,
                ancilla,
            } => TraceEvent::WaitEdge {
                round,
                waiter: waiter.0 as u64,
                holder: holder.0 as u64,
                ancilla,
            },
        });
    }
    for a in 0..fabric.num_ancillas() as u32 {
        let busy = !fabric.ancilla_free(a, round);
        let depth = ledger.queue(a).len() as u32;
        let last = &mut occupancy[a as usize];
        if *last != (depth, busy) {
            *last = (depth, busy);
            rec.record(TraceEvent::AncillaState {
                round,
                ancilla: a,
                region: partition.region_of(a),
                depth,
                busy,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_gate(
    idx: usize,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    events: &mut EventQueue<Ev>,
    rng: &mut ChaCha8Rng,
    prep_model: &PreparationModel,
    counters: &mut RunCounters,
    now: u64,
    d: u32,
    costs: &SurgeryCosts,
    adjacency: &[DataAdjacency],
    route: &mut RouteBuffers,
) -> Result<(), SimError> {
    // Split borrows: read geometry immutably, mutate the single state slot.
    let (_, ref mut state) = gates[idx];
    match state {
        LayerGate::Done => {}
        LayerGate::Hadamard { qubit, running } => {
            if !*running && fabric.qubit_free(*qubit, now) {
                let until = now + costs.hadamard_cycles as u64 * d as u64;
                fabric.occupy_qubit(*qubit, now, until);
                events.push(until, Ev::HDone(idx));
                *running = true;
            }
        }
        LayerGate::Rz {
            qubit,
            designated,
            phase,
            ..
        } => match *phase {
            RzPhase::NeedPrep => {
                let a = *designated;
                let owner = idx as u64;
                if fabric.ancilla_free(a, now) || fabric.is_held_by(a, owner) {
                    if !fabric.is_held_by(a, owner) {
                        fabric.hold_ancilla(a, owner);
                    }
                    let rounds = prep_model.sample_prep_rounds(rng);
                    counters.preps_started += 1;
                    events.push(now + rounds, Ev::PrepDone(idx));
                    *phase = RzPhase::Prepping;
                }
            }
            RzPhase::ReadyToInject => {
                let qubit = *qubit;
                let a = *designated;
                if !fabric.qubit_free(qubit, now) {
                    return Ok(());
                }
                let data = fabric.layout.data_tile(qubit);
                let a_tile = fabric.graph.tile(a);
                let orient = fabric.orientation[qubit.index()];
                let side = fabric.layout.grid().side_towards(data, a_tile);
                let (cycles, helper) = match side {
                    Some(s) if orient.edge_at(s) == rescq_lattice::EdgeType::Z => {
                        (costs.zz_injection_cycles, None)
                    }
                    Some(_) => (costs.cnot_injection_cycles, None),
                    None => {
                        // Diagonal prep ancilla: CNOT injection through a free
                        // side-adjacent helper touching both tiles.
                        let helper = adjacency[qubit.index()]
                            .side
                            .iter()
                            .filter_map(|&(_, t)| fabric.graph.index_of(t))
                            .find(|&h| {
                                fabric.ancilla_free(h, now)
                                    && fabric.graph.neighbors(h).contains(&a)
                            });
                        match helper {
                            Some(h) => (costs.cnot_injection_cycles, Some(h)),
                            None => {
                                // All geometric helpers held by other preps →
                                // solo fallback keeps the run live; merely
                                // busy helpers → wait.
                                let any_transiently_busy = adjacency[qubit.index()]
                                    .side
                                    .iter()
                                    .filter_map(|&(_, t)| fabric.graph.index_of(t))
                                    .any(|h| !fabric.is_held(h) && !fabric.ancilla_free(h, now));
                                if any_transiently_busy {
                                    return Ok(());
                                }
                                (costs.cnot_injection_cycles, None)
                            }
                        }
                    }
                };
                let until = now + cycles as u64 * d as u64;
                fabric.occupy_qubit(qubit, now, until);
                if let Some(h) = helper {
                    fabric.occupy_ancilla(h, now, until);
                }
                counters.injections += 1;
                events.push(
                    until,
                    Ev::InjectDone {
                        idx,
                        helper,
                        rounds: (until - now) as u32,
                    },
                );
                *phase = RzPhase::Injecting;
            }
            RzPhase::Prepping | RzPhase::Injecting => {}
        },
        LayerGate::Cnot {
            control,
            target,
            phase,
        } => {
            if *phase != CnotPhase::NeedRoute {
                return Ok(());
            }
            let (control, target) = (*control, *target);
            if !fabric.qubit_free(control, now) || !fabric.qubit_free(target, now) {
                return Ok(());
            }
            let mut path = route.paths.take();
            let outcome = plan_static_route(
                &fabric.graph,
                control,
                target,
                &adjacency[control.index()],
                &adjacency[target.index()],
                &fabric.orientation,
                |a| !fabric.ancilla_free(a, now),
                &mut route.bfs,
                &mut path,
            );
            match outcome {
                StaticRouteOutcome::Route => {
                    let until = now + costs.cnot_cycles as u64 * d as u64;
                    fabric.occupy_qubit(control, now, until);
                    fabric.occupy_qubit(target, now, until);
                    for &a in &path {
                        fabric.occupy_ancilla(a, now, until);
                        ledger.push(
                            a,
                            QueueEntry::new(TaskId(idx as u32), Role::Route, Angle::ZERO),
                        );
                    }
                    counters.cnot_surgeries += 1;
                    events.push(until, Ev::SurgeryDone(idx));
                    *phase = CnotPhase::Surgery(path);
                }
                StaticRouteOutcome::NeedRotation { qubit, using } => {
                    route.paths.put(path);
                    let until = now + costs.edge_rotation_cycles as u64 * d as u64;
                    fabric.occupy_qubit(qubit, now, until);
                    fabric.occupy_ancilla(using, now, until);
                    counters.edge_rotations += 1;
                    events.push(until, Ev::RotationDone { idx, qubit });
                    *phase = CnotPhase::Rotating;
                }
                StaticRouteOutcome::Blocked => route.paths.put(path),
            }
        }
    }
    Ok(())
}

/// Applies one completion event and returns the slot it belongs to, the
/// only gate whose phase it can change.
#[allow(clippy::too_many_arguments)]
fn handle_event(
    ev: Ev,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    events: &mut EventQueue<Ev>,
    rng: &mut ChaCha8Rng,
    counters: &mut RunCounters,
    remaining: &mut usize,
    cnot_latency: &mut LatencyHistogram,
    rz_latency: &mut LatencyHistogram,
    decoder: &mut DecoderRuntime,
    decode_latency: &mut LatencyHistogram,
    paths: &mut VecPool<AncillaIndex>,
    layer_start: u64,
    now: u64,
    d: u32,
) -> usize {
    let slot = ev.slot();
    let latency_cycles = (now - layer_start).div_ceil(d as u64);
    match ev {
        Ev::HDone(idx) => {
            if let (_, LayerGate::Hadamard { qubit, .. }) = &gates[idx] {
                fabric.flip_orientation(*qubit);
            }
            gates[idx].1 = LayerGate::Done;
            *remaining -= 1;
        }
        Ev::PrepDone(idx) => {
            // With `decode_prep` on, the verification measurement's window
            // must be decoded before the state counts as prepared.
            if decoder.decodes_prep() {
                let tile = match &gates[idx].1 {
                    LayerGate::Rz { designated, .. } => *designated,
                    _ => 0,
                };
                let (window, ready_at) = decoder.submit(tile, d, now);
                if ready_at > now {
                    events.push(ready_at, Ev::PrepDecoded { idx, window });
                    return slot;
                }
                decode_latency.record(decoder.retire(window, now));
            }
            counters.preps_succeeded += 1;
            if let (_, LayerGate::Rz { phase, .. }) = &mut gates[idx] {
                *phase = RzPhase::ReadyToInject;
            }
        }
        Ev::PrepDecoded { idx, window } => {
            decode_latency.record(decoder.retire(window, now));
            counters.preps_succeeded += 1;
            if let (_, LayerGate::Rz { phase, .. }) = &mut gates[idx] {
                *phase = RzPhase::ReadyToInject;
            }
        }
        Ev::InjectDone { idx, rounds, .. } => {
            // The measurement happens now; the outcome is visible to the
            // ladder only once its syndrome window is decoded.
            let success = rng.gen_bool(0.5);
            if !success {
                counters.injection_failures += 1;
            }
            let tile = match &gates[idx].1 {
                LayerGate::Rz { designated, .. } => *designated,
                _ => 0,
            };
            let (window, ready_at) = decoder.submit(tile, rounds.max(1), now);
            if ready_at > now {
                events.push(
                    ready_at,
                    Ev::DecodeDone {
                        idx,
                        success,
                        window,
                    },
                );
            } else {
                decode_latency.record(decoder.retire(window, now));
                apply_rz_outcome(
                    idx,
                    success,
                    gates,
                    fabric,
                    ledger,
                    remaining,
                    rz_latency,
                    latency_cycles,
                    now,
                );
            }
        }
        Ev::DecodeDone {
            idx,
            success,
            window,
        } => {
            decode_latency.record(decoder.retire(window, now));
            apply_rz_outcome(
                idx,
                success,
                gates,
                fabric,
                ledger,
                remaining,
                rz_latency,
                latency_cycles,
                now,
            );
        }
        Ev::RotationDone { idx, qubit } => {
            fabric.flip_orientation(qubit);
            if let (_, LayerGate::Cnot { phase, .. }) = &mut gates[idx] {
                *phase = CnotPhase::NeedRoute;
            }
        }
        Ev::SurgeryDone(idx) => {
            if let LayerGate::Cnot {
                phase: CnotPhase::Surgery(path),
                ..
            } = std::mem::replace(&mut gates[idx].1, LayerGate::Done)
            {
                for &a in &path {
                    ledger.remove_task(a, TaskId(idx as u32));
                }
                paths.put(path);
            }
            cnot_latency.record(latency_cycles);
            *remaining -= 1;
        }
    }
    slot
}

/// Advances an Rz ladder with a decoded injection outcome.
#[allow(clippy::too_many_arguments)]
fn apply_rz_outcome(
    idx: usize,
    success: bool,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    remaining: &mut usize,
    rz_latency: &mut LatencyHistogram,
    latency_cycles: u64,
    now: u64,
) {
    if let (
        _,
        LayerGate::Rz {
            ladder,
            designated,
            phase,
            ..
        },
    ) = &mut gates[idx]
    {
        match ladder.record_outcome(success) {
            rescq_rus::LadderStep::Done => {
                fabric.release_ancilla(*designated, now);
                ledger.remove_task(*designated, TaskId(idx as u32));
                rz_latency.record(latency_cycles);
                gates[idx].1 = LayerGate::Done;
                *remaining -= 1;
            }
            rescq_rus::LadderStep::NeedCorrection(_) => {
                // Naive protocol: restart preparation from scratch for the
                // doubled angle on the same ancilla.
                *phase = RzPhase::NeedPrep;
            }
        }
    }
}
