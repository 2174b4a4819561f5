//! The RESCQ realtime engine (paper §4).
//!
//! # The dispatch pass
//!
//! Event handling retires strictly in `(round, insertion-order)` sequence —
//! inject outcomes, decode completions, preparation completions, surgeries
//! — and each retirement triggers a *dispatch pass* with four phases:
//!
//! 1. **schedule** — the qubit worklist drains deepest-remaining-chain
//!    first; new gate tasks enqueue their claims through the ledger;
//! 2. **start** — the tasks of the *start frontier* attempt injections and
//!    surgeries, in ascending task id order. A live task leaves the
//!    frontier while its attempt is provably a no-op (a predecessor gate
//!    is unfinished, its operation is in flight, or it is parked on a
//!    blocked route or a missing prepared state) and is woken back by the
//!    event that ends that state: predecessor completion, a decoded
//!    injection outcome, an edge rotation finishing, a dirty ancilla its
//!    route claim tops, a preparation finishing. A stalled CNOT may
//!    preempt younger speculative claims here, through the ledger's
//!    arbitration ([`rescq_core::ReservationLedger::try_preempt_with`]),
//!    which keeps the wait-for graph provably acyclic;
//! 3. **propose** — the dirty, nonempty ancillas are scanned against the
//!    engine state as it stood at the start of the phase, collecting
//!    candidate ancillas (reclaims, preparation starts/restarts) without
//!    mutating anything;
//! 4. **commit** — each candidate is revalidated against committed state
//!    and applied through the ledger, in ascending-ancilla order, so the
//!    RNG draw order, the event order and every counter are fixed by the
//!    inputs alone (golden-pinned in `tests/engines.rs`).
//!
//! The pass repeats until a fixpoint (no phase made progress).
//!
//! Realtime behaviours implemented here, with their paper anchors:
//!
//! - gates are scheduled the moment the previous gate on their data qubit
//!   allows it, not layer-by-layer (§3.1);
//! - rotation gates are enqueued *preemptively* into every valid neighbouring
//!   ancilla queue while the previous gate is still executing (§4.1, Fig 7);
//! - multiple ancillas prepare `|mθ⟩` in parallel; the first success rewrites
//!   the siblings' queue entries in place to the `|m2θ⟩` correction state
//!   (eager preparation, Fig 1e);
//! - injections choose the cheapest available strategy (ZZ through a Z-edge
//!   neighbour, CNOT through an X-edge helper — Table 1);
//! - CNOTs route along the activity-weighted MST using Algorithm 1, with the
//!   stale pipelined recomputation of Fig 8;
//! - ancillas stuck preparing while other operations queue behind them are
//!   *reclaimed* when the rotation has other prep sites (§3.2's `n − m`
//!   redistribution);
//! - when several gates become schedulable simultaneously, qubits with
//!   larger remaining circuit depth go first (Fig 7 caption).

use crate::engine::region::RegionPartition;
use crate::engine::{qubit_adjacency, EventQueue};
use crate::fabric::Fabric;
use crate::metrics::{ExecutionReport, LatencyHistogram, RunCounters};
use crate::{SimConfig, SimError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::{Angle, Circuit, DependencyDag, Gate, GateId, QubitId};
use rescq_core::{
    for_each_set_bit, plan_cnot_route_into, Bitset, EntryStatus, LedgerEvent, MstPipeline,
    PathCache, Preemption, QueueEntry, ReservationLedger, Role, RouteScratch, SchedulerKind,
    SurgeryCosts, TaskId, TauModel, VecPool,
};
use rescq_decoder::{DecoderRuntime, WindowId};
use rescq_lattice::{AncillaIndex, DataAdjacency, EdgeType};
use rescq_rus::{InjectionLadder, LadderStep, PreparationModel};
use rescq_telemetry::{Event as TraceEvent, Phase, Recorder, StallCause};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Activity window `c` in cycles (§4.2): MST edge weights count an
/// ancilla's active cycles among the last `c`.
const ACTIVITY_WINDOW: u32 = 100;

/// Recycled scratch buffers of the cycle loop (the hot-path memory model):
/// every per-pass working set lives here, `mem::take`n out for the duration
/// of the pass and put back cleared, so capacity plateaus at each buffer's
/// high-water mark and the steady-state loop never touches the allocator.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Propose-phase candidate ancillas (committed in ascending order).
    candidates: Vec<u32>,
    /// Per-plan `E[f_a]` memo for route planning.
    expected_free: ExpectedFreeMemo,
    /// `(depth, insertion index, qubit)` triples for the schedule-phase
    /// priority sort (an unstable sort over this key reproduces the stable
    /// deepest-first order without a merge-sort buffer).
    worklist_order: Vec<(std::cmp::Reverse<u32>, u32, QubitId)>,
    /// Candidate-path staging for Algorithm 1.
    route: RouteScratch,
    /// Speculative-task snapshot taken per preemption-eligible ancilla.
    spec_tasks: Vec<TaskId>,
    /// X-side neighbours while enqueueing a rotation's sites.
    x_side: Vec<AncillaIndex>,
    /// The propose-phase scan frontier: `dirty ∩ nonempty` words snapshot
    /// taken at pass start (the ledger's dirty set is cleared immediately
    /// after, so commit-time mutations re-mark for the next pass).
    scan_words: Vec<u64>,
}

/// `E[f_a]` (§4.2) memoised for one route plan: an ancilla's expected-free
/// round is computed the first time the planner asks for it and reused for
/// the rest of that plan, so a plan touches only the ancillas of its ≤ 32
/// candidate paths. Slots are stamped with the plan number, so starting a
/// plan resets nothing.
#[derive(Debug, Default)]
struct ExpectedFreeMemo {
    plan: u32,
    /// `(plan stamp, E[f_a])` per ancilla.
    slots: Vec<(u32, u64)>,
}

impl ExpectedFreeMemo {
    /// Invalidates every memoised value (and sizes the slots once).
    fn begin_plan(&mut self, num_ancillas: usize) {
        if self.slots.len() < num_ancillas {
            self.slots.resize(num_ancillas, (0, 0));
        }
        self.plan = self.plan.wrapping_add(1);
        if self.plan == 0 {
            // Wrapped: clear stale stamps so none can equal a new one.
            self.slots.fill((0, 0));
            self.plan = 1;
        }
    }

    /// `a`'s value in the current plan, computed by `compute` on first use.
    fn get(&mut self, a: AncillaIndex, compute: impl FnOnce() -> u64) -> u64 {
        let slot = &mut self.slots[a as usize];
        if slot.0 != self.plan {
            *slot = (self.plan, compute());
        }
        slot.1
    }
}

/// Capacity-recycling pools for the `Vec`s embedded in task bodies (CNOT
/// paths, rotation site lists). A completing task returns its buffers here;
/// the next scheduled gate reuses them.
#[derive(Debug, Default)]
struct VecPools {
    paths: VecPool<AncillaIndex>,
    sites: VecPool<(AncillaIndex, bool)>,
    helpers: VecPool<AncillaIndex>,
    holders: VecPool<(AncillaIndex, Angle)>,
}

#[derive(Debug)]
enum TaskBody {
    Cnot {
        control: QubitId,
        target: QubitId,
        path: Vec<AncillaIndex>,
        rotating: bool,
        surgery_started: bool,
        /// Round the current path was planned (drives stalled re-planning
        /// on constrained fabrics).
        planned_round: u64,
    },
    Rz {
        qubit: QubitId,
        ladder: InjectionLadder,
        /// Prep sites with whether they are side-adjacent to the data qubit
        /// (side-adjacent sites can always inject on their own; diagonal
        /// sites need a helper).
        prep_sites: Vec<(AncillaIndex, bool)>,
        helper_sites: Vec<AncillaIndex>,
        /// Ancillas holding prepared states, with the angle they hold.
        holders: Vec<(AncillaIndex, Angle)>,
        injecting: bool,
        /// The injection's measurement is in but its feed-forward window is
        /// still queued at the decoder (stall attribution: decoder backlog).
        awaiting_decode: bool,
        /// Preparation-verification windows in flight for this task
        /// (`decode_prep` runs only; same attribution).
        pending_prep_decodes: u32,
    },
    Hadamard {
        qubit: QubitId,
        started: bool,
    },
}

#[derive(Debug)]
struct Task {
    gate: GateId,
    sched_round: u64,
    done: bool,
    body: TaskBody,
    /// The cause this task's stall is charged to at each cycle tick, kept
    /// current by [`RtEngine::refresh_stall`] wherever an input changes.
    stall: Option<StallCause>,
}

/// The propose phase's decision for one ancilla. Proposals carry no
/// payload: the commit phase recomputes the decision against committed
/// state, so a stale proposal is simply dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AncillaAction {
    /// Return a still-preparing ancilla to the pool (§3.2 reclaim).
    Reclaim,
    /// An in-place angle rewrite hit a running preparation: restart it.
    RestartPrep,
    /// Hold the ancilla and start preparing the queue-top rotation state.
    StartPrep,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    PrepDone {
        ancilla: AncillaIndex,
        task: TaskId,
        angle: Angle,
        epoch: u64,
    },
    InjectDone {
        task: TaskId,
        holder: AncillaIndex,
        /// Syndrome rounds the injection's measurement window spans.
        rounds: u32,
    },
    /// The classical decoder finished a feed-forward window; the injection
    /// outcome it carries becomes visible to the scheduler now.
    DecodeDone {
        task: TaskId,
        success: bool,
        window: WindowId,
    },
    /// The classical decoder finished a preparation-verification window
    /// ([`rescq_decoder::DecoderConfig::decode_prep`]); the prepared state
    /// becomes usable now.
    PrepDecoded {
        ancilla: AncillaIndex,
        task: TaskId,
        angle: Angle,
        epoch: u64,
        window: WindowId,
    },
    RotationDone {
        task: TaskId,
        qubit: QubitId,
    },
    SurgeryDone {
        task: TaskId,
    },
    HDone {
        task: TaskId,
    },
    CycleTick,
}

struct RtEngine<'a> {
    circuit: &'a Circuit,
    dag: Arc<DependencyDag>,
    fabric: Fabric,
    costs: SurgeryCosts,
    d: u32,
    clock: u64,
    rng: ChaCha8Rng,
    prep_model: PreparationModel,

    cursor: Vec<usize>,
    gate_done: Vec<bool>,
    gate_scheduled: Vec<bool>,
    done_count: usize,
    last_completion: u64,
    /// `done_count` at the last fixed-point recovery: a second fixed point
    /// with no gate completed since is a recovery livelock.
    recovered_at: Option<usize>,
    /// `(round, cnot_replans)` at the first tick of the current run of
    /// quiescent ticks with no route re-planned ([`Self::at_fixed_point`]).
    quiet_since: Option<(u64, u64)>,

    tasks: Vec<Task>,
    /// Tasks created and not yet completed.
    live: Bitset,
    /// The start phase's frontier: the live tasks whose
    /// [`Self::try_start_task`] may do something. A live task is left out
    /// only while the attempt is provably a no-op (see
    /// [`Self::start_is_noop`]); the events that can end such a state —
    /// task creation, predecessor completion, a decoded injection outcome,
    /// an edge rotation finishing, a preparation finishing, and the
    /// route-wake scan ([`Self::wake_route_claimants`]) — put it back.
    start_frontier: Bitset,
    /// Per gate, how many of its DAG predecessor entries are unfinished
    /// (zero ⇔ every predecessor is done).
    unfinished_preds: Vec<u32>,
    /// The task created for each scheduled gate.
    task_of_gate: Vec<Option<TaskId>>,
    /// Every ancilla queue plus the explicit task wait-for graph over them;
    /// all queue mutations (claim, reclaim, re-plan, preemption) go through
    /// it so the acyclicity invariant is checkable instead of implicit.
    ledger: ReservationLedger,
    prep_epoch: Vec<u64>,
    /// Angle currently being prepared on each ancilla, if any.
    prepping: Vec<Option<Angle>>,

    mst: MstPipeline,
    path_cache: PathCache,
    events: EventQueue<Ev>,
    sched_worklist: Vec<QubitId>,
    /// Recycled per-pass working sets (see [`EngineScratch`]).
    scratch: EngineScratch,
    /// Recycled task-body buffers (see [`VecPools`]).
    pools: VecPools,

    /// Resource-constrained fabric (fewer than ~2 ancillas per data qubit,
    /// i.e. heavily compressed): speculative preparation is throttled so the
    /// scarce ancillas stay available for injections and routing.
    constrained: bool,

    /// Contiguous regions of the ancilla network (a function of the fabric
    /// alone): labels traced occupancy.
    partition: RegionPartition,

    counters: RunCounters,
    cnot_latency: LatencyHistogram,
    rz_latency: LatencyHistogram,
    decoder: DecoderRuntime,
    decode_latency: LatencyHistogram,
    gates_executed: usize,
    /// Expected rounds an Rz queue entry occupies its ancilla (precomputed).
    rz_entry_cost: u64,

    /// Structured-trace sink. `None` (the default) keeps instrumentation to
    /// one inlined check per site; the schedule is bit-identical either way
    /// — recorders only *observe*, every counter they see is also computed
    /// untraced.
    recorder: Option<&'a dyn Recorder>,
    /// Wall-clock nanoseconds per dispatch phase (accumulated only when
    /// traced; reported through [`ExecutionReport::phase_nanos`]).
    phase_nanos: [u64; 4],
    /// Optional per-cycle observation hook (the allocation-regression
    /// harness); observes only, never feeds back into the schedule.
    cycle_probe: Option<&'a dyn Fn(u64)>,
    /// Per-qubit tile adjacency, precomputed once from the static layout:
    /// the hot loop (injection starts, Rz site enqueueing) borrows these
    /// instead of rebuilding — and heap-allocating — them per call.
    adjacency: &'a [DataAdjacency],
    /// Pending fabric-occupancy expiries as `(free_at, ancilla)`: every
    /// `occupy_ancilla` with a future release round is recorded here, and
    /// the ancilla is re-marked in the dispatch frontier the moment the
    /// clock reaches that round. Without this, an ancilla freed purely by
    /// time passage (its surgery/rotation/injection window ending) would
    /// never re-enter the incremental propose scan.
    occupancy_expiries: std::collections::BinaryHeap<std::cmp::Reverse<(u64, AncillaIndex)>>,
    /// Live tasks per stall cause ([`StallCause::index`] order): what each
    /// cycle tick adds to the stall counters.
    stalled: [u64; 3],
    /// Submission round of each in-flight decoder window, kept only while
    /// traced (drives `WindowRetired::stalled_rounds`).
    traced_windows: HashMap<WindowId, u64>,
    /// Last emitted `(depth, busy)` occupancy state per ancilla, kept only
    /// while traced — the cycle tick emits [`TraceEvent::AncillaState`]
    /// transitions (not per-cycle dumps) against this. Empty untraced.
    traced_occupancy: Vec<(u32, bool)>,
}

/// Runs the realtime RESCQ schedule. `recorder` attaches a structured
/// trace sink; `None` runs untraced (identical schedule, no timing).
pub(crate) fn run_realtime(
    circuit: &Circuit,
    dag: Arc<DependencyDag>,
    config: &SimConfig,
    fabric: Fabric,
    rng: ChaCha8Rng,
    recorder: Option<&dyn Recorder>,
    cycle_probe: Option<&dyn Fn(u64)>,
) -> Result<ExecutionReport, SimError> {
    let d = config.rounds_per_cycle();
    let prep_model = PreparationModel::with_calibration(config.rus_params(), config.calibration);
    let num_ancillas = fabric.num_ancillas();
    let edges: Vec<(u32, u32)> = fabric.graph.edges().to_vec();
    let mst = MstPipeline::new(num_ancillas, &edges, config.k_policy, TauModel::default());
    let costs = SurgeryCosts::default();
    let rz_entry_cost = prep_model.expected_rounds().ceil() as u64
        + 2 * costs.cnot_injection_cycles as u64 * d as u64;
    let adjacency = qubit_adjacency(&fabric, circuit.num_qubits());
    let partition = RegionPartition::for_fabric(num_ancillas);

    let mut ledger = ReservationLedger::new(num_ancillas);
    // One task per non-free gate at most: sizing the ledger's edge lists
    // (and the task vectors below) up front keeps task creation off the
    // allocator once the run is warm.
    ledger.reserve_tasks(circuit.len());
    if recorder.is_some() {
        // Arbitration events are buffered only for traced runs; the engine
        // drains them (stamped with the current round) after each dispatch.
        ledger.enable_event_log();
    }

    let unfinished_preds = (0..circuit.len())
        .map(|g| dag.preds(GateId(g)).count() as u32)
        .collect();
    // One task per non-free gate at most, so sets sized to the gate count
    // never grow.
    let task_set = || {
        let mut b = Bitset::default();
        b.reserve(circuit.len());
        b
    };
    let mut engine = RtEngine {
        circuit,
        dag,
        fabric,
        costs,
        d,
        clock: 0,
        rng,
        prep_model,
        cursor: vec![0; circuit.num_qubits() as usize],
        gate_done: vec![false; circuit.len()],
        gate_scheduled: vec![false; circuit.len()],
        done_count: 0,
        last_completion: 0,
        recovered_at: None,
        quiet_since: None,
        tasks: Vec::with_capacity(circuit.len()),
        live: task_set(),
        start_frontier: task_set(),
        unfinished_preds,
        task_of_gate: vec![None; circuit.len()],
        ledger,
        prep_epoch: vec![0; num_ancillas],
        prepping: vec![None; num_ancillas],
        mst,
        path_cache: PathCache::new(),
        events: EventQueue::new(),
        sched_worklist: Vec::new(),
        scratch: EngineScratch::default(),
        pools: VecPools::default(),
        constrained: 2 * num_ancillas <= 4 * circuit.num_qubits() as usize,
        partition,
        counters: RunCounters::default(),
        cnot_latency: LatencyHistogram::new(),
        rz_latency: LatencyHistogram::new(),
        decoder: DecoderRuntime::with_channel(&config.decoder, d, config.decoder_channel()),
        decode_latency: LatencyHistogram::new(),
        gates_executed: 0,
        rz_entry_cost,
        recorder,
        phase_nanos: [0; 4],
        cycle_probe,
        adjacency: &adjacency,
        occupancy_expiries: std::collections::BinaryHeap::new(),
        stalled: [0; 3],
        traced_windows: HashMap::new(),
        traced_occupancy: if recorder.is_some() {
            vec![(0, false); num_ancillas]
        } else {
            Vec::new()
        },
    };
    engine.run(config)
}

impl RtEngine<'_> {
    fn run(&mut self, config: &SimConfig) -> Result<ExecutionReport, SimError> {
        let max_rounds = config.max_cycles.saturating_mul(self.d as u64);
        for q in 0..self.circuit.num_qubits() {
            self.sched_worklist.push(QubitId(q));
        }
        self.events.push(self.d as u64, Ev::CycleTick);

        while self.done_count < self.circuit.len() {
            self.dispatch();
            if self.done_count >= self.circuit.len() {
                break;
            }
            let (t, ev) = self
                .events
                .pop()
                .expect("a cycle tick is pending while gates remain");
            self.clock = t;
            // Fabric occupancies that end at or before the new clock free
            // their ancillas *now*, before any event at this round is
            // handled — put them back in the dispatch frontier exactly
            // where the historical full rescan would have seen them.
            while let Some(&std::cmp::Reverse((when, a))) = self.occupancy_expiries.peek() {
                if when > self.clock {
                    break;
                }
                self.occupancy_expiries.pop();
                self.ledger.mark_dirty(a);
            }
            if self.clock > max_rounds {
                return Err(SimError::WatchdogExceeded {
                    cycles: self.clock / self.d as u64,
                });
            }
            // A tick that was the only pending event, with no occupancy
            // left to expire, finds the state the last dispatch left: only
            // the tick's own inputs (the MST, the re-plan clock) can move it.
            let tick = matches!(ev, Ev::CycleTick);
            let quiescent = tick && self.events.is_empty() && self.occupancy_expiries.is_empty();
            self.handle_event(ev);
            if tick && self.at_fixed_point(quiescent) {
                self.recover_fixed_point()?;
            }
        }
        // A speculative preparation whose task finished elsewhere can still
        // be verifying when the last gate completes (`decode_prep`). No
        // gate waits on it, but the decoder finishes the window: retire it
        // at its ready round so every submitted window is accounted for.
        while self.decoder.backlog().in_flight() > 0 {
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            if let Ev::PrepDecoded { window, .. } = ev {
                self.clock = t;
                let cycles = self.decoder.retire(window, t);
                self.trace_window_retired(window);
                self.decode_latency.record(cycles);
            }
        }

        Ok(ExecutionReport {
            scheduler: SchedulerKind::Rescq,
            seed: config.seed,
            distance: self.d,
            total_rounds: self.last_completion,
            gates_executed: self.gates_executed,
            cnot_latency: std::mem::take(&mut self.cnot_latency),
            rz_latency: std::mem::take(&mut self.rz_latency),
            decode_latency: std::mem::take(&mut self.decode_latency),
            data_busy_rounds: self.fabric.total_qubit_busy_rounds(),
            num_qubits: self.circuit.num_qubits(),
            achieved_compression: self.fabric.layout.compression(),
            k_used: self.mst.k(),
            tau_used: self.mst.tau(),
            counters: {
                let mut c = std::mem::take(&mut self.counters);
                c.mst_computations = self.mst.completed_computations();
                c.mst_incremental_updates = self.mst.incremental_updates();
                c.path_cache_hits = self.path_cache.hits();
                c.path_cache_misses = self.path_cache.misses();
                let dec = self.decoder.stats();
                debug_assert!(self.decoder.backlog().is_conserved());
                debug_assert_eq!(self.decoder.backlog().in_flight(), 0);
                c.decode_windows = dec.windows_submitted;
                c.decoder_stall_rounds = dec.stall_rounds;
                c.decoder_peak_backlog = dec.peak_backlog;
                c.decode_defects = dec.defects;
                c.decode_growth_steps = dec.growth_steps;
                c.decode_failures = dec.logical_failures;
                let ls = self.ledger.stats();
                c.preemptions = ls.preemptions;
                c.preemptions_rejected_cycle = ls.preemptions_rejected_cycle;
                c.waitgraph_peak_edges = ls.waitgraph_peak_edges;
                c
            },
            phase_nanos: self.phase_nanos,
        })
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let traced = self.recorder.is_some();
        loop {
            let mut progress = false;
            // Phase 1 — schedule: new tasks claim queue positions.
            let t0 = traced.then(Instant::now);
            progress |= self.drain_sched_worklist();
            self.note_phase(Phase::Schedule, t0);
            // Phase 2 — start: real work (injections, surgeries) grabs
            // resources before new speculative preparations are started.
            // Frontier tasks are tried in ascending id order — the order
            // of a scan over every live task, whose other members would
            // all return `false` without mutating anything. The walk starts
            // at the frontier's low watermark and ends at its high one.
            let t1 = traced.then(Instant::now);
            self.wake_route_claimants();
            let mut next = self.start_frontier.first();
            while let Some(i) = next {
                let id = TaskId(i as u32);
                progress |= self.try_start_task(id);
                if self.start_is_noop(id) {
                    self.start_frontier.remove(i);
                }
                next = self.start_frontier.next_from(i + 1);
            }
            self.note_phase(Phase::Start, t1);
            #[cfg(debug_assertions)]
            self.audit_start_frontier();
            // Phases 3 + 4 — propose against the phase-start state, then
            // commit in ascending-ancilla order.
            progress |= self.dispatch_ancillas();
            if !progress {
                break;
            }
        }
        self.drain_ledger_events();
    }

    /// Whether [`Self::try_start_task`] on `id` is provably a no-op — it
    /// returns `false` and mutates nothing — until one of the frontier's
    /// wake points fires: the task is done, a predecessor gate is
    /// unfinished, its operation is in flight, or it is parked.
    fn start_is_noop(&self, id: TaskId) -> bool {
        let task = &self.tasks[id.index()];
        task.done
            || self.unfinished_preds[task.gate.index()] > 0
            || self.op_in_flight(task)
            || self.start_is_parked(id, task)
    }

    /// Whether a start attempt of `task` is a pure read that
    /// only a parking wake point can change:
    ///
    /// - a CNOT on an unconstrained fabric whose qubits are free but whose
    ///   path is not ready. The attempt reads only the path's ancilla
    ///   occupancy and queue tops, and every change to those marks the
    ///   ancilla dirty, which [`Self::wake_route_claimants`] turns into a
    ///   wake. A CNOT on a busy qubit stays in the frontier: qubits free up
    ///   by time passage alone, which wakes nothing. (Constrained runs
    ///   preempt and re-plan inside the attempt.)
    /// - an Rz none of whose holders holds the ladder's current angle, so
    ///   [`Self::try_start_injection`] finds no option. The angle changes
    ///   only with a decoded outcome ([`Self::apply_inject_outcome`]) and
    ///   holders grow only in [`Self::on_prep_done`]; both wake the task.
    fn start_is_parked(&self, id: TaskId, task: &Task) -> bool {
        match &task.body {
            TaskBody::Cnot {
                control,
                target,
                path,
                ..
            } => {
                !self.constrained
                    && !path.is_empty()
                    && self.fabric.qubit_free(*control, self.clock)
                    && self.fabric.qubit_free(*target, self.clock)
                    && !self.cnot_path_ready(id, path)
            }
            TaskBody::Rz {
                ladder, holders, ..
            } => holders.iter().all(|&(_, a)| a != ladder.current_angle()),
            TaskBody::Hadamard { .. } => false,
        }
    }

    /// The route-wake scan: puts back in the start frontier the task whose
    /// `Route` claim tops a dirty ancilla. It runs at the top of every
    /// start phase and again in [`Self::dispatch_ancillas`], just before
    /// the propose phase clears the dirty set, so ledger and fabric changes
    /// made by event handling, by commits and by the start phase itself all
    /// reach the parked CNOTs whose path they touch. Only queue tops
    /// matter: a path is ready only when its task tops every queue on it,
    /// so a change that readies a path leaves a dirty ancilla topped by
    /// that task's claim.
    fn wake_route_claimants(&mut self) {
        if self.constrained {
            return; // constrained runs never park CNOTs
        }
        let (ledger, live) = (&self.ledger, &self.live);
        let frontier = &mut self.start_frontier;
        let words = ledger.dirty_words().iter().zip(ledger.nonempty_words());
        for (wi, (&dirty, &nonempty)) in words.enumerate() {
            let mut w = dirty & nonempty;
            while w != 0 {
                let a = (wi * 64) as u32 + w.trailing_zeros();
                w &= w - 1;
                if let Some(top) = ledger.queue(a).top() {
                    if top.role == Role::Route && live.contains(top.task.index()) {
                        frontier.insert(top.task.index());
                    }
                }
            }
        }
    }

    /// Whether `task`'s operation is in flight, which makes its start
    /// attempt a no-op: an H started, a CNOT rotating an endpoint or in
    /// surgery, an Rz injecting (which covers awaiting the decode; a
    /// ladder that completes completes its task at once).
    fn op_in_flight(&self, task: &Task) -> bool {
        match &task.body {
            TaskBody::Hadamard { started, .. } => *started,
            TaskBody::Cnot {
                rotating,
                surgery_started,
                ..
            } => *rotating || *surgery_started,
            TaskBody::Rz { injecting, .. } => *injecting,
        }
    }

    /// Debug audit of the start frontier: every live task outside it must
    /// have an unfinished predecessor — walked through `gate_done`, not the
    /// counter — or an operation in flight, or be a task whose attempt
    /// fails without mutating: an unconstrained CNOT whose path is
    /// empty, whose qubit is busy or whose path is not ready, or an Rz
    /// with no holder at its current angle. Each condition is read from
    /// fabric and ledger state, never from the wake bookkeeping. A wake
    /// point the engine forgot fails here instead of silently changing a
    /// schedule.
    #[cfg(debug_assertions)]
    fn audit_start_frontier(&self) {
        let mut next = self.live.next_from(0);
        while let Some(i) = next {
            next = self.live.next_from(i + 1);
            let task = &self.tasks[i];
            let waiting = !self.dag.preds(task.gate).all(|p| self.gate_done[p.index()]);
            let blocked = match &task.body {
                TaskBody::Cnot {
                    control,
                    target,
                    path,
                    ..
                } => {
                    !self.constrained
                        && (path.is_empty()
                            || !self.fabric.qubit_free(*control, self.clock)
                            || !self.fabric.qubit_free(*target, self.clock)
                            || !self.cnot_path_ready(TaskId(i as u32), path))
                }
                TaskBody::Rz {
                    ladder, holders, ..
                } => holders.iter().all(|&(_, a)| a != ladder.current_angle()),
                TaskBody::Hadamard { .. } => false,
            };
            assert!(
                self.start_frontier.contains(i) || waiting || self.op_in_flight(task) || blocked,
                "task {i} left the start frontier while it could start: {:?}",
                task.body
            );
        }
    }

    /// Closes a timed phase: accumulates its wall-clock and emits a
    /// [`TraceEvent::PhaseSpan`]. A no-op for untraced runs (`start` is
    /// `None`) — wall-clock never feeds back into the schedule.
    fn note_phase(&mut self, phase: Phase, start: Option<Instant>) {
        let Some(t0) = start else { return };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.phase_nanos[phase.index()] += dur_ns;
        self.emit_with(|| TraceEvent::PhaseSpan {
            phase,
            round: self.clock,
            dur_ns,
        });
    }

    /// Records one trace event, built lazily: the closure runs only when
    /// a recorder is attached, so untraced runs pay one inlined branch and
    /// never evaluate the payload (the disabled-instrumentation contract,
    /// pinned by the allocation-count test).
    #[inline]
    fn emit_with(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(r) = self.recorder {
            r.record(ev());
        }
    }

    /// Forwards the ledger's buffered arbitration events (claims,
    /// preemptions, rejected reorders) to the recorder, stamped with the
    /// current round. Empty — and skipped — for untraced runs, which never
    /// enable the ledger's event log.
    fn drain_ledger_events(&mut self) {
        let Some(rec) = self.recorder else { return };
        let round = self.clock;
        for ev in self.ledger.take_events() {
            rec.record(match ev {
                LedgerEvent::Claim { task, ancilla } => TraceEvent::Claim {
                    round,
                    task: task.0 as u64,
                    ancilla,
                },
                LedgerEvent::Preempted { task, ancilla } => TraceEvent::Preemption {
                    round,
                    task: task.0 as u64,
                    ancilla,
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
    }

    /// The propose and commit phases of one dispatch pass: the frontier is
    /// scanned against the phase-start state, producing candidate
    /// ancillas, which are then committed in ascending-ancilla order, each
    /// decision recomputed against committed state.
    ///
    /// Why this is bit-identical to the historical mutate-as-you-scan loop
    /// (`for a in 0..n { dispatch_ancilla(a) }`): within the ancilla phase,
    /// committing an action on ancilla `a` can *disable* a pending action
    /// on another ancilla (a reclaim shrinks its task's remaining prep
    /// sites) but can never *enable* one — every enabling condition reads
    /// only state local to the candidate ancilla (its queue, its fabric
    /// slot, its preparation) or task state the phase never grows. So the
    /// committed set of one pass equals exactly the snapshot-enabled set
    /// minus commit-time invalidations — the same set, in the same
    /// ascending order, as the sequential loop — and anything enabled by
    /// this pass's commits is picked up by the next pass of the fixpoint,
    /// again matching the sequential loop. RNG draws, event pushes and
    /// counters therefore occur in an identical total order.
    fn dispatch_ancillas(&mut self) -> bool {
        // The start phase's own ledger and fabric changes, before the dirty
        // set they marked is cleared below.
        self.wake_route_claimants();
        let traced = self.recorder.is_some();
        let t0 = traced.then(Instant::now);
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        // The scan frontier is `dirty ∩ nonempty`: an empty queue can never
        // propose an action, and an *unmarked* ancilla provably re-proposes
        // the `None` it proposed last pass (every enabling mutation — ledger
        // writes, fabric holds expiring, preparations finishing — marks the
        // ancilla dirty). Clearing before the scan means commit-time
        // mutations land in the next pass's frontier, exactly like the
        // historical full rescan.
        let mut words = std::mem::take(&mut self.scratch.scan_words);
        words.clear();
        words.extend(
            self.ledger
                .dirty_words()
                .iter()
                .zip(self.ledger.nonempty_words())
                .map(|(d, n)| d & n),
        );
        self.ledger.clear_dirty();
        // Word-parallel scan over the frontier words: 64 idle or untouched
        // ancillas are skipped per word-compare.
        candidates.clear();
        for_each_set_bit(&words, |a| {
            if self.ancilla_action(a as u32).is_some() {
                candidates.push(a as u32);
            }
        });
        words.clear();
        self.scratch.scan_words = words;
        self.note_phase(Phase::Propose, t0);
        let t1 = traced.then(Instant::now);
        let mut progress = false;
        for &candidate in &candidates {
            progress |= self.commit_ancilla(candidate);
        }
        candidates.clear();
        self.scratch.candidates = candidates;
        self.note_phase(Phase::Commit, t1);
        progress
    }

    /// Processes qubits waiting for scheduling, deepest-remaining-chain
    /// first (Fig 7's priority rule).
    fn drain_sched_worklist(&mut self) -> bool {
        if self.sched_worklist.is_empty() {
            return false;
        }
        let mut order = std::mem::take(&mut self.scratch.worklist_order);
        order.clear();
        order.extend(self.sched_worklist.iter().enumerate().map(|(i, &q)| {
            let chain = self.dag.qubit_chain(q);
            let depth = chain
                .get(self.cursor[q.index()])
                .map_or(0, |&g| self.dag.remaining_depth(g));
            (std::cmp::Reverse(depth), i as u32, q)
        }));
        self.sched_worklist.clear();
        // `(Reverse(depth), insertion index)` is a total order, so the
        // unstable sort reproduces the historical stable deepest-first
        // order exactly — without the stable sort's merge buffer.
        order.sort_unstable_by_key(|&(depth, idx, _)| (depth, idx));
        let mut progress = false;
        let mut prev: Option<QubitId> = None;
        for &(_, _, q) in &order {
            // The historical `dedup()` collapsed consecutive duplicates
            // only; replicate that exactly (advance_qubit is idempotent,
            // so non-adjacent duplicates were — and are — simply re-run).
            if prev == Some(q) {
                continue;
            }
            prev = Some(q);
            progress |= self.advance_qubit(q);
        }
        order.clear();
        self.scratch.worklist_order = order;
        progress
    }

    /// Scheduling for one qubit: completes free gates, creates tasks for the
    /// cursor gate, and preemptively enqueues a following rotation.
    fn advance_qubit(&mut self, q: QubitId) -> bool {
        let mut progress = false;
        loop {
            let cursor = self.cursor[q.index()];
            let (gid, next_gid) = {
                let chain = self.dag.qubit_chain(q);
                (chain.get(cursor).copied(), chain.get(cursor + 1).copied())
            };
            let Some(gid) = gid else {
                return progress;
            };
            if self.gate_done[gid.index()] {
                self.cursor[q.index()] += 1;
                continue;
            }
            let gate = self.circuit.gate(gid);
            let preds_done = self.unfinished_preds[gid.index()] == 0;
            if gate.is_free() {
                if preds_done {
                    self.finish_gate(gid);
                    progress = true;
                    continue;
                }
                return progress;
            }
            if !self.gate_scheduled[gid.index()] && preds_done {
                self.schedule_gate(gid);
                progress = true;
            }
            // Preemptive rotation enqueue: while the cursor gate is
            // scheduled/executing, the following continuous rotation on this
            // qubit already claims its prep ancillas (§4.1). Still skipped
            // on constrained fabrics — the ledger's preemption makes the
            // speculative claims *safe* there (stalled older CNOTs provably
            // overtake them without wait-graph cycles), but measurement says
            // they are not *profitable*: the claims push CNOT routes onto
            // detours at planning time, which no amount of claim-time
            // preemption can undo (suite geomean at 50% compression drops
            // ~5% with them on).
            if self.gate_scheduled[gid.index()] && !self.constrained {
                if let Some(next) = next_gid {
                    let g = self.circuit.gate(next);
                    if g.is_continuous_rotation() && !self.gate_scheduled[next.index()] {
                        self.schedule_gate(next);
                        progress = true;
                    }
                }
            }
            return progress;
        }
    }

    /// Marks a gate done (a free gate directly, a task's gate through
    /// [`Self::complete_task`]): requeues the qubits it and its successors
    /// touch, and wakes each successor task whose last unfinished
    /// predecessor this was.
    fn finish_gate(&mut self, gid: GateId) {
        self.gate_done[gid.index()] = true;
        self.done_count += 1;
        self.gates_executed += 1;
        self.last_completion = self.last_completion.max(self.clock);
        for q in self.circuit.gate(gid).qubits() {
            self.sched_worklist.push(q);
        }
        // A shared handle, so the loop may refresh the successors' tasks.
        let dag = Arc::clone(&self.dag);
        for s in dag.succs(gid) {
            for q in self.circuit.gate(*s).qubits() {
                self.sched_worklist.push(q);
            }
            // `succs` lists a successor once per operand it shares with
            // `gid`, exactly as `preds` counts it.
            let unfinished = &mut self.unfinished_preds[s.index()];
            *unfinished -= 1;
            if *unfinished == 0 {
                if let Some(t) = self.task_of_gate[s.index()] {
                    self.start_frontier.insert(t.index());
                    self.refresh_stall(t);
                }
            }
        }
    }

    fn schedule_gate(&mut self, gid: GateId) {
        self.gate_scheduled[gid.index()] = true;
        let id = TaskId(self.tasks.len() as u32);
        let body = match self.circuit.gate(gid) {
            Gate::H { qubit } => TaskBody::Hadamard {
                qubit,
                started: false,
            },
            Gate::Rz { qubit, angle } => {
                let (prep_sites, helper_sites) = self.enqueue_rz_sites(id, qubit, angle);
                TaskBody::Rz {
                    qubit,
                    ladder: InjectionLadder::new(angle),
                    prep_sites,
                    helper_sites,
                    holders: self.pools.holders.take(),
                    injecting: false,
                    awaiting_decode: false,
                    pending_prep_decodes: 0,
                }
            }
            Gate::Cnot { control, target } => {
                let path = self.plan_and_enqueue_cnot(id, control, target);
                TaskBody::Cnot {
                    control,
                    target,
                    path,
                    rotating: false,
                    surgery_started: false,
                    planned_round: self.clock,
                }
            }
            other => unreachable!("free gate {other} reached scheduling"),
        };
        self.tasks.push(Task {
            gate: gid,
            sched_round: self.clock,
            done: false,
            body,
            stall: None,
        });
        self.task_of_gate[gid.index()] = Some(id);
        self.live.insert(id.index());
        self.start_frontier.insert(id.index());
        self.refresh_stall(id);
    }

    /// Enqueues a rotation into every valid neighbouring ancilla (Fig 7):
    /// Z-edge neighbours prepare for ZZ injection, diagonals prepare for CNOT
    /// injection through an X-edge helper, X-edge neighbours are reserved as
    /// helpers (or become prep sites themselves when nothing better exists).
    fn enqueue_rz_sites(
        &mut self,
        id: TaskId,
        qubit: QubitId,
        angle: Angle,
    ) -> (Vec<(AncillaIndex, bool)>, Vec<AncillaIndex>) {
        let orient = self.fabric.orientation[qubit.index()];
        let adj = &self.adjacency[qubit.index()];
        let mut prep_sites = self.pools.sites.take();
        let mut helper_sites = self.pools.helpers.take();
        let mut x_side = std::mem::take(&mut self.scratch.x_side);
        x_side.clear();

        for &(side, tile) in &adj.side {
            let Some(a) = self.fabric.graph.index_of(tile) else {
                continue;
            };
            if orient.edge_at(side) == EdgeType::Z {
                self.ledger
                    .push(a, QueueEntry::new(id, Role::PrepZz, angle));
                prep_sites.push((a, true));
            } else {
                x_side.push(a);
            }
        }
        for &(_, tile, ref helpers) in &adj.diagonal {
            let Some(a) = self.fabric.graph.index_of(tile) else {
                continue;
            };
            let Some(h) = helpers.iter().find_map(|&t| self.fabric.graph.index_of(t)) else {
                continue;
            };
            self.ledger.push(
                a,
                QueueEntry::new(
                    id,
                    Role::PrepDiagonal {
                        helper: self.fabric.graph.tile(h),
                    },
                    angle,
                ),
            );
            prep_sites.push((a, false));
        }
        if prep_sites.is_empty() {
            // Constrained geometry: prepare on the X-edge neighbours.
            for &a in &x_side {
                self.ledger.push(a, QueueEntry::new(id, Role::PrepX, angle));
                prep_sites.push((a, true));
            }
        } else {
            for &a in &x_side {
                self.ledger
                    .push(a, QueueEntry::new(id, Role::Helper, angle));
                helper_sites.push(a);
            }
        }
        if self.constrained {
            // §3.2's n − m redistribution taken to its limit: on a heavily
            // compressed fabric each rotation keeps its single best prep
            // site (side-adjacent preferred — it can inject alone) plus at
            // most one helper, returning every other claim to the pool.
            if let Some(keep_at) = prep_sites.iter().position(|&(_, side)| side) {
                let keep = prep_sites[keep_at];
                for &(a, _) in prep_sites.iter().filter(|&&(a, _)| a != keep.0) {
                    self.ledger.remove_task(a, id);
                }
                prep_sites.clear();
                prep_sites.push(keep);
                for &h in &helper_sites {
                    self.ledger.remove_task(h, id);
                }
                helper_sites.clear();
            } else if prep_sites.len() > 1 {
                for &(a, _) in &prep_sites[1..] {
                    self.ledger.remove_task(a, id);
                }
                prep_sites.truncate(1);
                // The one helper kept must actually flank the kept diagonal
                // site — an arbitrary X-side claim would be useless to it.
                let keep_site = prep_sites[0].0;
                let keep_helper = helper_sites
                    .iter()
                    .copied()
                    .find(|&h| self.fabric.graph.neighbors(h).contains(&keep_site));
                for &h in &helper_sites {
                    if Some(h) != keep_helper {
                        self.ledger.remove_task(h, id);
                    }
                }
                helper_sites.clear();
                helper_sites.extend(keep_helper);
            }
        }
        x_side.clear();
        self.scratch.x_side = x_side;
        (prep_sites, helper_sites)
    }

    /// Plans a route for `id`'s CNOT into `best` (cleared; left empty when
    /// no route exists). `id` matters for re-planning: the task's own
    /// queued Route entries are excluded from the load estimate, so holding
    /// a path never biases the planner against that same path.
    fn plan_cnot_path_into(
        &mut self,
        id: TaskId,
        control: QubitId,
        target: QubitId,
        best: &mut Vec<AncillaIndex>,
    ) {
        let mut memo = std::mem::take(&mut self.scratch.expected_free);
        memo.begin_plan(self.fabric.num_ancillas());
        let mut route = std::mem::take(&mut self.scratch.route);
        let adjacency = self.adjacency;
        // `E[f_a]`: the sum of expected durations of `a`'s queued
        // operations (§4.2), excluding `id`'s own entries.
        let d = self.d as u64;
        let cnot = self.costs.cnot_cycles as u64 * d;
        let inj = self.costs.cnot_injection_cycles as u64 * d;
        let rz = self.rz_entry_cost;
        let (clock, ledger) = (self.clock, &self.ledger);
        let expected_free = |a: AncillaIndex| {
            memo.get(a, || {
                clock
                    + ledger.queue(a).expected_free_rounds(|e| {
                        if e.task == id {
                            return 0;
                        }
                        match e.role {
                            Role::Route => cnot,
                            Role::Helper => inj,
                            Role::EdgeRotate => 3 * d,
                            _ => rz,
                        }
                    })
            })
        };
        let _ = plan_cnot_route_into(
            &self.fabric.graph,
            self.mst.current(),
            &mut self.path_cache,
            control,
            target,
            &adjacency[control.index()],
            &adjacency[target.index()],
            &self.fabric.orientation,
            &self.costs,
            self.d,
            expected_free,
            &mut route,
            best,
        );
        self.scratch.route = route;
        self.scratch.expected_free = memo;
    }

    fn plan_and_enqueue_cnot(
        &mut self,
        id: TaskId,
        control: QubitId,
        target: QubitId,
    ) -> Vec<AncillaIndex> {
        let mut path = self.pools.paths.take();
        self.plan_cnot_path_into(id, control, target, &mut path);
        self.enqueue_route_claims(id, &path);
        self.emit_with(|| TraceEvent::RoutePlanned {
            round: self.clock,
            task: id.0 as u64,
            hops: path.len() as u32,
            replanned: false,
        });
        path
    }

    /// Registers a CNOT path's Route claims with the ledger.
    fn enqueue_route_claims(&mut self, id: TaskId, path: &[AncillaIndex]) {
        for &a in path {
            self.ledger
                .push(a, QueueEntry::new(id, Role::Route, Angle::ZERO));
        }
    }

    // ------------------------------------------------------------------
    // Ancilla queue processing
    // ------------------------------------------------------------------

    /// The pure per-ancilla scheduling decision — the *propose* half.
    /// Reads state only, and is re-evaluated by [`Self::commit_ancilla`]
    /// against committed state before anything is applied.
    fn ancilla_action(&self, a: AncillaIndex) -> Option<AncillaAction> {
        let top = self.ledger.queue(a).top()?;
        if !top.role.is_prep() {
            return None;
        }
        let task_id = top.task;
        // Reclaim (§3.2): a still-preparing ancilla with work queued behind
        // it is returned to the pool when the rotation has other prep sites
        // *and* the remaining sites can still complete an injection (at
        // least one side-adjacent site, or a diagonal site with helpers).
        if self.ledger.queue(a).len() > 1
            && !self.is_holding(task_id, a)
            && self.can_reclaim(task_id, a)
        {
            return Some(AncillaAction::Reclaim);
        }
        if self.is_holding(task_id, a) {
            return None; // holding a finished state, waiting for injection
        }
        // Eager correction preparation (Fig 1e) runs even on constrained
        // fabrics, although a held ancilla could starve CNOT routes: stalled
        // routes preempt speculative claims (cycle-checked), ready
        // injections evict speculative holds, and the fixed-point recovery
        // discards holds whose owner cannot consume them. So the correction
        // ladder may pipeline its next state behind the in-flight
        // injection, which is where the constrained-fabric rotation win
        // comes from.
        match self.prepping[a as usize] {
            Some(angle) if angle == top.angle => None, // already preparing it
            // In-place rewrite hit a running preparation: restart it.
            Some(_) => Some(AncillaAction::RestartPrep),
            None => {
                let owner = task_id.0 as u64;
                if self.fabric.ancilla_free(a, self.clock) || self.fabric.is_held_by(a, owner) {
                    Some(AncillaAction::StartPrep)
                } else {
                    None
                }
            }
        }
    }

    /// Whether `task`'s rotation keeps enough other prep sites to inject if
    /// site `a` is reclaimed: a remaining side-adjacent site injects on its
    /// own; a diagonal site needs a recorded helper it actually touches.
    fn can_reclaim(&self, task_id: TaskId, a: AncillaIndex) -> bool {
        match &self.tasks[task_id.index()].body {
            TaskBody::Rz {
                prep_sites,
                helper_sites,
                ..
            } => prep_sites.iter().any(|&(s, side)| {
                s != a
                    && (side
                        || helper_sites
                            .iter()
                            .any(|&h| self.fabric.graph.neighbors(h).contains(&s)))
            }),
            _ => false,
        }
    }

    /// The *commit* half: revalidates a proposal against committed
    /// state (earlier commits of the same pass may have invalidated it, or
    /// changed which action applies) and executes it through the ledger.
    /// Always called in ascending-ancilla order — the canonical commit
    /// order the determinism contract rests on.
    fn commit_ancilla(&mut self, a: AncillaIndex) -> bool {
        let Some(action) = self.ancilla_action(a) else {
            return false; // proposal invalidated by an earlier commit
        };
        let ai = a as usize;
        let top = *self.ledger.queue(a).top().expect("action implies an entry");
        let task_id = top.task;
        match action {
            AncillaAction::Reclaim => {
                self.cancel_prep_for(a, task_id);
                self.ledger.remove_task(a, task_id);
                if let TaskBody::Rz { prep_sites, .. } = &mut self.tasks[task_id.index()].body {
                    prep_sites.retain(|&(s, _)| s != a);
                }
                self.counters.preps_cancelled += 1;
            }
            AncillaAction::RestartPrep => {
                self.prep_epoch[ai] += 1;
                self.counters.preps_cancelled += 1;
                self.start_prep(a, task_id, top.angle);
            }
            AncillaAction::StartPrep => {
                let owner = task_id.0 as u64;
                if !self.fabric.is_held_by(a, owner) {
                    self.fabric.hold_ancilla(a, owner);
                }
                self.start_prep(a, task_id, top.angle);
            }
        }
        true
    }

    fn start_prep(&mut self, a: AncillaIndex, task: TaskId, angle: Angle) {
        let rounds = self.prep_model.sample_prep_rounds(&mut self.rng);
        self.prepping[a as usize] = Some(angle);
        self.ledger.set_top_status(a, EntryStatus::Preparing);
        self.counters.preps_started += 1;
        self.events.push(
            self.clock + rounds,
            Ev::PrepDone {
                ancilla: a,
                task,
                angle,
                epoch: self.prep_epoch[a as usize],
            },
        );
    }

    /// Cancels an in-flight preparation on `a` *if it belongs to `task`*
    /// (preparations always serve the queue-top entry, so ownership is
    /// checked against the top).
    fn cancel_prep_for(&mut self, a: AncillaIndex, task: TaskId) {
        let ai = a as usize;
        if self.ledger.queue(a).top().is_none_or(|e| e.task != task) {
            return;
        }
        if self.prepping[ai].is_some() {
            self.prep_epoch[ai] += 1;
            self.prepping[ai] = None;
        }
        if self.fabric.is_held_by(a, task.0 as u64) {
            self.fabric.release_ancilla(a, self.clock);
        }
    }

    fn is_holding(&self, task: TaskId, a: AncillaIndex) -> bool {
        match &self.tasks[task.index()].body {
            TaskBody::Rz { holders, .. } => holders.iter().any(|&(h, _)| h == a),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Task starts
    // ------------------------------------------------------------------

    fn try_start_task(&mut self, id: TaskId) -> bool {
        if self.tasks[id.index()].done {
            return false;
        }
        let gate = self.tasks[id.index()].gate;
        let preds_done = self.unfinished_preds[gate.index()] == 0;
        match &self.tasks[id.index()].body {
            TaskBody::Hadamard { qubit, started } => {
                let (qubit, started) = (*qubit, *started);
                if started || !preds_done || !self.fabric.qubit_free(qubit, self.clock) {
                    return false;
                }
                let until = self.clock + self.costs.hadamard_cycles as u64 * self.d as u64;
                self.fabric.occupy_qubit(qubit, self.clock, until);
                if let TaskBody::Hadamard { started, .. } = &mut self.tasks[id.index()].body {
                    *started = true;
                }
                self.events.push(until, Ev::HDone { task: id });
                true
            }
            TaskBody::Rz { .. } => preds_done && self.try_start_injection(id),
            TaskBody::Cnot { .. } => {
                if !preds_done {
                    return false;
                }
                self.try_start_surgery(id)
            }
        }
    }

    fn try_start_injection(&mut self, id: TaskId) -> bool {
        let TaskBody::Rz {
            qubit,
            ref ladder,
            ref holders,
            injecting,
            ..
        } = self.tasks[id.index()].body
        else {
            return false;
        };
        if injecting || ladder.is_complete() || !self.fabric.qubit_free(qubit, self.clock) {
            return false;
        }
        let current = ladder.current_angle();
        let data = self.fabric.layout.data_tile(qubit);
        let orient = self.fabric.orientation[qubit.index()];
        let adj = &self.adjacency[qubit.index()];

        // Pick the cheapest feasible injection among ready holders (Table 1).
        // Diagonal holders route through any side-adjacent ancilla touching
        // them; the channel may even be one of our *own* eager-correction
        // holders, whose state is then discarded ("any additional successful
        // preparations can be discarded if necessary", §3.2).
        // (cycles, holder, optional (channel ancilla, channel is ours)).
        type InjectionOption = (u32, AncillaIndex, Option<(AncillaIndex, bool)>);
        let mut best: Option<InjectionOption> = None;
        for &(a, angle) in holders {
            if angle != current {
                continue;
            }
            let tile = self.fabric.graph.tile(a);
            let option = match self.fabric.layout.grid().side_towards(data, tile) {
                Some(side) if orient.edge_at(side) == EdgeType::Z => {
                    Some((self.costs.zz_injection_cycles, a, None))
                }
                Some(_) => Some((self.costs.cnot_injection_cycles, a, None)),
                None => {
                    let mut channel: Option<(u32, AncillaIndex, bool)> = None;
                    for &(side, h_tile) in &adj.side {
                        let Some(h) = self.fabric.graph.index_of(h_tile) else {
                            continue;
                        };
                        if !self.fabric.graph.neighbors(h).contains(&a) {
                            continue;
                        }
                        // The channel must be available to us: our task is
                        // at the head of its queue, nobody queued for it, or
                        // every queued claimant is *younger* — seniority
                        // entitles the older gate to the resource (§4.1).
                        let top = self.ledger.queue(h).top();
                        if !(top.is_none() || top.is_some_and(|e| e.task >= id)) {
                            continue;
                        }
                        // An "ours" channel must actually carry our fabric
                        // hold (discarding our own eager state frees it); a
                        // foreign one must simply be free — or freeable by
                        // evicting a still-speculative preparation's claim
                        // (the prep keeps its queue position and restarts).
                        let ours = self.is_holding(id, h) && self.fabric.is_held_by(h, id.0 as u64);
                        let evictable = !ours && self.speculative_hold_on(h).is_some();
                        if !ours && !evictable && !self.fabric.ancilla_free(h, self.clock) {
                            continue;
                        }
                        // A Z-side channel supports the 1-cycle ZZ merge
                        // (Pauli products are distance-independent, §2); an
                        // X-side channel is the Fig 6b CNOT injection.
                        let cycles = if orient.edge_at(side) == EdgeType::Z {
                            self.costs.zz_injection_cycles
                        } else {
                            self.costs.cnot_injection_cycles
                        };
                        if channel.is_none_or(|c| cycles < c.0) {
                            channel = Some((cycles, h, ours));
                        }
                    }
                    channel.map(|(cycles, h, ours)| (cycles, a, Some((h, ours))))
                }
            };
            if let Some(opt) = option {
                if best.as_ref().is_none_or(|b| opt.0 < b.0) {
                    best = Some(opt);
                }
            }
        }
        let Some((cycles, holder, helper)) = best else {
            return false;
        };

        let until = self.clock + cycles as u64 * self.d as u64;
        self.fabric.occupy_qubit(qubit, self.clock, until);
        if let Some((h, ours)) = helper {
            if !ours && !self.fabric.ancilla_free(h, self.clock) {
                // Claim eviction: the channel is held by a speculative
                // preparation that could not be consumed yet; reclaim the
                // fabric for the injection that is ready *now*.
                if let Some(t) = self.speculative_hold_on(h) {
                    self.cancel_displaced_prep(h, t);
                }
            }
            if ours {
                // Discard our own eager state blocking the channel.
                self.fabric.release_ancilla(h, self.clock);
                if let TaskBody::Rz { holders, .. } = &mut self.tasks[id.index()].body {
                    holders.retain(|&(x, _)| x != h);
                }
                self.ledger.set_top_status_if(h, id, EntryStatus::Ready);
                self.counters.states_discarded += 1;
            }
            self.fabric.occupy_ancilla(h, self.clock, until);
            self.occupancy_expiries.push(std::cmp::Reverse((until, h)));
        }
        if let TaskBody::Rz {
            holders, injecting, ..
        } = &mut self.tasks[id.index()].body
        {
            holders.retain(|&(a, _)| a != holder);
            *injecting = true;
        }
        self.ledger.set_top_status(holder, EntryStatus::Executing);
        self.refresh_stall(id);
        self.counters.injections += 1;
        self.events.push(
            until,
            Ev::InjectDone {
                task: id,
                holder,
                rounds: (until - self.clock) as u32,
            },
        );
        true
    }

    fn try_start_surgery(&mut self, id: TaskId) -> bool {
        let TaskBody::Cnot {
            control,
            target,
            ref path,
            rotating,
            surgery_started,
            planned_round,
        } = self.tasks[id.index()].body
        else {
            return false;
        };
        if rotating || surgery_started || path.is_empty() {
            return false;
        }
        if !self.fabric.qubit_free(control, self.clock)
            || !self.fabric.qubit_free(target, self.clock)
        {
            return false;
        }
        // Take the path out of the task body for the duration of the
        // attempt (restored on every exit) — the historical code cloned it
        // here, once per attempt on the hot path.
        let path = match &mut self.tasks[id.index()].body {
            TaskBody::Cnot { path, .. } => std::mem::take(path),
            _ => unreachable!("checked above"),
        };
        let mut all_ready = self.cnot_path_ready(id, &path);
        // Preemption for stalled CNOTs: armed on constrained fabrics, where
        // routes starve without it.
        if !all_ready && self.constrained {
            // Seniority-safe preemption (the mechanism the naive yield
            // lacked): ask the ledger to reorder this stalled CNOT ahead of
            // the younger speculative preparations blocking its path. The
            // ledger commits a reorder only when the incremental cycle
            // check proves the wait-for graph stays acyclic.
            let mut preempted = false;
            let mut spec = std::mem::take(&mut self.scratch.spec_tasks);
            for &a in &path {
                // The ledger refuses a reorder past a top entry that cannot
                // structurally yield, so most blocked attempts (a route or a
                // held state on top) end here, before the snapshot below.
                match self.ledger.queue(a).top() {
                    Some(top) if top.task != id && top.yields_structurally() => {}
                    _ => continue,
                }
                // A preparation may yield when its task is younger than the
                // stalled CNOT, or when it is still fully speculative — its
                // owner's predecessor gates are incomplete, so the prepared
                // state could not be consumed yet anyway. (Snapshotted into
                // recycled scratch: each task has at most one entry per
                // queue, so the per-entry filter equals set membership.)
                spec.clear();
                for e in self.ledger.queue(a).iter() {
                    if e.task != id
                        && (e.role.is_prep() || e.role == Role::Helper)
                        && self.is_speculative(e.task)
                    {
                        spec.push(e.task);
                    }
                }
                let outcome = self
                    .ledger
                    .try_preempt_with(id, a, |e| e.task > id || spec.contains(&e.task));
                if let Preemption::Applied { displaced_top } = outcome {
                    debug_assert!(self.ledger.is_acyclic(), "preemption broke acyclicity");
                    self.cancel_displaced_prep(a, displaced_top);
                    preempted = true;
                }
            }
            spec.clear();
            self.scratch.spec_tasks = spec;
            if preempted {
                all_ready = self.cnot_path_ready(id, &path);
            }
        }
        if !all_ready {
            // On a constrained fabric a committed path can stay blocked
            // while an alternative route is free: re-plan a stalled CNOT
            // against current queue estimates (greedy gets this adaptivity
            // for free by routing at dispatch time).
            let stalled_rounds = self.costs.cnot_cycles as u64 * self.d as u64;
            if self.constrained && self.clock.saturating_sub(planned_round) >= stalled_rounds {
                // Plan first and only move if the route actually changes:
                // re-enqueueing an identical path would surrender the
                // task's queue seniority for nothing (priority inversion).
                let mut new_path = self.pools.paths.take();
                self.plan_cnot_path_into(id, control, target, &mut new_path);
                if new_path != path {
                    for &a in &path {
                        self.ledger.remove_task(a, id);
                    }
                    self.enqueue_route_claims(id, &new_path);
                    self.emit_with(|| TraceEvent::RoutePlanned {
                        round: self.clock,
                        task: id.0 as u64,
                        hops: new_path.len() as u32,
                        replanned: true,
                    });
                    self.counters.cnot_replans += 1;
                    self.pools.paths.put(path);
                    if let TaskBody::Cnot {
                        path,
                        planned_round,
                        ..
                    } = &mut self.tasks[id.index()].body
                    {
                        *path = new_path;
                        *planned_round = self.clock;
                    }
                    self.refresh_stall(id);
                    return false;
                }
                self.pools.paths.put(new_path);
                if let TaskBody::Cnot { planned_round, .. } = &mut self.tasks[id.index()].body {
                    *planned_round = self.clock;
                }
            }
            if let TaskBody::Cnot { path: p, .. } = &mut self.tasks[id.index()].body {
                *p = path;
            }
            return false;
        }
        // Validate boundary orientations at the endpoints; rotate lazily if a
        // Hadamard (or an earlier rotation) flipped them since planning.
        let mut rotate: Option<(AncillaIndex, QubitId)> = None;
        for (endpoint, qubit, want) in [
            (*path.first().expect("non-empty"), control, EdgeType::Z),
            (*path.last().expect("non-empty"), target, EdgeType::X),
        ] {
            let data = self.fabric.layout.data_tile(qubit);
            let tile = self.fabric.graph.tile(endpoint);
            let side = self
                .fabric
                .layout
                .grid()
                .side_towards(data, tile)
                .expect("endpoint adjacent to its data qubit");
            if self.fabric.orientation[qubit.index()].edge_at(side) != want {
                rotate = Some((endpoint, qubit));
                break;
            }
        }
        if let Some((endpoint, qubit)) = rotate {
            let until = self.clock + self.costs.edge_rotation_cycles as u64 * self.d as u64;
            self.fabric.occupy_qubit(qubit, self.clock, until);
            self.fabric.occupy_ancilla(endpoint, self.clock, until);
            self.occupancy_expiries
                .push(std::cmp::Reverse((until, endpoint)));
            if let TaskBody::Cnot {
                path: p, rotating, ..
            } = &mut self.tasks[id.index()].body
            {
                *p = path;
                *rotating = true;
            }
            self.refresh_stall(id);
            self.counters.edge_rotations += 1;
            self.events
                .push(until, Ev::RotationDone { task: id, qubit });
            return true;
        }
        // All clear: run the 2-cycle merge/split surgery.
        let until = self.clock + self.costs.cnot_cycles as u64 * self.d as u64;
        self.fabric.occupy_qubit(control, self.clock, until);
        self.fabric.occupy_qubit(target, self.clock, until);
        for &a in &path {
            self.fabric.occupy_ancilla(a, self.clock, until);
            self.occupancy_expiries.push(std::cmp::Reverse((until, a)));
            self.ledger.set_top_status(a, EntryStatus::Executing);
        }
        if let TaskBody::Cnot {
            path: p,
            surgery_started,
            ..
        } = &mut self.tasks[id.index()].body
        {
            *p = path;
            *surgery_started = true;
        }
        self.refresh_stall(id);
        self.counters.cnot_surgeries += 1;
        self.events.push(until, Ev::SurgeryDone { task: id });
        true
    }

    /// Whether every ancilla of a CNOT path is free with the task's Route
    /// entry at the top of its queue.
    fn cnot_path_ready(&self, id: TaskId, path: &[AncillaIndex]) -> bool {
        path.iter().all(|&a| {
            self.fabric.ancilla_free(a, self.clock)
                && self.ledger.queue(a).top().is_some_and(|e| e.task == id)
        })
    }

    /// Whether `t` is still speculative: its gate's predecessors are not all
    /// done, so it could not consume a prepared state yet.
    fn is_speculative(&self, t: TaskId) -> bool {
        let task = &self.tasks[t.index()];
        !task.done && self.unfinished_preds[task.gate.index()] > 0
    }

    /// The task whose *speculative* in-flight preparation holds ancilla `a`,
    /// if that claim is evictable: the preparation serves the queue top, has
    /// not completed (no state would be lost), and its owner cannot consume
    /// the state yet. Constrained fabrics only.
    fn speculative_hold_on(&self, a: AncillaIndex) -> Option<TaskId> {
        if !self.constrained || self.prepping[a as usize].is_none() {
            return None;
        }
        let e = self.ledger.queue(a).top()?;
        if e.role.is_prep()
            && e.status == EntryStatus::Preparing
            && self.fabric.is_held_by(a, e.task.0 as u64)
            && self.is_speculative(e.task)
        {
            Some(e.task)
        } else {
            None
        }
    }

    /// After a ledger preemption displaced `task`'s preparation from the top
    /// of ancilla `a`'s queue: cancel the in-flight preparation (it restarts
    /// when the entry returns to the top) and release the displaced task's
    /// open-ended claim on the ancilla.
    fn cancel_displaced_prep(&mut self, a: AncillaIndex, task: TaskId) {
        let ai = a as usize;
        if self.prepping[ai].is_some() {
            self.prep_epoch[ai] += 1;
            self.prepping[ai] = None;
            self.counters.preps_cancelled += 1;
        }
        if self.fabric.is_held_by(a, task.0 as u64) {
            self.fabric.release_ancilla(a, self.clock);
        }
    }

    /// Whether this tick finds the engine at a fixed point: `quiescent`
    /// (the tick was the only pending event and no occupancy is left to
    /// expire) and past the reach of the tick's own inputs. Only a
    /// route-blocked CNOT on a constrained fabric reads those: it re-plans
    /// every `cnot_cycles` against the MST, which drifts while the activity
    /// window slides. With no occupancy and fixed holds, activity is final
    /// a window into the quiet streak, the MST built from it lands `k + τ`
    /// later, and one re-plan period on, every such CNOT has re-planned
    /// against it. A moved route or a recovery restarts the streak. (Route
    /// costs all shift with the clock, so the clock alone changes no plan.)
    fn at_fixed_point(&mut self, quiescent: bool) -> bool {
        let replans = self.counters.cnot_replans;
        let since = match self.quiet_since {
            _ if !quiescent => {
                self.quiet_since = None;
                return false;
            }
            Some((round, n)) if n == replans => round,
            _ => {
                self.quiet_since = Some((self.clock, replans));
                self.clock
            }
        };
        let settle_cycles =
            ACTIVITY_WINDOW + self.mst.k() + self.mst.tau() + self.costs.cnot_cycles;
        !self.constrained
            || self.stalled[StallCause::RouteBlocked.index()] == 0
            || self.clock - since >= settle_cycles as u64 * self.d as u64
    }

    /// The fixed-point recovery: runs when the engine reaches a state that
    /// no pending event and no further tick can change. Speculative
    /// eager-correction holds (states for an angle the ladder does not
    /// currently need) are discarded so the ancillas return to the pool —
    /// the paper's reclaim rule applied globally. States held by tasks
    /// whose predecessor gates are incomplete are discarded too: they
    /// cannot be consumed yet, and such holds can close a wait cycle
    /// *through the dependency DAG* that the ledger's queue-level wait-for
    /// graph cannot see. Real work restarts on the next dispatch.
    ///
    /// A fixed point the recovery cannot clear is a [`SimError::Deadlock`]:
    /// one where it would discard nothing, or a second one with no gate
    /// completed since the last recovery.
    fn recover_fixed_point(&mut self) -> Result<(), SimError> {
        if self.recovered_at == Some(self.done_count) {
            return Err(self.deadlock("no gate completed since the last recovery"));
        }
        let mut discarded = 0;
        for i in 0..self.tasks.len() {
            let id = TaskId(i as u32);
            let speculative = self.is_speculative(id);
            let (fabric, ledger, clock) = (&mut self.fabric, &mut self.ledger, self.clock);
            let TaskBody::Rz {
                ladder,
                holders,
                prep_sites,
                ..
            } = &mut self.tasks[i].body
            else {
                continue;
            };
            let current = ladder.current_angle();
            let held = holders.len();
            holders.retain(|&(a, angle)| {
                let keep = !speculative && angle == current;
                if !keep {
                    fabric.release_ancilla(a, clock);
                    ledger.set_top_status_if(a, id, EntryStatus::Ready);
                }
                keep
            });
            if holders.len() == held {
                continue;
            }
            discarded += held - holders.len();
            #[cfg(test)]
            if tests::SKIP_RETARGET.get() {
                continue;
            }
            // Retarget the surviving (non-holding) prep-site entries back
            // to the angle the ladder actually needs. A discarded state can
            // be the task's only copy of the current angle while its
            // sibling entries were already rewritten to the |m2θ⟩
            // correction (eager preparation, §4.1) — without the retarget,
            // every restarted preparation reproduces the stale correction
            // angle and the recovery repeats forever (pinned regression:
            // factory_n12 @ 25% compression, seed 8).
            for &(s, _) in prep_sites.iter() {
                if holders.iter().all(|&(h, _)| h != s) {
                    ledger.update_angle(s, id, current);
                }
            }
        }
        self.counters.states_discarded += discarded as u64;
        if discarded == 0 {
            return Err(self.deadlock("the recovery has no held state to discard"));
        }
        self.recovered_at = Some(self.done_count);
        self.quiet_since = None;
        Ok(())
    }

    /// A [`SimError::Deadlock`] at the current round whose detail says
    /// why, then names each live task with its stall cause, the ancillas
    /// it holds states on (`*`: the ladder's current angle) and each queue
    /// it waits in behind another task (`a<-t`: ancilla, top task).
    fn deadlock(&self, why: &str) -> SimError {
        use std::fmt::Write;
        let (total, pending) = (self.circuit.len(), self.circuit.len() - self.done_count);
        let mut detail = format!("{why}; {pending} of {total} gates pending");
        let mut next = self.live.next_from(0);
        while let Some(i) = next {
            next = self.live.next_from(i + 1);
            let task = &self.tasks[i];
            let cause = task
                .stall
                .map_or("waiting_on_predecessors", StallCause::name);
            let _ = write!(
                detail,
                "; task {i} ({}) {cause}",
                self.circuit.gate(task.gate)
            );
            if let TaskBody::Rz {
                ladder, holders, ..
            } = &task.body
            {
                for &(a, angle) in holders {
                    let mark = if angle == ladder.current_angle() {
                        "*"
                    } else {
                        ""
                    };
                    let _ = write!(detail, " holds a{a}{mark}");
                }
            }
            for (a, q) in self.ledger.queues() {
                if let Some(top) = q.top().filter(|e| e.task.index() != i) {
                    if q.position(TaskId(i as u32)).is_some() {
                        let _ = write!(detail, " waits a{a}<-t{}", top.task.0);
                    }
                }
            }
        }
        SimError::Deadlock {
            round: self.clock,
            detail,
        }
    }

    // ------------------------------------------------------------------
    // Stall attribution
    // ------------------------------------------------------------------

    /// The cause a live, runnable task that cannot make progress is
    /// blocked on (ancilla contention, decoder backlog or route blocked);
    /// `None` for a task that is done, waits on a
    /// predecessor, or is executing. Derived purely from simulated state,
    /// so the counters are bit-identical with or without a recorder.
    fn stall_cause(&self, id: TaskId) -> Option<StallCause> {
        let task = &self.tasks[id.index()];
        if task.done || self.unfinished_preds[task.gate.index()] > 0 {
            return None; // waiting on dependencies, not on resources
        }
        match &task.body {
            TaskBody::Cnot {
                path,
                rotating,
                surgery_started,
                ..
            } => {
                if *rotating || *surgery_started {
                    None // executing
                } else if path.is_empty() {
                    // No route could even be planned: every candidate
                    // channel was taken at planning time.
                    Some(StallCause::AncillaContention)
                } else {
                    Some(StallCause::RouteBlocked)
                }
            }
            TaskBody::Rz {
                ladder,
                injecting,
                awaiting_decode,
                pending_prep_decodes,
                ..
            } => {
                if ladder.is_complete() {
                    None // ladder finished, completion event in flight
                } else if *awaiting_decode {
                    Some(StallCause::DecoderBacklog)
                } else if *injecting {
                    None // executing
                } else if *pending_prep_decodes > 0 {
                    Some(StallCause::DecoderBacklog)
                } else {
                    Some(StallCause::AncillaContention)
                }
            }
            // A Hadamard waits only on its own data qubit, never on
            // shared resources — not a stall in this taxonomy.
            TaskBody::Hadamard { .. } => None,
        }
    }

    /// Re-derives `id`'s stall cause and moves it between the per-cause
    /// counts. Called wherever an input of [`Self::stall_cause`] changes:
    /// creation, the last predecessor finishing, a CNOT's path, rotation
    /// or surgery changing, an Rz's injection, decode waits or ladder
    /// moving, and completion.
    fn refresh_stall(&mut self, id: TaskId) {
        let cause = self.stall_cause(id);
        let slot = &mut self.tasks[id.index()].stall;
        if *slot != cause {
            if let Some(old) = std::mem::replace(slot, cause) {
                self.stalled[old.index()] -= 1;
            }
            if let Some(new) = cause {
                self.stalled[new.index()] += 1;
            }
        }
    }

    /// Charges one cycle per stalled live task to its cause's counter. The
    /// counts are kept current by [`Self::refresh_stall`], so untraced
    /// ticks do `O(1)` work; a recorder gets one [`TraceEvent::Stall`] per
    /// stalled task, in ascending task order.
    fn sample_stalls(&mut self) {
        #[cfg(debug_assertions)]
        self.audit_stall_counts();
        let [ancilla, decoder, route] = self.stalled;
        self.counters.stall_ancilla_cycles += ancilla;
        self.counters.stall_decoder_cycles += decoder;
        self.counters.stall_route_cycles += route;
        let Some(rec) = self.recorder else { return };
        let mut next = self.live.first();
        while let Some(i) = next {
            next = self.live.next_from(i + 1);
            if let Some(cause) = self.tasks[i].stall {
                rec.record(TraceEvent::Stall {
                    round: self.clock,
                    task: i as u64,
                    cause,
                });
            }
        }
    }

    /// Debug audit of the stall bookkeeping: every live task's kept cause
    /// must equal the one derived from its state now, and the per-cause
    /// counts must equal a recount. A change point that forgot
    /// [`Self::refresh_stall`] fails here.
    #[cfg(debug_assertions)]
    fn audit_stall_counts(&self) {
        let mut recount = [0u64; 3];
        let mut next = self.live.next_from(0);
        while let Some(i) = next {
            next = self.live.next_from(i + 1);
            let kept = self.tasks[i].stall;
            assert_eq!(
                kept,
                self.stall_cause(TaskId(i as u32)),
                "task {i} has a stale stall cause: {:?}",
                self.tasks[i].body
            );
            if let Some(cause) = kept {
                recount[cause.index()] += 1;
            }
        }
        assert_eq!(recount, self.stalled, "stall counts drifted");
    }

    /// Emits [`TraceEvent::AncillaState`] transitions for every ancilla
    /// whose occupancy changed since the last cycle tick (traced runs
    /// only). State is read at the deterministic tick point — fabric
    /// occupancy and ledger queue depth are pure schedule state — and
    /// ancillas are scanned in ascending order, so the emitted stream is
    /// deterministic.
    fn sample_occupancy(&mut self) {
        let Some(rec) = self.recorder else { return };
        let round = self.clock;
        for a in 0..self.fabric.num_ancillas() as u32 {
            let busy = !self.fabric.ancilla_free(a, round);
            let depth = self.ledger.queue(a).len() as u32;
            let last = &mut self.traced_occupancy[a as usize];
            if *last != (depth, busy) {
                *last = (depth, busy);
                rec.record(TraceEvent::AncillaState {
                    round,
                    ancilla: a,
                    region: self.partition.region_of(a),
                    depth,
                    busy,
                });
            }
        }
    }

    /// Traces a decoder-window submission (traced runs only; the window's
    /// submission round is kept so retirement can report its stall).
    fn trace_window_enqueued(&mut self, window: WindowId, ready_at: u64) {
        if self.recorder.is_some() {
            self.traced_windows.insert(window, self.clock);
            self.emit_with(|| TraceEvent::WindowEnqueued {
                round: self.clock,
                window: window.0,
                ready_at,
            });
        }
    }

    /// Traces a decoder-window retirement with the rounds it spent in
    /// flight (traced runs only).
    fn trace_window_retired(&mut self, window: WindowId) {
        if self.recorder.is_some() {
            let submitted = self.traced_windows.remove(&window).unwrap_or(self.clock);
            self.emit_with(|| TraceEvent::WindowRetired {
                round: self.clock,
                window: window.0,
                stalled_rounds: self.clock - submitted,
            });
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::CycleTick => {
                self.fabric.end_cycle();
                self.sample_stalls();
                self.sample_occupancy();
                let cycle = self.clock / self.d as u64;
                debug_assert_eq!(cycle, self.fabric.cycle(), "one tick per cycle boundary");
                // The snapshot an MST computation reads (Fig 8): edge weight
                // = the busier endpoint's activity count.
                let fabric = &mut self.fabric;
                self.mst.on_cycle(cycle, |edges, out| {
                    let counts = fabric.activity_counts(ACTIVITY_WINDOW);
                    out.extend(
                        edges
                            .iter()
                            .map(|&(a, b)| counts[a as usize].max(counts[b as usize])),
                    );
                });
                if let Some(probe) = self.cycle_probe {
                    probe(cycle);
                }
                if self.done_count < self.circuit.len() {
                    self.events.push(self.clock + self.d as u64, Ev::CycleTick);
                }
            }
            Ev::HDone { task } => {
                let gate = self.tasks[task.index()].gate;
                if let TaskBody::Hadamard { qubit, .. } = self.tasks[task.index()].body {
                    self.fabric.flip_orientation(qubit);
                }
                self.complete_task(task, gate);
            }
            Ev::PrepDone {
                ancilla,
                task,
                angle,
                epoch,
            } => {
                // Verification of the prepared state is itself a decoded
                // measurement when `decode_prep` is on: the state becomes
                // usable only once its one-cycle window is decoded.
                if self.decoder.decodes_prep() {
                    let (window, ready_at) = self.decoder.submit(ancilla, self.d, self.clock);
                    self.trace_window_enqueued(window, ready_at);
                    if ready_at > self.clock {
                        if let TaskBody::Rz {
                            pending_prep_decodes,
                            ..
                        } = &mut self.tasks[task.index()].body
                        {
                            *pending_prep_decodes += 1;
                        }
                        self.refresh_stall(task);
                        self.events.push(
                            ready_at,
                            Ev::PrepDecoded {
                                ancilla,
                                task,
                                angle,
                                epoch,
                                window,
                            },
                        );
                        return;
                    }
                    let cycles = self.decoder.retire(window, self.clock);
                    self.trace_window_retired(window);
                    self.decode_latency.record(cycles);
                }
                self.on_prep_done(ancilla, task, angle, epoch);
            }
            Ev::PrepDecoded {
                ancilla,
                task,
                angle,
                epoch,
                window,
            } => {
                // Retire unconditionally (backlog conservation), then let the
                // epoch check in `on_prep_done` drop cancelled preparations.
                let cycles = self.decoder.retire(window, self.clock);
                self.trace_window_retired(window);
                self.decode_latency.record(cycles);
                if let TaskBody::Rz {
                    pending_prep_decodes,
                    ..
                } = &mut self.tasks[task.index()].body
                {
                    *pending_prep_decodes = pending_prep_decodes.saturating_sub(1);
                }
                self.refresh_stall(task);
                self.on_prep_done(ancilla, task, angle, epoch);
            }
            Ev::InjectDone {
                task,
                holder,
                rounds,
            } => self.on_inject_done(task, holder, rounds),
            Ev::DecodeDone {
                task,
                success,
                window,
            } => {
                let cycles = self.decoder.retire(window, self.clock);
                self.trace_window_retired(window);
                self.decode_latency.record(cycles);
                self.apply_inject_outcome(task, success);
            }
            Ev::RotationDone { task, qubit } => {
                self.fabric.flip_orientation(qubit);
                if let TaskBody::Cnot { rotating, .. } = &mut self.tasks[task.index()].body {
                    *rotating = false;
                }
                self.refresh_stall(task);
                self.start_frontier.insert(task.index());
            }
            Ev::SurgeryDone { task } => {
                let gate = self.tasks[task.index()].gate;
                if let TaskBody::Cnot { path, .. } = &mut self.tasks[task.index()].body {
                    let path = std::mem::take(path);
                    for &a in &path {
                        self.ledger.remove_task(a, task);
                    }
                    self.pools.paths.put(path);
                }
                let latency =
                    (self.clock - self.tasks[task.index()].sched_round).div_ceil(self.d as u64);
                self.cnot_latency.record(latency);
                self.complete_task(task, gate);
            }
        }
    }

    fn on_prep_done(&mut self, a: AncillaIndex, task: TaskId, angle: Angle, epoch: u64) {
        if self.prep_epoch[a as usize] != epoch {
            return; // cancelled or restarted
        }
        self.prepping[a as usize] = None;
        self.counters.preps_succeeded += 1;
        self.ledger.set_top_status(a, EntryStatus::DonePreparing);
        let TaskBody::Rz {
            ladder,
            prep_sites,
            holders,
            ..
        } = &mut self.tasks[task.index()].body
        else {
            return;
        };
        let next = ladder.next_correction_angle();
        holders.push((a, angle));
        if angle == ladder.current_angle() && !next.is_clifford() {
            // First success for the needed angle: rewrite every sibling prep
            // entry in place to the correction state |m2θ⟩ (§4.1 / Fig 1e).
            for &(s, _) in prep_sites.iter() {
                if holders.iter().all(|&(h, _)| h != s) {
                    self.ledger.update_angle(s, task, next);
                }
            }
        }
        // A new holder may carry the current angle: wake a parked start.
        self.start_frontier.insert(task.index());
        self.try_start_injection(task);
    }

    /// The injection's measurements are in: the physical state is consumed
    /// immediately, but the *outcome* must pass through the classical
    /// decoder before the scheduler may act on it (feed-forward
    /// back-pressure). Under the ideal decoder the result is visible this
    /// round and the original behaviour is reproduced exactly.
    fn on_inject_done(&mut self, task: TaskId, holder: AncillaIndex, rounds: u32) {
        let success = self.rng.gen_bool(0.5);
        if !success {
            self.counters.injection_failures += 1;
        }
        // The injected state is consumed either way — but the ancilla's hold
        // must survive if eager preparation re-used it mid-injection (a new
        // prep is running on it, or a completed one put it back in
        // `holders`); releasing then would let other operations occupy the
        // ancilla while the task still counts on its state, double-booking
        // it later.
        let reused = self.is_holding(task, holder) || self.prepping[holder as usize].is_some();
        if !reused {
            self.fabric.release_ancilla(holder, self.clock);
        }
        // The holder's injection occupancy expires now (whether or not the
        // hold survives) — re-examine it on the next dispatch pass.
        self.ledger.mark_dirty(holder);
        let (window, ready_at) = self.decoder.submit(holder, rounds.max(1), self.clock);
        self.trace_window_enqueued(window, ready_at);
        if ready_at > self.clock {
            if let TaskBody::Rz {
                awaiting_decode, ..
            } = &mut self.tasks[task.index()].body
            {
                *awaiting_decode = true;
            }
            self.refresh_stall(task);
            self.events.push(
                ready_at,
                Ev::DecodeDone {
                    task,
                    success,
                    window,
                },
            );
            return;
        }
        let cycles = self.decoder.retire(window, self.clock);
        self.trace_window_retired(window);
        self.decode_latency.record(cycles);
        self.apply_inject_outcome(task, success);
    }

    /// Applies a decoded injection outcome: advance the ladder and rewrite
    /// sibling queue entries (`AncillaQueue::update_angle`) to the next
    /// correction angle.
    fn apply_inject_outcome(&mut self, task: TaskId, success: bool) {
        let gate = self.tasks[task.index()].gate;
        let step;
        {
            let TaskBody::Rz {
                ladder,
                injecting,
                awaiting_decode,
                ..
            } = &mut self.tasks[task.index()].body
            else {
                return;
            };
            *injecting = false;
            *awaiting_decode = false;
            step = ladder.record_outcome(success);
        }
        self.refresh_stall(task);
        // The injection is over: the next attempt may start one again.
        self.start_frontier.insert(task.index());
        match step {
            LadderStep::Done => {
                self.complete_rz(task, gate);
            }
            LadderStep::NeedCorrection(next) => {
                // Discard holders of stale angles; retarget every non-holding
                // site (including the consumed holder) to the new angle.
                let (fabric, ledger, clock) = (&mut self.fabric, &mut self.ledger, self.clock);
                let TaskBody::Rz {
                    prep_sites,
                    holders,
                    ..
                } = &mut self.tasks[task.index()].body
                else {
                    unreachable!("the ladder is an Rz task's");
                };
                let held = holders.len();
                holders.retain(|&(a, ang)| {
                    if ang != next {
                        fabric.release_ancilla(a, clock);
                    }
                    ang == next
                });
                self.counters.states_discarded += (held - holders.len()) as u64;
                for &(s, _) in prep_sites.iter() {
                    if holders.iter().all(|&(h, _)| h != s) {
                        ledger.update_angle(s, task, next);
                        if ledger.queue(s).top().is_some_and(|e| {
                            e.task == task && e.status == EntryStatus::DonePreparing
                        }) {
                            ledger.set_top_status(s, EntryStatus::Ready);
                        }
                    }
                }
                self.try_start_injection(task);
            }
        }
    }

    fn complete_rz(&mut self, task: TaskId, gate: GateId) {
        // The task is finished: take its site lists outright (nothing below
        // reads them back through the body) and recycle the buffers.
        let (sites, helpers, holders) = match &mut self.tasks[task.index()].body {
            TaskBody::Rz {
                prep_sites,
                helper_sites,
                holders,
                ..
            } => (
                std::mem::take(prep_sites),
                std::mem::take(helper_sites),
                std::mem::take(holders),
            ),
            _ => unreachable!(),
        };
        for &(a, _) in &holders {
            self.fabric.release_ancilla(a, self.clock);
            self.counters.states_discarded += 1;
        }
        for &(a, _) in &sites {
            self.cancel_prep_for(a, task);
            self.ledger.remove_task(a, task);
        }
        for &h in &helpers {
            self.ledger.remove_task(h, task);
        }
        self.pools.sites.put(sites);
        self.pools.helpers.put(helpers);
        self.pools.holders.put(holders);
        let latency = (self.clock - self.tasks[task.index()].sched_round).div_ceil(self.d as u64);
        self.rz_latency.record(latency);
        self.complete_task(task, gate);
    }

    fn complete_task(&mut self, task: TaskId, gate: GateId) {
        self.ledger.recycle_task(task);
        self.tasks[task.index()].done = true;
        self.live.remove(task.index());
        self.start_frontier.remove(task.index());
        self.refresh_stall(task);
        self.finish_gate(gate);
    }
}

#[cfg(test)]
mod tests {
    use crate::{simulate, SimConfig, SimError};
    use std::cell::Cell;

    thread_local! {
        /// Planted fault: the fixed-point recovery discards holds but skips
        /// retargeting the surviving prep entries to the current angle.
        /// Thread-local, so tests running on other threads never see it.
        pub(super) static SKIP_RETARGET: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn recovery_that_cannot_clear_a_fixed_point_is_a_deadlock() {
        // factory_n12 @ 25%, seed 8 reaches one fixed point (round 427),
        // which the recovery clears. Without its retarget step, the
        // recoveries at round 427 and (after ten more gates) at 518 leave
        // the siblings at the stale correction angle, so the restarted
        // preparations rebuild the same fixed point one cycle later. With
        // no gate completed since the last recovery, that ends the run at
        // round 525 instead of repeating the recovery up to the watchdog.
        let circuit = rescq_workloads::generate("factory_n12", 1).unwrap();
        let config = SimConfig::builder()
            .compression(0.25)
            .seed(8)
            .max_cycles(3_000)
            .build();
        simulate(&circuit, &config).expect("the recovery clears seed 8");
        SKIP_RETARGET.set(true);
        let faulty = simulate(&circuit, &config);
        SKIP_RETARGET.set(false);
        let Err(SimError::Deadlock { round, detail }) = faulty else {
            panic!("expected a deadlock, got {faulty:?}");
        };
        assert_eq!(round, 525, "{detail}");
        assert!(
            detail.starts_with("no gate completed since the last recovery; 52 of 128"),
            "{detail}"
        );
        // The snapshot names the stuck tasks, their causes, holds and the
        // queue tops they wait on.
        assert!(
            detail.contains("task 68 (rz 1 ") && detail.contains("ancilla_contention holds a13"),
            "{detail}"
        );
        assert!(
            detail.contains("task 69 (cx 3 4) route_blocked waits a8<-t68"),
            "{detail}"
        );
    }
}
