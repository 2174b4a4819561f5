//! The cycle-accurate symbolic execution engine.
//!
//! [`simulate`] builds the fabric from the configuration (layout +
//! compression), then dispatches to the realtime RESCQ engine
//! ([`realtime`]) or the layer-synchronized static baseline engine
//! ([`static_sched`]). Time is tracked in *measurement rounds*; one
//! lattice-surgery cycle is `d` rounds (§5.2.1).

mod realtime;
mod static_sched;
mod trace;

use crate::artifacts::SimArtifacts;
use crate::fabric::Fabric;
use crate::metrics::ExecutionReport;
use crate::SimConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::{Circuit, QubitId};
use rescq_core::SchedulerKind;
use rescq_lattice::DataAdjacency;
use rescq_telemetry::Recorder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The circuit is empty or the layout could not host it.
    BadInput(String),
    /// A data qubit has no adjacent ancilla (over-compressed layout).
    NoAncillaForQubit(QubitId),
    /// Gates remain but the schedule can no longer change: a realtime
    /// fixed point its recovery cannot clear, or no pending event in a
    /// static engine.
    Deadlock {
        /// Round at which progress stopped.
        round: u64,
        /// Human-readable context (realtime: each stuck task's stall cause,
        /// holds and the queue tops it waits on).
        detail: String,
    },
    /// The watchdog cycle limit was exceeded.
    WatchdogExceeded {
        /// Cycles executed when the watchdog fired.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadInput(m) => write!(f, "bad input: {m}"),
            SimError::NoAncillaForQubit(q) => {
                write!(f, "data qubit {q} has no adjacent ancilla")
            }
            SimError::Deadlock { round, detail } => {
                write!(f, "scheduling deadlock at round {round}: {detail}")
            }
            SimError::WatchdogExceeded { cycles } => {
                write!(f, "watchdog exceeded after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Rounds covered by [`EventQueue`]'s calendar: one bucket per round from
/// the last popped round on.
const WINDOW: u64 = 64;

/// End of a slot list (bucket or free list).
const NIL: u32 = u32::MAX;

/// One arena slot: a pending payload (`None` while on the free list) and
/// the next slot of its bucket or of the free list.
#[derive(Debug)]
struct Slot<E> {
    ev: Option<E>,
    next: u32,
}

/// A deterministic event queue ordered by `(round, insertion order)`.
///
/// A calendar: the [`WINDOW`] rounds from the last popped round on each
/// own a FIFO bucket, and a 64-bit mask marks the nonempty ones, so a push
/// into the window and a pop are `O(1)`. Events further out wait in a
/// binary heap keyed by `(round, seq)` and move into their bucket, in that
/// order, when a pop advances the window over their round. No push can
/// reach that round's bucket before then, so every bucket holds its
/// round's events in insertion order. Rounds only move forward: a push
/// before the last popped round panics.
///
/// Buckets are intrusive lists through one slot arena whose free slots
/// are recycled, so a long run's queue memory plateaus at the
/// pending-event high-water mark instead of growing one slot per event
/// ever pushed — part of the zero-allocation steady-state contract of the
/// cycle loop.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// First and last slot of each round's bucket (`round % WINDOW`).
    head: [u32; WINDOW as usize],
    tail: [u32; WINDOW as usize],
    /// Bit `b` set iff bucket `b` is nonempty.
    occupied: u64,
    /// The last popped round: the window is `now..now + WINDOW`.
    now: u64,
    /// Events at or beyond `now + WINDOW`, keyed `(round, seq, slot)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            head: [NIL; WINDOW as usize],
            tail: [NIL; WINDOW as usize],
            occupied: 0,
            now: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` at `round`. Ties break by insertion order, keeping the
    /// simulation deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `round` is before the last popped round.
    pub(crate) fn push(&mut self, round: u64, ev: E) {
        assert!(
            round >= self.now,
            "event at round {round} pushed after round {} was popped",
            self.now
        );
        let slot = if self.free == NIL {
            self.slots.push(Slot {
                ev: None,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            s
        };
        self.slots[slot as usize].ev = Some(ev);
        if round < self.now + WINDOW {
            self.append(round, slot);
        } else {
            self.seq += 1;
            self.far.push(Reverse((round, self.seq, slot)));
        }
    }

    /// Appends `slot` to `round`'s bucket.
    fn append(&mut self, round: u64, slot: u32) {
        let b = (round % WINDOW) as usize;
        self.slots[slot as usize].next = NIL;
        if self.occupied & (1 << b) == 0 {
            self.head[b] = slot;
            self.occupied |= 1 << b;
        } else {
            self.slots[self.tail[b] as usize].next = slot;
        }
        self.tail[b] = slot;
    }

    /// The earliest round with a bucketed event.
    fn first_bucketed(&self) -> Option<u64> {
        (self.occupied != 0).then(|| {
            let off = self
                .occupied
                .rotate_right((self.now % WINDOW) as u32)
                .trailing_zeros();
            self.now + u64::from(off)
        })
    }

    /// Pops the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let round = match self.first_bucketed() {
            Some(r) => r,
            None => self.far.peek()?.0 .0,
        };
        if round > self.now {
            // The window moves to `round..round + WINDOW`: every bucket
            // below `round` is empty, so the far events it now covers
            // land in empty buckets, in `(round, seq)` order.
            self.now = round;
            while let Some(&Reverse((r, _, slot))) = self.far.peek() {
                if r >= round + WINDOW {
                    break;
                }
                self.far.pop();
                self.append(r, slot);
            }
        }
        let b = (round % WINDOW) as usize;
        let slot = self.head[b];
        let s = &mut self.slots[slot as usize];
        self.head[b] = s.next;
        if s.next == NIL {
            self.occupied &= !(1 << b);
        }
        let ev = s.ev.take().expect("a bucketed slot holds an event");
        s.next = self.free;
        self.free = slot;
        Some((round, ev))
    }

    /// The round of the earliest pending event.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn peek_round(&self) -> Option<u64> {
        self.first_bucketed()
            .or_else(|| self.far.peek().map(|Reverse((r, _, _))| *r))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }
}

/// Each qubit's tile adjacency (side and diagonal ancillas), indexed by
/// qubit. Geometry never changes mid-run, so both engines build this table
/// once per run and their hot paths borrow from it instead of rebuilding —
/// and heap-allocating — an adjacency per call.
fn qubit_adjacency(fabric: &Fabric, num_qubits: u32) -> Vec<DataAdjacency> {
    (0..num_qubits)
        .map(|q| fabric.layout.data_adjacency(QubitId(q)))
        .collect()
}

/// Runs the engines over a pre-built artifact bundle (the shared path; the
/// bundle's pieces are only read, never mutated). `recorder` attaches a
/// structured trace sink: the realtime engine streams its full taxonomy;
/// the static baselines stream layer-setup and dispatch-pass phase spans,
/// ledger claims/wait edges and ancilla occupancy so utilization analytics
/// compare across schedulers.
pub(crate) fn run_with_artifacts(
    artifacts: &SimArtifacts,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    run_with_artifacts_probed(artifacts, config, recorder, None)
}

/// [`run_with_artifacts`] with an optional per-cycle probe (realtime engine
/// only; see [`simulate_with_cycle_probe`]).
pub(crate) fn run_with_artifacts_probed(
    artifacts: &SimArtifacts,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
    cycle_probe: Option<&dyn Fn(u64)>,
) -> Result<ExecutionReport, SimError> {
    let fabric = Fabric::new(
        artifacts.layout.clone(),
        artifacts.graph.clone(),
        config.rounds_per_cycle(),
    );
    // Separate RNG stream per (seed, scheduler) so schedulers see the same
    // seed namespace but their own draw sequences don't alias.
    let rng = ChaCha8Rng::seed_from_u64(config.seed);
    let circuit = &artifacts.circuit;
    let dag = artifacts.dag.clone();
    match config.scheduler {
        SchedulerKind::Rescq => {
            realtime::run_realtime(circuit, dag, config, fabric, rng, recorder, cycle_probe)
        }
        kind => static_sched::run_static(circuit, dag, config, kind, fabric, rng, recorder),
    }
}

/// [`simulate`] with a hook invoked once per completed fabric cycle (the
/// cycle index is passed). The probe observes only — the schedule is
/// byte-identical with or without one. Realtime scheduler only; static
/// baselines ignore it.
///
/// This exists for the allocation-regression harness (`tests/alloc_count.rs`
/// reads a counting global allocator from inside the probe to pin "zero
/// heap allocations per steady-state cycle"); it is not a stable API.
///
/// # Errors
///
/// Same as [`simulate`].
#[doc(hidden)]
pub fn simulate_with_cycle_probe(
    circuit: &Circuit,
    config: &SimConfig,
    probe: &dyn Fn(u64),
) -> Result<ExecutionReport, SimError> {
    let artifacts = SimArtifacts::prepare(Arc::new(circuit.clone()), config)?;
    run_with_artifacts_probed(&artifacts, config, None, Some(probe))
}

/// Runs one seeded simulation of `circuit` under `config` and returns its
/// [`ExecutionReport`].
///
/// The run is fully deterministic: the same circuit, configuration and seed
/// always produce the same report.
///
/// # Errors
///
/// Returns [`SimError`] on empty circuits, unroutable layouts, scheduling
/// deadlocks, or watchdog expiry.
///
/// # Example
///
/// ```
/// use rescq_circuit::{Angle, Circuit};
/// use rescq_sim::{simulate, SimConfig};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).rz(1, Angle::radians(0.4));
/// let report = simulate(&c, &SimConfig::default()).unwrap();
/// assert!(report.total_cycles() > 0.0);
/// ```
pub fn simulate(circuit: &Circuit, config: &SimConfig) -> Result<ExecutionReport, SimError> {
    simulate_traced(circuit, config, None)
}

/// [`simulate`] with an optional structured-trace [`Recorder`] attached.
///
/// The recorder only *observes*: the schedule — and every schedule-derived
/// field of the report — is byte-identical with or without one
/// (property-tested in `tests/telemetry.rs`). Tracing adds
/// per-phase wall-clock to [`ExecutionReport::phase_nanos`] and streams
/// cycle-scoped events (phases, ledger arbitration and wait edges,
/// decoder windows, route plans, stalls, ancilla occupancy) into the
/// recorder.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_traced(
    circuit: &Circuit,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    let artifacts = SimArtifacts::prepare(Arc::new(circuit.clone()), config)?;
    run_with_artifacts(&artifacts, config, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_orders_by_time_then_insertion() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(10, "b");
        q.push(5, "a");
        q.push(10, "c");
        assert_eq!(q.peek_round(), Some(5));
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "c")));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// SplitMix64: a self-contained stream for the seeded queue test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The calendar against a `BinaryHeap<Reverse<(round, seq)>>` on
    /// seeded push/pop streams. Pushes land at the last popped round,
    /// inside the window, exactly at its edge and far beyond it; some
    /// phases drain the queue and resume after an idle gap longer than the
    /// window, as the static engine does between layers. Every pop must
    /// return the reference's `(round, payload)`. The slot arena must end
    /// at the pending high-water mark and, once warm, stop growing.
    #[test]
    fn event_queue_matches_a_reference_heap() {
        let mut edge_pushes = 0u32;
        for seed in 0..24u64 {
            let mut st = seed;
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut seq, mut peak) = (0u64, 0u64, 0usize);
            let mut warm_slots = None;
            for phase in 0..12 {
                // Later phases keep at most the first phases' depth
                // pending, so the arena must not grow past warm-up.
                let cap = 40 + 20 * (phase < 3) as usize;
                for _ in 0..300 {
                    let r = next(&mut st);
                    if reference.len() < cap && r % 5 < 3 {
                        let ahead = match (r >> 8) % 8 {
                            0 => 0,
                            1 => WINDOW - 1,
                            2 => {
                                edge_pushes += 1;
                                WINDOW
                            }
                            3 => WINDOW + (r >> 16) % 200,
                            _ => (r >> 16) % WINDOW,
                        };
                        seq += 1;
                        q.push(now + ahead, seq);
                        reference.push(Reverse((now + ahead, seq)));
                        peak = peak.max(reference.len());
                    } else if let Some(Reverse((round, payload))) = reference.pop() {
                        assert_eq!(q.peek_round(), Some(round), "seed {seed}");
                        assert_eq!(q.pop(), Some((round, payload)), "seed {seed}");
                        now = round;
                    }
                    assert_eq!(q.is_empty(), reference.is_empty(), "seed {seed}");
                }
                if phase % 3 == 2 {
                    // Drain, then idle past the window before the next
                    // phase pushes again.
                    while let Some(Reverse((round, payload))) = reference.pop() {
                        assert_eq!(q.pop(), Some((round, payload)), "seed {seed}");
                        now = round;
                    }
                    assert!(q.pop().is_none() && q.is_empty(), "seed {seed}");
                    now += WINDOW + next(&mut st) % 500;
                }
                if phase == 2 {
                    warm_slots = Some(q.slots.len());
                }
            }
            assert_eq!(q.slots.len(), peak, "seed {seed}: arena vs high-water mark");
            assert_eq!(Some(q.slots.len()), warm_slots, "seed {seed}: arena grew");
        }
        assert!(edge_pushes > 1000, "only {edge_pushes} pushes at the edge");
    }

    #[test]
    #[should_panic(expected = "pushed after round")]
    fn event_queue_rejects_a_push_into_the_past() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(10, ());
        assert_eq!(q.pop(), Some((10, ())));
        q.push(9, ());
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new(0);
        let err = simulate(&c, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadInput(_)));
    }
}
