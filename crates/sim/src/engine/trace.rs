//! The engines' one trace path.
//!
//! Both engines hold an `Option<`[`Tracer`]`>`: `None` when the run is
//! untraced, so every trace site costs one check and nothing else. A
//! tracer owns the recorder and the state the event stream needs beyond
//! the schedule: the last emitted `(depth, busy)` of each ancilla, the
//! submission round of each in-flight decoder window, and the wall-clock
//! spent in each dispatch phase. Everything it emits is read from
//! schedule state at deterministic points, and it never writes any, so a
//! traced run schedules exactly like an untraced one.
//!
//! The trace sites are associated functions over `&Option<Tracer>`, so
//! each call site is one line and an untraced run returns at the check.

use crate::fabric::Fabric;
use rescq_circuit::GateId;
use rescq_core::{LedgerEvent, ReservationLedger, TaskId};
use rescq_decoder::WindowId;
use rescq_telemetry::{Event, Phase, Recorder};
use std::collections::HashMap;
use std::time::Instant;

/// A traced run's recorder plus the state its event stream is derived
/// from (see the module docs).
#[derive(Debug)]
pub(crate) struct Tracer<'a> {
    recorder: &'a dyn Recorder,
    /// Last emitted `(depth, busy)` per ancilla: occupancy is emitted as
    /// transitions against this, not as per-sample dumps.
    occupancy: Vec<(u32, bool)>,
    /// Submission round of each in-flight decoder window (drives
    /// `WindowRetired::stalled_rounds`).
    windows: HashMap<WindowId, u64>,
    /// Wall-clock nanoseconds per dispatch phase, reported through
    /// `ExecutionReport::phase_nanos`.
    phase_nanos: [u64; 4],
}

impl<'a> Tracer<'a> {
    /// A tracer for `recorder` over a fabric of `num_ancillas`, or `None`
    /// when the run is untraced. A traced run turns on the ledger's event
    /// log, which [`Tracer::ledger_events`] drains.
    pub(crate) fn attach(
        recorder: Option<&'a dyn Recorder>,
        ledger: &mut ReservationLedger,
        num_ancillas: usize,
    ) -> Option<Self> {
        let recorder = recorder?;
        ledger.enable_event_log();
        Some(Tracer {
            recorder,
            occupancy: vec![(0, false); num_ancillas],
            windows: HashMap::new(),
            phase_nanos: [0; 4],
        })
    }

    /// Records one event.
    pub(crate) fn record(&self, ev: Event) {
        self.recorder.record(ev);
    }

    /// Records one event, built lazily: the closure runs only when traced,
    /// so an untraced run never evaluates the payload.
    #[inline]
    pub(crate) fn emit(this: &Option<Self>, ev: impl FnOnce() -> Event) {
        if let Some(t) = this {
            t.record(ev());
        }
    }

    /// Starts timing a phase: the current instant when traced.
    #[inline]
    pub(crate) fn phase_start(this: &Option<Self>) -> Option<Instant> {
        this.as_ref().map(|_| Instant::now())
    }

    /// Closes a phase timed from `start`: adds its wall-clock to the
    /// phase's total and emits a [`Event::PhaseSpan`] stamped `round`.
    pub(crate) fn phase_end(
        this: &mut Option<Self>,
        phase: Phase,
        round: u64,
        start: Option<Instant>,
    ) {
        let (Some(t), Some(t0)) = (this, start) else {
            return;
        };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        t.phase_nanos[phase.index()] += dur_ns;
        t.recorder.record(Event::PhaseSpan {
            phase,
            round,
            dur_ns,
        });
    }

    /// Wall-clock per dispatch phase (all zero untraced).
    pub(crate) fn phase_nanos(this: &Option<Self>) -> [u64; 4] {
        this.as_ref().map_or([0; 4], |t| t.phase_nanos)
    }

    /// Forwards the ledger's buffered arbitration events (claims, wait
    /// edges, preemptions, rejected reorders) stamped with `round`. Each
    /// ledger task goes on the wire as the index of its gate, `gate_of`.
    pub(crate) fn ledger_events(
        this: &Option<Self>,
        ledger: &mut ReservationLedger,
        round: u64,
        gate_of: impl Fn(TaskId) -> GateId,
    ) {
        let Some(t) = this else { return };
        let task_of = |task| gate_of(task).index() as u64;
        for ev in ledger.take_events() {
            t.recorder.record(match ev {
                LedgerEvent::Claim { task, ancilla } => Event::Claim {
                    round,
                    task: task_of(task),
                    ancilla,
                },
                LedgerEvent::Preempted { task, ancilla } => Event::Preemption {
                    round,
                    task: task_of(task),
                    ancilla,
                },
                LedgerEvent::Rejected { task, ancilla } => Event::PreemptionRejected {
                    round,
                    task: task_of(task),
                    ancilla,
                },
                LedgerEvent::WaitEdge {
                    waiter,
                    holder,
                    ancilla,
                } => Event::WaitEdge {
                    round,
                    waiter: task_of(waiter),
                    holder: task_of(holder),
                    ancilla,
                },
            });
        }
    }

    /// Emits an [`Event::AncillaState`] for every ancilla whose occupancy
    /// (fabric busy, ledger queue depth) changed since the last sample,
    /// in ascending ancilla order.
    pub(crate) fn occupancy(
        this: &mut Option<Self>,
        fabric: &Fabric,
        ledger: &ReservationLedger,
        round: u64,
    ) {
        let Some(t) = this else { return };
        for a in 0..fabric.num_ancillas() as u32 {
            let busy = !fabric.ancilla_free(a, round);
            let depth = ledger.queue(a).len() as u32;
            let last = &mut t.occupancy[a as usize];
            if *last != (depth, busy) {
                *last = (depth, busy);
                t.recorder.record(Event::AncillaState {
                    round,
                    ancilla: a,
                    depth,
                    busy,
                });
            }
        }
    }

    /// Traces a decoder-window submission and keeps its round.
    pub(crate) fn window_enqueued(
        this: &mut Option<Self>,
        window: WindowId,
        round: u64,
        ready_at: u64,
    ) {
        let Some(t) = this else { return };
        t.windows.insert(window, round);
        t.recorder.record(Event::WindowEnqueued {
            round,
            window: window.0,
            ready_at,
        });
    }

    /// Traces a decoder-window retirement with the rounds it spent in
    /// flight since its submission.
    pub(crate) fn window_retired(this: &mut Option<Self>, window: WindowId, round: u64) {
        let Some(t) = this else { return };
        let submitted = t.windows.remove(&window).unwrap_or(round);
        t.recorder.record(Event::WindowRetired {
            round,
            window: window.0,
            stalled_rounds: round - submitted,
        });
    }
}
