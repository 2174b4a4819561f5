//! # rescq-telemetry
//!
//! Zero-dependency instrumentation for the RESCQ reproduction: a
//! [`Recorder`] sink trait, a bounded in-memory [`RingRecorder`],
//! Chrome trace-event export ([`chrome`]), trace analytics
//! ([`analyze`]), versioned metrics snapshots ([`snapshot`]), and the
//! sweep progress heartbeat ([`progress`]).
//!
//! ## Determinism contract
//!
//! Instrumentation observes the simulation, it never steers it. The
//! engines consult a recorder only through an `Option<&dyn Recorder>`
//! that is `None` by default, so a disabled recorder costs one inlined
//! `is_some()` check per site and nothing else — no allocation, no
//! locking, no timing calls. With a recorder attached, every recorded
//! quantity that feeds back into reports is derived from simulation
//! time (rounds/cycles), never wall-clock; wall-clock lives only in the
//! trace's timestamps and `PhaseSpan` durations (which the engine also
//! sums into its report's per-phase nanoseconds). Schedules and
//! reports are therefore byte-identical with tracing on or off
//! (property `tracing_is_inert`).
//!
//! ## Example
//!
//! ```
//! use rescq_telemetry::{Event, Phase, Recorder, RingRecorder};
//!
//! let rec = RingRecorder::new();
//! rec.record(Event::PhaseSpan { phase: Phase::Schedule, round: 7, dur_ns: 1200 });
//! rec.record(Event::Claim { round: 7, task: 0, ancilla: 3 });
//! assert_eq!(rec.len(), 2);
//! let json = rec.to_chrome_trace();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod chrome;
pub mod progress;
pub mod snapshot;

pub use analyze::{analyze_events, parse_trace, AnalyzeReport, AncillaUtil, ParsedTrace, PathLink};
pub use chrome::{normalize_timestamps, validate_trace, TraceStats};
pub use progress::{progress_line, Heartbeat};
pub use snapshot::{HistogramSummary, MetricsSnapshot, METRICS_SCHEMA_VERSION};

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The four phases of one realtime-engine dispatch pass
/// (schedule → start → propose → commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: drain the scheduling worklist (newly ready gates).
    Schedule,
    /// Phase 2: try to start every live task.
    Start,
    /// Phase 3: scan the dirty, nonempty ancillas against the phase-start
    /// state and collect candidate actions, mutating nothing.
    Propose,
    /// Phase 4: commit proposed actions in canonical ancilla order.
    Commit,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 4] = [Phase::Schedule, Phase::Start, Phase::Propose, Phase::Commit];

    /// Stable lowercase name (trace event / CSV / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Start => "start",
            Phase::Propose => "propose",
            Phase::Commit => "commit",
        }
    }

    /// Dense index in `0..4`, matching [`Phase::ALL`] order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Why a live task failed to make progress during a cycle — the
/// stall-attribution buckets. Attribution is derived from schedule
/// state alone (deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The task's ancilla claims sit behind other holders on the
    /// reservation queues (no free prep/surgery sites).
    AncillaContention,
    /// The task waits on a syndrome-decode result that is not ready
    /// yet (classical decoder backlog).
    DecoderBacklog,
    /// A CNOT has a planned route but cannot acquire it end to end.
    RouteBlocked,
}

impl StallCause {
    /// All causes, in canonical (CSV column) order.
    pub const ALL: [StallCause; 3] = [
        StallCause::AncillaContention,
        StallCause::DecoderBacklog,
        StallCause::RouteBlocked,
    ];

    /// Stable snake_case name (trace event / CSV / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::AncillaContention => "ancilla_contention",
            StallCause::DecoderBacklog => "decoder_backlog",
            StallCause::RouteBlocked => "route_blocked",
        }
    }

    /// Dense index in `0..3`, matching [`StallCause::ALL`] order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Declares every trace [`Event`] variant once — its wire name, the
/// Perfetto track it is drawn on and its ordered args — and derives from
/// that declaration the enum, [`Event::name`], the track and args the
/// Chrome writer ([`chrome::render`]) emits and the decoder
/// [`parse_trace`] reads back (`Event::from_wire`).
///
/// `PhaseSpan` is written out by hand inside: its wire name is its
/// phase's name, and its duration travels as the span's `dur`, not as an
/// arg. Every other variant is an instant whose fields are its args, in
/// declaration order, each written and read by [`WireArg`].
macro_rules! trace_events {
    (
        $(
            $(#[doc = $doc:literal])+
            $variant:ident = $name:literal on $track:ident {
                $( $(#[doc = $fdoc:literal])+ $field:ident: $ty:ty, )+
            }
        )+
    ) => {
        /// One structured trace event. Every variant is `Copy` and carries
        /// only plain integers — producing an event never allocates.
        ///
        /// `round` is simulation time in measurement rounds; `task` is the
        /// index in the circuit of the gate the event concerns (in every
        /// engine); `ancilla` is a dense ancilla index in the routing graph.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event {
            /// One engine dispatch phase completed, taking `dur_ns` wall-clock.
            PhaseSpan {
                /// Which of the four phases ran.
                phase: Phase,
                /// Simulation round of the dispatch pass.
                round: u64,
                /// Wall-clock duration of the phase in nanoseconds.
                dur_ns: u64,
            },
            $( $(#[doc = $doc])+ $variant { $( $(#[doc = $fdoc])+ $field: $ty, )+ }, )+
        }

        impl Event {
            /// The event's wire name (a span's is its phase's name).
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    Event::PhaseSpan { phase, .. } => phase.name(),
                    $( Event::$variant { .. } => $name, )+
                }
            }

            /// The Perfetto track the event is drawn on.
            pub(crate) fn track(&self) -> chrome::Track {
                match self {
                    Event::PhaseSpan { .. } => chrome::Track::Phases,
                    $( Event::$variant { .. } => chrome::Track::$track, )+
                }
            }

            /// Writes the event's args as comma-separated `"key":value`
            /// members, in declaration order.
            pub(crate) fn write_args(&self, out: &mut String) {
                match self {
                    Event::PhaseSpan { round, .. } => write_members(out, &[("round", round)]),
                    $( Event::$variant { $($field),+ } => write_members(
                        out,
                        &[$( (stringify!($field), $field as &dyn WireArg) ),+],
                    ), )+
                }
            }

            /// Decodes an event from its wire name, its `args` object and,
            /// for a span, its `dur` in microseconds. Unknown names and
            /// missing or mistyped args decode to `None`; extra args are
            /// ignored.
            pub(crate) fn from_wire(
                name: &str,
                args: &chrome::Json,
                dur_us: Option<f64>,
            ) -> Option<Event> {
                if let Some(&phase) = Phase::ALL.iter().find(|p| p.name() == name) {
                    return Some(Event::PhaseSpan {
                        phase,
                        round: WireArg::read(args.get("round")?)?,
                        dur_ns: (dur_us? * 1000.0).round() as u64,
                    });
                }
                match name {
                    $( $name => Some(Event::$variant {
                        $( $field: WireArg::read(args.get(stringify!($field))?)?, )+
                    }), )+
                    _ => None,
                }
            }
        }
    };
}

trace_events! {
    /// A ledger claim was registered on an ancilla queue.
    Claim = "claim" on Ledger {
        /// Simulation round.
        round: u64,
        /// Claiming task (gate index).
        task: u64,
        /// Claimed ancilla (dense index).
        ancilla: u32,
    }
    /// The ledger applied a preemption (queue reorder).
    Preemption = "preemption" on Ledger {
        /// Simulation round.
        round: u64,
        /// Preempting task (gate index).
        task: u64,
        /// Ancilla whose queue was reordered.
        ancilla: u32,
    }
    /// The ledger rejected a preemption: the reorder would have closed
    /// a cycle in the task wait-for graph.
    PreemptionRejected = "preemption_rejected" on Ledger {
        /// Simulation round.
        round: u64,
        /// The task whose preemption attempt was refused.
        task: u64,
        /// Ancilla whose queue would have been reordered.
        ancilla: u32,
    }
    /// A syndrome window was submitted to the classical decoder.
    WindowEnqueued = "window_enqueued" on Decoder {
        /// Simulation round of submission.
        round: u64,
        /// Decoder window id.
        window: u64,
        /// Round the decode result becomes visible.
        ready_at: u64,
    }
    /// A decode window's result was consumed (retired).
    WindowRetired = "window_retired" on Decoder {
        /// Simulation round of retirement.
        round: u64,
        /// Decoder window id.
        window: u64,
        /// Rounds the consumer stalled waiting for the result.
        stalled_rounds: u64,
    }
    /// A CNOT route was planned (or re-planned after a stall).
    RoutePlanned = "route_planned" on Tasks {
        /// Simulation round.
        round: u64,
        /// The CNOT task (gate index).
        task: u64,
        /// Route length in ancilla hops.
        hops: u32,
        /// This was a re-plan of a previously stalled route.
        replanned: bool,
    }
    /// A live task made no progress this cycle, attributed to `cause`.
    Stall = "stall" on Tasks {
        /// Simulation round of the cycle tick.
        round: u64,
        /// The stalled task (gate index).
        task: u64,
        /// The attributed cause.
        cause: StallCause,
    }
    /// A wait-for edge was inserted into the ledger's task graph:
    /// `waiter` enqueued behind `holder` on an ancilla queue. The
    /// analytics layer reconstructs blocking chains from these.
    WaitEdge = "wait_edge" on Ledger {
        /// Simulation round.
        round: u64,
        /// The task that now waits (gate index).
        waiter: u64,
        /// The task it waits behind (gate index).
        holder: u64,
        /// The ancilla queue carrying the edge.
        ancilla: u32,
    }
    /// An ancilla's occupancy state changed (sampled on the cycle
    /// tick; emitted only on change, so the stream is a compact
    /// state-transition series, not a per-cycle dump).
    AncillaState = "ancilla_state" on Ancilla {
        /// Simulation round of the sample.
        round: u64,
        /// Ancilla (dense index).
        ancilla: u32,
        /// Reservation-queue depth at the sample.
        depth: u32,
        /// The ancilla is occupied or held (not free this round).
        busy: bool,
    }
    /// A harness sweep job finished (progress heartbeat payload).
    JobDone = "job_done" on Harness {
        /// Global job index.
        index: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Wall-clock nanoseconds the job took (0 when resumed).
        wall_ns: u64,
        /// The job was restored from a checkpoint instead of run.
        resumed: bool,
    }
}

/// One trace-event arg's wire form: how an [`Event`] field is written
/// into, and read back from, the `args` object of its Chrome trace
/// record. Numbers and booleans are JSON literals; a [`StallCause`] is
/// its name as a JSON string.
pub(crate) trait WireArg {
    /// Appends the JSON value.
    fn write(&self, out: &mut String);

    /// Reads the value back; `None` when the JSON value has another type.
    fn read(v: &chrome::Json) -> Option<Self>
    where
        Self: Sized;
}

/// Writes `"key":value` JSON object members separated by commas.
fn write_members(out: &mut String, args: &[(&str, &dyn WireArg)]) {
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":");
        value.write(out);
    }
}

/// Numbers and booleans: their `Display` form is their JSON literal.
macro_rules! wire_literal {
    ($($ty:ty => |$v:ident| $read:expr;)+) => {
        $(impl WireArg for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read($v: &chrome::Json) -> Option<Self> {
                $read
            }
        })+
    };
}

wire_literal! {
    u64 => |v| v.as_num().map(|n| n as u64);
    u32 => |v| v.as_num().map(|n| n as u32);
    bool => |v| match v {
        chrome::Json::Bool(b) => Some(*b),
        _ => None,
    };
}

impl WireArg for StallCause {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.name());
    }
    fn read(v: &chrome::Json) -> Option<Self> {
        let name = v.as_str()?;
        StallCause::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// A sink for trace [`Event`]s.
///
/// `record` takes `&self` so a single recorder can be shared by
/// concurrent producers (harness workers);
/// implementations synchronise internally. Implementations must never
/// panic on any event and must not feed anything back into the
/// simulation — see the crate-level determinism contract.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Consumes one event.
    fn record(&self, ev: Event);
}

/// One event plus the wall-clock instant (nanoseconds since the
/// recorder's creation) it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// The event.
    pub event: Event,
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<TimedEvent>,
    dropped: u64,
}

/// A bounded in-memory [`Recorder`]: a ring buffer of [`TimedEvent`]s.
/// When the ring is full the oldest events are dropped (and counted), so
/// memory use is constant no matter how long the run.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RingRecorder {
    /// Default ring capacity in events.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// Creates a recorder with [`RingRecorder::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().expect("ring recorder lock poisoned")
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.lock().events.iter().copied().collect()
    }

    /// Renders the buffered events as a Chrome trace-event JSON
    /// document (`chrome://tracing` / Perfetto loadable).
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.lock();
        let events: Vec<TimedEvent> = inner.events.iter().copied().collect();
        chrome::render(&events, inner.dropped)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, ev: Event) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TimedEvent { at_ns, event: ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_cause_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let rec = RingRecorder::with_capacity(2);
        for round in 0..5 {
            rec.record(Event::Stall {
                round,
                task: 0,
                cause: StallCause::AncillaContention,
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let evs = rec.events();
        assert!(matches!(evs[0].event, Event::Stall { round: 3, .. }));
        assert!(matches!(evs[1].event, Event::Stall { round: 4, .. }));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = RingRecorder::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..100 {
                        rec.record(Event::JobDone {
                            index: t * 100 + i,
                            total: 400,
                            wall_ns: 10,
                            resumed: false,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.len(), 400);
    }
}
