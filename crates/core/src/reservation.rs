//! The reservation ledger: an explicit, checkable wait-for graph over the
//! per-ancilla queues, with seniority-safe preemption.
//!
//! RESCQ's per-ancilla FIFO queues (§4.1) keep the task-level wait-for
//! relation acyclic by construction: tasks are enqueued atomically in
//! scheduling order, so every queue agrees on the relative order of any two
//! tasks and every wait-for edge points from a younger task to an older one.
//! That invariant is also what made the scheduler fragile: *any* reordering
//! (yielding a speculative preparation to an older stalled CNOT, re-planning
//! a route into fresh queue positions) risks creating inconsistent orders
//! across ancillas — two tasks each waiting behind the other — and a naive
//! move-top-entry-to-back yield deadlocks exactly that way.
//!
//! [`ReservationLedger`] makes the relation first-class. It owns every
//! [`AncillaQueue`], assigns each entry a [`ReservationId`], and maintains
//! the wait-for multigraph incrementally as entries are pushed, popped,
//! removed and reordered: queue `[e₀, e₁, …]` contributes one `task(eⱼ) →
//! task(eᵢ)` edge for every `i < j` with distinct tasks ("`eⱼ` waits for
//! `eᵢ`"). [`ReservationLedger::try_preempt`] reorders an older stalled
//! task ahead of the younger speculative preparations blocking it **only
//! when an incremental cycle check proves the reversed edges keep the graph
//! acyclic** — the mechanism the naive yield lacked. Rejected preemptions
//! leave the ledger untouched and are counted, so schedulers can observe
//! how often the safety check bites.
//!
//! # The priority-class lattice
//!
//! Arbitration is two-layered. The *safety* layer never changes: a reorder
//! happens only when every displaced entry can structurally yield (a
//! preparation that is not executing and holds no finished state, or an
//! unused helper claim) **and** the incremental cycle check proves the
//! wait-for graph stays acyclic. Above it sits a *policy* layer: every
//! [`QueueEntry`] carries a [`TaskClass`] drawn from a small ordered
//! lattice ([`ClassLattice`], `factory > injection > compute > speculative`
//! by default, or any other order of those four), and
//! [`ReservationLedger::try_preempt_with`] applies one class-aware rule:
//!
//! - a **strictly higher** class may reorder ahead of a strictly lower one
//!   (seniority notwithstanding) — iff the cycle check passes;
//! - **equal** classes fall back to the caller's speculation test (strict
//!   seniority for [`ReservationLedger::try_preempt`]), exactly the
//!   pre-lattice behaviour, so runs where every entry carries the default
//!   class are bit-identical to the class-blind ledger;
//! - a **lower** class never displaces a higher one.
//!
//! This is how a T-gate factory region outranks logical compute without
//! touching the acyclicity machinery: urgency is expressed entirely in the
//! policy layer, and every reorder — class-driven or seniority-driven —
//! still goes through the same structural and cycle proofs.
//!
//! # Invariants
//!
//! 1. **Acyclicity** — the task wait-for graph is acyclic after every
//!    public mutation; [`ReservationLedger::is_acyclic`] checks it in
//!    O(V + E) for property tests and engine debug assertions.
//! 2. **Seniority** — plain pushes append in arrival order, and equal-class
//!    arbitration only ever lets *older* tasks overtake (or whatever the
//!    caller's stricter test allows), so FIFO runs are reorder-free.
//! 3. **Determinism** — the ledger holds no clocks and no randomness: the
//!    same op sequence yields the same queues, ids, graph and counters, so
//!    a run is byte-identical from one execution to the next.

use crate::queue::{AncillaQueue, EntryStatus, QueueEntry};
use crate::types::TaskId;
use rescq_circuit::Angle;
use std::collections::HashMap;
use std::str::FromStr;

/// Identifier of one queue reservation (unique within a ledger's lifetime).
///
/// Entries pushed through a [`ReservationLedger`] carry the id of the
/// reservation that backs them; entries constructed standalone carry
/// [`ReservationId::UNREGISTERED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReservationId(pub u64);

impl ReservationId {
    /// Placeholder for entries not (yet) registered with a ledger.
    pub const UNREGISTERED: ReservationId = ReservationId(0);
}

/// Priority class of one queue reservation: the rank of a task in the
/// [`ClassLattice`]. Higher ranks outrank lower ones in ledger arbitration
/// (see the module docs); equal ranks keep the seniority rule.
///
/// The named constants are the ranks of the **default** lattice. A
/// reordered lattice re-maps names to ranks via [`ClassLattice::class_of`];
/// the arbitration rule only ever compares ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskClass(pub u8);

impl TaskClass {
    /// Speculative work (e.g. a preemptively enqueued rotation whose
    /// predecessor gates are incomplete): yields to everything.
    pub const SPECULATIVE: TaskClass = TaskClass(0);
    /// Ordinary logical compute (CNOT surgeries, Hadamards) — the default
    /// class of every entry, so class-blind runs are uniform-`COMPUTE`.
    pub const COMPUTE: TaskClass = TaskClass(1);
    /// A ready continuous-angle injection (`|mθ⟩` consumption is the
    /// latency-critical feed-forward step).
    pub const INJECTION: TaskClass = TaskClass(2);
    /// T-gate factory work: rotation pipelines whose output feeds the
    /// compute block; outranks everything by default.
    pub const FACTORY: TaskClass = TaskClass(3);

    /// The rank within the lattice (0 = lowest priority).
    pub fn rank(self) -> u8 {
        self.0
    }
}

impl Default for TaskClass {
    fn default() -> Self {
        TaskClass::COMPUTE
    }
}

impl std::fmt::Display for TaskClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class{}", self.0)
    }
}

/// The four task classes the scheduler assigns, in the order of the
/// [`LedgerStats::preemptions_by_class`] buckets (the default lattice's
/// ascending rank order).
const CLASS_NAMES: [&str; 4] = ["speculative", "compute", "injection", "factory"];

/// An order of the four task classes: the priority lattice ledger
/// arbitration ranks reservations by.
///
/// The textual form lists the class names from **highest to lowest**
/// priority, separated by `>` — the default lattice is
/// `factory>injection>compute>speculative`. Any order of exactly these
/// four names is a lattice: the scheduler maps its internal task kinds
/// onto them via [`ClassLattice::factory`] & co.
///
/// # Example
///
/// ```
/// use rescq_core::{ClassLattice, TaskClass};
///
/// let lattice = ClassLattice::default();
/// assert_eq!(lattice.factory(), TaskClass::FACTORY);
/// assert!(lattice.factory() > lattice.compute());
/// assert_eq!(lattice.to_string(), "factory>injection>compute>speculative");
///
/// // Any order of the four: here injections outrank factory work.
/// let custom: ClassLattice = "injection>factory>compute>speculative"
///     .parse()
///     .unwrap();
/// assert!(custom.injection() > custom.factory());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLattice {
    /// Class names in ascending rank order (index = rank).
    names: [&'static str; 4],
}

impl Default for ClassLattice {
    fn default() -> Self {
        ClassLattice { names: CLASS_NAMES }
    }
}

impl ClassLattice {
    /// The rank of the named class, if present.
    pub fn class_of(&self, name: &str) -> Option<TaskClass> {
        self.names
            .iter()
            .position(|&n| n == name)
            .map(|i| TaskClass(i as u8))
    }

    fn canonical(&self, name: &str) -> TaskClass {
        self.class_of(name)
            .expect("every lattice orders all four classes")
    }

    /// Rank of the canonical `speculative` class.
    pub fn speculative(&self) -> TaskClass {
        self.canonical("speculative")
    }

    /// Rank of the canonical `compute` class.
    pub fn compute(&self) -> TaskClass {
        self.canonical("compute")
    }

    /// Rank of the canonical `injection` class.
    pub fn injection(&self) -> TaskClass {
        self.canonical("injection")
    }

    /// Rank of the canonical `factory` class.
    pub fn factory(&self) -> TaskClass {
        self.canonical("factory")
    }

    /// Parses the shared configuration spelling used by every surface
    /// (CLI flag, config-file key, harness axis): `off` (case-insensitive)
    /// means class-blind arbitration (`None`), anything else must be a
    /// valid lattice.
    ///
    /// # Errors
    ///
    /// Returns the [`FromStr`] error message for an invalid lattice.
    pub fn parse_setting(s: &str) -> Result<Option<ClassLattice>, String> {
        if s.trim().eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        s.parse::<ClassLattice>().map(Some)
    }

    /// The rank → counter-bucket map for this lattice
    /// ([`ReservationLedger::set_class_buckets`]): rank `r` counts toward
    /// the bucket of the class at that rank, so the named per-class
    /// counters stay truthful whatever order the lattice gives them.
    pub fn canonical_buckets(&self) -> [u8; 4] {
        self.names.map(|name| {
            CLASS_NAMES
                .iter()
                .position(|&c| c == name)
                .expect("lattice names are the four classes") as u8
        })
    }
}

impl std::fmt::Display for ClassLattice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, name) in self.names.iter().rev().enumerate() {
            if i > 0 {
                f.write_str(">")?;
            }
            f.write_str(name)?;
        }
        Ok(())
    }
}

impl FromStr for ClassLattice {
    type Err = String;

    /// Parses the `highest>…>lowest` spelling: an order of exactly the
    /// four classes `factory`, `injection`, `compute` and `speculative`
    /// (case-insensitive). A missing, extra or repeated name is an error
    /// that lists the four.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |what: String| {
            Err(format!(
                "{what} in lattice `{s}`: order exactly the four classes \
                 factory, injection, compute and speculative"
            ))
        };
        let mut names: Vec<&'static str> = Vec::with_capacity(4);
        for part in s.split('>') {
            let name = part.trim().to_ascii_lowercase();
            let Some(&class) = CLASS_NAMES.iter().find(|&&c| c == name) else {
                return bad(format!("unknown class `{name}`"));
            };
            if names.contains(&class) {
                return bad(format!("duplicate class `{class}`"));
            }
            names.push(class);
        }
        if let Some(missing) = CLASS_NAMES.iter().find(|c| !names.contains(c)) {
            return bad(format!("missing class `{missing}`"));
        }
        // Input is highest-first; store ascending (index = rank).
        names.reverse();
        Ok(ClassLattice {
            names: names.try_into().expect("four distinct classes"),
        })
    }
}

/// Counters describing a ledger's preemption and wait-graph history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Preemptions applied (an older task reordered ahead of younger
    /// speculative preparations).
    pub preemptions: u64,
    /// Preemptions rejected because the reversed wait-for edges would have
    /// created a cycle (the naive-yield deadlock, caught).
    pub preemptions_rejected_cycle: u64,
    /// Applied preemptions where the preemptor's [`TaskClass`] strictly
    /// outranked at least one displaced entry — reorders that seniority (or
    /// the caller's equal-class test) alone would not have granted. Always 0
    /// when every entry carries the same class (class-blind runs).
    pub preemptions_class: u64,
    /// Applied preemptions bucketed by the preemptor's class. With a
    /// bucket map installed ([`ReservationLedger::set_class_buckets`],
    /// built from [`ClassLattice::canonical_buckets`]) the four buckets
    /// are the classes `speculative, compute, injection, factory`
    /// whatever ranks the lattice assigns them; without one, the bucket is
    /// the rank. Class-blind runs land everything in the default
    /// [`TaskClass::COMPUTE`] bucket.
    pub preemptions_by_class: [u64; 4],
    /// Largest number of distinct edges the wait-for graph ever held.
    pub waitgraph_peak_edges: u64,
}

/// One ledger arbitration event, recorded while the event log is enabled
/// ([`ReservationLedger::enable_event_log`]). The ledger has no clock;
/// consumers (the engine's telemetry drain) stamp events with simulation
/// time when they collect them via [`ReservationLedger::take_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerEvent {
    /// A reservation was registered on an ancilla queue.
    Claim {
        /// The claiming task.
        task: TaskId,
        /// The claimed ancilla.
        ancilla: u32,
    },
    /// A preemption was applied (queue reorder; graph proven acyclic).
    Preempted {
        /// The preempting task.
        task: TaskId,
        /// The reordered ancilla queue.
        ancilla: u32,
        /// The reorder was granted by the class lattice (see
        /// [`Preemption::Applied`]'s `class_won`).
        class_won: bool,
    },
    /// A preemption was rejected by the incremental acyclicity check.
    Rejected {
        /// The task whose reorder was refused.
        task: TaskId,
        /// The ancilla whose queue would have been reordered.
        ancilla: u32,
    },
    /// A wait-for edge was inserted: `waiter` enqueued behind `holder`
    /// on `ancilla`. Only *claim-time* edges are logged (one per
    /// distinct task ahead of the new entry) — enough to reconstruct
    /// blocking chains downstream without replaying queue mechanics.
    WaitEdge {
        /// The task that now waits.
        waiter: TaskId,
        /// The task it queued behind.
        holder: TaskId,
        /// The ancilla queue carrying the edge.
        ancilla: u32,
    },
}

/// Outcome of a [`ReservationLedger::try_preempt`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preemption {
    /// The reorder was applied; the graph is still acyclic. Carries the task
    /// whose entry was displaced from the queue top (its in-flight
    /// preparation, if any, must be cancelled by the caller).
    Applied {
        /// Task whose entry sat at the top before the reorder.
        displaced_top: TaskId,
        /// The reorder was granted by the priority-class lattice: the
        /// preemptor strictly outranked at least one displaced entry, so
        /// seniority (or the caller's equal-class test) alone would have
        /// refused it. Mirrors the [`LedgerStats::preemptions_class`]
        /// increment, per call.
        class_won: bool,
    },
    /// The reorder would have made the wait-for graph cyclic; nothing
    /// changed.
    RejectedCycle,
    /// The task has no entry here, is already at the top, or something ahead
    /// of it is not a preemptible speculative preparation (wrong role,
    /// already executing or holding a state, or not younger); nothing
    /// changed.
    NotEligible,
}

/// The reservation ledger: every ancilla queue plus the task-level wait-for
/// graph they imply, kept in sync incrementally.
///
/// # Example
///
/// ```
/// use rescq_circuit::Angle;
/// use rescq_core::{Preemption, QueueEntry, ReservationLedger, Role, TaskId};
///
/// let mut ledger = ReservationLedger::new(2);
/// // Task 1's speculative prep reached ancilla 0 first; task 0's CNOT
/// // route entry queued behind it.
/// ledger.push(0, QueueEntry::new(TaskId(1), Role::PrepZz, Angle::T));
/// ledger.push(0, QueueEntry::new(TaskId(0), Role::Route, Angle::ZERO));
/// // The older CNOT preempts: the reorder is provably cycle-free.
/// assert_eq!(
///     ledger.try_preempt(TaskId(0), 0),
///     Preemption::Applied { displaced_top: TaskId(1), class_won: false }
/// );
/// assert_eq!(ledger.queue(0).top().unwrap().task, TaskId(0));
/// assert!(ledger.is_acyclic());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReservationLedger {
    queues: Vec<AncillaQueue>,
    next_id: u64,
    /// Wait-for adjacency indexed by the waiter's raw task id: a flat
    /// `(holder, multiplicity)` list per waiter. An edge exists while any
    /// queue holds an entry of `waiter` behind one of `holder`. Lists are
    /// short (bounded by queue fan-out), so linear upsert beats a nested
    /// `HashMap` on the hot path and — together with `spare_edge_lists` —
    /// never churns the allocator at steady state.
    edges: Vec<Vec<(TaskId, u32)>>,
    /// Capacity-retaining edge lists recycled from completed tasks
    /// ([`Self::recycle_task`]); popped before a slot's first allocation.
    spare_edge_lists: Vec<Vec<(TaskId, u32)>>,
    /// Current number of distinct (waiter, holder) pairs.
    edge_count: u64,
    /// Bit `a` set iff ancilla `a`'s queue is non-empty — the §4.2 packed
    /// busy words. Engines scan these with word-parallel iteration instead
    /// of probing every (mostly empty) queue.
    nonempty: Vec<u64>,
    /// Bit `a` set iff ancilla `a` was touched since the consumer's last
    /// [`Self::clear_dirty`] — by any ledger mutation, or explicitly via
    /// [`Self::mark_dirty`] for state the ledger cannot see (fabric holds,
    /// preparation completions). Engines use this as the incremental
    /// dispatch frontier: an unmarked ancilla provably proposes the same
    /// (empty) action it proposed last pass, so only marked words need
    /// rescanning.
    dirty: Vec<u64>,
    /// Scratch buffers reused across calls so the steady-state ledger makes
    /// zero heap allocations (see `arena` module docs).
    scratch_tasks: Vec<TaskId>,
    /// `(task, count)` lists: the displaced pairs' multiplicities in
    /// [`Self::try_preempt_with`], each other entry's count of the removed
    /// task's entries ahead of it in [`Self::remove_task`].
    scratch_counts: Vec<(TaskId, u32)>,
    scratch_stack: Vec<TaskId>,
    scratch_seen: crate::arena::Bitset,
    /// Rank → counter-bucket map for [`LedgerStats::preemptions_by_class`]
    /// (`None`: the bucket is the rank). Affects counters only, never
    /// arbitration.
    class_buckets: Option<[u8; 4]>,
    /// Arbitration event log, `None` (and cost-free) unless a consumer
    /// called [`Self::enable_event_log`].
    event_log: Option<Vec<LedgerEvent>>,
    stats: LedgerStats,
}

impl ReservationLedger {
    /// Creates a ledger over `num_ancillas` empty queues.
    pub fn new(num_ancillas: usize) -> Self {
        ReservationLedger {
            queues: vec![AncillaQueue::new(); num_ancillas],
            nonempty: vec![0u64; num_ancillas.div_ceil(64)],
            // Everything starts dirty: the first dispatch pass must examine
            // every ancilla once before the incremental frontier takes over.
            dirty: vec![u64::MAX; num_ancillas.div_ceil(64)],
            ..Default::default()
        }
    }

    /// Pre-sizes the per-task structures for task ids `0..n` so steady-state
    /// pushes and preemption checks never grow them. Engines call this once
    /// with the circuit's gate count.
    pub fn reserve_tasks(&mut self, n: usize) {
        if self.edges.len() < n {
            self.edges.resize_with(n, Vec::new);
        }
        self.scratch_seen.reserve(n);
        // Pre-size the mutation scratch to generous queue-depth bounds so
        // the buffers never grow mid-run: their high-water marks otherwise
        // arrive late (deep queues form only under congestion) and each
        // growth step would break the zero-allocation steady state.
        let depth = 64.min(n);
        self.scratch_tasks.reserve(depth);
        self.scratch_counts.reserve(depth);
        self.scratch_stack.reserve(depth);
    }

    /// Returns `task`'s (drained) edge list to the recycling pool. Engines
    /// call this when a task completes, after its last queue entry is
    /// removed; the freed capacity is handed to the next task that needs
    /// one, so the edge map's footprint plateaus at the live-task high-water
    /// mark.
    pub fn recycle_task(&mut self, task: TaskId) {
        if let Some(list) = self.edges.get_mut(task.0 as usize) {
            if list.capacity() > 0 && list.is_empty() {
                self.spare_edge_lists.push(std::mem::take(list));
            }
        }
    }

    /// The packed queue-occupancy words: bit `a` of word `a / 64` is set iff
    /// ancilla `a`'s queue is non-empty. Stays exactly in sync with every
    /// push/pop/removal, letting dispatch scans skip empty queues 64 at a
    /// time.
    pub fn nonempty_words(&self) -> &[u64] {
        &self.nonempty
    }

    /// Marks ancilla `a` dirty: its dispatch-relevant state may have
    /// changed, so the next incremental scan must re-evaluate it. Every
    /// ledger mutation marks automatically; engines call this for changes
    /// the ledger cannot observe (fabric occupancy expiring, a preparation
    /// finishing, a held state being consumed).
    pub fn mark_dirty(&mut self, a: u32) {
        let w = (a / 64) as usize;
        if w >= self.dirty.len() {
            self.dirty.resize(w + 1, 0);
        }
        self.dirty[w] |= 1u64 << (a % 64);
    }

    /// The packed dirty words (bit `a` of word `a / 64`); same layout as
    /// [`Self::nonempty_words`].
    pub fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// Clears the dirty set. Callers snapshot (or intersect) the words
    /// first, then clear, so mutations made while acting on the snapshot
    /// re-mark for the next pass.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    fn set_nonempty_bit(&mut self, a: u32) {
        let w = (a / 64) as usize;
        if w >= self.nonempty.len() {
            self.nonempty.resize(w + 1, 0);
        }
        let bit = 1u64 << (a % 64);
        if self.queues[a as usize].is_empty() {
            self.nonempty[w] &= !bit;
        } else {
            self.nonempty[w] |= bit;
        }
    }

    /// Enables the arbitration event log: claims, applied preemptions and
    /// cycle-rejected reorders are appended to an internal buffer the
    /// consumer drains with [`Self::take_events`]. Counters and arbitration
    /// are unaffected — the log is observation only.
    pub fn enable_event_log(&mut self) {
        self.event_log.get_or_insert_with(Vec::new);
    }

    /// Drains the arbitration event log (empty when logging is disabled or
    /// nothing happened since the last drain). The internal buffer's
    /// allocation is handed to the caller; logging continues into a fresh
    /// one.
    pub fn take_events(&mut self) -> Vec<LedgerEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    #[inline]
    fn log_event(&mut self, ev: LedgerEvent) {
        if let Some(log) = &mut self.event_log {
            log.push(ev);
        }
    }

    /// Installs the rank → bucket map used to attribute
    /// [`LedgerStats::preemptions_by_class`] (typically
    /// [`ClassLattice::canonical_buckets`], so the named buckets stay
    /// truthful for a reordered lattice). Counters only — arbitration
    /// always compares raw ranks.
    pub fn set_class_buckets(&mut self, buckets: [u8; 4]) {
        self.class_buckets = Some(buckets);
    }

    /// Number of ancilla queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Read access to ancilla `a`'s queue.
    pub fn queue(&self, a: u32) -> &AncillaQueue {
        &self.queues[a as usize]
    }

    /// Iterates `(ancilla, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (u32, &AncillaQueue)> {
        self.queues.iter().enumerate().map(|(i, q)| (i as u32, q))
    }

    /// Ledger counters.
    pub fn stats(&self) -> LedgerStats {
        self.stats.clone()
    }

    /// Current number of distinct wait-for edges.
    pub fn current_edges(&self) -> u64 {
        self.edge_count
    }

    /// Appends `entry` to ancilla `a`'s queue, assigning it a fresh
    /// reservation id and inserting its wait-for edges. Returns the id.
    pub fn push(&mut self, a: u32, mut entry: QueueEntry) -> ReservationId {
        self.mark_dirty(a);
        self.log_event(LedgerEvent::Claim {
            task: entry.task,
            ancilla: a,
        });
        self.next_id += 1;
        let id = ReservationId(self.next_id);
        entry.reservation = id;
        // Incremental edge insertion: the new back entry waits for every
        // distinct task already queued ahead of it.
        let mut waiters = std::mem::take(&mut self.scratch_tasks);
        waiters.clear();
        waiters.extend(
            self.queues[a as usize]
                .iter()
                .map(|e| e.task)
                .filter(|&t| t != entry.task),
        );
        for &holder in &waiters {
            self.log_event(LedgerEvent::WaitEdge {
                waiter: entry.task,
                holder,
                ancilla: a,
            });
            self.add_edge(entry.task, holder);
        }
        self.scratch_tasks = waiters;
        self.queues[a as usize].push(entry);
        self.set_nonempty_bit(a);
        id
    }

    /// Pops the top entry of ancilla `a`, releasing the edges it held.
    pub fn pop(&mut self, a: u32) -> Option<QueueEntry> {
        self.mark_dirty(a);
        let top = self.queues[a as usize].pop();
        if let Some(top) = top {
            // Every other task's entry behind the top waited for it once.
            let mut waiters = std::mem::take(&mut self.scratch_tasks);
            waiters.clear();
            waiters.extend(
                self.queues[a as usize]
                    .iter()
                    .map(|e| e.task)
                    .filter(|&t| t != top.task),
            );
            for &w in &waiters {
                self.remove_edge(w, top.task);
            }
            self.scratch_tasks = waiters;
        }
        self.set_nonempty_bit(a);
        top
    }

    /// Removes every entry of `task` from ancilla `a`'s queue, releasing the
    /// edges. Returns how many entries were removed.
    pub fn remove_task(&mut self, a: u32, task: TaskId) -> usize {
        if !self.queues[a as usize].contains_task(task) {
            return 0;
        }
        self.mark_dirty(a);
        // Another task's entry waits for each of `task`'s entries ahead of
        // it and is waited for by each one behind it; pair every other
        // entry with how many of `task`'s entries precede it.
        let mut others = std::mem::take(&mut self.scratch_counts);
        others.clear();
        let mut total = 0;
        for e in self.queues[a as usize].iter() {
            if e.task == task {
                total += 1;
            } else {
                others.push((e.task, total));
            }
        }
        for &(other, ahead) in &others {
            for _ in 0..ahead {
                self.remove_edge(other, task);
            }
            for _ in ahead..total {
                self.remove_edge(task, other);
            }
        }
        self.scratch_counts = others;
        let removed = self.queues[a as usize].remove_task(task);
        self.set_nonempty_bit(a);
        removed
    }

    /// Moves the entry at `pos` of ancilla `a`'s queue to the top. Only
    /// its pairs with the entries it overtakes change: each `moved → p`
    /// wait reverses into `p → moved`. Removals go first, so the edge
    /// count never overshoots its final value.
    fn move_to_front(&mut self, a: u32, pos: usize) {
        self.mark_dirty(a);
        let q = &self.queues[a as usize];
        let Some(moved) = q.iter().nth(pos).map(|e| e.task) else {
            return;
        };
        let mut overtaken = std::mem::take(&mut self.scratch_tasks);
        overtaken.clear();
        overtaken.extend(q.iter().take(pos).map(|e| e.task).filter(|&t| t != moved));
        for &p in &overtaken {
            self.remove_edge(moved, p);
        }
        for &p in &overtaken {
            self.add_edge(p, moved);
        }
        self.scratch_tasks = overtaken;
        self.queues[a as usize].move_to_front(pos);
    }

    /// Rewrites the ladder angle of `task`'s entry on ancilla `a` in place
    /// (§4.1's `Rθ → R2θ` update; queue position — and therefore the wait
    /// graph — is untouched).
    pub fn update_angle(&mut self, a: u32, task: TaskId, angle: Angle) -> bool {
        self.mark_dirty(a);
        self.queues[a as usize].update_angle(task, angle)
    }

    /// Rewrites the priority class of `task`'s entries on ancilla `a` in
    /// place (class *promotion* — e.g. a speculative rotation becoming
    /// runnable). Queue position and the wait graph are untouched; only
    /// future arbitration sees the new class.
    pub fn update_class(&mut self, a: u32, task: TaskId, class: TaskClass) -> bool {
        self.mark_dirty(a);
        self.queues[a as usize].update_class(task, class)
    }

    /// Sets the status of ancilla `a`'s top entry, if any.
    pub fn set_top_status(&mut self, a: u32, status: EntryStatus) {
        self.mark_dirty(a);
        self.queues[a as usize].set_status_at(0, status);
    }

    /// Sets the status of ancilla `a`'s top entry only when it belongs to
    /// `task`.
    pub fn set_top_status_if(&mut self, a: u32, task: TaskId, status: EntryStatus) {
        self.mark_dirty(a);
        if self.queues[a as usize]
            .top()
            .is_some_and(|e| e.task == task)
        {
            self.queues[a as usize].set_status_at(0, status);
        }
    }

    /// Attempts to reorder `task`'s entry on ancilla `a` to the top, ahead
    /// of the speculative preparations currently blocking it.
    ///
    /// Eligibility (checked first; failures return
    /// [`Preemption::NotEligible`] and change nothing): `task` must have an
    /// entry that is not already the top, and **every** entry ahead of it
    /// must be a speculative preparation of a strictly *younger* task that
    /// is not executing and not holding a finished state — seniority-safe
    /// means only older work may overtake, and only work that can actually
    /// yield.
    ///
    /// The reorder reverses wait-for edges (each displaced preparation now
    /// waits for `task`). Those insertions are committed only if an
    /// incremental cycle check proves the graph stays acyclic; otherwise the
    /// queue is restored and [`Preemption::RejectedCycle`] is returned —
    /// this is precisely the case where a naive yield would have deadlocked.
    pub fn try_preempt(&mut self, task: TaskId, a: u32) -> Preemption {
        self.try_preempt_with(task, a, |e| e.task > task)
    }

    /// [`Self::try_preempt`] with a caller-supplied *equal-class*
    /// speculation test — the single class-aware arbitration rule every
    /// preemption entry point shares.
    ///
    /// The ledger always enforces the structural half of eligibility (every
    /// entry ahead is a preparation that is not executing and not holding a
    /// state, or an unused helper claim) and the acyclicity check. Above
    /// that, each displaced entry is judged by the [`TaskClass`] lattice:
    ///
    /// - the preemptor's class **strictly outranks** the entry's → the
    ///   entry yields (this is the reorder seniority alone would refuse —
    ///   counted in [`LedgerStats::preemptions_class`]);
    /// - **equal** classes → `may_displace` decides, exactly the
    ///   pre-lattice behaviour. The default [`Self::try_preempt`] passes
    ///   strict seniority (`prep.task > task`); an engine that knows more —
    ///   e.g. that a preparation's owner cannot inject yet because its
    ///   predecessor gates are incomplete — can widen the test without
    ///   touching the safety invariant;
    /// - the entry's class **outranks** the preemptor's → never displaced.
    ///
    /// The preemptor's class is read from its own entry in this queue, so
    /// class policy travels with the reservation; when every entry carries
    /// the default class the rule degenerates to the class-blind ledger
    /// bit for bit.
    pub fn try_preempt_with(
        &mut self,
        task: TaskId,
        a: u32,
        may_displace: impl Fn(&QueueEntry) -> bool,
    ) -> Preemption {
        let q = &self.queues[a as usize];
        let Some(pos) = q.position(task) else {
            return Preemption::NotEligible;
        };
        if pos == 0 {
            return Preemption::NotEligible;
        }
        let class = q.entry(task).expect("position implies entry").class;
        let mut class_win = false;
        for e in q.iter().take(pos) {
            let may_reorder = match class.cmp(&e.class) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => may_displace(e),
                std::cmp::Ordering::Less => false,
            };
            if !e.yields_structurally() || !may_reorder {
                return Preemption::NotEligible;
            }
            class_win |= class > e.class;
        }
        let displaced_top = q.top().expect("pos > 0").task;
        // Incremental cycle check. The reorder changes exactly one set of
        // edges: each `task → p` pair this queue contributed (for every
        // entry `p` ahead of `task`) reverses into `p → task`. Adding
        // `p → task` closes a cycle iff `task` already reaches `p` without
        // the removed pairs — so one targeted reachability walk from `task`
        // (skipping this queue's doomed `task → p` multiplicities) decides
        // the whole reorder, touching only the reachable subgraph and
        // mutating nothing on rejection. This is the check whose absence
        // made the naive yield deadlock on inconsistent cross-ancilla
        // orders.
        let mut displaced = std::mem::take(&mut self.scratch_counts);
        displaced.clear();
        for e in self.queues[a as usize].iter().take(pos) {
            match displaced.iter_mut().find(|d| d.0 == e.task) {
                Some(d) => d.1 += 1,
                None => displaced.push((e.task, 1)),
            }
        }
        let mut stack = std::mem::take(&mut self.scratch_stack);
        let mut seen = std::mem::take(&mut self.scratch_seen);
        let cyclic =
            Self::reaches_any_without(&self.edges, task, &displaced, &mut stack, &mut seen);
        self.scratch_stack = stack;
        self.scratch_seen = seen;
        self.scratch_counts = displaced;
        if cyclic {
            self.stats.preemptions_rejected_cycle += 1;
            self.log_event(LedgerEvent::Rejected { task, ancilla: a });
            return Preemption::RejectedCycle;
        }
        self.move_to_front(a, pos);
        debug_assert!(self.is_acyclic(), "accepted preemption broke acyclicity");
        // Displaced preparations restart from Ready when they return to
        // the top (their in-flight preparation is cancelled by the
        // caller via the returned `displaced_top`).
        for i in 1..=pos {
            self.queues[a as usize].set_status_at(i, EntryStatus::Ready);
        }
        self.stats.preemptions += 1;
        let rank = class.rank() as usize;
        let bucket = self.class_buckets.map_or(rank, |b| b[rank] as usize);
        self.stats.preemptions_by_class[bucket] += 1;
        if class_win {
            self.stats.preemptions_class += 1;
        }
        self.log_event(LedgerEvent::Preempted {
            task,
            ancilla: a,
            class_won: class_win,
        });
        Preemption::Applied {
            displaced_top,
            class_won: class_win,
        }
    }

    /// Whether `from` reaches any key of `doomed` in the wait-for graph
    /// *minus* the about-to-be-removed `from → key` multiplicities (the
    /// value is how many of that pair's edges the reorder deletes). Edges
    /// between other nodes — including this queue's surviving pairs — stay
    /// traversable. `stack`/`seen` are caller-recycled scratch.
    fn reaches_any_without(
        edges: &[Vec<(TaskId, u32)>],
        from: TaskId,
        doomed: &[(TaskId, u32)],
        stack: &mut Vec<TaskId>,
        seen: &mut crate::arena::Bitset,
    ) -> bool {
        stack.clear();
        seen.clear();
        stack.push(from);
        seen.insert(from.0 as usize);
        while let Some(u) = stack.pop() {
            let Some(succs) = edges.get(u.0 as usize) else {
                continue;
            };
            for &(v, count) in succs {
                let removed = if u == from {
                    doomed.iter().find(|d| d.0 == v).map_or(0, |d| d.1)
                } else {
                    0
                };
                if count <= removed {
                    continue; // every such edge disappears with the reorder
                }
                if doomed.iter().any(|d| d.0 == v) {
                    return true;
                }
                if !seen.contains(v.0 as usize) {
                    seen.insert(v.0 as usize);
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Whether the wait-for graph is acyclic (it always is after any public
    /// mutation; exposed for property tests and debug assertions).
    pub fn is_acyclic(&self) -> bool {
        // Iterative three-colour DFS over the adjacency map.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: HashMap<TaskId, Colour> = HashMap::new();
        let starts: Vec<TaskId> = (0..self.edges.len())
            .filter(|&i| !self.edges[i].is_empty())
            .map(|i| TaskId(i as u32))
            .collect();
        for start in starts {
            if *colour.get(&start).unwrap_or(&Colour::White) != Colour::White {
                continue;
            }
            // Stack of (node, next-neighbour cursor).
            let mut stack: Vec<(TaskId, Vec<TaskId>)> = vec![(start, self.successors(start))];
            colour.insert(start, Colour::Grey);
            while let Some((node, succs)) = stack.last_mut() {
                if let Some(next) = succs.pop() {
                    match *colour.get(&next).unwrap_or(&Colour::White) {
                        Colour::Grey => return false,
                        Colour::Black => {}
                        Colour::White => {
                            colour.insert(next, Colour::Grey);
                            let s = self.successors(next);
                            stack.push((next, s));
                        }
                    }
                } else {
                    colour.insert(*node, Colour::Black);
                    stack.pop();
                }
            }
        }
        true
    }

    /// Ordered successor list of `task` (deterministic iteration).
    fn successors(&self, task: TaskId) -> Vec<TaskId> {
        let mut s: Vec<TaskId> = self
            .edges
            .get(task.0 as usize)
            .map(|l| l.iter().map(|e| e.0).collect())
            .unwrap_or_default();
        s.sort_unstable();
        s
    }

    fn add_edge(&mut self, waiter: TaskId, holder: TaskId) {
        let idx = waiter.0 as usize;
        if idx >= self.edges.len() {
            self.edges.resize_with(idx + 1, Vec::new);
        }
        let list = &mut self.edges[idx];
        if list.capacity() == 0 {
            match self.spare_edge_lists.pop() {
                Some(spare) => *list = spare,
                // Floor the first allocation at a typical fan-out bound so
                // lists rarely regrow; recycled lists keep whatever larger
                // capacity they reached.
                None => list.reserve(16),
            }
        }
        if list.len() == list.capacity() {
            // Jump straight to the floor instead of doubling through 2/4/8:
            // one amortizing step, then the capacity recycles forever.
            list.reserve(16.max(list.len()));
        }
        match list.iter_mut().find(|e| e.0 == holder) {
            Some(e) => e.1 += 1,
            None => {
                list.push((holder, 1));
                self.edge_count += 1;
                self.stats.waitgraph_peak_edges =
                    self.stats.waitgraph_peak_edges.max(self.edge_count);
            }
        }
    }

    fn remove_edge(&mut self, waiter: TaskId, holder: TaskId) {
        let Some(list) = self.edges.get_mut(waiter.0 as usize) else {
            debug_assert!(false, "removing unknown edge {waiter}->{holder}");
            return;
        };
        let Some(pos) = list.iter().position(|e| e.0 == holder) else {
            debug_assert!(false, "removing unknown edge {waiter}->{holder}");
            return;
        };
        list[pos].1 -= 1;
        if list[pos].1 == 0 {
            // Order within a list is irrelevant (reachability + sorted
            // `successors` are the only consumers), so `swap_remove` keeps
            // removal O(1) and never releases capacity.
            list.swap_remove(pos);
            self.edge_count -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Role;

    fn prep(task: u32) -> QueueEntry {
        QueueEntry::new(TaskId(task), Role::PrepZz, Angle::T)
    }

    fn route(task: u32) -> QueueEntry {
        QueueEntry::new(TaskId(task), Role::Route, Angle::ZERO)
    }

    #[test]
    fn push_assigns_fresh_reservation_ids() {
        let mut l = ReservationLedger::new(2);
        let a = l.push(0, route(0));
        let b = l.push(1, route(0));
        assert_ne!(a, b);
        assert_ne!(a, ReservationId::UNREGISTERED);
        assert_eq!(l.queue(0).top().unwrap().reservation, a);
    }

    #[test]
    fn fifo_pushes_keep_edges_younger_to_older() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(0));
        l.push(0, route(1));
        l.push(0, route(2));
        // Edges 1->0, 2->0, 2->1.
        assert_eq!(l.current_edges(), 3);
        assert!(l.is_acyclic());
        l.pop(0);
        assert_eq!(l.current_edges(), 1);
        l.remove_task(0, TaskId(2));
        assert_eq!(l.current_edges(), 0);
        assert_eq!(l.stats().waitgraph_peak_edges, 3);
    }

    #[test]
    fn duplicate_task_entries_contribute_no_self_edges() {
        let mut l = ReservationLedger::new(1);
        l.push(0, route(5));
        l.push(0, QueueEntry::new(TaskId(5), Role::EdgeRotate, Angle::ZERO));
        assert_eq!(l.current_edges(), 0);
        assert_eq!(l.remove_task(0, TaskId(5)), 2);
    }

    #[test]
    fn preempt_applies_when_cycle_free() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(3));
        l.push(0, prep(4));
        l.push(0, route(1));
        let got = l.try_preempt(TaskId(1), 0);
        assert_eq!(
            got,
            Preemption::Applied {
                displaced_top: TaskId(3),
                class_won: false
            }
        );
        let order: Vec<u32> = l.queue(0).iter().map(|e| e.task.0).collect();
        assert_eq!(order, vec![1, 3, 4]);
        assert!(l.is_acyclic());
        assert_eq!(l.stats().preemptions, 1);
        // Displaced preparations are reset to Ready.
        assert!(l
            .queue(0)
            .iter()
            .skip(1)
            .all(|e| e.status == EntryStatus::Ready));
    }

    #[test]
    fn preempt_requires_strict_seniority() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(1));
        l.push(0, route(2));
        // Task 2 is younger than the prep ahead of it: not eligible.
        assert_eq!(l.try_preempt(TaskId(2), 0), Preemption::NotEligible);
    }

    #[test]
    fn preempt_refuses_executing_and_holding_preps() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(5));
        l.push(0, route(1));
        l.set_top_status(0, EntryStatus::DonePreparing);
        assert_eq!(l.try_preempt(TaskId(1), 0), Preemption::NotEligible);
        l.set_top_status(0, EntryStatus::Executing);
        assert_eq!(l.try_preempt(TaskId(1), 0), Preemption::NotEligible);
        l.set_top_status(0, EntryStatus::Preparing);
        assert!(matches!(
            l.try_preempt(TaskId(1), 0),
            Preemption::Applied { .. }
        ));
    }

    #[test]
    fn preempt_rejects_the_naive_yield_deadlock() {
        // The counterexample that sank the naive move-top-to-back yield:
        // after a re-plan, task 1's route entries sit behind task 2's preps
        // on BOTH ancillas. Reordering either queue alone reverses only one
        // of the two `1 → 2` waits, leaving `1 → 2` (other queue) and
        // `2 → 1` (this queue) — a cycle, i.e. the naive yield's deadlock.
        let mut l = ReservationLedger::new(2);
        l.push(0, prep(2));
        l.push(0, route(1));
        l.push(1, prep(2));
        l.push(1, route(1));
        assert_eq!(l.try_preempt(TaskId(1), 0), Preemption::RejectedCycle);
        assert_eq!(l.try_preempt(TaskId(1), 1), Preemption::RejectedCycle);
        assert_eq!(l.stats().preemptions_rejected_cycle, 2);
        // The ledger is untouched: still acyclic, original order intact.
        assert!(l.is_acyclic());
        let order: Vec<u32> = l.queue(0).iter().map(|e| e.task.0).collect();
        assert_eq!(order, vec![2, 1]);
        // Once task 2's prep on the *other* ancilla completes and its entry
        // leaves, the same preemption becomes safe.
        l.remove_task(1, TaskId(2));
        assert!(matches!(
            l.try_preempt(TaskId(1), 0),
            Preemption::Applied { .. }
        ));
        assert!(l.is_acyclic());
    }

    #[test]
    fn preempt_missing_or_top_entry_is_not_eligible() {
        let mut l = ReservationLedger::new(1);
        assert_eq!(l.try_preempt(TaskId(0), 0), Preemption::NotEligible);
        l.push(0, route(0));
        assert_eq!(l.try_preempt(TaskId(0), 0), Preemption::NotEligible);
    }

    #[test]
    fn lattice_parses_displays_and_validates() {
        let default = ClassLattice::default();
        assert_eq!(default.to_string(), "factory>injection>compute>speculative");
        assert_eq!(
            "factory>injection>compute>speculative"
                .parse::<ClassLattice>()
                .unwrap(),
            default
        );
        assert_eq!(default.speculative(), TaskClass::SPECULATIVE);
        assert_eq!(default.compute(), TaskClass::COMPUTE);
        assert_eq!(default.injection(), TaskClass::INJECTION);
        assert_eq!(default.factory(), TaskClass::FACTORY);
        assert_eq!(default.compute(), TaskClass::default());
        // Any order of the four classes, in any case.
        let custom: ClassLattice = " Injection > factory>compute>speculative".parse().unwrap();
        assert!(custom.injection() > custom.factory());
        assert_eq!(custom.class_of("injection"), Some(TaskClass(3)));
        assert_eq!(custom.class_of("cache"), None);
        // Round trip through Display.
        assert_eq!(custom.to_string().parse::<ClassLattice>().unwrap(), custom);
        // The shared config spelling: `off` (any case) = class-blind.
        assert_eq!(ClassLattice::parse_setting("off"), Ok(None));
        assert_eq!(ClassLattice::parse_setting(" OFF "), Ok(None));
        assert_eq!(
            ClassLattice::parse_setting("factory>injection>compute>speculative"),
            Ok(Some(default.clone()))
        );
        assert!(ClassLattice::parse_setting("nonsense").is_err());
        // Exactly the four classes: a missing, extra, repeated or unknown
        // name is rejected, and the error lists the four.
        for (bad, names) in [
            ("factory>compute>speculative", "missing class `injection`"),
            (
                "cache>factory>injection>compute>speculative",
                "unknown class `cache`",
            ),
            (
                "factory>factory>injection>compute>speculative",
                "duplicate class `factory`",
            ),
            (
                "factory>injection>compute>speculative>compute",
                "duplicate class `compute`",
            ),
            (
                "fac tory>injection>compute>speculative",
                "unknown class `fac tory`",
            ),
            (">factory", "unknown class ``"),
        ] {
            let e = bad.parse::<ClassLattice>().unwrap_err();
            assert!(e.contains(names), "{bad}: {e}");
            assert!(
                e.contains("factory, injection, compute and speculative"),
                "{bad}: {e}"
            );
        }
    }

    #[test]
    fn factory_class_preempts_where_seniority_would_refuse() {
        // An OLDER speculative prep sits ahead of a YOUNGER factory task.
        // Strict seniority rejects the reorder (the entry ahead is not
        // younger); the class lattice grants it — and the structural +
        // acyclicity machinery still runs unchanged underneath.
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(1).with_class(TaskClass::SPECULATIVE));
        l.push(0, prep(2).with_class(TaskClass::FACTORY));
        // Seniority-only (both entries forced to one class): refused.
        let mut blind = ReservationLedger::new(1);
        blind.push(0, prep(1));
        blind.push(0, prep(2));
        assert_eq!(blind.try_preempt(TaskId(2), 0), Preemption::NotEligible);
        // Class-aware: the factory entry overtakes the speculative claim.
        assert_eq!(
            l.try_preempt(TaskId(2), 0),
            Preemption::Applied {
                displaced_top: TaskId(1),
                class_won: true
            }
        );
        let order: Vec<u32> = l.queue(0).iter().map(|e| e.task.0).collect();
        assert_eq!(order, vec![2, 1]);
        assert!(l.is_acyclic());
        assert_eq!(l.stats().preemptions, 1);
        assert_eq!(l.stats().preemptions_class, 1);
        assert_eq!(
            l.stats().preemptions_by_class,
            [0, 0, 0, 1],
            "bucketed under the factory rank"
        );
    }

    #[test]
    fn lower_class_never_displaces_higher() {
        // An older compute route behind a younger FACTORY prep: seniority
        // alone would grant the reorder, the lattice refuses it.
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(5).with_class(TaskClass::FACTORY));
        l.push(0, route(1).with_class(TaskClass::COMPUTE));
        assert_eq!(l.try_preempt(TaskId(1), 0), Preemption::NotEligible);
        // Same shape with equal classes: today's seniority rule applies.
        let mut eq = ReservationLedger::new(1);
        eq.push(0, prep(5));
        eq.push(0, route(1));
        assert!(matches!(
            eq.try_preempt(TaskId(1), 0),
            Preemption::Applied { .. }
        ));
        assert_eq!(
            eq.stats().preemptions_class,
            0,
            "equal classes: no class win"
        );
        assert_eq!(eq.stats().preemptions_by_class, [0, 1, 0, 0]);
    }

    #[test]
    fn class_preemption_still_cycle_checked() {
        // The naive-yield counterexample with a class advantage: class may
        // outrank, but the acyclicity proof still vetoes the reorder.
        let mut l = ReservationLedger::new(2);
        for a in 0..2u32 {
            l.push(a, prep(2).with_class(TaskClass::SPECULATIVE));
            l.push(a, route(1).with_class(TaskClass::FACTORY));
        }
        assert_eq!(l.try_preempt(TaskId(1), 0), Preemption::RejectedCycle);
        assert_eq!(l.stats().preemptions_class, 0);
        assert_eq!(l.stats().preemptions_rejected_cycle, 1);
        // Structural safety also outranks class: an executing entry never
        // yields, whatever its class.
        let mut busy = ReservationLedger::new(1);
        busy.push(0, prep(3).with_class(TaskClass::SPECULATIVE));
        busy.push(0, route(1).with_class(TaskClass::FACTORY));
        busy.set_top_status(0, EntryStatus::Executing);
        assert_eq!(busy.try_preempt(TaskId(1), 0), Preemption::NotEligible);
    }

    #[test]
    fn class_promotion_rewrites_entries_in_place() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(1).with_class(TaskClass::COMPUTE));
        l.push(0, prep(2).with_class(TaskClass::SPECULATIVE));
        let edges = l.current_edges();
        // Promoted: position unchanged, graph unchanged, class visible to
        // future arbitration.
        assert!(l.update_class(0, TaskId(2), TaskClass::INJECTION));
        assert_eq!(l.queue(0).position(TaskId(2)), Some(1));
        assert_eq!(l.current_edges(), edges);
        assert_eq!(
            l.queue(0).entry(TaskId(2)).unwrap().class,
            TaskClass::INJECTION
        );
        assert!(matches!(
            l.try_preempt(TaskId(2), 0),
            Preemption::Applied { .. }
        ));
        assert!(!l.update_class(0, TaskId(9), TaskClass::FACTORY));
    }

    #[test]
    fn canonical_buckets_attribute_custom_lattices_truthfully() {
        // A reordered lattice must not shift the named columns: each rank
        // counts toward the bucket of the class that holds it.
        let lattice: ClassLattice = "injection>factory>speculative>compute".parse().unwrap();
        let buckets = lattice.canonical_buckets();
        assert_eq!(buckets[lattice.speculative().rank() as usize], 0);
        assert_eq!(buckets[lattice.compute().rank() as usize], 1);
        assert_eq!(buckets[lattice.injection().rank() as usize], 2);
        assert_eq!(buckets[lattice.factory().rank() as usize], 3);
        assert_eq!(buckets, [1, 0, 3, 2]);
        // Default lattice: identity.
        assert_eq!(ClassLattice::default().canonical_buckets(), [0, 1, 2, 3]);

        // And the ledger uses the map: a factory preemptor at rank 2 lands
        // in the factory bucket, not the injection column, and a compute
        // preemptor at rank 0 in the compute bucket.
        let mut l = ReservationLedger::new(2);
        l.set_class_buckets(buckets);
        l.push(0, prep(3).with_class(lattice.compute()));
        l.push(0, route(1).with_class(lattice.factory()));
        assert!(matches!(
            l.try_preempt(TaskId(1), 0),
            Preemption::Applied {
                class_won: true,
                ..
            }
        ));
        l.push(1, prep(5).with_class(lattice.compute()));
        l.push(1, route(2).with_class(lattice.compute()));
        assert!(matches!(
            l.try_preempt(TaskId(2), 1),
            Preemption::Applied {
                class_won: false,
                ..
            }
        ));
        assert_eq!(l.stats().preemptions_by_class, [0, 1, 0, 1]);
    }

    #[test]
    fn event_log_records_claims_and_arbitration() {
        let mut l = ReservationLedger::new(2);
        // Disabled: no events, no cost.
        l.push(0, prep(3));
        assert!(l.take_events().is_empty());
        l.enable_event_log();
        l.push(1, route(1));
        l.push(0, route(1));
        assert_eq!(l.try_preempt(TaskId(2), 0), Preemption::NotEligible);
        assert!(matches!(
            l.try_preempt(TaskId(1), 0),
            Preemption::Applied { .. }
        ));
        let events = l.take_events();
        assert_eq!(
            events,
            vec![
                LedgerEvent::Claim {
                    task: TaskId(1),
                    ancilla: 1
                },
                LedgerEvent::Claim {
                    task: TaskId(1),
                    ancilla: 0
                },
                // Task 1 queued behind task 3's pre-existing prep.
                LedgerEvent::WaitEdge {
                    waiter: TaskId(1),
                    holder: TaskId(3),
                    ancilla: 0
                },
                LedgerEvent::Preempted {
                    task: TaskId(1),
                    ancilla: 0,
                    class_won: false
                },
            ],
            "NotEligible probes are not arbitration events"
        );
        assert!(l.take_events().is_empty(), "drained");
        // Cycle rejections are logged too.
        let mut l2 = ReservationLedger::new(2);
        l2.enable_event_log();
        for a in 0..2u32 {
            l2.push(a, prep(2));
            l2.push(a, route(1));
        }
        let _ = l2.take_events();
        assert_eq!(l2.try_preempt(TaskId(1), 0), Preemption::RejectedCycle);
        assert_eq!(
            l2.take_events(),
            vec![LedgerEvent::Rejected {
                task: TaskId(1),
                ancilla: 0
            }]
        );
    }

    #[test]
    fn event_log_records_one_wait_edge_per_distinct_holder() {
        let mut l = ReservationLedger::new(1);
        l.enable_event_log();
        l.push(0, prep(1));
        l.push(0, prep(2));
        l.push(0, route(3));
        let edges: Vec<LedgerEvent> = l
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, LedgerEvent::WaitEdge { .. }))
            .collect();
        // Entry 2 waits on 1; entry 3 waits on both 1 and 2 — and the
        // logged edges mirror the live graph's insertions exactly.
        assert_eq!(
            edges,
            vec![
                LedgerEvent::WaitEdge {
                    waiter: TaskId(2),
                    holder: TaskId(1),
                    ancilla: 0
                },
                LedgerEvent::WaitEdge {
                    waiter: TaskId(3),
                    holder: TaskId(1),
                    ancilla: 0
                },
                LedgerEvent::WaitEdge {
                    waiter: TaskId(3),
                    holder: TaskId(2),
                    ancilla: 0
                },
            ]
        );
        assert_eq!(l.current_edges(), 3);
    }

    #[test]
    fn mixed_classes_ahead_need_every_entry_displaceable() {
        // A factory entry ahead blocks an injection preemptor even though a
        // speculative entry ahead would yield: all-or-nothing, like the
        // structural rule.
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(1).with_class(TaskClass::SPECULATIVE));
        l.push(0, prep(2).with_class(TaskClass::FACTORY));
        l.push(0, route(3).with_class(TaskClass::INJECTION));
        assert_eq!(l.try_preempt(TaskId(3), 0), Preemption::NotEligible);
    }

    #[test]
    fn angle_update_keeps_graph_untouched() {
        let mut l = ReservationLedger::new(1);
        l.push(0, prep(0));
        l.push(0, prep(1));
        let before = l.current_edges();
        assert!(l.update_angle(0, TaskId(1), Angle::S));
        assert_eq!(l.current_edges(), before);
        assert_eq!(l.queue(0).entry(TaskId(1)).unwrap().angle, Angle::S);
    }

    /// The wait-graph reconciliation the ledger used before its removals
    /// applied pair deltas: list the queue's (waiter, holder) pairs before
    /// and after `f`, and if they differ remove every old pair and add
    /// every new one.
    fn mutate_reference<R>(
        l: &mut ReservationLedger,
        a: u32,
        f: impl FnOnce(&mut AncillaQueue) -> R,
    ) -> R {
        fn pairs(q: &AncillaQueue) -> Vec<(TaskId, TaskId)> {
            let tasks: Vec<TaskId> = q.iter().map(|e| e.task).collect();
            let mut out = Vec::new();
            for j in 1..tasks.len() {
                for i in 0..j {
                    if tasks[i] != tasks[j] {
                        out.push((tasks[j], tasks[i]));
                    }
                }
            }
            out
        }
        l.mark_dirty(a);
        let old = pairs(&l.queues[a as usize]);
        let r = f(&mut l.queues[a as usize]);
        let new = pairs(&l.queues[a as usize]);
        if old != new {
            for &(w, h) in &old {
                l.remove_edge(w, h);
            }
            for &(w, h) in &new {
                l.add_edge(w, h);
            }
        }
        l.set_nonempty_bit(a);
        r
    }

    /// SplitMix64: a self-contained stream for the seeded op sequences.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `pop`, `remove_task` and `move_to_front` apply pair deltas; the
    /// reference re-derives every pair of the queue. Seeded random
    /// sequences of push, pop, remove and move over three queues and eight
    /// tasks (so a task often holds two entries in one queue, on either
    /// side of another task's entry) must leave both ledgers with the same
    /// queues, successor lists, edge count and peak after every op.
    #[test]
    fn pair_deltas_match_the_full_requeue_reference() {
        let (mut doubled, mut moves, mut removes) = (0u32, 0u32, 0u32);
        for seed in 0..60u64 {
            let mut st = seed;
            let mut fast = ReservationLedger::new(3);
            let mut slow = ReservationLedger::new(3);
            for step in 0..300 {
                let r = next(&mut st);
                let a = (r % 3) as u32;
                let task = TaskId(((r >> 8) % 8) as u32);
                let len = fast.queue(a).len();
                match (r >> 16) % 10 {
                    0..=4 => {
                        let role =
                            [Role::PrepZz, Role::Route, Role::Helper][(r >> 24) as usize % 3];
                        let e = QueueEntry::new(task, role, Angle::ZERO);
                        if fast.queue(a).contains_task(task) {
                            doubled += 1;
                        }
                        fast.push(a, e);
                        slow.push(a, e);
                    }
                    5 | 6 => {
                        assert_eq!(fast.pop(a), mutate_reference(&mut slow, a, |q| q.pop()));
                    }
                    7 | 8 => {
                        let want = if slow.queues[a as usize].contains_task(task) {
                            mutate_reference(&mut slow, a, |q| q.remove_task(task))
                        } else {
                            0
                        };
                        removes += (want > 0) as u32;
                        assert_eq!(fast.remove_task(a, task), want);
                    }
                    _ if len > 0 => {
                        let pos = (r >> 24) as usize % len;
                        moves += (pos > 0) as u32;
                        fast.move_to_front(a, pos);
                        mutate_reference(&mut slow, a, |q| q.move_to_front(pos));
                    }
                    _ => {}
                }
                let at = format!("seed {seed} step {step}");
                for q in 0..3 {
                    let order = |l: &ReservationLedger| -> Vec<QueueEntry> {
                        l.queue(q).iter().copied().collect()
                    };
                    assert_eq!(order(&fast), order(&slow), "{at}: queue {q}");
                }
                for t in 0..8 {
                    assert_eq!(
                        fast.successors(TaskId(t)),
                        slow.successors(TaskId(t)),
                        "{at}"
                    );
                }
                assert_eq!(fast.current_edges(), slow.current_edges(), "{at}");
                assert_eq!(
                    fast.stats().waitgraph_peak_edges,
                    slow.stats().waitgraph_peak_edges,
                    "{at}"
                );
                assert_eq!(fast.nonempty_words(), slow.nonempty_words(), "{at}");
            }
        }
        assert!(
            doubled > 500 && moves > 500 && removes > 500,
            "{doubled} {moves} {removes}"
        );
    }
}
