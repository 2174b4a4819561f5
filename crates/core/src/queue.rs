//! Per-ancilla operation queues — the "Q" of RESCQ (paper §4.1, Table 2,
//! Fig 7).
//!
//! Every ancilla tile owns a FIFO queue of the operations it will participate
//! in. An entry records the gate (task), the ancilla's *role* in it, a helper
//! ancilla when the role needs one, and — for rotation tasks — the current
//! ladder angle, which is rewritten **in place** from `θ` to `2θ` when a
//! sibling ancilla's preparation succeeds (anticipating injection failure).
//! Seniority (enqueue order) decides priority; the simulation enqueues
//! atomically in scheduling order, so entry order is consistent across all
//! queues and the wait-for graph between gates stays acyclic. Any
//! *reordering* of a queue (preemption) must therefore go through the
//! [`crate::ReservationLedger`], which owns the cross-queue acyclicity
//! proof — raw queues only expose reorder primitives crate-privately. The
//! queue itself is a plain deterministic container: no clocks, no
//! randomness, identical op sequences give identical states.

use crate::reservation::{ReservationId, TaskClass};
use crate::TaskId;
use rescq_circuit::Angle;
use rescq_lattice::TileId;
use std::collections::VecDeque;

/// The ancilla's role in a queued operation (Table 2's `gate`/`helper`
/// columns, refined by how the ancilla will be used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Prepare `|mθ⟩` directly adjacent to the data qubit's Z edge; inject
    /// via the 1-cycle ZZ strategy.
    PrepZz,
    /// Prepare `|mθ⟩` on a diagonal ancilla; inject via the 2-cycle CNOT
    /// strategy through `helper` (which sits on the data qubit's X edge).
    PrepDiagonal {
        /// The X-edge ancilla the injection routes through.
        helper: TileId,
    },
    /// Prepare `|mθ⟩` on an ancilla adjacent to the data qubit's X edge;
    /// CNOT-style injection without an extra helper.
    PrepX,
    /// Reserved to assist an injection (the X-edge routing ancilla of
    /// Fig 7's ancillas 4 and 5).
    Helper,
    /// Part of a CNOT lattice-surgery path.
    Route,
    /// Perform an edge-rotation for the task's data qubit.
    EdgeRotate,
}

impl Role {
    /// Whether this role prepares a rotation state.
    pub fn is_prep(self) -> bool {
        matches!(self, Role::PrepZz | Role::PrepDiagonal { .. } | Role::PrepX)
    }
}

/// Status of the queue's *top* entry (Table 2's `status` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntryStatus {
    /// `R`: ready to execute the next gate.
    #[default]
    Ready,
    /// `E`: executing the top of the queue.
    Executing,
    /// `P`: preparing the `|mθ⟩` state for the rotation at the top.
    Preparing,
    /// `D`: done preparing; holding `|mθ⟩`, ready to inject.
    DonePreparing,
    /// `F`: finished executing the gate at the top (about to pop).
    Finished,
}

/// One element of an ancilla queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// The gate instance this entry serves.
    pub task: TaskId,
    /// This ancilla's role.
    pub role: Role,
    /// Current ladder angle for rotation tasks (`Angle::ZERO` otherwise).
    pub angle: Angle,
    /// Status; meaningful only while this entry is at the top (Table 2).
    pub status: EntryStatus,
    /// Priority class in the [`crate::ClassLattice`]; arbitration lets a
    /// strictly higher class reorder ahead of a strictly lower one (cycle
    /// check permitting) while equal classes keep the seniority rule. The
    /// default ([`TaskClass::COMPUTE`]) makes class-blind queues uniform,
    /// so default runs reproduce the pre-lattice ledger bit for bit.
    pub class: TaskClass,
    /// The ledger reservation backing this entry
    /// ([`ReservationId::UNREGISTERED`] until pushed through a
    /// [`crate::ReservationLedger`]).
    pub reservation: ReservationId,
}

impl QueueEntry {
    /// Creates a `Ready` entry of the default [`TaskClass`].
    pub fn new(task: TaskId, role: Role, angle: Angle) -> Self {
        QueueEntry {
            task,
            role,
            angle,
            status: EntryStatus::Ready,
            class: TaskClass::default(),
            reservation: ReservationId::UNREGISTERED,
        }
    }

    /// The same entry with its priority class set (builder style).
    pub fn with_class(mut self, class: TaskClass) -> Self {
        self.class = class;
        self
    }

    /// Whether this entry may give up its queue position to a preemptor,
    /// whatever the class policy says: a preparation that is not yet done
    /// (no state is lost), or a helper claim not yet in use. Executing and
    /// state-holding entries never yield. A preemptor whose queue top
    /// fails this test cannot be reordered there
    /// ([`crate::ReservationLedger::try_preempt_with`]).
    pub fn yields_structurally(&self) -> bool {
        (self.role.is_prep() && matches!(self.status, EntryStatus::Ready | EntryStatus::Preparing))
            || (self.role == Role::Helper && self.status == EntryStatus::Ready)
    }
}

/// The FIFO queue of one ancilla tile.
///
/// # Example
///
/// ```
/// use rescq_circuit::Angle;
/// use rescq_core::{AncillaQueue, EntryStatus, QueueEntry, Role, TaskId};
///
/// let mut q = AncillaQueue::default();
/// q.push(QueueEntry::new(TaskId(0), Role::PrepZz, Angle::T));
/// q.push(QueueEntry::new(TaskId(1), Role::Route, Angle::ZERO));
/// assert_eq!(q.top().unwrap().task, TaskId(0));
///
/// // Sibling prep succeeded: rewrite the ladder angle in place (§4.1).
/// q.update_angle(TaskId(0), Angle::S);
/// assert_eq!(q.top().unwrap().angle, Angle::S);
///
/// q.remove_task(TaskId(0));
/// assert_eq!(q.top().unwrap().task, TaskId(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AncillaQueue {
    entries: VecDeque<QueueEntry>,
}

impl AncillaQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (seniority order).
    pub fn push(&mut self, entry: QueueEntry) {
        self.entries.push_back(entry);
    }

    /// The top (oldest) entry.
    pub fn top(&self) -> Option<&QueueEntry> {
        self.entries.front()
    }

    /// Mutable access to the top entry.
    pub fn top_mut(&mut self) -> Option<&mut QueueEntry> {
        self.entries.front_mut()
    }

    /// Pops the top entry.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.entries.pop_front()
    }

    /// Whether `task` has an entry anywhere in the queue.
    pub fn contains_task(&self, task: TaskId) -> bool {
        self.entries.iter().any(|e| e.task == task)
    }

    /// The entry for `task`, if present.
    pub fn entry(&self, task: TaskId) -> Option<&QueueEntry> {
        self.entries.iter().find(|e| e.task == task)
    }

    /// Position of `task` in the queue (0 = top).
    pub fn position(&self, task: TaskId) -> Option<usize> {
        self.entries.iter().position(|e| e.task == task)
    }

    /// Removes every entry of `task` (gate completed or cancelled). Returns
    /// how many entries were removed.
    pub fn remove_task(&mut self, task: TaskId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.task != task);
        before - self.entries.len()
    }

    /// Rewrites the ladder angle of `task`'s entry in place (§4.1's
    /// `Rθ → R2θ` update). Returns whether an entry was updated.
    pub fn update_angle(&mut self, task: TaskId, angle: Angle) -> bool {
        let mut updated = false;
        for e in &mut self.entries {
            if e.task == task {
                e.angle = angle;
                updated = true;
            }
        }
        updated
    }

    /// Rewrites the priority class of `task`'s entries in place (e.g. a
    /// speculative rotation promoted once its predecessors complete).
    /// Queue position — and therefore the wait graph — is untouched; the
    /// new class affects future arbitration only. Returns whether an entry
    /// was updated.
    pub fn update_class(&mut self, task: TaskId, class: TaskClass) -> bool {
        let mut updated = false;
        for e in &mut self.entries {
            if e.task == task {
                e.class = class;
                updated = true;
            }
        }
        updated
    }

    /// Iterates entries from top to back.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Moves the entry at `pos` to the top, preserving the relative order of
    /// everything else (ledger-mediated preemption; see
    /// [`crate::ReservationLedger::try_preempt`]).
    pub(crate) fn move_to_front(&mut self, pos: usize) {
        if let Some(e) = self.entries.remove(pos) {
            self.entries.push_front(e);
        }
    }

    /// Sets the status of the entry at `pos` (ledger internals).
    pub(crate) fn set_status_at(&mut self, pos: usize, status: EntryStatus) {
        if let Some(e) = self.entries.get_mut(pos) {
            e.status = status;
        }
    }

    /// Expected rounds until this ancilla is free: the sum of per-entry
    /// expected durations (§4.2's `E[f_a] = Σ E[τ_o]`), via a caller-supplied
    /// estimator (the engine knows gate kinds and RUS expectations).
    pub fn expected_free_rounds(&self, estimate: impl FnMut(&QueueEntry) -> u64) -> u64 {
        self.entries.iter().map(estimate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(task: u32, role: Role) -> QueueEntry {
        QueueEntry::new(TaskId(task), role, Angle::ZERO)
    }

    #[test]
    fn fifo_order() {
        let mut q = AncillaQueue::new();
        q.push(entry(0, Role::Route));
        q.push(entry(1, Role::Helper));
        q.push(entry(2, Role::PrepZz));
        assert_eq!(q.len(), 3);
        assert_eq!(q.top().unwrap().task, TaskId(0));
        assert_eq!(q.pop().unwrap().task, TaskId(0));
        assert_eq!(q.top().unwrap().task, TaskId(1));
        assert_eq!(q.position(TaskId(2)), Some(1));
    }

    #[test]
    fn remove_task_clears_all_entries() {
        let mut q = AncillaQueue::new();
        q.push(entry(5, Role::Route));
        q.push(entry(6, Role::Helper));
        q.push(entry(5, Role::EdgeRotate));
        assert_eq!(q.remove_task(TaskId(5)), 2);
        assert_eq!(q.len(), 1);
        assert!(!q.contains_task(TaskId(5)));
        assert!(q.contains_task(TaskId(6)));
    }

    #[test]
    fn in_place_angle_update() {
        let mut q = AncillaQueue::new();
        q.push(QueueEntry::new(TaskId(0), Role::Route, Angle::ZERO));
        q.push(QueueEntry::new(TaskId(1), Role::PrepZz, Angle::T));
        assert!(q.update_angle(TaskId(1), Angle::T.double()));
        assert_eq!(q.entry(TaskId(1)).unwrap().angle, Angle::S);
        // Position unchanged: the update is in place.
        assert_eq!(q.position(TaskId(1)), Some(1));
        assert!(!q.update_angle(TaskId(9), Angle::T));
    }

    #[test]
    fn status_only_on_top() {
        let mut q = AncillaQueue::new();
        q.push(entry(0, Role::PrepZz));
        q.top_mut().unwrap().status = EntryStatus::Preparing;
        assert_eq!(q.top().unwrap().status, EntryStatus::Preparing);
    }

    #[test]
    fn expected_free_time_sums_queue() {
        let mut q = AncillaQueue::new();
        q.push(entry(0, Role::Route)); // CNOT: 2 cycles = 14 rounds at d=7
        q.push(entry(1, Role::EdgeRotate)); // 3 cycles = 21 rounds
        let est = |e: &QueueEntry| match e.role {
            Role::Route => 14,
            Role::EdgeRotate => 21,
            _ => 0,
        };
        assert_eq!(q.expected_free_rounds(est), 35);
        assert_eq!(AncillaQueue::new().expected_free_rounds(est), 0);
    }

    #[test]
    fn structural_yield_needs_an_unused_prep_or_helper() {
        let with = |role, status| QueueEntry {
            status,
            ..entry(0, role)
        };
        for status in [EntryStatus::Ready, EntryStatus::Preparing] {
            assert!(with(Role::PrepZz, status).yields_structurally());
            assert!(with(Role::PrepX, status).yields_structurally());
        }
        assert!(with(Role::Helper, EntryStatus::Ready).yields_structurally());
        assert!(!with(Role::Helper, EntryStatus::Preparing).yields_structurally());
        for status in [
            EntryStatus::Executing,
            EntryStatus::DonePreparing,
            EntryStatus::Finished,
        ] {
            assert!(!with(Role::PrepZz, status).yields_structurally());
            assert!(!with(Role::Helper, status).yields_structurally());
        }
        for role in [Role::Route, Role::EdgeRotate] {
            assert!(!with(role, EntryStatus::Ready).yields_structurally());
        }
    }

    #[test]
    fn role_prep_classification() {
        assert!(Role::PrepZz.is_prep());
        assert!(Role::PrepDiagonal { helper: TileId(3) }.is_prep());
        assert!(Role::PrepX.is_prep());
        assert!(!Role::Helper.is_prep());
        assert!(!Role::Route.is_prep());
    }
}
