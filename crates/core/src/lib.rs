//! # rescq-core
//!
//! The RESCQ scheduling framework (the paper's primary contribution): the
//! per-ancilla operation queues with in-place ladder rewriting
//! ([`AncillaQueue`], §4.1), the [`ReservationLedger`] that makes the
//! task-level wait-for graph explicit and supports seniority-safe
//! preemption (only older work may overtake; an incremental cycle check
//! decides whether the reorder is safe), the pipelined stale-tolerant [`MstPipeline`] (§4.2 /
//! Fig 8), Algorithm-1 routing over the MST with a geometric-path memo
//! ([`PathCache`], [`routing`]), and the baseline static-routing policy the
//! evaluation compares against.
//!
//! The cycle-accurate engine that drives these structures lives in
//! `rescq-sim`; everything here is deterministic, pure scheduling logic and
//! is unit-testable in isolation.
//!
//! # Quick example
//!
//! ```
//! use rescq_circuit::Angle;
//! use rescq_core::{AncillaQueue, QueueEntry, Role, TaskId};
//!
//! let mut queue = AncillaQueue::new();
//! queue.push(QueueEntry::new(TaskId(0), Role::PrepZz, Angle::radians(0.3)));
//! // A sibling ancilla finished preparing |mθ⟩ first: anticipate the
//! // injection failure by retargeting this ancilla to |m2θ⟩ in place.
//! queue.update_angle(TaskId(0), Angle::radians(0.3).double());
//! assert_eq!(queue.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
mod dynmst;
mod queue;
mod reservation;
pub mod routing;
mod types;

pub use arena::{Bitset, VecPool};
pub use dynmst::{KPolicy, MstPipeline, TauModel};
pub use queue::{AncillaQueue, EntryStatus, QueueEntry, Role};
pub use reservation::{LedgerEvent, LedgerStats, Preemption, ReservationId, ReservationLedger};
pub use routing::{
    plan_cnot_route, plan_cnot_route_into, plan_static_route, PathCache, RoutePlan, RoutePlanMeta,
    RouteScratch, StaticRouteOutcome,
};
pub use types::{SchedulerKind, SurgeryCosts, TaskId};
