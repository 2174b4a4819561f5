//! The decode backlog: every in-flight syndrome window.

use std::collections::VecDeque;

/// Identifier of a submitted syndrome window, returned by the runtime on
/// submission and passed back on retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId(pub u64);

/// One syndrome window awaiting (or undergoing) decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyndromeWindow {
    /// Window identifier.
    pub id: WindowId,
    /// Ancilla/tile index the syndrome data came from.
    pub tile: u32,
    /// Number of measurement rounds of syndrome data in the window.
    pub rounds: u32,
    /// Round at which the window was submitted to the decoder.
    pub submitted: u64,
    /// Round at which the decode result becomes visible to the scheduler.
    pub ready_at: u64,
}

/// Tracks every in-flight syndrome window and enforces the
/// conservation invariant `enqueued == decoded + in_flight`.
///
/// Windows live in a ring indexed by id: slot `i` holds window
/// `base + i`, or `None` once retired. Ids are assigned in order and
/// mostly retired in order, so retired slots are popped off the front and
/// the ring spans only the ids between the oldest window still in flight
/// and the newest.
#[derive(Debug, Clone, Default)]
pub struct DecodeBacklog {
    ring: VecDeque<Option<SyndromeWindow>>,
    /// Id of the window in the ring's front slot.
    base: u64,
    in_flight: usize,
    enqueued: u64,
    decoded: u64,
    next_id: u64,
}

impl DecodeBacklog {
    /// Creates an empty backlog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new window, assigning it a fresh [`WindowId`].
    pub fn enqueue(&mut self, tile: u32, rounds: u32, submitted: u64, ready_at: u64) -> WindowId {
        let id = WindowId(self.next_id);
        self.next_id += 1;
        self.enqueued += 1;
        self.in_flight += 1;
        self.ring.push_back(Some(SyndromeWindow {
            id,
            tile,
            rounds,
            submitted,
            ready_at,
        }));
        id
    }

    /// Removes a window whose result has been consumed; returns it.
    ///
    /// # Panics
    ///
    /// Panics if the window is unknown (double retirement is a scheduler
    /// bug, not a recoverable condition).
    pub fn retire(&mut self, id: WindowId) -> SyndromeWindow {
        let w = self
            .slot(id)
            .and_then(|i| self.ring[i].take())
            .expect("retired window must be in flight");
        self.in_flight -= 1;
        self.decoded += 1;
        while self.ring.front().is_some_and(Option::is_none) {
            self.ring.pop_front();
            self.base += 1;
        }
        w
    }

    /// Looks up an in-flight window.
    pub fn get(&self, id: WindowId) -> Option<&SyndromeWindow> {
        self.slot(id).and_then(|i| self.ring[i].as_ref())
    }

    /// The ring slot of window `id`, if the ring still spans it.
    fn slot(&self, id: WindowId) -> Option<usize> {
        let i = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        (i < self.ring.len()).then_some(i)
    }

    /// Number of windows currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total windows ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total windows decoded and retired.
    pub fn total_decoded(&self) -> u64 {
        self.decoded
    }

    /// The conservation invariant: `enqueued == decoded + in_flight`.
    pub fn is_conserved(&self) -> bool {
        self.enqueued == self.decoded + self.in_flight as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_through_lifecycle() {
        let mut b = DecodeBacklog::new();
        let a = b.enqueue(0, 7, 10, 15);
        let c = b.enqueue(1, 7, 11, 20);
        let d = b.enqueue(0, 14, 12, 30);
        assert_eq!(b.in_flight(), 3);
        assert!(b.is_conserved());
        assert_eq!(b.retire(a).tile, 0);
        assert_eq!(b.retire(d).rounds, 14);
        assert_eq!(b.in_flight(), 1);
        assert_eq!(b.get(c).map(|w| w.tile), Some(1));
        assert!(b.is_conserved());
        b.retire(c);
        assert_eq!(b.total_enqueued(), 3);
        assert_eq!(b.total_decoded(), 3);
        assert!(b.is_conserved());
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut b = DecodeBacklog::new();
        let x = b.enqueue(0, 1, 0, 0);
        let y = b.enqueue(0, 1, 0, 0);
        assert!(y > x);
        b.retire(x);
        let z = b.enqueue(0, 1, 0, 0);
        assert!(z > y, "ids are never reused");
    }

    #[test]
    fn out_of_order_retirement_advances_the_base_past_retired_ids() {
        let mut b = DecodeBacklog::new();
        let ids: Vec<WindowId> = (0..5).map(|i| b.enqueue(i, 7, i as u64, 10)).collect();
        // Retire from the middle and the back: the front stays, so the
        // ring keeps spanning every id.
        assert_eq!(b.retire(ids[2]).tile, 2);
        assert_eq!(b.retire(ids[4]).tile, 4);
        assert_eq!((b.base, b.ring.len()), (0, 5));
        assert!(b.get(ids[2]).is_none() && b.get(ids[4]).is_none());
        assert_eq!(b.get(ids[3]).map(|w| w.tile), Some(3));
        // Retiring the front pops it and the retired slot behind the next
        // live one stays until that one goes.
        b.retire(ids[0]);
        assert_eq!((b.base, b.ring.len()), (1, 4));
        b.retire(ids[1]);
        assert_eq!((b.base, b.ring.len()), (3, 2));
        assert!(b.get(ids[0]).is_none() && b.get(ids[1]).is_none());
        assert_eq!(b.get(ids[3]).map(|w| w.submitted), Some(3));
        assert_eq!(b.in_flight(), 1);
        assert!(b.is_conserved());
        // The last retirement empties the ring; new ids continue past it.
        b.retire(ids[3]);
        assert_eq!((b.base, b.ring.len()), (5, 0));
        let next = b.enqueue(9, 1, 20, 30);
        assert_eq!(next, WindowId(5));
        assert_eq!(b.get(next).map(|w| w.tile), Some(9));
        assert!(b.get(WindowId(6)).is_none(), "not yet assigned");
        assert_eq!((b.total_enqueued(), b.total_decoded()), (6, 5));
        assert!(b.is_conserved());
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_retire_panics() {
        let mut b = DecodeBacklog::new();
        let a = b.enqueue(0, 1, 0, 0);
        b.retire(a);
        b.retire(a);
    }
}
