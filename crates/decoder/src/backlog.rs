//! The decode backlog: every in-flight syndrome window.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default)]
pub struct DecodeBacklog {
    in_flight: BTreeMap<u64, SyndromeWindow>,
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
        self.in_flight.insert(
            id.0,
            SyndromeWindow {
                id,
                tile,
                rounds,
                submitted,
                ready_at,
            },
        );
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
            .in_flight
            .remove(&id.0)
            .expect("retired window must be in flight");
        self.decoded += 1;
        w
    }

    /// Looks up an in-flight window.
    pub fn get(&self, id: WindowId) -> Option<&SyndromeWindow> {
        self.in_flight.get(&id.0)
    }

    /// Number of windows currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
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
        self.enqueued == self.decoded + self.in_flight.len() as u64
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
    #[should_panic(expected = "in flight")]
    fn double_retire_panics() {
        let mut b = DecodeBacklog::new();
        let a = b.enqueue(0, 1, 0, 0);
        b.retire(a);
        b.retire(a);
    }
}
