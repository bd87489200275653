//! Virtual time and a deterministic discrete-event queue.
//!
//! The planning-service simulation (`mp-service`) advances a *simulated*
//! clock, decoupled from wall time, so campaigns are reproducible
//! bit-for-bit on any machine and at any thread count. Events are ordered
//! by `(timestamp, insertion sequence)`: ties are broken by insertion
//! order, never by heap internals, which is what makes the event loop
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual timestamps are integer nanoseconds from simulation start.
/// Integer (not float) so event ordering has no rounding ambiguity.
pub type VirtualNs = u64;

/// Nanoseconds per microsecond (the planner's modeled costs are in µs).
pub const NS_PER_US: u64 = 1_000;

struct Entry<E> {
    at: VirtualNs,
    seq: u64,
    event: E,
}

// `BinaryHeap` is a max-heap; reverse the ordering to pop the earliest
// `(at, seq)` first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Entry<E>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Entry<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Entry<E>) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use mp_sim::vtime::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-tie");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-tie")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// An empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at virtual time `at`. Events with equal
    /// timestamps pop in insertion order.
    pub fn push(&mut self, at: VirtualNs, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event and its timestamp.
    pub fn pop(&mut self) -> Option<(VirtualNs, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<VirtualNs> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(5, 'd');
        q.push(3, 'b');
        let order: Vec<(VirtualNs, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'a'), (3, 'b'), (5, 'c'), (5, 'd')]);
    }

    #[test]
    fn interleaved_push_pop_keeps_sequence_ties_stable() {
        let mut q = EventQueue::new();
        q.push(10, 0);
        q.push(10, 1);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_peek_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(7, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
    }
}
