//! The event queue: a stable min-heap keyed by simulated time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A future-event list: events are popped in nondecreasing time order, with
/// FIFO tie-breaking (two events at the same instant pop in push order),
/// which keeps simulations deterministic.
///
/// Popping advances the queue's notion of *now*; pushing into the past is a
/// programming error and panics.
///
/// The simulations run on [`TimeWheel`](crate::TimeWheel), which keeps an
/// `EventQueue` for events beyond its horizon; tests hold the wheel to
/// this queue's schedule.
///
/// # Examples
///
/// ```
/// use qp_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ms(2.0), "later");
/// q.push(SimTime::from_ms(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_ms(), e), (1.0, "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // among equal times, lowest sequence number first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the time of the last popped event
    /// (scheduling into the past).
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule at {time} before current time {}",
            self.now
        );
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event, advancing *now* to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The time of the earliest pending event without removing it
    /// (`None` when empty).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The time of the most recently popped event (zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total events ever pushed.
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Total events ever popped.
    pub fn pops(&self) -> u64 {
        self.seq - self.heap.len() as u64
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(3.0), 'c');
        q.push(SimTime::from_ms(1.0), 'a');
        q.push(SimTime::from_ms(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5.0);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(4.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(4.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(10.0), ());
        q.pop();
        q.push(SimTime::from_ms(5.0), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ms(1.0), ());
        assert_eq!(q.len(), 1);
    }
}
