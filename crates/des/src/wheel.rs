//! A hierarchical time-wheel event queue for high event rates.
//!
//! [`TimeWheel`] keeps near-future events in three cascading levels of 256
//! slots each, so the hot path (push an event a few quanta ahead, pop the
//! next event) is O(1) amortized instead of the O(log n) of a binary heap.
//! Events beyond the wheel's horizon (256³ quanta from the current cursor)
//! spill into an ordinary [`EventQueue`] and migrate back onto the wheel as
//! the cursor advances.
//!
//! The wheel pops events in exactly the same order as [`EventQueue`]:
//! nondecreasing time, FIFO among ties (a single global sequence number is
//! carried through slots *and* the overflow heap), so the two queues are
//! interchangeable schedule-for-schedule. A caller may also take an
//! event's sequence number now and schedule the event later
//! ([`TimeWheel::reserve`], [`TimeWheel::push_reserved`]); it then pops
//! where a push at the reservation moment would have.

use crate::{EventQueue, SimTime};

/// Slots per level; each level covers 256× the span of the one below it.
const SLOTS: usize = 256;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// One wheel level: 256 slots plus an occupancy bitmap so the next
/// non-empty slot is found with a couple of `trailing_zeros` calls.
#[derive(Debug, Clone)]
struct Level<E> {
    slots: Vec<Vec<Entry<E>>>,
    occ: [u64; 4],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; 4],
        }
    }

    fn insert(&mut self, slot: usize, entry: Entry<E>) {
        self.slots[slot].push(entry);
        self.occ[slot / 64] |= 1u64 << (slot % 64);
    }

    /// The first occupied slot index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occ[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == 4 {
                return None;
            }
            bits = self.occ[word];
        }
    }

    /// Removes the (time, seq)-minimal entry from `slot`, clearing the
    /// occupancy bit when the slot empties.
    fn pop_min(&mut self, slot: usize) -> Entry<E> {
        let v = &mut self.slots[slot];
        let mut best = 0;
        for i in 1..v.len() {
            if (v[i].time, v[i].seq) < (v[best].time, v[best].seq) {
                best = i;
            }
        }
        let entry = v.swap_remove(best);
        if v.is_empty() {
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
        }
        entry
    }

    /// Takes every entry out of `slot`, clearing its occupancy bit.
    fn drain(&mut self, slot: usize) -> Vec<Entry<E>> {
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
        std::mem::take(&mut self.slots[slot])
    }
}

/// A sequence number taken by [`TimeWheel::reserve`] for an event to be
/// scheduled later with [`TimeWheel::push_reserved`]. Tickets order as
/// their reservations did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

/// A three-level hierarchical time wheel with heap overflow.
///
/// The event queue of both protocol engines, built for simulations whose
/// events cluster within a bounded horizon of *now*: push and pop are
/// O(1) amortized. Pop order is identical to [`EventQueue`] —
/// nondecreasing time with FIFO tie-breaking — which the
/// schedule-equivalence tests below pin down.
///
/// FIFO order is the order of sequence numbers, which [`push`] takes at
/// the moment of the push. [`reserve`] takes the next one without
/// scheduling anything, and [`push_reserved`] schedules an event under it
/// later: the event pops exactly where it would have had it been pushed
/// at the reservation moment, ahead of every later push at the same
/// time. A reservation may go unused; it leaves a gap in the numbering
/// and nothing else.
///
/// [`push`]: TimeWheel::push
/// [`reserve`]: TimeWheel::reserve
/// [`push_reserved`]: TimeWheel::push_reserved
///
/// `quantum_ms` is the width of one level-0 slot: events within the same
/// quantum land in the same slot and are ordered by an exact linear scan,
/// so correctness never depends on the quantum — only the constant factor
/// does. Pick a quantum at or below the typical event spacing: every pop
/// scans its slot, and a slot's buffer keeps its peak capacity.
///
/// # Examples
///
/// ```
/// use qp_des::{SimTime, TimeWheel};
///
/// let mut w = TimeWheel::new(1.0);
/// w.push(SimTime::from_ms(2.5), "later");
/// w.push(SimTime::from_ms(0.5), "sooner");
/// let (t, e) = w.pop().unwrap();
/// assert_eq!((t.as_ms(), e), (0.5, "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct TimeWheel<E> {
    quantum_ms: f64,
    levels: [Level<E>; 3],
    /// Quantum index of the wheel's current position; only advances.
    cursor: u64,
    /// Events beyond the level-2 window, keyed by time and carrying their
    /// global sequence number so FIFO ties survive migration.
    overflow: EventQueue<(u64, E)>,
    /// Next sequence number: pushes and reservations each take one.
    seq: u64,
    /// Events scheduled so far; unused reservations are not counted.
    pushed: u64,
    now: SimTime,
    len: usize,
}

impl<E> TimeWheel<E> {
    /// An empty wheel at time zero with the given slot width.
    ///
    /// # Panics
    ///
    /// Panics unless `quantum_ms` is finite and positive.
    pub fn new(quantum_ms: f64) -> Self {
        assert!(
            quantum_ms.is_finite() && quantum_ms > 0.0,
            "time-wheel quantum must be finite and positive, got {quantum_ms}"
        );
        TimeWheel {
            quantum_ms,
            levels: [Level::new(), Level::new(), Level::new()],
            cursor: 0,
            overflow: EventQueue::new(),
            seq: 0,
            pushed: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    fn qidx(&self, time: SimTime) -> u64 {
        (time.as_ms() / self.quantum_ms) as u64
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the time of the last popped event.
    pub fn push(&mut self, time: SimTime, event: E) {
        let ticket = self.reserve();
        self.push_reserved(time, ticket, event);
    }

    /// Takes the sequence number the next [`push`](TimeWheel::push) would
    /// have taken, without scheduling anything.
    pub fn reserve(&mut self) -> Ticket {
        let ticket = Ticket(self.seq);
        self.seq += 1;
        ticket
    }

    /// Schedules `event` at `time` under a ticket from
    /// [`reserve`](TimeWheel::reserve): among events at `time` it pops in
    /// its reservation's place, whatever was pushed in between. Each
    /// ticket is meant to be used once, and before the wheel pops an event
    /// that belongs after it; the wheel checks only the time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the time of the last popped event.
    pub fn push_reserved(&mut self, time: SimTime, ticket: Ticket, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule at {time} before current time {}",
            self.now
        );
        self.route(time, ticket.0, event);
        self.pushed += 1;
        self.len += 1;
    }

    /// Schedules a batch of events in iteration order (FIFO among ties).
    pub fn push_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, events: I) {
        for (time, event) in events {
            self.push(time, event);
        }
    }

    /// Total events ever scheduled, by [`push`](TimeWheel::push) or
    /// [`push_reserved`](TimeWheel::push_reserved) — the logical push
    /// counter the observability layer flushes into the shared registry
    /// (`des_wheel_push_total`) at the end of a simulation run, so the
    /// per-event hot path stays instrumentation-free. Reservations are
    /// not events: an unused one is not counted. Internal cascade
    /// migrations between levels are not counted either.
    pub fn pushes(&self) -> u64 {
        self.pushed
    }

    /// Total events ever popped.
    pub fn pops(&self) -> u64 {
        self.pushed - self.len as u64
    }

    /// Files an entry into the shallowest level that covers its quantum,
    /// or into the overflow heap beyond the level-2 window.
    fn route(&mut self, time: SimTime, seq: u64, event: E) {
        let q = self.qidx(time);
        if q >> 8 == self.cursor >> 8 {
            let entry = Entry { time, seq, event };
            self.levels[0].insert((q & 0xff) as usize, entry);
        } else if q >> 16 == self.cursor >> 16 {
            let entry = Entry { time, seq, event };
            self.levels[1].insert(((q >> 8) & 0xff) as usize, entry);
        } else if q >> 24 == self.cursor >> 24 {
            let entry = Entry { time, seq, event };
            self.levels[2].insert(((q >> 16) & 0xff) as usize, entry);
        } else {
            self.overflow.push(time, (seq, event));
        }
    }

    /// Removes and returns the earliest event, advancing *now* to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: the next occupied slot holds the global minimum
            // (overflow and higher levels only hold strictly later windows).
            if let Some(s) = self.levels[0].next_occupied((self.cursor & 0xff) as usize) {
                self.cursor = (self.cursor & !0xff) | s as u64;
                let entry = self.levels[0].pop_min(s);
                self.now = entry.time;
                self.len -= 1;
                return Some((entry.time, entry.event));
            }
            // Cascade from level 1. The slot at the cursor's own level-1
            // position is always empty (its entries were drained into level
            // 0 when the cursor entered this window), so search strictly
            // after it — searching *at* it would rewind the cursor.
            let l1_pos = ((self.cursor >> 8) & 0xff) as usize;
            if let Some(s) = self.levels[1].next_occupied(l1_pos + 1) {
                self.cursor = ((self.cursor >> 16) << 16) | ((s as u64) << 8);
                for e in self.levels[1].drain(s) {
                    self.route(e.time, e.seq, e.event);
                }
                continue;
            }
            // Cascade from level 2, same reasoning.
            let l2_pos = ((self.cursor >> 16) & 0xff) as usize;
            if let Some(s) = self.levels[2].next_occupied(l2_pos + 1) {
                self.cursor = ((self.cursor >> 24) << 24) | ((s as u64) << 16);
                for e in self.levels[2].drain(s) {
                    self.route(e.time, e.seq, e.event);
                }
                continue;
            }
            // Wheel empty but len > 0: jump the cursor to the overflow
            // minimum and migrate everything in its level-2 window back
            // onto the wheel, preserving original sequence numbers.
            let jump_to = self
                .overflow
                .peek_time()
                .expect("time-wheel length accounting out of sync with contents");
            self.cursor = self.qidx(jump_to);
            let window = self.cursor >> 24;
            while let Some(t) = self.overflow.peek_time() {
                if self.qidx(t) >> 24 != window {
                    break;
                }
                let (t, (seq, event)) = self.overflow.pop().expect("peeked entry vanished");
                self.route(t, seq, event);
            }
        }
    }

    /// The time of the most recently popped event (zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimeWheel::new(1.0);
        w.push(SimTime::from_ms(3.0), 'c');
        w.push(SimTime::from_ms(1.0), 'a');
        w.push(SimTime::from_ms(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo_within_a_slot() {
        let mut w = TimeWheel::new(10.0);
        let t = SimTime::from_ms(5.0);
        w.push(t, 1);
        w.push(t, 2);
        w.push(t, 3);
        // Different times inside the same quantum still order by time.
        w.push(SimTime::from_ms(2.0), 0);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut w = TimeWheel::new(1.0);
        w.push(SimTime::from_ms(4.0), ());
        assert_eq!(w.now(), SimTime::ZERO);
        w.pop();
        assert_eq!(w.now(), SimTime::from_ms(4.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_scheduling_into_the_past() {
        let mut w = TimeWheel::new(1.0);
        w.push(SimTime::from_ms(10.0), ());
        w.pop();
        w.push(SimTime::from_ms(5.0), ());
    }

    #[test]
    fn batch_push_preserves_order() {
        let mut w = TimeWheel::new(1.0);
        let t = SimTime::from_ms(7.0);
        w.push_batch([(t, 'x'), (t, 'y'), (SimTime::from_ms(6.0), 'z')]);
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['z', 'x', 'y']);
    }

    #[test]
    fn crosses_level_boundaries() {
        // Span all three levels and the overflow heap.
        let mut w = TimeWheel::new(1.0);
        let times = [
            0.5,
            200.0,        // level 0
            300.0,        // level 1 (quantum 300 is outside the first 256)
            70_000.0,     // level 2
            20_000_000.0, // overflow (beyond 256^3 quanta)
            20_000_001.0, // overflow, same window after the jump
            90_000_000.0, // overflow, later window
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_ms(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = w.pop() {
            popped.push((t.as_ms(), e));
        }
        let expected: Vec<(f64, usize)> = times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn matches_event_queue_on_a_dense_schedule() {
        // Interleave pushes and pops against the reference heap; the two
        // queues must agree event-for-event, including FIFO ties.
        let mut w = TimeWheel::new(0.5);
        let mut q = EventQueue::new();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut base = 0.0f64;
        let mut id = 0u32;
        for round in 0..200 {
            for _ in 0..(next() % 8) {
                // Mix short hops, same-quantum ties, and far-future jumps.
                let jump = match next() % 10 {
                    0 => 1.0e7,
                    1..=3 => 0.0,
                    k => k as f64 * 3.17,
                };
                let t = SimTime::from_ms(base + jump);
                w.push(t, id);
                q.push(t, id);
                id += 1;
            }
            for _ in 0..(next() % 6) {
                let a = w.pop();
                let b = q.pop();
                assert_eq!(a, b, "diverged at round {round}");
                if let Some((t, _)) = a {
                    base = t.as_ms();
                }
            }
        }
        loop {
            let a = w.pop();
            let b = q.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reserved_push_pops_in_its_reservation_place() {
        let mut w = TimeWheel::new(1.0);
        let t = SimTime::from_ms(3.0);
        w.push(t, 'a');
        let ticket = w.reserve();
        w.push(t, 'c');
        w.push_reserved(t, ticket, 'b');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_a_reserved_push_into_the_past() {
        let mut w = TimeWheel::new(1.0);
        let ticket = w.reserve();
        w.push(SimTime::from_ms(10.0), ());
        w.pop();
        w.push_reserved(SimTime::from_ms(5.0), ticket, ());
    }

    #[test]
    fn counters_ignore_unused_reservations() {
        let mut w = TimeWheel::new(1.0);
        w.reserve();
        w.push(SimTime::from_ms(1.0), 0);
        let ticket = w.reserve();
        w.reserve();
        w.push_reserved(SimTime::from_ms(2.0), ticket, 1);
        assert_eq!((w.pushes(), w.pops(), w.len()), (2, 0, 2));
        w.pop();
        w.reserve();
        assert_eq!((w.pushes(), w.pops(), w.len()), (2, 1, 1));
        w.pop();
        assert_eq!((w.pushes(), w.pops()), (2, 2));
    }

    #[test]
    fn len_and_empty() {
        let mut w: TimeWheel<()> = TimeWheel::new(1.0);
        assert!(w.is_empty());
        w.push(SimTime::from_ms(1.0), ());
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }
}
