//! A small discrete-event simulation kernel.
//!
//! This crate is the substrate for the message-level protocol simulation
//! (`qp-protocol`) that replaces the paper's Modelnet testbed: a
//! monotonic simulated clock, a hierarchical time-wheel event queue (both
//! protocol engines run on it; the stable binary-heap [`EventQueue`] is
//! its overflow store and the schedule it is tested against),
//! single-server FIFO service stations with deterministic service times,
//! and streaming statistics.
//!
//! The kernel is deliberately minimal — no processes, no channels — because
//! the quorum protocol's event handlers are straight-line code; a full
//! process-oriented framework would only add indirection.
//!
//! # Examples
//!
//! An M/D/1-style queue fed by two arrivals:
//!
//! ```
//! use qp_des::{ServiceStation, SimTime, TimeWheel};
//!
//! let mut wheel = TimeWheel::new(0.5);
//! wheel.push(SimTime::from_ms(1.0), "first");
//! wheel.push(SimTime::from_ms(2.0), "second");
//!
//! let mut server = ServiceStation::new();
//! while let Some((now, _event)) = wheel.pop() {
//!     let departure = server.submit(now, 5.0);
//!     assert!(departure >= now);
//! }
//! // Second arrival (t=2) waited behind the first (busy until t=6).
//! assert_eq!(server.served(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod stats;
mod time;
mod wheel;

pub use queue::EventQueue;
pub use stats::{P2Quantile, Sample, Tally};
pub use time::SimTime;
pub use wheel::TimeWheel;

/// A single-server FIFO queue with deterministic per-request service times
/// — the model of a protocol server's request-processing loop.
///
/// Because service is FIFO and deterministic, the full queueing behaviour
/// collapses to one invariant: a request arriving at `a` departs at
/// `max(a, previous departure) + service`.
///
/// # Examples
///
/// ```
/// use qp_des::{ServiceStation, SimTime};
///
/// let mut s = ServiceStation::new();
/// let d1 = s.submit(SimTime::from_ms(0.0), 1.0);
/// assert_eq!(d1.as_ms(), 1.0);
/// // Arrives while busy: queues behind the first request.
/// let d2 = s.submit(SimTime::from_ms(0.5), 1.0);
/// assert_eq!(d2.as_ms(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStation {
    free_at: SimTime,
    busy_ms: f64,
    served: u64,
    total_wait_ms: f64,
}

impl ServiceStation {
    /// A new, idle station at time zero.
    pub fn new() -> Self {
        ServiceStation::default()
    }

    /// A station that starts with a residual backlog: it will not begin
    /// serving new arrivals before `busy_until`. Used to carry queue state
    /// across scenario phase boundaries.
    ///
    /// The carried backlog does not count toward this station's `busy_ms`,
    /// `served`, or wait accounting — those track only work submitted
    /// during the current run.
    pub fn with_initial_backlog(busy_until: SimTime) -> Self {
        ServiceStation {
            free_at: busy_until,
            ..ServiceStation::default()
        }
    }

    /// Submits a request arriving at `arrival` needing `service_ms` of
    /// processing; returns its departure (completion) time.
    ///
    /// # Panics
    ///
    /// Panics if `service_ms` is negative/NaN or `arrival` precedes the
    /// departure of an *earlier* arrival already submitted (submissions
    /// must be fed in nondecreasing arrival order, which an event loop
    /// guarantees naturally).
    pub fn submit(&mut self, arrival: SimTime, service_ms: f64) -> SimTime {
        assert!(
            service_ms >= 0.0 && service_ms.is_finite(),
            "service time must be a nonnegative number"
        );
        let start = if arrival > self.free_at {
            arrival
        } else {
            self.free_at
        };
        let depart = SimTime::from_ms(start.as_ms() + service_ms);
        self.total_wait_ms += start.as_ms() - arrival.as_ms();
        self.busy_ms += service_ms;
        self.served += 1;
        self.free_at = depart;
        depart
    }

    /// Number of requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total processing time spent, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Mean queueing delay (time between arrival and start of service) per
    /// request, in milliseconds; 0 if nothing was served.
    pub fn mean_wait_ms(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_wait_ms / self.served as f64
        }
    }

    /// Utilization over the horizon `[0, until]`: fraction of time busy.
    ///
    /// # Panics
    ///
    /// Panics if `until` is zero or negative.
    pub fn utilization(&self, until: SimTime) -> f64 {
        assert!(until.as_ms() > 0.0, "horizon must be positive");
        (self.busy_ms / until.as_ms()).min(1.0)
    }

    /// The time at which the station next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_station_serves_immediately() {
        let mut s = ServiceStation::new();
        let d = s.submit(SimTime::from_ms(10.0), 2.5);
        assert_eq!(d.as_ms(), 12.5);
        assert_eq!(s.mean_wait_ms(), 0.0);
    }

    #[test]
    fn busy_station_queues_fifo() {
        let mut s = ServiceStation::new();
        s.submit(SimTime::from_ms(0.0), 4.0);
        let d = s.submit(SimTime::from_ms(1.0), 4.0);
        assert_eq!(d.as_ms(), 8.0);
        // Second request waited 3 ms.
        assert_eq!(s.mean_wait_ms(), 1.5);
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut s = ServiceStation::new();
        s.submit(SimTime::from_ms(0.0), 3.0);
        s.submit(SimTime::from_ms(10.0), 3.0);
        assert!((s.utilization(SimTime::from_ms(20.0)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_service_is_allowed() {
        let mut s = ServiceStation::new();
        let d = s.submit(SimTime::from_ms(5.0), 0.0);
        assert_eq!(d.as_ms(), 5.0);
    }

    #[test]
    #[should_panic(expected = "service time")]
    fn rejects_nan_service() {
        let mut s = ServiceStation::new();
        let _ = s.submit(SimTime::from_ms(0.0), f64::NAN);
    }

    #[test]
    fn initial_backlog_delays_service_without_counting_as_work() {
        let mut s = ServiceStation::with_initial_backlog(SimTime::from_ms(10.0));
        let d = s.submit(SimTime::from_ms(2.0), 3.0);
        assert_eq!(d.as_ms(), 13.0);
        // Only the submitted request's service counts as busy time; the
        // carried backlog shows up as queueing delay instead.
        assert_eq!(s.busy_ms(), 3.0);
        assert_eq!(s.served(), 1);
        assert_eq!(s.mean_wait_ms(), 8.0);
    }
}
