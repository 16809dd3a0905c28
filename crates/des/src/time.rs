//! Simulated time.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in milliseconds from simulation start.
///
/// Always finite and nonnegative; construction validates. `SimTime` is
/// totally ordered, so it can key an event queue.
///
/// # Examples
///
/// ```
/// use qp_des::SimTime;
///
/// let a = SimTime::from_ms(1.5);
/// let b = a + 2.5;
/// assert_eq!(b.as_ms(), 4.0);
/// assert!(b > a);
/// assert_eq!(b - a, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point `ms` milliseconds from start.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative, NaN, or infinite.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        // Two float comparisons rather than `is_finite`'s bit tests: the
        // aggregated engine's batch loop runs this twice per request.
        assert!(
            (0.0..=f64::MAX).contains(&ms),
            "time must be a nonnegative number"
        );
        SimTime(ms)
    }

    /// Milliseconds from simulation start.
    pub fn as_ms(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite by construction, so partial_cmp cannot fail.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances by `rhs` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_ms(self.0 + rhs)
    }
}

impl Sub for SimTime {
    type Output = f64;

    /// The elapsed milliseconds between two time points (may be negative if
    /// `rhs` is later).
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ms(3.0);
        let b = SimTime::from_ms(5.5);
        assert!(a < b);
        assert_eq!(b - a, 2.5);
        assert_eq!((a + 2.5), b);
        assert_eq!(SimTime::ZERO.as_ms(), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative() {
        let _ = SimTime::from_ms(-1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_nan() {
        let _ = SimTime::from_ms(f64::NAN);
    }

    #[test]
    fn display_formats_ms() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
    }
}
