//! Error types for LP modeling and solving.

use std::error::Error;
use std::fmt;

/// Errors from building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// The constraint system admits no feasible point.
    ///
    /// The paper notes this possibility explicitly for LP (4.3)–(4.6): "a
    /// solution might not exist if, e.g., the node capacities are set too
    /// low".
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit {
        /// Number of simplex iterations performed.
        iterations: usize,
    },
    /// A coefficient or row index was invalid (a non-finite coefficient,
    /// or a row out of range).
    InvalidModel {
        /// Explanation of the defect.
        reason: String,
    },
    /// Numerical failure: the basis matrix became singular beyond repair.
    Singular,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            LpError::InvalidModel { reason } => write!(f, "invalid model: {reason}"),
            LpError::Singular => write!(f, "basis matrix is singular"),
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
        assert!(LpError::IterationLimit { iterations: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<LpError>();
    }
}
