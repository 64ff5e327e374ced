//! Error type shared by all model simulators.

use std::fmt;

/// Errors raised when an algorithm violates the resource constraints of the
/// simulated model or uses the simulator incorrectly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A machine exceeded its per-round read (query) budget.
    ReadBudgetExceeded {
        /// Machine that exceeded its budget.
        machine: usize,
        /// The budget that was in force.
        budget: usize,
    },
    /// A machine exceeded its per-round write budget.
    WriteBudgetExceeded {
        /// Machine that exceeded its budget.
        machine: usize,
        /// The budget that was in force.
        budget: usize,
    },
    /// A machine exceeded its local space while accumulating state.
    LocalSpaceExceeded {
        /// Machine that exceeded its space.
        machine: usize,
        /// Local space (in words) that was in force.
        space: usize,
    },
    /// An LCA exceeded its per-node query budget.
    QueryBudgetExceeded {
        /// The budget that was in force.
        budget: usize,
    },
    /// Two machines wrote different values to the same key under
    /// [`crate::ConflictPolicy::Error`].
    WriteConflict {
        /// Human-readable description of the conflicting key.
        key: String,
    },
    /// The algorithm driver misused the simulator (e.g. inconsistent machine
    /// counts); the message explains the problem.
    InvalidUsage(
        /// Description of the misuse.
        String,
    ),
    /// A round panicked (in a machine body or the merge phase) and every
    /// permitted retry was exhausted. Panics from injected faults are
    /// always retried before this surfaces; a real panic is reported with
    /// whatever payload detail could be extracted.
    RoundPanicked {
        /// Round (0-based, per engine) that kept panicking.
        round: usize,
        /// Best-effort panic payload description.
        detail: String,
    },
    /// A round overran its configured wall-clock deadline on every
    /// permitted attempt.
    RoundDeadlineExceeded {
        /// Round (0-based, per engine) that kept overrunning.
        round: usize,
        /// The deadline that was in force, in milliseconds.
        deadline_ms: u64,
        /// Number of attempts made (initial run + retries).
        attempts: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ReadBudgetExceeded { machine, budget } => {
                write!(
                    f,
                    "machine {machine} exceeded its read budget of {budget} queries"
                )
            }
            ModelError::WriteBudgetExceeded { machine, budget } => {
                write!(
                    f,
                    "machine {machine} exceeded its write budget of {budget} writes"
                )
            }
            ModelError::LocalSpaceExceeded { machine, space } => {
                write!(
                    f,
                    "machine {machine} exceeded its local space of {space} words"
                )
            }
            ModelError::QueryBudgetExceeded { budget } => {
                write!(f, "LCA exceeded its query budget of {budget} queries")
            }
            ModelError::WriteConflict { key } => {
                write!(f, "conflicting writes to key {key}")
            }
            ModelError::InvalidUsage(message) => write!(f, "invalid simulator usage: {message}"),
            ModelError::RoundPanicked { round, detail } => {
                write!(
                    f,
                    "round {round} panicked after exhausting retries: {detail}"
                )
            }
            ModelError::RoundDeadlineExceeded {
                round,
                deadline_ms,
                attempts,
            } => {
                write!(
                    f,
                    "round {round} exceeded its {deadline_ms} ms deadline on all {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = ModelError::ReadBudgetExceeded {
            machine: 3,
            budget: 10,
        };
        assert!(err.to_string().contains("machine 3"));
        assert!(err.to_string().contains("10"));

        let err = ModelError::QueryBudgetExceeded { budget: 64 };
        assert!(err.to_string().contains("64"));

        let err = ModelError::InvalidUsage("bad".into());
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            ModelError::QueryBudgetExceeded { budget: 1 },
            ModelError::QueryBudgetExceeded { budget: 1 }
        );
        assert_ne!(
            ModelError::QueryBudgetExceeded { budget: 1 },
            ModelError::QueryBudgetExceeded { budget: 2 }
        );
    }
}
