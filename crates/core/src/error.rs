//! Simulator error types.

use slim_automata::error::EvalError;
use std::fmt;

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SimError {
    /// A runtime evaluation error in a guard, invariant, effect or goal.
    Eval(EvalError),
    /// A deadlock was reached and the configuration demands an error
    /// (§III-D of the paper: `slimsim` can be configured to generate an
    /// error upon detection of a deadlock).
    DeadlockDetected { time: f64, description: String },
    /// A path exceeded the configured maximum number of steps — usually a
    /// Zeno model or a `Local` strategy stuck re-sampling delays.
    StepLimitExceeded { limit: u64 },
    /// The input oracle (interactive strategy) aborted the simulation.
    InputAborted,
    /// An input was rejected: an invalid choice of the input oracle, or
    /// an analysis parameter outside its domain.
    InvalidInput { detail: String },
    /// A worker thread panicked or disconnected.
    WorkerFailed { detail: String },
    /// Replaying a recorded trace diverged from the model at the given
    /// event index (0-based into the trace's event list).
    ReplayMismatch { event: usize, detail: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Eval(e) => write!(f, "evaluation error: {e}"),
            SimError::DeadlockDetected { time, description } => {
                write!(f, "deadlock detected at t={time}: {description}")
            }
            SimError::StepLimitExceeded { limit } => {
                write!(f, "path exceeded the step limit of {limit}")
            }
            SimError::InputAborted => write!(f, "interactive input aborted"),
            SimError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            SimError::WorkerFailed { detail } => write!(f, "worker failed: {detail}"),
            SimError::ReplayMismatch { event, detail } => {
                write!(f, "replay diverged at event {event}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source() {
        use std::error::Error;
        let e = SimError::from(EvalError::DivisionByZero);
        assert!(e.to_string().contains("division"));
        assert!(e.source().is_some());
        let d = SimError::DeadlockDetected { time: 1.5, description: "no moves".into() };
        assert!(d.to_string().contains("t=1.5"));
        assert!(d.source().is_none());
    }
}
