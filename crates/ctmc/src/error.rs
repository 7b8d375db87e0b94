//! Errors of the CTMC pipeline.

use slim_automata::error::EvalError;
use std::fmt;

/// Errors raised while exploring, reducing or analyzing a model as a CTMC.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CtmcError {
    /// The model contains clocks or continuous variables; the CTMC
    /// pipeline handles *untimed* models only (§IV of the paper: "this
    /// part of the tool-chain is limited to discrete models").
    TimedModel { variable: String },
    /// The model declares a `real` data variable: its values do not form
    /// a finite discrete state space, so it cannot be explored explicitly.
    RealVariable { variable: String },
    /// Evaluation failure during exploration.
    Eval(EvalError),
    /// The reachable state space exceeded the configured limit.
    StateLimitExceeded { limit: usize },
    /// A cycle of immediate (interactive) transitions was found; the
    /// vanishing-state elimination cannot terminate (a Zeno artifact).
    VanishingCycle { state_index: usize },
    /// The model has no states (empty network).
    Empty,
    /// A guard referenced time-dependent quantities in an untimed model
    /// (should be prevented by the timed-model check).
    NotDelayFree { context: String },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::TimedModel { variable } => {
                write!(
                    f,
                    "model is timed (variable `{variable}`); CTMC analysis requires untimed models"
                )
            }
            CtmcError::RealVariable { variable } => write!(
                f,
                "variable `{variable}` is real-valued; CTMC analysis requires Boolean and integer data"
            ),
            CtmcError::Eval(e) => write!(f, "evaluation error during exploration: {e}"),
            CtmcError::StateLimitExceeded { limit } => {
                write!(f, "reachable state space exceeds the limit of {limit} states")
            }
            CtmcError::VanishingCycle { state_index } => {
                write!(f, "cycle of immediate transitions through state {state_index}")
            }
            CtmcError::Empty => write!(f, "empty model"),
            CtmcError::NotDelayFree { context } => {
                write!(f, "guard is not delay-free in untimed model: {context}")
            }
        }
    }
}

impl std::error::Error for CtmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtmcError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for CtmcError {
    fn from(e: EvalError) -> Self {
        CtmcError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            CtmcError::TimedModel { variable: "x".into() },
            CtmcError::RealVariable { variable: "level".into() },
            CtmcError::StateLimitExceeded { limit: 10 },
            CtmcError::VanishingCycle { state_index: 3 },
            CtmcError::Empty,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
