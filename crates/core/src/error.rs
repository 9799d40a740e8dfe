//! Error type for the CAPS search.

use std::fmt;

use capsys_model::ModelError;

/// Errors produced by the CAPS cost model, search, and auto-tuner.
#[derive(Debug, Clone, PartialEq)]
pub enum CapsError {
    /// An underlying model error (invalid graph, cluster, or placement).
    Model(ModelError),
    /// No feasible plan exists under the given thresholds.
    NoFeasiblePlan,
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
    /// The search budget (node or wall-clock) ran out before any feasible
    /// plan was found, or the wall-clock budget ran out while tuning.
    /// Unlike [`CapsError::NoFeasiblePlan`] this does not prove
    /// infeasibility — a larger budget might still find a plan.
    BudgetExhausted,
    /// A worker thread of the parallel search panicked. The remaining
    /// workers were stopped cleanly and joined; partial results are
    /// discarded because the panicking thread's subtree is incomplete.
    SearchPanicked,
}

impl fmt::Display for CapsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapsError::Model(e) => write!(f, "model error: {e}"),
            CapsError::NoFeasiblePlan => write!(f, "no feasible placement plan found"),
            CapsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CapsError::BudgetExhausted => {
                write!(
                    f,
                    "search budget exhausted before a feasible plan was found"
                )
            }
            CapsError::SearchPanicked => {
                write!(f, "a parallel search worker thread panicked")
            }
        }
    }
}

impl std::error::Error for CapsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CapsError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CapsError {
    fn from(e: ModelError) -> Self {
        CapsError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CapsError::from(ModelError::NoSource);
        assert!(e.to_string().contains("model error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CapsError::NoFeasiblePlan).is_none());
        assert!(CapsError::NoFeasiblePlan.to_string().contains("feasible"));
        assert!(CapsError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(CapsError::BudgetExhausted.to_string().contains("budget"));
        assert!(CapsError::SearchPanicked.to_string().contains("panicked"));
    }
}
