//! ODRP: Optimal Operator Replication and Placement.
//!
//! A re-implementation of the state-of-the-art baseline the CAPSys paper
//! compares against in §6.3 (Cardellini et al., *"Optimal operator
//! replication and placement for distributed stream processing
//! systems"*, SIGMETRICS PER 2017). ODRP decides operator parallelism
//! and task placement jointly by minimizing a weighted multi-objective
//! function over response time, resource cost, network traffic, and
//! availability.
//!
//! The implementation is an exact two-level branch and bound (see
//! [`solver`]); like the original ILP it explores the joint
//! replication × placement space exhaustively, which makes its decision
//! time blow up with problem size — the behaviour the CAPSys paper
//! contrasts with sub-second CAPS searches (Table 3). Three weight
//! presets reproduce the paper's *Default*, *Weighted*, and *Latency*
//! configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod config;
pub mod objective;
pub mod solver;

pub use config::{OdrpConfig, OdrpWeights};
pub use objective::{ObjectiveBreakdown, ObjectiveModel};
pub use solver::{OdrpSolution, OdrpSolver};

use capsys_model::ModelError;

/// Errors produced by the ODRP solver.
#[derive(Debug, Clone, PartialEq)]
pub enum OdrpError {
    /// An underlying model error.
    Model(ModelError),
    /// ODRP only supports single-source queries; the graph has this many.
    MultipleSources(usize),
    /// No feasible solution was found within the budget.
    NoSolution,
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
}

impl std::fmt::Display for OdrpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OdrpError::Model(e) => write!(f, "model error: {e}"),
            OdrpError::MultipleSources(n) => {
                write!(
                    f,
                    "ODRP supports single-source queries; the graph has {n} sources"
                )
            }
            OdrpError::NoSolution => write!(f, "no feasible solution found within the budget"),
            OdrpError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for OdrpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OdrpError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for OdrpError {
    fn from(e: ModelError) -> Self {
        OdrpError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(OdrpError::MultipleSources(3).to_string().contains("3"));
        assert!(OdrpError::NoSolution.to_string().contains("solution"));
        assert!(OdrpError::from(ModelError::NoSource)
            .to_string()
            .contains("model"));
        assert!(OdrpError::InvalidConfig("w".into())
            .to_string()
            .contains("w"));
    }
}
