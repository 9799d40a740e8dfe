//! ODRP solver configuration and the paper's three weight presets.

use std::time::Duration;

/// Weights of ODRP's multi-objective function.
///
/// ODRP (Cardellini et al.) scalarizes response time, monetary/resource
/// cost, network traffic, and availability into one weighted sum. The
/// CAPSys paper notes that tuning these weights is cumbersome and
/// evaluates the three configurations reproduced by the constructors
/// below (§6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdrpWeights {
    /// Weight of the normalized response-time objective.
    pub response: f64,
    /// Weight of the normalized resource-cost objective (slots used).
    pub cost: f64,
    /// Weight of the normalized cross-worker traffic objective.
    pub traffic: f64,
    /// Weight of the availability objective.
    pub availability: f64,
}

impl OdrpWeights {
    /// The paper's *Default* configuration: equal weight on all
    /// objectives.
    pub fn default_config() -> Self {
        OdrpWeights {
            response: 0.25,
            cost: 0.25,
            traffic: 0.25,
            availability: 0.25,
        }
    }

    /// The paper's *Weighted* configuration: hand-tuned to emphasize
    /// throughput and resource efficiency.
    pub fn weighted() -> Self {
        OdrpWeights {
            response: 0.85,
            cost: 0.05,
            traffic: 0.08,
            availability: 0.02,
        }
    }

    /// The paper's *Latency* configuration: only the response-time
    /// objective.
    pub fn latency() -> Self {
        OdrpWeights {
            response: 1.0,
            cost: 0.0,
            traffic: 0.0,
            availability: 0.0,
        }
    }

    /// Returns true if all weights are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [self.response, self.cost, self.traffic, self.availability]
            .iter()
            .all(|w| w.is_finite() && *w >= 0.0)
    }
}

/// One-way network latency between any two workers, seconds (the paper
/// uses the same latency for all links).
pub(crate) const LINK_LATENCY: f64 = 0.5e-3;

/// Node budget for each parallelism vector's placement search; once
/// exceeded the solver keeps its best placement so far and moves on
/// (optimality is then reported as unproven).
pub(crate) const INNER_NODE_BUDGET: usize = 200_000;

/// Queueing-utilization cap: utilizations above this are clamped so that
/// the M/M/1 response-time term stays finite. This reproduces ODRP's
/// documented flaw of admitting under-provisioned plans (the model has
/// no objective that *sustains* the input rate).
pub(crate) const UTILIZATION_CAP: f64 = 0.95;

/// Configuration of the ODRP branch-and-bound solver.
#[derive(Debug, Clone, PartialEq)]
pub struct OdrpConfig {
    /// Objective weights.
    pub weights: OdrpWeights,
    /// Upper bound on any operator's parallelism.
    pub max_parallelism: usize,
    /// Wall-clock budget; the solver returns its incumbent when the
    /// budget expires (and reports that optimality was not proven).
    pub time_budget: Duration,
    /// Per-node availability (the paper assumes perfect availability).
    pub availability: f64,
}

impl Default for OdrpConfig {
    fn default() -> Self {
        OdrpConfig {
            weights: OdrpWeights::default_config(),
            max_parallelism: 16,
            time_budget: Duration::from_secs(60),
            availability: 1.0,
        }
    }
}

impl OdrpConfig {
    /// A config with the given weights and otherwise default settings.
    pub fn with_weights(weights: OdrpWeights) -> Self {
        OdrpConfig {
            weights,
            ..OdrpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(OdrpWeights::default_config().is_valid());
        assert!(OdrpWeights::weighted().is_valid());
        assert!(OdrpWeights::latency().is_valid());
        assert_eq!(OdrpWeights::latency().cost, 0.0);
    }

    #[test]
    fn invalid_weights_detected() {
        let w = OdrpWeights {
            response: -1.0,
            cost: 0.0,
            traffic: 0.0,
            availability: 0.0,
        };
        assert!(!w.is_valid());
        let w = OdrpWeights {
            response: f64::NAN,
            cost: 0.0,
            traffic: 0.0,
            availability: 0.0,
        };
        assert!(!w.is_valid());
    }

    #[test]
    fn config_builder() {
        let c = OdrpConfig::with_weights(OdrpWeights::latency());
        assert_eq!(c.weights, OdrpWeights::latency());
    }

    // The cap must leave the M/M/1 sojourn time finite.
    const _: () = assert!(UTILIZATION_CAP < 1.0);
}
