//! The DS2 auto-scaling controller.
//!
//! A re-implementation of the scaling model of *"Three steps is all you
//! need: fast, accurate, automatic scaling decisions for distributed
//! streaming dataflows"* (Kalavri et al., OSDI 2018), which the CAPSys
//! paper uses as its elasticity controller (§5.1).
//!
//! DS2 computes, for every operator, the minimal parallelism that can
//! sustain the target source rates, using each task's **true rates** —
//! the rate a task could sustain if it were never idle — instead of its
//! observed rates:
//!
//! 1. source operators emit their target rates;
//! 2. walking the dataflow in topological order, each operator's target
//!    input rate is the sum of its upstream operators' target output
//!    rates;
//! 3. the operator's optimal parallelism is
//!    `ceil(target input rate / true processing rate per task)`, and its
//!    target output rate follows from its measured selectivity.
//!
//! The quality of the decision therefore depends directly on the quality
//! of the measured true rates — which is exactly the coupling the CAPSys
//! paper exploits: a contention-heavy placement depresses true rates and
//! makes DS2 overshoot (§6.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use std::collections::HashMap;

use capsys_model::{LogicalGraph, ModelError, OperatorId, PhysicalGraph, TaskId};
use capsys_sim::TaskRateStats;

/// Configuration of the DS2 controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Ds2Config {
    /// Time after a reconfiguration before DS2 acts again, seconds
    /// (paper §6.4: 90 s).
    pub activation_period: f64,
    /// How often the policy is evaluated, seconds (paper §6.4: 5 s).
    pub policy_interval: f64,
    /// Upper bound on any operator's parallelism.
    pub max_parallelism: usize,
    /// Multiplier on required rates (1.0 = the exact DS2 model).
    pub headroom: f64,
}

impl Default for Ds2Config {
    fn default() -> Self {
        Ds2Config {
            activation_period: 90.0,
            policy_interval: 5.0,
            max_parallelism: 64,
            headroom: 1.0,
        }
    }
}

/// Errors produced by the DS2 controller.
#[derive(Debug, Clone, PartialEq)]
pub enum Ds2Error {
    /// An underlying model error.
    Model(ModelError),
    /// The metrics vector does not match the physical graph.
    MetricsMismatch {
        /// Number of per-task metric entries supplied.
        metrics: usize,
        /// Number of tasks in the physical graph.
        tasks: usize,
    },
    /// A source operator has no target rate.
    MissingTarget(String),
}

impl std::fmt::Display for Ds2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ds2Error::Model(e) => write!(f, "model error: {e}"),
            Ds2Error::MetricsMismatch { metrics, tasks } => {
                write!(
                    f,
                    "got metrics for {metrics} tasks but the graph has {tasks}"
                )
            }
            Ds2Error::MissingTarget(name) => {
                write!(f, "source operator `{name}` has no target rate")
            }
        }
    }
}

impl std::error::Error for Ds2Error {}

impl From<ModelError> for Ds2Error {
    fn from(e: ModelError) -> Self {
        Ds2Error::Model(e)
    }
}

/// The outcome of one DS2 policy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingDecision {
    /// Recommended parallelism per operator, indexed by operator id.
    pub parallelism: Vec<usize>,
    /// Whether the recommendation differs from the current deployment.
    pub changed: bool,
    /// The target input rate DS2 derived for each operator.
    pub target_input: Vec<f64>,
    /// The per-task true processing rate DS2 measured for each operator.
    pub true_rate_per_task: Vec<f64>,
}

impl ScalingDecision {
    /// Total number of task slots the decision requires.
    pub fn total_tasks(&self) -> usize {
        self.parallelism.iter().sum()
    }
}

/// The DS2 scaling controller.
#[derive(Debug, Clone, Default)]
pub struct Ds2Controller {
    /// Controller configuration.
    pub config: Ds2Config,
}

impl Ds2Controller {
    /// Creates a controller with the given configuration.
    pub fn new(config: Ds2Config) -> Self {
        Ds2Controller { config }
    }

    /// Computes the optimal parallelism per operator.
    ///
    /// `rates` holds one [`TaskRateStats`] per task of `physical` (as
    /// produced by the simulator's report); `source_targets` gives the
    /// desired aggregate rate of each source operator.
    pub fn decide(
        &self,
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        rates: &[TaskRateStats],
        source_targets: &HashMap<OperatorId, f64>,
    ) -> Result<ScalingDecision, Ds2Error> {
        if rates.len() != physical.num_tasks() {
            return Err(Ds2Error::MetricsMismatch {
                metrics: rates.len(),
                tasks: physical.num_tasks(),
            });
        }
        for src in logical.sources() {
            if !source_targets.contains_key(&src) {
                return Err(Ds2Error::MissingTarget(logical.operator(src).name.clone()));
            }
        }

        let n_ops = logical.num_operators();
        let mut true_rate = vec![0.0f64; n_ops];
        let mut selectivity = vec![1.0f64; n_ops];
        for op_idx in 0..n_ops {
            let op_id = OperatorId(op_idx);
            let range = physical.operator_tasks(op_id);
            let n = range.len().max(1) as f64;
            let mut rate_sum = 0.0;
            let mut in_sum = 0.0;
            let mut out_sum = 0.0;
            for t in range {
                let m = &rates[t];
                rate_sum += m.true_rate;
                in_sum += m.observed_rate;
                out_sum += m.observed_output_rate;
            }
            true_rate[op_idx] = rate_sum / n;
            selectivity[op_idx] = if in_sum > 1e-9 {
                out_sum / in_sum
            } else {
                logical.operator(op_id).profile.selectivity
            };
        }

        let mut target_input = vec![0.0f64; n_ops];
        let mut target_output = vec![0.0f64; n_ops];
        let mut parallelism = vec![1usize; n_ops];
        for &op_id in logical.topological_order() {
            let op = logical.operator(op_id);
            let idx = op_id.0;
            if op.kind.is_source() {
                target_output[idx] = source_targets[&op_id];
                target_input[idx] = target_output[idx];
            } else {
                let mut input = 0.0;
                for e in logical.in_edges(op_id) {
                    input += target_output[e.from.0];
                }
                target_input[idx] = input;
                target_output[idx] = input * selectivity[idx];
            }
            let required = target_input[idx] * self.config.headroom;
            parallelism[idx] = if true_rate[idx] > 1e-9 {
                ((required / true_rate[idx]).ceil() as usize).clamp(1, self.config.max_parallelism)
            } else if required > 0.0 {
                // No capacity information: be conservative but bounded.
                self.config
                    .max_parallelism
                    .min(physical.parallelism(op_id).max(1))
            } else {
                1
            };
        }

        let current = physical.parallelism_vector();
        let changed = parallelism != current;
        Ok(ScalingDecision {
            parallelism,
            changed,
            target_input,
            true_rate_per_task: true_rate,
        })
    }

    /// Convenience wrapper building per-task stats from uniform
    /// per-operator true rates (useful in tests and analytic callers).
    pub fn decide_from_op_rates(
        &self,
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        op_true_rates: &[f64],
        source_targets: &HashMap<OperatorId, f64>,
    ) -> Result<ScalingDecision, Ds2Error> {
        let rates: Vec<TaskRateStats> = (0..physical.num_tasks())
            .map(|t| {
                let op = physical.task_operator(TaskId(t));
                let sel = logical.operator(op).profile.selectivity;
                let r = op_true_rates.get(op.0).copied().unwrap_or(0.0);
                TaskRateStats {
                    observed_rate: r,
                    true_rate: r,
                    observed_output_rate: r * sel,
                    true_output_rate: r * sel,
                    busy_fraction: 1.0,
                }
            })
            .collect();
        self.decide(logical, physical, &rates, source_targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{ConnectionPattern, OperatorKind, ResourceProfile};

    fn pipeline(pars: &[usize], selectivities: &[f64]) -> (LogicalGraph, PhysicalGraph) {
        let mut b = LogicalGraph::builder("p");
        let mut prev = None;
        for (i, (&p, &sel)) in pars.iter().zip(selectivities).enumerate() {
            let kind = if i == 0 {
                OperatorKind::Source
            } else if i + 1 == pars.len() {
                OperatorKind::Sink
            } else {
                OperatorKind::Stateless
            };
            let id = b.operator(
                format!("op{i}"),
                kind,
                p,
                ResourceProfile::new(1e-4, 0.0, 10.0, sel),
            );
            if let Some(pr) = prev {
                b.edge(pr, id, ConnectionPattern::Hash);
            }
            prev = Some(id);
        }
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        (g, p)
    }

    fn targets(g: &LogicalGraph, rate: f64) -> HashMap<OperatorId, f64> {
        g.sources().into_iter().map(|s| (s, rate)).collect()
    }

    #[test]
    fn scales_to_sustain_target() {
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 1.0, 1.0]);
        // Each map task can do 500 rec/s; target 2000 -> need 4 tasks.
        let ds2 = Ds2Controller::default();
        let d = ds2
            .decide_from_op_rates(&g, &p, &[10_000.0, 500.0, 10_000.0], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(d.parallelism[1], 4);
        assert!(d.changed);
        assert_eq!(d.target_input[1], 2000.0);
    }

    #[test]
    fn selectivity_reduces_downstream_requirements() {
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 0.1, 1.0]);
        // Map keeps 10%: the sink sees 200 rec/s; at 100 rec/s per sink
        // task DS2 needs 2 sink tasks, not 20.
        let ds2 = Ds2Controller::default();
        let d = ds2
            .decide_from_op_rates(&g, &p, &[10_000.0, 10_000.0, 100.0], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(d.parallelism[2], 2);
        assert_eq!(d.target_input[2], 200.0);
    }

    #[test]
    fn depressed_true_rates_cause_overshoot() {
        // The CAPSys §6.4 phenomenon: contention halves the measured true
        // rate, so DS2 doubles the parallelism it requests.
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::default();
        let clean = ds2
            .decide_from_op_rates(&g, &p, &[1e4, 1000.0, 1e4], &targets(&g, 2000.0))
            .unwrap();
        let contended = ds2
            .decide_from_op_rates(&g, &p, &[1e4, 500.0, 1e4], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(clean.parallelism[1], 2);
        assert_eq!(contended.parallelism[1], 4);
    }

    #[test]
    fn no_change_when_parallelism_is_right() {
        let (g, p) = pipeline(&[1, 2, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::default();
        let d = ds2
            .decide_from_op_rates(&g, &p, &[5000.0, 1000.0, 5000.0], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(d.parallelism, vec![1, 2, 1]);
        assert!(!d.changed);
        assert_eq!(d.total_tasks(), 4);
    }

    #[test]
    fn parallelism_is_clamped() {
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::new(Ds2Config {
            max_parallelism: 8,
            ..Ds2Config::default()
        });
        let d = ds2
            .decide_from_op_rates(&g, &p, &[1e6, 1.0, 1e6], &targets(&g, 1e6))
            .unwrap();
        assert_eq!(d.parallelism[1], 8);
    }

    #[test]
    fn zero_true_rate_keeps_current_parallelism() {
        let (g, p) = pipeline(&[1, 3, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::default();
        let d = ds2
            .decide_from_op_rates(&g, &p, &[1e4, 0.0, 1e4], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(d.parallelism[1], 3, "unknown capacity: keep deployment");
    }

    #[test]
    fn headroom_overprovisions() {
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::new(Ds2Config {
            headroom: 1.5,
            ..Ds2Config::default()
        });
        let d = ds2
            .decide_from_op_rates(&g, &p, &[1e4, 1000.0, 1e4], &targets(&g, 2000.0))
            .unwrap();
        assert_eq!(d.parallelism[1], 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (g, p) = pipeline(&[1, 1, 1], &[1.0, 1.0, 1.0]);
        let ds2 = Ds2Controller::default();
        let err = ds2.decide(&g, &p, &[], &targets(&g, 100.0)).unwrap_err();
        assert!(matches!(err, Ds2Error::MetricsMismatch { .. }));
        let err = ds2
            .decide_from_op_rates(&g, &p, &[1.0, 1.0, 1.0], &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, Ds2Error::MissingTarget(_)));
    }

    #[test]
    fn two_source_graph_sums_inputs() {
        let mut b = LogicalGraph::builder("join");
        let s1 = b.operator(
            "s1",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 1.0, 1.0),
        );
        let s2 = b.operator(
            "s2",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 1.0, 1.0),
        );
        let j = b.operator(
            "j",
            OperatorKind::Join,
            1,
            ResourceProfile::new(0.0, 0.0, 1.0, 1.0),
        );
        b.edge(s1, j, ConnectionPattern::Hash);
        b.edge(s2, j, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let ds2 = Ds2Controller::default();
        let mut t = HashMap::new();
        t.insert(s1, 300.0);
        t.insert(s2, 700.0);
        let d = ds2
            .decide_from_op_rates(&g, &p, &[1e4, 1e4, 250.0], &t)
            .unwrap();
        assert_eq!(d.target_input[j.0], 1000.0);
        assert_eq!(d.parallelism[j.0], 4);
    }
}
