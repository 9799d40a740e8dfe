//! Online profiling: keeping unit costs fresh at runtime.
//!
//! The paper profiles once, offline, and notes (§5.1): *"If workload
//! characteristics change over time, we could use our current
//! infrastructure to have the Metrics Collector periodically feed
//! metrics to DS2 and CAPS, to support online profiling. We leave this
//! to future work."* This module implements that future work against
//! the simulator's metrics.
//!
//! At runtime, a task's busy time divided by its processed records is
//! its *effective* service time — the offline `cpu_per_record` inflated
//! by whatever contention the task currently suffers. The
//! [`OnlineProfiler`] tracks an exponential moving average of this
//! effective cost (taking, per operator, the *minimum* across tasks,
//! whose least-contended task best approximates the true unit cost) and
//! of the observed selectivity, and reports when they drift far enough
//! from the stored profile that re-planning is warranted.

use capsys_model::{OperatorId, PhysicalGraph, ResourceProfile};
use capsys_sim::TaskRateStats;

use crate::ControllerError;

/// Configuration of the online profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineProfilerConfig {
    /// EMA smoothing factor in `(0, 1]`; higher reacts faster.
    pub alpha: f64,
    /// Relative drift (on CPU cost or selectivity) that triggers a
    /// profile update.
    pub drift_threshold: f64,
    /// Ignore observations from tasks processing fewer records/s than
    /// this (their cost estimates are noise).
    pub min_rate: f64,
}

impl Default for OnlineProfilerConfig {
    fn default() -> Self {
        OnlineProfilerConfig {
            alpha: 0.3,
            drift_threshold: 0.25,
            min_rate: 1.0,
        }
    }
}

impl OnlineProfilerConfig {
    /// Validates the configuration. `alpha` must lie in `(0, 1]`,
    /// `drift_threshold` must be finite and non-negative, and `min_rate`
    /// must be finite and strictly positive — `min_rate` is the sole
    /// guard on the divisions in [`OnlineProfiler::observe`], so a zero
    /// or negative value would let `busy / rate` and `out / in` divide
    /// by zero.
    pub fn validate(&self) -> Result<(), ControllerError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(ControllerError::InvalidConfig(format!(
                "online profiler alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "online profiler drift_threshold must be finite and >= 0, got {}",
                self.drift_threshold
            )));
        }
        if !self.min_rate.is_finite() || self.min_rate <= 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "online profiler min_rate must be finite and > 0, got {}",
                self.min_rate
            )));
        }
        Ok(())
    }
}

/// Tracks effective per-operator unit costs from runtime metrics.
#[derive(Debug, Clone)]
pub struct OnlineProfiler {
    config: OnlineProfilerConfig,
    /// Stored (baseline) profiles, indexed by operator id.
    baseline: Vec<ResourceProfile>,
    /// EMA of the effective CPU cost per operator.
    ema_cpu: Vec<Option<f64>>,
    /// EMA of the observed selectivity per operator.
    ema_selectivity: Vec<Option<f64>>,
    observations: usize,
}

impl OnlineProfiler {
    /// Creates a profiler seeded with the offline profiles.
    pub fn new(baseline: Vec<ResourceProfile>, config: OnlineProfilerConfig) -> OnlineProfiler {
        let n = baseline.len();
        OnlineProfiler {
            config,
            baseline,
            ema_cpu: vec![None; n],
            ema_selectivity: vec![None; n],
            observations: 0,
        }
    }

    /// Like [`OnlineProfiler::new`], but validates the configuration
    /// first.
    pub fn checked(
        baseline: Vec<ResourceProfile>,
        config: OnlineProfilerConfig,
    ) -> Result<OnlineProfiler, ControllerError> {
        config.validate()?;
        Ok(OnlineProfiler::new(baseline, config))
    }

    /// Number of metric windows observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The current EMA of the effective CPU cost of an operator, if any
    /// observation has been made.
    pub fn effective_cpu(&self, op: OperatorId) -> Option<f64> {
        self.ema_cpu.get(op.0).copied().flatten()
    }

    /// Folds one metrics window into the EMAs.
    ///
    /// `rates` must be indexed by the task ids of `physical` (the
    /// simulator's report layout).
    pub fn observe(&mut self, physical: &PhysicalGraph, rates: &[TaskRateStats]) {
        self.observations += 1;
        for op_idx in 0..physical.num_operators().min(self.baseline.len()) {
            let range = physical.operator_tasks(OperatorId(op_idx));
            // Effective unit cost: busy seconds per processed record.
            // The least-loaded task of the operator suffers the least
            // contention and is the best estimate of the true cost.
            let mut best_cost: Option<f64> = None;
            let mut in_sum = 0.0;
            let mut out_sum = 0.0;
            for t in range {
                let m = match rates.get(t) {
                    Some(m) => m,
                    None => continue,
                };
                in_sum += m.observed_rate;
                out_sum += m.observed_output_rate;
                // The `> 0.0` guard is belt-and-braces for callers that
                // bypassed `validate()` with a non-positive `min_rate`.
                if m.observed_rate >= self.config.min_rate && m.observed_rate > 0.0 {
                    let cost = m.busy_fraction / m.observed_rate;
                    best_cost = Some(best_cost.map_or(cost, |b: f64| b.min(cost)));
                }
            }
            if let Some(cost) = best_cost {
                let a = self.config.alpha;
                self.ema_cpu[op_idx] =
                    Some(self.ema_cpu[op_idx].map_or(cost, |e| e * (1.0 - a) + cost * a));
            }
            if in_sum >= self.config.min_rate && in_sum > 0.0 {
                let sel = out_sum / in_sum;
                let a = self.config.alpha;
                self.ema_selectivity[op_idx] =
                    Some(self.ema_selectivity[op_idx].map_or(sel, |e| e * (1.0 - a) + sel * a));
            }
        }
    }

    /// Returns refreshed profiles when the observed costs have drifted
    /// beyond the threshold from the stored baseline, `None` otherwise.
    ///
    /// A returned update also becomes the new baseline, so subsequent
    /// drift is measured against it.
    pub fn drifted_profiles(&mut self) -> Option<Vec<ResourceProfile>> {
        let mut drifted = false;
        for (op_idx, base) in self.baseline.iter().enumerate() {
            if let Some(cpu) = self.ema_cpu[op_idx] {
                if base.cpu_per_record > 1e-12 {
                    let rel = (cpu - base.cpu_per_record).abs() / base.cpu_per_record;
                    if rel > self.config.drift_threshold {
                        drifted = true;
                    }
                }
            }
            if let Some(sel) = self.ema_selectivity[op_idx] {
                if base.selectivity > 1e-12 {
                    let rel = (sel - base.selectivity).abs() / base.selectivity;
                    if rel > self.config.drift_threshold {
                        drifted = true;
                    }
                }
            }
        }
        if !drifted {
            return None;
        }
        let updated: Vec<ResourceProfile> = self
            .baseline
            .iter()
            .enumerate()
            .map(|(op_idx, base)| {
                let mut p = *base;
                if let Some(cpu) = self.ema_cpu[op_idx] {
                    p.cpu_per_record = cpu;
                }
                if let Some(sel) = self.ema_selectivity[op_idx] {
                    p.selectivity = sel;
                }
                p
            })
            .collect();
        self.baseline = updated.clone();
        Some(updated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{ConnectionPattern, LogicalGraph, OperatorKind, PhysicalGraph};

    fn graph() -> PhysicalGraph {
        let mut b = LogicalGraph::builder("g");
        let s = b.operator(
            "s",
            OperatorKind::Source,
            1,
            ResourceProfile::new(1e-5, 0.0, 1.0, 1.0),
        );
        let m = b.operator(
            "m",
            OperatorKind::Stateless,
            2,
            ResourceProfile::new(1e-3, 0.0, 1.0, 0.5),
        );
        b.edge(s, m, ConnectionPattern::Hash);
        PhysicalGraph::expand(&b.build().unwrap())
    }

    fn stats(rate: f64, busy: f64, sel: f64) -> TaskRateStats {
        TaskRateStats {
            observed_rate: rate,
            true_rate: rate / busy.max(1e-9),
            observed_output_rate: rate * sel,
            true_output_rate: rate * sel / busy.max(1e-9),
            busy_fraction: busy,
        }
    }

    fn baseline() -> Vec<ResourceProfile> {
        vec![
            ResourceProfile::new(1e-5, 0.0, 1.0, 1.0),
            ResourceProfile::new(1e-3, 0.0, 1.0, 0.5),
        ]
    }

    #[test]
    fn stable_costs_do_not_drift() {
        let p = graph();
        let mut prof = OnlineProfiler::new(baseline(), OnlineProfilerConfig::default());
        for _ in 0..10 {
            // Map tasks run at 500 rec/s with busy = 0.5 -> 1e-3 s/rec.
            let rates = vec![
                stats(1000.0, 0.01, 1.0),
                stats(500.0, 0.5, 0.5),
                stats(500.0, 0.5, 0.5),
            ];
            prof.observe(&p, &rates);
        }
        assert!(prof.drifted_profiles().is_none());
        assert!((prof.effective_cpu(capsys_model::OperatorId(1)).unwrap() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn cost_increase_triggers_update() {
        let p = graph();
        let mut prof = OnlineProfiler::new(baseline(), OnlineProfilerConfig::default());
        for _ in 0..10 {
            // Records became twice as expensive: busy 1.0 at 500 rec/s.
            let rates = vec![
                stats(1000.0, 0.01, 1.0),
                stats(500.0, 1.0, 0.5),
                stats(500.0, 1.0, 0.5),
            ];
            prof.observe(&p, &rates);
        }
        let updated = prof.drifted_profiles().expect("drift detected");
        assert!((updated[1].cpu_per_record - 2e-3).abs() < 2e-4);
        // The update becomes the new baseline: no immediate re-trigger.
        assert!(prof.drifted_profiles().is_none());
    }

    #[test]
    fn selectivity_drift_triggers_update() {
        let p = graph();
        let mut prof = OnlineProfiler::new(baseline(), OnlineProfilerConfig::default());
        for _ in 0..10 {
            let rates = vec![
                stats(1000.0, 0.01, 1.0),
                stats(500.0, 0.5, 0.9),
                stats(500.0, 0.5, 0.9),
            ];
            prof.observe(&p, &rates);
        }
        let updated = prof.drifted_profiles().expect("selectivity drift");
        assert!((updated[1].selectivity - 0.9).abs() < 0.05);
    }

    #[test]
    fn least_contended_task_estimates_cost() {
        // One task heavily contended (slow), one clean: the profiler
        // should learn the clean task's cost.
        let p = graph();
        let mut prof = OnlineProfiler::new(baseline(), OnlineProfilerConfig::default());
        for _ in 0..5 {
            let rates = vec![
                stats(1000.0, 0.01, 1.0),
                stats(250.0, 1.0, 0.5), // contended: 4e-3 s/rec effective
                stats(500.0, 0.5, 0.5), // clean: 1e-3 s/rec
            ];
            prof.observe(&p, &rates);
        }
        let cpu = prof.effective_cpu(capsys_model::OperatorId(1)).unwrap();
        assert!(
            (cpu - 1e-3).abs() < 1e-9,
            "expected clean estimate, got {cpu}"
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        let ok = OnlineProfilerConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            OnlineProfilerConfig {
                alpha: 0.0,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                alpha: 1.5,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                alpha: f64::NAN,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                drift_threshold: -0.1,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                drift_threshold: f64::INFINITY,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                min_rate: 0.0,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                min_rate: -5.0,
                ..ok.clone()
            },
            OnlineProfilerConfig {
                min_rate: f64::NAN,
                ..ok.clone()
            },
        ] {
            let err = OnlineProfiler::checked(baseline(), bad.clone())
                .err()
                .unwrap_or_else(|| panic!("config {bad:?} must be rejected"));
            assert!(matches!(err, crate::ControllerError::InvalidConfig(_)));
        }
    }

    #[test]
    fn zero_min_rate_never_divides_by_zero() {
        // Even with a bypassed validation (min_rate = 0), idle tasks
        // must not poison the EMAs with NaN/inf.
        let p = graph();
        let cfg = OnlineProfilerConfig {
            min_rate: 0.0,
            ..OnlineProfilerConfig::default()
        };
        let mut prof = OnlineProfiler::new(baseline(), cfg);
        let rates = vec![
            stats(1000.0, 0.01, 1.0),
            stats(0.0, 0.0, 0.5),
            stats(0.0, 0.0, 0.5),
        ];
        prof.observe(&p, &rates);
        assert!(prof.effective_cpu(capsys_model::OperatorId(1)).is_none());
        assert!(prof.drifted_profiles().is_none());
    }

    #[test]
    fn idle_tasks_are_ignored() {
        let p = graph();
        let mut prof = OnlineProfiler::new(baseline(), OnlineProfilerConfig::default());
        let rates = vec![
            stats(1000.0, 0.01, 1.0),
            stats(0.0, 0.0, 0.5),
            stats(0.0, 0.0, 0.5),
        ];
        prof.observe(&p, &rates);
        assert!(prof.effective_cpu(capsys_model::OperatorId(1)).is_none());
        assert_eq!(prof.observations(), 1);
    }
}
