//! Simulation metrics: time series, per-source, per-task, per-worker.

use std::collections::HashMap;

use capsys_model::OperatorId;
use capsys_util::json::{Json, ToJson};

/// One metrics sample aggregated over a reporting interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// End time of the interval, seconds since simulation start.
    pub time: f64,
    /// Aggregate admitted source throughput, records/s.
    pub source_throughput: f64,
    /// Aggregate target input rate over the interval, records/s.
    pub target_rate: f64,
    /// Source backpressure: fraction of target records that could not be
    /// admitted, in `[0, 1]`.
    pub backpressure: f64,
    /// End-to-end latency estimate (queueing via Little's law), seconds.
    pub latency: f64,
    /// Per-worker CPU utilization in `[0, 1]`.
    pub worker_cpu_util: Vec<f64>,
    /// Per-worker disk utilization in `[0, 1]`.
    pub worker_io_util: Vec<f64>,
    /// Per-worker outbound network utilization in `[0, 1]`.
    pub worker_net_util: Vec<f64>,
}

impl ToJson for MetricPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("time".into(), Json::Num(self.time)),
            (
                "source_throughput".into(),
                Json::Num(self.source_throughput),
            ),
            ("target_rate".into(), Json::Num(self.target_rate)),
            ("backpressure".into(), Json::Num(self.backpressure)),
            ("latency".into(), Json::Num(self.latency)),
            ("worker_cpu_util".into(), self.worker_cpu_util.to_json()),
            ("worker_io_util".into(), self.worker_io_util.to_json()),
            ("worker_net_util".into(), self.worker_net_util.to_json()),
        ])
    }
}

/// Throughput statistics of one source operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SourceStats {
    /// Average admitted rate, records/s.
    pub throughput: f64,
    /// Average target rate, records/s.
    pub target: f64,
    /// Average backpressure fraction.
    pub backpressure: f64,
}

/// Rate statistics of one task, in the shape the DS2 controller consumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskRateStats {
    /// Observed processing rate (input records/s; generated records/s for
    /// sources).
    pub observed_rate: f64,
    /// True processing rate: the rate this task could sustain given its
    /// current contention environment (records/s).
    pub true_rate: f64,
    /// Observed output rate (records/s).
    pub observed_output_rate: f64,
    /// True output rate (records/s).
    pub true_output_rate: f64,
    /// Fraction of time the task was busy.
    pub busy_fraction: f64,
}

impl TaskRateStats {
    /// Whether every field is a finite, non-negative number (with
    /// `busy_fraction` additionally `<= 1`). A sample failing this is
    /// poisoned — NaN/±Inf propagates through DS2's rate algebra and a
    /// negative rate inverts scaling decisions.
    pub fn is_sane(&self) -> bool {
        let rate_ok = |v: f64| v.is_finite() && v >= 0.0;
        rate_ok(self.observed_rate)
            && rate_ok(self.true_rate)
            && rate_ok(self.observed_output_rate)
            && rate_ok(self.true_output_rate)
            && rate_ok(self.busy_fraction)
            && self.busy_fraction <= 1.0
    }

    /// Clamps any NaN, ±Inf, or negative field to zero (and
    /// `busy_fraction` into `[0, 1]`), returning whether anything was
    /// clamped. A zeroed sample reads as "task idle", which at worst
    /// delays a scaling decision one window; a poisoned sample can
    /// corrupt it permanently.
    pub fn sanitize(&mut self) -> bool {
        if self.is_sane() {
            return false;
        }
        let clamp = |v: &mut f64| {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        };
        clamp(&mut self.observed_rate);
        clamp(&mut self.true_rate);
        clamp(&mut self.observed_output_rate);
        clamp(&mut self.true_output_rate);
        clamp(&mut self.busy_fraction);
        self.busy_fraction = self.busy_fraction.min(1.0);
        true
    }
}

/// Sanitizes a collector batch in place, returning how many samples
/// had at least one field clamped. Call this on every metrics window
/// before the rates reach DS2 or the online profiler.
pub fn sanitize_rates(rates: &mut [TaskRateStats]) -> usize {
    rates.iter_mut().map(|r| usize::from(r.sanitize())).sum()
}

/// The aggregated result of a simulation window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Per-interval samples, including the warm-up period.
    pub points: Vec<MetricPoint>,
    /// Average admitted source throughput after warm-up, records/s.
    pub avg_throughput: f64,
    /// Average target rate after warm-up, records/s.
    pub avg_target: f64,
    /// Average source backpressure after warm-up, in `[0, 1]`.
    pub avg_backpressure: f64,
    /// Average latency estimate after warm-up, seconds.
    pub avg_latency: f64,
    /// Average per-worker CPU utilization after warm-up.
    pub worker_cpu_util: Vec<f64>,
    /// Average per-worker disk utilization after warm-up.
    pub worker_io_util: Vec<f64>,
    /// Average per-worker network utilization after warm-up.
    pub worker_net_util: Vec<f64>,
    /// Per-source-operator statistics after warm-up.
    pub per_source: HashMap<OperatorId, SourceStats>,
    /// Per-task rate statistics after warm-up, indexed by task id.
    pub task_rates: Vec<TaskRateStats>,
    /// Per-worker liveness at the end of the window — the heartbeat a
    /// failure detector consumes (`true` = heartbeat present).
    pub worker_alive: Vec<bool>,
    /// Per-worker out-of-band activity evidence (`true` = the worker is
    /// still doing work somewhere — e.g. its fenced state-store writes
    /// keep arriving — even if its heartbeat is missing). A partitioned
    /// worker shows activity without a heartbeat; a crashed worker shows
    /// neither. Lets a detector avoid double-placing tasks that are
    /// still running behind a partition.
    pub worker_activity: Vec<bool>,
    /// Whether metrics (and heartbeats) were observable at the end of
    /// the window; `false` during an injected metric blackout. A
    /// detector must treat a blackout window as *unobserved*, not as
    /// every worker missing its heartbeat.
    pub metrics_ok: bool,
}

impl SimulationReport {
    /// Aggregate statistics for a query identified by its source
    /// operators: `(throughput, target, backpressure)` summed/averaged
    /// over the given sources.
    pub fn query_stats(&self, sources: &[OperatorId]) -> SourceStats {
        let mut throughput = 0.0;
        let mut target = 0.0;
        let mut bp_weighted = 0.0;
        for s in sources {
            if let Some(st) = self.per_source.get(s) {
                throughput += st.throughput;
                target += st.target;
                bp_weighted += st.backpressure * st.target;
            }
        }
        SourceStats {
            throughput,
            target,
            backpressure: if target > 0.0 {
                bp_weighted / target
            } else {
                0.0
            },
        }
    }

    /// True whether the run met `fraction` of its target rate on average.
    pub fn meets_target(&self, fraction: f64) -> bool {
        self.avg_target <= 0.0 || self.avg_throughput >= fraction * self.avg_target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimulationReport {
        let mut per_source = HashMap::new();
        per_source.insert(
            OperatorId(0),
            SourceStats {
                throughput: 900.0,
                target: 1000.0,
                backpressure: 0.1,
            },
        );
        per_source.insert(
            OperatorId(3),
            SourceStats {
                throughput: 500.0,
                target: 500.0,
                backpressure: 0.0,
            },
        );
        SimulationReport {
            points: vec![],
            avg_throughput: 1400.0,
            avg_target: 1500.0,
            avg_backpressure: 0.0667,
            avg_latency: 0.2,
            worker_cpu_util: vec![0.5],
            worker_io_util: vec![0.1],
            worker_net_util: vec![0.2],
            per_source,
            task_rates: vec![],
            worker_alive: vec![true],
            worker_activity: vec![true],
            metrics_ok: true,
        }
    }

    #[test]
    fn query_stats_aggregates_sources() {
        let r = report();
        let q = r.query_stats(&[OperatorId(0), OperatorId(3)]);
        assert!((q.throughput - 1400.0).abs() < 1e-9);
        assert!((q.target - 1500.0).abs() < 1e-9);
        // Weighted backpressure: (0.1*1000 + 0*500)/1500.
        assert!((q.backpressure - 100.0 / 1500.0).abs() < 1e-9);
    }

    #[test]
    fn query_stats_ignores_unknown_sources() {
        let r = report();
        let q = r.query_stats(&[OperatorId(9)]);
        assert_eq!(q.throughput, 0.0);
        assert_eq!(q.backpressure, 0.0);
    }

    #[test]
    fn meets_target_checks_fraction() {
        let r = report();
        assert!(r.meets_target(0.9));
        assert!(!r.meets_target(0.95));
    }

    #[test]
    fn sanitize_clamps_poisoned_samples() {
        let clean = TaskRateStats {
            observed_rate: 10.0,
            true_rate: 12.0,
            observed_output_rate: 9.0,
            true_output_rate: 11.0,
            busy_fraction: 0.8,
        };
        assert!(clean.is_sane());
        let mut c = clean;
        assert!(!c.sanitize());
        assert_eq!(c, clean, "sane samples pass through untouched");

        let mut nan = clean;
        nan.observed_rate = f64::NAN;
        assert!(!nan.is_sane());
        assert!(nan.sanitize());
        assert_eq!(nan.observed_rate, 0.0);
        assert_eq!(nan.true_rate, 12.0, "other fields untouched");

        let mut inf = clean;
        inf.true_output_rate = f64::INFINITY;
        inf.observed_output_rate = f64::NEG_INFINITY;
        assert!(inf.sanitize());
        assert_eq!(inf.true_output_rate, 0.0);
        assert_eq!(inf.observed_output_rate, 0.0);

        let mut neg = clean;
        neg.true_rate = -5.0;
        neg.busy_fraction = 1.7;
        assert!(neg.sanitize());
        assert_eq!(neg.true_rate, 0.0);
        assert_eq!(neg.busy_fraction, 1.0, "busy fraction clamps to [0,1]");

        let mut batch = vec![clean, nan, clean];
        batch[1].observed_rate = f64::NAN;
        assert_eq!(sanitize_rates(&mut batch), 1);
        assert!(batch.iter().all(|r| r.is_sane()));
        assert_eq!(sanitize_rates(&mut batch), 0, "idempotent");
    }
}
