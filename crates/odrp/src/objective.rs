//! ODRP's multi-objective cost function.
//!
//! Response time follows the replication-aware queueing model of the
//! ODRP papers: an operator replica behaves as an M/M/1 server with
//! service rate `μ = 1 / execution time` and per-replica arrival rate
//! `λ / p`, so its sojourn time is `(1/μ) / (1 - ρ)` with `ρ = λ/(pμ)`.
//! The end-to-end response time is the longest source-to-sink path,
//! where crossing workers adds the configured link latency.
//!
//! Crucially — and this reproduces the flaw the CAPSys paper documents —
//! utilization is *clamped* below 1 instead of being constrained: the
//! model never forbids a plan that cannot sustain the input rate, it only
//! penalizes it through a finite response-time term.

use std::collections::HashMap;

use capsys_model::{
    Cluster, LoadModel, LogicalGraph, OperatorId, PhysicalGraph, Placement, TaskId,
};

use crate::config::{OdrpConfig, LINK_LATENCY, UTILIZATION_CAP};
use crate::OdrpError;

/// The individual objective values of a candidate solution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveBreakdown {
    /// End-to-end response time, seconds.
    pub response_time: f64,
    /// Task slots used.
    pub slots_used: usize,
    /// Cross-worker traffic, bytes/s.
    pub traffic: f64,
    /// Unavailability term in `[0, 1]`.
    pub unavailability: f64,
    /// The weighted, normalized scalar objective.
    pub objective: f64,
}

/// Objective evaluator for one query at a fixed target rate.
#[derive(Debug, Clone)]
pub struct ObjectiveModel {
    /// Operator-level input rates at the target, records/s.
    op_input: Vec<f64>,
    /// Per-replica service rate of each operator, records/s.
    service_rate: Vec<f64>,
    /// Operator-level outbound bytes/s at the target.
    op_out_bytes: Vec<f64>,
    /// Edges as `(from, to)` operator indices.
    edges: Vec<(usize, usize)>,
    topo: Vec<usize>,
    sources: Vec<usize>,
    /// Normalizers.
    response_max: f64,
    traffic_max: f64,
    total_slots: usize,
    num_workers: usize,
    config: OdrpConfig,
}

impl ObjectiveModel {
    /// Builds the evaluator.
    pub fn new(
        logical: &LogicalGraph,
        cluster: &Cluster,
        source_rates: &HashMap<OperatorId, f64>,
        config: &OdrpConfig,
    ) -> Result<ObjectiveModel, OdrpError> {
        if !config.weights.is_valid() {
            return Err(OdrpError::InvalidConfig(
                "negative or non-finite weights".into(),
            ));
        }
        // ODRP handles single-source queries only (§6.3).
        if logical.sources().len() != 1 {
            return Err(OdrpError::MultipleSources(logical.sources().len()));
        }
        let physical = PhysicalGraph::expand(logical);
        let loads =
            LoadModel::derive(logical, &physical, source_rates).map_err(OdrpError::Model)?;

        let n = logical.num_operators();
        let mut op_input = vec![0.0; n];
        let mut service_rate = vec![f64::INFINITY; n];
        let mut op_out_bytes = vec![0.0; n];
        for op in 0..n {
            let id = OperatorId(op);
            let o = logical.operator(id);
            op_input[op] = if o.kind.is_source() {
                loads.op_output_rate(id)
            } else {
                loads.op_input_rate(id)
            };
            if o.profile.cpu_per_record > 0.0 {
                service_rate[op] = 1.0 / o.profile.cpu_per_record;
            }
            op_out_bytes[op] = loads.op_output_rate(id) * o.profile.out_bytes_per_record;
        }
        let edges: Vec<(usize, usize)> =
            logical.edges().iter().map(|e| (e.from.0, e.to.0)).collect();
        let topo: Vec<usize> = logical.topological_order().iter().map(|o| o.0).collect();
        let sources: Vec<usize> = logical.sources().iter().map(|s| s.0).collect();

        let mut model = ObjectiveModel {
            op_input,
            service_rate,
            op_out_bytes,
            edges,
            topo,
            sources,
            response_max: 1.0,
            traffic_max: 1.0,
            total_slots: cluster.total_slots(),
            num_workers: cluster.num_workers(),
            config: config.clone(),
        };
        // Normalizers: the worst response time is the all-p=1 deployment
        // with every edge remote; the worst traffic sends every byte over
        // the network.
        let ones = vec![1usize; n];
        model.response_max = model.response_time(&ones, Some(LINK_LATENCY)).max(1e-9);
        model.traffic_max = model.op_out_bytes.iter().sum::<f64>().max(1e-9);
        Ok(model)
    }

    /// Per-replica M/M/1 sojourn time of operator `op` at parallelism `p`.
    ///
    /// Below the utilization cap this is the standard `1/(μ−λ/p)` sojourn
    /// time. Above the cap the penalty keeps growing — quadratically in
    /// the over-subscription ratio, continuous at the cap — but stays
    /// *finite*: the model discourages overload without ever forbidding
    /// it, which is exactly the flaw the CAPSys paper documents (§2.2:
    /// "the formulation does not specify an objective to sustain the
    /// input rate").
    fn sojourn(&self, op: usize, p: usize) -> f64 {
        let mu = self.service_rate[op];
        if !mu.is_finite() {
            return 0.0;
        }
        let cap = UTILIZATION_CAP;
        let rho = self.op_input[op] / (p as f64 * mu);
        if rho < cap {
            (1.0 / mu) / (1.0 - rho)
        } else {
            (1.0 / mu) / (1.0 - cap) * (rho / cap).powi(2)
        }
    }

    /// End-to-end response time for a parallelism vector.
    ///
    /// `uniform_delay` adds that delay to *every* edge (used for bounds
    /// and normalization); pass `None` for the zero-network lower bound.
    pub fn response_time(&self, parallelism: &[usize], uniform_delay: Option<f64>) -> f64 {
        let delay = uniform_delay.unwrap_or(0.0);
        self.response_time_with(parallelism, |_, _| delay)
    }

    /// End-to-end response time under a concrete placement: an edge
    /// contributes the link latency scaled by its remote-channel
    /// fraction.
    pub fn response_time_placed(
        &self,
        parallelism: &[usize],
        physical: &PhysicalGraph,
        placement: &Placement,
    ) -> f64 {
        let latency = LINK_LATENCY;
        self.response_time_with(parallelism, |from, to| {
            latency * edge_remote_fraction(physical, placement, from, to)
        })
    }

    fn response_time_with(
        &self,
        parallelism: &[usize],
        edge_delay: impl Fn(usize, usize) -> f64,
    ) -> f64 {
        let n = self.op_input.len();
        let mut longest = vec![0.0f64; n];
        for &op in &self.topo {
            let own = self.sojourn(op, parallelism[op].max(1));
            let mut best_in: f64 = 0.0;
            for &(from, to) in &self.edges {
                if to == op {
                    best_in = best_in.max(longest[from] + edge_delay(from, to));
                }
            }
            longest[op] = best_in + own;
        }
        longest.iter().cloned().fold(0.0, f64::max)
    }

    /// Cross-worker traffic of a placement, bytes/s.
    pub fn traffic(&self, physical: &PhysicalGraph, placement: &Placement) -> f64 {
        let mut total = 0.0;
        for t in physical.tasks() {
            let op = t.operator.0;
            let p = physical.parallelism(t.operator) as f64;
            let out = self.op_out_bytes[op] / p;
            total += out * placement.cross_worker_fraction(physical, t.id);
        }
        total
    }

    /// Unavailability term for a set of used workers.
    pub fn unavailability(&self, used_workers: usize) -> f64 {
        let a = self.config.availability;
        if a >= 1.0 {
            return 0.0;
        }
        let worst = 1.0 - a.powi(self.num_workers as i32);
        if worst <= 0.0 {
            0.0
        } else {
            (1.0 - a.powi(used_workers as i32)) / worst
        }
    }

    /// The weighted, normalized scalar objective of a full solution.
    pub fn evaluate(
        &self,
        parallelism: &[usize],
        physical: &PhysicalGraph,
        placement: &Placement,
    ) -> ObjectiveBreakdown {
        let response_time = self.response_time_placed(parallelism, physical, placement);
        let slots_used: usize = parallelism.iter().sum();
        let traffic = self.traffic(physical, placement);
        let used_workers = placement
            .worker_counts(self.num_workers)
            .iter()
            .filter(|&&c| c > 0)
            .count();
        let unavailability = self.unavailability(used_workers);
        let w = &self.config.weights;
        let objective = w.response * (response_time / self.response_max).min(1.0)
            + w.cost * slots_used as f64 / self.total_slots as f64
            + w.traffic * (traffic / self.traffic_max).min(1.0)
            + w.availability * unavailability;
        ObjectiveBreakdown {
            response_time,
            slots_used,
            traffic,
            unavailability,
            objective,
        }
    }

    /// A lower bound on the objective achievable by *any* placement of
    /// the given parallelism vector (zero network delay, zero traffic,
    /// best-case availability). Admissible for branch-and-bound.
    pub fn lower_bound(&self, parallelism: &[usize]) -> f64 {
        let w = &self.config.weights;
        let response = self.response_time(parallelism, None);
        let slots_used: usize = parallelism.iter().sum();
        w.response * (response / self.response_max).min(1.0)
            + w.cost * slots_used as f64 / self.total_slots as f64
            + w.availability * self.unavailability(1)
    }

    /// A lower bound given partial traffic already committed.
    pub fn lower_bound_with_traffic(&self, parallelism: &[usize], traffic: f64) -> f64 {
        self.lower_bound(parallelism)
            + self.config.weights.traffic * (traffic / self.traffic_max).min(1.0)
    }

    /// The normalizing maximum traffic, bytes/s.
    pub fn traffic_max(&self) -> f64 {
        self.traffic_max
    }

    /// Operator-level input rates at the target.
    pub fn op_input(&self) -> &[f64] {
        &self.op_input
    }

    /// Per-replica service rates.
    pub fn service_rate(&self) -> &[f64] {
        &self.service_rate
    }

    /// The id of the single source operator.
    pub fn source(&self) -> usize {
        self.sources[0]
    }

    /// Bytes/s emitted per task of `t`'s operator towards each downstream
    /// channel, for incremental traffic accounting.
    pub fn task_link_bytes(&self, physical: &PhysicalGraph, t: TaskId) -> f64 {
        let op = physical.task_operator(t);
        let p = physical.parallelism(op) as f64;
        let d = physical.downstream_count(t);
        if d == 0 {
            0.0
        } else {
            self.op_out_bytes[op.0] / p / d as f64
        }
    }
}

/// Fraction of channels of the logical edge `(from, to)` whose endpoints
/// sit on different workers.
fn edge_remote_fraction(
    physical: &PhysicalGraph,
    placement: &Placement,
    from: usize,
    to: usize,
) -> f64 {
    let mut total = 0usize;
    let mut remote = 0usize;
    for ch in physical.channels() {
        if physical.task_operator(ch.from).0 == from && physical.task_operator(ch.to).0 == to {
            total += 1;
            if placement.worker_of(ch.from) != placement.worker_of(ch.to) {
                remote += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        remote as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{ConnectionPattern, OperatorKind, ResourceProfile, WorkerId, WorkerSpec};

    fn fixture() -> (LogicalGraph, Cluster, HashMap<OperatorId, f64>) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "s",
            OperatorKind::Source,
            1,
            ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
        );
        let m = b.operator(
            "m",
            OperatorKind::Stateless,
            2,
            ResourceProfile::new(1e-3, 0.0, 80.0, 1.0),
        );
        let k = b.operator(
            "k",
            OperatorKind::Sink,
            1,
            ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
        );
        b.edge(s, m, ConnectionPattern::Rebalance);
        b.edge(m, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(s, 1000.0);
        (g, c, rates)
    }

    #[test]
    fn response_time_decreases_with_parallelism() {
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        let r1 = m.response_time(&[1, 1, 1], None);
        let r2 = m.response_time(&[1, 2, 1], None);
        let r4 = m.response_time(&[1, 4, 1], None);
        assert!(r1 > r2, "{r1} !> {r2}");
        assert!(r2 > r4);
    }

    #[test]
    fn overload_is_clamped_not_forbidden() {
        // λ = 1000, μ = 1000 per replica: p = 1 is at the cap but the
        // response time stays finite (ODRP's under-provisioning flaw).
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        let rt = m.response_time(&[1, 1, 1], None);
        assert!(rt.is_finite());
        assert!(rt > 0.0);
    }

    #[test]
    fn traffic_counts_only_remote_channels() {
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        let physical = PhysicalGraph::expand(&g);
        // All co-located: zero traffic.
        let local = Placement::new(vec![WorkerId(0); 4]);
        assert_eq!(m.traffic(&physical, &local), 0.0);
        // Sink remote: map's full output crosses.
        let split = Placement::new(vec![WorkerId(0), WorkerId(0), WorkerId(0), WorkerId(1)]);
        let t = m.traffic(&physical, &split);
        assert!((t - 1000.0 * 80.0).abs() < 1e-6, "traffic {t}");
    }

    #[test]
    fn placed_response_time_adds_latency_for_remote_edges() {
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        let physical = PhysicalGraph::expand(&g);
        let local = Placement::new(vec![WorkerId(0); 4]);
        let split = Placement::new(vec![WorkerId(0), WorkerId(1), WorkerId(1), WorkerId(0)]);
        let p = vec![1, 2, 1];
        let rt_local = m.response_time_placed(&p, &physical, &local);
        let rt_split = m.response_time_placed(&p, &physical, &split);
        assert!(rt_split > rt_local);
    }

    #[test]
    fn lower_bound_is_admissible() {
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        for p in [[1usize, 1, 1], [1, 2, 1], [1, 4, 2]] {
            let logical = g.with_parallelism(&p).unwrap();
            let physical = PhysicalGraph::expand(&logical);
            let tasks = physical.num_tasks();
            // Any valid placement's objective must be >= the bound.
            for code in 0..(2u32.pow(tasks as u32)) {
                let assignment: Vec<WorkerId> = (0..tasks)
                    .map(|i| WorkerId(((code >> i) & 1) as usize))
                    .collect();
                let plan = Placement::new(assignment);
                if plan.validate(&physical, &c).is_err() {
                    continue;
                }
                let b = m.evaluate(&p, &physical, &plan);
                assert!(
                    b.objective >= m.lower_bound(&p) - 1e-9,
                    "bound {} > objective {}",
                    m.lower_bound(&p),
                    b.objective
                );
            }
        }
    }

    #[test]
    fn multiple_sources_are_rejected() {
        let mut b = LogicalGraph::builder("two");
        let s1 = b.operator("s1", OperatorKind::Source, 1, ResourceProfile::zero());
        let s2 = b.operator("s2", OperatorKind::Source, 1, ResourceProfile::zero());
        let k = b.operator("k", OperatorKind::Sink, 1, ResourceProfile::zero());
        b.edge(s1, k, ConnectionPattern::Hash);
        b.edge(s2, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(s1, 1.0);
        rates.insert(s2, 1.0);
        let err = ObjectiveModel::new(&g, &c, &rates, &OdrpConfig::default()).unwrap_err();
        assert!(matches!(err, OdrpError::MultipleSources(2)));
    }

    #[test]
    fn perfect_availability_contributes_zero() {
        let (g, c, r) = fixture();
        let m = ObjectiveModel::new(&g, &c, &r, &OdrpConfig::default()).unwrap();
        assert_eq!(m.unavailability(1), 0.0);
        assert_eq!(m.unavailability(2), 0.0);
        // Imperfect availability grows with the number of used workers.
        let cfg = OdrpConfig {
            availability: 0.99,
            ..OdrpConfig::default()
        };
        let m = ObjectiveModel::new(&g, &c, &r, &cfg).unwrap();
        assert!(m.unavailability(2) > m.unavailability(1));
        assert!(m.unavailability(2) <= 1.0);
    }
}
