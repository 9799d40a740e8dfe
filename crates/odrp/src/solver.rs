//! The ODRP branch-and-bound solver.
//!
//! ODRP formulates replication (parallelism) and placement jointly as an
//! integer linear program and solves it exhaustively. This implementation
//! keeps the exhaustive-search character with a two-level branch and
//! bound:
//!
//! * the **outer level** enumerates per-operator parallelism vectors
//!   (bounded by the slot budget), pruned with the admissible
//!   zero-network lower bound of
//!   [`ObjectiveModel::lower_bound`](crate::objective::ObjectiveModel::lower_bound);
//! * the **inner level** searches task-to-worker assignments with the
//!   symmetric-plan enumerator of `capsys-model`, accumulating
//!   cross-worker traffic incrementally and pruning when the partial
//!   objective can no longer beat the incumbent.
//!
//! Like the original, the solver must effectively explore the joint
//! space, which is why its decision time explodes with problem size —
//! the behaviour Table 3 of the CAPSys paper reports (minutes to an
//! hour, vs. sub-second CAPS). A configurable time budget makes the
//! solver return its best incumbent when exceeded.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use capsys_model::{
    Cluster, LogicalGraph, OperatorId, PhysicalGraph, Placement, PlanEnumerator, PlanVisitor,
};

use crate::config::{OdrpConfig, INNER_NODE_BUDGET};
use crate::objective::{ObjectiveBreakdown, ObjectiveModel};
use crate::OdrpError;

/// The solver's result.
#[derive(Debug, Clone)]
pub struct OdrpSolution {
    /// Chosen parallelism per operator.
    pub parallelism: Vec<usize>,
    /// Chosen placement of the corresponding physical graph.
    pub placement: Placement,
    /// Objective breakdown of the solution.
    pub breakdown: ObjectiveBreakdown,
    /// Wall-clock time the solver spent.
    pub decision_time: Duration,
    /// Parallelism vectors examined.
    pub vectors_examined: usize,
    /// Placement-tree nodes examined.
    pub placement_nodes: usize,
    /// True if the search space was exhausted (optimality proven), false
    /// if the time budget expired first.
    pub proven_optimal: bool,
}

/// The ODRP solver.
#[derive(Debug, Clone, Default)]
pub struct OdrpSolver {
    /// Solver configuration.
    pub config: OdrpConfig,
}

impl OdrpSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: OdrpConfig) -> Self {
        OdrpSolver { config }
    }

    /// Jointly decides parallelism and placement for a single-source
    /// query on `cluster` at the given source rate.
    pub fn solve(
        &self,
        logical: &LogicalGraph,
        cluster: &Cluster,
        source_rates: &HashMap<OperatorId, f64>,
    ) -> Result<OdrpSolution, OdrpError> {
        let start = Instant::now();
        let deadline = start + self.config.time_budget;
        let model = ObjectiveModel::new(logical, cluster, source_rates, &self.config)?;

        let n_ops = logical.num_operators();
        let total_slots = cluster.total_slots();
        let max_p = self.config.max_parallelism.min(total_slots);

        // Materialize every feasible parallelism vector with its
        // admissible lower bound, then explore best-first: the first
        // vector whose bound reaches the incumbent proves optimality.
        let mut vectors: Vec<(f64, Vec<usize>)> = Vec::new();
        let mut current = vec![1usize; n_ops];
        generate_vectors(&mut vectors, &mut current, 0, total_slots, max_p, &model);
        vectors.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bounds"));

        let mut best: Option<(Vec<usize>, Placement, ObjectiveBreakdown)> = None;
        let mut vectors_examined = 0usize;
        let mut placement_nodes = 0usize;
        let mut exhausted = true;
        let adjacency = build_adjacency(logical);

        for (bound, vector) in &vectors {
            let incumbent = best
                .as_ref()
                .map(|(_, _, b)| b.objective)
                .unwrap_or(f64::INFINITY);
            if *bound >= incumbent {
                // Vectors are sorted by bound: nothing better remains.
                break;
            }
            if Instant::now() >= deadline {
                exhausted = false;
                break;
            }
            vectors_examined += 1;

            let scaled = logical.with_parallelism(vector).map_err(OdrpError::Model)?;
            let physical = PhysicalGraph::expand(&scaled);
            let enumerator = PlanEnumerator::new(&physical, cluster).map_err(OdrpError::Model)?;
            let mut visitor = PlacementBb {
                model: &model,
                physical: &physical,
                parallelism: vector,
                incumbent,
                best: None,
                partial_traffic: 0.0,
                cnt: vec![vec![0; cluster.num_workers()]; n_ops],
                placed: vec![0usize; n_ops],
                undo: Vec::new(),
                deadline,
                aborted: false,
                nodes: 0,
                node_budget: INNER_NODE_BUDGET,
                link_bytes: (0..n_ops)
                    .map(|op| {
                        let range = physical.operator_tasks(OperatorId(op));
                        range
                            .clone()
                            .next()
                            .map(|t| model.task_link_bytes(&physical, capsys_model::TaskId(t)))
                            .unwrap_or(0.0)
                    })
                    .collect(),
                adjacency: adjacency.clone(),
            };
            let stats = enumerator.explore(&mut visitor);
            placement_nodes += stats.nodes;
            if visitor.aborted {
                exhausted = false;
            }
            if let Some((counts, _)) = visitor.best {
                let plan =
                    Placement::from_op_counts(&physical, &counts).map_err(OdrpError::Model)?;
                let breakdown = model.evaluate(vector, &physical, &plan);
                if breakdown.objective < incumbent {
                    best = Some((vector.clone(), plan, breakdown));
                }
            }
        }

        let (parallelism, placement, breakdown) = best.ok_or(OdrpError::NoSolution)?;
        Ok(OdrpSolution {
            parallelism,
            placement,
            breakdown,
            decision_time: start.elapsed(),
            vectors_examined,
            placement_nodes,
            proven_optimal: exhausted,
        })
    }
}

/// Recursively generates all feasible parallelism vectors with their
/// lower bounds.
fn generate_vectors(
    out: &mut Vec<(f64, Vec<usize>)>,
    current: &mut Vec<usize>,
    depth: usize,
    total_slots: usize,
    max_p: usize,
    model: &ObjectiveModel,
) {
    let n_ops = current.len();
    if depth == n_ops {
        out.push((model.lower_bound(current), current.clone()));
        return;
    }
    let used: usize = current[..depth].iter().sum();
    let remaining_min = n_ops - depth - 1;
    for p in 1..=max_p {
        if used + p + remaining_min > total_slots {
            break;
        }
        current[depth] = p;
        generate_vectors(out, current, depth + 1, total_slots, max_p, model);
    }
    current[depth] = 1;
}

/// `adjacency[o]` lists (peer operator, true if `o` is the upstream side).
fn build_adjacency(logical: &LogicalGraph) -> Vec<Vec<(usize, bool)>> {
    let mut adj = vec![Vec::new(); logical.num_operators()];
    for e in logical.edges() {
        adj[e.from.0].push((e.to.0, true));
        adj[e.to.0].push((e.from.0, false));
    }
    adj
}

/// Inner branch-and-bound visitor minimizing the weighted objective.
///
/// Traffic accumulates monotonically as operators are placed (every newly
/// known cross-worker channel only adds bytes), so the partial objective
/// bound is admissible.
struct PlacementBb<'a> {
    model: &'a ObjectiveModel,
    physical: &'a PhysicalGraph,
    parallelism: &'a [usize],
    incumbent: f64,
    best: Option<(Vec<Vec<usize>>, f64)>,
    partial_traffic: f64,
    /// `cnt[op][worker]`.
    cnt: Vec<Vec<usize>>,
    placed: Vec<usize>,
    undo: Vec<f64>,
    deadline: Instant,
    aborted: bool,
    nodes: usize,
    node_budget: usize,
    link_bytes: Vec<f64>,
    adjacency: Vec<Vec<(usize, bool)>>,
}

impl PlanVisitor for PlacementBb<'_> {
    fn place(&mut self, worker: usize, op: OperatorId, count: usize) -> bool {
        self.nodes += 1;
        if self.aborted
            || self.nodes > self.node_budget
            || (self.nodes & 0x3FF == 0 && Instant::now() >= self.deadline)
        {
            self.aborted = true;
            return false;
        }
        let o = op.0;
        // Traffic delta: channels between the new tasks and every fully
        // placed neighbour operator (all-to-all approximation).
        let mut delta = 0.0;
        for &(peer, outgoing) in &self.adjacency[o] {
            if self.placed[peer] != self.parallelism[peer] {
                continue;
            }
            let remote_peer_tasks = self.parallelism[peer] - self.cnt[peer][worker];
            if outgoing {
                // New tasks send to the peer's remote tasks.
                delta += self.link_bytes[o] * count as f64 * remote_peer_tasks as f64;
            } else {
                // The peer's remote tasks send to the new tasks.
                delta += self.link_bytes[peer] * count as f64 * remote_peer_tasks as f64;
            }
        }
        let next_traffic = self.partial_traffic + delta;
        let bound = self
            .model
            .lower_bound_with_traffic(self.parallelism, next_traffic);
        if bound >= self.incumbent {
            return false;
        }
        self.partial_traffic = next_traffic;
        self.cnt[o][worker] += count;
        self.placed[o] += count;
        self.undo.push(delta);
        true
    }

    fn unplace(&mut self, worker: usize, op: OperatorId, count: usize) {
        let delta = self.undo.pop().expect("matching place");
        self.partial_traffic -= delta;
        self.cnt[op.0][worker] -= count;
        self.placed[op.0] -= count;
    }

    fn leaf(&mut self, counts: &[Vec<usize>]) -> bool {
        if self.aborted {
            return false;
        }
        // Exact evaluation of the complete plan.
        if let Ok(plan) = Placement::from_op_counts(self.physical, counts) {
            let breakdown = self.model.evaluate(self.parallelism, self.physical, &plan);
            let better = match &self.best {
                Some((_, obj)) => breakdown.objective < *obj,
                None => breakdown.objective < self.incumbent,
            };
            if better {
                self.incumbent = self.incumbent.min(breakdown.objective);
                self.best = Some((counts.to_vec(), breakdown.objective));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OdrpWeights;
    use capsys_model::{ConnectionPattern, OperatorKind, ResourceProfile, WorkerSpec};

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
            1,
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
        let c = Cluster::homogeneous(2, WorkerSpec::new(3, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(s, 1500.0);
        (g, c, rates)
    }

    #[test]
    fn latency_config_maximizes_parallelism() {
        let (g, c, r) = fixture();
        let solver = OdrpSolver::new(OdrpConfig {
            weights: OdrpWeights::latency(),
            max_parallelism: 4,
            ..OdrpConfig::default()
        });
        let sol = solver.solve(&g, &c, &r).unwrap();
        assert!(sol.proven_optimal);
        // With only the response objective, the bottleneck map gets the
        // highest parallelism that still fits.
        assert!(
            sol.parallelism[1] >= 3,
            "latency config chose {:?}",
            sol.parallelism
        );
        sol.placement
            .validate(
                &PhysicalGraph::expand(&g.with_parallelism(&sol.parallelism).unwrap()),
                &c,
            )
            .unwrap();
    }

    #[test]
    fn default_config_underprovisions() {
        // Equal weights: the cost term drags parallelism down even though
        // the map is saturated at p=1 or 2 (the paper's observed flaw).
        let (g, c, r) = fixture();
        let solver = OdrpSolver::new(OdrpConfig {
            weights: OdrpWeights::default_config(),
            max_parallelism: 4,
            ..OdrpConfig::default()
        });
        let sol = solver.solve(&g, &c, &r).unwrap();
        assert!(sol.proven_optimal);
        let latency_sol = OdrpSolver::new(OdrpConfig {
            weights: OdrpWeights::latency(),
            max_parallelism: 4,
            ..OdrpConfig::default()
        })
        .solve(&g, &c, &r)
        .unwrap();
        assert!(
            sol.breakdown.slots_used < latency_sol.breakdown.slots_used,
            "default {:?} vs latency {:?}",
            sol.parallelism,
            latency_sol.parallelism
        );
    }

    #[test]
    fn traffic_weight_favours_colocation() {
        let (g, c, r) = fixture();
        let solver = OdrpSolver::new(OdrpConfig {
            weights: OdrpWeights {
                response: 0.0,
                cost: 0.0,
                traffic: 1.0,
                availability: 0.0,
            },
            max_parallelism: 2,
            ..OdrpConfig::default()
        });
        let sol = solver.solve(&g, &c, &r).unwrap();
        assert!(sol.proven_optimal);
        assert!(
            sol.breakdown.traffic < 1.0,
            "pure-traffic objective should co-locate everything: {:?}",
            sol.breakdown
        );
    }

    #[test]
    fn solution_respects_slot_budget() {
        let (g, c, r) = fixture();
        let solver = OdrpSolver::new(OdrpConfig {
            max_parallelism: 16,
            weights: OdrpWeights::latency(),
            ..OdrpConfig::default()
        });
        let sol = solver.solve(&g, &c, &r).unwrap();
        assert!(sol.breakdown.slots_used <= c.total_slots());
    }

    #[test]
    fn zero_budget_reports_no_solution_or_incumbent() {
        let (g, c, r) = fixture();
        let solver = OdrpSolver::new(OdrpConfig {
            time_budget: Duration::ZERO,
            ..OdrpConfig::default()
        });
        match solver.solve(&g, &c, &r) {
            Err(OdrpError::NoSolution) => {}
            Ok(sol) => assert!(!sol.proven_optimal),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn decision_time_grows_with_problem_size() {
        let (g, _, r) = fixture();
        let small = Cluster::homogeneous(2, WorkerSpec::new(2, 4.0, 1e8, 1e9)).unwrap();
        let big = Cluster::homogeneous(4, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let solver = OdrpSolver::new(OdrpConfig {
            max_parallelism: 4,
            time_budget: Duration::from_secs(30),
            ..OdrpConfig::default()
        });
        let s1 = solver.solve(&g, &small, &r).unwrap();
        let s2 = solver.solve(&g, &big, &r).unwrap();
        assert!(
            s2.placement_nodes + s2.vectors_examined > s1.placement_nodes + s1.vectors_examined,
            "bigger instance should require more work"
        );
    }
}
