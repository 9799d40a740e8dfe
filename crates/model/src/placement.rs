//! Task placement plans (`f : V_p -> V_w`).

use crate::cluster::{Cluster, WorkerId};
use crate::error::ModelError;
use crate::physical::{PhysicalGraph, TaskId};

/// A task placement plan: a total mapping from tasks to workers.
///
/// Respects the paper's constraints: every task is assigned to exactly one
/// worker (Eq. 1), and no worker hosts more tasks than it has slots
/// (Eq. 2). Use [`Placement::validate`] to check a plan against a graph
/// and cluster.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    assignment: Vec<WorkerId>,
}

impl Placement {
    /// Creates a placement from a per-task worker assignment.
    ///
    /// `assignment[t]` is the worker hosting task `t`.
    pub fn new(assignment: Vec<WorkerId>) -> Placement {
        Placement { assignment }
    }

    /// Builds a placement from per-worker, per-operator task counts.
    ///
    /// `counts[w][o]` is the number of tasks of operator `o` placed on
    /// worker `w`. Tasks of each operator are assigned to workers in
    /// increasing worker order; since tasks of an operator are identical
    /// for placement purposes (§4.1), this choice is canonical.
    pub fn from_op_counts(
        physical: &PhysicalGraph,
        counts: &[Vec<usize>],
    ) -> Result<Placement, ModelError> {
        let n_ops = physical.num_operators();
        for row in counts {
            if row.len() != n_ops {
                return Err(ModelError::InvalidParameter(format!(
                    "count row has {} entries, expected {}",
                    row.len(),
                    n_ops
                )));
            }
        }
        let mut assignment = vec![WorkerId(usize::MAX); physical.num_tasks()];
        for op_idx in 0..n_ops {
            let total: usize = counts.iter().map(|row| row[op_idx]).sum();
            let range = physical.operator_tasks(crate::operator::OperatorId(op_idx));
            if total != range.len() {
                return Err(ModelError::IncompletePlacement {
                    mapped: total,
                    tasks: range.len(),
                });
            }
            let mut next = range.start;
            for (w, row) in counts.iter().enumerate() {
                for _ in 0..row[op_idx] {
                    assignment[next] = WorkerId(w);
                    next += 1;
                }
            }
        }
        Ok(Placement { assignment })
    }

    /// The worker hosting task `t`.
    pub fn worker_of(&self, t: TaskId) -> WorkerId {
        self.assignment[t.0]
    }

    /// The raw per-task assignment vector.
    pub fn assignment(&self) -> &[WorkerId] {
        &self.assignment
    }

    /// Number of tasks the plan maps.
    pub fn num_tasks(&self) -> usize {
        self.assignment.len()
    }

    /// Ids of tasks placed on the given worker.
    pub fn tasks_on(&self, w: WorkerId) -> Vec<TaskId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &ww)| ww == w)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Number of tasks per worker, indexed by worker id.
    pub fn worker_counts(&self, num_workers: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_workers];
        for w in &self.assignment {
            if w.0 < num_workers {
                counts[w.0] += 1;
            }
        }
        counts
    }

    /// Per-worker, per-operator task counts: `result[w][o]`.
    pub fn op_counts(&self, physical: &PhysicalGraph, num_workers: usize) -> Vec<Vec<usize>> {
        let n_ops = physical.num_operators();
        let mut counts = vec![vec![0usize; n_ops]; num_workers];
        for (t_idx, w) in self.assignment.iter().enumerate() {
            let op = physical.task_operator(TaskId(t_idx));
            counts[w.0][op.0] += 1;
        }
        counts
    }

    /// Validates the plan against Eqs. 1 and 2 of the paper.
    pub fn validate(&self, physical: &PhysicalGraph, cluster: &Cluster) -> Result<(), ModelError> {
        if self.assignment.len() != physical.num_tasks() {
            return Err(ModelError::IncompletePlacement {
                mapped: self.assignment.len(),
                tasks: physical.num_tasks(),
            });
        }
        for w in &self.assignment {
            if w.0 >= cluster.num_workers() {
                return Err(ModelError::UnknownWorker(w.0));
            }
        }
        let counts = self.worker_counts(cluster.num_workers());
        for (w, &assigned) in counts.iter().enumerate() {
            let slots = cluster.worker(WorkerId(w)).spec.slots;
            if assigned > slots {
                return Err(ModelError::SlotOverflow {
                    worker: w,
                    assigned,
                    slots,
                });
            }
        }
        Ok(())
    }

    /// The fraction of task `t`'s downstream channels that cross workers,
    /// `|D_r(f, t)| / |D(t)|` from Eq. 8. Returns 0 for sink tasks.
    pub fn cross_worker_fraction(&self, physical: &PhysicalGraph, t: TaskId) -> f64 {
        let total = physical.downstream_count(t);
        if total == 0 {
            return 0.0;
        }
        let remote = physical
            .downstream(t)
            .filter(|ch| self.worker_of(ch.to) != self.worker_of(t))
            .count();
        remote as f64 / total as f64
    }

    /// A canonical key identifying this plan up to worker permutation and
    /// permutation of same-operator tasks.
    ///
    /// Workers are homogeneous and tasks of the same operator are
    /// identical, so two plans with the same multiset of per-worker
    /// operator-count vectors are equivalent (§4.3, duplicate
    /// elimination). The key is that multiset, sorted.
    pub fn canonical_key(&self, physical: &PhysicalGraph, num_workers: usize) -> Vec<Vec<usize>> {
        let mut counts = self.op_counts(physical, num_workers);
        counts.sort();
        counts
    }

    /// Returns true if `other` is equivalent to `self` up to worker and
    /// same-operator task permutations.
    pub fn is_equivalent(
        &self,
        other: &Placement,
        physical: &PhysicalGraph,
        num_workers: usize,
    ) -> bool {
        self.canonical_key(physical, num_workers) == other.canonical_key(physical, num_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::WorkerSpec;
    use crate::logical::{ConnectionPattern, LogicalGraph};
    use crate::operator::{OperatorKind, ResourceProfile};

    fn setup() -> (PhysicalGraph, Cluster) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator("s", OperatorKind::Source, 2, ResourceProfile::zero());
        let m = b.operator("m", OperatorKind::Stateless, 4, ResourceProfile::zero());
        let k = b.operator("k", OperatorKind::Sink, 2, ResourceProfile::zero());
        b.edge(s, m, ConnectionPattern::Rebalance);
        b.edge(m, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        (p, c)
    }

    #[test]
    fn valid_plan_passes_validation() {
        let (p, c) = setup();
        // Tasks: s0 s1 m0 m1 m2 m3 k0 k1; 4 per worker.
        let plan = Placement::new(
            [0, 1, 0, 0, 1, 1, 0, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        plan.validate(&p, &c).unwrap();
        assert_eq!(plan.worker_counts(2), vec![4, 4]);
        assert_eq!(plan.tasks_on(WorkerId(0)).len(), 4);
    }

    #[test]
    fn overflow_is_rejected() {
        let (p, c) = setup();
        let plan = Placement::new(
            [0, 0, 0, 0, 0, 1, 1, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        assert!(matches!(
            plan.validate(&p, &c).unwrap_err(),
            ModelError::SlotOverflow {
                worker: 0,
                assigned: 5,
                slots: 4
            }
        ));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let (p, c) = setup();
        let plan = Placement::new(vec![WorkerId(0); 5]);
        assert!(matches!(
            plan.validate(&p, &c).unwrap_err(),
            ModelError::IncompletePlacement {
                mapped: 5,
                tasks: 8
            }
        ));
    }

    #[test]
    fn unknown_worker_is_rejected() {
        let (p, c) = setup();
        let plan = Placement::new(vec![WorkerId(7); 8]);
        assert!(matches!(
            plan.validate(&p, &c).unwrap_err(),
            ModelError::UnknownWorker(7)
        ));
    }

    #[test]
    fn from_op_counts_round_trips() {
        let (p, c) = setup();
        let counts = vec![vec![1, 2, 1], vec![1, 2, 1]];
        let plan = Placement::from_op_counts(&p, &counts).unwrap();
        plan.validate(&p, &c).unwrap();
        assert_eq!(plan.op_counts(&p, 2), counts);
    }

    #[test]
    fn from_op_counts_rejects_wrong_totals() {
        let (p, _) = setup();
        let counts = vec![vec![1, 2, 1], vec![0, 2, 1]];
        assert!(Placement::from_op_counts(&p, &counts).is_err());
        let bad_width = vec![vec![1, 2], vec![1, 2]];
        assert!(Placement::from_op_counts(&p, &bad_width).is_err());
    }

    #[test]
    fn cross_worker_fraction_counts_remote_channels() {
        let (p, _) = setup();
        // All map tasks on worker 0 except m3 on worker 1; sinks split.
        let plan = Placement::new(
            [0, 1, 0, 0, 0, 1, 0, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        // Source task s0 on w0 connects to m0..m3 (rebalance): m3 is remote.
        assert!((plan.cross_worker_fraction(&p, TaskId(0)) - 0.25).abs() < 1e-12);
        // Map task m0 on w0 connects to k0 (w0) and k1 (w1): half remote.
        assert!((plan.cross_worker_fraction(&p, TaskId(2)) - 0.5).abs() < 1e-12);
        // Sink task has no downstream.
        assert_eq!(plan.cross_worker_fraction(&p, TaskId(6)), 0.0);
    }

    #[test]
    fn canonical_key_identifies_symmetric_plans() {
        let (p, _) = setup();
        let a = Placement::new(
            [0, 1, 0, 0, 1, 1, 0, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        // Same plan with workers swapped.
        let b = Placement::new(
            [1, 0, 1, 1, 0, 0, 1, 0]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        assert!(a.is_equivalent(&b, &p, 2));
        // A genuinely different plan.
        let c = Placement::new(
            [0, 0, 1, 1, 1, 1, 0, 0]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        assert!(!a.is_equivalent(&c, &p, 2));
    }

    #[test]
    fn same_operator_task_permutation_is_equivalent() {
        let (p, _) = setup();
        // Swap which map subtasks sit where; counts are unchanged.
        let a = Placement::new(
            [0, 1, 0, 0, 1, 1, 0, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        let b = Placement::new(
            [0, 1, 1, 1, 0, 0, 0, 1]
                .iter()
                .map(|&w| WorkerId(w))
                .collect(),
        );
        assert!(a.is_equivalent(&b, &p, 2));
    }
}
