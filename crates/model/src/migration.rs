//! Per-task state sizes and placement diffs (the migration model).
//!
//! Incremental reconfiguration migrates *tasks*, not plans: only the
//! tasks whose worker changes between the incumbent and the target
//! placement pay a state-transfer cost. This module supplies the two
//! pieces the rest of the stack needs to reason about that cost
//! deterministically:
//!
//! * [`StateModel`] — bytes of operator state held by each physical
//!   task, derived from the operator's [`ResourceProfile`] (its
//!   `state_bytes_per_record`), a retained-records working-set size,
//!   and optionally a key-skew profile ([`SkewSpec`]) describing how
//!   unevenly keys are spread over the operator's subtasks. Stateless
//!   operators hold zero bytes. The derivation is a pure function of
//!   its inputs — two controllers deriving from the same graph get
//!   bit-identical sizes, which is what makes replayed migrations
//!   byte-exact.
//! * [`PlanDiff`] — the exact set of [`TaskMove`]s between two
//!   placements of the same physical graph, with helpers to chunk the
//!   moves into migration waves, apply them, and reverse them (the
//!   rollback of a partially applied migration).
//!
//! [`ResourceProfile`]: crate::ResourceProfile

use crate::cluster::WorkerId;
use crate::error::ModelError;
use crate::logical::LogicalGraph;
use crate::physical::{PhysicalGraph, TaskId};
use crate::placement::Placement;
use crate::skew::SkewSpec;

/// Bytes of operator state held by each physical task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateModel {
    bytes: Vec<u64>,
}

impl StateModel {
    /// Derives per-task state sizes with keys spread uniformly over
    /// each operator's subtasks.
    ///
    /// `retained_records` is the number of records whose state an
    /// operator retains at steady state (its working set — window
    /// contents, join build side, session buffers). Each stateful
    /// operator holds `state_bytes_per_record * retained_records`
    /// bytes in total, split over its subtasks; stateless operators,
    /// sources, and sinks hold nothing.
    pub fn derive(
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        retained_records: f64,
    ) -> Result<StateModel, ModelError> {
        StateModel::derive_skewed(logical, physical, &[], retained_records)
    }

    /// Derives per-task state sizes under a key-skew profile.
    ///
    /// For operators named in `specs`, subtask `i` holds the share
    /// `weights[i] / sum(weights)` of the operator's keys (and hence of
    /// its state); operators without a spec split uniformly. Shares use
    /// the weights in subtask order — no sorting — so the mapping from
    /// subtask to state size is stable under re-derivation.
    pub fn derive_skewed(
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        specs: &[SkewSpec],
        retained_records: f64,
    ) -> Result<StateModel, ModelError> {
        if !retained_records.is_finite() || retained_records < 0.0 {
            return Err(ModelError::InvalidParameter(format!(
                "retained_records must be finite and non-negative, got {retained_records}"
            )));
        }
        let mut shares: Vec<Option<Vec<f64>>> = vec![None; logical.num_operators()];
        for spec in specs {
            let op = logical
                .operators()
                .get(spec.op.0)
                .ok_or(ModelError::UnknownOperator(spec.op.0))?;
            if spec.weights.len() != op.parallelism {
                return Err(ModelError::InvalidParameter(format!(
                    "skew spec for `{}` has {} weights, parallelism is {}",
                    op.name,
                    spec.weights.len(),
                    op.parallelism
                )));
            }
            if spec.weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
                return Err(ModelError::InvalidParameter(format!(
                    "skew weights for `{}` must be positive",
                    op.name
                )));
            }
            let total: f64 = spec.weights.iter().sum();
            shares[spec.op.0] = Some(spec.weights.iter().map(|w| w / total).collect());
        }

        let mut bytes = vec![0u64; physical.num_tasks()];
        for task in physical.tasks() {
            let op = logical.operator(task.operator);
            if !op.kind.is_stateful() {
                continue;
            }
            let share = match &shares[task.operator.0] {
                Some(s) => s[task.subtask],
                None => 1.0 / op.parallelism as f64,
            };
            let b = op.profile.state_bytes_per_record * retained_records * share;
            // Finite by construction (finite profile × finite retained ×
            // share in (0,1]); round to whole bytes for exact compares.
            bytes[task.id.0] = b.round().max(0.0) as u64;
        }
        Ok(StateModel { bytes })
    }

    /// State bytes held by task `t`.
    pub fn state_bytes(&self, t: TaskId) -> u64 {
        self.bytes[t.0]
    }

    /// Number of tasks the model covers.
    pub fn num_tasks(&self) -> usize {
        self.bytes.len()
    }
}

/// One task's relocation between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMove {
    /// The migrating task.
    pub task: TaskId,
    /// The worker it leaves.
    pub from: WorkerId,
    /// The worker it lands on.
    pub to: WorkerId,
    /// State bytes that must travel with it.
    pub bytes: u64,
}

/// The exact task moves between two placements of the same graph.
///
/// Moves are ordered by task id, so a diff between two given plans is
/// a deterministic value — the migration schedule derived from it can
/// be re-derived byte-identically during crash recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanDiff {
    moves: Vec<TaskMove>,
}

impl PlanDiff {
    /// Computes the moves turning placement `from` into placement `to`.
    ///
    /// Both placements and the state model must cover the same task
    /// set; a task-count mismatch (the plans belong to different
    /// parallelisms) is an error — whole-plan redeploys, not diffs,
    /// handle rescales.
    pub fn between(
        from: &Placement,
        to: &Placement,
        state: &StateModel,
    ) -> Result<PlanDiff, ModelError> {
        if from.num_tasks() != to.num_tasks() {
            return Err(ModelError::IncompletePlacement {
                mapped: to.num_tasks(),
                tasks: from.num_tasks(),
            });
        }
        if state.num_tasks() != from.num_tasks() {
            return Err(ModelError::IncompletePlacement {
                mapped: state.num_tasks(),
                tasks: from.num_tasks(),
            });
        }
        let moves = (0..from.num_tasks())
            .map(TaskId)
            .filter(|&t| from.worker_of(t) != to.worker_of(t))
            .map(|t| TaskMove {
                task: t,
                from: from.worker_of(t),
                to: to.worker_of(t),
                bytes: state.state_bytes(t),
            })
            .collect();
        Ok(PlanDiff { moves })
    }

    /// The moves, ordered by task id.
    pub fn moves(&self) -> &[TaskMove] {
        &self.moves
    }

    /// Total state bytes the diff transfers.
    pub fn bytes_moved(&self) -> u64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// Whether the two placements were identical.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Splits the moves into migration waves of at most `wave_size`
    /// tasks each, in task-id order. `wave_size` of zero is treated
    /// as one.
    pub fn waves(&self, wave_size: usize) -> Vec<&[TaskMove]> {
        self.moves.chunks(wave_size.max(1)).collect()
    }

    /// Applies the moves to a placement, returning the result. Tasks
    /// not named by any move keep their worker untouched.
    pub fn apply(&self, from: &Placement) -> Placement {
        let mut assignment = from.assignment().to_vec();
        for m in &self.moves {
            if m.task.0 < assignment.len() {
                assignment[m.task.0] = m.to;
            }
        }
        Placement::new(assignment)
    }

    /// The inverse diff: every move reversed (same tasks, same bytes,
    /// endpoints swapped). Applying the reversal after the diff
    /// restores the original placement — the rollback of a fully or
    /// partially applied migration, touching only tasks that moved.
    pub fn reversed(&self) -> PlanDiff {
        PlanDiff {
            moves: self
                .moves
                .iter()
                .map(|m| TaskMove {
                    task: m.task,
                    from: m.to,
                    to: m.from,
                    bytes: m.bytes,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, WorkerSpec};
    use crate::logical::ConnectionPattern;
    use crate::operator::{OperatorId, OperatorKind, ResourceProfile};
    use capsys_util::forall;
    use capsys_util::prop::{ints, vec_of, Config};

    fn graph() -> (LogicalGraph, PhysicalGraph) {
        let mut b = LogicalGraph::builder("mig");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
        );
        let w = b.operator(
            "window",
            OperatorKind::Window,
            4,
            ResourceProfile::new(1e-3, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
        );
        b.edge(s, w, ConnectionPattern::Hash);
        b.edge(w, k, ConnectionPattern::Rebalance);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        (g, p)
    }

    #[test]
    fn uniform_state_splits_evenly_over_stateful_tasks() {
        let (g, p) = graph();
        let sm = StateModel::derive(&g, &p, 1_000_000.0).unwrap();
        // Only the window (op 1, 4 subtasks) is stateful: 500 B/record
        // * 1e6 records / 4 subtasks = 125 MB each.
        for t in p.operator_tasks(OperatorId(1)) {
            assert_eq!(sm.state_bytes(TaskId(t)), 125_000_000);
        }
        for t in p
            .operator_tasks(OperatorId(0))
            .chain(p.operator_tasks(OperatorId(2)))
        {
            assert_eq!(sm.state_bytes(TaskId(t)), 0);
        }
        assert_eq!(sm.bytes.iter().sum::<u64>(), 500_000_000);
        assert_eq!(sm.num_tasks(), p.num_tasks());
    }

    #[test]
    fn skewed_state_follows_weights() {
        let (g, p) = graph();
        let spec = SkewSpec::new(OperatorId(1), vec![4.0, 2.0, 1.0, 1.0]);
        let sm = StateModel::derive_skewed(&g, &p, &[spec], 800_000.0).unwrap();
        let base = p.operator_tasks(OperatorId(1)).start;
        // 500 B/record * 8e5 records = 400 MB total, split 4:2:1:1.
        assert_eq!(sm.state_bytes(TaskId(base)), 200_000_000);
        assert_eq!(sm.state_bytes(TaskId(base + 1)), 100_000_000);
        assert_eq!(sm.state_bytes(TaskId(base + 2)), 50_000_000);
        assert_eq!(sm.state_bytes(TaskId(base + 3)), 50_000_000);
        // Re-derivation is bit-identical (replay safety).
        let spec2 = SkewSpec::new(OperatorId(1), vec![4.0, 2.0, 1.0, 1.0]);
        assert_eq!(
            sm,
            StateModel::derive_skewed(&g, &p, &[spec2], 800_000.0).unwrap()
        );
    }

    #[test]
    fn invalid_state_inputs_are_rejected() {
        let (g, p) = graph();
        assert!(StateModel::derive(&g, &p, f64::NAN).is_err());
        assert!(StateModel::derive(&g, &p, -1.0).is_err());
        let bad_len = SkewSpec::new(OperatorId(1), vec![1.0; 3]);
        assert!(StateModel::derive_skewed(&g, &p, &[bad_len], 1.0).is_err());
        let bad_w = SkewSpec::new(OperatorId(1), vec![1.0, 0.0, 1.0, 1.0]);
        assert!(StateModel::derive_skewed(&g, &p, &[bad_w], 1.0).is_err());
        let bad_op = SkewSpec::new(OperatorId(9), vec![1.0]);
        assert!(StateModel::derive_skewed(&g, &p, &[bad_op], 1.0).is_err());
    }

    #[test]
    fn diff_finds_exact_moves() {
        let (g, p) = graph();
        let sm = StateModel::derive(&g, &p, 1_000_000.0).unwrap();
        let a = Placement::new(vec![WorkerId(0); p.num_tasks()]);
        let mut v = vec![WorkerId(0); p.num_tasks()];
        v[2] = WorkerId(1); // window subtask 0
        v[5] = WorkerId(2); // window subtask 3
        let b = Placement::new(v);
        let d = PlanDiff::between(&a, &b, &sm).unwrap();
        assert_eq!(d.moves().len(), 2);
        assert_eq!(d.moves()[0].task, TaskId(2));
        assert_eq!(d.moves()[0].to, WorkerId(1));
        assert_eq!(d.moves()[1].task, TaskId(5));
        assert_eq!(d.bytes_moved(), 250_000_000);
        assert!(!d.is_empty());
        assert_eq!(d.apply(&a), b);
        // Identity diff.
        let id = PlanDiff::between(&a, &a, &sm).unwrap();
        assert!(id.is_empty() && id.bytes_moved() == 0);
        assert_eq!(id.apply(&a), a);
    }

    #[test]
    fn diff_rejects_mismatched_task_counts() {
        let (g, p) = graph();
        let sm = StateModel::derive(&g, &p, 1.0).unwrap();
        let a = Placement::new(vec![WorkerId(0); p.num_tasks()]);
        let short = Placement::new(vec![WorkerId(0); p.num_tasks() - 1]);
        assert!(PlanDiff::between(&a, &short, &sm).is_err());
        assert!(PlanDiff::between(&short, &a, &sm).is_err());
    }

    #[test]
    fn waves_chunk_in_task_order() {
        let (g, p) = graph();
        let sm = StateModel::derive(&g, &p, 1000.0).unwrap();
        let a = Placement::new(vec![WorkerId(0); p.num_tasks()]);
        let b = Placement::new(vec![WorkerId(1); p.num_tasks()]);
        let d = PlanDiff::between(&a, &b, &sm).unwrap();
        assert_eq!(d.moves().len(), p.num_tasks());
        let waves = d.waves(3);
        assert_eq!(waves.len(), p.num_tasks().div_ceil(3));
        let flat: Vec<TaskMove> = waves.iter().flat_map(|w| w.iter().copied()).collect();
        assert_eq!(flat, d.moves());
        // wave_size 0 degrades to 1.
        assert_eq!(d.waves(0).len(), p.num_tasks());
    }

    #[test]
    fn partial_application_reverses_exactly() {
        // The governor-rollback invariant: applying k waves and then the
        // reversal of those k waves restores the incumbent, and tasks
        // outside the applied prefix are never mentioned, let alone
        // touched.
        let (g, p) = graph();
        let sm = StateModel::derive(&g, &p, 123_456.0).unwrap();
        let cluster = Cluster::homogeneous(3, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let n = p.num_tasks();
        let workers = cluster.num_workers();
        forall!(
            Config::default().cases(64),
            (
                xs in vec_of(ints(0usize..workers), n..=n),
                ys in vec_of(ints(0usize..workers), n..=n),
                k in ints(0usize..=n),
                ws in ints(1usize..=3)
            ) => {
                let a = Placement::new(xs.iter().map(|&w| WorkerId(w)).collect());
                let b = Placement::new(ys.iter().map(|&w| WorkerId(w)).collect());
                let d = PlanDiff::between(&a, &b, &sm).unwrap();
                let ws = *ws;
                // The first k waves: what a controller had applied when
                // it was interrupted.
                let prefix = PlanDiff {
                    moves: d.waves(ws).into_iter().take(*k).flatten().copied().collect(),
                };
                let partial = prefix.apply(&a);
                // Reversal restores the incumbent exactly.
                assert_eq!(prefix.reversed().apply(&partial), a);
                // The reverse diff computed fresh equals the reversal of
                // what was applied: same task set, endpoints swapped.
                let back = PlanDiff::between(&partial, &a, &sm).unwrap();
                assert_eq!(back, prefix.reversed());
                // Tasks outside the applied prefix are untouched.
                let moved: Vec<usize> = prefix.moves().iter().map(|m| m.task.0).collect();
                for t in 0..n {
                    if !moved.contains(&t) {
                        assert_eq!(partial.worker_of(TaskId(t)), a.worker_of(TaskId(t)));
                    }
                }
            }
        );
    }
}
