//! Physical execution graphs: tasks and data channels.

use std::ops::Range;

use crate::logical::{ConnectionPattern, LogicalGraph};
use crate::operator::OperatorId;

/// Identifier of a task within a [`PhysicalGraph`].
///
/// Task ids are dense indices: the tasks of operator 0 come first, then
/// those of operator 1, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One parallel instance of a logical operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Global task id.
    pub id: TaskId,
    /// The logical operator this task belongs to.
    pub operator: OperatorId,
    /// Index of this task among the tasks of its operator (subtask index).
    pub subtask: usize,
}

/// A physical data channel between two tasks (`l ∈ E_p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Producing task.
    pub from: TaskId,
    /// Consuming task.
    pub to: TaskId,
    /// The exchange pattern of the logical edge this channel realizes.
    pub pattern: ConnectionPattern,
}

/// The physical execution graph `G_p = (V_p, E_p)`.
///
/// Obtained by expanding a [`LogicalGraph`]: each operator with
/// parallelism `p` contributes `p` tasks, and each logical edge is
/// instantiated into physical channels according to its
/// [`ConnectionPattern`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalGraph {
    name: String,
    tasks: Vec<Task>,
    channels: Vec<Channel>,
    op_task_ranges: Vec<Range<usize>>,
    /// For each task, the indices into `channels` of its outgoing channels.
    out_channels: Vec<Vec<usize>>,
    /// For each task, the indices into `channels` of its incoming channels.
    in_channels: Vec<Vec<usize>>,
}

impl PhysicalGraph {
    /// Expands a logical graph into its physical execution graph.
    pub fn expand(logical: &LogicalGraph) -> PhysicalGraph {
        let mut tasks = Vec::with_capacity(logical.total_tasks());
        let mut op_task_ranges = Vec::with_capacity(logical.num_operators());
        for (op_idx, op) in logical.operators().iter().enumerate() {
            let start = tasks.len();
            for sub in 0..op.parallelism {
                tasks.push(Task {
                    id: TaskId(tasks.len()),
                    operator: OperatorId(op_idx),
                    subtask: sub,
                });
            }
            op_task_ranges.push(start..tasks.len());
        }

        let mut channels = Vec::new();
        for edge in logical.edges() {
            let up = op_task_ranges[edge.from.0].clone();
            let down = op_task_ranges[edge.to.0].clone();
            let up_p = up.len();
            let down_p = down.len();
            match edge.pattern {
                ConnectionPattern::Forward if up_p == down_p => {
                    for (u, d) in up.zip(down) {
                        channels.push(Channel {
                            from: TaskId(u),
                            to: TaskId(d),
                            pattern: edge.pattern,
                        });
                    }
                }
                // Forward with mismatched parallelism degenerates to
                // rebalance, matching Flink's behaviour.
                _ => {
                    for u in up.clone() {
                        for d in down.clone() {
                            channels.push(Channel {
                                from: TaskId(u),
                                to: TaskId(d),
                                pattern: edge.pattern,
                            });
                        }
                    }
                }
            }
        }

        let mut out_channels = vec![Vec::new(); tasks.len()];
        let mut in_channels = vec![Vec::new(); tasks.len()];
        for (i, ch) in channels.iter().enumerate() {
            out_channels[ch.from.0].push(i);
            in_channels[ch.to.0].push(i);
        }

        PhysicalGraph {
            name: logical.name.clone(),
            tasks,
            channels,
            op_task_ranges,
            out_channels,
            in_channels,
        }
    }

    /// Query name inherited from the logical graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tasks (`V_p`).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All channels (`E_p`).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of logical operators.
    pub fn num_operators(&self) -> usize {
        self.op_task_ranges.len()
    }

    /// The task-id range of an operator's tasks.
    pub fn operator_tasks(&self, op: OperatorId) -> Range<usize> {
        self.op_task_ranges[op.0].clone()
    }

    /// Parallelism of an operator.
    pub fn parallelism(&self, op: OperatorId) -> usize {
        self.op_task_ranges[op.0].len()
    }

    /// The operator a task belongs to.
    pub fn task_operator(&self, t: TaskId) -> OperatorId {
        self.tasks[t.0].operator
    }

    /// Outgoing channels of a task (`D(t)` in the paper).
    pub fn downstream(&self, t: TaskId) -> impl Iterator<Item = &Channel> {
        self.out_channels[t.0]
            .iter()
            .map(move |&i| &self.channels[i])
    }

    /// Number of outgoing channels of a task, `|D(t)|`.
    pub fn downstream_count(&self, t: TaskId) -> usize {
        self.out_channels[t.0].len()
    }

    /// Incoming channels of a task.
    pub fn upstream(&self, t: TaskId) -> impl Iterator<Item = &Channel> {
        self.in_channels[t.0]
            .iter()
            .map(move |&i| &self.channels[i])
    }

    /// Number of incoming channels of a task.
    pub fn upstream_count(&self, t: TaskId) -> usize {
        self.in_channels[t.0].len()
    }

    /// Indices into [`PhysicalGraph::channels`] of a task's outgoing
    /// channels, ascending.
    pub fn out_channel_indices(&self, t: TaskId) -> &[usize] {
        &self.out_channels[t.0]
    }

    /// Indices into [`PhysicalGraph::channels`] of a task's incoming
    /// channels, ascending.
    pub fn in_channel_indices(&self, t: TaskId) -> &[usize] {
        &self.in_channels[t.0]
    }

    /// Per-operator parallelism vector.
    pub fn parallelism_vector(&self) -> Vec<usize> {
        self.op_task_ranges.iter().map(|r| r.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::ConnectionPattern as CP;
    use crate::operator::{OperatorKind, ResourceProfile};

    fn graph(patterns: &[CP], pars: &[usize]) -> PhysicalGraph {
        assert_eq!(patterns.len() + 1, pars.len());
        let mut b = LogicalGraph::builder("t");
        let mut prev = b.operator(
            "op0",
            OperatorKind::Source,
            pars[0],
            ResourceProfile::zero(),
        );
        for (i, (&p, &par)) in patterns.iter().zip(&pars[1..]).enumerate() {
            let kind = if i + 2 == pars.len() {
                OperatorKind::Sink
            } else {
                OperatorKind::Stateless
            };
            let next = b.operator(format!("op{}", i + 1), kind, par, ResourceProfile::zero());
            b.edge(prev, next, p);
            prev = next;
        }
        PhysicalGraph::expand(&b.build().unwrap())
    }

    #[test]
    fn expansion_counts() {
        let g = graph(&[CP::Rebalance, CP::Hash], &[2, 3, 1]);
        assert_eq!(g.num_tasks(), 6);
        assert_eq!(g.num_operators(), 3);
        assert_eq!(g.channels().len(), 2 * 3 + 3);
        assert_eq!(g.parallelism_vector(), vec![2, 3, 1]);
    }

    #[test]
    fn forward_equal_parallelism_is_one_to_one() {
        let g = graph(&[CP::Forward], &[3, 3]);
        assert_eq!(g.channels().len(), 3);
        for ch in g.channels() {
            let from_sub = g.tasks()[ch.from.0].subtask;
            let to_sub = g.tasks()[ch.to.0].subtask;
            assert_eq!(from_sub, to_sub);
        }
    }

    #[test]
    fn forward_mismatched_parallelism_degenerates_to_full_mesh() {
        let g = graph(&[CP::Forward], &[2, 3]);
        assert_eq!(g.channels().len(), 6);
    }

    #[test]
    fn downstream_and_upstream_are_consistent() {
        let g = graph(&[CP::Rebalance, CP::Hash], &[2, 3, 2]);
        let total_out: usize = (0..g.num_tasks())
            .map(|i| g.downstream_count(TaskId(i)))
            .sum();
        let total_in: usize = (0..g.num_tasks())
            .map(|i| g.upstream_count(TaskId(i)))
            .sum();
        assert_eq!(total_out, g.channels().len());
        assert_eq!(total_in, g.channels().len());
        // Sink tasks have no downstream.
        for r in g.operator_tasks(OperatorId(2)) {
            assert_eq!(g.downstream_count(TaskId(r)), 0);
        }
        // Source tasks have no upstream.
        for r in g.operator_tasks(OperatorId(0)) {
            assert_eq!(g.upstream_count(TaskId(r)), 0);
        }
    }

    #[test]
    fn operator_task_ranges_are_dense_and_ordered() {
        let g = graph(&[CP::Hash], &[4, 2]);
        assert_eq!(g.operator_tasks(OperatorId(0)), 0..4);
        assert_eq!(g.operator_tasks(OperatorId(1)), 4..6);
        for t in g.tasks() {
            assert_eq!(g.task_operator(t.id), t.operator);
        }
        assert_eq!(g.parallelism(OperatorId(0)), 4);
    }

    #[test]
    fn subtask_indices_within_operator() {
        let g = graph(&[CP::Hash], &[3, 2]);
        let subs: Vec<usize> = g
            .operator_tasks(OperatorId(0))
            .map(|i| g.tasks()[i].subtask)
            .collect();
        assert_eq!(subs, vec![0, 1, 2]);
    }
}
