//! Per-task resource loads `U_cpu(t)`, `U_io(t)`, `U_net(t)`.
//!
//! Loads are derived by propagating source target rates through the
//! dataflow (using each operator's selectivity) and multiplying the
//! resulting per-task rates by the operator's per-record unit costs, as
//! CAPSys does on reconfiguration (§5.1: "we calculate the cost of each
//! task by multiplying its target rate and its corresponding unit cost").

use std::collections::HashMap;

use crate::error::ModelError;
use crate::logical::{ConnectionPattern, LogicalGraph};
use crate::operator::OperatorId;
use crate::physical::{PhysicalGraph, TaskId};

/// Resource load vector of one task.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskLoad {
    /// CPU demand in cores (`U_cpu(t)`).
    pub cpu: f64,
    /// State-backend access rate in bytes/s (`U_io(t)`).
    pub io: f64,
    /// Output data rate in bytes/s (`U_net(t)`).
    pub net: f64,
}

impl TaskLoad {
    /// Component-wise sum.
    pub fn add(&self, other: &TaskLoad) -> TaskLoad {
        TaskLoad {
            cpu: self.cpu + other.cpu,
            io: self.io + other.io,
            net: self.net + other.net,
        }
    }
}

/// Per-task loads and stream rates for a physical graph at target rates.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadModel {
    loads: Vec<TaskLoad>,
    task_input_rate: Vec<f64>,
    task_output_rate: Vec<f64>,
    op_input_rate: Vec<f64>,
    op_output_rate: Vec<f64>,
}

impl LoadModel {
    /// Derives task loads for `physical` at the given per-source rates.
    ///
    /// `source_rates` maps each source operator to its aggregate target
    /// input rate in records/s. Every source in the graph must appear.
    pub fn derive(
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        source_rates: &HashMap<OperatorId, f64>,
    ) -> Result<LoadModel, ModelError> {
        for src in logical.sources() {
            if !source_rates.contains_key(&src) {
                return Err(ModelError::InvalidParameter(format!(
                    "missing source rate for operator `{}`",
                    logical.operator(src).name
                )));
            }
        }

        let n_ops = logical.num_operators();
        let mut op_in = vec![0.0f64; n_ops];
        let mut op_out = vec![0.0f64; n_ops];

        for &op_id in logical.topological_order() {
            let op = logical.operator(op_id);
            if op.kind.is_source() {
                op_out[op_id.0] = source_rates[&op_id];
                op_in[op_id.0] = 0.0;
                continue;
            }
            let p = op.parallelism as f64;
            let mut input = 0.0;
            for e in logical.in_edges(op_id) {
                let upstream_out = op_out[e.from.0];
                input += match e.pattern {
                    // Broadcast replicates the full upstream stream to
                    // every downstream task.
                    ConnectionPattern::Broadcast => upstream_out * p,
                    _ => upstream_out,
                };
            }
            op_in[op_id.0] = input;
            op_out[op_id.0] = input * op.profile.selectivity;
        }

        let n_tasks = physical.num_tasks();
        let mut loads = vec![TaskLoad::default(); n_tasks];
        let mut t_in = vec![0.0f64; n_tasks];
        let mut t_out = vec![0.0f64; n_tasks];
        for t in physical.tasks() {
            let op = logical.operator(t.operator);
            let p = op.parallelism as f64;
            let (tin, tout) = if op.kind.is_source() {
                (0.0, op_out[t.operator.0] / p)
            } else {
                (op_in[t.operator.0] / p, op_out[t.operator.0] / p)
            };
            t_in[t.id.0] = tin;
            t_out[t.id.0] = tout;
            // Sources spend CPU generating records, charged per output
            // record; all other operators are charged per input record.
            let work_rate = if op.kind.is_source() { tout } else { tin };
            loads[t.id.0] = TaskLoad {
                cpu: work_rate * op.profile.cpu_per_record,
                io: work_rate * op.profile.state_bytes_per_record,
                net: tout * op.profile.out_bytes_per_record,
            };
        }

        Ok(LoadModel {
            loads,
            task_input_rate: t_in,
            task_output_rate: t_out,
            op_input_rate: op_in,
            op_output_rate: op_out,
        })
    }

    /// Load vector of a task.
    pub fn load(&self, t: TaskId) -> TaskLoad {
        self.loads[t.0]
    }

    /// All task loads, indexed by task id.
    pub fn loads(&self) -> &[TaskLoad] {
        &self.loads
    }

    /// Input record rate of a task.
    pub fn task_input_rate(&self, t: TaskId) -> f64 {
        self.task_input_rate[t.0]
    }

    /// Output record rate of a task.
    pub fn task_output_rate(&self, t: TaskId) -> f64 {
        self.task_output_rate[t.0]
    }

    /// Aggregate input record rate of an operator.
    pub fn op_input_rate(&self, op: OperatorId) -> f64 {
        self.op_input_rate[op.0]
    }

    /// Aggregate output record rate of an operator.
    pub fn op_output_rate(&self, op: OperatorId) -> f64 {
        self.op_output_rate[op.0]
    }

    /// Total load across all tasks, per dimension.
    pub fn total(&self) -> TaskLoad {
        self.loads
            .iter()
            .fold(TaskLoad::default(), |acc, l| acc.add(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::ConnectionPattern as CP;
    use crate::operator::{OperatorKind, ResourceProfile};

    fn simple() -> (LogicalGraph, PhysicalGraph) {
        let mut b = LogicalGraph::builder("q");
        let src = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.001, 0.0, 100.0, 1.0),
        );
        let map = b.operator(
            "map",
            OperatorKind::Stateless,
            4,
            ResourceProfile::new(0.002, 0.0, 50.0, 0.5),
        );
        let win = b.operator(
            "win",
            OperatorKind::Window,
            2,
            ResourceProfile::new(0.004, 1000.0, 20.0, 0.1),
        );
        b.edge(src, map, CP::Rebalance);
        b.edge(map, win, CP::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        (g, p)
    }

    fn rates(g: &LogicalGraph, r: f64) -> HashMap<OperatorId, f64> {
        g.sources().into_iter().map(|s| (s, r)).collect()
    }

    #[test]
    fn propagates_rates_through_selectivity() {
        let (g, p) = simple();
        let lm = LoadModel::derive(&g, &p, &rates(&g, 1000.0)).unwrap();
        assert_eq!(lm.op_output_rate(OperatorId(0)), 1000.0);
        assert_eq!(lm.op_input_rate(OperatorId(1)), 1000.0);
        assert_eq!(lm.op_output_rate(OperatorId(1)), 500.0);
        assert_eq!(lm.op_input_rate(OperatorId(2)), 500.0);
        assert_eq!(lm.op_output_rate(OperatorId(2)), 50.0);
    }

    #[test]
    fn per_task_rates_are_balanced_shares() {
        let (g, p) = simple();
        let lm = LoadModel::derive(&g, &p, &rates(&g, 1000.0)).unwrap();
        // Source: 2 tasks, 500 rec/s out each.
        assert_eq!(lm.task_output_rate(TaskId(0)), 500.0);
        // Map: 4 tasks, 250 rec/s in each.
        assert_eq!(lm.task_input_rate(TaskId(2)), 250.0);
        assert_eq!(lm.task_output_rate(TaskId(2)), 125.0);
        // Window: 2 tasks, 250 rec/s in each.
        assert_eq!(lm.task_input_rate(TaskId(6)), 250.0);
    }

    #[test]
    fn loads_scale_with_unit_costs() {
        let (g, p) = simple();
        let lm = LoadModel::derive(&g, &p, &rates(&g, 1000.0)).unwrap();
        // Window task: 250 rec/s in, cpu 0.004 s/rec -> 1 core.
        let w = lm.load(TaskId(6));
        assert!((w.cpu - 1.0).abs() < 1e-12);
        assert!((w.io - 250.0 * 1000.0).abs() < 1e-9);
        // 25 rec/s out * 20 B/rec.
        assert!((w.net - 500.0).abs() < 1e-9);
        // Source task: 500 rec/s out, cpu charged per output record.
        let s = lm.load(TaskId(0));
        assert!((s.cpu - 0.5).abs() < 1e-12);
        assert!((s.net - 50_000.0).abs() < 1e-9);
    }

    #[test]
    fn total_is_sum_of_loads() {
        let (g, p) = simple();
        let lm = LoadModel::derive(&g, &p, &rates(&g, 1000.0)).unwrap();
        let total = lm.total();
        let sum_cpu: f64 = lm.loads().iter().map(|l| l.cpu).sum();
        assert!((total.cpu - sum_cpu).abs() < 1e-12);
    }

    #[test]
    fn missing_source_rate_is_an_error() {
        let (g, p) = simple();
        let err = LoadModel::derive(&g, &p, &HashMap::new()).unwrap_err();
        assert!(matches!(err, ModelError::InvalidParameter(_)));
    }

    #[test]
    fn broadcast_multiplies_downstream_input() {
        let mut b = LogicalGraph::builder("bc");
        let src = b.operator(
            "src",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
        );
        let fan = b.operator(
            "fan",
            OperatorKind::Stateless,
            3,
            ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
        );
        b.edge(src, fan, CP::Broadcast);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let lm = LoadModel::derive(&g, &p, &rates(&g, 100.0)).unwrap();
        // Each of the 3 tasks receives the full 100 rec/s stream.
        assert_eq!(lm.op_input_rate(OperatorId(1)), 300.0);
        assert_eq!(lm.task_input_rate(TaskId(1)), 100.0);
    }

    #[test]
    fn two_source_join_adds_inputs() {
        let mut b = LogicalGraph::builder("join");
        let s1 = b.operator(
            "s1",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 8.0, 1.0),
        );
        let s2 = b.operator(
            "s2",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 8.0, 1.0),
        );
        let j = b.operator(
            "j",
            OperatorKind::Join,
            2,
            ResourceProfile::new(0.001, 64.0, 8.0, 0.2),
        );
        b.edge(s1, j, CP::Hash);
        b.edge(s2, j, CP::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let mut r = HashMap::new();
        r.insert(OperatorId(0), 100.0);
        r.insert(OperatorId(1), 300.0);
        let lm = LoadModel::derive(&g, &p, &r).unwrap();
        assert_eq!(lm.op_input_rate(OperatorId(2)), 400.0);
        assert_eq!(lm.op_output_rate(OperatorId(2)), 80.0);
        assert_eq!(lm.task_input_rate(TaskId(2)), 200.0);
    }
}
