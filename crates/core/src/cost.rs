//! The CAPS cost model (§4.2, Equations 4-8), on an exact fixed-point
//! core.
//!
//! A placement plan is scored by a three-dimensional [`CostVector`]
//! `[C_cpu, C_io, C_net]`. Each component measures the *resource
//! imbalance* the plan induces: the distance of the bottleneck worker's
//! load from the ideal (perfectly balanced) load, normalized by the
//! worst-case distance obtained when the most resource-intensive tasks
//! are co-located on one worker. All components lie in `[0, 1]`.
//!
//! ## Fixed-point internals
//!
//! Raw per-task loads enter once from the [`LoadModel`] as `f64` and
//! are quantized to [`Fixed64`] (Q31.32) at construction — the model
//! ingestion boundary. Everything downstream (per-worker accumulation,
//! bottleneck maxima, Eq. 10 bounds) is integer arithmetic on the
//! mantissas, so:
//!
//! * incremental accumulate/undo in the search equals a from-scratch
//!   [`CostModel::worker_load`] **bit-for-bit**, in any order;
//! * a plan's [`CostVector`] is a pure function of its exact load
//!   mantissas (one `f64` divide of two integers per dimension), making
//!   costs identical across schedules, thread counts, and build
//!   profiles;
//! * threshold and store-bound pruning invert the cost predicate into
//!   *exact* per-dimension mantissa limits, so pruning agrees with
//!   [`CostVector::within`] on every leaf — no epsilon slack in the
//!   hot path.

use capsys_model::{Cluster, LoadModel, PhysicalGraph, Placement, TaskId, WorkerId};
use capsys_util::fixed::Fixed64;

use crate::error::CapsError;

/// Tolerance when comparing normalized costs against thresholds.
const EPS: f64 = 1e-12;

/// The three resource dimensions of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Compute (CPU cores).
    Cpu,
    /// State access (disk I/O bytes/s).
    Io,
    /// Network (outbound bytes/s).
    Net,
}

impl Dimension {
    /// All dimensions, in `[cpu, io, net]` order.
    pub const ALL: [Dimension; 3] = [Dimension::Cpu, Dimension::Io, Dimension::Net];
}

/// The cost vector `C⃗ = [C_cpu, C_io, C_net]` of a placement plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostVector {
    /// Compute cost `C_cpu(f)` (Eq. 4).
    pub cpu: f64,
    /// State access cost `C_io(f)`.
    pub io: f64,
    /// Network cost `C_net(f)`.
    pub net: f64,
}

impl capsys_util::json::ToJson for CostVector {
    fn to_json(&self) -> capsys_util::json::Json {
        capsys_util::json::obj(vec![
            ("cpu", capsys_util::json::Json::Num(self.cpu)),
            ("io", capsys_util::json::Json::Num(self.io)),
            ("net", capsys_util::json::Json::Num(self.net)),
        ])
    }
}

impl CostVector {
    /// Creates a cost vector.
    pub fn new(cpu: f64, io: f64, net: f64) -> Self {
        CostVector { cpu, io, net }
    }

    /// The component for a dimension.
    pub fn get(&self, dim: Dimension) -> f64 {
        match dim {
            Dimension::Cpu => self.cpu,
            Dimension::Io => self.io,
            Dimension::Net => self.net,
        }
    }

    /// The largest component.
    pub fn max_component(&self) -> f64 {
        self.cpu.max(self.io).max(self.net)
    }

    /// Returns true if `self` dominates `other` in the pareto sense:
    /// no component is worse and at least one is strictly better.
    pub fn dominates(&self, other: &CostVector) -> bool {
        let le = self.cpu <= other.cpu && self.io <= other.io && self.net <= other.net;
        let lt = self.cpu < other.cpu || self.io < other.io || self.net < other.net;
        le && lt
    }

    /// Returns true if every component is below or equal to the matching
    /// threshold (Eq. 9).
    pub fn within(&self, thresholds: &Thresholds) -> bool {
        self.cpu <= thresholds.cpu + EPS
            && self.io <= thresholds.io + EPS
            && self.net <= thresholds.net + EPS
    }
}

/// The pruning threshold vector `α⃗ = [α_cpu, α_io, α_net]` (§4.4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Compute threshold `α_cpu ∈ [0, 1]` (or `∞` to disable).
    pub cpu: f64,
    /// State access threshold `α_io`.
    pub io: f64,
    /// Network threshold `α_net`.
    pub net: f64,
}

impl Thresholds {
    /// Creates a threshold vector.
    pub fn new(cpu: f64, io: f64, net: f64) -> Self {
        Thresholds { cpu, io, net }
    }

    /// Thresholds that never prune (all `∞`).
    pub fn unbounded() -> Self {
        Thresholds::new(f64::INFINITY, f64::INFINITY, f64::INFINITY)
    }

    /// The component for a dimension.
    pub fn get(&self, dim: Dimension) -> f64 {
        match dim {
            Dimension::Cpu => self.cpu,
            Dimension::Io => self.io,
            Dimension::Net => self.net,
        }
    }

    /// Replaces the component for a dimension, returning the new vector.
    pub fn with(mut self, dim: Dimension, value: f64) -> Self {
        match dim {
            Dimension::Cpu => self.cpu = value,
            Dimension::Io => self.io = value,
            Dimension::Net => self.net = value,
        }
        self
    }

    /// Component-wise scaling, used by the auto-tuner's joint relaxation.
    pub fn scaled(&self, factor: f64) -> Self {
        Thresholds::new(self.cpu * factor, self.io * factor, self.net * factor)
    }
}

/// Per-dimension load extremes `L_min` and `L_max` (Eqs. 6-7), as `f64`
/// views of the internal fixed-point values (reporting and auto-tuning
/// only; the search prunes on the exact mantissas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBounds {
    /// Per-worker load of a perfectly balanced allocation (`L_min`).
    pub min: [f64; 3],
    /// Worst-case bottleneck load when the top-`s` most intensive tasks
    /// are co-located (`L_max`).
    pub max: [f64; 3],
}

/// The CAPS cost model bound to a physical graph, cluster, and load model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `f64` view of the load extremes, for reporting and tuning.
    bounds: LoadBounds,
    /// Exact `L_min` mantissas per dimension.
    fx_min: [Fixed64; 3],
    /// Exact `L_max − L_min` mantissa per dimension; `0` marks a
    /// degenerate dimension along which every plan costs 0.
    fx_denom: [i64; 3],
    /// Per-task loads `[cpu, io, net]`, quantized once on entry.
    task_loads: Vec<[Fixed64; 3]>,
    /// Per-task per-downstream-link output rate `U_net(t) / |D(t)|`.
    link_rates: Vec<Fixed64>,
    num_workers: usize,
    /// Aggregate demand over cluster capacity per dimension, in `[0, 1]`.
    pressure: [f64; 3],
}

/// Saturating narrowing of a widened mantissa sum.
fn narrow(wide: i128) -> i64 {
    if wide > i64::MAX as i128 {
        i64::MAX
    } else if wide < i64::MIN as i128 {
        i64::MIN
    } else {
        wide as i64
    }
}

impl CostModel {
    /// Builds the cost model, quantizing the load model to fixed point
    /// and pre-computing `L_min` and `L_max` per dimension.
    pub fn new(
        physical: &PhysicalGraph,
        cluster: &Cluster,
        loads: &LoadModel,
    ) -> Result<CostModel, CapsError> {
        cluster.check_capacity(physical.num_tasks())?;
        let s = cluster.slots_per_worker();
        let n_workers = cluster.num_workers() as i128;

        // Ingestion boundary: every f64 the model produced is quantized
        // exactly once; all cost arithmetic below uses the mantissas.
        let raw_loads: Vec<[f64; 3]> = loads.loads().iter().map(|l| [l.cpu, l.io, l.net]).collect();
        let task_loads: Vec<[Fixed64; 3]> = raw_loads
            .iter()
            .map(|l| [l[0], l[1], l[2]].map(Fixed64::from_f64))
            .collect();
        let link_rates: Vec<Fixed64> = (0..physical.num_tasks())
            .map(|i| {
                let d = physical.downstream_count(TaskId(i));
                if d == 0 {
                    Fixed64::ZERO
                } else {
                    Fixed64::from_f64(raw_loads[i][2] / d as f64)
                }
            })
            .collect();

        let mut fx_min = [Fixed64::ZERO; 3];
        let mut fx_max = [Fixed64::ZERO; 3];
        for dim in 0..3 {
            let total: i128 = task_loads.iter().map(|l| l[dim].to_bits() as i128).sum();
            // L_min: balanced allocation; the paper sets L_net_min = 0
            // because co-locating everything incurs no network traffic.
            fx_min[dim] = if dim == 2 {
                Fixed64::ZERO
            } else {
                Fixed64::from_bits(narrow(total / n_workers))
            };
            // L_max: co-locate the top-s most intensive tasks (T_cpu /
            // T_io / T_net with |T| = s, Table 1).
            let mut per_task: Vec<i64> = task_loads.iter().map(|l| l[dim].to_bits()).collect();
            per_task.sort_unstable_by(|a, b| b.cmp(a));
            fx_max[dim] =
                Fixed64::from_bits(narrow(per_task.iter().take(s).map(|&m| m as i128).sum()));
        }
        let fx_denom = [0, 1, 2].map(|d| fx_max[d].to_bits().saturating_sub(fx_min[d].to_bits()));
        let bounds = LoadBounds {
            min: fx_min.map(Fixed64::to_f64),
            max: fx_max.map(Fixed64::to_f64),
        };

        // Dimension pressure: how much of the cluster's aggregate
        // capacity the workload demands per dimension. A dimension whose
        // pressure is negligible cannot produce contention no matter how
        // imbalanced the plan is (the paper's Figure 5 observation that
        // C_net is not a dominant factor for non-network-intensive
        // queries); auto-tuning and plan selection use this to focus on
        // the dimensions that matter.
        let spec = cluster.workers()[0].spec;
        let w = cluster.num_workers() as f64;
        let totals: [f64; 3] = [0, 1, 2].map(|dim| raw_loads.iter().map(|l| l[dim]).sum::<f64>());
        let remote_fraction = if w > 1.0 { (w - 1.0) / w } else { 0.0 };
        let pressure = [
            (totals[0] / (spec.cpu_cores * w)).clamp(0.0, 1.0),
            (totals[1] / (spec.disk_bandwidth * w)).clamp(0.0, 1.0),
            (totals[2] * remote_fraction / (spec.network_bandwidth * w)).clamp(0.0, 1.0),
        ];

        Ok(CostModel {
            bounds,
            fx_min,
            fx_denom,
            task_loads,
            link_rates,
            num_workers: cluster.num_workers(),
            pressure,
        })
    }

    /// Aggregate demand over cluster capacity per `[cpu, io, net]`
    /// dimension, each in `[0, 1]`.
    pub fn pressure(&self) -> [f64; 3] {
        self.pressure
    }

    /// The pre-computed load bounds (`f64` view).
    pub fn bounds(&self) -> &LoadBounds {
        &self.bounds
    }

    /// Number of workers in the bound cluster.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Per-task load vector `[U_cpu, U_io, U_net]` (exact).
    pub fn task_load(&self, t: TaskId) -> [Fixed64; 3] {
        self.task_loads[t.0]
    }

    /// Per-downstream-link output rate of a task, `U_net(t) / |D(t)|`
    /// (exact).
    pub fn link_rate(&self, t: TaskId) -> Fixed64 {
        self.link_rates[t.0]
    }

    /// The per-worker load vector `[L_cpu, L_io, L_net]` of worker `w`
    /// under plan `f` (Eqs. 5 and 8), computed from scratch.
    ///
    /// Network load is charged per cross-worker channel at the task's
    /// link rate — the identical integer-multiple-of-rate accounting the
    /// incremental search accumulator uses, so the two agree exactly.
    pub fn worker_load(
        &self,
        physical: &PhysicalGraph,
        plan: &Placement,
        w: WorkerId,
    ) -> [Fixed64; 3] {
        let mut load = [Fixed64::ZERO; 3];
        for t in plan.tasks_on(w) {
            let tl = self.task_loads[t.0];
            load[0] += tl[0];
            load[1] += tl[1];
            // Only cross-worker downstream links contribute to outbound
            // network traffic (Eq. 8).
            let remote = physical
                .downstream(t)
                .filter(|ch| plan.worker_of(ch.to) != w)
                .count();
            load[2] += self.link_rates[t.0].mul_int(remote as i64);
        }
        load
    }

    /// The bottleneck loads `[L_cpu(f), L_io(f), L_net(f)]` of a plan.
    pub fn plan_loads(&self, physical: &PhysicalGraph, plan: &Placement) -> [Fixed64; 3] {
        let mut worst = [Fixed64::ZERO; 3];
        for w in 0..self.num_workers {
            let load = self.worker_load(physical, plan, WorkerId(w));
            for dim in 0..3 {
                worst[dim] = worst[dim].max(load[dim]);
            }
        }
        worst
    }

    /// Converts a bottleneck load to a normalized cost value (Eq. 4):
    /// one `f64` divide of two exact integers, so equal mantissas give
    /// bit-identical costs on every platform and schedule.
    pub fn load_to_cost(&self, dim: usize, load: Fixed64) -> f64 {
        let denom = self.fx_denom[dim];
        if denom == 0 {
            // All placement plans are equivalent along this dimension.
            0.0
        } else {
            (load.to_bits() as i128 - self.fx_min[dim].to_bits() as i128) as f64 / denom as f64
        }
    }

    /// The cost vector implied by exact bottleneck loads.
    pub fn cost_from_loads(&self, loads: [Fixed64; 3]) -> CostVector {
        CostVector::new(
            self.load_to_cost(0, loads[0]),
            self.load_to_cost(1, loads[1]),
            self.load_to_cost(2, loads[2]),
        )
    }

    /// The full cost vector `C⃗(f)` of a plan.
    pub fn cost(&self, physical: &PhysicalGraph, plan: &Placement) -> CostVector {
        self.cost_from_loads(self.plan_loads(physical, plan))
    }

    /// The largest load mantissa whose normalized cost satisfies
    /// `cost ≤ limit`, found by binary search on the exact boundary.
    ///
    /// `d ↦ (d as f64) / denom` is monotone (non-strictly), so the
    /// satisfying set is a prefix of the integers and the returned bound
    /// makes the integer comparison `load ≤ bound` *exactly* equivalent
    /// to the floating-point predicate on the resulting cost.
    fn max_load_satisfying(&self, dim: usize, limit: f64) -> Fixed64 {
        let denom = self.fx_denom[dim];
        if denom == 0 || !limit.is_finite() {
            return Fixed64::MAX;
        }
        let df = denom as f64;
        let ok = |d: i128| d as f64 / df <= limit;
        let (mut lo, mut hi) = (-(1i128 << 62), 1i128 << 62);
        if ok(hi) {
            // Bound beyond any representable load: no pruning.
            return Fixed64::MAX;
        }
        if !ok(lo) {
            // Limit below any representable cost: prune everything.
            return Fixed64::MIN;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if ok(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Fixed64::from_bits(self.fx_min[dim].to_bits().saturating_add(lo as i64))
    }

    /// The per-worker load bound implied by thresholds `α⃗` (Eq. 10):
    /// `L_i(f) ≤ L_i_min + α_i (L_i_max − L_i_min)`.
    ///
    /// The returned mantissa bounds are exact inversions of
    /// [`CostVector::within`]: a leaf survives the load comparison iff
    /// its cost vector is within the thresholds. Degenerate dimensions
    /// (`L_max = L_min`) and infinite thresholds yield [`Fixed64::MAX`]
    /// (no pruning along that dimension).
    pub fn load_bound(&self, thresholds: &Thresholds) -> [Fixed64; 3] {
        let alphas = [thresholds.cpu, thresholds.io, thresholds.net];
        let mut bound = [Fixed64::MAX; 3];
        for dim in 0..3 {
            if alphas[dim].is_finite() {
                // Same expression `within` evaluates: cost ≤ α + EPS.
                bound[dim] = self.max_load_satisfying(dim, alphas[dim] + EPS);
            }
        }
        bound
    }

    /// Inverts [`CostModel::load_to_cost`]: the largest per-worker load
    /// whose normalized cost does not exceed `cost` along `dim`.
    ///
    /// Degenerate dimensions (`L_max = L_min`) and non-finite costs
    /// yield [`Fixed64::MAX`] (no pruning along that dimension) — the
    /// same convention as [`CostModel::load_bound`]. The search uses
    /// this to turn the worst stored plan's `max_component` cost into
    /// per-dimension load limits it can check incrementally; ties keep
    /// surviving because the inversion uses `≤`.
    pub fn cost_to_load(&self, dim: usize, cost: f64) -> Fixed64 {
        self.max_load_satisfying(dim, cost)
    }

    /// The tightest integral lower bound on the achievable cost along a
    /// dimension, used by the auto-tuner as a starting point.
    ///
    /// A perfectly balanced placement is generally unattainable because
    /// tasks are indivisible; the bottleneck worker must carry at least
    /// the largest single task load.
    pub fn tightest_cost(&self, dim: usize) -> f64 {
        let denom = self.fx_denom[dim];
        if denom == 0 || dim == 2 {
            // L_net_min is 0; the cheapest conceivable bottleneck is 0
            // (everything co-located), so start from zero.
            return 0.0;
        }
        let heaviest = self
            .task_loads
            .iter()
            .map(|l| l[dim])
            .max()
            .unwrap_or(Fixed64::ZERO);
        let floor = heaviest.to_bits().max(self.fx_min[dim].to_bits());
        ((floor - self.fx_min[dim].to_bits()) as f64 / denom as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, Placement, ResourceProfile, WorkerSpec,
    };
    use std::collections::HashMap;

    /// src(2) -> heavy(4) -> sink(2) with distinctive unit costs.
    fn fixture() -> (PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let h = b.operator(
            "heavy",
            OperatorKind::Window,
            4,
            ResourceProfile::new(0.002, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
        );
        b.edge(s, h, ConnectionPattern::Rebalance);
        b.edge(h, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (p, c, lm)
    }

    fn plan(assign: &[usize]) -> Placement {
        Placement::new(assign.iter().map(|&w| capsys_model::WorkerId(w)).collect())
    }

    #[test]
    fn bounds_are_ordered() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        for dim in 0..3 {
            assert!(
                m.bounds().max[dim] >= m.bounds().min[dim],
                "dim {dim}: max {} < min {}",
                m.bounds().max[dim],
                m.bounds().min[dim]
            );
            assert!(m.fx_denom[dim] >= 0);
        }
        assert_eq!(m.bounds().min[2], 0.0, "L_net_min is zero by definition");
    }

    #[test]
    fn balanced_plan_has_lower_cost_than_skewed() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        // Tasks: s0 s1 | h0 h1 h2 h3 | k0 k1.
        let balanced = plan(&[0, 1, 0, 0, 1, 1, 0, 1]);
        let skewed = plan(&[0, 1, 0, 0, 0, 0, 1, 1]);
        let cb = m.cost(&p, &balanced);
        let cs = m.cost(&p, &skewed);
        assert!(cb.cpu < cs.cpu, "balanced {cb:?} vs skewed {cs:?}");
        assert!(cb.io < cs.io);
    }

    #[test]
    fn costs_are_in_unit_interval() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        for plan in capsys_model::enumerate_plans(&p, &c, usize::MAX).unwrap() {
            let cost = m.cost(&p, &plan);
            for dim in [cost.cpu, cost.io, cost.net] {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(&dim),
                    "cost {cost:?} out of range"
                );
            }
        }
    }

    #[test]
    fn colocation_removes_network_cost() {
        // 2 workers, everything on worker 0 (slots permitting) -> no
        // cross-worker traffic.
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        // 8 tasks > 4 slots, so full co-location is impossible; check that
        // a plan keeping heavy->sink local has lower net cost.
        let local = plan(&[0, 1, 0, 0, 1, 1, 0, 1]);
        let remote = plan(&[0, 1, 0, 0, 1, 1, 1, 0]);
        let cl = m.cost(&p, &local);
        let cr = m.cost(&p, &remote);
        assert!(cl.net <= cr.net);
    }

    #[test]
    fn worker_load_matches_plan_loads() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        let f = plan(&[0, 1, 0, 0, 1, 1, 0, 1]);
        let worst = m.plan_loads(&p, &f);
        let w0 = m.worker_load(&p, &f, WorkerId(0));
        let w1 = m.worker_load(&p, &f, WorkerId(1));
        for dim in 0..3 {
            assert_eq!(worst[dim], w0[dim].max(w1[dim]), "exact bottleneck max");
        }
    }

    #[test]
    fn load_bound_inverts_cost_threshold_exactly() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        let th = Thresholds::new(0.3, 0.4, 0.5);
        let bound = m.load_bound(&th);
        // The integer load comparison must agree with the float cost
        // predicate on every plan — no epsilon, Eq. 10 as an exact
        // inversion.
        for f in capsys_model::enumerate_plans(&p, &c, usize::MAX).unwrap() {
            let loads = m.plan_loads(&p, &f);
            let within_loads = (0..3).all(|d| loads[d] <= bound[d]);
            let within_cost = m.cost(&p, &f).within(&th);
            assert_eq!(within_loads, within_cost, "Eq. 10 equivalence violated");
        }
    }

    #[test]
    fn cost_to_load_is_the_exact_boundary() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        for f in capsys_model::enumerate_plans(&p, &c, usize::MAX).unwrap() {
            let loads = m.plan_loads(&p, &f);
            for dim in 0..3 {
                let cost = m.load_to_cost(dim, loads[dim]);
                let back = m.cost_to_load(dim, cost);
                // The inversion is the *largest* load at or below the
                // cost, so the original load must be admitted...
                assert!(back >= loads[dim], "dim {dim}: boundary excludes witness");
                if !back.is_max() {
                    // ...and one mantissa step past the boundary must
                    // exceed the cost.
                    let past = Fixed64::from_bits(back.to_bits() + 1);
                    assert!(
                        m.load_to_cost(dim, past) > cost,
                        "dim {dim}: boundary not tight"
                    );
                }
            }
        }
        assert!(m.cost_to_load(0, f64::INFINITY).is_max());
    }

    #[test]
    fn unbounded_thresholds_do_not_prune() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        let bound = m.load_bound(&Thresholds::unbounded());
        assert!(bound.iter().all(|b| b.is_max()));
    }

    #[test]
    fn dominates_is_strict() {
        let a = CostVector::new(0.1, 0.2, 0.3);
        let b = CostVector::new(0.2, 0.2, 0.3);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a vector does not dominate itself");
        let c = CostVector::new(0.05, 0.5, 0.3);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn cost_vector_accessors() {
        let v = CostVector::new(0.1, 0.5, 0.3);
        assert_eq!(v.get(Dimension::Cpu), 0.1);
        assert_eq!(v.get(Dimension::Io), 0.5);
        assert_eq!(v.get(Dimension::Net), 0.3);
        assert_eq!(v.max_component(), 0.5);
        let t = Thresholds::new(0.2, 0.6, 0.4);
        assert!(v.within(&t));
        assert!(!v.within(&Thresholds::new(0.05, 0.6, 0.4)));
        assert_eq!(t.with(Dimension::Cpu, 0.9).cpu, 0.9);
        assert_eq!(t.get(Dimension::Io), 0.6);
        let s = t.scaled(2.0);
        assert_eq!(s.io, 1.2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn tightest_cost_is_achievable_floor() {
        let (p, c, lm) = fixture();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        // No enumerated plan can beat the tightest cost.
        let mut best = [f64::INFINITY; 3];
        for f in capsys_model::enumerate_plans(&p, &c, usize::MAX).unwrap() {
            let cost = m.cost(&p, &f);
            best[0] = best[0].min(cost.cpu);
            best[1] = best[1].min(cost.io);
            best[2] = best[2].min(cost.net);
        }
        for dim in 0..3 {
            assert!(
                m.tightest_cost(dim) <= best[dim] + 1e-9,
                "dim {dim}: floor {} exceeds best {}",
                m.tightest_cost(dim),
                best[dim]
            );
        }
    }

    #[test]
    fn degenerate_dimension_costs_zero() {
        // All tasks identical and slots exactly fit: single worker.
        let mut b = LogicalGraph::builder("deg");
        b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.001, 0.0, 0.0, 1.0),
        );
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(1, WorkerSpec::new(2, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 100.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        let m = CostModel::new(&p, &c, &lm).unwrap();
        let f = plan(&[0, 0]);
        let cost = m.cost(&p, &f);
        assert_eq!(cost.cpu, 0.0);
        assert_eq!(cost.io, 0.0);
        assert_eq!(cost.net, 0.0);
    }
}
