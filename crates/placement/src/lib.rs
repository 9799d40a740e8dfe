//! Placement strategies: Flink's baselines and the CAPS adapter.
//!
//! The CAPSys paper compares CAPS against the two policies shipped with
//! Apache Flink (§2.2, §6.2):
//!
//! * [`FlinkDefault`] — Flink's default slot assignment: iterate over
//!   workers, filling all of a worker's slots before moving to the next,
//!   with tasks picked in random order. Plans (and their performance)
//!   vary significantly across runs of the same query.
//! * [`FlinkEvenly`] — the `cluster.evenly-spread-out-slots` option:
//!   distribute the *number* of tasks evenly across workers, still blind
//!   to the tasks' actual resource usage.
//! * [`CapsStrategy`] — the contention-aware search of `capsys-core`
//!   behind the same [`PlacementStrategy`] interface.
//!
//! All strategies take an explicit RNG so experiments can reproduce the
//! baselines' randomness seed-for-seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use capsys_core::{CapsError, CapsSearch, SearchConfig};
use capsys_model::{
    Cluster, LoadModel, LogicalGraph, ModelError, PhysicalGraph, Placement, WorkerId,
};
use capsys_util::rng::SliceRandom;
use capsys_util::rng::SmallRng;

/// Everything a strategy may consult when computing a placement.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// The logical query graph.
    pub logical: &'a LogicalGraph,
    /// The physical execution graph to place.
    pub physical: &'a PhysicalGraph,
    /// The target worker cluster.
    pub cluster: &'a Cluster,
    /// Per-task resource loads (ignored by resource-unaware baselines).
    pub loads: &'a LoadModel,
}

/// Errors produced by placement strategies.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// An underlying model error.
    Model(ModelError),
    /// The CAPS search failed (e.g. no feasible plan).
    Caps(CapsError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Model(e) => write!(f, "model error: {e}"),
            PlacementError::Caps(e) => write!(f, "CAPS error: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<ModelError> for PlacementError {
    fn from(e: ModelError) -> Self {
        PlacementError::Model(e)
    }
}

impl From<CapsError> for PlacementError {
    fn from(e: CapsError) -> Self {
        PlacementError::Caps(e)
    }
}

/// How the search that produced a plan was configured — journaled with
/// controller decisions so replay (or an auditor) can re-derive the
/// plan by re-running the identical search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchDescriptor {
    /// The node budget in effect, if any.
    pub node_budget: Option<usize>,
}

impl SearchDescriptor {
    /// The descriptor of a CAPS [`SearchConfig`].
    pub fn of(config: &SearchConfig) -> SearchDescriptor {
        SearchDescriptor {
            node_budget: config.node_budget,
        }
    }
}

/// A task placement policy.
pub trait PlacementStrategy {
    /// The strategy's display name.
    fn name(&self) -> &'static str;

    /// Computes a placement plan for the given deployment.
    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError>;

    /// The search configuration behind plans this strategy produces,
    /// for journaling. Strategies that run no search return `None`.
    fn search_descriptor(&self) -> Option<SearchDescriptor> {
        None
    }
}

/// Flink's default slot-assignment policy.
///
/// Tasks are taken in random order and packed onto workers one worker at
/// a time, filling all of a worker's slots before moving on (§2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlinkDefault;

impl PlacementStrategy for FlinkDefault {
    fn name(&self) -> &'static str {
        "default"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        ctx.cluster.check_capacity(ctx.physical.num_tasks())?;
        let mut order: Vec<usize> = (0..ctx.physical.num_tasks()).collect();
        order.shuffle(rng);
        let slots = ctx.cluster.slots_per_worker();
        let mut assignment = vec![WorkerId(0); ctx.physical.num_tasks()];
        for (pos, &task) in order.iter().enumerate() {
            assignment[task] = WorkerId(pos / slots);
        }
        let plan = Placement::new(assignment);
        plan.validate(ctx.physical, ctx.cluster)?;
        Ok(plan)
    }
}

/// Flink's `cluster.evenly-spread-out-slots` policy.
///
/// Tasks are taken in random order and dealt round-robin across workers,
/// balancing task *counts* but not resource loads (§2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlinkEvenly;

impl PlacementStrategy for FlinkEvenly {
    fn name(&self) -> &'static str {
        "evenly"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        ctx.cluster.check_capacity(ctx.physical.num_tasks())?;
        let mut order: Vec<usize> = (0..ctx.physical.num_tasks()).collect();
        order.shuffle(rng);
        let workers = ctx.cluster.num_workers();
        let mut assignment = vec![WorkerId(0); ctx.physical.num_tasks()];
        for (pos, &task) in order.iter().enumerate() {
            assignment[task] = WorkerId(pos % workers);
        }
        let plan = Placement::new(assignment);
        plan.validate(ctx.physical, ctx.cluster)?;
        Ok(plan)
    }
}

/// The CAPS contention-aware search as a [`PlacementStrategy`].
#[derive(Debug, Clone)]
pub struct CapsStrategy {
    /// Search configuration; defaults to auto-tuned thresholds.
    pub config: SearchConfig,
}

impl Default for CapsStrategy {
    fn default() -> Self {
        CapsStrategy {
            config: SearchConfig::auto_tuned(),
        }
    }
}

impl CapsStrategy {
    /// A CAPS strategy with an explicit search configuration.
    pub fn new(config: SearchConfig) -> Self {
        CapsStrategy { config }
    }
}

impl PlacementStrategy for CapsStrategy {
    fn name(&self) -> &'static str {
        "caps"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        _rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        let search = CapsSearch::new(ctx.logical, ctx.physical, ctx.cluster, ctx.loads)?;
        let outcome = search.run(&self.config)?;
        match outcome.best_plan() {
            Some(p) => Ok(p.clone()),
            // An aborted empty search has not proven infeasibility; let
            // callers (e.g. the recovery ladder) distinguish the two.
            None if outcome.stats.aborted => Err(PlacementError::Caps(CapsError::BudgetExhausted)),
            None => Err(PlacementError::Caps(CapsError::NoFeasiblePlan)),
        }
    }

    fn search_descriptor(&self) -> Option<SearchDescriptor> {
        Some(SearchDescriptor::of(&self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{ConnectionPattern, OperatorId, OperatorKind, ResourceProfile, WorkerSpec};
    use capsys_util::rng::SeedableRng;
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let h = b.operator(
            "win",
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
        (g, p, c, lm)
    }

    #[test]
    fn default_fills_workers_sequentially() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let plan = FlinkDefault.place(&ctx, &mut rng).unwrap();
        plan.validate(&p, &c).unwrap();
        // 8 tasks on 2 workers with 4 slots: both full.
        assert_eq!(plan.worker_counts(2), vec![4, 4]);
    }

    #[test]
    fn default_leaves_last_worker_partially_filled() {
        // 6 tasks, 2 workers x 4 slots: first worker full, second has 2.
        let mut b = LogicalGraph::builder("q");
        let s = b.operator("s", OperatorKind::Source, 2, ResourceProfile::zero());
        let k = b.operator("k", OperatorKind::Sink, 4, ResourceProfile::zero());
        b.edge(s, k, ConnectionPattern::Rebalance);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 10.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let plan = FlinkDefault.place(&ctx, &mut rng).unwrap();
        assert_eq!(plan.worker_counts(2), vec![4, 2]);
        let plan = FlinkEvenly.place(&ctx, &mut rng).unwrap();
        assert_eq!(plan.worker_counts(2), vec![3, 3]);
    }

    #[test]
    fn default_varies_across_seeds() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let keys: std::collections::HashSet<_> = (0..20)
            .map(|seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                FlinkDefault
                    .place(&ctx, &mut rng)
                    .unwrap()
                    .canonical_key(&p, 2)
            })
            .collect();
        assert!(
            keys.len() > 1,
            "random strategy should produce varied plans"
        );
    }

    #[test]
    fn evenly_balances_counts() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let plan = FlinkEvenly.place(&ctx, &mut rng).unwrap();
            let counts = plan.worker_counts(2);
            assert!((counts[0] as i64 - counts[1] as i64).abs() <= 1);
        }
    }

    #[test]
    fn caps_strategy_returns_a_feasible_plan() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let plan = CapsStrategy::default().place(&ctx, &mut rng).unwrap();
        plan.validate(&p, &c).unwrap();
        // Same seeds or different seeds: CAPS is deterministic.
        let mut rng2 = SmallRng::seed_from_u64(1234);
        let plan2 = CapsStrategy::default().place(&ctx, &mut rng2).unwrap();
        assert!(plan.is_equivalent(&plan2, &p, c.num_workers()));
    }

    #[test]
    fn caps_beats_baselines_on_cost() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let model = search.cost_model();
        let mut rng = SmallRng::seed_from_u64(5);
        let caps_plan = CapsStrategy::default().place(&ctx, &mut rng).unwrap();
        let caps_cost = model.cost(&p, &caps_plan).max_component();
        // CAPS should never be worse than the baselines' *average*.
        let mut worse = 0;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = SmallRng::seed_from_u64(seed);
            let b = FlinkDefault.place(&ctx, &mut rng).unwrap();
            if model.cost(&p, &b).max_component() < caps_cost - 1e-9 {
                worse += 1;
            }
        }
        assert!(
            worse <= runs / 2,
            "CAPS cost {caps_cost} beaten by {worse}/{runs} random plans"
        );
    }

    #[test]
    fn capacity_errors_propagate() {
        let (g, p, _, lm) = fixture();
        let tiny = Cluster::homogeneous(1, WorkerSpec::new(2, 4.0, 1e8, 1e9)).unwrap();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &tiny,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(FlinkDefault.place(&ctx, &mut rng).is_err());
        assert!(FlinkEvenly.place(&ctx, &mut rng).is_err());
        assert!(CapsStrategy::default().place(&ctx, &mut rng).is_err());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(FlinkDefault.name(), "default");
        assert_eq!(FlinkEvenly.name(), "evenly");
        assert_eq!(CapsStrategy::default().name(), "caps");
    }
}
