//! Pluggable search backends over the CAPS plan space.
//!
//! [`CapsSearch::run_with_thresholds`](crate::CapsSearch::run_with_thresholds)
//! prepares one problem instance — the exploration order, the exact
//! per-dimension load bound and the symmetry-deduplicated
//! [`PlanEnumerator`] — and then hands it to a [`SearchStrategy`]. Two
//! backends implement the trait:
//!
//! * [`DfsStrategy`] — the threshold-pruned exhaustive DFS of §4.3-4.4
//!   under the work-stealing runner of §5.1 (`crate::parallel`). One
//!   kernel serves every thread count: one thread explores the whole
//!   tree as a single unit on the caller's thread, more threads split
//!   it and steal;
//! * [`MctsStrategy`](crate::mcts::MctsStrategy) — a seeded,
//!   deterministic Monte Carlo Tree Search for plan spaces too large to
//!   exhaust.
//!
//! Callers select a backend through [`SearchConfig::backend`]; the
//! auto-tuner, the minimum-movement screen, and the controller's
//! placement paths all go through `run`/`run_with_thresholds`, so a
//! backend choice propagates to every search the system performs.

use std::time::Instant;

use capsys_model::{PhysicalGraph, PlanEnumerator};
use capsys_util::fixed::Fixed64;

use crate::cost::CostModel;
use crate::error::CapsError;
use crate::mcts::{MctsConfig, MctsReport};
use crate::search::{AnytimePoint, OpTopology, RunStats, ScoredPlan, SearchConfig};

/// Which search algorithm a [`SearchConfig`] selects.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchBackend {
    /// Threshold-pruned exhaustive DFS under the work-stealing runner,
    /// on `threads` threads (one runs on the caller's thread). Exhaustive
    /// within its budget: an un-aborted run proves (in)feasibility.
    Dfs,
    /// Seeded Monte Carlo Tree Search (UCT) over placement prefixes. An
    /// anytime search: it returns its best feasible plans within the
    /// budget but never proves infeasibility. Always single-threaded and
    /// deterministic for a fixed seed and node budget.
    Mcts(MctsConfig),
}

impl SearchBackend {
    /// Stable identifier, used in reports and journaled decisions.
    pub fn id(&self) -> &'static str {
        match self {
            SearchBackend::Dfs => "dfs",
            SearchBackend::Mcts(_) => "mcts",
        }
    }

    /// The backend's RNG seed, if it has one.
    pub fn seed(&self) -> Option<u64> {
        match self {
            SearchBackend::Dfs => None,
            SearchBackend::Mcts(m) => Some(m.seed),
        }
    }
}

/// One fully prepared search problem, handed to a [`SearchStrategy`].
///
/// Built by `CapsSearch::run_with_thresholds`; bundles everything a
/// backend needs so all backends search the identical problem: same
/// operator order, same exact bound, same symmetry groups.
pub struct StrategyContext<'a> {
    pub(crate) physical: &'a PhysicalGraph,
    pub(crate) model: &'a CostModel,
    pub(crate) topo: &'a OpTopology,
    pub(crate) enumerator: &'a PlanEnumerator,
    pub(crate) bound: [Fixed64; 3],
    pub(crate) config: &'a SearchConfig,
    pub(crate) deadline: Option<Instant>,
    pub(crate) start: Instant,
}

impl<'a> StrategyContext<'a> {
    /// The physical graph being placed.
    pub fn physical(&self) -> &'a PhysicalGraph {
        self.physical
    }

    /// The exact cost model of the problem instance.
    pub fn model(&self) -> &'a CostModel {
        self.model
    }

    /// The symmetry-aware plan enumerator (order and free slots applied).
    pub fn enumerator(&self) -> &'a PlanEnumerator {
        self.enumerator
    }

    /// The exact per-dimension load bound (Eq. 10 inverted).
    pub fn bound(&self) -> [Fixed64; 3] {
        self.bound
    }

    /// The search configuration in force.
    pub fn config(&self) -> &'a SearchConfig {
        self.config
    }

    /// The wall-clock deadline, if a time budget was configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// What a backend hands back to `run_with_thresholds`.
pub struct BackendResult {
    /// Stored feasible plans (up to `max_plans`, [`cmp_scored`] order
    /// guarantees as documented per backend).
    ///
    /// [`cmp_scored`]: crate::search::SearchOutcome
    pub plans: Vec<ScoredPlan>,
    /// Run statistics in DFS-comparable units.
    pub stats: RunStats,
    /// Best-cost improvement points (empty when schedule-dependent).
    pub anytime: Vec<AnytimePoint>,
    /// MCTS diagnostics, `None` for the DFS.
    pub mcts: Option<MctsReport>,
    /// Per dimension, the smallest load that crossed the threshold bound
    /// on any pruned branch (`Fixed64::MAX` where no branch crossed it).
    /// Set only when the tree was explored completely; `None` when the
    /// run aborted, a first-feasible stop fired, or the backend samples
    /// instead of exhausting (MCTS). See [`SearchOutcome::overflow`].
    ///
    /// [`SearchOutcome::overflow`]: crate::search::SearchOutcome::overflow
    pub overflow: Option<[Fixed64; 3]>,
}

/// A search algorithm over the CAPS plan space.
///
/// Implementations must be deterministic: the same context (and, for
/// seeded backends, the same seed) must produce the same `BackendResult`
/// modulo wall-clock fields, independent of thread schedule.
pub trait SearchStrategy {
    /// Stable backend name for reports.
    fn name(&self) -> &'static str;

    /// Searches the prepared problem instance.
    fn search(&self, ctx: &StrategyContext<'_>) -> Result<BackendResult, CapsError>;
}

/// The threshold-pruned DFS (§4.3-4.4) under the work-stealing runner
/// (§5.1), for every thread count.
pub struct DfsStrategy;

impl SearchStrategy for DfsStrategy {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn search(&self, ctx: &StrategyContext<'_>) -> Result<BackendResult, CapsError> {
        crate::parallel::run(ctx)
    }
}
