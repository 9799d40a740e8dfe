//! Search backends over the CAPS plan space.
//!
//! [`CapsSearch::run_with_thresholds`](crate::CapsSearch::run_with_thresholds)
//! prepares one `Problem` — the exploration order, the exact
//! per-dimension load bound and the symmetry-deduplicated
//! [`PlanEnumerator`] — and hands it to the backend that
//! [`SearchConfig::backend`] selects:
//!
//! * [`SearchBackend::Dfs`] — the threshold-pruned exhaustive DFS of
//!   §4.3-4.4 under the runner of §5.1 (`crate::parallel`). Every
//!   search starts on the caller's thread; a multi-thread one that
//!   outgrows [`SPLIT_AFTER`](crate::SPLIT_AFTER) nodes restarts, and
//!   the caller and the spawned threads claim the caller's DFS-ordered
//!   split of the tree from one shared cursor;
//! * [`SearchBackend::Mcts`] — a seeded, deterministic Monte Carlo Tree
//!   Search (`crate::mcts`) for plan spaces too large to exhaust.
//!
//! The auto-tuner, the minimum-movement screen, and the controller's
//! placement paths all go through `run`/`run_with_thresholds`, so a
//! backend choice propagates to every search the system performs. Both
//! backends are deterministic: the same problem (and, for MCTS, the same
//! seed) gives the same `BackendResult` modulo wall-clock fields,
//! independent of thread schedule.

use std::time::Instant;

use capsys_model::{PhysicalGraph, PlanEnumerator};
use capsys_util::fixed::Fixed64;

use crate::cost::CostModel;
use crate::mcts::{MctsConfig, MctsReport};
use crate::search::{AnytimePoint, OpTopology, RunStats, ScoredPlan, SearchConfig};

/// Which search algorithm a [`SearchConfig`] selects.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchBackend {
    /// Threshold-pruned exhaustive DFS on up to `threads` threads (a
    /// search that ends within [`SPLIT_AFTER`](crate::SPLIT_AFTER)
    /// nodes runs on the caller's thread alone). Exhaustive within its budget: an
    /// un-aborted run proves (in)feasibility.
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

/// One fully prepared search problem, handed to a backend.
///
/// Built by `CapsSearch::run_with_thresholds`; bundles everything a
/// backend needs so all backends search the identical problem: same
/// operator order, same exact bound, same symmetry groups.
pub(crate) struct Problem<'a> {
    pub(crate) physical: &'a PhysicalGraph,
    pub(crate) model: &'a CostModel,
    pub(crate) topo: &'a OpTopology,
    pub(crate) enumerator: &'a PlanEnumerator,
    pub(crate) bound: [Fixed64; 3],
    pub(crate) config: &'a SearchConfig,
    pub(crate) deadline: Option<Instant>,
    pub(crate) start: Instant,
}

/// What a backend hands back to `run_with_thresholds`.
pub(crate) struct BackendResult {
    /// Stored feasible plans (up to `max_plans`, in the order each
    /// backend documents).
    pub(crate) plans: Vec<ScoredPlan>,
    /// Run statistics in DFS-comparable units.
    pub(crate) stats: RunStats,
    /// Best-cost improvement points (empty when schedule-dependent).
    pub(crate) anytime: Vec<AnytimePoint>,
    /// MCTS diagnostics, `None` for the DFS.
    pub(crate) mcts: Option<MctsReport>,
    /// Per dimension, the smallest load that crossed the threshold bound
    /// on any pruned branch (`Fixed64::MAX` where no branch crossed it).
    /// Set only when the tree was explored completely; `None` when the
    /// run aborted, a first-feasible stop fired, or the backend samples
    /// instead of exhausting (MCTS). See
    /// [`SearchOutcome::overflow`](crate::search::SearchOutcome::overflow).
    pub(crate) overflow: Option<[Fixed64; 3]>,
}
