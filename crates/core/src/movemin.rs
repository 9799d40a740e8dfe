//! Minimum-movement placement: the cheapest plan near the optimum that
//! moves the least state.
//!
//! A reconfiguring controller rarely wants the *globally* best plan —
//! it wants a plan whose cost is close enough to the best while moving
//! as little operator state off its current workers as possible,
//! because every moved byte is paused-task downtime. This module
//! implements that trade as a post-search screen over the CAPS
//! search's feasible set:
//!
//! 1. run the ordinary [`CapsSearch`] (exhaustive within its
//!    configured store — callers pass a generous `max_plans` so the
//!    tolerance band fits in the capped feasible store);
//! 2. find the unconstrained optimum under the deterministic plan
//!    order (max cost component, then assignment);
//! 3. convert `optimum + ε` back into exact per-dimension
//!    [`Fixed64`](capsys_util::fixed::Fixed64) load bounds via
//!    [`CostModel::cost_to_load`](crate::CostModel::cost_to_load), so
//!    the tolerance screen is a pure integer mantissa compare —
//!    bit-exact, replay-safe, immune to float rounding at the band edge;
//! 4. among the plans inside the band, pick the one moving the fewest
//!    state bytes from the incumbent (ties: fewest tasks moved, then
//!    the plan order of step 2).
//!
//! The minimum is taken over the search's stored feasible set. The
//! capped store keeps the *cheapest* `max_plans` plans under the same
//! deterministic order, so whenever the store is not full — or the
//! band lies entirely within the stored prefix — the screen is exact
//! over the whole feasible space.

use capsys_model::{Placement, PlanDiff, StateModel};

use crate::error::CapsError;
use crate::search::{cmp_scored, CapsSearch, ScoredPlan, SearchConfig, SearchOutcome};

/// What [`min_movement_plan`] chose, and against what.
#[derive(Debug, Clone)]
pub struct MoveMinOutcome {
    /// The minimum-movement plan within the tolerance band.
    pub chosen: ScoredPlan,
    /// The unconstrained optimum the band is anchored to.
    pub optimum: ScoredPlan,
    /// Moves turning the incumbent into the chosen plan.
    pub diff: PlanDiff,
    /// How many stored feasible plans passed the tolerance screen.
    pub within_tolerance: usize,
    /// The underlying search outcome (stats, thresholds, full store).
    pub outcome: SearchOutcome,
}

/// Finds the cheapest-to-reach plan within `epsilon` of the optimum.
///
/// `epsilon` is an absolute slack on the plan cost's maximum component
/// (plan costs live in `[0, 1]` per dimension, so `0.05` means "within
/// five load-percentage points of the best"). The incumbent placement
/// and the state model must cover the search's physical graph.
pub fn min_movement_plan(
    search: &CapsSearch<'_>,
    config: &SearchConfig,
    epsilon: f64,
    incumbent: &Placement,
    state: &StateModel,
) -> Result<MoveMinOutcome, CapsError> {
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(CapsError::InvalidConfig(format!(
            "epsilon must be finite and non-negative, got {epsilon}"
        )));
    }
    let tasks = search.physical().num_tasks();
    if incumbent.num_tasks() != tasks || state.num_tasks() != tasks {
        return Err(CapsError::InvalidConfig(format!(
            "incumbent covers {} tasks and the state model {}, the graph has {tasks}",
            incumbent.num_tasks(),
            state.num_tasks()
        )));
    }

    let outcome = search.run(config)?;
    let optimum = outcome
        .feasible
        .iter()
        .min_by(|a, b| cmp_scored(a, b))
        .cloned()
        .ok_or(if outcome.stats.aborted {
            CapsError::BudgetExhausted
        } else {
            CapsError::NoFeasiblePlan
        })?;

    // The exact band edge: invert `optimum.max_component() + ε` into a
    // per-dimension load bound once, then screen candidates with pure
    // integer compares on their exact plan loads.
    let model = search.cost_model();
    let limit = optimum.cost.max_component() + epsilon;
    let bounds = [
        model.cost_to_load(0, limit),
        model.cost_to_load(1, limit),
        model.cost_to_load(2, limit),
    ];

    let moved = |p: &ScoredPlan| -> (u64, usize) {
        let mut bytes = 0u64;
        let mut count = 0usize;
        for (t, (a, b)) in incumbent
            .assignment()
            .iter()
            .zip(p.plan.assignment())
            .enumerate()
        {
            if a != b {
                bytes += state.state_bytes(capsys_model::TaskId(t));
                count += 1;
            }
        }
        (bytes, count)
    };

    let mut chosen: Option<(&ScoredPlan, (u64, usize))> = None;
    let mut within = 0usize;
    for cand in &outcome.feasible {
        let loads = model.plan_loads(search.physical(), &cand.plan);
        if loads.iter().zip(&bounds).any(|(l, b)| l > b) {
            continue;
        }
        within += 1;
        let key = moved(cand);
        let better = match &chosen {
            None => true,
            Some((inc, inc_key)) => {
                key < *inc_key || (key == *inc_key && cmp_scored(cand, inc).is_lt())
            }
        };
        if better {
            chosen = Some((cand, key));
        }
    }
    // The optimum itself always passes its own band, so `chosen` is set.
    let chosen = chosen
        .map(|(p, _)| p.clone())
        .ok_or(CapsError::NoFeasiblePlan)?;
    let diff = PlanDiff::between(incumbent, &chosen.plan, state).map_err(CapsError::Model)?;
    Ok(MoveMinOutcome {
        chosen,
        optimum,
        diff,
        within_tolerance: within,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, ResourceProfile, StateModel, WorkerSpec,
    };
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel, StateModel) {
        let mut b = LogicalGraph::builder("movemin");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let w = b.operator(
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
        b.edge(s, w, ConnectionPattern::Rebalance);
        b.edge(w, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(3, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        let sm = StateModel::derive(&g, &p, 1_000_000.0).unwrap();
        (g, p, c, lm, sm)
    }

    fn exhaustive() -> SearchConfig {
        SearchConfig {
            max_plans: usize::MAX / 2,
            ..SearchConfig::exhaustive()
        }
    }

    #[test]
    fn zero_epsilon_returns_a_cost_optimal_plan() {
        let (g, p, c, lm, sm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let outcome = search.run(&exhaustive()).unwrap();
        let best = outcome
            .feasible
            .iter()
            .min_by(|a, b| cmp_scored(a, b))
            .unwrap()
            .clone();
        let incumbent = best.plan.clone();
        let mm = min_movement_plan(&search, &exhaustive(), 0.0, &incumbent, &sm).unwrap();
        // With ε = 0 only cost-optimal plans pass; the incumbent IS one,
        // so zero movement wins.
        assert!(mm.diff.is_empty(), "moved {:?}", mm.diff.moves());
        assert_eq!(mm.chosen.plan, incumbent);
        assert_eq!(mm.optimum.plan, best.plan);
        assert!(mm.within_tolerance >= 1);
    }

    #[test]
    fn tolerance_trades_cost_for_fewer_moves() {
        let (g, p, c, lm, sm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let outcome = search.run(&exhaustive()).unwrap();
        // Pick as incumbent the stored plan FARTHEST (by moved bytes)
        // from the optimum, so the optimum costs movement.
        let best = outcome
            .feasible
            .iter()
            .min_by(|a, b| cmp_scored(a, b))
            .unwrap()
            .clone();
        let incumbent = outcome
            .feasible
            .iter()
            .max_by_key(|sp| {
                sp.plan
                    .assignment()
                    .iter()
                    .zip(best.plan.assignment())
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .unwrap()
            .plan
            .clone();
        let tight = min_movement_plan(&search, &exhaustive(), 0.0, &incumbent, &sm).unwrap();
        let loose = min_movement_plan(&search, &exhaustive(), 0.25, &incumbent, &sm).unwrap();
        // A wider band can only widen the candidate set and reduce the
        // moved bytes.
        assert!(loose.within_tolerance >= tight.within_tolerance);
        assert!(loose.diff.bytes_moved() <= tight.diff.bytes_moved());
        // The chosen plan's cost stays within ε of the optimum.
        assert!(
            loose.chosen.cost.max_component() <= loose.optimum.cost.max_component() + 0.25 + 1e-12
        );
        // Determinism: same inputs, same choice.
        let again = min_movement_plan(&search, &exhaustive(), 0.25, &incumbent, &sm).unwrap();
        assert_eq!(again.chosen.plan, loose.chosen.plan);
        assert_eq!(again.diff, loose.diff);
    }

    #[test]
    fn chosen_minimizes_bytes_over_the_band() {
        let (g, p, c, lm, sm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let epsilon = 0.1;
        let outcome = search.run(&exhaustive()).unwrap();
        let incumbent = outcome.feasible[outcome.feasible.len() / 2].plan.clone();
        let mm = min_movement_plan(&search, &exhaustive(), epsilon, &incumbent, &sm).unwrap();
        // Brute-force check against every stored plan inside the band.
        let limit = mm.optimum.cost.max_component() + epsilon;
        let model = search.cost_model();
        let bounds = [
            model.cost_to_load(0, limit),
            model.cost_to_load(1, limit),
            model.cost_to_load(2, limit),
        ];
        let mut best_bytes = u64::MAX;
        for cand in &outcome.feasible {
            let loads = model.plan_loads(&p, &cand.plan);
            if loads.iter().zip(&bounds).any(|(l, b)| l > b) {
                continue;
            }
            let bytes = PlanDiff::between(&incumbent, &cand.plan, &sm)
                .unwrap()
                .bytes_moved();
            best_bytes = best_bytes.min(bytes);
        }
        assert_eq!(mm.diff.bytes_moved(), best_bytes);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (g, p, c, lm, sm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let incumbent = Placement::new(vec![capsys_model::WorkerId(0); p.num_tasks()]);
        assert!(matches!(
            min_movement_plan(&search, &exhaustive(), f64::NAN, &incumbent, &sm),
            Err(CapsError::InvalidConfig(_))
        ));
        assert!(matches!(
            min_movement_plan(&search, &exhaustive(), -0.1, &incumbent, &sm),
            Err(CapsError::InvalidConfig(_))
        ));
        let short = Placement::new(vec![capsys_model::WorkerId(0); p.num_tasks() - 1]);
        assert!(matches!(
            min_movement_plan(&search, &exhaustive(), 0.1, &short, &sm),
            Err(CapsError::InvalidConfig(_))
        ));
    }
}
