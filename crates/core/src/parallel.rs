//! The CAPS DFS runner (§5.1): one loop for every thread count.
//!
//! The paper parallelizes the search with a thread pool: "Each thread is
//! initially assigned to a random partition of the search space and can
//! subsequently dynamically offload work to other threads, if they become
//! available. Threads cache any satisfactory plan they identify locally.
//! When the search space has been fully explored, threads merge their
//! results and return the pareto-optimal solution."
//!
//! The unit of work is a prefix: the rows of the first few outer layers,
//! fixed, explored with [`PlanEnumerator::explore_with_prefix`]. Before
//! any thread starts, the caller splits the tree into units, one layer
//! at a time and in DFS order, until there are at least
//! `threads * UNITS_PER_THREAD` units or the units fix
//! `MAX_SPLIT_DEPTH` layers. Threads then claim units in that order from
//! one shared cursor, so work is shared dynamically (a thread that
//! finishes early claims the next unit) and the first units claimed are
//! the ones a one-thread run explores first, whose plans prune best.
//!
//! * With one thread, the split stops at the root (the empty prefix),
//!   which is explored on the caller's thread: nothing is spawned or
//!   merged. The store keeps discovery order and the anytime curve is
//!   reported, both deterministic.
//! * With more threads, each explores its claimed units with its own
//!   visitor and plan cache, and the caches are merged under a total
//!   order (`finalize_merge`).
//!
//! The split runs through one visitor ([`PlanEnumerator::expand_prefix`]):
//! each split layer's placements are offered to it exactly as an
//! unsplit traversal offers them, and only the children it admits become
//! units. Those children cover every leaf of the parent's subtree, so
//! without the store bound the set of feasible plans found — and the
//! `plans_found` statistic — are independent of the thread count and of
//! which thread claims which unit. Without the store bound, so is the
//! set of branches the threshold bound cuts, and with it the run's
//! overflow (`BackendResult::overflow`), which equals the one-thread
//! value.
//!
//! Threads additionally share a stop flag (first-feasible and abort
//! propagation) and a node count. Every visitor polls once per 1,024
//! nodes: it adds its nodes to the shared count and checks that count
//! against the node budget and the clock against its deadline; the
//! thread that sees either run out raises the stop flag for the rest.
//!
//! Under store-bound pruning ([`SearchConfig::incumbent_prune`]) each
//! visitor prunes against its own full local store and nothing else is
//! shared. The merged top-`max_plans` is still exact: a plan a thread
//! cuts costs more than every plan that thread holds, so it ranks below
//! `max_plans` merged plans.
//!
//! With more than one thread, a worker that panics is caught, the
//! remaining workers are stopped and joined cleanly, and the run returns
//! [`CapsError::SearchPanicked`] instead of poisoning the whole process.
//! With one thread the panic unwinds to the caller.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use capsys_model::{PlanEnumerator, SearchStats};
use capsys_util::fixed::Fixed64;

use crate::error::CapsError;
use crate::search::{cmp_scored, CapsVisitor, RunStats, ScoredPlan, SearchConfig};
use crate::strategy::{BackendResult, Problem};

/// Deepest prefix the split makes. Deeper units would pay more
/// prefix-replay overhead than the parallelism they buy.
const MAX_SPLIT_DEPTH: usize = 3;

/// The split stops once it has this many units per thread, so a thread
/// that finishes early has units left to claim. More per thread make
/// the caller expand deeper layers serially before any thread starts. On
/// two threads of a 2-vCPU VM, Fig. 10a's 128-task α⃗₂/α⃗₃ first-feasible
/// cells take under 1 ms at 2 per thread and 21–38 ms at 4; at 32 per
/// thread its 256-task cells take 0.1–4 s instead of about 3 ms.
const UNITS_PER_THREAD: usize = 2;

/// A work unit: the rows of the first `len` outer layers, fixed.
type Unit = Vec<Vec<usize>>;

/// State shared by all workers of one run.
#[derive(Default)]
struct Shared {
    /// Index of the next unclaimed unit.
    cursor: AtomicUsize,
    /// Cooperative stop: first-feasible hit, budget abort, or worker
    /// panic.
    stop: AtomicBool,
    /// Nodes of all visitors, added at their polls (the node budget).
    nodes: AtomicUsize,
}

/// Runs the DFS on `config.threads` threads: the caller splits the tree
/// into units, which one thread explores on the caller's thread and
/// more threads claim from a shared cursor, merging their plan caches.
pub(crate) fn run(ctx: &Problem<'_>) -> Result<BackendResult, CapsError> {
    let threads = ctx.config.threads;
    let shared = Shared::default();
    let mut root = CapsVisitor::new(ctx, &shared.stop, &shared.nodes);
    let units = split(ctx.enumerator, threads, &mut root);
    if root.was_aborted() {
        shared.stop.store(true, Ordering::Relaxed);
    }

    let explored = if threads == 1 {
        // The split visitor explores the root unit on the caller's
        // thread: its store keeps discovery order, which `best_scored`
        // relies on to break exact cost ties.
        let counts = work(0, ctx.enumerator, &units, &shared, &mut root);
        vec![(root, counts)]
    } else {
        // The split visitor's cut branches count toward the overflow.
        let mut explored = vec![(root, SearchStats::default())];
        let mut panicked = false;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|idx| {
                    let (shared, units) = (&shared, &units);
                    scope.spawn(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut visitor = CapsVisitor::new(ctx, &shared.stop, &shared.nodes);
                            let counts = work(idx, ctx.enumerator, units, shared, &mut visitor);
                            (visitor, counts)
                        }));
                        // A panicking thread's units are incomplete, so
                        // the run must fail; stop the siblings.
                        if result.is_err() {
                            shared.stop.store(true, Ordering::Relaxed);
                        }
                        result.ok()
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Some(done)) => explored.push(done),
                    Ok(None) | Err(_) => panicked = true,
                }
            }
        });
        if panicked {
            return Err(CapsError::SearchPanicked);
        }
        explored
    };

    let mut stats = RunStats {
        threads,
        ..RunStats::default()
    };
    let mut overflow = Some([Fixed64::MAX; 3]);
    let mut plans = Vec::new();
    let mut anytime = Vec::new();
    for (mut visitor, counts) in explored {
        stats.nodes += counts.nodes;
        stats.pruned += counts.pruned;
        stats.plans_found += counts.plans;
        stats.aborted |= visitor.was_aborted();
        overflow = overflow
            .zip(visitor.overflow())
            .map(|(mine, theirs)| [0, 1, 2].map(|d| mine[d].min(theirs[d])));
        anytime.extend(visitor.take_anytime());
        plans.extend(visitor.into_found());
    }
    if threads > 1 {
        // Discovery order and improvement times depend on which thread
        // claimed which unit, so neither is reported.
        plans = finalize_merge(plans, ctx.config);
        anytime.clear();
    }
    // Only a run that explored its whole tree (no abort and no stop
    // raised) has an overflow that bounds every plan.
    let complete = !stats.aborted && !shared.stop.load(Ordering::Relaxed);
    stats.elapsed = ctx.start.elapsed();
    Ok(BackendResult {
        plans,
        stats,
        anytime,
        mcts: None,
        overflow: overflow.filter(|_| complete),
    })
}

/// Splits the tree into units for `threads` threads, one layer at a time
/// in DFS order, through `visitor`. One thread gets the root unit.
fn split(enumerator: &PlanEnumerator, threads: usize, visitor: &mut CapsVisitor<'_>) -> Vec<Unit> {
    let depth = MAX_SPLIT_DEPTH.min(enumerator.order().len());
    let mut units: Vec<Unit> = vec![Vec::new()];
    for _ in 0..depth {
        if threads == 1 || units.len() >= threads * UNITS_PER_THREAD || visitor.was_aborted() {
            break;
        }
        units = units
            .iter()
            .flat_map(|u| enumerator.expand_prefix(u, visitor))
            .collect();
    }
    units
}

/// One thread's loop: claim the next unit, explore it, repeat until the
/// units run out or the run stops. Returns the explored units' counts.
fn work(
    idx: usize,
    enumerator: &PlanEnumerator,
    units: &[Unit],
    shared: &Shared,
    visitor: &mut CapsVisitor<'_>,
) -> SearchStats {
    // Test-only fault hook: lets an integration test (running in its own
    // process) prove that a worker panic surfaces as `SearchPanicked`
    // instead of hanging the remaining workers. Checked once per thread
    // per search, so the env lookup costs nothing on the hot path.
    if idx == 1 && std::env::var_os("CAPSYS_TEST_PANIC_SEARCH").is_some() {
        panic!("induced worker panic (CAPSYS_TEST_PANIC_SEARCH)");
    }

    let mut counts = SearchStats::default();
    while !shared.stop.load(Ordering::Relaxed) {
        let Some(unit) = units.get(shared.cursor.fetch_add(1, Ordering::Relaxed)) else {
            break;
        };
        let s = enumerator.explore_with_prefix(unit, visitor);
        counts.nodes += s.nodes;
        counts.pruned += s.pruned;
        counts.plans += s.plans;
        if visitor.was_aborted() {
            // A budget ran out (or a sibling's stop landed): make sure
            // every sibling stops too.
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
    }
    counts
}

/// Applies the storage cap and first-feasible truncation to the merged
/// per-thread caches, without touching the run statistics.
///
/// Plans are ranked by the total order [`cmp_scored`], so the retained
/// set — and its order — is a deterministic function of the *set* of
/// plans the threads found, not of which thread found which plan.
pub(crate) fn finalize_merge(
    mut merged: Vec<ScoredPlan>,
    config: &SearchConfig,
) -> Vec<ScoredPlan> {
    if config.first_feasible && merged.len() > 1 {
        // Keep one witness. The stats still report every plan the race
        // found before the stop flag landed.
        if let Some(best) = merged.into_iter().min_by(cmp_scored) {
            return vec![best];
        }
        return Vec::new();
    }
    if merged.len() > config.max_plans {
        // Partition around the cap instead of sorting the full set.
        merged.select_nth_unstable_by(config.max_plans, cmp_scored);
        merged.truncate(config.max_plans);
    }
    merged.sort_by(cmp_scored);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostVector, Thresholds};
    use crate::search::CapsSearch;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, Placement, ResourceProfile, WorkerSpec,
    };
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let m = b.operator(
            "map",
            OperatorKind::Stateless,
            3,
            ResourceProfile::new(0.001, 0.0, 80.0, 1.0),
        );
        let h = b.operator(
            "win",
            OperatorKind::Window,
            5,
            ResourceProfile::new(0.002, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
        );
        b.edge(s, m, ConnectionPattern::Rebalance);
        b.edge(m, h, ConnectionPattern::Hash);
        b.edge(h, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(3, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn parallel_matches_sequential_plan_count() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let th = Thresholds::new(0.6, 0.6, 0.9);
        let seq = search
            .run(&crate::search::SearchConfig {
                max_plans: usize::MAX / 2,
                ..crate::search::SearchConfig::with_thresholds(th)
            })
            .unwrap();
        let par = search
            .run(&crate::search::SearchConfig {
                max_plans: usize::MAX / 2,
                threads: 4,
                ..crate::search::SearchConfig::with_thresholds(th)
            })
            .unwrap();
        assert_eq!(seq.stats.plans_found, par.stats.plans_found);
        assert_eq!(seq.feasible.len(), par.feasible.len());
        // Same canonical plan sets regardless of thread interleaving.
        let key = |plans: &[ScoredPlan]| {
            let mut ks: Vec<_> = plans
                .iter()
                .map(|s| s.plan.canonical_key(&p, c.num_workers()))
                .collect();
            ks.sort();
            ks
        };
        assert_eq!(key(&seq.feasible), key(&par.feasible));
    }

    #[test]
    fn parallel_first_feasible_returns_one_plan() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(
                &crate::search::SearchConfig::exhaustive()
                    .with_threads(4)
                    .first_feasible(),
            )
            .unwrap();
        assert_eq!(out.feasible.len(), 1);
        out.feasible[0].plan.validate(&p, &c).unwrap();
        // Regression: truncating storage to one witness must not rewrite
        // the statistics — they report what the race actually found.
        assert!(out.stats.plans_found >= 1);
    }

    #[test]
    fn parallel_costs_match_cost_model() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&crate::search::SearchConfig {
                threads: 3,
                max_plans: usize::MAX / 2,
                ..crate::search::SearchConfig::exhaustive()
            })
            .unwrap();
        let model = search.cost_model();
        for s in out.feasible.iter().take(50) {
            let exact = model.cost(&p, &s.plan);
            assert!((exact.cpu - s.cost.cpu).abs() < 1e-9);
            assert!((exact.io - s.cost.io).abs() < 1e-9);
            assert!((exact.net - s.cost.net).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_incumbent_prune_finds_the_best_plan() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let full = search
            .run(&crate::search::SearchConfig {
                max_plans: usize::MAX / 2,
                ..crate::search::SearchConfig::exhaustive()
            })
            .unwrap();
        let best_cost = full
            .feasible
            .iter()
            .map(|s| s.cost.max_component())
            .fold(f64::INFINITY, f64::min);
        let single = |threads: usize| crate::search::SearchConfig {
            threads,
            max_plans: 1,
            ..crate::search::SearchConfig::exhaustive()
        };
        let unpruned = search.run(&single(1)).unwrap();
        for threads in [1, 4] {
            let pruned = search.run(&single(threads).incumbent_pruned()).unwrap();
            assert!(!pruned.feasible.is_empty());
            // A one-plan store bounds the search by the best plan so far,
            // so every survivor ties the optimum...
            for s in &pruned.feasible {
                assert!((s.cost.max_component() - best_cost).abs() < 1e-9);
            }
            // ...and it is the plan the unpruned one-plan store keeps.
            assert_eq!(pruned.feasible, unpruned.feasible);
        }
        // At one thread the store bound only ever removes nodes. Above
        // one, each thread's store starts empty and node counts include
        // prefix replays, so they can exceed the unpruned run's.
        let pruned = search.run(&single(1).incumbent_pruned()).unwrap();
        assert!(pruned.stats.nodes < full.stats.nodes);
    }

    fn scored(max: f64, tag: usize) -> ScoredPlan {
        // Distinct single-task plans so the assignment tie-break kicks in.
        ScoredPlan {
            plan: Placement::new(vec![capsys_model::WorkerId(tag)]),
            cost: CostVector::new(max, 0.0, 0.0),
        }
    }

    #[test]
    fn finalize_merge_caps_and_orders_deterministically() {
        let config = crate::search::SearchConfig {
            max_plans: 2,
            ..crate::search::SearchConfig::exhaustive()
        };
        // Two arrival orders of the same set give the same result.
        let a = vec![scored(0.5, 0), scored(0.1, 1), scored(0.3, 2)];
        let b = vec![scored(0.3, 2), scored(0.5, 0), scored(0.1, 1)];
        let fa = finalize_merge(a, &config);
        let fb = finalize_merge(b, &config);
        assert_eq!(fa, fb);
        assert_eq!(fa.len(), 2);
        assert!(fa[0].cost.max_component() <= fa[1].cost.max_component());
    }

    #[test]
    fn finalize_merge_first_feasible_keeps_stats_untouched() {
        // The first-feasible truncation must not pretend only one plan
        // was found: finalize_merge never touches stats at all, it only
        // picks the deterministic best witness.
        let config = crate::search::SearchConfig::exhaustive().first_feasible();
        let merged = vec![scored(0.5, 0), scored(0.1, 1)];
        let out = finalize_merge(merged, &config);
        assert_eq!(out.len(), 1);
        assert!((out[0].cost.max_component() - 0.1).abs() < 1e-12);
    }
}
