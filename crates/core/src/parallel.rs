//! The CAPS DFS runner (§5.1): one work-stealing kernel for every
//! thread count.
//!
//! The paper parallelizes the search with a thread pool: "Each thread is
//! initially assigned to a random partition of the search space and can
//! subsequently dynamically offload work to other threads, if they become
//! available. Threads cache any satisfactory plan they identify locally.
//! When the search space has been fully explored, threads merge their
//! results and return the pareto-optimal solution."
//!
//! The unit of work is a prefix: the rows of the first few outer layers,
//! fixed, explored with [`PlanEnumerator::explore_with_prefix`].
//!
//! * With one thread, the whole tree is one unit, the root (the empty
//!   prefix), explored on the caller's thread. There is no sibling to
//!   steal, so it is never split; there is one plan cache, so nothing is
//!   merged. The store keeps discovery order and the anytime curve is
//!   reported, both deterministic.
//! * With more threads, each owns a [`capsys_util::deque::Worker`] deque
//!   (LIFO for the owner, FIFO for thieves), seeded round-robin with the
//!   depth-1 prefixes. A thread that picks up a unit while the global
//!   unit supply is low — or while a sibling has signalled starvation —
//!   expands it into its children (one more fixed layer) instead of
//!   exploring it, pushing them onto its own deque where thieves can
//!   take the oldest, coarsest ones. Splitting is capped at
//!   [`MAX_SPLIT_DEPTH`] layers, so prefix-replay overhead stays bounded
//!   and units finer than depth 1 are only made when someone needs the
//!   parallelism.
//!
//! Every split, the root's included, runs through a visitor
//! ([`PlanEnumerator::expand_prefix`]): the split layer's
//! placements are offered to it exactly as an unsplit traversal offers
//! them, and only the children it admits become units. Those children
//! cover every leaf of the parent's subtree, so without the store bound
//! the set of feasible plans found — and the `plans_found` statistic —
//! are independent of the steal schedule. Without the store bound, so is
//! the set of branches the threshold bound cuts, and with it the run's
//! overflow (`BackendResult::overflow`), which equals the one-thread
//! value.
//!
//! Threads additionally share a stop flag (first-feasible and abort
//! propagation). Every visitor polls its own deadline once per
//! `TIME_CHECK_MASK + 1` nodes; the thread that sees it pass raises the
//! stop flag for the rest.
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
use std::time::Duration;

use capsys_model::PlanEnumerator;
use capsys_util::deque::{Steal, Stealer, Worker};

use crate::error::CapsError;
use crate::search::{cmp_scored, CapsVisitor, RunStats, ScoredPlan, SearchConfig};
use crate::strategy::{BackendResult, Problem};

/// Maximum prefix depth for adaptive re-splitting. Deeper splits would
/// pay more prefix-replay overhead than the parallelism they buy.
const MAX_SPLIT_DEPTH: usize = 3;

/// A thread splits (rather than explores) a picked-up unit whenever the
/// global unit supply is below `threads * LOW_WATER`.
const LOW_WATER: usize = 4;

/// While a sibling is starving, splitting stays on until the supply
/// reaches `threads * HIGH_WATER`.
const HIGH_WATER: usize = 32;

/// How many failed steal sweeps a starving thread spin-yields before it
/// starts sleeping between sweeps.
const SPIN_SWEEPS: usize = 64;

/// A work unit: the rows of the first `len` outer layers, fixed.
type Unit = Vec<Vec<usize>>;

/// State shared by all workers of one run.
struct Shared {
    stealers: Vec<Stealer<Unit>>,
    /// Units created but not yet fully explored. Splitting a unit into
    /// `k` children adds `k - 1` *before* the children are published, so
    /// `in_flight == 0` proves the space is exhausted.
    in_flight: AtomicUsize,
    /// Number of threads currently failing to find work.
    starving: AtomicUsize,
    /// Cooperative stop: first-feasible hit, budget abort, or worker
    /// panic.
    stop: AtomicBool,
}

impl Shared {
    fn new(stealers: Vec<Stealer<Unit>>) -> Shared {
        Shared {
            stealers,
            in_flight: AtomicUsize::new(0),
            starving: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }
}

/// Runs the DFS on `config.threads` threads: one explores on the
/// caller's thread; more form a work-stealing pool whose per-thread plan
/// caches are merged.
pub(crate) fn run(ctx: &Problem<'_>) -> Result<BackendResult, CapsError> {
    let threads = ctx.config.threads;
    if threads == 1 {
        return Ok(run_on_caller(ctx));
    }

    let deques: Vec<Worker<Unit>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let shared = Shared::new(deques.iter().map(|d| d.stealer()).collect());
    // The seed units are the root's children that the bound admits,
    // offered to a visitor exactly as the one-thread traversal offers
    // them, so its cut branches count toward the overflow.
    let mut root = new_visitor(ctx, &shared);
    let units = ctx.enumerator.expand_prefix(&[], &mut root);
    let mut overflow = root.overflow();
    let mut stats = RunStats {
        threads,
        aborted: root.was_aborted(),
        ..RunStats::default()
    };
    if stats.aborted {
        shared.stop.store(true, Ordering::Relaxed);
    }
    shared.in_flight.store(units.len(), Ordering::Release);
    for (i, u) in units.into_iter().enumerate() {
        deques[i % threads].push(u);
    }

    let mut merged: Vec<ScoredPlan> = Vec::new();
    let mut panicked = false;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (idx, my) in deques.into_iter().enumerate() {
            let shared = &shared;
            handles.push(scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut visitor = new_visitor(ctx, shared);
                    let mut local = RunStats::default();
                    worker_loop(idx, &my, ctx.enumerator, shared, &mut visitor, &mut local);
                    let overflow = visitor.overflow();
                    let found = harvest(visitor, &mut local);
                    (found, local, overflow)
                }));
                // A panicking thread's subtree is incomplete, so the run
                // must fail; stop the siblings.
                if result.is_err() {
                    shared.stop.store(true, Ordering::Relaxed);
                }
                result.ok()
            }));
        }

        for h in handles {
            match h.join() {
                Ok(Some((found, local, theirs))) => {
                    merged.extend(found);
                    overflow = overflow
                        .zip(theirs)
                        .map(|(mine, theirs)| [0, 1, 2].map(|d| mine[d].min(theirs[d])));
                    stats.nodes += local.nodes;
                    stats.pruned += local.pruned;
                    stats.plans_found += local.plans_found;
                    stats.aborted |= local.aborted;
                }
                Ok(None) | Err(_) => {
                    shared.stop.store(true, Ordering::Relaxed);
                    panicked = true;
                }
            }
        }
    });

    if panicked {
        return Err(CapsError::SearchPanicked);
    }

    stats.elapsed = ctx.start.elapsed();
    Ok(BackendResult {
        plans: finalize_merge(merged, ctx.config),
        stats,
        // Improvement times depend on the steal schedule; reporting them
        // would leak nondeterminism into the outcome.
        anytime: Vec::new(),
        mcts: None,
        overflow: overflow.filter(|_| complete(&shared, &stats)),
    })
}

/// The one-thread run: the root unit on the caller's thread, with no
/// deque, no spawned thread and no merge. The store keeps discovery
/// order, which `best_scored` relies on to break exact cost ties.
fn run_on_caller(ctx: &Problem<'_>) -> BackendResult {
    let shared = Shared::new(Vec::new());
    let mut visitor = new_visitor(ctx, &shared);
    let mut stats = RunStats {
        threads: 1,
        ..RunStats::default()
    };
    explore_unit(ctx.enumerator, &[], &mut visitor, &mut stats);
    let anytime = visitor.take_anytime();
    let overflow = visitor.overflow();
    let plans = harvest(visitor, &mut stats);
    stats.elapsed = ctx.start.elapsed();
    BackendResult {
        plans,
        stats,
        anytime,
        mcts: None,
        overflow: overflow.filter(|_| complete(&shared, &stats)),
    }
}

/// Whether the run explored its whole tree: no budget abort and no stop
/// (first-feasible hit, abort or panic) raised. Only then is the minimum
/// overflow over the pruned branches a bound on every plan (a visitor
/// whose store bound cut a branch reports none of its own).
fn complete(shared: &Shared, stats: &RunStats) -> bool {
    !stats.aborted && !shared.stop.load(Ordering::Relaxed)
}

/// A visitor wired to the run's problem, deadline and shared cells.
fn new_visitor<'a>(ctx: &Problem<'a>, shared: &'a Shared) -> CapsVisitor<'a> {
    CapsVisitor::new(
        ctx.physical,
        ctx.model,
        ctx.topo,
        ctx.bound,
        ctx.config,
        ctx.deadline,
        &shared.stop,
    )
}

/// Explores one unit's subtree and adds its counts to `local`.
fn explore_unit(
    enumerator: &PlanEnumerator,
    unit: &[Vec<usize>],
    visitor: &mut CapsVisitor<'_>,
    local: &mut RunStats,
) {
    let s = enumerator.explore_with_prefix(unit, visitor);
    local.nodes += s.nodes;
    local.pruned += s.pruned;
    local.plans_found += s.plans;
}

/// Folds the visitor's abort flag into `local` and returns its plan
/// cache in discovery order.
fn harvest(visitor: CapsVisitor<'_>, local: &mut RunStats) -> Vec<ScoredPlan> {
    local.aborted |= visitor.was_aborted();
    visitor.into_found()
}

/// The per-thread scheduling loop: pop own work, steal when empty, split
/// units while siblings starve, explore otherwise.
fn worker_loop(
    idx: usize,
    my: &Worker<Unit>,
    enumerator: &PlanEnumerator,
    shared: &Shared,
    visitor: &mut CapsVisitor<'_>,
    local: &mut RunStats,
) {
    // Test-only fault hook: lets an integration test (running in its own
    // process) prove that a worker panic surfaces as `SearchPanicked`
    // instead of hanging the remaining workers. Checked once per thread
    // per search, so the env lookup costs nothing on the hot path.
    if idx == 1 && std::env::var_os("CAPSYS_TEST_PANIC_SEARCH").is_some() {
        panic!("induced worker panic (CAPSYS_TEST_PANIC_SEARCH)");
    }

    let threads = shared.stealers.len();
    let split_cap = MAX_SPLIT_DEPTH.min(enumerator.order().len());
    let mut starving = false;
    let mut idle_sweeps = 0usize;
    while !shared.stop.load(Ordering::Relaxed) {
        // Acquire: own deque first (LIFO), then sweep the siblings'
        // stealers starting after our own slot (FIFO — coarsest unit).
        let mut saw_retry = false;
        let unit = my.pop().or_else(|| {
            for k in 1..threads {
                match shared.stealers[(idx + k) % threads].steal() {
                    Steal::Success(u) => return Some(u),
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            None
        });

        let Some(unit) = unit else {
            if !saw_retry && shared.in_flight.load(Ordering::Acquire) == 0 {
                break; // Space exhausted.
            }
            if !starving {
                starving = true;
                shared.starving.fetch_add(1, Ordering::Relaxed);
            }
            idle_sweeps += 1;
            if idle_sweeps < SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
            continue;
        };
        if starving {
            starving = false;
            shared.starving.fetch_sub(1, Ordering::Relaxed);
        }
        idle_sweeps = 0;

        // Adaptive re-split: while units are scarce (or a sibling is
        // starving), publish this unit's children instead of exploring
        // it, so thieves can lift whole subtrees off our deque. The
        // visitor sees the split layer's placements as the one-thread
        // traversal would, and children it cuts are dropped; a unit
        // with no admitted child is finished.
        let supply = shared.in_flight.load(Ordering::Relaxed);
        let hungry = shared.starving.load(Ordering::Relaxed) > 0;
        if unit.len() < split_cap
            && (supply < threads * LOW_WATER || (hungry && supply < threads * HIGH_WATER))
        {
            let children = enumerator.expand_prefix(&unit, visitor);
            match children.len() {
                0 => {
                    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
                n => {
                    shared.in_flight.fetch_add(n - 1, Ordering::AcqRel);
                    for child in children {
                        my.push(child);
                    }
                }
            }
        } else {
            explore_unit(enumerator, &unit, visitor, local);
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
        if visitor.was_aborted() {
            // A budget ran out (or a sibling's stop landed): make sure
            // every sibling stops too.
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
    }

    if starving {
        shared.starving.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Applies the storage cap and first-feasible truncation to the merged
/// per-thread caches, without touching the run statistics.
///
/// Plans are ranked by the total order [`cmp_scored`], so the retained
/// set — and its order — is a deterministic function of the *set* of
/// plans the threads found, not of the steal schedule that found them.
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
