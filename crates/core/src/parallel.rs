//! The CAPS DFS runner (§5.1): one loop for every thread count.
//!
//! The paper parallelizes the search with a thread pool: "Each thread is
//! initially assigned to a random partition of the search space and can
//! subsequently dynamically offload work to other threads, if they become
//! available. Threads cache any satisfactory plan they identify locally.
//! When the search space has been fully explored, threads merge their
//! results and return the pareto-optimal solution."
//!
//! Most searches are small: spawning threads would cost more than it
//! saves. So every search starts on the caller's thread, with one
//! visitor over the whole tree. A search that may use more threads
//! ([`SearchConfig::threads`]) and is still running after
//! [`SPLIT_AFTER`] nodes starts over as a split search; a small search
//! spawns nothing and reads no clock or environment beyond the
//! one-thread path's. The restart's nodes add to the first attempt's in
//! the node budget and in `RunStats::nodes`; `pruned`, `plans_found`,
//! the overflow and the stored plans come from the restart alone, which
//! explores the whole tree again.
//!
//! The unit of work of a split search is a prefix: the rows of the first
//! few outer layers, fixed, explored with
//! [`PlanEnumerator::explore_with_prefix`]. The caller splits the tree
//! into units, one layer at a time and in DFS order, until there are at
//! least `threads * UNITS_PER_THREAD` units or the units fix
//! `MAX_SPLIT_DEPTH` layers. The caller and `threads - 1` spawned threads
//! then claim units in that order from one shared cursor, so work is
//! shared dynamically (a thread that finishes early claims the next unit)
//! and the first units claimed are the ones a one-thread run explores
//! first, whose plans prune best.
//!
//! Unlike the paper's per-thread caches, all visitors of a run offer
//! their plans to one store of the `max_plans` best plans under the
//! total order `cmp_scored`, behind a lock. A store that keeps the
//! `max_plans` best plans offered is a function of the set offered, so
//! the stored plans do not depend on which thread found which plan; they
//! are returned in `cmp_scored` order (`finalize_merge`), so the result
//! does not show whether the search split either. One store also keeps a
//! split search's memory at one store's: per-thread caches of 1,024
//! plans each raised perfbench `place`'s peak RSS by 13–16% on two
//! threads, since each thread allocates from its own malloc arena. For
//! the same reason a full store writes a new plan into the buffer of the
//! plan it evicts, and a restart recycles the first attempt's plan
//! buffers, so the spawned threads allocate almost no plan memory. A
//! visitor rejects a leaf that costs more than the smallest worst stored
//! cost it has seen (the store bound below) before it takes the lock: the
//! worst stored cost only falls, so the store would reject that leaf too.
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
//! Visitors also share a stop flag (first-feasible and abort
//! propagation), a node count and the store bound. Every visitor polls
//! once per 1,024 nodes: it adds its nodes to the shared count and checks
//! that count against the node budget and the clock against its
//! deadline, and the thread that sees either run out raises the stop flag
//! for the rest. A visitor that finds the store full publishes the worst
//! stored cost through `fetch_min` on one atomic, and every visitor reads
//! it at its poll (and when it starts) and screens leaves against it;
//! under store-bound pruning ([`SearchConfig::incumbent_prune`]) it also
//! prunes branches against it, admitting ties like its own cut. A restart
//! keeps the first attempt's bound: those plans are in the tree, so a
//! plan that costs more than the worst of them ranks below `max_plans`
//! plans of the result (of a restart that runs to the end; one that
//! aborts may keep fewer plans than a search that never split).
//!
//! A split search catches a panic on any of its threads, stops and joins
//! the others cleanly, and returns [`CapsError::SearchPanicked`] instead
//! of poisoning the whole process. A search that never split lets the
//! panic unwind to the caller.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use capsys_model::{PlanEnumerator, SearchStats};
use capsys_util::fixed::Fixed64;
use capsys_util::sync::Mutex;

use crate::error::CapsError;
use crate::search::{cmp_scored, CapsVisitor, RunStats, ScoredPlan, SearchConfig};
use crate::store::PlanStore;
use crate::strategy::{BackendResult, Problem};

/// Nodes a multi-thread search explores on the caller's thread before it
/// restarts as a split search. Below it, thread start-up and the split's
/// prefix replays cost more than the threads save. On perfbench `place`
/// (2-vCPU VM), nearly every final search ends within a few hundred
/// nodes, while the few that dominate its latency take 10^5 nodes or
/// more, so the constant only needs to sit between the two.
pub const SPLIT_AFTER: usize = 5_000;

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

/// State shared by all visitors of one run.
pub(crate) struct Shared {
    /// The `max_plans` best plans found so far under [`cmp_scored`].
    pub(crate) store: Mutex<PlanStore>,
    /// Index of the next unclaimed unit.
    cursor: AtomicUsize,
    /// Cooperative stop: first-feasible hit, budget abort, or worker
    /// panic.
    pub(crate) stop: AtomicBool,
    /// Nodes of all visitors, added at their polls (the node budget).
    pub(crate) nodes: AtomicUsize,
    /// The bits of the full store's worst `max_component` cost
    /// (`f64::INFINITY` before it fills), lowered with `fetch_min`;
    /// non-negative `f64`s order like their bits.
    pub(crate) store_bound: AtomicU64,
}

impl Shared {
    fn new(max_plans: usize) -> Shared {
        Shared {
            store: Mutex::new(PlanStore::new(max_plans)),
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            nodes: AtomicUsize::new(0),
            store_bound: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

/// Runs the DFS: on the caller's thread, and split over
/// `config.threads` threads if it outgrows `split_after` nodes. Searches
/// pass [`SPLIT_AFTER`]; tests pass 0 to split every multi-thread run.
pub(crate) fn run(ctx: &Problem<'_>, split_after: usize) -> Result<BackendResult, CapsError> {
    let (threads, budget) = (
        ctx.config.threads,
        ctx.config.node_budget.unwrap_or(usize::MAX),
    );
    let shared = Shared::new(ctx.config.max_plans);
    let may_split = threads > 1 && budget > split_after;
    let mut first = CapsVisitor::new(ctx, &shared, if may_split { split_after } else { budget });
    let counts = ctx.enumerator.explore(&mut first);
    if !(may_split && first.ran_out_of_nodes()) {
        return Ok(merge(ctx, &shared, 1, 0, vec![(first, counts)]));
    }

    // Start over split, keeping only the first attempt's node count and
    // store bound: its plans are found again.
    drop(first);
    shared.store.lock().recycle();
    shared.nodes.store(0, Ordering::Relaxed);
    let mut root = CapsVisitor::new(ctx, &shared, budget - split_after);
    let units = split(ctx.enumerator, threads, &mut root);
    if root.was_aborted() {
        shared.stop.store(true, Ordering::Relaxed);
    }
    let mut explored = Vec::with_capacity(threads);
    let mut panicked = false;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|idx| {
                let (shared, units) = (&shared, &units);
                scope.spawn(move || {
                    guarded(shared, || {
                        let mut visitor = CapsVisitor::new(ctx, shared, budget - split_after);
                        let counts = work(idx, ctx.enumerator, units, shared, &mut visitor);
                        (visitor, counts)
                    })
                })
            })
            .collect();
        match guarded(&shared, || {
            work(0, ctx.enumerator, &units, &shared, &mut root)
        }) {
            Some(counts) => explored.push((root, counts)),
            None => panicked = true,
        }
        for h in helpers {
            match h.join() {
                Ok(Some(done)) => explored.push(done),
                Ok(None) | Err(_) => panicked = true,
            }
        }
    });
    if panicked {
        return Err(CapsError::SearchPanicked);
    }
    Ok(merge(ctx, &shared, threads, counts.nodes, explored))
}

/// Runs `f`, turning a panic into `None` and a stop for the other
/// threads: a panicking thread's units are incomplete, so the run must
/// fail.
fn guarded<T>(shared: &Shared, f: impl FnOnce() -> T) -> Option<T> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if result.is_err() {
        shared.stop.store(true, Ordering::Relaxed);
    }
    result.ok()
}

/// Merges the visitors of a run on `threads` threads, whose first
/// attempt, if it was restarted, took `restarted_nodes` nodes.
fn merge(
    ctx: &Problem<'_>,
    shared: &Shared,
    threads: usize,
    restarted_nodes: usize,
    explored: Vec<(CapsVisitor<'_>, SearchStats)>,
) -> BackendResult {
    let mut stats = RunStats {
        threads,
        nodes: restarted_nodes,
        ..RunStats::default()
    };
    let mut overflow = Some([Fixed64::MAX; 3]);
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
    }
    if threads > 1 {
        // Improvement times depend on which thread claimed which unit.
        anytime.clear();
    }
    // Only a run that explored its whole tree (no abort and no stop
    // raised) has an overflow that bounds every plan.
    let complete = !stats.aborted && !shared.stop.load(Ordering::Relaxed);
    stats.elapsed = ctx.start.elapsed();
    let plans = shared.store.lock().take_plans();
    BackendResult {
        plans: finalize_merge(plans, ctx.config),
        stats,
        anytime,
        mcts: None,
        overflow: overflow.filter(|_| complete),
    }
}

/// Splits the tree into units for `threads` threads, one layer at a time
/// in DFS order, through `visitor`.
fn split(enumerator: &PlanEnumerator, threads: usize, visitor: &mut CapsVisitor<'_>) -> Vec<Unit> {
    let depth = MAX_SPLIT_DEPTH.min(enumerator.order().len());
    let mut units: Vec<Unit> = vec![Vec::new()];
    for _ in 0..depth {
        if units.len() >= threads * UNITS_PER_THREAD || visitor.was_aborted() {
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
    // of a split search, so the env lookup costs nothing on the hot path
    // and small searches never make it.
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

/// Applies the first-feasible truncation to the stored plans, without
/// touching the run statistics, and returns the kept plans in
/// [`cmp_scored`] order.
///
/// The store keeps the `max_plans` best plans offered, so the returned
/// set — and its order — is a deterministic function of the *set* of
/// plans the threads found, not of which thread found which plan.
pub(crate) fn finalize_merge(
    mut stored: Vec<ScoredPlan>,
    config: &SearchConfig,
) -> Vec<ScoredPlan> {
    stored.sort_unstable_by(cmp_scored);
    if config.first_feasible {
        // Keep one witness. The stats still report every plan the race
        // found before the stop flag landed.
        stored.truncate(1);
    }
    stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostVector, Thresholds};
    use crate::search::{CapsSearch, SearchOutcome};
    use capsys_model::{
        count_plans, Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, Placement, ResourceProfile, WorkerSpec,
    };
    use capsys_util::forall;
    use capsys_util::prop::{floats, ints, vec_of, Config};
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

    /// Runs `config` at `thresholds`, splitting a multi-thread run at its
    /// first node, and asserts that it ran on `config.threads` threads.
    /// The fixtures here are far smaller than [`SPLIT_AFTER`] nodes, so
    /// without the forced split every run would stay on one thread.
    fn run_split(
        search: &CapsSearch<'_>,
        thresholds: Thresholds,
        config: &SearchConfig,
    ) -> SearchOutcome {
        let out = search.run_split_after(&thresholds, config, 0).unwrap();
        assert_eq!(out.stats.threads, config.threads, "the run did not split");
        out
    }

    #[test]
    fn parallel_matches_sequential_plan_count() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let th = Thresholds::new(0.6, 0.6, 0.9);
        let config = |threads| SearchConfig {
            max_plans: usize::MAX / 2,
            threads,
            ..SearchConfig::with_thresholds(th)
        };
        let seq = search.run(&config(1)).unwrap();
        let par = run_split(&search, th, &config(4));
        assert_eq!(seq.stats.plans_found, par.stats.plans_found);
        // The same plans in the same `cmp_scored` order.
        assert_eq!(seq.feasible, par.feasible);
    }

    #[test]
    fn parallel_first_feasible_returns_one_plan() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let config = SearchConfig::exhaustive().with_threads(4).first_feasible();
        let out = run_split(&search, Thresholds::unbounded(), &config);
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
        let config = SearchConfig {
            threads: 3,
            max_plans: usize::MAX / 2,
            ..SearchConfig::exhaustive()
        };
        let out = run_split(&search, Thresholds::unbounded(), &config);
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
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        let best_cost = full
            .feasible
            .iter()
            .map(|s| s.cost.max_component())
            .fold(f64::INFINITY, f64::min);
        let single = |threads: usize| SearchConfig {
            threads,
            max_plans: 1,
            ..SearchConfig::exhaustive()
        };
        let unpruned = search.run(&single(1)).unwrap();
        for threads in [1, 4] {
            let config = single(threads).incumbent_pruned();
            let pruned = run_split(&search, Thresholds::unbounded(), &config);
            assert!(!pruned.feasible.is_empty());
            // A one-plan store bounds the search by the best plan so far,
            // so every survivor ties the optimum...
            for s in &pruned.feasible {
                assert!((s.cost.max_component() - best_cost).abs() < 1e-9);
            }
            // ...and it is the plan the unpruned one-plan store keeps.
            assert_eq!(pruned.feasible, unpruned.feasible);
        }
        // At one thread the store bound only ever removes nodes. A split
        // run also counts its first attempt's nodes and its prefix
        // replays, so its count can exceed the unpruned run's.
        let pruned = search.run(&single(1).incumbent_pruned()).unwrap();
        assert!(pruned.stats.nodes < full.stats.nodes);
    }

    /// A linear job of one operator per `(parallelism, cpu/rec, state
    /// B/rec, out B/rec)` draw, hash-partitioned, at 1,000 rec/s on
    /// `workers` workers with `extra_slots` slots beyond the fewest that
    /// fit it.
    fn linear_job(
        ops: &[(usize, f64, f64, f64)],
        workers: usize,
        extra_slots: usize,
    ) -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("linear");
        let mut prev = None;
        for (i, &(par, cpu, io, out)) in ops.iter().enumerate() {
            let kind = match i {
                0 => OperatorKind::Source,
                _ if i + 1 == ops.len() => OperatorKind::Sink,
                _ => OperatorKind::Stateless,
            };
            let profile = ResourceProfile::new(cpu, io, out, 1.0);
            let id = b.operator(format!("op{i}"), kind, par, profile);
            if let Some(p) = prev {
                b.edge(p, id, ConnectionPattern::Hash);
            }
            prev = Some(id);
        }
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let slots = g.total_tasks().div_ceil(workers) + extra_slots;
        let c = Cluster::homogeneous(workers, WorkerSpec::new(slots, 2.0, 1e8, 1e9)).unwrap();
        let rates = HashMap::from([(OperatorId(0), 1000.0)]);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn split_runs_keep_the_one_thread_outcome_on_random_problems() {
        // Every run at 2, 4 and 8 threads splits at its first node, so the
        // shared store, its lock-free screen and the published store bound
        // all run. Against the one-thread run without the store bound, the
        // stored plans (in order), the pareto front and the recommended
        // plan must agree, with and without the store bound and with
        // stores small enough to fill; without the store bound so must
        // `plans_found` and the overflow.
        forall!(Config::default().cases(12), (
            ops in vec_of(
                (ints(1usize..=4), floats(1e-5..2e-3), floats(0.0..5000.0), floats(1.0..1000.0)),
                2..=4,
            ),
            workers in ints(2usize..=4),
            extra_slots in ints(1usize..=4),
            alpha in vec_of(floats(0.3..1.0), 3..=3),
        ) => {
            let (g, p, c, lm) = linear_job(ops, *workers, *extra_slots);
            let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
            let random = Thresholds::new(alpha[0], alpha[1], alpha[2]);
            for th in [Thresholds::unbounded(), random] {
                for max_plans in [1usize, 2, 12, 1 << 20] {
                    let config = |threads, incumbent_prune| SearchConfig {
                        threads,
                        max_plans,
                        incumbent_prune,
                        ..SearchConfig::with_thresholds(th)
                    };
                    let base = search.run(&config(1, false)).unwrap();
                    for (threads, prune) in [2, 4, 8].into_iter().flat_map(|t| [(t, false), (t, true)]) {
                        let out = run_split(&search, th, &config(threads, prune));
                        let at = format!("{threads} threads, cap {max_plans}, store bound {prune}");
                        assert_eq!(out.feasible, base.feasible, "stored plans: {at}");
                        assert_eq!(out.pareto, base.pareto, "pareto front: {at}");
                        assert_eq!(out.best_scored(), base.best_scored(), "recommended: {at}");
                        if !prune {
                            assert_eq!(out.stats.plans_found, base.stats.plans_found, "{at}");
                            assert_eq!(out.overflow, base.overflow, "overflow: {at}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn split_of_a_single_prefix_still_covers_the_tree() {
        // A source with parallelism 1, kept outermost, yields exactly one
        // depth-1 prefix: the split must go deeper so the other threads
        // get units, and still visit every plan.
        let (g, p, c, lm) = linear_job(
            &[
                (1, 1e-4, 0.0, 100.0),
                (6, 5e-4, 1000.0, 100.0),
                (2, 1e-4, 0.0, 10.0),
            ],
            4,
            2,
        );
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let config = |threads| SearchConfig {
            threads,
            max_plans: 1 << 20,
            reorder: false,
            ..SearchConfig::exhaustive()
        };
        let seq = search.run(&config(1)).unwrap();
        let total = count_plans(&p, &c).unwrap();
        assert_eq!(seq.stats.plans_found, total);
        for threads in [4, 8] {
            let par = run_split(&search, Thresholds::unbounded(), &config(threads));
            assert_eq!(par.stats.plans_found, total, "{threads} threads");
            assert_eq!(par.feasible, seq.feasible, "{threads} threads");
        }
    }

    fn scored(max: f64, tag: usize) -> ScoredPlan {
        // Distinct single-task plans so the assignment tie-break kicks in.
        ScoredPlan {
            plan: Placement::new(vec![capsys_model::WorkerId(tag)]),
            cost: CostVector::new(max, 0.0, 0.0),
        }
    }

    #[test]
    fn finalize_merge_orders_deterministically() {
        let config = SearchConfig::exhaustive();
        // Two slot orders of the same set give the same result.
        let a = vec![
            scored(0.5, 0),
            scored(0.1, 1),
            scored(0.3, 2),
            scored(0.1, 0),
        ];
        let b = vec![
            scored(0.3, 2),
            scored(0.1, 0),
            scored(0.5, 0),
            scored(0.1, 1),
        ];
        let fa = finalize_merge(a, &config);
        assert_eq!(fa, finalize_merge(b, &config));
        assert!(fa.windows(2).all(|w| cmp_scored(&w[0], &w[1]).is_lt()));
    }

    #[test]
    fn finalize_merge_first_feasible_keeps_stats_untouched() {
        // The first-feasible truncation must not pretend only one plan
        // was found: finalize_merge never touches stats at all, it only
        // picks the deterministic best witness.
        let config = SearchConfig::exhaustive().first_feasible();
        let merged = vec![scored(0.5, 0), scored(0.1, 1)];
        let out = finalize_merge(merged, &config);
        assert_eq!(out.len(), 1);
        assert!((out[0].cost.max_component() - 0.1).abs() < 1e-12);
    }
}
