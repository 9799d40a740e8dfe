//! Schedule-independence properties of the multi-thread DFS.
//!
//! The parallel runtime (crates/core/src/parallel.rs) splits the tree
//! into DFS-ordered units that threads claim from one shared cursor, and
//! merges the per-thread results under a total order, so the *set* of
//! feasible plans and every search statistic that is a function of the
//! explored space must be identical across thread counts and across
//! which thread claims which unit. These tests drive that invariant over
//! random problems on the in-repo property harness (replay failures with
//! `CAPSYS_PROP_SEED=<seed> cargo test <name>`).

use std::collections::HashMap;

use capsys::caps::{CapsSearch, SearchConfig, Thresholds};
use capsys::model::{
    count_plans, Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
    PhysicalGraph, ResourceProfile, WorkerSpec,
};
use capsys_util::forall;
use capsys_util::prop::{floats, ints, vec_of, Config, FloatStrategy, IntStrategy, VecStrategy};

/// Per-operator profile draw: (parallelism, cpu/rec, state B/rec,
/// out B/rec, selectivity).
type OpDraw = (usize, f64, f64, f64, f64);

fn arb_ops() -> VecStrategy<(
    IntStrategy<usize>,
    FloatStrategy,
    FloatStrategy,
    FloatStrategy,
    FloatStrategy,
)> {
    vec_of(
        (
            ints(1usize..=4),
            floats(1e-5..2e-3),
            floats(0.0..5000.0),
            floats(1.0..1000.0),
            floats(0.1..1.5),
        ),
        2..=4,
    )
}

fn build_problem(ops: &[OpDraw], workers: usize, extra_slots: usize) -> (LogicalGraph, Cluster) {
    let n = ops.len();
    let mut b = LogicalGraph::builder("sched");
    let mut prev = None;
    for (i, &(par, cpu, io, out, sel)) in ops.iter().enumerate() {
        let kind = if i == 0 {
            OperatorKind::Source
        } else if i + 1 == n {
            OperatorKind::Sink
        } else {
            OperatorKind::Stateless
        };
        let sel = if i + 1 == n { 1.0 } else { sel };
        let id = b.operator(
            format!("op{i}"),
            kind,
            par,
            ResourceProfile::new(cpu, io, out, sel),
        );
        if let Some(p) = prev {
            b.edge(p, id, ConnectionPattern::Hash);
        }
        prev = Some(id);
    }
    let g = b.build().expect("valid linear graph");
    let total = g.total_tasks();
    let slots = total.div_ceil(workers) + extra_slots;
    let cluster = Cluster::homogeneous(workers, WorkerSpec::new(slots, 2.0, 1e8, 1e9))
        .expect("valid cluster");
    (g, cluster)
}

fn loads_for(g: &LogicalGraph, physical: &PhysicalGraph, rate: f64) -> LoadModel {
    let rates: HashMap<OperatorId, f64> = g.sources().into_iter().map(|s| (s, rate)).collect();
    LoadModel::derive(g, physical, &rates).expect("load model")
}

/// Canonical fingerprint of an outcome: the sorted multiset of plan
/// assignments. Sequential search reports plans in DFS order while the
/// parallel merge orders them by cost; the *set* is the invariant.
fn plan_set(out: &capsys::caps::SearchOutcome) -> Vec<Vec<usize>> {
    let mut set: Vec<Vec<usize>> = out
        .feasible
        .iter()
        .map(|s| s.plan.assignment().iter().map(|w| w.0).collect())
        .collect();
    set.sort();
    set
}

fn cases() -> Config {
    Config::default().cases(16)
}

#[test]
fn plan_set_identical_across_thread_counts_and_runs() {
    forall!(cases(), (
        ops in arb_ops(),
        workers in ints(2usize..=4),
        extra_slots in ints(2usize..=6),
    ) => {
        let (g, cluster) = build_problem(ops, *workers, *extra_slots);
        let physical = PhysicalGraph::expand(&g);
        let loads = loads_for(&g, &physical, 1000.0);
        let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
        let th = Thresholds::new(0.6, 0.7, 1.0);
        let run = |threads: usize| {
            search
                .run(&SearchConfig {
                    threads,
                    max_plans: 1 << 20,
                    ..SearchConfig::with_thresholds(th)
                })
                .expect("search runs")
        };
        let base = run(1);
        let base_set = plan_set(&base);
        for threads in [2usize, 4, 8] {
            let out = run(threads);
            assert_eq!(
                out.stats.plans_found, base.stats.plans_found,
                "plans_found diverged at {threads} threads"
            );
            assert_eq!(
                plan_set(&out),
                base_set,
                "plan set diverged at {threads} threads"
            );
        }
        // Repeated runs at the same thread count take different steal
        // schedules (OS timing); the outcome must not notice.
        let again = run(4);
        assert_eq!(plan_set(&again), base_set, "plan set varied across runs");
        assert_eq!(again.stats.plans_found, base.stats.plans_found);
    });
}

/// Runs `search` at `thresholds` with a 12-plan store on 1, 2, 4 and 8
/// threads and asserts that every thread count keeps the one-thread
/// plan set and `plans_found`. Returns the one-thread outcome.
fn assert_capped_store_agrees(
    search: &CapsSearch<'_>,
    thresholds: Thresholds,
) -> capsys::caps::SearchOutcome {
    let run = |threads: usize| {
        search
            .run(&SearchConfig {
                threads,
                max_plans: 12,
                ..SearchConfig::with_thresholds(thresholds)
            })
            .expect("search runs")
    };
    let base = run(1);
    let base_set = plan_set(&base);
    for threads in [2usize, 4, 8] {
        let out = run(threads);
        assert_eq!(out.stats.plans_found, base.stats.plans_found);
        assert_eq!(
            plan_set(&out),
            base_set,
            "capped store diverged at {threads} threads"
        );
    }
    base
}

/// A source, six maps and a sink, all of parallelism 2 with one
/// profile, on two 8-slot workers: equal exact loads make states reached
/// through different prefixes coincide, the case per-layer symmetry
/// elimination cannot see.
fn symmetric_chain() -> (LogicalGraph, Cluster) {
    let mut b = LogicalGraph::builder("sym");
    let profile = ResourceProfile::new(0.001, 0.0, 100.0, 1.0);
    let src = b.operator("src", OperatorKind::Source, 2, profile);
    let mut prev = src;
    for i in 1..=6 {
        let op = b.operator(format!("map{i}"), OperatorKind::Stateless, 2, profile);
        b.edge(prev, op, ConnectionPattern::Hash);
        prev = op;
    }
    let sink = b.operator("sink", OperatorKind::Sink, 2, profile);
    b.edge(prev, sink, ConnectionPattern::Hash);
    let g = b.build().expect("graph");
    let cluster = Cluster::homogeneous(2, WorkerSpec::r5d_xlarge(8)).expect("cluster");
    (g, cluster)
}

#[test]
fn capped_store_identical_across_thread_counts() {
    // With a small `max_plans` cap the store truncates under the
    // cost-then-assignment total order; the surviving set must still be
    // a pure function of the explored space, not of the merge order.
    forall!(cases(), (
        ops in arb_ops(),
        workers in ints(2usize..=4),
        extra_slots in ints(2usize..=6),
    ) => {
        let (g, cluster) = build_problem(ops, *workers, *extra_slots);
        let physical = PhysicalGraph::expand(&g);
        let loads = loads_for(&g, &physical, 1000.0);
        let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
        assert_capped_store_agrees(&search, Thresholds::unbounded());
    });
    // The symmetric chain under a network bound that cuts branches: the
    // threshold-pruned, capped store must not depend on the thread count
    // either.
    let (g, cluster) = symmetric_chain();
    let physical = PhysicalGraph::expand(&g);
    let loads = loads_for(&g, &physical, 1000.0);
    let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
    let base =
        assert_capped_store_agrees(&search, Thresholds::new(f64::INFINITY, f64::INFINITY, 0.4));
    assert!(base.stats.pruned > 0, "the network bound cut no branch");
    assert!(base.stats.plans_found > 12, "the store never filled");
}

#[test]
fn incumbent_prune_survivors_identical_across_thread_counts() {
    forall!(cases(), (
        ops in arb_ops(),
        workers in ints(2usize..=4),
        extra_slots in ints(2usize..=6),
    ) => {
        let (g, cluster) = build_problem(ops, *workers, *extra_slots);
        let physical = PhysicalGraph::expand(&g);
        let loads = loads_for(&g, &physical, 1000.0);
        let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
        // The store bound only fires once the store is full, so small
        // caps exercise it; the 1<<20 cap never fills.
        for max_plans in [1usize, 2, 12, 1 << 20] {
            let run = |threads: usize| {
                search
                    .run(
                        &SearchConfig {
                            threads,
                            max_plans,
                            ..SearchConfig::exhaustive()
                        }
                        .incumbent_pruned(),
                    )
                    .expect("search runs")
            };
            let base_set = plan_set(&run(1));
            assert!(!base_set.is_empty(), "some plan always exists");
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    plan_set(&run(threads)),
                    base_set,
                    "incumbent-pruned survivors diverged at {threads} threads, cap {max_plans}"
                );
            }
        }
    });
}

#[test]
fn starved_single_prefix_is_resplit_across_threads() {
    // A source with parallelism 1 yields exactly one depth-1 prefix, so
    // the whole tree lands on one seed unit: without adaptive
    // re-splitting every other thread would starve. The search must
    // still visit the full space and agree with the sequential count.
    let mut b = LogicalGraph::builder("starve");
    let src = b.operator(
        "src",
        OperatorKind::Source,
        1,
        ResourceProfile::new(1e-4, 0.0, 100.0, 1.0),
    );
    let mid = b.operator(
        "wide",
        OperatorKind::Stateless,
        6,
        ResourceProfile::new(5e-4, 1000.0, 100.0, 1.0),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        2,
        ResourceProfile::new(1e-4, 0.0, 10.0, 1.0),
    );
    b.edge(src, mid, ConnectionPattern::Hash);
    b.edge(mid, sink, ConnectionPattern::Hash);
    let g = b.build().expect("graph");
    let physical = PhysicalGraph::expand(&g);
    let cluster = Cluster::homogeneous(4, WorkerSpec::new(4, 2.0, 1e8, 1e9)).expect("cluster");
    let loads = loads_for(&g, &physical, 1000.0);
    let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");

    let config = |threads: usize| SearchConfig {
        threads,
        max_plans: 1 << 20,
        // Keep the operator order fixed so the source (parallelism 1)
        // stays the outermost layer and really produces a single prefix.
        reorder: false,
        ..SearchConfig::exhaustive()
    };
    let seq = search.run(&config(1)).expect("sequential");
    let total = count_plans(&physical, &cluster).expect("count");
    assert_eq!(seq.stats.plans_found, total);
    for threads in [4usize, 8] {
        let par = search.run(&config(threads)).expect("parallel");
        assert_eq!(
            par.stats.plans_found, total,
            "starved schedule lost plans at {threads} threads"
        );
        assert_eq!(plan_set(&par), plan_set(&seq));
    }
}
