//! Soundness of the overflow a failed search reports.
//!
//! A DFS that explores its whole tree without a plan reports, per
//! dimension, the smallest load that crossed the threshold bound on a
//! pruned branch. The auto-tuner skips every looser threshold whose
//! bound stays below that overflow, so the overflow must be a lower
//! bound on every plan: each plan reaches it in some recorded dimension.
//! These tests check that claim against full plan enumeration, check
//! that the overflow does not depend on the thread count, and check that
//! runs which did not exhaust their tree report none.

use std::cell::Cell;
use std::collections::HashMap;
use std::time::Duration;

use capsys_core::{CapsSearch, CostModel, Probe, SearchConfig, Thresholds};
use capsys_model::{
    enumerate_plans, Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
    PhysicalGraph, Placement, ResourceProfile, WorkerSpec,
};
use capsys_util::fixed::Fixed64;
use capsys_util::forall;
use capsys_util::prop::{floats, ints, Config};

/// A 12-task (2+3+5+2) pipeline on 3 workers x 5 slots, mixing all-to-all
/// and one-to-one channels; small enough to enumerate every plan.
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
    let c = Cluster::homogeneous(3, WorkerSpec::new(5, 4.0, 1e8, 1e9)).unwrap();
    let mut rates = HashMap::new();
    rates.insert(OperatorId(0), 1000.0);
    let lm = LoadModel::derive(&g, &p, &rates).unwrap();
    (g, p, c, lm)
}

/// Thresholds from a draw: each component in `[0, 0.8)`, disabled where
/// the matching bit of `off` is set.
fn thresholds(alpha: [f64; 3], off: usize) -> Thresholds {
    let a = |d: usize| {
        if off & (1 << d) != 0 {
            f64::INFINITY
        } else {
            alpha[d]
        }
    };
    Thresholds::new(a(0), a(1), a(2))
}

/// Asserts that `overflow` bounds every plan: each one carries a load at
/// or above the overflow in some recorded dimension, so no bound kept
/// below the overflow in every recorded dimension admits it.
fn assert_bounds_every_plan(
    model: &CostModel,
    physical: &PhysicalGraph,
    plans: &[Placement],
    bound: [Fixed64; 3],
    overflow: [Fixed64; 3],
) {
    for d in 0..3 {
        if overflow[d] != Fixed64::MAX {
            assert!(overflow[d] > bound[d], "overflow {d} within the bound");
        }
    }
    for plan in plans {
        let loads = model.plan_loads(physical, plan);
        assert!(
            (0..3).any(|d| overflow[d] != Fixed64::MAX && loads[d] >= overflow[d]),
            "plan loads {loads:?} fit below overflow {overflow:?}"
        );
    }
}

#[test]
fn overflow_is_a_lower_bound_on_every_plan() {
    let (g, p, c, lm) = fixture();
    let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
    let model = search.cost_model();
    let plans = enumerate_plans(&p, &c, usize::MAX).unwrap();
    let failed = Cell::new(0usize);
    forall!(Config::default().cases(96), (
        cpu in floats(0.0..0.8),
        io in floats(0.0..0.8),
        net in floats(0.0..0.8),
        off in ints(0usize..=6),
    ) => {
        let th = thresholds([*cpu, *io, *net], *off);
        let probe = search
            .find_witness(&th, &SearchConfig::exhaustive())
            .unwrap();
        if let Probe::Infeasible { overflow } = probe {
            let bound = model.load_bound(&th);
            let overflow = overflow.expect("an unaborted DFS probe reports its overflow");
            assert_bounds_every_plan(model, &p, &plans, bound, overflow);
            // A full run's overflow must bound every plan too.
            for threads in [1, 2] {
                let full = search
                    .run_with_thresholds(&th, &SearchConfig::with_thresholds(th).with_threads(threads))
                    .unwrap();
                let overflow = full.overflow.expect("an unaborted full run reports its overflow");
                assert_bounds_every_plan(model, &p, &plans, bound, overflow);
            }
            failed.set(failed.get() + 1);
        }
    });
    assert!(failed.get() >= 10, "only {} draws failed", failed.get());
}

#[test]
fn overflow_is_identical_across_thread_counts() {
    let (g, p, c, lm) = fixture();
    let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
    let network_only = Cell::new(0usize);
    forall!(Config::default().cases(48), (
        cpu in floats(0.0..0.8),
        io in floats(0.0..0.8),
        net in floats(0.0..0.8),
        off in ints(0usize..=6),
    ) => {
        let th = thresholds([*cpu, *io, *net], *off);
        let probes: Vec<Probe> = [1, 2, 4]
            .iter()
            .map(|&t| {
                search
                    .find_witness(&th, &SearchConfig::exhaustive().with_threads(t))
                    .unwrap()
            })
            .collect();
        if let Probe::Infeasible { overflow } = &probes[0] {
            assert!(overflow.is_some());
            for other in &probes[1..] {
                assert_eq!(other, &probes[0], "thresholds {th:?}");
            }
            // A full run that explores the probe's operator order walks
            // the same tree, so it reports the same overflow. Full runs
            // keep the §4.4.2 order at every vector,
            // while a network-only probe explores upstream-first; on this
            // linear pipeline upstream-first is the identity order, so a
            // full run at `reorder: false` walks the probe's tree there.
            // The §4.4.2-order full run must still agree across threads.
            let probe_order = search
                .exploration_order(&th, &SearchConfig::exhaustive().first_feasible());
            let mut full_overflows = Vec::new();
            for threads in [1, 2, 4] {
                let config = SearchConfig::with_thresholds(th).with_threads(threads);
                let full = search.run_with_thresholds(&th, &config).unwrap();
                assert!(full.feasible.is_empty());
                assert!(full.overflow.is_some());
                let same_tree = if full.order == probe_order {
                    full.overflow
                } else {
                    network_only.set(network_only.get() + 1);
                    let plain = search
                        .run_with_thresholds(&th, &SearchConfig { reorder: false, ..config })
                        .unwrap();
                    assert_eq!(plain.order, probe_order, "{th:?}");
                    assert!(plain.feasible.is_empty());
                    plain.overflow
                };
                assert_eq!(&same_tree, overflow, "{threads} threads, {th:?}");
                full_overflows.push(full.overflow);
            }
            assert!(
                full_overflows.iter().all(|o| *o == full_overflows[0]),
                "full-run overflow depends on the thread count, {th:?}"
            );
        }
    });
    assert!(network_only.get() > 0, "no failing network-only draw");
}

/// Thresholds under which the fixture has no plan but its probe visits
/// more than a handful of nodes.
fn slow_infeasible(search: &CapsSearch<'_>) -> Thresholds {
    let model = search.cost_model();
    let tightest = model.tightest_cost(0);
    let th = Thresholds::new(tightest, f64::INFINITY, f64::INFINITY);
    let full = search
        .run_with_thresholds(&th, &SearchConfig::with_thresholds(th).first_feasible())
        .unwrap();
    assert!(full.feasible.is_empty() && !full.stats.aborted);
    assert!(full.stats.nodes > 8, "{} nodes", full.stats.nodes);
    assert!(full.overflow.is_some());
    th
}

#[test]
fn runs_that_do_not_exhaust_their_tree_report_no_overflow() {
    let (g, p, c, lm) = fixture();
    let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
    let th = slow_infeasible(&search);

    // Aborted on the node budget.
    for threads in [1, 2] {
        let budgeted = SearchConfig {
            node_budget: Some(4),
            ..SearchConfig::exhaustive().with_threads(threads)
        };
        assert_eq!(
            search.find_witness(&th, &budgeted).unwrap(),
            Probe::Infeasible { overflow: None },
            "{threads} threads"
        );
    }

    // A first-feasible stop cuts the tree short.
    let loose = Thresholds::new(1.0, 1.0, 1.0);
    let first = search
        .run_with_thresholds(
            &loose,
            &SearchConfig::with_thresholds(loose).first_feasible(),
        )
        .unwrap();
    assert_eq!(first.feasible.len(), 1);
    assert!(first.overflow.is_none());

    // A deadline that has passed before the search starts.
    let expired = SearchConfig {
        time_budget: Some(Duration::ZERO),
        ..SearchConfig::with_thresholds(th)
    };
    let out = search.run_with_thresholds(&th, &expired).unwrap();
    assert!(out.stats.aborted && out.overflow.is_none());
}

#[test]
fn a_deadline_hit_inside_the_kernel_reports_no_overflow() {
    // 24 tasks on 6 workers, unbounded: far more plans than a 5 ms
    // budget can visit, so the in-kernel deadline poll fires.
    let mut b = LogicalGraph::builder("wide");
    let profile = ResourceProfile::new(0.001, 10.0, 100.0, 1.0);
    let mut prev = b.operator("src", OperatorKind::Source, 6, profile);
    for i in 0..3 {
        let kind = if i == 2 {
            OperatorKind::Sink
        } else {
            OperatorKind::Stateless
        };
        let op = b.operator(format!("op{i}"), kind, 6, profile);
        b.edge(prev, op, ConnectionPattern::Hash);
        prev = op;
    }
    let g = b.build().unwrap();
    let p = PhysicalGraph::expand(&g);
    let c = Cluster::homogeneous(6, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
    let mut rates = HashMap::new();
    rates.insert(OperatorId(0), 1000.0);
    let lm = LoadModel::derive(&g, &p, &rates).unwrap();
    let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
    for threads in [1, 2] {
        let config = SearchConfig {
            time_budget: Some(Duration::from_millis(5)),
            ..SearchConfig::exhaustive().with_threads(threads)
        };
        let out = search
            .run_with_thresholds(&Thresholds::unbounded(), &config)
            .unwrap();
        assert!(
            out.stats.aborted && out.stats.nodes > 0,
            "{threads} threads"
        );
        assert!(out.overflow.is_none(), "{threads} threads");
    }
}
