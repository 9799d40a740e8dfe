//! Integration: plan-space structure on the paper's real queries.

use capsys::caps::{CapsSearch, SearchConfig, Thresholds};
use capsys::model::{count_plans, enumerate_plans, Cluster, WorkerSpec};
use capsys::queries::{q1_sliding, q2_join, q3_inf};

fn study_cluster() -> Cluster {
    Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap()
}

#[test]
fn paper_plan_counts_hold() {
    // §3.2 / §3.3: 80, 665, and 950 distinct plans on the 16-slot cluster.
    let c = study_cluster();
    assert_eq!(count_plans(&q1_sliding().physical(), &c).unwrap(), 80);
    assert_eq!(count_plans(&q2_join().physical(), &c).unwrap(), 665);
    assert_eq!(count_plans(&q3_inf().physical(), &c).unwrap(), 950);
}

#[test]
fn exhaustive_search_agrees_with_enumeration_on_q1() {
    let c = study_cluster();
    let q = q1_sliding();
    let physical = q.physical();
    let loads = q.load_model(&physical).unwrap();
    let search = CapsSearch::new(q.logical(), &physical, &c, &loads).unwrap();
    let out = search
        .run(&SearchConfig {
            max_plans: 1 << 20,
            ..SearchConfig::exhaustive()
        })
        .unwrap();
    assert_eq!(out.stats.plans_found, 80);
    // Every enumerated plan appears exactly once (canonical keys match).
    let mut search_keys: Vec<_> = out
        .feasible
        .iter()
        .map(|s| s.plan.canonical_key(&physical, 4))
        .collect();
    let mut enum_keys: Vec<_> = enumerate_plans(&physical, &c, usize::MAX)
        .unwrap()
        .iter()
        .map(|p| p.canonical_key(&physical, 4))
        .collect();
    search_keys.sort();
    enum_keys.sort();
    assert_eq!(search_keys, enum_keys);
}

#[test]
fn threshold_pruning_is_exact_on_q3() {
    // The pruned search must find exactly the plans whose cost satisfies
    // the thresholds — no more, no fewer (§4.4.1 soundness).
    let c = study_cluster();
    let q = q3_inf();
    let physical = q.physical();
    let loads = q.load_model(&physical).unwrap();
    let search = CapsSearch::new(q.logical(), &physical, &c, &loads).unwrap();
    let all = search
        .run(&SearchConfig {
            max_plans: 1 << 20,
            ..SearchConfig::exhaustive()
        })
        .unwrap();
    for th in [
        Thresholds::new(0.5, 1.0, 1.0),
        Thresholds::new(0.2, 0.8, 0.9),
    ] {
        let expected = all.feasible.iter().filter(|s| s.cost.within(&th)).count();
        let pruned = search
            .run(&SearchConfig {
                max_plans: 1 << 20,
                ..SearchConfig::with_thresholds(th)
            })
            .unwrap();
        assert_eq!(pruned.stats.plans_found, expected, "thresholds {th:?}");
        assert!(pruned.stats.nodes <= all.stats.nodes);
    }
}

#[test]
fn reordering_reduces_nodes_under_tight_thresholds() {
    let c = study_cluster();
    let q = q3_inf();
    let physical = q.physical();
    let loads = q.load_model(&physical).unwrap();
    let search = CapsSearch::new(q.logical(), &physical, &c, &loads).unwrap();
    let th = Thresholds::new(0.15, f64::INFINITY, f64::INFINITY);
    let plain = search
        .run(&SearchConfig {
            reorder: false,
            max_plans: 1,
            ..SearchConfig::with_thresholds(th)
        })
        .unwrap();
    let reordered = search
        .run(&SearchConfig {
            reorder: true,
            max_plans: 1,
            ..SearchConfig::with_thresholds(th)
        })
        .unwrap();
    assert_eq!(plain.stats.plans_found, reordered.stats.plans_found);
    assert!(
        reordered.stats.nodes < plain.stats.nodes,
        "reordering should prune earlier: {} vs {}",
        reordered.stats.nodes,
        plain.stats.nodes
    );
}

#[test]
fn parallel_search_is_deterministic_in_results() {
    let c = study_cluster();
    let q = q2_join();
    let physical = q.physical();
    let loads = q.load_model(&physical).unwrap();
    let search = CapsSearch::new(q.logical(), &physical, &c, &loads).unwrap();
    let th = Thresholds::new(0.4, 0.4, 0.9);
    let seq = search
        .run(&SearchConfig {
            max_plans: 1 << 20,
            ..SearchConfig::with_thresholds(th)
        })
        .unwrap();
    let par = search
        .run(&SearchConfig {
            max_plans: 1 << 20,
            threads: 4,
            ..SearchConfig::with_thresholds(th)
        })
        .unwrap();
    assert_eq!(seq.stats.plans_found, par.stats.plans_found);
    let best_seq = seq.best_scored().unwrap().cost;
    let best_par = par.best_scored().unwrap().cost;
    assert!((best_seq.max_component() - best_par.max_component()).abs() < 1e-9);

    // Q3-inf on 5 workers with a 64-plan store: the capped store keeps
    // the same plan set at every thread count (one thread keeps store
    // order, more threads sort), and every stored cost is the
    // from-scratch recost bit for bit.
    let c = Cluster::homogeneous(5, WorkerSpec::r5d_xlarge(4)).unwrap();
    let q = q3_inf();
    let physical = q.physical();
    let loads = q.load_model(&physical).unwrap();
    let search = CapsSearch::new(q.logical(), &physical, &c, &loads).unwrap();
    let th = Thresholds::new(0.5, 0.5, f64::INFINITY);
    let mut first = None;
    for threads in [1usize, 2, 4, 8] {
        let out = search
            .run(&SearchConfig {
                threads,
                max_plans: 64,
                ..SearchConfig::with_thresholds(th)
            })
            .unwrap();
        assert_eq!(out.stats.plans_found, 26_217, "{threads} threads");
        for s in &out.feasible {
            let recost = search.cost_model().cost(&physical, &s.plan);
            for (got, want) in [
                (s.cost.cpu, recost.cpu),
                (s.cost.io, recost.io),
                (s.cost.net, recost.net),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{threads} threads");
            }
        }
        let mut stored = out.feasible;
        stored.sort_by(|a, b| a.plan.assignment().cmp(b.plan.assignment()));
        let first = first.get_or_insert_with(|| stored.clone());
        assert_eq!(&stored, first, "{threads} threads");
    }
}

#[test]
fn time_budget_fires_inside_the_kernel() {
    // A zero budget returns before the DFS starts; a small non-zero one
    // must be caught by the deadline poll inside the traversal. The
    // exhaustive Q3-inf x2 space on 8 workers takes far longer than the
    // budget at any thread count, so every run must stop itself.
    let query = q3_inf().scaled(2).unwrap();
    let cluster = Cluster::homogeneous(8, WorkerSpec::r5d_xlarge(4)).unwrap();
    let physical = query.physical();
    let loads = query.load_model(&physical).unwrap();
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).unwrap();
    for threads in [1usize, 2] {
        let config = SearchConfig {
            threads,
            time_budget: Some(std::time::Duration::from_millis(20)),
            ..SearchConfig::exhaustive()
        };
        let t0 = std::time::Instant::now();
        let out = search.run(&config).unwrap();
        let wall = t0.elapsed();
        assert!(
            out.stats.aborted,
            "20 ms budget did not abort at {threads} threads"
        );
        assert!(
            out.stats.nodes > 0,
            "the kernel ran before the deadline fired"
        );
        assert!(
            wall < std::time::Duration::from_millis(500),
            "deadline overshot at {threads} threads: {wall:?}"
        );
    }
}
