//! The tie cut of store-bound pruning ([`SearchConfig::incumbent_prune`]).
//!
//! Once the plan store is full, most leaves of a long search tie the
//! worst stored plan's `max_component` cost exactly, and the store keeps
//! or rejects them on their assignment vector (`cmp_scored`). The store
//! limit admits ties, so only the tie cut removes such leaves early: it
//! cuts a subtree once its fully placed leading operators already rank
//! after the worst stored plan's assignment and its partial cost already
//! reaches that plan's.
//! These tests check that the cut fires where only ties could be cut,
//! keeps the unpruned run's plans there, and that it lets a search on a
//! roomy cluster finish.

use capsys::caps::{CapsSearch, SearchConfig};
use capsys::model::{
    Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind, PhysicalGraph,
    ResourceProfile, WorkerSpec,
};
use capsys::queries::q2_join;

#[test]
fn ties_are_cut_where_every_plan_ties() {
    // Three CPU-only operators of equal per-task load fill every slot of
    // three workers, so every plan puts three tasks on each worker and
    // every plan costs the same. No partial load can exceed the worst
    // stored cost, so only the tie cut can save nodes.
    let mut b = LogicalGraph::builder("ties");
    let mut prev = None;
    for (i, kind) in [
        OperatorKind::Source,
        OperatorKind::Stateless,
        OperatorKind::Sink,
    ]
    .into_iter()
    .enumerate()
    {
        let op = b.operator(
            format!("op{i}"),
            kind,
            3,
            ResourceProfile::new(1e-3, 0.0, 0.0, 1.0),
        );
        if let Some(p) = prev {
            b.edge(p, op, ConnectionPattern::Rebalance);
        }
        prev = Some(op);
    }
    let g = b.build().expect("valid graph");
    let physical = PhysicalGraph::expand(&g);
    let cluster =
        Cluster::homogeneous(3, WorkerSpec::new(3, 2.0, 1e8, 1e9)).expect("valid cluster");
    let rates = [(OperatorId(0), 1000.0)].into_iter().collect();
    let loads = LoadModel::derive(&g, &physical, &rates).expect("load model");
    let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
    for max_plans in [1, 2, 4] {
        let config = SearchConfig {
            max_plans,
            ..SearchConfig::exhaustive()
        };
        let unpruned = search.run(&config).expect("unpruned search runs");
        let pruned = search
            .run(&config.clone().incumbent_pruned())
            .expect("pruned search runs");
        let cost = unpruned.feasible[0].cost.max_component();
        assert!(unpruned
            .feasible
            .iter()
            .all(|s| s.cost.max_component() == cost));
        assert_eq!(pruned.feasible, unpruned.feasible, "cap {max_plans}");
        assert!(
            pruned.stats.nodes < unpruned.stats.nodes,
            "cap {max_plans}: no tie was cut ({} nodes)",
            pruned.stats.nodes
        );
    }
}

#[test]
fn q2_join_finishes_on_a_roomy_cluster() {
    // Q2-join ×2 (32 tasks) on 16 × r5d.xlarge at 1,000 rec/s: the tuned
    // final search leaves most slots empty, and almost all of its leaves
    // tie the full store's worst cost. Without the tie cut it ran out of
    // a 20 M-node budget; with it, one thread takes 9.8 M nodes (about
    // 1 s in release).
    let query = q2_join().scaled(2).expect("scaled query");
    let physical = query.physical();
    let cluster = Cluster::homogeneous(16, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let loads = query.load_model(&physical).expect("load model");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
    let out = search
        .run(&SearchConfig {
            node_budget: Some(20_000_000),
            ..SearchConfig::auto_tuned()
        })
        .expect("auto-tuned search runs");
    assert!(
        !out.stats.aborted,
        "the search ran out of its budget after {} nodes",
        out.stats.nodes
    );
    assert!(out.best_scored().is_some());
}
