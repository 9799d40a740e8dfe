//! Table 2: search-space size under threshold pruning and reordering.
//!
//! Places Q3-inf (scaled 2x, 32 tasks) on an 8-worker, 4-slot cluster and
//! runs the CAPS search for compute thresholds
//! `α_cpu ∈ {∞, 0.5, 0.2, 0.1, 0.05, 0.03, 0.01}` (I/O and network
//! disabled), reporting the number of feasible plans found and the
//! search-tree nodes visited, with and without operator exploration
//! reordering (§4.4.2).
//!
//! Paper reference (16-task Q3-inf parallelism doubled to fill the same
//! 32-slot shape the paper used): 3.25 M plans / 31 M nodes unpruned,
//! shrinking to 0 plans / 28 k nodes at α_cpu = 0.01 with reordering.
//! Our parallelism calibration yields the same order of magnitude
//! (~1.8 M distinct plans).
//!
//! The one-thread search is deterministic, so every row is asserted
//! against the exact counts EXPERIMENTS.md records: a change to duplicate
//! elimination, threshold pruning or reordering that moves a count fails
//! the run.

use capsys_bench::banner;
use capsys_core::{CapsSearch, SearchConfig, Thresholds};
use capsys_model::{Cluster, WorkerSpec};
use capsys_queries::q3_inf;

/// Per α_cpu row: (label, α_cpu, plans, nodes, nodes with reordering).
const ROWS: [(&str, f64, usize, usize, usize); 7] = [
    ("inf", f64::INFINITY, 1_796_275, 22_928_269, 22_532_910),
    ("0.5", 0.5, 283_142, 7_355_812, 3_593_380),
    ("0.2", 0.2, 1_089, 2_468_403, 35_225),
    ("0.1", 0.1, 0, 1_923_678, 27),
    ("0.05", 0.05, 0, 1_923_678, 27),
    ("0.03", 0.03, 0, 1_857_086, 27),
    ("0.01", 0.01, 0, 1_768_745, 27),
];

fn main() {
    banner(
        "Table 2",
        "plans and nodes vs. compute threshold",
        "§4.4, Table 2",
    );

    let query = q3_inf().scaled(2).expect("scaling");
    let cluster = Cluster::homogeneous(8, WorkerSpec::r5d_xlarge(4)).expect("cluster");
    let physical = query.physical();
    let loads = query.load_model(&physical).expect("loads");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");

    println!(
        "Q3-inf x2: {} tasks on {} workers x {} slots\n",
        physical.num_tasks(),
        cluster.num_workers(),
        cluster.slots_per_worker()
    );

    let header = format!(
        "{:<10} {:>12} {:>14} {:>22}",
        "alpha_cpu", "plans", "nodes", "nodes w/ reordering"
    );
    println!("{header}");
    capsys_bench::rule(&header);

    for (label, alpha, plans, nodes, reordered_nodes) in ROWS {
        let thresholds = Thresholds::new(alpha, f64::INFINITY, f64::INFINITY);
        let base = SearchConfig {
            max_plans: 1,
            ..SearchConfig::with_thresholds(thresholds)
        };
        let plain = search
            .run(&SearchConfig {
                reorder: false,
                ..base.clone()
            })
            .expect("search runs");
        let reordered = search
            .run(&SearchConfig {
                reorder: true,
                ..base
            })
            .expect("search runs");
        assert_eq!(
            plain.stats.plans_found, reordered.stats.plans_found,
            "reordering must preserve the feasible-plan set"
        );
        let row = (
            plain.stats.plans_found,
            plain.stats.nodes,
            reordered.stats.nodes,
        );
        println!("{:<10} {:>12} {:>14} {:>22}", label, row.0, row.1, row.2);
        assert_eq!(
            row,
            (plans, nodes, reordered_nodes),
            "Table 2 row alpha_cpu = {label} differs from the counts EXPERIMENTS.md records"
        );
    }

    println!("\n(paper Table 2: plans 3.25M -> 0 and nodes 31M -> 28k across the same sweep;");
    println!(" reordering prunes unsatisfactory branches closer to the root)");
}
