//! Figure 10a: scalability of the CAPS placement search.
//!
//! Scales Q2-join from 16 to 256 tasks (cluster scaled alongside, 4-slot
//! workers) and measures the time CAPS needs to find the *first* plan
//! satisfying each of the paper's three threshold configurations:
//! `α⃗₁ (0.08, 0.15, 0.6)`, `α⃗₂ (0.15, 0.25, 0.8)`, and
//! `α⃗₃ (0.25, 0.3, 0.9)`.
//!
//! Paper reference: tens of milliseconds in all cases, up to ~100 ms for
//! the tightest thresholds at 256 tasks.
//!
//! Self-asserts that every (scale, α) cell finds a plan; timings are
//! printed, never gated. `scripts/ci.sh` runs this binary as its search
//! smoke step.

use std::time::Instant;

use capsys_bench::banner;
use capsys_core::{CapsSearch, SearchConfig, Thresholds};
use capsys_model::{Cluster, WorkerSpec};
use capsys_queries::q2_join;

fn main() {
    banner(
        "Figure 10a",
        "CAPS search time vs. problem size",
        "§6.5.1, Figure 10a",
    );

    let alphas = [
        ("alpha1", Thresholds::new(0.08, 0.15, 0.6)),
        ("alpha2", Thresholds::new(0.15, 0.25, 0.8)),
        ("alpha3", Thresholds::new(0.25, 0.3, 0.9)),
    ];
    // The paper uses 20 threads on a 20-core CloudLab node; this host has
    // fewer cores, so we report the thread count used.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(20);
    println!("threads: {threads}\n");

    let header = format!(
        "{:<8} {:>9} {:>9} {:>12} {:>12} {:>12}",
        "tasks", "workers", "slots", "alpha1", "alpha2", "alpha3"
    );
    println!("{header}");
    capsys_bench::rule(&header);

    let mut missing = Vec::new();
    for scale in [1usize, 2, 4, 8, 16] {
        let query = q2_join().scaled(scale).expect("scaling");
        let tasks = query.logical().total_tasks();
        let workers = tasks / 4;
        let cluster = Cluster::homogeneous(workers, WorkerSpec::r5d_xlarge(4)).expect("cluster");
        let physical = query.physical();
        let loads = query.load_model(&physical).expect("loads");
        let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");

        let mut times = Vec::new();
        for (name, th) in &alphas {
            // An infeasible threshold forces a first-feasible search to
            // exhaust the (pruned) space before giving up; bound it.
            let config = SearchConfig {
                threads,
                time_budget: Some(std::time::Duration::from_secs(20)),
                ..SearchConfig::with_thresholds(*th).first_feasible()
            };
            let start = Instant::now();
            let outcome = search.run(&config).expect("search runs");
            let elapsed = start.elapsed();
            times.push(if outcome.feasible.is_empty() {
                missing.push(format!("{tasks} tasks / {name}"));
                format!("none@{:.1}s", elapsed.as_secs_f64())
            } else {
                format!("{:.1}ms", elapsed.as_secs_f64() * 1e3)
            });
        }
        println!(
            "{:<8} {:>9} {:>9} {:>12} {:>12} {:>12}",
            tasks,
            workers,
            workers * 4,
            times[0],
            times[1],
            times[2]
        );
    }

    println!("\n(paper Figure 10a: first satisfactory plan within tens of ms up to");
    println!(" 256 tasks; tighter thresholds take slightly longer at scale)");
    assert!(missing.is_empty(), "no plan found for: {missing:?}");
}
