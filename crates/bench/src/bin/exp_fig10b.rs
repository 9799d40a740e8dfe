//! Figure 10b: threshold auto-tuning performance.
//!
//! Runs the two-phase auto-tuner (§5.2) on Q2-join scaled to fill
//! clusters of 8-16 workers with 4-64 slots per worker (32 to 1024
//! tasks) and reports the total tuning time per configuration.
//!
//! Paper reference: 1.16 s for 64 tasks (4 workers x 16 slots) up to
//! 125 s for 1024 tasks (16 workers x 64 slots); auto-tuning can run
//! offline, so even the large configurations are acceptable.
//!
//! Tuning never reads the clock, so every row's thresholds and probe
//! count are asserted against the values EXPERIMENTS.md records: a
//! change to the tuner, the search or its pruning that moves one fails
//! the run. Timings are printed, not gated.

use std::time::Instant;

use capsys_bench::{banner, fast_mode};
use capsys_core::{AutoTuner, CapsSearch, SearchConfig};
use capsys_model::{Cluster, WorkerSpec};
use capsys_queries::q2_join;

/// Per (workers, slots): the tuned thresholds as printed, and the probe
/// count. Every row with 16 or more slots per worker tunes to
/// [`OVER_PROVISIONED`].
const PINNED: [(usize, usize, &str, usize); 6] = [
    (8, 4, "(0.05,0.12,-)", 48),
    (8, 8, "(0.01,0.12,-)", 31),
    (12, 4, "(0.05,0.12,-)", 48),
    (12, 8, "(0.03,0.12,-)", 43),
    (16, 4, "(0.05,0.12,-)", 47),
    (16, 8, "(0.03,0.12,-)", 43),
];

/// Thresholds and probe count of every row with 16 or more slots per
/// worker: a balanced plan exists at the analytic floor.
const OVER_PROVISIONED: (&str, usize) = ("(0.00,0.00,-)", 3);

fn main() {
    banner(
        "Figure 10b",
        "threshold auto-tuning time vs. problem size",
        "§6.5.2, Figure 10b",
    );

    let workers_list = [8usize, 12, 16];
    let slots_list: &[usize] = if fast_mode() {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };

    let header = format!(
        "{:<9} {:<7} {:>7} {:>12} {:>12} {:>8}",
        "workers", "slots", "tasks", "tuning time", "thresholds", "probes"
    );
    println!("{header}");
    capsys_bench::rule(&header);

    for &workers in &workers_list {
        for &slots in slots_list {
            let total_slots = workers * slots;
            // Scale Q2 (16 tasks) to fill the cluster exactly.
            if total_slots % 16 != 0 {
                continue;
            }
            let scale = total_slots / 16;
            let query = q2_join().scaled(scale).expect("scaling");
            let cluster =
                Cluster::homogeneous(workers, WorkerSpec::r5d_xlarge(slots)).expect("cluster");
            let physical = query.physical();
            // Load the cluster realistically: thresholds are tuned for a
            // deployment running near capacity, as on reconfiguration.
            let rate = query.capacity_rate(&cluster, 0.9).expect("rate");
            let loads = query.load_model_at(&physical, rate).expect("loads");
            let search =
                CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
            let base = SearchConfig::auto_tuned();
            let start = Instant::now();
            let report = AutoTuner::new(&base.auto_tune)
                .tune(&search, &base)
                .expect("auto-tuning finds thresholds");
            let elapsed = start.elapsed();
            let th = report.thresholds;
            let net = if th.net.is_finite() {
                format!("{:.2}", th.net)
            } else {
                "-".into()
            };
            let thresholds = format!("({:.2},{:.2},{net})", th.cpu, th.io);
            println!(
                "{:<9} {:<7} {:>7} {:>11.2}s {:>12} {:>8}",
                workers,
                slots,
                physical.num_tasks(),
                elapsed.as_secs_f64(),
                thresholds,
                report.iterations
            );
            let pinned = PINNED
                .iter()
                .find(|row| (row.0, row.1) == (workers, slots))
                .map_or(OVER_PROVISIONED, |row| (row.2, row.3));
            assert_eq!(
                (thresholds.as_str(), report.iterations),
                pinned,
                "Figure 10b row {workers} x {slots} differs from what EXPERIMENTS.md records"
            );
        }
    }

    println!("\n(paper Figure 10b: 1.16s at 64 tasks up to 125s at 1024 tasks; tuning");
    println!(" is run offline and pre-computed per scaling scenario, §5.2)");
}
