//! Shared harness for the experiment binaries.
//!
//! One binary per table/figure of the CAPSys paper lives in `src/bin/`;
//! this library provides what they share: simulation wrappers, box-plot
//! statistics, contention-plan selection, and table formatting. The
//! robustness claims beyond the paper are built once each in
//! [`claims`], for both their tests and their binaries. See `DESIGN.md`
//! §4 for the experiment index and `EXPERIMENTS.md` for a recorded run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;

use capsys_model::{Cluster, OperatorId, Placement, WorkerId};
use capsys_queries::Query;
use capsys_sim::{SimConfig, Simulation, SimulationReport};

/// Environment knob: set `CAPSYS_FAST=1` to shrink simulation times and
/// repetition counts for a quick smoke run of every experiment.
pub fn fast_mode() -> bool {
    std::env::var("CAPSYS_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Reads the one option of the claim binaries, `--seed N` (default 7);
/// `exp_hostile`, whose seeds are fixed, takes [`no_args`]. Any other
/// argument prints the usage and exits with status 2.
pub fn seed_arg() -> u64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => 7,
        [flag, n] if flag == "--seed" => n.parse().unwrap_or_else(|_| usage(" [--seed N]")),
        _ => usage(" [--seed N]"),
    }
}

/// Exits 2 with a usage line unless the binary was given no argument.
pub fn no_args() {
    if std::env::args().len() > 1 {
        usage("")
    }
}

/// Prints `usage: <binary><args>` to stderr and exits 2.
fn usage(args: &str) -> ! {
    let name = std::env::args().next().unwrap_or_default();
    eprintln!("usage: {name}{args}");
    std::process::exit(2)
}

/// Where an experiment writes its `BENCH_*.json` record `file`: the
/// repository root for a full run, `target/` for a smoke run, so a smoke
/// run (as in `scripts/ci.sh`) leaves the committed records untouched.
pub fn bench_record_path(file: &str, smoke: bool) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if !smoke {
        return root.join(file);
    }
    let dir = root.join("target");
    std::fs::create_dir_all(&dir).expect("create target/ for the smoke record");
    dir.join(file)
}

/// Number of repetitions for randomized strategies (paper: 10).
pub fn repetitions() -> usize {
    if fast_mode() {
        3
    } else {
        10
    }
}

/// Simulation config for measurement runs.
pub fn measure_config(seed: u64) -> SimConfig {
    let (duration, warmup) = if fast_mode() {
        (60.0, 15.0)
    } else {
        (150.0, 40.0)
    };
    SimConfig {
        duration,
        warmup,
        noise: 0.04,
        seed,
        ..SimConfig::default()
    }
}

/// Runs one placement plan in the simulator at the given aggregate rate.
pub fn run_plan(
    query: &Query,
    cluster: &Cluster,
    plan: &Placement,
    rate: f64,
    config: SimConfig,
) -> SimulationReport {
    let physical = query.physical();
    let schedules = query.schedules(rate);
    let mut sim = Simulation::new(
        query.logical(),
        &physical,
        cluster,
        plan,
        &schedules,
        config,
    )
    .expect("deployment is valid");
    sim.run()
}

/// Five-number summary plus mean, for the paper's box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Computes box statistics; panics on empty input.
pub fn box_stats(values: &[f64]) -> BoxStats {
    assert!(!values.is_empty(), "box_stats needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    BoxStats {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: *v.last().expect("non-empty"),
        mean: values.iter().sum::<f64>() / values.len() as f64,
    }
}

/// The co-location degree of an operator under a plan: the largest number
/// of its tasks sharing one worker (the paper's §3.3 contention knob).
pub fn colocation_degree(
    plan: &Placement,
    physical: &capsys_model::PhysicalGraph,
    op: OperatorId,
    num_workers: usize,
) -> usize {
    let mut counts = vec![0usize; num_workers];
    for t in physical.operator_tasks(op) {
        counts[plan.worker_of(capsys_model::TaskId(t)).0] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// The highest per-worker aggregate of a per-task weight (e.g. outbound
/// bytes/s), used to rank plans by network contention.
pub fn max_worker_weight(
    plan: &Placement,
    num_workers: usize,
    task_weight: impl Fn(usize) -> f64,
) -> f64 {
    let mut load = vec![0.0f64; num_workers];
    for (t, w) in plan.assignment().iter().enumerate() {
        load[w.0] += task_weight(t);
    }
    load.into_iter().fold(0.0, f64::max)
}

/// Sequentially places several queries with a slot-aware baseline policy,
/// as Flink would when jobs are submitted one after another (§6.2.2).
///
/// `policy` is `"default"` (fill workers in order) or `"evenly"`
/// (round-robin over workers with free slots). Returns per-query
/// placements in submission order, or `None` if the cluster ran out of
/// slots.
pub fn place_sequentially(
    queries: &[&Query],
    cluster: &Cluster,
    policy: &str,
    rng: &mut capsys_util::rng::SmallRng,
) -> Option<Vec<Placement>> {
    use capsys_util::rng::SliceRandom;
    let mut free: Vec<usize> = cluster.workers().iter().map(|w| w.spec.slots).collect();
    let mut result = Vec::with_capacity(queries.len());
    for q in queries {
        let physical = q.physical();
        let mut order: Vec<usize> = (0..physical.num_tasks()).collect();
        order.shuffle(rng);
        let mut assignment = vec![WorkerId(0); physical.num_tasks()];
        match policy {
            "default" => {
                let mut w = 0usize;
                for &t in &order {
                    while w < free.len() && free[w] == 0 {
                        w += 1;
                    }
                    if w == free.len() {
                        return None;
                    }
                    assignment[t] = WorkerId(w);
                    free[w] -= 1;
                }
            }
            "evenly" => {
                let n_workers = free.len();
                let mut w = 0usize;
                for &t in &order {
                    let mut tries = 0;
                    while free[w % n_workers] == 0 {
                        w += 1;
                        tries += 1;
                        if tries > n_workers {
                            return None;
                        }
                    }
                    assignment[t] = WorkerId(w % n_workers);
                    free[w % n_workers] -= 1;
                    w += 1;
                }
            }
            other => panic!("unknown policy `{other}`"),
        }
        result.push(Placement::new(assignment));
    }
    Some(result)
}

/// Combines per-query placements into one placement of the merged graph.
///
/// `mappings[q]` is the operator-id mapping returned by
/// [`capsys_queries::merge_queries`]; task order within an operator is
/// preserved.
pub fn combine_placements(
    queries: &[&Query],
    placements: &[Placement],
    merged_physical: &capsys_model::PhysicalGraph,
    mappings: &[Vec<OperatorId>],
) -> Placement {
    let mut assignment = vec![WorkerId(0); merged_physical.num_tasks()];
    for (qi, q) in queries.iter().enumerate() {
        let physical = q.physical();
        for t in physical.tasks() {
            let merged_op = mappings[qi][t.operator.0];
            let merged_task = merged_physical.operator_tasks(merged_op).start + t.subtask;
            assignment[merged_task] = placements[qi].worker_of(t.id);
        }
    }
    Placement::new(assignment)
}

/// Formats a rate as `12.3k` / `456`.
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 10_000.0 {
        format!("{:.1}k", rate / 1000.0)
    } else if rate >= 1000.0 {
        format!("{:.2}k", rate / 1000.0)
    } else {
        format!("{rate:.0}")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", (frac * 100.0).max(0.0))
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!();
    println!("=== {id}: {title} ===");
    println!("    (CAPSys paper, {paper_ref})");
    if fast_mode() {
        println!("    [CAPSYS_FAST=1: reduced durations and repetitions]");
    }
    println!();
}

/// Source operators of a query mapped into a merged multi-tenant graph.
pub fn mapped_sources(query: &Query, mapping: &[OperatorId]) -> Vec<OperatorId> {
    query
        .logical()
        .sources()
        .into_iter()
        .map(|s| mapping[s.0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::WorkerSpec;
    use capsys_queries::{merge_queries, q1_sliding, q3_inf};
    use capsys_util::rng::SeedableRng;

    #[test]
    fn box_stats_basic() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn colocation_degree_counts_max() {
        let q = q1_sliding();
        let p = q.physical();
        let win = q.logical().operator_by_name("sliding-window").unwrap();
        // All window tasks on worker 0.
        let mut assignment = vec![WorkerId(1); p.num_tasks()];
        for t in p.operator_tasks(win) {
            assignment[t] = WorkerId(0);
        }
        let plan = Placement::new(assignment);
        assert_eq!(colocation_degree(&plan, &p, win, 4), 8);
    }

    #[test]
    fn sequential_placement_respects_slots() {
        let q1 = q1_sliding();
        let q3 = q3_inf();
        let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap();
        let mut rng = capsys_util::rng::SmallRng::seed_from_u64(1);
        let plans = place_sequentially(&[&q1, &q3], &cluster, "default", &mut rng).unwrap();
        // Aggregate per-worker occupancy within slots.
        let mut used = vec![0usize; 4];
        for (q, plan) in [&q1, &q3].iter().zip(&plans) {
            let p = q.physical();
            for t in p.tasks() {
                used[plan.worker_of(t.id).0] += 1;
            }
        }
        for u in used {
            assert!(u <= 8, "worker over-packed: {u}");
        }
        let mut rng = capsys_util::rng::SmallRng::seed_from_u64(1);
        assert!(place_sequentially(&[&q1, &q3], &cluster, "evenly", &mut rng).is_some());
    }

    #[test]
    fn sequential_placement_fails_when_full() {
        let q1 = q1_sliding();
        let tiny = Cluster::homogeneous(1, WorkerSpec::new(4, 2.0, 1e8, 1e9)).unwrap();
        let mut rng = capsys_util::rng::SmallRng::seed_from_u64(1);
        assert!(place_sequentially(&[&q1], &tiny, "default", &mut rng).is_none());
    }

    #[test]
    fn combine_placements_round_trips() {
        let q1 = q1_sliding();
        let q3 = q3_inf();
        let (merged, maps) = merge_queries("m", &[(&q1, 1000.0), (&q3, 500.0)]).unwrap();
        let merged_physical = merged.physical();
        let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap();
        let mut rng = capsys_util::rng::SmallRng::seed_from_u64(3);
        let plans = place_sequentially(&[&q1, &q3], &cluster, "evenly", &mut rng).unwrap();
        let combined = combine_placements(&[&q1, &q3], &plans, &merged_physical, &maps);
        combined.validate(&merged_physical, &cluster).unwrap();
        // Spot-check one task: q3's first task keeps its worker.
        let t0_worker = plans[1].worker_of(capsys_model::TaskId(0));
        let merged_t0 = merged_physical.operator_tasks(maps[1][0]).start;
        assert_eq!(
            combined.worker_of(capsys_model::TaskId(merged_t0)),
            t0_worker
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_rate(14_230.0), "14.2k");
        assert_eq!(fmt_rate(1_234.0), "1.23k");
        assert_eq!(fmt_rate(680.0), "680");
        assert_eq!(fmt_pct(0.068), "6.8%");
    }

    #[test]
    fn run_plan_produces_report() {
        let q = q1_sliding();
        let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap();
        let plans = capsys_model::enumerate_plans(&q.physical(), &cluster, 1).unwrap();
        let cfg = SimConfig {
            duration: 20.0,
            warmup: 5.0,
            ..SimConfig::default()
        };
        let rate = q.capacity_rate(&cluster, 0.5).unwrap();
        let r = run_plan(&q, &cluster, &plans[0], rate, cfg);
        assert!(r.avg_throughput > 0.0);
    }
}
