//! Skew-aware placement groups (§5.2 extension).
//!
//! A Zipf-skewed window operator breaks CAPS's identical-tasks
//! assumption: the heavy subtasks must not share a worker, but plain
//! CAPS cannot tell them apart. This example splits the operator into
//! placement groups with `apply_skew`, places the derived problem, maps
//! the plan back, and compares both deployments under the *true* skewed
//! load.
//!
//! Run with: `cargo run --release --example skewed_workload`

use capsys::model::{apply_skew, SkewSpec, TaskId};
use capsys::placement::{CapsStrategy, PlacementContext, PlacementStrategy};
use capsys::prelude::*;
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let query = capsys::queries::q1_sliding();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let rate = query.capacity_rate(&cluster, 0.8)?;
    let window = query
        .logical()
        .operator_by_name("sliding-window")
        .expect("window");

    // The window's 8 subtasks receive Zipf(0.8)-skewed input.
    let spec = SkewSpec::zipf(window, 8, 0.8);
    println!(
        "window task weights: {:?}",
        spec.weights
            .iter()
            .map(|w| (w * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // Plain CAPS: blind to the skew.
    let physical = query.physical();
    let loads = query.load_model_at(&physical, rate)?;
    let mut rng = SmallRng::seed_from_u64(2);
    let plain_plan = CapsStrategy::default().place(
        &PlacementContext {
            logical: query.logical(),
            physical: &physical,
            cluster: &cluster,
            loads: &loads,
        },
        &mut rng,
    )?;

    // Skew-aware CAPS: split the window into 3 placement groups and
    // place the derived problem.
    let skewed = apply_skew(query.logical(), &[spec.clone()], 3)?;
    let derived_query = Query::new(skewed.logical.clone(), {
        // Same source mix, mapped onto the derived graph (sources are
        // never split).
        let src = skewed
            .logical
            .operator_by_name("source")
            .expect("source kept");
        std::collections::HashMap::from([(src, 1.0)])
    })?;
    let derived_physical = derived_query.physical();
    let derived_loads = derived_query.load_model_at(&derived_physical, rate)?;
    let aware_derived = CapsStrategy::default().place(
        &PlacementContext {
            logical: derived_query.logical(),
            physical: &derived_physical,
            cluster: &cluster,
            loads: &derived_loads,
        },
        &mut rng,
    )?;
    let aware_plan = skewed.map_placement(&derived_physical, &aware_derived)?;

    // Judge both plans against the true skewed per-worker CPU load.
    let total_w: f64 = spec.weights.iter().sum();
    let win_range = physical.operator_tasks(window);
    let win_input = loads.op_input_rate(window);
    let cpu_unit = query.logical().operator(window).profile.cpu_per_record;
    for (name, plan) in [("plain", &plain_plan), ("skew-aware", &aware_plan)] {
        let mut per_worker = vec![0.0f64; cluster.num_workers()];
        for (i, t) in win_range.clone().enumerate() {
            let w = plan.worker_of(TaskId(t));
            per_worker[w.0] += win_input * spec.weights[i] / total_w * cpu_unit;
        }
        let max = per_worker.iter().cloned().fold(0.0, f64::max);
        let avg = per_worker.iter().sum::<f64>() / per_worker.len() as f64;
        println!(
            "{name:>11}: bottleneck window load {max:.2} cores (ideal {avg:.2}), imbalance {:.2}x",
            max / avg
        );
    }
    println!("\n(the skew-aware plan separates the heavy subtasks; the plain plan");
    println!(" may stack them on one worker because it considers them identical)");
    Ok(())
}
