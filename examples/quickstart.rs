//! Quickstart: place a streaming query with CAPS and simulate it.
//!
//! Builds the paper's Q1-sliding query (Nexmark Q5), searches for a
//! contention-balanced placement on a 4-worker cluster, and compares it
//! against a random Flink-default placement in the simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use capsys::prelude::*;
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A query and a cluster: Q1-sliding on 4x r5d.xlarge (§3.2).
    let query = capsys::queries::q1_sliding();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let physical = query.physical();

    // 2. Target rate: saturate the cluster like the paper's methodology.
    let rate = query.capacity_rate(&cluster, 0.92)?;
    println!(
        "query: {} ({} tasks), target rate {:.0} rec/s",
        query.name(),
        physical.num_tasks(),
        rate
    );

    // 3. Run CAPS with auto-tuned thresholds.
    let loads = query.load_model_at(&physical, rate)?;
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads)?;
    let outcome = search.run(&SearchConfig::auto_tuned())?;
    let caps_plan = outcome.best_plan().expect("a feasible plan exists").clone();
    let report = outcome.autotune.expect("auto-tuning ran");
    println!(
        "CAPS: thresholds (cpu {:.3}, io {:.3}) tuned in {:?}; {} feasible plans explored",
        report.thresholds.cpu, report.thresholds.io, report.elapsed, outcome.stats.plans_found
    );

    // 4. A baseline plan: Flink's default random slot assignment.
    let mut rng = SmallRng::seed_from_u64(4);
    let ctx = capsys::placement::PlacementContext {
        logical: query.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };
    let default_plan = FlinkDefault.place(&ctx, &mut rng)?;

    // 5. Simulate both deployments.
    for (name, plan) in [("caps", &caps_plan), ("default", &default_plan)] {
        let schedules = query.schedules(rate);
        let mut sim = Simulation::new(
            query.logical(),
            &physical,
            &cluster,
            plan,
            &schedules,
            SimConfig {
                duration: 120.0,
                warmup: 30.0,
                ..SimConfig::default()
            },
        )?;
        let r = sim.run();
        println!(
            "{name:>8}: throughput {:.0} rec/s, backpressure {:.1}%, latency {:.2}s",
            r.avg_throughput,
            r.avg_backpressure * 100.0,
            r.avg_latency
        );
    }
    Ok(())
}
