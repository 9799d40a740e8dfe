//! Multi-tenant placement: all six paper queries on one large cluster.
//!
//! Mirrors §6.2.2: the six evaluation queries are merged into one
//! dataflow and CAPS places them globally on an 18-worker, 144-slot
//! cluster, accounting for contention *across* queries.
//!
//! Run with: `cargo run --release --example multi_tenant`

use capsys::placement::{CapsStrategy, PlacementContext, PlacementStrategy};
use capsys::prelude::*;
use capsys::queries::{all_queries, merge_queries};
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let cluster = Cluster::homogeneous(18, WorkerSpec::m5d_2xlarge(8))?;
    let four = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8))?;

    // Target rates sized for the shared cluster.
    let queries = all_queries();
    let rates: Vec<f64> = queries
        .iter()
        .map(|q| q.capacity_rate(&four, 0.9).map(|r| r * 0.6))
        .collect::<Result<_, _>>()?;

    let pairs: Vec<(&Query, f64)> = queries.iter().zip(rates.iter().copied()).collect();
    let (merged, mappings) = merge_queries("tenants", &pairs)?;
    let physical = merged.physical();
    let total_rate: f64 = rates.iter().sum();
    println!(
        "merged dataflow: {} operators / {} tasks on {} slots",
        merged.logical().num_operators(),
        physical.num_tasks(),
        cluster.total_slots()
    );

    // One global CAPS placement across all tenants.
    let loads = merged.load_model_at(&physical, total_rate)?;
    let ctx = PlacementContext {
        logical: merged.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };
    let mut rng = SmallRng::seed_from_u64(0);
    // 28 operators need bounded probes and a bounded final search; a
    // node budget keeps the plan independent of the machine's speed.
    let caps = CapsStrategy::new(SearchConfig {
        node_budget: Some(10_000_000),
        max_plans: 64,
        auto_tune: capsys::caps::AutoTuneConfig {
            probe_node_budget: 300_000,
        },
        ..SearchConfig::auto_tuned()
    });
    let plan = caps.place(&ctx, &mut rng)?;

    // Simulate and report per query.
    let schedules = merged.schedules(total_rate);
    let mut sim = Simulation::new(
        merged.logical(),
        &physical,
        &cluster,
        &plan,
        &schedules,
        SimConfig {
            duration: 120.0,
            warmup: 30.0,
            ..SimConfig::default()
        },
    )?;
    let report = sim.run();
    println!("\nper-query results:");
    for (qi, q) in queries.iter().enumerate() {
        let sources: Vec<OperatorId> = q
            .logical()
            .sources()
            .iter()
            .map(|s| mappings[qi][s.0])
            .collect();
        let stats = report.query_stats(&sources);
        println!(
            "  {:<14} {:>9.0} / {:>9.0} rec/s  (bp {:>5.1}%)",
            q.name(),
            stats.throughput,
            stats.target,
            stats.backpressure * 100.0
        );
    }
    Ok(())
}
