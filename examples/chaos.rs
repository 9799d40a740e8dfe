//! Chaos: deterministic fault injection against the self-healing loop.
//!
//! A seeded `FaultPlan` crashes a worker, slows another one down, and
//! blacks out the metrics pipeline while the DS2 + CAPS closed loop runs
//! Q1-sliding. The failure detector notices the missing heartbeats, the
//! recovery ladder re-places the job on the survivors, and the trace
//! records detection lag, time-to-recover, and the throughput lost to
//! the outage. Same seed, same run — every time.
//!
//! Run with: `cargo run --release --example chaos`

use capsys::controller::{ClosedLoop, RecoveryConfig};
use capsys::ds2::Ds2Config;
use capsys::placement::CapsStrategy;
use capsys::prelude::*;
use capsys::sim::{ChaosConfig, FaultPlan};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let query = capsys::queries::q1_sliding();
    let rate = query.capacity_rate(&cluster, 0.5)?;

    // One crash that never heals on its own, one straggler, one metrics
    // blackout — all drawn deterministically from the seed.
    let chaos = ChaosConfig {
        seed: 7,
        horizon: 600.0,
        crashes: 1,
        crash_downtime: (600.0, 600.0),
        stragglers: 1,
        slowdown: (2.0, 3.0),
        straggler_duration: (40.0, 60.0),
        blackouts: 1,
        blackout_duration: (5.0, 10.0),
        metric_noise: 0.02,
        controller_kills: 0,
        model_skews: 0,
        skew_factor: (2.0, 4.0),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::generate(&chaos, cluster.num_workers())?;
    println!("fault schedule (seed {}):", chaos.seed);
    for e in &plan.events {
        println!("  t={:>5.0}s  {:?}", e.time, e.kind);
    }

    let strategy = CapsStrategy::default();
    let trace = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        Ds2Config {
            activation_period: 60.0,
            policy_interval: 5.0,
            max_parallelism: 8,
            headroom: 1.0,
        },
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
        RateSchedule::Constant(rate),
        chaos.seed,
    )?
    .with_fault_plan(plan)?
    .with_recovery(RecoveryConfig::default())
    .run(600.0)?;

    println!("\nrecoveries:");
    for e in &trace.recovery_events {
        println!(
            "  worker {} silent from t={:.0}s, detected at t={:.0}s, \
             re-placed {:.1}s after the first missed heartbeat \
             ({} attempt(s), rung: {})",
            e.worker.0,
            e.stale_since,
            e.detected_at,
            e.time_to_recover,
            e.plans_tried,
            e.rung.name()
        );
    }
    if let Some(mttr) = trace.mttr() {
        println!("MTTR: {mttr:.1}s");
    }
    println!(
        "throughput lost to the outage: {:.0} records",
        trace.throughput_loss_area(0.0, 600.0)
    );
    println!(
        "final-window tracking: {:.0} / {:.0} rec/s",
        trace.avg_throughput(480.0, 600.0),
        trace.avg_target(480.0, 600.0)
    );
    Ok(())
}
