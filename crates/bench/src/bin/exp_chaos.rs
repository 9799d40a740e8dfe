//! Chaos experiment: deterministic fault injection against the
//! self-healing closed loop.
//!
//! Not a figure from the paper — the paper assumes healthy clusters —
//! but the scenario its adaptive controller invites: a seeded
//! [`FaultPlan`] crashes a worker, slows another down, and blacks out
//! the metrics pipeline while the DS2 + CAPS loop runs Q1-sliding. The
//! experiment reports, per recovery policy (full ladder vs. round-robin
//! only), the detection lag, the mean time to recover (MTTR), the
//! throughput-loss area of the outage, and whether two runs with the
//! same seed replay identically.
//!
//! Usage: `exp_chaos [--seed N] [--quick]`

use std::time::Duration;

use capsys_bench::{banner, fast_mode, fmt_rate};
use capsys_controller::{ClosedLoop, ClosedLoopTrace, LadderRung, RecoveryConfig};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{ChaosConfig, FaultPlan, SimConfig};

/// Minimal std-only flag parsing: `--seed N` and `--quick`.
fn parse_args() -> (u64, bool) {
    let mut seed = 7u64;
    let mut quick = fast_mode();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed expects an integer; using 7");
                    7
                });
            }
            "--quick" => quick = true,
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    (seed, quick)
}

fn chaos_config(seed: u64, horizon: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        horizon,
        crashes: 1,
        // The crash outlives the run: recovery must come from
        // re-placement, not from the worker coming back.
        crash_downtime: (horizon, horizon),
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
    }
}

fn run_once(
    seed: u64,
    duration: f64,
    recovery: RecoveryConfig,
) -> Result<ClosedLoopTrace, Box<dyn std::error::Error>> {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let target = query.capacity_rate(&cluster, 0.5)?;
    let strategy = CapsStrategy::default();
    let plan = FaultPlan::generate(&chaos_config(seed, duration), cluster.num_workers())?;
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
        RateSchedule::Constant(target),
        seed,
    )?
    .with_fault_plan(plan)?
    .with_recovery(recovery)
    .run(duration)?;
    Ok(trace)
}

fn report(name: &str, trace: &ClosedLoopTrace, duration: f64) {
    println!("--- {name} ---");
    if trace.recovery_events.is_empty() {
        println!("no recoveries completed (fault plan may not have hit a used worker)");
    }
    for e in &trace.recovery_events {
        println!(
            "  worker {} silent from t={:.0}s, detected at t={:.0}s (lag {:.1}s), \
             recovered in {:.1}s ({} attempt(s), rung: {})",
            e.worker.0,
            e.stale_since,
            e.detected_at,
            e.detection_lag,
            e.time_to_recover,
            e.plans_tried,
            e.rung.name()
        );
    }
    if let Some(mttr) = trace.mttr() {
        println!("MTTR: {mttr:.1}s");
    }
    let loss = trace.throughput_loss_area(0.0, duration);
    let tp = trace.avg_throughput(duration * 0.8, duration);
    let tgt = trace.avg_target(duration * 0.8, duration);
    println!("throughput-loss area: {loss:.0} records");
    println!(
        "state moved: {} bytes across {} wave(s), restore downtime {:.1} task-s",
        trace.bytes_moved(),
        trace.migration_waves.len(),
        trace.downtime()
    );
    println!(
        "final-window tracking: {}/{} ({:.0}%)\n",
        fmt_rate(tp),
        fmt_rate(tgt),
        if tgt > 0.0 { 100.0 * tp / tgt } else { 100.0 }
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seed, quick) = parse_args();
    banner(
        "Chaos",
        "fault injection + self-healing recovery",
        "robustness extension (not a paper figure)",
    );
    let duration = if quick { 240.0 } else { 600.0 };
    println!(
        "Q1-sliding, seed {seed}, {duration}s, 6 workers, 1 crash + 1 straggler + 1 blackout\n"
    );

    // Full ladder: auto-tuned CAPS first.
    let full = run_once(seed, duration, RecoveryConfig::default())?;
    report("ladder: caps -> relaxed -> round-robin", &full, duration);

    // Budget-starved ladder: forces the round-robin rung.
    let starved = RecoveryConfig {
        search: SearchConfig {
            time_budget: Some(Duration::ZERO),
            ..SearchConfig::auto_tuned()
        },
        ..RecoveryConfig::default()
    };
    let rr = run_once(seed, duration, starved)?;
    report(
        "ladder: round-robin only (zero search budget)",
        &rr,
        duration,
    );
    if rr
        .recovery_events
        .iter()
        .any(|e| e.rung != LadderRung::RoundRobin)
    {
        println!("WARNING: starved ladder used a CAPS rung");
    }

    // Determinism: same seed, same everything.
    let replay = run_once(seed, duration, RecoveryConfig::default())?;
    let identical = replay.recovery_events == full.recovery_events
        && replay.events == full.events
        && replay.points == full.points;
    println!(
        "determinism: two seed-{seed} runs {}",
        if identical {
            "replay identically"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        return Err("same-seed chaos runs diverged".into());
    }
    Ok(())
}
