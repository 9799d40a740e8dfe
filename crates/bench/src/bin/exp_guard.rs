//! Safety-governor experiment: canary probation and rollback under a
//! model-skew fault.
//!
//! Not a figure from the paper — the paper assumes the cost model stays
//! truthful — but the failure mode its adaptive controller invites: a
//! seeded [`capsys_sim::ModelSkew`] fault makes every plan deployed
//! after its onset run on a stale model (tasks cost `factor`x their
//! prediction), while the plan live at the onset keeps its measured
//! behavior. A rate step after the onset goads DS2 into rescaling onto
//! the stale model; the run then regresses and stays regressed unless
//! the governor detects it and rolls back to the last-known-good plan.
//!
//! The experiment runs the same seeded scenario with the governor off
//! (regression persists) and on (detected within one probation window,
//! rolled back, oscillations bounded), and self-asserts both outcomes
//! plus seed-determinism of the governed run.
//!
//! Usage: `exp_guard [--seed N] [--quick]`

use capsys_bench::{banner, fast_mode, fmt_rate};
use capsys_controller::guard::{MAX_ROLLBACKS, PROBATION_WINDOWS};
use capsys_controller::{ClosedLoop, ClosedLoopTrace, GuardConfig};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{ChaosConfig, FaultPlan, SimConfig};

const POLICY_INTERVAL: f64 = 5.0;

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

/// The scenario's fault plan: exactly one model-skew fault, no other
/// chaos, so every effect in the trace is the governor's.
fn skew_plan(seed: u64, horizon: f64, workers: usize) -> FaultPlan {
    let config = ChaosConfig {
        seed,
        horizon,
        crashes: 0,
        stragglers: 0,
        blackouts: 0,
        metric_noise: 0.0,
        controller_kills: 0,
        model_skews: 1,
        skew_factor: (3.0, 4.0),
        ..ChaosConfig::default()
    };
    FaultPlan::generate(&config, workers).expect("valid chaos config")
}

struct Scenario {
    plan: FaultPlan,
    schedule: RateSchedule,
    base_rate: f64,
    step_at: f64,
    duration: f64,
}

/// Builds the seeded scenario: the rate steps up two policy intervals
/// after the skew onset, so the pre-step plan (the trusted one) is live
/// when the model goes stale and DS2's reaction lands on the stale
/// model.
fn scenario(seed: u64, duration: f64) -> Result<Scenario, Box<dyn std::error::Error>> {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let base_rate = query.capacity_rate(&cluster, 0.5)?;
    let plan = skew_plan(seed, duration, cluster.num_workers());
    let skew = plan.model_skew.expect("chaos config requested one skew");
    // Snap the step to a policy boundary strictly after the onset.
    let step_at = ((skew.time / POLICY_INTERVAL).floor() + 2.0) * POLICY_INTERVAL;
    let schedule = RateSchedule::Steps(vec![(0.0, base_rate), (step_at, 1.8 * base_rate)]);
    Ok(Scenario {
        plan,
        schedule,
        base_rate,
        step_at,
        duration,
    })
}

fn run_once(
    seed: u64,
    sc: &Scenario,
    guard: Option<GuardConfig>,
) -> Result<ClosedLoopTrace, Box<dyn std::error::Error>> {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let strategy = CapsStrategy::default();
    let mut loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        Ds2Config {
            activation_period: 60.0,
            policy_interval: POLICY_INTERVAL,
            max_parallelism: 8,
            headroom: 1.0,
        },
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
        sc.schedule.clone(),
        seed,
    )?
    .with_fault_plan(sc.plan.clone())?;
    if let Some(config) = guard {
        loop_ = loop_.with_guard(config)?;
    }
    Ok(loop_.run(sc.duration)?)
}

/// Tracking ratio (throughput / target) over `[from, to]`.
fn tracking(trace: &ClosedLoopTrace, from: f64, to: f64) -> f64 {
    let tgt = trace.avg_target(from, to);
    if tgt > 0.0 {
        trace.avg_throughput(from, to) / tgt
    } else {
        1.0
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seed, quick) = parse_args();
    banner(
        "Guard",
        "reconfiguration safety governor under model skew",
        "robustness extension (not a paper figure)",
    );
    let duration = if quick { 300.0 } else { 600.0 };
    let sc = scenario(seed, duration)?;
    let skew = sc.plan.model_skew.expect("scenario has a skew");
    println!(
        "Q1-sliding, seed {seed}, {duration}s, 6 workers; model goes {:.1}x stale at t={:.0}s, \
         rate steps {} -> {} at t={:.0}s\n",
        skew.factor,
        skew.time,
        fmt_rate(sc.base_rate),
        fmt_rate(1.8 * sc.base_rate),
        sc.step_at
    );

    let off = run_once(seed, &sc, None)?;
    let on = run_once(seed, &sc, Some(GuardConfig::default()))?;
    let tail_from = duration * 0.8;

    // --- Governor off: the regression persists. ---
    let off_tail = tracking(&off, tail_from, duration);
    println!("--- governor off ---");
    println!(
        "  scaling events: {}, rollbacks: {}, final-window tracking {:.0}%",
        off.events.len(),
        off.oscillations(),
        100.0 * off_tail
    );
    assert!(off.oscillations() == 0, "governor-off run cannot roll back");
    assert!(
        !off.events.is_empty(),
        "the rate step must goad DS2 into rescaling onto the stale model"
    );
    assert!(
        off_tail < 0.85,
        "without the governor the stale-model plan should keep regressing \
         (tail tracking {off_tail:.2})"
    );

    // --- Governor on: detect, roll back, recover, stay stable. ---
    let on_tail = tracking(&on, tail_from, duration);
    println!("--- governor on ---");
    for e in &on.events {
        println!("  scaled at t={:.0}s to {:?}", e.time, e.parallelism);
    }
    for e in &on.rollback_events {
        println!(
            "  canary (epoch {}) deployed t={:.0}s, rolled back to epoch {} at t={:.0}s \
             (degraded {:.0}s): tracking {:.0}% vs baseline {:.0}%, cooldown until t={:.0}s",
            e.from_epoch,
            e.deployed_at,
            e.to_epoch,
            e.time,
            e.degraded_for,
            100.0 * e.observed_tracking,
            100.0 * e.baseline_tracking,
            e.cooldown_until
        );
    }
    println!(
        "  rollbacks: {}, time degraded: {:.0}s, final-window tracking {:.0}%",
        on.oscillations(),
        on.time_in_degraded(),
        100.0 * on_tail
    );
    println!(
        "  state moved: {} bytes, restore downtime {:.1} task-s\n",
        on.bytes_moved(),
        on.downtime()
    );
    assert!(
        !on.rollback_events.is_empty(),
        "the governor must detect the stale-model regression"
    );
    let first = &on.rollback_events[0];
    let deadline = (PROBATION_WINDOWS as f64 + 1.0) * POLICY_INTERVAL;
    assert!(
        first.degraded_for <= deadline + 1e-9,
        "regression must be detected within one probation window \
         ({:.0}s > {deadline:.0}s)",
        first.degraded_for
    );
    assert!(
        on.oscillations() <= MAX_ROLLBACKS,
        "rollback churn must be bounded by the governor's cap"
    );
    // Rolling back cannot make the old plan track the stepped-up target,
    // but it must restore at least the *throughput* the system had
    // before the incident — the regression itself is undone. Measure the
    // baseline before the rate step so its queue-drain transient (which
    // briefly admits above steady state) does not inflate it.
    let pre_tp = on.avg_throughput((sc.step_at - 20.0).max(0.0), sc.step_at);
    let post_tp = on.avg_throughput(first.time + 2.0 * POLICY_INTERVAL, duration);
    assert!(
        post_tp >= 0.9 * pre_tp,
        "post-rollback throughput {} must recover to >=90% of the pre-deploy \
         baseline {}",
        fmt_rate(post_tp),
        fmt_rate(pre_tp)
    );
    assert!(
        on_tail > off_tail,
        "the governed run must out-track the unguarded one"
    );

    // --- Determinism: same seed, same governed trace. ---
    let replay = run_once(seed, &sc, Some(GuardConfig::default()))?;
    let identical = replay.points == on.points
        && replay.events == on.events
        && replay.rollback_events == on.rollback_events;
    println!(
        "determinism: two seed-{seed} governed runs {}",
        if identical {
            "replay identically"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        return Err("same-seed governed runs diverged".into());
    }
    println!("\nall guard assertions passed");
    Ok(())
}
