//! Guard claim: the safety governor undoes a stale-model regression.
//!
//! A seeded [`capsys_sim::ModelSkew`] fault makes every plan deployed
//! after its onset run on a stale model (tasks cost `factor`x their
//! prediction), while the plan live at the onset keeps its measured
//! behaviour. A rate step two policy windows after the onset goads DS2
//! into rescaling onto the stale model. Without the governor the run
//! regresses and stays regressed; with it the regression is detected
//! within one probation window, rolled back to last-known-good, the
//! rollback churn stays within the governor's cap, and two governed
//! runs at the same seed replay identically.

use capsys_controller::guard::{MAX_ROLLBACKS, PROBATION_WINDOWS};
use capsys_controller::{ClosedLoopTrace, GuardConfig};
use capsys_model::RateSchedule;
use capsys_sim::{ChaosConfig, FaultPlan, ModelSkew};

use super::{Error, Scenario, Shape, POLICY_INTERVAL};
use crate::fmt_rate;

/// The governor-off and governor-on runs of one seeded scenario.
pub struct Outcome {
    seed: u64,
    duration: f64,
    skew: ModelSkew,
    base_rate: f64,
    /// When the rate steps up to 1.8x `base_rate`.
    step_at: f64,
    off: ClosedLoopTrace,
    on: ClosedLoopTrace,
    /// The governed run again, at the same seed.
    replay: ClosedLoopTrace,
}

/// Tracking ratio (throughput / target) of `trace` over its final 20%.
fn tail_tracking(trace: &ClosedLoopTrace, duration: f64) -> f64 {
    let (from, to) = (duration * 0.8, duration);
    let tgt = trace.avg_target(from, to);
    if tgt > 0.0 {
        trace.avg_throughput(from, to) / tgt
    } else {
        1.0
    }
}

/// The governed run of the guard scenario: Q1 on six workers, exactly
/// one seeded model-skew fault and no other chaos (so every effect in
/// the trace is the governor's), and a 1.8x rate step two policy
/// windows after the onset, with the default governor armed. Returns
/// the scenario, the skew, and the step's time.
pub(crate) fn governed(seed: u64, duration: f64) -> Result<(Scenario, ModelSkew, f64), Error> {
    let mut scenario = Scenario::q1(seed, duration)?;
    let base_rate = scenario.schedule.rate_at(0.0);
    let chaos = ChaosConfig {
        seed,
        horizon: duration,
        crashes: 0,
        stragglers: 0,
        blackouts: 0,
        model_skews: 1,
        skew_factor: (3.0, 4.0),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::generate(&chaos, scenario.cluster.num_workers())?;
    let skew = plan
        .model_skew
        .ok_or("the chaos config requested one skew")?;
    // Snap the step to a policy boundary strictly after the onset, so
    // the pre-step plan (the trusted one) is live when the model goes
    // stale and DS2's reaction lands on the stale model.
    let step_at = ((skew.time / POLICY_INTERVAL).floor() + 2.0) * POLICY_INTERVAL;
    scenario.schedule = RateSchedule::Steps(vec![(0.0, base_rate), (step_at, 1.8 * base_rate)]);
    scenario.faults = Some(plan);
    scenario.guard = Some(GuardConfig::default());
    Ok((scenario, skew, step_at))
}

/// Runs the guard scenario: 300 s per run on [`Shape::Smoke`], 600 s
/// on [`Shape::Full`].
pub fn run(shape: Shape, seed: u64) -> Result<Outcome, Error> {
    let duration = shape.smoke_or(300.0, 600.0);
    let (mut scenario, skew, step_at) = governed(seed, duration)?;
    let on = scenario.run()?;
    let replay = scenario.run()?;
    scenario.guard = None;
    Ok(Outcome {
        seed,
        duration,
        skew,
        base_rate: scenario.schedule.rate_at(0.0),
        step_at,
        off: scenario.run()?,
        on,
        replay,
    })
}

impl Outcome {
    /// Prints both runs: scalings, rollbacks and final tracking.
    pub fn print(&self) {
        let (off, on, duration) = (&self.off, &self.on, self.duration);
        println!(
            "Q1-sliding, seed {}, {duration}s, 6 workers; model goes {:.1}x stale at t={:.0}s, \
             rate steps {} -> {} at t={:.0}s\n",
            self.seed,
            self.skew.factor,
            self.skew.time,
            fmt_rate(self.base_rate),
            fmt_rate(1.8 * self.base_rate),
            self.step_at
        );
        println!("--- governor off ---");
        println!(
            "  scaling events: {}, rollbacks: {}, final-window tracking {:.0}%",
            off.events.len(),
            off.oscillations(),
            100.0 * tail_tracking(off, duration)
        );
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
            100.0 * tail_tracking(on, duration)
        );
        println!();
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        let (off, on, duration) = (&self.off, &self.on, self.duration);
        // Governor off: the regression persists.
        let off_tail = tail_tracking(off, duration);
        ensure!(off.oscillations() == 0, "governor-off run cannot roll back");
        ensure!(
            !off.events.is_empty(),
            "the rate step must goad DS2 into rescaling onto the stale model"
        );
        ensure!(
            off_tail < 0.85,
            "without the governor the stale-model plan should keep regressing \
             (tail tracking {off_tail:.2})"
        );

        // Governor on: detect, roll back, recover, stay stable.
        let on_tail = tail_tracking(on, duration);
        let Some(first) = on.rollback_events.first() else {
            return Err("the governor must detect the stale-model regression".into());
        };
        let deadline = (PROBATION_WINDOWS as f64 + 1.0) * POLICY_INTERVAL;
        ensure!(
            first.degraded_for <= deadline + 1e-9,
            "regression must be detected within one probation window \
             ({:.0}s > {deadline:.0}s)",
            first.degraded_for
        );
        ensure!(
            on.oscillations() <= MAX_ROLLBACKS,
            "rollback churn must be bounded by the governor's cap"
        );
        // Rolling back cannot make the old plan track the stepped-up
        // target, but it must restore at least the *throughput* the
        // system had before the incident — the regression itself is
        // undone. Measure the baseline before the rate step so its
        // queue-drain transient (which briefly admits above steady
        // state) does not inflate it.
        let pre_tp = on.avg_throughput((self.step_at - 20.0).max(0.0), self.step_at);
        let post_tp = on.avg_throughput(first.time + 2.0 * POLICY_INTERVAL, duration);
        ensure!(
            post_tp >= 0.9 * pre_tp,
            "post-rollback throughput {} must recover to >=90% of the pre-deploy \
             baseline {}",
            fmt_rate(post_tp),
            fmt_rate(pre_tp)
        );
        ensure!(
            on_tail > off_tail,
            "the governed run must out-track the unguarded one"
        );

        // Determinism: same seed, same governed trace.
        ensure!(
            self.replay.points == on.points
                && self.replay.events == on.events
                && self.replay.rollback_events == on.rollback_events,
            "same-seed governed runs diverged"
        );
        Ok(())
    }
}
