//! Chaos claim: the self-healing closed loop survives seeded faults.
//!
//! A seeded [`FaultPlan`] crashes a worker for the rest of the run,
//! slows another down, and blacks out the metrics pipeline while the
//! DS2 + CAPS loop runs Q1-sliding on six workers. The loop runs twice
//! with the full recovery ladder (auto-tuned CAPS first) and once with
//! a zero search budget, which must drop every recovery to the
//! round-robin rung. The claim: the starved ladder recovers only by
//! round-robin, and same-seed full-ladder runs replay identically.

use std::time::Duration;

use capsys_controller::{ClosedLoopTrace, LadderRung, RecoveryConfig};
use capsys_core::SearchConfig;
use capsys_sim::{ChaosConfig, FaultPlan};

use super::{Error, Scenario, Shape};
use crate::fmt_rate;

/// One chaos run per ladder, plus a same-seed replay of the full one.
pub struct Outcome {
    seed: u64,
    duration: f64,
    full: ClosedLoopTrace,
    starved: ClosedLoopTrace,
    replay: ClosedLoopTrace,
}

/// Runs the chaos scenario: 240 s per run on [`Shape::Smoke`], 600 s
/// on [`Shape::Full`].
pub fn run(shape: Shape, seed: u64) -> Result<Outcome, Error> {
    let duration = shape.smoke_or(240.0, 600.0);
    let mut scenario = Scenario::q1(seed, duration)?;
    let chaos = ChaosConfig {
        seed,
        horizon: duration,
        crashes: 1,
        // The crash outlives the run: recovery must come from
        // re-placement, not from the worker coming back.
        crash_downtime: (duration, duration),
        stragglers: 1,
        slowdown: (2.0, 3.0),
        straggler_duration: (40.0, 60.0),
        blackouts: 1,
        blackout_duration: (5.0, 10.0),
        metric_noise: 0.02,
        ..ChaosConfig::default()
    };
    scenario.faults = Some(FaultPlan::generate(&chaos, scenario.cluster.num_workers())?);
    scenario.recovery = Some(RecoveryConfig::default());
    let full = scenario.run()?;
    let replay = scenario.run()?;
    // Budget-starved ladder: forces the round-robin rung.
    scenario.recovery = Some(RecoveryConfig {
        search: SearchConfig {
            time_budget: Some(Duration::ZERO),
            ..SearchConfig::auto_tuned()
        },
    });
    Ok(Outcome {
        seed,
        duration,
        full,
        starved: scenario.run()?,
        replay,
    })
}

impl Outcome {
    /// Prints each ladder's recoveries, MTTR, loss and final tracking.
    pub fn print(&self) {
        let duration = self.duration;
        println!(
            "Q1-sliding, seed {}, {duration}s, 6 workers, 1 crash + 1 straggler + 1 blackout\n",
            self.seed
        );
        for (name, trace) in [
            ("ladder: caps -> relaxed -> round-robin", &self.full),
            (
                "ladder: round-robin only (zero search budget)",
                &self.starved,
            ),
        ] {
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
            let tp = trace.avg_throughput(duration * 0.8, duration);
            let tgt = trace.avg_target(duration * 0.8, duration);
            println!(
                "throughput-loss area: {:.0} records",
                trace.throughput_loss_area(0.0, duration)
            );
            println!(
                "final-window tracking: {}/{} ({:.0}%)\n",
                fmt_rate(tp),
                fmt_rate(tgt),
                if tgt > 0.0 { 100.0 * tp / tgt } else { 100.0 }
            );
        }
    }

    /// The fewer recoveries of the two ladders: 0 when the crash hits no
    /// used worker, and then the rung check holds vacuously.
    pub fn fewest_recoveries(&self) -> usize {
        let (full, starved) = (&self.full.recovery_events, &self.starved.recovery_events);
        full.len().min(starved.len())
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        for e in &self.starved.recovery_events {
            ensure!(
                e.rung == LadderRung::RoundRobin,
                "the starved ladder recovered worker {} with the {} rung",
                e.worker.0,
                e.rung.name()
            );
        }
        ensure!(
            self.replay.recovery_events == self.full.recovery_events
                && self.replay.events == self.full.events
                && self.replay.points == self.full.points,
            "same-seed chaos runs diverged"
        );
        Ok(())
    }
}
