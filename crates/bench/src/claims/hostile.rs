//! Hostile claim: the survival layer holds under adversarial traffic.
//!
//! Seeded [`capsys_sim::WorkloadEngine`] programs drive Q1-sliding on
//! six workers. **Growth** and **flash** crowds run A/B under the
//! drift-aware governor (the default) and the absolute-baseline one:
//! the drift-aware one never rolls back, and the absolute one
//! false-rollbacks on every flash seed. An injected true
//! **regression** is still rolled back within one probation window.
//! Under a sustained **overload** with DS2 pinned, the shedder engages,
//! journals every change, bounds backpressure, beats the unshedded
//! goodput (throughput under a latency SLO), releases once the crowd
//! decays, and a controller killed after its first `Shed` record
//! recovers byte-identically. The outcome carries the
//! `BENCH_hostile.json` record, which `check` validates in memory.

use std::time::Instant;

use capsys_controller::guard::PROBATION_WINDOWS;
use capsys_controller::journal::parse_journal;
use capsys_controller::shed::{CAPACITY_WINDOWS, ENGAGE_THRESHOLD, RELEASE_WINDOWS};
use capsys_controller::{
    BaselineMode, ClosedLoopTrace, ControllerError, DecisionRecord, GuardConfig, ShedEvent,
};
use capsys_model::{OperatorId, RateSchedule};
use capsys_sim::{FaultPlan, KillPoint, WorkloadConfig, WorkloadEngine};
use capsys_util::json::{obj, Json};

use super::{Error, Scenario, Shape, POLICY_INTERVAL, SEEDS};
use crate::fmt_rate;

/// Latency SLO for goodput accounting: a window's throughput only
/// counts as goodput when its end-to-end latency estimate is below this.
const SLO_SECONDS: f64 = 5.0;
/// Horizon of every A/B scenario. Scenario horizons are fixed
/// properties of the tuned workload shapes (growth must not outrun the
/// cluster's deployable maximum); the full shape widens the seed set
/// instead of stretching the runs.
const AB_DURATION: f64 = 300.0;
const OVERLOAD_DURATION: f64 = 300.0;
/// The seed of the regression and overload scenarios.
pub const SEED: u64 = 7;

/// One A/B cell: the same seeded scenario judged by both baseline
/// modes — the drift-aware run's scalings and rollbacks, and the
/// absolute-baseline run's rollbacks.
struct Cell {
    seed: u64,
    scalings: usize,
    drift_rollbacks: usize,
    absolute_rollbacks: usize,
}

impl Cell {
    fn to_json(&self) -> Json {
        obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("scalings", Json::Num(self.scalings as f64)),
            ("drift_rollbacks", Json::Num(self.drift_rollbacks as f64)),
            (
                "absolute_rollbacks",
                Json::Num(self.absolute_rollbacks as f64),
            ),
        ])
    }
}

/// The injected true regression, judged by the drift-aware governor:
/// when the model went stale, the rollbacks, how long the first
/// rollback's canary ran degraded, and the one-probation-window
/// deadline.
struct Regression {
    seed: u64,
    skew_at: f64,
    rollbacks: usize,
    degraded_for: Option<f64>,
    deadline: f64,
}

/// The sustained-overload A/B and its crash-recovery leg. `settle` is
/// when backpressure starts being judged, and the backpressure peaks
/// cover `settle` to the plateau's end; goodputs are in records.
struct Overload {
    seed: u64,
    plateau: (f64, f64),
    shed_events: Vec<ShedEvent>,
    time_shedding: f64,
    settle: f64,
    bp_peak_shedded: f64,
    bp_peak_unshedded: f64,
    goodput_shedded: f64,
    goodput_unshedded: f64,
    journaled_sheds: usize,
    kill_fired: bool,
    recovery_identical: bool,
}

/// Every scenario of one run.
pub struct Outcome {
    seeds: Vec<u64>,
    base_rate: f64,
    growth: Vec<Cell>,
    flash: Vec<Cell>,
    absolute_false_rollbacks: usize,
    regression: Regression,
    overload: Overload,
    /// The `BENCH_hostile.json` record.
    pub record: Json,
}

/// The one source's rate program of a seeded workload.
fn program(config: WorkloadConfig) -> Result<RateSchedule, Error> {
    let mut programs = WorkloadEngine::new(config)?.generate(&[OperatorId(0)])?;
    Ok(programs.pop().ok_or("the workload generated no program")?.1)
}

/// Pure organic growth: the offered load climbs ~1.5%/s of its base —
/// fast enough that DS2 must keep scaling out for the whole run, the
/// exact traffic an absolute-baseline governor is tempted to read as a
/// slow regression.
fn growth_schedule(seed: u64, base: f64) -> Result<RateSchedule, Error> {
    program(WorkloadConfig {
        seed,
        horizon: AB_DURATION,
        base_rate: base,
        growth_per_sec: (base * 0.015, base * 0.018),
        ..WorkloadConfig::default()
    })
}

/// A 6-7.5x flash crowd whose ramp outruns a freshly deployed canary
/// during its probation: the calm pre-flash baseline plus a collapsing
/// probation window is exactly the shape that convicts under absolute
/// judgment and is excused under load-normalized judgment.
fn flash_schedule(seed: u64, base: f64) -> Result<RateSchedule, Error> {
    program(WorkloadConfig {
        seed,
        horizon: AB_DURATION,
        base_rate: base,
        flashes: 1,
        flash_magnitude: (6.0, 7.5),
        flash_ramp: (30.0, 45.0),
        flash_hold: (40.0, 60.0),
        ..WorkloadConfig::default()
    })
}

/// One A/B cell. DS2 re-activates every 15s so scaling keeps pace with
/// the hostile load and baselines are captured while the trusted plan
/// is still healthy.
fn ab_cell(seed: u64, schedule: RateSchedule) -> Result<Cell, Error> {
    let run = |baseline_mode| {
        Scenario {
            schedule: schedule.clone(),
            activation_period: 15.0,
            guard: Some(GuardConfig { baseline_mode }),
            ..Scenario::q1(seed, AB_DURATION)?
        }
        .run()
    };
    let drift = run(BaselineMode::DriftAware)?;
    Ok(Cell {
        seed,
        scalings: drift.num_scalings(),
        drift_rollbacks: drift.oscillations(),
        absolute_rollbacks: run(BaselineMode::Absolute)?.oscillations(),
    })
}

/// The guard claim's governed run, judged by the drift-aware governor
/// (the default): a model-skew fault plus a rate step onto the stale
/// model.
fn regression(seed: u64, duration: f64) -> Result<Regression, Error> {
    let (scenario, skew, _) = super::guard::governed(seed, duration)?;
    let trace = scenario.run()?;
    Ok(Regression {
        seed,
        skew_at: skew.time,
        rollbacks: trace.oscillations(),
        degraded_for: trace.rollback_events.first().map(|r| r.degraded_for),
        deadline: (PROBATION_WINDOWS as f64 + 1.0) * POLICY_INTERVAL,
    })
}

/// The sustained-overload workload: an 8x flash crowd against a plan
/// whose scaling is pinned, so admission control is the only lever.
fn overload_schedule(seed: u64, base: f64) -> Result<RateSchedule, Error> {
    program(WorkloadConfig {
        seed,
        horizon: OVERLOAD_DURATION,
        base_rate: base,
        flashes: 1,
        flash_magnitude: (7.0, 7.0),
        flash_ramp: (30.0, 30.0),
        flash_hold: (90.0, 90.0),
        ..WorkloadConfig::default()
    })
}

/// Goodput: integral of admitted throughput over windows whose latency
/// estimate meets the SLO, in records (window length = policy interval).
fn goodput(trace: &ClosedLoopTrace) -> f64 {
    trace
        .points
        .iter()
        .filter(|p| p.latency <= SLO_SECONDS)
        .fold(0.0, |acc, p| acc + p.source_throughput * POLICY_INTERVAL)
}

fn overload(seed: u64, base: f64) -> Result<Overload, Error> {
    let schedule = overload_schedule(seed, base)?;
    // The plateau bounds come from the generated program itself — the
    // flash's start is seeded.
    let flash = match &schedule {
        RateSchedule::Program(p) => p.flashes.first().cloned(),
        _ => None,
    }
    .ok_or("the overload schedule must be a program with one flash")?;
    let plateau = (
        flash.start + flash.ramp,
        flash.start + flash.ramp + flash.hold,
    );
    let mut scenario = Scenario {
        schedule,
        activation_period: 1e6,
        faults: Some(FaultPlan::new(vec![])?),
        ..Scenario::q1(seed, OVERLOAD_DURATION)?
    };
    let bare = scenario.run()?;
    scenario.shed = true;
    let (shed_result, shed_journal) = scenario.run_journaled(None)?;
    let shedded = shed_result?;

    // Backpressure is judged once the controller had a full capacity
    // window plus the deadband-override hysteresis to converge: the
    // engage-time capacity estimate carries stale pre-saturation
    // samples.
    let engaged_at = shedded.shed_events.first().map_or(0.0, |e| e.time);
    let settle = engaged_at + (CAPACITY_WINDOWS + RELEASE_WINDOWS + 1) as f64 * POLICY_INTERVAL;
    let bp_peak = |t: &ClosedLoopTrace| {
        t.points
            .iter()
            .filter(|p| p.time > settle && p.time <= plateau.1)
            .fold(0.0f64, |acc, p| acc.max(p.backpressure))
    };

    // Crash-recovery: die right after the first Shed record (the change
    // is in doubt), recover from the journal, and reproduce the trace
    // and journal byte-for-byte.
    let parsed = parse_journal(&shed_journal)?;
    let shed_at = parsed
        .records
        .iter()
        .position(|r| matches!(r, DecisionRecord::Shed { .. }));
    let (kill_fired, recovery_identical) = match shed_at {
        None => (false, false),
        Some(at) => {
            let (killed, partial) =
                scenario.run_journaled(Some(KillPoint::AfterRecord(at as u64)))?;
            let (recovered, rewritten) = scenario.recover_and_finish(&partial)?;
            (
                matches!(killed, Err(ControllerError::ControllerKilled { .. })),
                recovered.to_json().to_string() == shedded.to_json().to_string()
                    && rewritten == shed_journal,
            )
        }
    };
    Ok(Overload {
        seed,
        plateau,
        time_shedding: shedded.time_shedding(OVERLOAD_DURATION),
        settle,
        bp_peak_shedded: bp_peak(&shedded),
        bp_peak_unshedded: bp_peak(&bare),
        goodput_shedded: goodput(&shedded),
        goodput_unshedded: goodput(&bare),
        journaled_sheds: parsed
            .records
            .iter()
            .filter(|r| matches!(r, DecisionRecord::Shed { .. }))
            .count(),
        shed_events: shedded.shed_events,
        kill_fired,
        recovery_identical,
    })
}

/// Runs every scenario. The A/B runs at seeds 7/11/23 on
/// [`Shape::Smoke`] and adds 31 and 47 on [`Shape::Full`]; the
/// regression and overload scenarios run at [`SEED`], the regression
/// 300 s on the smoke shape and 600 s on the full one.
pub fn run(shape: Shape) -> Result<Outcome, Error> {
    let seed = SEED;
    let started = Instant::now();
    let mut seeds = SEEDS.to_vec();
    if shape == Shape::Full {
        seeds.extend([31, 47]);
    }
    let base_rate = Scenario::q1(seed, AB_DURATION)?.schedule.rate_at(0.0);
    let mut growth = Vec::new();
    let mut flash = Vec::new();
    for &s in &seeds {
        growth.push(ab_cell(s, growth_schedule(s, base_rate * 0.5)?)?);
        flash.push(ab_cell(s, flash_schedule(s, base_rate * 0.45)?)?);
    }
    let absolute_false_rollbacks = growth
        .iter()
        .chain(&flash)
        .map(|c| c.absolute_rollbacks)
        .sum();
    let regression = regression(seed, shape.smoke_or(300.0, 600.0))?;
    let overload = overload(seed, base_rate)?;

    let o = &overload;
    let record = obj(vec![
        ("schema", Json::Str("capsys/bench-hostile/v1".to_string())),
        ("smoke", Json::Bool(shape == Shape::Smoke)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        (
            "growth",
            Json::Arr(growth.iter().map(Cell::to_json).collect()),
        ),
        (
            "flash",
            Json::Arr(flash.iter().map(Cell::to_json).collect()),
        ),
        (
            "absolute_false_rollbacks",
            Json::Num(absolute_false_rollbacks as f64),
        ),
        (
            "regression",
            obj(vec![
                ("seed", Json::Num(regression.seed as f64)),
                ("rollbacks", Json::Num(regression.rollbacks as f64)),
                (
                    "degraded_for",
                    Json::Num(regression.degraded_for.unwrap_or(f64::NAN)),
                ),
                ("deadline", Json::Num(regression.deadline)),
            ]),
        ),
        (
            "overload",
            obj(vec![
                ("seed", Json::Num(o.seed as f64)),
                ("shed_events", Json::Num(o.shed_events.len() as f64)),
                (
                    "engage_fraction",
                    Json::Num(o.shed_events.first().map_or(0.0, |e| e.to_fraction)),
                ),
                ("time_shedding", Json::Num(o.time_shedding)),
                ("bp_peak_shedded", Json::Num(o.bp_peak_shedded)),
                ("bp_peak_unshedded", Json::Num(o.bp_peak_unshedded)),
                (
                    "goodput_shedded",
                    Json::Num(o.goodput_shedded / OVERLOAD_DURATION),
                ),
                (
                    "goodput_unshedded",
                    Json::Num(o.goodput_unshedded / OVERLOAD_DURATION),
                ),
                ("journaled_sheds", Json::Num(o.journaled_sheds as f64)),
                ("recovery_identical", Json::Bool(o.recovery_identical)),
            ]),
        ),
        ("slo_seconds", Json::Num(SLO_SECONDS)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    Ok(Outcome {
        seeds,
        base_rate,
        growth,
        flash,
        absolute_false_rollbacks,
        regression,
        overload,
        record,
    })
}

impl Outcome {
    /// Prints every A/B cell, the regression and the overload A/B.
    pub fn print(&self) {
        println!(
            "Q1-sliding, 6 workers, base rate {} ({AB_DURATION}s per scenario, seeds {:?})\n",
            fmt_rate(self.base_rate),
            self.seeds
        );
        println!("--- governor A/B: drift-aware vs absolute baseline ---");
        for (g, f) in self.growth.iter().zip(&self.flash) {
            for (name, c) in [("growth", g), ("flash", f)] {
                println!(
                    "  {name} seed {}: {} scalings; rollbacks drift-aware {} / absolute {}",
                    c.seed, c.scalings, c.drift_rollbacks, c.absolute_rollbacks
                );
            }
        }
        println!(
            "  absolute baseline false rollbacks across seeds: {}\n",
            self.absolute_false_rollbacks
        );
        println!("--- injected true regression (drift-aware) ---");
        let r = &self.regression;
        println!(
            "  regression seed {}: skew at t={:.0}s, rolled back after {:.0}s \
             (deadline {:.0}s)\n",
            r.seed,
            r.skew_at,
            r.degraded_for.unwrap_or(f64::NAN),
            r.deadline
        );
        println!("--- sustained overload: admission control A/B ---");
        let o = &self.overload;
        if let (Some(engage), Some(release)) = (o.shed_events.first(), o.shed_events.last()) {
            println!(
                "  overload seed {}: {} shed change(s), engaged t={:.0}s at {:.0}% \
                 (offered {} vs capacity {}), released t={:.0}s",
                o.seed,
                o.shed_events.len(),
                engage.time,
                100.0 * engage.to_fraction,
                fmt_rate(engage.offered),
                fmt_rate(engage.capacity),
                release.time,
            );
        }
        println!(
            "  overload seed {}: bp peak {:.2} shedded vs {:.2} bare; goodput {} vs {} rec/s; \
             crash recovery {}",
            o.seed,
            o.bp_peak_shedded,
            o.bp_peak_unshedded,
            fmt_rate(o.goodput_shedded / OVERLOAD_DURATION),
            fmt_rate(o.goodput_unshedded / OVERLOAD_DURATION),
            if o.recovery_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        // Governor A/B under pure growth and a flash crowd. Only the
        // flash shape guarantees an absolute false rollback: pure
        // growth degrades the rolling baseline in lockstep, which makes
        // absolute judgment lenient rather than trigger-happy.
        for (name, cells, expect_false_rollback) in [
            ("growth", &self.growth, false),
            ("flash", &self.flash, true),
        ] {
            for c in cells {
                let seed = c.seed;
                ensure!(
                    c.drift_rollbacks == 0,
                    "{name} seed {seed}: the drift-aware governor must not mistake \
                     hostile-but-organic load for a regression"
                );
                ensure!(
                    c.scalings >= 1,
                    "{name} seed {seed}: the load must actually force a scale-out \
                     (no canary, no discrimination to test)"
                );
                ensure!(
                    !expect_false_rollback || c.absolute_rollbacks >= 1,
                    "{name} seed {seed}: the absolute baseline must false-rollback \
                     here — a calm baseline followed by a collapsing probation is \
                     its signature failure"
                );
            }
        }
        ensure!(
            self.absolute_false_rollbacks >= 1,
            "the absolute baseline must false-rollback at least once across the \
             growth/flash scenarios — otherwise the A/B shows nothing"
        );

        // Injected true regression: still caught, fast.
        let r = &self.regression;
        let Some(degraded_for) = r.degraded_for else {
            return Err("drift-aware governor must still catch an injected true regression".into());
        };
        ensure!(
            degraded_for <= r.deadline + 1e-9,
            "true regression must be caught within one probation window \
             ({degraded_for:.0}s > {:.0}s)",
            r.deadline
        );

        // Sustained overload: shed, bound, restore, replay.
        let o = &self.overload;
        let (Some(engage), Some(release)) = (o.shed_events.first(), o.shed_events.last()) else {
            return Err("an 8x flash crowd must engage overload protection".into());
        };
        ensure!(engage.to_fraction > 0.0, "first event must engage");
        ensure!(
            engage.time < o.plateau.1,
            "shedding must engage while the crowd is still raging"
        );
        ensure!(
            release.to_fraction == 0.0,
            "full admission must be restored once the crowd decays"
        );
        ensure!(
            release.time > o.plateau.1,
            "admission must not reopen while the plateau still rages \
             (released t={:.0}s, plateau ends t={:.0}s)",
            release.time,
            o.plateau.1
        );
        // Backpressure stays bounded for the rest of the plateau while
        // the unshedded run stays pinned at collapse the whole way.
        ensure!(
            o.settle < o.plateau.1 - 2.0 * POLICY_INTERVAL,
            "scenario must leave a post-settle plateau to judge ({:.0}s vs {:.0}s)",
            o.settle,
            o.plateau.1
        );
        ensure!(
            o.bp_peak_shedded <= ENGAGE_THRESHOLD,
            "shedding must bound backpressure (peak {:.2} after settling)",
            o.bp_peak_shedded
        );
        ensure!(
            o.bp_peak_unshedded > 0.9,
            "the unshedded baseline must actually be collapsing (peak {:.2})",
            o.bp_peak_unshedded
        );
        // Goodput: latency-gated throughput must strictly beat the
        // unshedded run — bounded queues drain as the crowd decays
        // instead of serving stale records for another minute.
        ensure!(
            o.goodput_shedded > o.goodput_unshedded,
            "shedding must win goodput ({} vs {})",
            fmt_rate(o.goodput_shedded / OVERLOAD_DURATION),
            fmt_rate(o.goodput_unshedded / OVERLOAD_DURATION)
        );
        ensure!(
            o.journaled_sheds == o.shed_events.len(),
            "every shed change must be journaled"
        );
        ensure!(o.kill_fired, "the controller kill must fire");
        ensure!(
            o.recovery_identical,
            "crash recovery must replay the hostile run byte-identically"
        );

        // The record round-trips and carries the keys downstream
        // tooling relies on.
        let record = Json::parse(&self.record.to_pretty())
            .map_err(|e| format!("BENCH_hostile.json must parse: {e}"))?;
        for key in "schema smoke seeds growth flash regression overload".split(' ') {
            ensure!(record.get(key).is_some(), "missing key {key:?}");
        }
        for arm in ["growth", "flash"] {
            let cells = record.get(arm).and_then(|c| c.as_array());
            let cells = cells.ok_or(format!("{arm} must be an array"))?;
            ensure!(
                cells.len() == self.seeds.len(),
                "{arm} must cover every seed"
            );
            for c in cells {
                ensure!(
                    c.get("drift_rollbacks").and_then(Json::as_f64) == Some(0.0),
                    "{arm}: drift-aware rollbacks must be zero in the record too"
                );
            }
        }
        Ok(())
    }
}
