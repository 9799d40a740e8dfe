//! Recovery claim: a controller killed at any journaled decision
//! recovers exactly.
//!
//! For each of four scenarios (a worker crash, DS2 scaling up an
//! undersized job, a governor rollback, and an incremental migration)
//! the claim kills a re-run right after each record k of the baseline
//! journal, recovers from the partial journal, and requires the
//! finished trace and the recovered run's journal to match the
//! baseline byte-for-byte; it also kills each scenario between its
//! first `Prepare`, `Rollback` and `MigratePrepare` and the matching
//! commit. A wall-clock kill drawn from a seeded `ChaosConfig` must
//! recover too, and a zombie controller racing the instance that
//! superseded it must die with a fenced epoch instead of deploying.

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    ClosedLoopTrace, ControllerError, DecisionJournal, DecisionRecord, GuardConfig,
    MigrationConfig, RecoveryConfig,
};
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{ChaosConfig, EpochFence, FaultPlan, KillPoint, ModelSkew};

use super::{Error, Scenario, Shape};

/// Q1-sliding on six workers at half capacity with recovery armed; the
/// worker hosting task 0 crashes at t=60s, so the journal holds the
/// recovery reconfiguration (and possibly retries).
pub fn crash(seed: u64, duration: f64) -> Result<Scenario, Error> {
    Scenario {
        recovery: Some(RecoveryConfig::default()),
        ..Scenario::q1(seed, duration)?
    }
    .with_task0_crash(60.0)
}

/// An undersized Q1 (parallelism 1 everywhere) on four m5d.2xlarge
/// workers that DS2 scales up: the journal holds scaling
/// reconfigurations.
pub fn scaling(seed: u64, duration: f64) -> Result<Scenario, Error> {
    let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8))?;
    Ok(Scenario {
        query: q1_sliding().with_parallelism(&[1, 1, 1, 1])?,
        schedule: RateSchedule::Constant(q1_sliding().capacity_rate(&cluster, 0.5)?),
        cluster,
        activation_period: 20.0,
        recovery: Some(RecoveryConfig::default()),
        ..Scenario::q1(seed, duration)?
    })
}

/// The model goes 3.5x stale at t=70s, a 1.8x rate step at t=80s goads
/// DS2 onto the stale model, and the governor rolls the regression
/// back: the journal holds `Rollback` records.
pub fn guard_rollback(seed: u64, duration: f64) -> Result<Scenario, Error> {
    let q1 = Scenario::q1(seed, duration)?;
    let target = q1.schedule.rate_at(0.0);
    let skew = ModelSkew {
        time: 70.0,
        factor: 3.5,
    };
    Ok(Scenario {
        schedule: RateSchedule::Steps(vec![(0.0, target), (80.0, 1.8 * target)]),
        faults: Some(FaultPlan::new(vec![])?.with_model_skew(skew)?),
        recovery: Some(RecoveryConfig::default()),
        guard: Some(GuardConfig::default()),
        ..q1
    })
}

/// The crash of [`crash`] with 2e5 retained records of window state,
/// recovered by incremental migration one task per wave; DS2 stays out
/// of the way. The journal holds a `MigratePrepare`, one `MigrateStep`
/// per moved task, and a `MigrateCommit`.
pub fn migration(seed: u64, duration: f64) -> Result<Scenario, Error> {
    Ok(Scenario {
        activation_period: 1000.0,
        state_transfer: Some(2e5),
        migration: Some(MigrationConfig {
            epsilon: 0.05,
            wave_size: 1,
        }),
        ..crash(seed, duration)?
    })
}

/// How a killed run ended: `Ok(seq)` when the controller died with
/// `seq` records written, else what happened instead.
type Death = Result<u64, String>;

fn death(result: &Result<ClosedLoopTrace, ControllerError>) -> Death {
    match result {
        Err(ControllerError::ControllerKilled { seq, .. }) => Ok(*seq),
        Err(e) => Err(format!("failed with {e}")),
        Ok(_) => Err("finished without dying".into()),
    }
}

/// A kill right after journal record `k`: how the run died, the lines
/// its journal kept, and whether the recovered run's trace and journal
/// equal the baseline's.
struct Kill {
    k: u64,
    died: Death,
    lines: u64,
    trace_identical: bool,
    journal_identical: bool,
}

/// A kill between a scenario's first `record` (a `Prepare`, `Rollback`
/// or `MigratePrepare` of `epoch`) and its commit: how the run died,
/// whether its journal ends at the in-doubt record, and whether the
/// recovered trace and journal both equal the baseline's.
struct MidKill {
    record: &'static str,
    epoch: u64,
    died: Death,
    tail_in_doubt: bool,
    identical: bool,
}

/// The kill-at-every-record sweep of one scenario, with the kills that
/// landed on a `Prepare`, on a `Rollback`, and on a `MigratePrepare`
/// or `MigrateStep`.
struct Sweep {
    name: &'static str,
    records: u64,
    kills: Vec<Kill>,
    prepares_hit: usize,
    rollbacks_hit: usize,
    migrations_hit: usize,
    mid: Vec<MidKill>,
}

/// The seeded wall-clock kill, how it died, and whether its recovery
/// equals the unkilled run.
struct ChaosKill {
    kill: KillPoint,
    died: Death,
    identical: bool,
}

/// The zombie race: how controller A ended, B's scalings and the fence
/// after B, and the zombie's end (`Ok((attempted, current))` when
/// fenced).
struct Zombie {
    a_died: Death,
    b_scalings: usize,
    epoch_after_b: u64,
    fenced: Result<(u64, u64), String>,
}

/// Every sweep and case of one seed.
pub struct Outcome {
    duration: f64,
    sweeps: Vec<Sweep>,
    chaos_kill: ChaosKill,
    zombie: Zombie,
}

/// The kind and epoch of a record that opens a two-phase change.
fn opens(r: &DecisionRecord) -> Option<(&'static str, u64)> {
    match r {
        DecisionRecord::Prepare { epoch, .. } => Some(("Prepare", *epoch)),
        DecisionRecord::Rollback { epoch, .. } => Some(("Rollback", *epoch)),
        DecisionRecord::MigratePrepare { epoch, .. } => Some(("MigratePrepare", *epoch)),
        _ => None,
    }
}

/// Kills the scenario after every journal record of its baseline run
/// and recovers each time, then kills it mid-reconfiguration on its
/// first `Prepare`, `Rollback` and `MigratePrepare`.
fn sweep(name: &'static str, scenario: &Scenario) -> Result<Sweep, Error> {
    let (baseline, golden_journal) = scenario.run_journaled(None)?;
    let golden = baseline?.to_json().to_string();
    let parsed = parse_journal(&golden_journal)?;
    let n = parsed.records.len() as u64;
    let mut out = Sweep {
        name,
        records: n,
        kills: Vec::new(),
        prepares_hit: 0,
        rollbacks_hit: 0,
        migrations_hit: 0,
        mid: Vec::new(),
    };
    for k in 0..n {
        let (died, partial) = if k == 0 {
            // Kill "before the first decision": only the init record
            // made it to disk. Truncate the golden journal instead of
            // re-running (no kill point fires that early).
            let init = golden_journal
                .lines()
                .next()
                .ok_or("golden journal is empty")?;
            (Ok(1), format!("{init}\n"))
        } else {
            let (result, partial) = scenario.run_journaled(Some(KillPoint::AfterRecord(k)))?;
            (death(&result), partial)
        };
        match parsed.records.get(k as usize) {
            Some(DecisionRecord::Prepare { .. }) => out.prepares_hit += 1,
            Some(DecisionRecord::Rollback { .. }) => out.rollbacks_hit += 1,
            Some(DecisionRecord::MigratePrepare { .. } | DecisionRecord::MigrateStep { .. }) => {
                out.migrations_hit += 1
            }
            _ => {}
        }
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        out.kills.push(Kill {
            k,
            died,
            lines: partial.lines().count() as u64,
            trace_identical: trace.to_json().to_string() == golden,
            journal_identical: rewritten == golden_journal,
        });
    }

    // The explicit in-doubt kills: die on the first record of each
    // two-phase kind, leaving it at the journal tail; recovery must
    // roll it forward and still match the baseline exactly.
    for record in ["Prepare", "Rollback", "MigratePrepare"] {
        let first = parsed
            .records
            .iter()
            .filter_map(opens)
            .find(|o| o.0 == record);
        let Some((_, epoch)) = first else {
            continue;
        };
        let (result, partial) = scenario.run_journaled(Some(KillPoint::MidReconfig(epoch)))?;
        let tail = parse_journal(&partial)?;
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        out.mid.push(MidKill {
            record,
            epoch,
            died: death(&result),
            tail_in_doubt: tail.records.last().and_then(opens) == Some((record, epoch)),
            identical: trace.to_json().to_string() == golden && rewritten == golden_journal,
        });
    }
    Ok(out)
}

/// A wall-clock controller kill drawn from a seeded `ChaosConfig`: the
/// killed run's journal must recover to the same trace as the run of
/// the same fault plan without the kill.
fn chaos_kill(seed: u64, duration: f64) -> Result<ChaosKill, Error> {
    let mut scenario = Scenario {
        recovery: Some(RecoveryConfig::default()),
        ..Scenario::q1(seed, duration)?
    };
    let chaos = ChaosConfig {
        seed,
        horizon: duration,
        crashes: 1,
        crash_downtime: (duration, duration),
        stragglers: 0,
        slowdown: (2.0, 3.0),
        straggler_duration: (40.0, 60.0),
        blackouts: 0,
        blackout_duration: (5.0, 10.0),
        metric_noise: 0.02,
        controller_kills: 1,
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::generate(&chaos, scenario.cluster.num_workers())?;
    let kill = plan
        .controller_kill
        .ok_or("chaos config with controller_kills=1 drew no kill")?;
    // The recovered controller must not re-arm the kill it already died
    // to — a real restart would similarly clear the poison.
    scenario.faults = Some(plan.without_controller_kill());
    let golden = scenario.run()?.to_json().to_string();
    let (killed, partial) = scenario.run_journaled(Some(kill))?;
    let (recovered, _) = scenario.recover_and_finish(&partial)?;
    Ok(ChaosKill {
        kill,
        died: death(&killed),
        identical: recovered.to_json().to_string() == golden,
    })
}

/// The zombie race: controller A dies early; B recovers from A's
/// journal sharing the cluster's epoch fence and finishes, advancing
/// the fence with its live deployments. A second recovery of the same
/// stale journal (the zombie resuming) must then be fenced off at its
/// first deployment.
fn zombie(seed: u64, duration: f64) -> Result<Zombie, Error> {
    let scenario = scaling(seed, duration)?;
    let fence = EpochFence::new();
    let strategy = CapsStrategy::default();

    // A dies before its first decision (the first policy window ends at
    // t=5): journal = init only, fence untouched.
    let loop_a = scenario
        .build_loop(&strategy)?
        .with_fence(fence.clone())
        .with_fault_plan(FaultPlan::new(vec![])?.with_controller_kill(KillPoint::AtTime(3.0))?)?;
    let (journal_a, buf_a) = DecisionJournal::in_memory();
    let result_a = loop_a.with_journal(journal_a)?.run(scenario.duration);
    let journal_text = buf_a.text();

    // B supersedes A: recovers the journal, scales live, advances the
    // shared fence.
    let trace_b = scenario
        .recover_loop(&strategy, &journal_text)?
        .with_fence(fence.clone())
        .run(scenario.duration)?;
    let epoch_after_b = fence.current();

    // The zombie resumes from the same stale journal against the same
    // fence.
    let result_z = scenario
        .recover_loop(&strategy, &journal_text)?
        .with_fence(fence)
        .run(scenario.duration);
    Ok(Zombie {
        a_died: death(&result_a),
        b_scalings: trace_b.num_scalings(),
        epoch_after_b,
        fenced: match result_z {
            Err(ControllerError::FencedEpoch { attempted, current }) => Ok((attempted, current)),
            Err(e) => Err(format!("zombie failed with {e}, expected a fenced epoch")),
            Ok(_) => Err("zombie controller deployed past the fence".into()),
        },
    })
}

/// Runs every sweep and case: 150 s per run on [`Shape::Smoke`], 300 s
/// on [`Shape::Full`].
pub fn run(shape: Shape, seed: u64) -> Result<Outcome, Error> {
    let duration = shape.smoke_or(150.0, 300.0);
    let mut sweeps = Vec::new();
    for (name, scenario) in [
        ("crash-recovery", crash(seed, duration)?),
        ("scaling", scaling(seed, duration)?),
        ("guard-rollback", guard_rollback(seed, duration)?),
        ("migration", migration(seed, duration)?),
    ] {
        sweeps.push(sweep(name, &scenario)?);
    }
    Ok(Outcome {
        duration,
        sweeps,
        chaos_kill: chaos_kill(seed, duration)?,
        zombie: zombie(seed, duration)?,
    })
}

impl Outcome {
    /// Prints each sweep's kills and the two extra cases.
    pub fn print(&self) {
        println!("{}s per run\n", self.duration);
        for s in &self.sweeps {
            let n = s.records;
            let identical = s
                .kills
                .iter()
                .filter(|k| k.trace_identical && k.journal_identical)
                .count();
            println!("[{}] baseline journal: {n} decision record(s)", s.name);
            println!(
                "[{}] kill-at-every-record sweep: {identical}/{n} recoveries byte-identical \
                 ({} landed between Prepare and Commit, {} between Rollback and Commit, \
                 {} mid-migration)",
                s.name, s.prepares_hit, s.rollbacks_hit, s.migrations_hit
            );
            for m in &s.mid {
                let verdict = if m.identical {
                    "rolled forward, byte-identical"
                } else {
                    "DIVERGED"
                };
                println!(
                    "[{}] kill between {}(epoch {}) and its commit: {verdict}",
                    s.name, m.record, m.epoch
                );
            }
        }
        let c = &self.chaos_kill;
        let verdict = if c.identical {
            "byte-identically"
        } else {
            "DIVERGENTLY"
        };
        println!("[chaos-kill] {:?}: killed run recovered {verdict}", c.kill);
        match &self.zombie.fenced {
            Ok((attempted, current)) => println!(
                "[zombie] stale controller fenced at epoch {attempted} (cluster at {current})"
            ),
            Err(e) => println!("[zombie] {e}"),
        }
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        for s in &self.sweeps {
            let name = s.name;
            ensure!(
                s.records >= 2,
                "[{name}] scenario journaled no decisions beyond init; nothing to sweep"
            );
            for kill in &s.kills {
                let k = kill.k;
                match &kill.died {
                    Ok(seq) => ensure!(
                        *seq == k + 1,
                        "[{name}] kill at record {k} reported {seq} records written"
                    ),
                    Err(other) => {
                        return Err(format!("[{name}] kill at record {k} did not fire: {other}"))
                    }
                }
                ensure!(
                    kill.lines == k + 1,
                    "[{name}] kill at record {k} left {} journal lines, expected {}",
                    kill.lines,
                    k + 1
                );
                ensure!(
                    kill.trace_identical,
                    "[{name}] recovered trace DIVERGED after kill at record {k}"
                );
                ensure!(
                    kill.journal_identical,
                    "[{name}] recovered journal DIVERGED after kill at record {k}"
                );
            }
            for m in &s.mid {
                let (record, epoch) = (m.record, m.epoch);
                ensure!(
                    m.died.is_ok(),
                    "[{name}] kill at {record}(epoch {epoch}) did not fire"
                );
                ensure!(
                    m.tail_in_doubt,
                    "[{name}] the {record}(epoch {epoch}) kill's journal does not end at the \
                     in-doubt record"
                );
                ensure!(
                    m.identical,
                    "[{name}] roll-forward after the {record}(epoch {epoch}) kill DIVERGED"
                );
            }
        }
        let total = |f: fn(&Sweep) -> usize| self.sweeps.iter().map(f).sum::<usize>();
        ensure!(
            total(|s| s.prepares_hit) > 0,
            "no kill point landed between Prepare and Commit across the sweep"
        );
        ensure!(
            total(|s| s.rollbacks_hit) > 0,
            "no kill point landed between Rollback and Commit across the sweep"
        );
        let migrations_hit = total(|s| s.migrations_hit);
        ensure!(
            migrations_hit >= 3,
            "only {migrations_hit} kill point(s) landed mid-migration; expected a \
             MigratePrepare and at least two MigrateSteps in the sweep"
        );

        let c = &self.chaos_kill;
        ensure!(c.died.is_ok(), "chaos kill {:?} did not fire", c.kill);
        ensure!(
            c.identical,
            "recovery from chaos kill {:?} DIVERGED",
            c.kill
        );

        let z = &self.zombie;
        ensure!(z.a_died.is_ok(), "zombie case: controller A was not killed");
        ensure!(
            z.b_scalings > 0,
            "zombie case: controller B never deployed, fence untouched"
        );
        ensure!(
            z.epoch_after_b > 0,
            "zombie case: B's deployments did not advance the fence"
        );
        let (attempted, current) = z.fenced.clone()?;
        ensure!(
            attempted <= z.epoch_after_b && current >= z.epoch_after_b,
            "zombie fenced with implausible epochs: attempted {attempted}, fence at \
             {current}, B reached {}",
            z.epoch_after_b
        );
        Ok(())
    }
}
