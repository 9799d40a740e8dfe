//! Migrate claim: incremental migration beats a whole-plan redeploy.
//!
//! Both arms recover the same seeded crash — Q1 on four r5d.xlarge
//! workers, the worker hosting task 0 dying at t=60s — while
//! reconfigurations pay for the operator state they move. The
//! whole-plan arm redeploys and restores every stateful byte; the
//! incremental arm migrates only the displaced tasks to the cheapest
//! plan within ε of the cost optimum, in journaled two-phase waves. The
//! claim: the incremental arm moves strictly fewer bytes, pauses
//! strictly fewer task-seconds and loses strictly less throughput; its
//! wave protocol is complete and minimal; its target re-derives
//! byte-identically through the exported optimizer within ε of the
//! optimum; and a same-seed re-run reproduces trace and journal.

use capsys_controller::{
    place_with_movemin, ClosedLoopTrace, DecisionRecord, MigrationConfig, RecoveryConfig,
};
use capsys_core::{min_movement_plan, CapsSearch};
use capsys_model::{Cluster, Placement, RateSchedule, StateModel, WorkerId, WorkerSpec};
use capsys_placement::PlacementContext;
use capsys_queries::q1_sliding;

use super::{Error, Scenario, Shape};

/// Working set of the sliding window: 4000 B/record x 2e5 records =
/// 800 MB of operator state, however it is split over subtasks.
const RETAINED_RECORDS: f64 = 2e5;
const EPSILON: f64 = 0.05;
const CRASH_AT: f64 = 60.0;
const WAVE_SIZE: usize = 4;

/// One arm's run: its trace, journal, and crashed worker.
struct Arm {
    trace: ClosedLoopTrace,
    journal: String,
    victim: WorkerId,
}

impl Arm {
    /// Bytes, paused-task seconds and count of the waves of the
    /// recovery reconfiguration (`completed_at` after the crash); waves
    /// before the crash belong to DS2's initial right-sizing, identical
    /// in both arms.
    fn recovery_waves(&self) -> (u64, f64, usize) {
        let waves = self.trace.migration_waves.iter();
        let recovery = waves.filter(|w| w.completed_at > CRASH_AT);
        recovery.fold((0, 0.0, 0), |(b, d, n), w| {
            (b + w.bytes, d + w.downtime, n + 1)
        })
    }
}

/// The migration decision from the incremental arm's journal: the
/// incumbent it diffed against, the target it chose, the moved task
/// set, the rate it planned at, the parallelism in force, and the
/// journal's `MigrateStep` and `MigrateCommit` counts.
struct Decision {
    incumbent: Vec<usize>,
    target: Vec<usize>,
    moved: Vec<usize>,
    rate: f64,
    parallelism: Vec<usize>,
    steps: usize,
    commits: usize,
}

/// The decision re-derived through `place_with_movemin`: its target and
/// move set, the chosen plan's and the unconstrained optimum's worst
/// cost component, and the plans within ε of the optimum.
struct Rederived {
    target: Vec<usize>,
    moved: Vec<usize>,
    chosen: f64,
    optimum: f64,
    within_tolerance: usize,
}

/// Both arms, the parsed and re-derived decision, and a same-seed
/// re-run of the incremental arm.
pub struct Outcome {
    seed: u64,
    duration: f64,
    whole: Arm,
    incremental: Arm,
    decision: Decision,
    rederived: Rederived,
    replay: Arm,
}

fn run_arm(seed: u64, duration: f64, incremental: bool) -> Result<Arm, Error> {
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let scenario = Scenario {
        schedule: RateSchedule::Constant(q1_sliding().capacity_rate(&cluster, 0.5)?),
        cluster,
        // A huge activation period keeps DS2 out of the way after its
        // initial right-sizing: the recovery is the reconfiguration
        // under test.
        activation_period: 1000.0,
        recovery: Some(RecoveryConfig::default()),
        state_transfer: Some(RETAINED_RECORDS),
        // A crash outage ends only once every task of the dead worker
        // is relocated (channels into a dead task fill and backpressure
        // the source), and waves start at policy-window boundaries — so
        // chunking the dead tasks across waves would stretch the outage
        // by one window per extra wave. The scenario migrates them in a
        // single wave; fine-grained wave chunking is a blast-radius
        // control for live-task moves, exercised by the recovery
        // claim's migration scenario.
        migration: incremental.then_some(MigrationConfig {
            epsilon: EPSILON,
            wave_size: WAVE_SIZE,
        }),
        ..Scenario::q1(seed, duration)?
    }
    .with_task0_crash(CRASH_AT)?;
    let (trace, journal) = scenario.run_journaled(None)?;
    Ok(Arm {
        trace: trace?,
        journal,
        victim: scenario.task0_worker()?,
    })
}

fn parse_migration(journal_text: &str) -> Result<Decision, Error> {
    let parsed = capsys_controller::journal::parse_journal(journal_text)?;
    let mut incumbent = match parsed.records.first() {
        Some(DecisionRecord::Init { assignment, .. }) => assignment.clone(),
        other => return Err(format!("journal does not start with init: {other:?}").into()),
    };
    let mut decision = None;
    for r in &parsed.records {
        match r {
            DecisionRecord::Prepare { assignment, .. } if decision.is_none() => {
                incumbent = assignment.clone();
            }
            DecisionRecord::MigratePrepare {
                assignment,
                moved,
                rate,
                parallelism,
                ..
            } if decision.is_none() => {
                decision = Some((
                    assignment.clone(),
                    moved.clone(),
                    *rate,
                    parallelism.clone(),
                ));
            }
            _ => {}
        }
    }
    let (target, moved, rate, parallelism) =
        decision.ok_or("incremental arm journaled no migrate-prepare")?;
    let count =
        |pred: fn(&DecisionRecord) -> bool| parsed.records.iter().filter(|r| pred(r)).count();
    Ok(Decision {
        incumbent,
        target,
        moved,
        rate,
        parallelism,
        steps: count(|r| matches!(r, DecisionRecord::MigrateStep { .. })),
        commits: count(|r| matches!(r, DecisionRecord::MigrateCommit { .. })),
    })
}

/// Re-derives the migration target outside the controller — through
/// the same exported optimizer entry point and config — and the
/// unconstrained optimum it is judged against.
fn rederive(decision: &Decision, victim: WorkerId) -> Result<Rederived, Error> {
    let query = q1_sliding().with_parallelism(&decision.parallelism)?;
    let physical = query.physical();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let loads = query.load_model_at(&physical, decision.rate)?;
    let state = StateModel::derive(query.logical(), &physical, RETAINED_RECORDS)?;
    let incumbent = Placement::new(decision.incumbent.iter().map(|&w| WorkerId(w)).collect());
    let mut search = RecoveryConfig::default().search;
    let mut free = vec![cluster.slots_per_worker(); cluster.num_workers()];
    free[victim.0] = 0;
    search.free_slots = Some(free);

    let ctx = PlacementContext {
        logical: query.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };
    let (plan, diff) = place_with_movemin(&ctx, &search, EPSILON, &incumbent, &state)
        .map_err(|e| format!("re-derivation failed: {e:?}"))?;

    // The ε bound, on the raw optimizer outcome.
    let mut cfg = search.clone();
    cfg.first_feasible = false;
    cfg.max_plans = cfg.max_plans.max(4096);
    let caps = CapsSearch::new(query.logical(), &physical, &cluster, &loads)
        .map_err(|e| format!("caps search: {e:?}"))?;
    let mm = min_movement_plan(&caps, &cfg, EPSILON, &incumbent, &state)
        .map_err(|e| format!("min-movement: {e:?}"))?;
    Ok(Rederived {
        target: plan.assignment().iter().map(|w| w.0).collect(),
        moved: diff.moves().iter().map(|m| m.task.0).collect(),
        chosen: mm.chosen.cost.max_component(),
        optimum: mm.optimum.cost.max_component(),
        within_tolerance: mm.within_tolerance,
    })
}

/// Runs the migration scenario: 150 s per run on [`Shape::Smoke`],
/// 300 s on [`Shape::Full`].
pub fn run(shape: Shape, seed: u64) -> Result<Outcome, Error> {
    let duration = shape.smoke_or(150.0, 300.0);
    let whole = run_arm(seed, duration, false)?;
    let incremental = run_arm(seed, duration, true)?;
    let decision = parse_migration(&incremental.journal)?;
    let rederived = rederive(&decision, incremental.victim)?;
    let replay = run_arm(seed, duration, true)?;
    Ok(Outcome {
        seed,
        duration,
        whole,
        incremental,
        decision,
        rederived,
        replay,
    })
}

impl Outcome {
    fn loss(&self, arm: &Arm) -> f64 {
        arm.trace.throughput_loss_area(CRASH_AT, self.duration)
    }

    /// Prints both arms' recovery cost and the migration decision.
    pub fn print(&self) {
        println!(
            "seed {}, {}s per run, crash at t={CRASH_AT}s\n",
            self.seed, self.duration
        );
        for (name, verb, arm) in [
            ("whole-plan ", "restored", &self.whole),
            ("incremental", "migrated", &self.incremental),
        ] {
            let (bytes, down, waves) = arm.recovery_waves();
            println!(
                "{name}: {waves} wave(s), {bytes} bytes {verb}, {down:.2}s paused-task downtime, \
                 loss area {:.0} records",
                self.loss(arm)
            );
        }
        let (d, r) = (&self.decision, &self.rederived);
        println!(
            "protocol: {} task(s) migrated in {} journaled two-phase wave(s); \
             {} task(s) never moved",
            d.moved.len(),
            d.steps,
            d.incumbent.len() - d.moved.len()
        );
        println!(
            "optimizer: chosen cost {:.4} vs optimum {:.4} (ε={EPSILON}, {} plans in band)",
            r.chosen, r.optimum, r.within_tolerance
        );
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        let (whole, inc) = (&self.whole, &self.incremental);
        ensure!(
            whole.victim == inc.victim,
            "arms crashed different workers; comparison is invalid"
        );
        ensure!(
            whole.trace.recovery_events.len() == 1 && inc.trace.recovery_events.len() == 1,
            "expected exactly one recovery per arm, got {} / {}",
            whole.trace.recovery_events.len(),
            inc.trace.recovery_events.len()
        );
        let (wp_bytes, wp_down, _) = whole.recovery_waves();
        let (inc_bytes, inc_down, _) = inc.recovery_waves();
        let (wp_loss, inc_loss) = (self.loss(whole), self.loss(inc));
        ensure!(
            inc_bytes < wp_bytes,
            "incremental moved {inc_bytes} bytes, not strictly below whole-plan's {wp_bytes}"
        );
        ensure!(
            inc_down < wp_down,
            "incremental downtime {inc_down:.3}s not strictly below whole-plan's {wp_down:.3}s"
        );
        ensure!(
            inc_loss < wp_loss,
            "incremental loss area {inc_loss:.0} not strictly below whole-plan's {wp_loss:.0}"
        );

        // The journaled protocol: one two-phase wave per chunk of
        // WAVE_SIZE moved tasks, exactly one commit, and the move set is
        // exactly the tasks whose worker changed.
        let d = &self.decision;
        let expected_steps = d.moved.len().div_ceil(WAVE_SIZE);
        ensure!(
            d.steps == expected_steps && d.commits == 1,
            "expected {expected_steps} migrate-steps and 1 commit, journal has {} and {}",
            d.steps,
            d.commits
        );
        ensure!(
            d.incumbent.len() == d.target.len(),
            "incumbent and target cover different task counts"
        );
        for t in 0..d.incumbent.len() {
            let moved = d.moved.contains(&t);
            let changed = d.incumbent[t] != d.target[t];
            ensure!(
                moved == changed,
                "task {t}: journaled-as-moved={moved} but worker-changed={changed}"
            );
        }

        // The optimizer: same entry point, same target and move set;
        // the chosen plan's worst load component is within ε of the
        // unconstrained optimum's.
        let r = &self.rederived;
        ensure!(
            r.target == d.target,
            "re-derived migration target {:?} != journaled {:?}",
            r.target,
            d.target
        );
        ensure!(
            r.moved == d.moved,
            "re-derived move set {:?} != journaled {:?}",
            r.moved,
            d.moved
        );
        ensure!(
            r.chosen <= r.optimum + EPSILON + 1e-12,
            "chosen plan cost {:.6} exceeds optimum {:.6} + ε {EPSILON}",
            r.chosen,
            r.optimum
        );

        // Same-seed determinism: the incremental arm replays exactly.
        ensure!(
            self.replay.trace.to_json().to_string() == inc.trace.to_json().to_string(),
            "same-seed incremental re-run produced a different trace"
        );
        ensure!(
            self.replay.journal == inc.journal,
            "same-seed incremental re-run produced a different journal"
        );
        Ok(())
    }
}
