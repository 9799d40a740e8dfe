//! Crash-recovery sweep: kill the controller at every journaled
//! decision point and prove recovery is exact.
//!
//! The durable controller journals every decision (write-ahead) and
//! reconfigures in two phases, so a controller killed at *any* point —
//! including between `Prepare` and `Commit` — can be rebuilt from its
//! journal. This experiment makes that claim exhaustively: for a
//! baseline run's journal of n records, it re-runs the scenario killed
//! right after each record k, recovers from the partial journal, and
//! diffs both the finished trace and the recovered run's journal
//! byte-for-byte against the baseline — including a scenario whose
//! journal holds governor `Rollback` records, with an explicit kill
//! between a rollback and its commit. It then checks the two
//! remaining failure modes: a wall-clock kill drawn from a seeded
//! `ChaosConfig`, and a zombie controller racing the instance that
//! superseded it (which must die with a fenced epoch, not deploy).
//!
//! Usage: `exp_recovery [--seed N] [--smoke]`

use capsys_bench::banner;
use capsys_controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionRecord, GuardConfig, MigrationConfig,
    RecoveryConfig,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, TaskId, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::Query;
use capsys_sim::{
    ChaosConfig, EpochFence, FaultEvent, FaultKind, FaultPlan, KillPoint, ModelSkew, SimConfig,
};

/// Minimal std-only flag parsing: `--seed N` and `--smoke`.
fn parse_args() -> (u64, bool) {
    let mut seed = 7u64;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed expects an integer; using 7");
                    7
                });
            }
            "--smoke" => smoke = true,
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    (seed, smoke)
}

/// One self-contained scenario the sweep runs against.
struct Scenario {
    name: &'static str,
    query: Query,
    cluster: Cluster,
    schedule: RateSchedule,
    activation_period: f64,
    /// Crash the worker hosting task 0 at this time (None = no faults).
    crash_at: Option<f64>,
    /// Make the plan model go stale mid-run (None = model stays true).
    skew: Option<ModelSkew>,
    /// Attach the safety governor, so the journal can hold `Rollback`
    /// records.
    guard: bool,
    /// Charge reconfigurations for moving this many retained records of
    /// operator state (None = free reconfigurations).
    state_transfer: Option<f64>,
    /// Recover crashes by incremental task migration, so the journal
    /// can hold `MigratePrepare`/`MigrateStep`/`MigrateCommit` records.
    migration: Option<MigrationConfig>,
    duration: f64,
    seed: u64,
}

impl Scenario {
    fn ds2(&self) -> Ds2Config {
        Ds2Config {
            activation_period: self.activation_period,
            policy_interval: 5.0,
            max_parallelism: 8,
            headroom: 1.0,
        }
    }

    fn sim(&self) -> SimConfig {
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        }
    }

    fn build_loop<'a>(
        &self,
        strategy: &'a CapsStrategy,
        cluster: &'a Cluster,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        ClosedLoop::new(
            &self.query,
            cluster,
            strategy,
            self.ds2(),
            self.sim(),
            self.schedule.clone(),
            self.seed,
        )
    }

    /// The scenario's fault schedule (without any controller kill).
    fn fault_plan(
        &self,
        loop_: &ClosedLoop<'_>,
    ) -> Result<Option<FaultPlan>, Box<dyn std::error::Error>> {
        let mut plan = match self.crash_at {
            None => None,
            Some(t) => {
                let victim = loop_.placement().worker_of(TaskId(0));
                Some(FaultPlan::new(vec![FaultEvent {
                    time: t,
                    kind: FaultKind::Crash(victim),
                }])?)
            }
        };
        if let Some(skew) = self.skew {
            let base = match plan {
                Some(p) => p,
                None => FaultPlan::new(vec![])?,
            };
            plan = Some(base.with_model_skew(skew)?);
        }
        Ok(plan)
    }

    /// Runs the scenario with a journal and an optional kill; returns
    /// the outcome and the journal text (which survives the kill).
    fn run_journaled(
        &self,
        kill: Option<KillPoint>,
    ) -> Result<(Result<ClosedLoopTrace, ControllerError>, String), Box<dyn std::error::Error>>
    {
        let strategy = CapsStrategy::default();
        let mut loop_ = self.build_loop(&strategy, &self.cluster)?;
        let mut plan = self.fault_plan(&loop_)?;
        if let Some(k) = kill {
            plan = Some(match plan {
                Some(p) => p.with_controller_kill(k)?,
                None => FaultPlan::new(vec![])?.with_controller_kill(k)?,
            });
        }
        if let Some(p) = plan {
            loop_ = loop_.with_fault_plan(p)?;
        }
        if self.guard {
            loop_ = loop_.with_guard(GuardConfig::default())?;
        }
        let (journal, buf) = capsys_controller::DecisionJournal::in_memory();
        let mut loop_ = loop_.with_recovery(RecoveryConfig::default());
        if let Some(retained) = self.state_transfer {
            loop_ = loop_.with_state_transfer(retained)?;
        }
        if let Some(m) = self.migration.clone() {
            loop_ = loop_.with_incremental_migration(m)?;
        }
        let result = loop_.with_journal(journal)?.run(self.duration);
        Ok((result, buf.text()))
    }

    /// Recovers from a (possibly partial) journal and runs to the
    /// scenario's end; returns the trace and the recovered journal.
    fn recover_and_finish(
        &self,
        journal_text: &str,
    ) -> Result<(ClosedLoopTrace, String), Box<dyn std::error::Error>> {
        let strategy = CapsStrategy::default();
        let mut loop_ = ClosedLoop::recover_from_journal(
            &self.query,
            &self.cluster,
            &strategy,
            self.ds2(),
            self.sim(),
            self.schedule.clone(),
            journal_text,
        )?;
        if let Some(p) = self.fault_plan(&loop_)? {
            loop_ = loop_.with_fault_plan(p)?;
        }
        if self.guard {
            loop_ = loop_.with_guard(GuardConfig::default())?;
        }
        let (journal, buf) = capsys_controller::DecisionJournal::in_memory();
        let mut loop_ = loop_.with_recovery(RecoveryConfig::default());
        if let Some(retained) = self.state_transfer {
            loop_ = loop_.with_state_transfer(retained)?;
        }
        if let Some(m) = self.migration.clone() {
            loop_ = loop_.with_incremental_migration(m)?;
        }
        let trace = loop_.with_journal(journal)?.run(self.duration)?;
        Ok((trace, buf.text()))
    }
}

/// Kills the scenario after every journal record of its baseline run
/// and asserts byte-identical recovery each time. Returns the number of
/// kill points that landed on a `Prepare`, on a `Rollback`, and on a
/// migration record (`MigratePrepare` or `MigrateStep` — i.e. with an
/// incremental migration in flight).
fn sweep(scenario: &Scenario) -> Result<(usize, usize, usize), Box<dyn std::error::Error>> {
    let (baseline, golden_journal) = scenario.run_journaled(None)?;
    let golden = baseline?.to_json().to_string();
    let parsed = capsys_controller::journal::parse_journal(&golden_journal)?;
    let n = parsed.records.len() as u64;
    println!(
        "[{}] baseline journal: {n} decision record(s), {} trace bytes",
        scenario.name,
        golden.len()
    );
    if n < 2 {
        return Err(format!(
            "[{}] scenario journaled no decisions beyond init; nothing to sweep",
            scenario.name
        )
        .into());
    }

    let mut prepares_hit = 0usize;
    let mut rollbacks_hit = 0usize;
    let mut migrations_hit = 0usize;
    for k in 0..n {
        let partial = if k == 0 {
            // Kill "before the first decision": only the init record
            // made it to disk. Truncate the golden journal instead of
            // re-running (no kill point fires that early).
            golden_journal
                .lines()
                .next()
                .map(|l| format!("{l}\n"))
                .ok_or("golden journal is empty")?
        } else {
            let (result, partial) = scenario.run_journaled(Some(KillPoint::AfterRecord(k)))?;
            match result {
                Err(ControllerError::ControllerKilled { seq, .. }) if seq == k + 1 => {}
                Err(ControllerError::ControllerKilled { seq, .. }) => {
                    return Err(format!(
                        "[{}] kill at record {k} reported {seq} records written",
                        scenario.name
                    )
                    .into());
                }
                other => {
                    return Err(format!(
                        "[{}] kill at record {k} did not fire: {other:?}",
                        scenario.name
                    )
                    .into());
                }
            }
            let lines = partial.lines().count() as u64;
            if lines != k + 1 {
                return Err(format!(
                    "[{}] kill at record {k} left {lines} journal lines, expected {}",
                    scenario.name,
                    k + 1
                )
                .into());
            }
            partial
        };
        match parsed.records.get(k as usize) {
            Some(DecisionRecord::Prepare { .. }) => prepares_hit += 1,
            Some(DecisionRecord::Rollback { .. }) => rollbacks_hit += 1,
            Some(DecisionRecord::MigratePrepare { .. } | DecisionRecord::MigrateStep { .. }) => {
                migrations_hit += 1
            }
            _ => {}
        }
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        if trace.to_json().to_string() != golden {
            return Err(format!(
                "[{}] recovered trace DIVERGED after kill at record {k}",
                scenario.name
            )
            .into());
        }
        if rewritten != golden_journal {
            return Err(format!(
                "[{}] recovered journal DIVERGED after kill at record {k}",
                scenario.name
            )
            .into());
        }
    }
    println!(
        "[{}] kill-at-every-record sweep: {n}/{n} recoveries byte-identical \
         ({prepares_hit} landed between Prepare and Commit, {rollbacks_hit} \
         between Rollback and Commit, {migrations_hit} mid-migration)",
        scenario.name
    );

    // The explicit mid-reconfiguration kill: die on the first Prepare,
    // leaving it in doubt at the journal tail; recovery must roll it
    // forward and still match the baseline exactly.
    let first_epoch = parsed.records.iter().find_map(|r| match r {
        DecisionRecord::Prepare { epoch, .. } => Some(*epoch),
        _ => None,
    });
    if let Some(e) = first_epoch {
        let (result, partial) = scenario.run_journaled(Some(KillPoint::MidReconfig(e)))?;
        if !matches!(result, Err(ControllerError::ControllerKilled { .. })) {
            return Err(format!("[{}] mid-reconfig kill did not fire", scenario.name).into());
        }
        let tail = capsys_controller::journal::parse_journal(&partial)?;
        if !matches!(
            tail.records.last(),
            Some(DecisionRecord::Prepare { epoch, .. }) if *epoch == e
        ) {
            return Err(format!(
                "[{}] mid-reconfig kill's journal does not end at the in-doubt prepare",
                scenario.name
            )
            .into());
        }
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        if trace.to_json().to_string() != golden || rewritten != golden_journal {
            return Err(format!(
                "[{}] roll-forward after mid-reconfig kill DIVERGED",
                scenario.name
            )
            .into());
        }
        println!(
            "[{}] kill between Prepare(epoch {e}) and Commit: rolled forward, byte-identical",
            scenario.name
        );
    }

    // Same in-doubt treatment for a governor rollback: die on the first
    // `Rollback`, leaving it at the journal tail; recovery must finish
    // the rollback the dead controller started and match the baseline.
    let first_rollback = parsed.records.iter().find_map(|r| match r {
        DecisionRecord::Rollback { epoch, .. } => Some(*epoch),
        _ => None,
    });
    if let Some(e) = first_rollback {
        let (result, partial) = scenario.run_journaled(Some(KillPoint::MidReconfig(e)))?;
        if !matches!(result, Err(ControllerError::ControllerKilled { .. })) {
            return Err(format!("[{}] mid-rollback kill did not fire", scenario.name).into());
        }
        let tail = capsys_controller::journal::parse_journal(&partial)?;
        if !matches!(
            tail.records.last(),
            Some(DecisionRecord::Rollback { epoch, .. }) if *epoch == e
        ) {
            return Err(format!(
                "[{}] mid-rollback kill's journal does not end at the in-doubt rollback",
                scenario.name
            )
            .into());
        }
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        if trace.to_json().to_string() != golden || rewritten != golden_journal {
            return Err(format!(
                "[{}] roll-forward after mid-rollback kill DIVERGED",
                scenario.name
            )
            .into());
        }
        println!(
            "[{}] kill between Rollback(epoch {e}) and Commit: rolled forward, byte-identical",
            scenario.name
        );
    }

    // And for an incremental migration: die on the `MigratePrepare`,
    // leaving the whole migration in doubt at the journal tail;
    // recovery must re-derive the waves and roll them all forward.
    let first_migrate = parsed.records.iter().find_map(|r| match r {
        DecisionRecord::MigratePrepare { epoch, .. } => Some(*epoch),
        _ => None,
    });
    if let Some(e) = first_migrate {
        let (result, partial) = scenario.run_journaled(Some(KillPoint::MidReconfig(e)))?;
        if !matches!(result, Err(ControllerError::ControllerKilled { .. })) {
            return Err(format!("[{}] mid-migration kill did not fire", scenario.name).into());
        }
        let tail = capsys_controller::journal::parse_journal(&partial)?;
        if !matches!(
            tail.records.last(),
            Some(DecisionRecord::MigratePrepare { epoch, .. }) if *epoch == e
        ) {
            return Err(format!(
                "[{}] mid-migration kill's journal does not end at the in-doubt migrate-prepare",
                scenario.name
            )
            .into());
        }
        let (trace, rewritten) = scenario.recover_and_finish(&partial)?;
        if trace.to_json().to_string() != golden || rewritten != golden_journal {
            return Err(format!(
                "[{}] roll-forward after mid-migration kill DIVERGED",
                scenario.name
            )
            .into());
        }
        println!(
            "[{}] kill between MigratePrepare(epoch {e}) and MigrateCommit: \
             rolled forward, byte-identical",
            scenario.name
        );
    }
    Ok((prepares_hit, rollbacks_hit, migrations_hit))
}

/// A wall-clock controller kill drawn from a seeded `ChaosConfig`:
/// the killed run's journal must recover to the same trace as the
/// baseline running the same fault plan without the kill.
fn chaos_kill_case(seed: u64, duration: f64) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario {
        name: "chaos-kill",
        query: capsys_queries::q1_sliding(),
        cluster: Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?,
        schedule: RateSchedule::Constant(
            capsys_queries::q1_sliding()
                .capacity_rate(&Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?, 0.5)?,
        ),
        activation_period: 60.0,
        crash_at: None,
        skew: None,
        guard: false,
        state_transfer: None,
        migration: None,
        duration,
        seed,
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
        model_skews: 0,
        skew_factor: (2.0, 4.0),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::generate(&chaos, scenario.cluster.num_workers())?;
    let kill = plan
        .controller_kill
        .ok_or("chaos config with controller_kills=1 drew no kill")?;

    let run_with = |p: FaultPlan,
                    journal_text: Option<&str>|
     -> Result<
        (Result<ClosedLoopTrace, ControllerError>, String),
        Box<dyn std::error::Error>,
    > {
        let strategy = CapsStrategy::default();
        let loop_ = match journal_text {
            None => scenario.build_loop(&strategy, &scenario.cluster)?,
            Some(t) => ClosedLoop::recover_from_journal(
                &scenario.query,
                &scenario.cluster,
                &strategy,
                scenario.ds2(),
                scenario.sim(),
                scenario.schedule.clone(),
                t,
            )?,
        };
        let (journal, buf) = capsys_controller::DecisionJournal::in_memory();
        let result = loop_
            .with_fault_plan(p)?
            .with_recovery(RecoveryConfig::default())
            .with_journal(journal)?
            .run(scenario.duration);
        Ok((result, buf.text()))
    };

    let (baseline, _) = run_with(plan.clone().without_controller_kill(), None)?;
    let golden = baseline?.to_json().to_string();
    let (killed, partial) = run_with(plan.clone(), None)?;
    if !matches!(killed, Err(ControllerError::ControllerKilled { .. })) {
        return Err(format!("chaos kill {kill:?} did not fire").into());
    }
    // The recovered controller must not re-arm the kill it already died
    // to — a real restart would similarly clear the poison.
    let (recovered, _) = run_with(plan.without_controller_kill(), Some(&partial))?;
    if recovered?.to_json().to_string() != golden {
        return Err(format!("recovery from chaos kill {kill:?} DIVERGED").into());
    }
    println!("[chaos-kill] {kill:?}: killed run recovered byte-identically");
    Ok(())
}

/// The zombie race: controller A dies early; B recovers from A's
/// journal sharing the cluster's epoch fence and finishes, advancing
/// the fence with its live deployments. A second recovery of the same
/// stale journal (the zombie resuming) must then be fenced off at its
/// first deployment, leaving nothing deployed.
fn zombie_case(seed: u64, duration: f64) -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8))?;
    let query = capsys_queries::q1_sliding().with_parallelism(&[1, 1, 1, 1])?;
    let target = capsys_queries::q1_sliding().capacity_rate(&cluster, 0.5)?;
    let scenario = Scenario {
        name: "zombie",
        query,
        cluster,
        schedule: RateSchedule::Constant(target),
        activation_period: 20.0,
        crash_at: None,
        skew: None,
        guard: false,
        state_transfer: None,
        migration: None,
        duration,
        seed,
    };
    let fence = EpochFence::new();
    let strategy = CapsStrategy::default();

    // A dies before its first decision (the first policy window ends at
    // t=5): journal = init only, fence untouched.
    let loop_a = scenario
        .build_loop(&strategy, &scenario.cluster)?
        .with_fence(fence.clone())
        .with_fault_plan(FaultPlan::new(vec![])?.with_controller_kill(KillPoint::AtTime(3.0))?)?;
    let (journal_a, buf_a) = capsys_controller::DecisionJournal::in_memory();
    let result_a = loop_a.with_journal(journal_a)?.run(scenario.duration);
    if !matches!(result_a, Err(ControllerError::ControllerKilled { .. })) {
        return Err("zombie case: controller A was not killed".into());
    }
    let journal_text = buf_a.text();

    // B supersedes A: recovers the journal, scales live, advances the
    // shared fence.
    let trace_b = ClosedLoop::recover_from_journal(
        &scenario.query,
        &scenario.cluster,
        &strategy,
        scenario.ds2(),
        scenario.sim(),
        scenario.schedule.clone(),
        &journal_text,
    )?
    .with_fence(fence.clone())
    .run(scenario.duration)?;
    if trace_b.num_scalings() == 0 {
        return Err("zombie case: controller B never deployed, fence untouched".into());
    }
    let epoch_after_b = fence.current();
    if epoch_after_b == 0 {
        return Err("zombie case: B's deployments did not advance the fence".into());
    }

    // The zombie resumes from the same stale journal against the same
    // fence: its first deployment must be rejected.
    let result_z = ClosedLoop::recover_from_journal(
        &scenario.query,
        &scenario.cluster,
        &strategy,
        scenario.ds2(),
        scenario.sim(),
        scenario.schedule.clone(),
        &journal_text,
    )?
    .with_fence(fence.clone())
    .run(scenario.duration);
    match result_z {
        Err(ControllerError::FencedEpoch { attempted, current }) => {
            if attempted > epoch_after_b || current < epoch_after_b {
                return Err(format!(
                    "zombie fenced with implausible epochs: attempted {attempted}, \
                     fence at {current}, B reached {epoch_after_b}"
                )
                .into());
            }
            println!(
                "[zombie] stale controller fenced at epoch {attempted} (cluster at {current})"
            );
            Ok(())
        }
        Err(e) => Err(format!("zombie failed with {e}, expected a fenced epoch").into()),
        Ok(_) => Err("zombie controller deployed past the fence".into()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seed, smoke) = parse_args();
    banner(
        "Recovery",
        "kill-at-every-decision crash-recovery sweep",
        "durability extension (not a paper figure)",
    );
    let duration = if smoke { 150.0 } else { 300.0 };
    println!("seed {seed}, {duration}s per run\n");

    // Scenario 1: a worker crash mid-run — the journal holds a recovery
    // reconfiguration (and possibly retries).
    let chaos_cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let chaos_target = capsys_queries::q1_sliding().capacity_rate(&chaos_cluster, 0.5)?;
    let chaos = Scenario {
        name: "crash-recovery",
        query: capsys_queries::q1_sliding(),
        cluster: chaos_cluster,
        schedule: RateSchedule::Constant(chaos_target),
        activation_period: 60.0,
        crash_at: Some(60.0),
        skew: None,
        guard: false,
        state_transfer: None,
        migration: None,
        duration,
        seed,
    };

    // Scenario 2: an undersized job DS2 scales up — the journal holds
    // scaling reconfigurations.
    let scale_cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8))?;
    let scale_target = capsys_queries::q1_sliding().capacity_rate(&scale_cluster, 0.5)?;
    let scaling = Scenario {
        name: "scaling",
        query: capsys_queries::q1_sliding().with_parallelism(&[1, 1, 1, 1])?,
        cluster: scale_cluster,
        schedule: RateSchedule::Constant(scale_target),
        activation_period: 20.0,
        crash_at: None,
        skew: None,
        guard: false,
        state_transfer: None,
        migration: None,
        duration,
        seed,
    };

    // Scenario 3: the model goes stale, a rate step goads DS2 onto the
    // stale model, and the governor rolls the regression back — the
    // journal holds `Rollback` records.
    let guard_cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let guard_target = capsys_queries::q1_sliding().capacity_rate(&guard_cluster, 0.5)?;
    let guard = Scenario {
        name: "guard-rollback",
        query: capsys_queries::q1_sliding(),
        cluster: guard_cluster,
        schedule: RateSchedule::Steps(vec![(0.0, guard_target), (80.0, 1.8 * guard_target)]),
        activation_period: 60.0,
        crash_at: None,
        skew: Some(ModelSkew {
            time: 70.0,
            factor: 3.5,
        }),
        guard: true,
        state_transfer: None,
        migration: None,
        duration,
        seed,
    };

    // Scenario 4: the same crash recovered by incremental migration —
    // the journal holds a MigratePrepare, per-wave MigrateSteps, and a
    // MigrateCommit, and the sweep kills between every pair of them.
    let mig_cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let mig_target = capsys_queries::q1_sliding().capacity_rate(&mig_cluster, 0.5)?;
    let migration = Scenario {
        name: "migration",
        query: capsys_queries::q1_sliding(),
        cluster: mig_cluster,
        schedule: RateSchedule::Constant(mig_target),
        activation_period: 1000.0,
        crash_at: Some(60.0),
        skew: None,
        guard: false,
        state_transfer: Some(2e5),
        migration: Some(MigrationConfig {
            epsilon: 0.05,
            wave_size: 1,
        }),
        duration,
        seed,
    };

    let mut prepares_hit = 0;
    let mut rollbacks_hit = 0;
    let mut migrations_hit = 0;
    for scenario in [&chaos, &scaling, &guard, &migration] {
        let (p, r, m) = sweep(scenario)?;
        prepares_hit += p;
        rollbacks_hit += r;
        migrations_hit += m;
    }
    if prepares_hit == 0 {
        return Err("no kill point landed between Prepare and Commit across the sweep".into());
    }
    if rollbacks_hit == 0 {
        return Err("no kill point landed between Rollback and Commit across the sweep".into());
    }
    if migrations_hit < 3 {
        return Err(format!(
            "only {migrations_hit} kill point(s) landed mid-migration; expected a \
             MigratePrepare and at least two MigrateSteps in the sweep"
        )
        .into());
    }

    chaos_kill_case(seed, duration)?;
    zombie_case(seed, duration)?;

    println!("\nall recovery invariants hold");
    Ok(())
}
