//! Crash recovery through the controller's failure paths: failed
//! re-placement attempts journaled as `Retry` records, an incremental
//! migration abandoned by a second worker death, and a recovery
//! `Prepare` that the crashed run never deployed.
//!
//! Each sweep kills the controller after every journal record, recovers
//! from the partial journal, and requires the finished run's trace and
//! rewritten journal to be byte-identical to the uninterrupted run's.

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, DecisionRecord, MigrationConfig,
    RecoveryConfig, RedeployReason,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, TaskId, WorkerId, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, KillPoint, SimConfig};

fn ds2() -> Ds2Config {
    Ds2Config {
        activation_period: 1000.0,
        policy_interval: 5.0,
        max_parallelism: 8,
        headroom: 1.0,
    }
}

fn sim_config() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

/// One scenario: the cluster, the rate as a fraction of capacity, the
/// crashes and the optional `(retained records, migration settings)`.
struct Scenario {
    cluster: Cluster,
    load: f64,
    /// Crash times and victims. Victims are picked by rule from the
    /// initial placement, so a recovered loop picks the same ones.
    crashes: Vec<(f64, CrashTarget)>,
    migration: Option<(f64, MigrationConfig)>,
    horizon: f64,
}

#[derive(Clone, Copy)]
enum CrashTarget {
    /// The worker hosting this task in the initial placement.
    HostOf(usize),
    /// The lowest-numbered worker not already chosen as a victim.
    NextSurvivor,
}

impl Scenario {
    fn fault_plan(&self, loop_: &ClosedLoop<'_>, kill: Option<KillPoint>) -> FaultPlan {
        let mut victims: Vec<WorkerId> = Vec::new();
        let mut events = Vec::new();
        for &(time, target) in &self.crashes {
            let w = match target {
                CrashTarget::HostOf(t) => loop_.placement().worker_of(TaskId(t)),
                CrashTarget::NextSurvivor => (0..self.cluster.num_workers())
                    .map(WorkerId)
                    .find(|w| !victims.contains(w))
                    .expect("a surviving worker"),
            };
            victims.push(w);
            events.push(FaultEvent {
                time,
                kind: FaultKind::Crash(w),
            });
        }
        let mut plan = FaultPlan::new(events).unwrap();
        if let Some(k) = kill {
            plan = plan.with_controller_kill(k).unwrap();
        }
        plan
    }

    /// Runs the scenario fresh (`journal_text == None`) or recovered
    /// from a partial journal. Returns the outcome and the journal the
    /// run wrote.
    fn run(
        &self,
        kill: Option<KillPoint>,
        journal_text: Option<&str>,
    ) -> (Result<ClosedLoopTrace, ControllerError>, String) {
        let query = q1_sliding();
        let strategy = CapsStrategy::default();
        let schedule =
            RateSchedule::Constant(query.capacity_rate(&self.cluster, self.load).unwrap());
        let loop_ = match journal_text {
            None => ClosedLoop::new(
                &query,
                &self.cluster,
                &strategy,
                ds2(),
                sim_config(),
                schedule,
                7,
            ),
            Some(text) => ClosedLoop::recover_from_journal(
                &query,
                &self.cluster,
                &strategy,
                ds2(),
                sim_config(),
                schedule,
                text,
            ),
        }
        .unwrap();
        let plan = self.fault_plan(&loop_, kill);
        let mut loop_ = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(RecoveryConfig::default());
        if let Some((retained, cfg)) = &self.migration {
            loop_ = loop_
                .with_state_transfer(*retained)
                .unwrap()
                .with_incremental_migration(cfg.clone())
                .unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let result = loop_.with_journal(journal).unwrap().run(self.horizon);
        (result, buf.text())
    }

    /// Kills the controller after every journal record in turn and
    /// checks that each recovery finishes byte-identically. Returns the
    /// golden journal's records for scenario-specific assertions.
    fn sweep(&self) -> Vec<DecisionRecord> {
        let (golden_result, golden_journal) = self.run(None, None);
        let golden = golden_result.unwrap().to_json().to_string();
        let records = parse_journal(&golden_journal).unwrap().records;
        // Record 0 (`Init`) is written when the journal is attached,
        // before any kill point is armed.
        for k in 1..records.len() as u64 {
            let (result, partial) = self.run(Some(KillPoint::AfterRecord(k)), None);
            match result {
                Err(ControllerError::ControllerKilled { seq, .. }) => assert_eq!(seq, k + 1),
                other => panic!("kill after record {k} did not fire: {other:?}"),
            }
            let (recovered, rewritten) = self.run(None, Some(&partial));
            assert_eq!(
                recovered.unwrap().to_json().to_string(),
                golden,
                "recovered trace diverged after a kill at record {k}"
            );
            assert_eq!(
                rewritten, golden_journal,
                "recovered journal diverged after a kill at record {k}"
            );
        }
        records
    }
}

fn retries(records: &[DecisionRecord]) -> Vec<(usize, bool, Option<f64>)> {
    records
        .iter()
        .filter_map(|r| match r {
            DecisionRecord::Retry {
                attempts,
                gave_up,
                next_attempt_at,
                ..
            } => Some((*attempts, *gave_up, *next_attempt_at)),
            _ => None,
        })
        .collect()
}

/// Sixteen Q1 tasks fill a 4×4-slot cluster exactly, so losing one
/// worker leaves 12 free slots: every re-placement attempt fails.
fn starved_scenario() -> Scenario {
    Scenario {
        cluster: Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap(),
        load: 0.9,
        crashes: vec![(60.0, CrashTarget::HostOf(0))],
        migration: None,
        horizon: 200.0,
    }
}

#[test]
fn starved_recovery_retries_then_gives_up_and_replays_byte_identically() {
    let records = starved_scenario().sweep();
    let got = retries(&records);
    let max = RecoveryConfig::default().max_retries;
    assert_eq!(
        got.len(),
        max + 1,
        "expected {max} backed-off retries and one give-up: {got:?}"
    );
    for (i, &(attempts, gave_up, next)) in got.iter().enumerate() {
        assert_eq!(attempts, i + 1);
        assert_eq!(gave_up, i == max, "only the last retry gives up: {got:?}");
        assert_eq!(next.is_some(), !gave_up);
    }
    // Backoff grows between consecutive attempts.
    let times: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r, DecisionRecord::Retry { .. }))
        .map(DecisionRecord::time)
        .collect();
    for w in times.windows(3) {
        assert!(w[2] - w[1] > w[1] - w[0], "backoff did not grow: {times:?}");
    }
}

/// The migration scenario: a crash at t=60 is healed by an incremental
/// migration in one-task waves; a second worker dies while the waves
/// drain, which invalidates the target plan.
fn abandoned_migration_scenario() -> Scenario {
    Scenario {
        cluster: Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap(),
        load: 0.5,
        crashes: vec![
            (60.0, CrashTarget::HostOf(0)),
            (SECOND_CRASH, CrashTarget::NextSurvivor),
        ],
        migration: Some((
            2e5,
            MigrationConfig {
                epsilon: 0.05,
                wave_size: 1,
            },
        )),
        horizon: 300.0,
    }
}

const SECOND_CRASH: f64 = 72.0;

#[test]
fn migration_abandoned_by_a_second_crash_replays_byte_identically() {
    let records = abandoned_migration_scenario().sweep();
    // The first migration landed at least one wave and was then
    // abandoned: a Retry follows its MigratePrepare before any
    // MigrateCommit of that epoch.
    let first = records
        .iter()
        .position(|r| matches!(r, DecisionRecord::MigratePrepare { .. }))
        .expect("no migration started");
    let DecisionRecord::MigratePrepare { epoch, .. } = &records[first] else {
        unreachable!()
    };
    let rest = &records[first + 1..];
    let retry = rest
        .iter()
        .position(|r| matches!(r, DecisionRecord::Retry { .. }))
        .expect("the abandoned migration journaled no retry");
    assert!(
        !rest[..retry]
            .iter()
            .any(|r| matches!(r, DecisionRecord::MigrateCommit { epoch: e, .. } if e == epoch)),
        "the migration committed before the second crash"
    );
    assert!(
        rest[..retry]
            .iter()
            .any(|r| matches!(r, DecisionRecord::MigrateStep { epoch: e, .. } if e == epoch)),
        "the second crash hit before any wave landed"
    );
    assert!(
        rest[retry].time() > SECOND_CRASH,
        "abandoned before the second crash"
    );
    // The job still recovers afterwards.
    assert!(
        rest[retry..].iter().any(|r| matches!(
            r,
            DecisionRecord::Commit { .. } | DecisionRecord::MigrateCommit { .. }
        )),
        "no recovery after the abandoned migration"
    );
}

#[test]
fn recovery_prepare_followed_by_retry_is_not_deployed() {
    // A hand-built journal: the golden run's records up to its recovery
    // Prepare, then a Retry saying that Prepare's deployment failed.
    let scenario = Scenario {
        cluster: Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap(),
        load: 0.5,
        crashes: vec![(60.0, CrashTarget::HostOf(0))],
        migration: None,
        horizon: 300.0,
    };
    let (golden, golden_journal) = scenario.run(None, None);
    golden.unwrap();
    let records = parse_journal(&golden_journal).unwrap().records;
    let at = records
        .iter()
        .position(|r| {
            matches!(
                r,
                DecisionRecord::Prepare {
                    reason: RedeployReason::Recovery,
                    ..
                }
            )
        })
        .expect("no recovery prepare");
    let DecisionRecord::Prepare {
        epoch, time, rng, ..
    } = records[at].clone()
    else {
        unreachable!()
    };
    let backoff = RecoveryConfig::default().backoff(1);
    let (mut sink, buf) = DecisionJournal::in_memory();
    for rec in &records[..=at] {
        sink.append(rec).unwrap();
    }
    sink.append(&DecisionRecord::Retry {
        time,
        attempts: 1,
        gave_up: false,
        next_attempt_at: Some(time + backoff),
        rng,
    })
    .unwrap();

    let query = q1_sliding();
    let strategy = CapsStrategy::default();
    let schedule = RateSchedule::Constant(
        query
            .capacity_rate(&scenario.cluster, scenario.load)
            .unwrap(),
    );
    let loop_ = ClosedLoop::recover_from_journal(
        &query,
        &scenario.cluster,
        &strategy,
        ds2(),
        sim_config(),
        schedule,
        &buf.text(),
    )
    .unwrap();
    let plan = scenario.fault_plan(&loop_, None);
    let mut loop_ = loop_
        .with_fault_plan(plan)
        .unwrap()
        .with_recovery(RecoveryConfig::default());
    let window = loop_.policy_window();
    while loop_.time() < time - window - 1e-9 {
        loop_.step(window).unwrap();
    }
    let before = loop_.placement().clone();
    loop_.step(window).unwrap();
    assert!((loop_.time() - time).abs() < 1e-9);
    // The abandoned Prepare burned its epoch but was not deployed.
    assert_eq!(loop_.epoch(), epoch);
    assert_eq!(
        loop_.placement(),
        &before,
        "the abandoned prepare was deployed"
    );
    // Past the journal the loop is live: the backed-off second attempt
    // deploys under a fresh epoch.
    while loop_.time() < time + backoff - 1e-9 {
        loop_.step(window).unwrap();
    }
    assert_eq!(loop_.epoch(), epoch + 1);
    let trace = loop_.into_trace().unwrap();
    assert_eq!(trace.recovery_events.len(), 1);
    assert_eq!(trace.recovery_events[0].plans_tried, 2);
}
