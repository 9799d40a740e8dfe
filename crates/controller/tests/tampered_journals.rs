//! Recovery from tampered journals. Each case takes a journal written by
//! a real run, alters one record so it no longer matches what the
//! recovered loop re-derives, and requires recovery to stop with
//! `ControllerError::JournalReplay` — never a panic, never a run that
//! silently diverges from the journal.

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, DecisionRecord, GuardConfig,
    MigrationConfig, RecoveryConfig, RedeployReason, ShedConfig,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, FlashCrowd, RateProgram, RateSchedule, TaskId, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, ModelSkew, SimConfig};

/// Which controller features a scenario arms.
#[derive(Clone, Copy)]
enum Scenario {
    /// A worker crash at t=60 healed by a whole-plan recovery, after an
    /// early DS2 scaling.
    Crash,
    /// The crash healed by an incremental migration.
    Migration,
    /// A stale model from t=70 that the governor rolls back.
    Governed,
    /// A flash crowd that the admission controller sheds.
    Shedding,
}

/// Runs `scenario` fresh (`journal == None`) or recovered from `journal`,
/// returning the outcome and the journal the run wrote.
fn run(
    scenario: Scenario,
    journal: Option<&str>,
) -> (Result<ClosedLoopTrace, ControllerError>, String) {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
    let strategy = CapsStrategy::default();
    let base = query.capacity_rate(&cluster, 0.5).unwrap();
    let schedule = match scenario {
        Scenario::Crash | Scenario::Migration => RateSchedule::Constant(base),
        Scenario::Governed => RateSchedule::Steps(vec![(0.0, base), (80.0, 1.8 * base)]),
        Scenario::Shedding => RateSchedule::Program(RateProgram {
            base,
            origin: 0.0,
            growth_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 0.0,
            diurnal_phase: 0.0,
            flashes: vec![FlashCrowd {
                start: 60.0,
                ramp: 5.0,
                hold: 60.0,
                decay: 5.0,
                magnitude: 7.0,
            }],
            horizon: 240.0,
        }),
    };
    let ds2 = Ds2Config {
        activation_period: match scenario {
            Scenario::Shedding => 1e6,
            _ => 60.0,
        },
        policy_interval: 5.0,
        max_parallelism: 8,
        headroom: 1.0,
    };
    let sim = SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    };
    let built = match journal {
        None => ClosedLoop::new(&query, &cluster, &strategy, ds2, sim, schedule, 7),
        Some(text) => {
            ClosedLoop::recover_from_journal(&query, &cluster, &strategy, ds2, sim, schedule, text)
        }
    };
    let loop_ = match built {
        Ok(l) => l,
        Err(e) => return (Err(e), String::new()),
    };
    let plan = match scenario {
        Scenario::Crash | Scenario::Migration => FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(loop_.placement().worker_of(TaskId(0))),
        }])
        .unwrap(),
        Scenario::Governed => FaultPlan::new(vec![])
            .unwrap()
            .with_model_skew(ModelSkew {
                time: 70.0,
                factor: 3.5,
            })
            .unwrap(),
        Scenario::Shedding => FaultPlan::new(vec![]).unwrap(),
    };
    let mut loop_ = loop_.with_fault_plan(plan).unwrap();
    loop_ = match scenario {
        Scenario::Crash => loop_.with_recovery(RecoveryConfig::default()),
        Scenario::Migration => loop_
            .with_recovery(RecoveryConfig::default())
            .with_state_transfer(2e5)
            .unwrap()
            .with_incremental_migration(MigrationConfig {
                epsilon: 0.05,
                wave_size: 1,
            })
            .unwrap(),
        Scenario::Governed => loop_.with_guard(GuardConfig::default()).unwrap(),
        Scenario::Shedding => loop_.with_shedding(ShedConfig::default()).unwrap(),
    };
    let (sink, buf) = DecisionJournal::in_memory();
    let result = loop_.with_journal(sink).unwrap().run(200.0);
    (result, buf.text())
}

/// Rewrites the golden journal of `scenario` through `tamper` (which
/// returns `false` if it found nothing to alter) and recovers from it.
fn recover_tampered(
    scenario: Scenario,
    tamper: impl FnOnce(&mut Vec<DecisionRecord>) -> bool,
) -> Result<ClosedLoopTrace, ControllerError> {
    let (golden, text) = run(scenario, None);
    golden.unwrap();
    let mut records = parse_journal(&text).unwrap().records;
    assert!(
        tamper(&mut records),
        "the golden journal has no record to tamper with"
    );
    let (mut sink, buf) = DecisionJournal::in_memory();
    for rec in &records {
        sink.append(rec).unwrap();
    }
    run(scenario, Some(&buf.text())).0
}

fn first_index(
    records: &[DecisionRecord],
    pred: impl Fn(&DecisionRecord) -> bool,
) -> Option<usize> {
    records.iter().position(pred)
}

fn is_scaling_prepare(r: &DecisionRecord) -> bool {
    matches!(
        r,
        DecisionRecord::Prepare {
            reason: RedeployReason::Scaling,
            ..
        }
    )
}

type Tamper = fn(&mut Vec<DecisionRecord>) -> bool;

#[test]
fn tampered_journals_fail_recovery_with_journal_replay() {
    let cases: Vec<(&str, Scenario, Tamper)> = vec![
        (
            "rollback assignment differs from the governor's verdict",
            Scenario::Governed,
            |rs| {
                rs.iter_mut().any(|r| match r {
                    DecisionRecord::Rollback { assignment, .. } => {
                        assignment[0] = (assignment[0] + 1) % 6;
                        true
                    }
                    _ => false,
                })
            },
        ),
        (
            "shed fraction differs from the verdict",
            Scenario::Shedding,
            |rs| {
                rs.iter_mut().any(|r| match r {
                    DecisionRecord::Shed { fraction, .. } => {
                        *fraction *= 0.5;
                        true
                    }
                    _ => false,
                })
            },
        ),
        (
            "commit epoch differs from its prepare",
            Scenario::Crash,
            |rs| {
                let Some(i) = first_index(rs, |r| matches!(r, DecisionRecord::Prepare { .. }))
                else {
                    return false;
                };
                match rs.get_mut(i + 1) {
                    Some(DecisionRecord::Commit { epoch, .. }) => {
                        *epoch += 100;
                        true
                    }
                    _ => false,
                }
            },
        ),
        (
            "migration move set differs from the plan difference",
            Scenario::Migration,
            |rs| {
                rs.iter_mut().any(|r| match r {
                    DecisionRecord::MigratePrepare { moved, .. } => moved.pop().is_some(),
                    _ => false,
                })
            },
        ),
        (
            "scaling prepare followed by a retry",
            Scenario::Crash,
            |rs| {
                let Some(i) = first_index(rs, is_scaling_prepare) else {
                    return false;
                };
                let DecisionRecord::Prepare { time, rng, .. } = rs[i].clone() else {
                    return false;
                };
                if !matches!(rs.get(i + 1), Some(DecisionRecord::Commit { .. })) {
                    return false;
                }
                rs[i + 1] = DecisionRecord::Retry {
                    time,
                    attempts: 1,
                    gave_up: false,
                    next_attempt_at: Some(time + 5.0),
                    rng,
                };
                true
            },
        ),
        ("record already past due", Scenario::Crash, |rs| {
            // Half a policy window early: no window boundary matches it,
            // so the replay reaches it only once it is overdue.
            let Some(i) = first_index(rs, is_scaling_prepare) else {
                return false;
            };
            match &mut rs[i] {
                DecisionRecord::Prepare { time, .. } => {
                    *time -= 2.5;
                    true
                }
                _ => false,
            }
        }),
    ];
    for (name, scenario, tamper) in cases {
        match recover_tampered(scenario, tamper) {
            Err(ControllerError::JournalReplay(_)) => {}
            other => panic!("{name}: expected a journal-replay error, got {other:?}"),
        }
    }
}
