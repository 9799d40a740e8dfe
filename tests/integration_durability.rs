//! Durability through the public `capsys` API: the journal's two-phase
//! shape, recovery's input validation, epoch fencing, and state
//! migration. The scenarios are the recovery claim's
//! (`capsys_bench::claims::recovery`); the claim itself — a controller
//! killed after any journal record, or between any two-phase record and
//! its commit, recovers byte-identically — runs in `tests/claims.rs`.

use capsys::controller::journal::parse_journal;
use capsys::controller::{ClosedLoopTrace, ControllerError, DecisionRecord};
use capsys::placement::CapsStrategy;
use capsys::prelude::*;
use capsys::sim::EpochFence;
use capsys_bench::claims::{recovery, Scenario};

#[test]
fn zombie_controller_is_fenced_via_public_api() {
    let scenario = recovery::scaling(7, 120.0).unwrap();
    let strategy = CapsStrategy::default();
    let fence = EpochFence::new();
    let build = || {
        scenario
            .build_loop(&strategy)
            .unwrap()
            .with_fence(fence.clone())
    };
    // The first controller scales live, advancing the shared fence.
    let trace = build().run(120.0).unwrap();
    assert!(trace.num_scalings() >= 1, "scenario never scaled");
    let current = fence.current();
    assert!(current >= 1);
    // A second controller with the same (stale) view of the world must
    // be rejected at its first deployment, with the fence unmoved.
    match build().run(120.0) {
        Err(ControllerError::FencedEpoch {
            attempted,
            current: c,
        }) => {
            assert!(attempted <= current);
            assert_eq!(c, current);
        }
        other => panic!("expected FencedEpoch, got {other:?}"),
    }
    assert_eq!(fence.current(), current, "a fenced zombie moved the fence");
}

#[test]
fn stale_epoch_deployment_is_fenced() {
    // A controller whose fence has been advanced from outside (a newer
    // controller superseded it) must fail its next deployment with
    // FencedEpoch, not retry or deploy.
    let scenario = recovery::scaling(7, 300.0).unwrap();
    let strategy = CapsStrategy::default();
    let loop_ = scenario.build_loop(&strategy).unwrap();
    loop_.fence().advance_to(1000).unwrap();
    match loop_.run(300.0) {
        Err(ControllerError::FencedEpoch { attempted, current }) => {
            assert!(attempted <= 1000);
            assert_eq!(current, 1000);
        }
        other => panic!("expected FencedEpoch, got {other:?}"),
    }
}

#[test]
fn journal_records_prepare_commit_pairs() {
    let (result, text) = recovery::crash(7, 300.0)
        .unwrap()
        .run_journaled(None)
        .unwrap();
    result.unwrap();
    let parsed = parse_journal(&text).unwrap();
    assert!(!parsed.torn);
    assert!(matches!(parsed.records[0], DecisionRecord::Init { .. }));
    let mut last_epoch = 0u64;
    let mut prepares = 0;
    let mut i = 1;
    while i < parsed.records.len() {
        match &parsed.records[i] {
            DecisionRecord::Prepare { epoch, .. } => {
                prepares += 1;
                assert!(*epoch > last_epoch, "epochs must increase strictly");
                last_epoch = *epoch;
                // Every applied prepare is immediately committed.
                match parsed.records.get(i + 1) {
                    Some(DecisionRecord::Commit { epoch: e, .. }) => assert_eq!(e, epoch),
                    Some(DecisionRecord::Retry { .. }) => {} // abandoned
                    other => panic!("prepare followed by {other:?}"),
                }
                i += 2;
            }
            DecisionRecord::Retry { .. } => i += 1,
            other => panic!("unexpected record {other:?}"),
        }
    }
    assert!(prepares >= 1, "the crash recovery must journal a prepare");
}

#[test]
fn recovery_validates_journal_against_inputs() {
    let scenario = recovery::crash(7, 300.0).unwrap();
    let (result, text) = scenario.run_journaled(None).unwrap();
    result.unwrap();
    let strategy = CapsStrategy::default();
    // Wrong worker count.
    let small = Scenario {
        cluster: Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap(),
        ..scenario.clone()
    };
    let err = small
        .recover_loop(&strategy, &text)
        .err()
        .expect("recovery on the wrong cluster must fail");
    assert!(matches!(err, ControllerError::JournalReplay(_)), "{err}");
    // Wrong starting parallelism.
    let narrow = Scenario {
        query: scenario.query.with_parallelism(&[1, 1, 1, 1]).unwrap(),
        ..scenario.clone()
    };
    let err = narrow
        .recover_loop(&strategy, &text)
        .err()
        .expect("recovery with the wrong parallelism must fail");
    assert!(matches!(err, ControllerError::JournalReplay(_)), "{err}");
}

/// The recovery claim's migration scenario — a crash recovered by
/// incremental migration one task per wave, with state-transfer
/// charging — or, with `incremental` false, the same crash recovered by
/// a whole-plan redeploy. Returns the trace and the journal.
fn migration_run(incremental: bool) -> (ClosedLoopTrace, String) {
    let mut scenario = recovery::migration(7, 300.0).unwrap();
    if !incremental {
        scenario.migration = None;
    }
    let (result, journal) = scenario.run_journaled(None).unwrap();
    (result.unwrap(), journal)
}

#[test]
fn incremental_migration_moves_less_and_pauses_less() {
    let (whole, _) = migration_run(false);
    let (inc, text) = migration_run(true);
    // Both recovered the crash exactly once.
    assert_eq!(whole.recovery_events.len(), 1);
    assert_eq!(inc.recovery_events.len(), 1);
    // The whole-plan redeploy reloads every stateful byte; the migration
    // moves only the displaced tasks'.
    assert!(inc.bytes_moved() > 0, "migration moved no state");
    assert!(
        inc.bytes_moved() < whole.bytes_moved(),
        "incremental moved {} bytes, whole-plan restored {}",
        inc.bytes_moved(),
        whole.bytes_moved()
    );
    assert!(whole.downtime() > 0.0, "whole-plan restore paused nothing");
    assert!(
        inc.downtime() < whole.downtime(),
        "incremental downtime {} not below whole-plan {}",
        inc.downtime(),
        whole.downtime()
    );
    // Per-wave accounting sums to the trace total.
    let sum: f64 = inc.migration_waves.iter().map(|w| w.downtime).sum();
    assert_eq!(inc.downtime(), sum);

    // Journal protocol: one MigratePrepare, one MigrateStep per moved
    // task (wave_size 1), one MigrateCommit — and the move set is
    // exactly the tasks whose worker changed relative to the incumbent
    // (the last whole-plan deploy before the migration).
    let parsed = parse_journal(&text).unwrap();
    let mut incumbent = match &parsed.records[0] {
        DecisionRecord::Init { assignment, .. } => assignment.clone(),
        other => panic!("journal does not start with init: {other:?}"),
    };
    let mut migrate = None;
    for r in &parsed.records {
        match r {
            DecisionRecord::Prepare { assignment, .. } => incumbent = assignment.clone(),
            DecisionRecord::MigratePrepare {
                epoch,
                assignment,
                moved,
                ..
            } => {
                migrate = Some((*epoch, assignment.clone(), moved.clone()));
                break;
            }
            _ => {}
        }
    }
    let (migrate_epoch, target_assignment, moved) = migrate.expect("no migrate-prepare journaled");
    let count =
        |pred: fn(&DecisionRecord) -> bool| parsed.records.iter().filter(|r| pred(r)).count();
    let steps = count(|r| matches!(r, DecisionRecord::MigrateStep { .. }));
    assert_eq!(steps, moved.len(), "one step per task at wave_size 1");
    assert_eq!(
        count(|r| matches!(r, DecisionRecord::MigrateCommit { .. })),
        1
    );
    assert!(
        !moved.is_empty() && moved.len() < incumbent.len(),
        "migration should move some but not all tasks: {moved:?}"
    );
    assert_eq!(incumbent.len(), target_assignment.len());
    for t in 0..incumbent.len() {
        assert_eq!(
            moved.contains(&t),
            incumbent[t] != target_assignment[t],
            "task {t}: journaled as moved iff its worker changed"
        );
    }
    // Migration waves land in order, one trace entry each. (Waves from
    // earlier whole-plan restores carry other epochs.)
    let wave_list: Vec<usize> = inc
        .migration_waves
        .iter()
        .filter(|w| w.epoch == migrate_epoch)
        .map(|w| w.wave)
        .collect();
    assert_eq!(wave_list, (0..steps).collect::<Vec<_>>());
}

#[test]
fn whole_plan_restores_are_traced_as_waves() {
    let (whole, text) = migration_run(false);
    let parsed = parse_journal(&text).unwrap();
    // Every whole-plan deploy — the early DS2 downscale and the
    // crash-recovery redeploy — reloads the full state model. The
    // operator's total state is parallelism-invariant:
    // state_bytes_per_record (4000) x retained records (2e5).
    let total_state = (4000.0 * 2e5) as u64;
    assert_eq!(whole.migration_waves.len(), 2);
    for wave in &whole.migration_waves {
        assert_eq!(wave.wave, 0, "whole-plan restores are single-wave");
        assert_eq!(wave.bytes, total_state);
        assert!(wave.downtime > 0.0, "restore paused nothing: {wave:?}");
        // A restore reloads exactly the stateful tasks: the window
        // operator's subtasks at the parallelism its deploy chose.
        let parallelism = parsed
            .records
            .iter()
            .find_map(|r| match r {
                DecisionRecord::Prepare {
                    epoch, parallelism, ..
                } if *epoch == wave.epoch => Some(parallelism.clone()),
                _ => None,
            })
            .expect("restore wave without a matching prepare");
        assert_eq!(wave.tasks_moved, parallelism[2]);
    }
    let sum: f64 = whole.migration_waves.iter().map(|w| w.downtime).sum();
    assert_eq!(whole.downtime(), sum);
    // The recovery restore completed after the crash at t=60.
    assert!(whole.migration_waves[1].completed_at > 60.0);
}
