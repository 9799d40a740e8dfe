//! End-to-end durability through the public `capsys` API: a controller
//! killed mid-run recovers from its write-ahead journal to a
//! byte-identical trace, and a superseded (zombie) controller is fenced.

use capsys::controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, RecoveryConfig,
};
use capsys::ds2::Ds2Config;
use capsys::placement::CapsStrategy;
use capsys::prelude::*;
use capsys::sim::{EpochFence, FaultEvent, FaultKind, FaultPlan, KillPoint};

fn ds2() -> Ds2Config {
    Ds2Config {
        activation_period: 60.0,
        policy_interval: 5.0,
        max_parallelism: 8,
        headroom: 1.0,
    }
}

fn sim() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

/// Runs the crash scenario (worker hosting task 0 dies at t=60s) with a
/// journal and an optional controller kill.
fn run_scenario(kill: Option<KillPoint>) -> (Result<ClosedLoopTrace, ControllerError>, String) {
    let query = capsys::queries::q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
    let rate = query.capacity_rate(&cluster, 0.5).unwrap();
    let strategy = CapsStrategy::default();
    let loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        ds2(),
        sim(),
        RateSchedule::Constant(rate),
        7,
    )
    .unwrap();
    let victim = loop_.placement().worker_of(TaskId(0));
    let mut plan = FaultPlan::new(vec![FaultEvent {
        time: 60.0,
        kind: FaultKind::Crash(victim),
    }])
    .unwrap();
    if let Some(k) = kill {
        plan = plan.with_controller_kill(k).unwrap();
    }
    let (journal, buf) = DecisionJournal::in_memory();
    let result = loop_
        .with_fault_plan(plan)
        .unwrap()
        .with_recovery(RecoveryConfig::default())
        .with_journal(journal)
        .unwrap()
        .run(240.0);
    (result, buf.text())
}

fn recover_scenario(journal_text: &str) -> (ClosedLoopTrace, String) {
    let query = capsys::queries::q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
    let rate = query.capacity_rate(&cluster, 0.5).unwrap();
    let strategy = CapsStrategy::default();
    let loop_ = ClosedLoop::recover_from_journal(
        &query,
        &cluster,
        &strategy,
        ds2(),
        sim(),
        RateSchedule::Constant(rate),
        journal_text,
    )
    .unwrap();
    let victim = loop_.placement().worker_of(TaskId(0));
    let plan = FaultPlan::new(vec![FaultEvent {
        time: 60.0,
        kind: FaultKind::Crash(victim),
    }])
    .unwrap();
    let (journal, buf) = DecisionJournal::in_memory();
    let trace = loop_
        .with_fault_plan(plan)
        .unwrap()
        .with_recovery(RecoveryConfig::default())
        .with_journal(journal)
        .unwrap()
        .run(240.0)
        .unwrap();
    (trace, buf.text())
}

#[test]
fn killed_controller_recovers_exactly_via_public_api() {
    let (baseline, golden_journal) = run_scenario(None);
    let golden = baseline.unwrap().to_json().to_string();
    let records = golden_journal.lines().count() as u64;
    assert!(records >= 3, "scenario journaled too little ({records})");
    // Kill after the second record — in this scenario that is inside the
    // first reconfiguration's two-phase window.
    let (killed, partial) = run_scenario(Some(KillPoint::AfterRecord(1)));
    assert!(
        matches!(killed, Err(ControllerError::ControllerKilled { .. })),
        "kill did not fire"
    );
    assert!(partial.lines().count() < golden_journal.lines().count());
    let (trace, rewritten) = recover_scenario(&partial);
    assert_eq!(
        trace.to_json().to_string(),
        golden,
        "recovered trace diverged"
    );
    assert_eq!(rewritten, golden_journal, "recovered journal diverged");
}

#[test]
fn zombie_controller_is_fenced_via_public_api() {
    let query = capsys::queries::q1_sliding()
        .with_parallelism(&[1, 1, 1, 1])
        .unwrap();
    let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap();
    let rate = capsys::queries::q1_sliding()
        .capacity_rate(&cluster, 0.5)
        .unwrap();
    let strategy = CapsStrategy::default();
    let fence = EpochFence::new();
    let build = || {
        ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            Ds2Config {
                activation_period: 20.0,
                ..ds2()
            },
            sim(),
            RateSchedule::Constant(rate),
            7,
        )
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
