//! Integration: worker failure, detection, and CAPS-based recovery.
//!
//! Not an experiment from the paper, but the scenario an *adaptive*
//! resource controller exists for: a worker dies, throughput collapses,
//! and the controller re-places the job on the surviving workers using
//! the `free_slots` search extension.

use capsys::caps::{CapsSearch, SearchConfig};
use capsys::controller::{ClosedLoop, ClosedLoopTrace, LadderRung, RecoveryConfig};
use capsys::ds2::Ds2Config;
use capsys::model::{Cluster, RateSchedule, WorkerId, WorkerSpec};
use capsys::placement::{CapsStrategy, PlacementContext, PlacementStrategy};
use capsys::queries::q1_sliding;
use capsys::sim::{FaultEvent, FaultKind, FaultPlan, SimConfig, Simulation};
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;

#[test]
fn caps_replacement_recovers_from_worker_failure() {
    // 6 workers, 16 tasks: enough slack to survive losing one worker.
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
    let query = q1_sliding();
    let physical = query.physical();
    let rate = query.capacity_rate(&cluster, 0.55).unwrap();
    let loads = query.load_model_at(&physical, rate).unwrap();

    // Initial CAPS deployment.
    let ctx = PlacementContext {
        logical: query.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let plan = CapsStrategy::default().place(&ctx, &mut rng).unwrap();
    let schedules = query.schedules(rate);
    let mut sim = Simulation::new(
        query.logical(),
        &physical,
        &cluster,
        &plan,
        &schedules,
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let healthy = sim.advance(30.0, 10.0);
    assert!(healthy.meets_target(0.95), "healthy run below target");

    // A worker hosting at least one task dies.
    let victim = WorkerId(plan.worker_of(capsys::model::TaskId(0)).0);
    sim.fail_worker(victim);
    let degraded = sim.advance(30.0, 5.0);
    assert!(
        degraded.avg_throughput < 0.9 * rate || degraded.avg_backpressure > 0.3,
        "failure had no visible effect: tput {} bp {}",
        degraded.avg_throughput,
        degraded.avg_backpressure
    );

    // Recovery: re-place on the survivors (failed worker gets 0 slots).
    let mut free: Vec<usize> = cluster.workers().iter().map(|w| w.spec.slots).collect();
    free[victim.0] = 0;
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).unwrap();
    let outcome = search
        .run(&SearchConfig {
            free_slots: Some(free),
            ..SearchConfig::auto_tuned()
        })
        .unwrap();
    let recovery_plan = outcome
        .best_plan()
        .expect("survivors can host the job")
        .clone();
    recovery_plan.validate(&physical, &cluster).unwrap();
    assert!(
        recovery_plan.tasks_on(victim).is_empty(),
        "recovery plan still uses the failed worker"
    );

    // Redeploy (restart-from-savepoint analogue) with the victim still
    // down and verify the job meets its target again.
    let mut sim2 = Simulation::new(
        query.logical(),
        &physical,
        &cluster,
        &recovery_plan,
        &schedules,
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim2.fail_worker(victim);
    let recovered = sim2.advance(40.0, 10.0);
    assert!(
        recovered.meets_target(0.93),
        "recovery below target: {} of {}",
        recovered.avg_throughput,
        rate
    );
}

/// Runs the self-healing closed loop against a scripted crash of the
/// worker hosting task 0 and returns (victim, target rate, trace).
fn chaos_loop_run(seed: u64) -> (WorkerId, f64, ClosedLoopTrace) {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
    let target = query.capacity_rate(&cluster, 0.5).unwrap();
    let strategy = CapsStrategy::default();
    let loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        Ds2Config {
            activation_period: 60.0,
            policy_interval: 5.0,
            max_parallelism: 8,
            headroom: 1.0,
        },
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
        RateSchedule::Constant(target),
        seed,
    )
    .unwrap();
    // Crash a worker the initial placement actually uses, 60s in.
    let victim = loop_.placement().worker_of(capsys::model::TaskId(0));
    let plan = FaultPlan {
        events: vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }],
        metric_noise: 0.0,
        controller_kill: None,
        model_skew: None,
        decider_faults: vec![],
    };
    let trace = loop_
        .with_fault_plan(plan)
        .unwrap()
        .with_recovery(RecoveryConfig::default())
        .run(300.0)
        .expect("closed loop survives a worker crash");
    (victim, target, trace)
}

#[test]
fn closed_loop_detects_crash_and_recovers_throughput() {
    let (victim, target, trace) = chaos_loop_run(7);

    // The detector declared exactly the crashed worker down and the
    // ladder's first rung (full CAPS) re-placed the job.
    assert_eq!(trace.recovery_events.len(), 1, "expected one recovery");
    let ev = &trace.recovery_events[0];
    assert_eq!(ev.worker, victim);
    assert!(
        ev.detected_at > 60.0 && ev.detected_at <= 90.0,
        "detection at {} outside (60, 90]",
        ev.detected_at
    );
    assert_eq!(ev.rung, LadderRung::Caps);
    assert!(ev.time_to_recover >= ev.detection_lag);

    // After recovery settles the job tracks >= 95% of its target.
    let from = ev.recovered_at + 60.0;
    let tp = trace.avg_throughput(from, 300.0);
    assert!(
        tp >= 0.95 * target,
        "post-recovery throughput {tp} below 95% of {target}"
    );
    // The outage itself was visible: some throughput was lost.
    assert!(trace.throughput_loss_area(0.0, 300.0) > 0.0);
}

#[test]
fn closed_loop_chaos_runs_replay_identically() {
    let (_, _, a) = chaos_loop_run(7);
    let (_, _, b) = chaos_loop_run(7);
    assert_eq!(a.recovery_events, b.recovery_events);
    assert_eq!(a.events, b.events);
    assert_eq!(a.points, b.points);
}

#[test]
fn free_slots_search_never_uses_excluded_workers() {
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(8)).unwrap();
    let query = q1_sliding();
    let physical = query.physical();
    let loads = query.load_model_at(&physical, 8000.0).unwrap();
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).unwrap();
    let outcome = search
        .run(&SearchConfig {
            free_slots: Some(vec![0, 8, 8, 8]),
            max_plans: 128,
            ..SearchConfig::auto_tuned()
        })
        .unwrap();
    assert!(!outcome.feasible.is_empty());
    for scored in &outcome.feasible {
        assert!(scored.plan.tasks_on(WorkerId(0)).is_empty());
    }
}
