//! Integration: worker failure, detection, and CAPS-based recovery.
//!
//! Not an experiment from the paper, but the scenario an *adaptive*
//! resource controller exists for: a worker dies, throughput collapses,
//! and the controller re-places the job on the surviving workers using
//! the `free_slots` search extension. The closed-loop crash scenario is
//! the recovery claim's (`capsys_bench::claims::recovery::crash`); its
//! same-seed replay is checked byte for byte by `tests/claims.rs`.

use std::time::Duration;

use capsys::caps::{CapsSearch, SearchConfig};
use capsys::controller::{LadderRung, RecoveryConfig};
use capsys::model::{Cluster, WorkerId, WorkerSpec};
use capsys::placement::{CapsStrategy, PlacementContext, PlacementStrategy};
use capsys::queries::q1_sliding;
use capsys::sim::{SimConfig, Simulation};
use capsys_bench::claims::{recovery, Scenario};
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

#[test]
fn closed_loop_detects_crash_and_recovers_throughput() {
    // The worker hosting task 0 crashes at t=60s; recovery is armed.
    let scenario = recovery::crash(7, 300.0).unwrap();
    let victim = scenario.task0_worker().unwrap();
    let trace = scenario.run().expect("closed loop survives a worker crash");

    // The detector declared exactly the crashed worker down and the
    // ladder's first rung (full CAPS) re-placed the job on its first
    // plan.
    assert_eq!(trace.recovery_events.len(), 1, "expected one recovery");
    let ev = &trace.recovery_events[0];
    assert_eq!(ev.worker, victim);
    assert!(
        ev.detected_at > 60.0 && ev.detected_at <= 90.0,
        "detection at {} outside (60, 90]",
        ev.detected_at
    );
    assert_eq!(ev.plans_tried, 1);
    assert_eq!(ev.rung, LadderRung::Caps);
    // With miss_threshold 2 and 5s windows, declaration trails the
    // first silent heartbeat by one window.
    assert!(ev.detection_lag > 0.0, "no detection lag recorded");
    assert!(ev.time_to_recover >= ev.detection_lag);
    assert_eq!(trace.mttr(), Some(ev.time_to_recover));

    // After recovery settles the job tracks >= 95% of its target on
    // the surviving workers.
    let from = ev.recovered_at + 60.0;
    let tp = trace.avg_throughput(from, 300.0);
    let tgt = trace.avg_target(from, 300.0);
    assert!(
        tp >= 0.95 * tgt,
        "post-recovery throughput {tp} below 95% of target {tgt}"
    );
    // The outage itself was visible: some throughput was lost.
    assert!(trace.throughput_loss_area(60.0, ev.recovered_at + 30.0) > 0.0);
    // Without state-transfer charging, recovery moves no state.
    assert!(trace.migration_waves.is_empty());
    assert_eq!(trace.downtime(), 0.0);
    assert_eq!(trace.bytes_moved(), 0);
}

#[test]
fn zero_search_budget_degrades_to_round_robin() {
    // A recovery policy whose CAPS rungs get no time at all must fall
    // through to the round-robin rung, never error.
    let scenario = Scenario {
        recovery: Some(RecoveryConfig {
            search: SearchConfig {
                time_budget: Some(Duration::ZERO),
                ..SearchConfig::auto_tuned()
            },
        }),
        ..recovery::crash(7, 300.0).unwrap()
    };
    let trace = scenario.run().unwrap();
    assert_eq!(trace.recovery_events.len(), 1);
    let ev = &trace.recovery_events[0];
    assert_eq!(ev.worker, scenario.task0_worker().unwrap());
    assert_eq!(ev.rung, LadderRung::RoundRobin);
    // Even the degraded plan keeps the job alive.
    let tp = trace.avg_throughput(ev.recovered_at + 60.0, 300.0);
    assert!(tp > 0.0, "round-robin recovery produced no throughput");
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
