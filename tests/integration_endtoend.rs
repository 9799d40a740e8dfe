//! Integration: CAPS beats random placement in end-to-end simulation,
//! and the closed loop converges — the paper's headline claims in
//! miniature.

use capsys::controller::ClosedLoop;
use capsys::ds2::Ds2Config;
use capsys::model::{Cluster, RateSchedule, WorkerSpec};
use capsys::placement::{CapsStrategy, FlinkDefault, PlacementContext, PlacementStrategy};
use capsys::queries::{q1_sliding, q3_inf};
use capsys::sim::{SimConfig, Simulation};
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;

#[test]
fn caps_throughput_dominates_random_average() {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap();
    let physical = query.physical();
    let rate = query.capacity_rate(&cluster, 0.92).unwrap();
    let loads = query.load_model_at(&physical, rate).unwrap();
    let ctx = PlacementContext {
        logical: query.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };

    let run = |plan: &capsys::model::Placement, seed: u64| {
        let schedules = query.schedules(rate);
        let mut sim = Simulation::new(
            query.logical(),
            &physical,
            &cluster,
            plan,
            &schedules,
            SimConfig {
                duration: 60.0,
                warmup: 15.0,
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run().avg_throughput
    };

    let mut rng = SmallRng::seed_from_u64(0);
    let caps_plan = CapsStrategy::default().place(&ctx, &mut rng).unwrap();
    let caps_tp = run(&caps_plan, 1);

    let mut random_tps = Vec::new();
    for seed in 0..8 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = FlinkDefault.place(&ctx, &mut rng).unwrap();
        random_tps.push(run(&plan, seed + 10));
    }
    let random_avg: f64 = random_tps.iter().sum::<f64>() / random_tps.len() as f64;
    assert!(
        caps_tp > random_avg,
        "CAPS {caps_tp:.0} should beat the random average {random_avg:.0}"
    );
    // CAPS should essentially hit the target (it is achievable: 3 of 80
    // plans meet it).
    assert!(
        caps_tp >= 0.95 * rate,
        "CAPS reached only {caps_tp:.0} of {rate:.0}"
    );
}

#[test]
fn closed_loop_with_caps_converges_and_tracks_rate_changes() {
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(8)).unwrap();
    let query = q3_inf().with_parallelism(&[1, 1, 1, 1, 1]).unwrap();
    let schedule = RateSchedule::Steps(vec![(0.0, 900.0), (200.0, 1800.0)]);
    let strategy = CapsStrategy::default();
    let loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        Ds2Config {
            activation_period: 30.0,
            policy_interval: 5.0,
            ..Ds2Config::default()
        },
        SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        },
        schedule,
        5,
    )
    .unwrap();
    let trace = loop_.run(400.0).unwrap();
    assert!(
        trace.num_scalings() >= 2,
        "must scale for the ramp and the step"
    );
    // Both phases tracked in their second halves.
    let early = trace.avg_throughput(120.0, 200.0);
    assert!(early >= 0.9 * 900.0, "phase 1 throughput {early:.0}");
    let late = trace.avg_throughput(320.0, 400.0);
    assert!(late >= 0.9 * 1800.0, "phase 2 throughput {late:.0}");
    // No runaway over-provisioning: inference needs ~5 tasks at 1800.
    let final_tasks: usize = trace.final_parallelism.iter().sum();
    assert!(
        final_tasks <= 16,
        "over-provisioned: {:?}",
        trace.final_parallelism
    );
}
