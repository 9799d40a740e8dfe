//! Simulator golden test: a fixed two-source deployment driven through a
//! worker crash, a network partition, and a state transfer must produce
//! a byte-identical [`SimulationReport`] sequence, checked against the
//! golden file under `tests/golden/`.
//!
//! Every float is written with `{:?}`, which prints the shortest string
//! that parses back to the same bits, so a one-ulp change anywhere in
//! the engine's arithmetic shows up as a diff.
//!
//! If a change intentionally alters simulator output, regenerate with:
//!
//! ```text
//! CAPSYS_BLESS=1 cargo test --test sim_golden
//! ```

use std::fmt::Write as _;

use capsys::model::{
    Cluster, OperatorId, Placement, RateProgram, RateSchedule, WorkerId, WorkerSpec,
};
use capsys::sim::{
    FaultEvent, FaultKind, FaultPlan, SimConfig, Simulation, SimulationReport, TaskTransfer,
};

const GOLDEN_PATH: &str = "tests/golden/q8_sim_report.txt";
const GOLDEN: &str = include_str!("golden/q8_sim_report.txt");

/// Nexmark Q8 (two sources, a stateful join) on 4 × r5d.xlarge under a
/// drifting, diurnal rate program; crash, partition and a join-task
/// migration overlap the run.
fn run_scenario() -> String {
    let query = capsys::queries::q2_join();
    let physical = query.physical();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let placement = Placement::new((0..physical.num_tasks()).map(|i| WorkerId(i % 4)).collect());
    let shape = RateSchedule::Program(RateProgram {
        base: 90_000.0,
        growth_per_sec: 800.0,
        diurnal_amplitude: 0.3,
        diurnal_period: 13.7,
        ..RateProgram::constant(0.0, 100.0)
    });
    let config = SimConfig::default().with_noise(0.05, 7);
    let mut sim = Simulation::new(
        query.logical(),
        &physical,
        &cluster,
        &placement,
        &query.schedules_from(&shape),
        config,
    )
    .expect("golden deployment is valid");
    let ev = |time, kind| FaultEvent { time, kind };
    let plan = FaultPlan::new(vec![
        ev(12.0, FaultKind::Crash(WorkerId(2))),
        ev(20.0, FaultKind::Restore(WorkerId(2))),
        ev(30.0, FaultKind::PartitionStart(WorkerId(1))),
        ev(38.0, FaultKind::PartitionEnd(WorkerId(1))),
    ])
    .and_then(|p| p.with_metric_noise(0.02))
    .expect("valid fault plan");
    sim.install_faults(plan).expect("plan fits the cluster");

    let mut out = String::new();
    // Each window ends inside a fault: the crash, then the partition.
    let first = sim.advance(15.0, 5.0);
    write_report(&mut out, "a", &first);
    // Move one join task (task 9, on worker 1) to worker 3; the
    // partition of worker 1 stalls the drain part-way through.
    sim.begin_state_transfer(
        &[TaskTransfer {
            task: 9,
            to: 3,
            bytes: 6e9,
        }],
        false,
    )
    .expect("valid transfer");
    let second = sim.advance(20.0, 0.0);
    write_report(&mut out, "b", &second);
    let third = sim.advance(25.0, 0.0);
    write_report(&mut out, "c", &third);
    writeln!(out, "time {:?}", sim.time()).unwrap();
    writeln!(out, "total_admitted {:?}", sim.total_admitted()).unwrap();
    writeln!(out, "total_sunk {:?}", sim.total_sunk()).unwrap();
    writeln!(out, "paused_task_seconds {:?}", sim.paused_task_seconds()).unwrap();
    writeln!(out, "task_workers {:?}", sim.task_workers()).unwrap();
    writeln!(out, "queues {:?}", sim.queue_occupancies()).unwrap();
    out
}

fn write_report(out: &mut String, tag: &str, r: &SimulationReport) {
    for (k, p) in r.points.iter().enumerate() {
        writeln!(
            out,
            "{tag}.point[{k}] time {:?} throughput {:?} target {:?} backpressure {:?} latency {:?}",
            p.time, p.source_throughput, p.target_rate, p.backpressure, p.latency
        )
        .unwrap();
        writeln!(out, "{tag}.point[{k}] cpu {:?}", p.worker_cpu_util).unwrap();
        writeln!(out, "{tag}.point[{k}] io {:?}", p.worker_io_util).unwrap();
        writeln!(out, "{tag}.point[{k}] net {:?}", p.worker_net_util).unwrap();
    }
    writeln!(
        out,
        "{tag} avg throughput {:?} target {:?} backpressure {:?} latency {:?}",
        r.avg_throughput, r.avg_target, r.avg_backpressure, r.avg_latency
    )
    .unwrap();
    writeln!(out, "{tag} cpu {:?}", r.worker_cpu_util).unwrap();
    writeln!(out, "{tag} io {:?}", r.worker_io_util).unwrap();
    writeln!(out, "{tag} net {:?}", r.worker_net_util).unwrap();
    let mut sources: Vec<(&OperatorId, _)> = r.per_source.iter().collect();
    sources.sort_by_key(|(op, _)| op.0);
    for (op, s) in sources {
        writeln!(
            out,
            "{tag}.source[{}] throughput {:?} target {:?} backpressure {:?}",
            op.0, s.throughput, s.target, s.backpressure
        )
        .unwrap();
    }
    for (i, t) in r.task_rates.iter().enumerate() {
        writeln!(
            out,
            "{tag}.task[{i}] observed {:?} true {:?} observed_out {:?} true_out {:?} busy {:?}",
            t.observed_rate,
            t.true_rate,
            t.observed_output_rate,
            t.true_output_rate,
            t.busy_fraction
        )
        .unwrap();
    }
    writeln!(out, "{tag} alive {:?}", r.worker_alive).unwrap();
    writeln!(out, "{tag} activity {:?}", r.worker_activity).unwrap();
    writeln!(out, "{tag} metrics_ok {}", r.metrics_ok).unwrap();
}

#[test]
fn simulation_report_matches_committed_golden() {
    let got = run_scenario();
    if std::env::var_os("CAPSYS_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("golden file is writable");
        return;
    }
    assert!(
        got == GOLDEN,
        "simulator output changed; if intentional, regenerate {GOLDEN_PATH} (see module docs)"
    );
}

#[test]
fn golden_scenario_exercises_every_fault() {
    let got = run_scenario();
    assert!(
        got.contains("alive [true, true, false, true]"),
        "crash observed"
    );
    assert!(
        got.contains("alive [true, false, true, true]"),
        "partition observed"
    );
    let moved = got
        .lines()
        .find_map(|l| l.strip_prefix("task_workers "))
        .expect("task_workers line");
    assert!(
        moved.starts_with("[0, 1, 2, 3, 0, 1, 2, 3, 0, 3,"),
        "task 9 moved: {moved}"
    );
}
