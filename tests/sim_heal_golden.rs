//! Simulator golden test for a partition that heals: a fan-out
//! deployment whose source feeds three operators with different
//! per-channel shares (rebalance, hash and broadcast) runs overloaded,
//! so queues fill and every producer's output limit binds. Two workers
//! are partitioned in turn and healed, and the simulation keeps ticking
//! after each heal. The [`SimulationReport`] sequence must match the
//! golden file under `tests/golden/` byte for byte.
//!
//! Every float is written with `{:?}`, which prints the shortest string
//! that parses back to the same bits, so a one-ulp change in the
//! engine's channel arithmetic shows up as a diff.
//!
//! If a change intentionally alters simulator output, regenerate with:
//!
//! ```text
//! CAPSYS_BLESS=1 cargo test --test sim_heal_golden
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use capsys::model::{
    Cluster, ConnectionPattern, LogicalGraph, OperatorKind, Placement, RateProgram, RateSchedule,
    ResourceProfile, WorkerId, WorkerSpec,
};
use capsys::queries::Query;
use capsys::sim::{FaultEvent, FaultKind, FaultPlan, SimConfig, Simulation, SimulationReport};

const GOLDEN_PATH: &str = "tests/golden/fanout_heal_sim_report.txt";
const GOLDEN: &str = include_str!("golden/fanout_heal_sim_report.txt");

/// Source (4) fanning out to parse (3, rebalance), enrich (5, hash) and
/// rules (2, broadcast); parse and enrich meet in a join (3), and join
/// and rules drain into one sink.
fn fanout_query() -> Query {
    let mut b = LogicalGraph::builder("fanout");
    let profile = ResourceProfile::new;
    let src = b.operator(
        "source",
        OperatorKind::Source,
        4,
        profile(1e-5, 0.0, 200.0, 1.0),
    );
    let parse = b.operator(
        "parse",
        OperatorKind::Stateless,
        3,
        profile(8e-5, 0.0, 150.0, 1.5),
    );
    let enrich = b.operator(
        "enrich",
        OperatorKind::Stateless,
        5,
        profile(1.2e-4, 0.0, 300.0, 0.8),
    );
    let rules = b.operator(
        "rules",
        OperatorKind::Process,
        2,
        profile(3e-5, 50.0, 40.0, 0.1),
    );
    let join = b.operator(
        "join",
        OperatorKind::Join,
        3,
        profile(2e-4, 400.0, 120.0, 0.5),
    );
    let sink = b.operator("sink", OperatorKind::Sink, 1, profile(1e-5, 0.0, 0.0, 1.0));
    b.edge(src, parse, ConnectionPattern::Rebalance);
    b.edge(src, enrich, ConnectionPattern::Hash);
    b.edge(src, rules, ConnectionPattern::Broadcast);
    b.edge(parse, join, ConnectionPattern::Hash);
    b.edge(enrich, join, ConnectionPattern::Hash);
    b.edge(join, sink, ConnectionPattern::Rebalance);
    b.edge(rules, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("the fan-out graph is valid");
    Query::new(g, HashMap::from([(src, 1.0)])).expect("the source mix is valid")
}

/// The fan-out query on 3 × r5d.xlarge, round-robin placed, under a
/// growing rate beyond its capacity; worker 1 is partitioned over
/// [6, 11) s and worker 2 over [15, 17) s.
fn run_scenario() -> String {
    let query = fanout_query();
    let physical = query.physical();
    let cluster = Cluster::homogeneous(3, WorkerSpec::r5d_xlarge(6)).expect("valid cluster");
    let placement = Placement::new((0..physical.num_tasks()).map(|i| WorkerId(i % 3)).collect());
    let shape = RateSchedule::Program(RateProgram {
        base: 40_000.0,
        growth_per_sec: 1_500.0,
        ..RateProgram::constant(0.0, 100.0)
    });
    let config = SimConfig::default().with_noise(0.05, 11);
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
        ev(6.0, FaultKind::PartitionStart(WorkerId(1))),
        ev(11.0, FaultKind::PartitionEnd(WorkerId(1))),
        ev(15.0, FaultKind::PartitionStart(WorkerId(2))),
        ev(17.0, FaultKind::PartitionEnd(WorkerId(2))),
    ])
    .and_then(|p| p.with_metric_noise(0.02))
    .expect("valid fault plan");
    sim.install_faults(plan).expect("plan fits the cluster");

    let mut out = String::new();
    // The first window ends inside the first partition, the second
    // spans its heal and ends inside the second one, and the third
    // heals that one and runs on.
    for (tag, secs, warmup) in [("a", 8.0, 2.0), ("b", 8.0, 0.0), ("c", 9.0, 0.0)] {
        let report = sim.advance(secs, warmup);
        write_report(&mut out, tag, &report);
        writeln!(out, "{tag} queues {:?}", sim.queue_occupancies()).unwrap();
    }
    writeln!(out, "time {:?}", sim.time()).unwrap();
    writeln!(out, "total_admitted {:?}", sim.total_admitted()).unwrap();
    writeln!(out, "total_sunk {:?}", sim.total_sunk()).unwrap();
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
        writeln!(
            out,
            "{tag}.point[{k}] cpu {:?} io {:?} net {:?}",
            p.worker_cpu_util, p.worker_io_util, p.worker_net_util
        )
        .unwrap();
    }
    writeln!(
        out,
        "{tag} avg throughput {:?} target {:?} backpressure {:?} latency {:?}",
        r.avg_throughput, r.avg_target, r.avg_backpressure, r.avg_latency
    )
    .unwrap();
    writeln!(
        out,
        "{tag} cpu {:?} io {:?} net {:?}",
        r.worker_cpu_util, r.worker_io_util, r.worker_net_util
    )
    .unwrap();
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
    writeln!(
        out,
        "{tag} alive {:?} activity {:?} metrics_ok {}",
        r.worker_alive, r.worker_activity, r.metrics_ok
    )
    .unwrap();
}

#[test]
fn healed_partition_report_matches_committed_golden() {
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
fn golden_scenario_partitions_heals_and_backpressures() {
    let got = run_scenario();
    for seen in [
        "alive [true, false, true]",
        "alive [true, true, false]",
        "c alive [true, true, true]",
    ] {
        assert!(got.contains(seen), "missing `{seen}`");
    }
    let backpressured = got
        .lines()
        .filter_map(|l| l.split(" backpressure ").nth(1))
        .filter_map(|rest| rest.split(' ').next()?.parse::<f64>().ok())
        .any(|bp| bp > 0.5);
    assert!(backpressured, "the source never backpressured");
}
