//! Table 4: effect of task placement on auto-scaling accuracy.
//!
//! A controlled §6.4.1 experiment on Q3-inf: the input rate changes four
//! times (2x up, 2x up, 2x down, 2x down) and after each change DS2 makes
//! one scaling decision from metrics measured under the *current*
//! placement strategy. A ✓ in *Throughput* means the reconfigured job
//! met the target rate; a ✓ in *Resources* means DS2 did not
//! over-provision (its slot count is within one task per operator of the
//! ground-truth minimum).
//!
//! Paper reference: CAPSys is ✓✓ at every step; `default` and `evenly`
//! miss targets and over-provision once contention corrupts the metrics.

use std::collections::HashMap;

use capsys_bench::{banner, fmt_rate, measure_config};
use capsys_ds2::{Ds2Config, Ds2Controller};
use capsys_model::{Cluster, WorkerSpec};
use capsys_placement::{
    CapsStrategy, FlinkDefault, FlinkEvenly, PlacementContext, PlacementStrategy,
};
use capsys_queries::{q3_inf, Query};
use capsys_sim::Simulation;
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;

/// Ground-truth minimal parallelism to sustain `rate`, from the true
/// profiles (one core per task).
fn minimal_parallelism(query: &Query, rate: f64) -> Vec<usize> {
    let ds2 = Ds2Controller::new(Ds2Config {
        max_parallelism: 64,
        ..Ds2Config::default()
    });
    let op_rates: Vec<f64> = query
        .logical()
        .operators()
        .iter()
        .map(|o| capsys_controller::controller::true_rate_from_profile(&o.profile))
        .collect();
    let physical = query.physical();
    ds2.decide_from_op_rates(
        query.logical(),
        &physical,
        &op_rates,
        &query.source_rates(rate),
    )
    .expect("ground truth decision")
    .parallelism
}

fn main() {
    banner(
        "Table 4",
        "task placement vs. auto-scaling accuracy",
        "§6.4.1, Table 4",
    );

    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(8)).expect("cluster");
    let base_rate = 720.0;
    let rates = [1440.0, 2880.0, 1440.0, 720.0];
    println!(
        "Q3-inf on 6x r5d.xlarge (8 slots); rate steps: {} -> {:?} rec/s\n",
        fmt_rate(base_rate),
        rates.map(|r| r as i64)
    );

    let caps = CapsStrategy::default();
    let strategies: [(&str, &dyn PlacementStrategy); 3] = [
        ("CAPSys", &caps),
        ("Default", &FlinkDefault),
        ("Evenly", &FlinkEvenly),
    ];

    let header = format!(
        "{:<9} {}",
        "policy",
        (1..=4)
            .map(|i| format!("| step {i}: tput res "))
            .collect::<Vec<_>>()
            .join("")
    );
    println!("{header}");
    capsys_bench::rule(&header);

    for (name, strategy) in strategies {
        // Start from the optimal configuration at the base rate, as the
        // paper manually tunes the starting point.
        let mut query = q3_inf()
            .with_parallelism(&minimal_parallelism(&q3_inf(), base_rate))
            .expect("parallelism");
        let ds2 = Ds2Controller::new(Ds2Config {
            max_parallelism: 16,
            ..Ds2Config::default()
        });
        let mut row = format!("{name:<9}");
        let mut rng = SmallRng::seed_from_u64(11);

        // Deploy the starting configuration with the optimal (CAPS) plan
        // for everyone, so all strategies begin with clean metrics.
        let mut physical = query.physical();
        let mut loads = query.load_model_at(&physical, base_rate).expect("loads");
        let mut plan = CapsStrategy::default()
            .place(
                &PlacementContext {
                    logical: query.logical(),
                    physical: &physical,
                    cluster: &cluster,
                    loads: &loads,
                },
                &mut rng,
            )
            .expect("initial plan");

        for (step, &next_rate) in rates.iter().enumerate() {
            // Measure under the current deployment at the *new* rate.
            let schedules = query.schedules(next_rate);
            let mut sim = Simulation::new(
                query.logical(),
                &physical,
                &cluster,
                &plan,
                &schedules,
                measure_config(step as u64),
            )
            .expect("deployment valid");
            let report = sim.run();

            // DS2 decision from the measured metrics.
            let targets: HashMap<_, _> = query.source_rates(next_rate);
            let decision = ds2
                .decide(query.logical(), &physical, &report.task_rates, &targets)
                .expect("decision");

            // Apply: new parallelism, new placement by this strategy.
            query = query
                .with_parallelism(&decision.parallelism)
                .expect("parallelism");
            physical = query.physical();
            loads = query.load_model_at(&physical, next_rate).expect("loads");
            plan = strategy
                .place(
                    &PlacementContext {
                        logical: query.logical(),
                        physical: &physical,
                        cluster: &cluster,
                        loads: &loads,
                    },
                    &mut rng,
                )
                .expect("replacement");

            // Evaluate the reconfigured deployment.
            let schedules = query.schedules(next_rate);
            let mut sim = Simulation::new(
                query.logical(),
                &physical,
                &cluster,
                &plan,
                &schedules,
                measure_config(step as u64 + 40),
            )
            .expect("deployment valid");
            let verdict = sim.run();

            let meets = verdict.meets_target(0.95);
            let minimal: usize = minimal_parallelism(&q3_inf(), next_rate).iter().sum();
            let used: usize = decision.parallelism.iter().sum();
            // Allow one extra task per operator before calling it
            // over-provisioned.
            let slack = query.logical().num_operators();
            let lean = used <= minimal + slack;
            row.push_str(&format!(
                "|        {}    {}   ",
                if meets { "Y" } else { "x" },
                if lean { "Y" } else { "x" }
            ));
        }
        println!("{row}");
    }

    println!("\n(Y = met target / minimal resources, x = missed / over-provisioned;");
    println!(" paper Table 4: CAPSys YY at all 4 steps, Default and Evenly degrade");
    println!(" once poor placements corrupt DS2's true-rate metrics)");
}
