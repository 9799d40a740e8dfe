//! Determinism golden test: a fixed seed and a fixed query must produce
//! a byte-identical placement plan and cost JSON —
//!
//! * across repeated runs in the same process,
//! * across `--test-threads=1` vs the default parallel test harness
//!   (no global state: each run below is self-contained),
//! * across debug vs release (`scripts/ci.sh` runs the suite in both
//!   profiles; all arithmetic is plain `f64` ops in fixed order),
//! * and across commits, via the golden file under `tests/golden/`.
//!
//! If a change intentionally alters placement results, regenerate with:
//!
//! ```text
//! cargo run --bin capsys-cli -- plan tests/golden/q1_spec.json \
//!     > tests/golden/q1_caps_plan.json
//! ```
//!
//! The seeded generators get the same cross-commit check: the `{:?}` of
//! [`FaultPlan::generate`] and [`WorkloadEngine::generate`] at a few
//! seeds is pinned in `tests/golden/generated_faults_and_programs.txt`.
//! If a change intentionally alters a generated schedule, regenerate
//! with:
//!
//! ```text
//! CAPSYS_BLESS=1 cargo test --test golden_determinism
//! ```

use std::fmt::Write as _;

use capsys::model::OperatorId;
use capsys::sim::{ChaosConfig, FaultPlan, WorkloadConfig, WorkloadEngine};
use capsys::spec::DeploymentSpec;
use capsys_util::json::{Json, ToJson};

/// The pinned deployment spec (also stored at `tests/golden/q1_spec.json`
/// so the CLI can regenerate the golden file).
const SPEC: &str = include_str!("golden/q1_spec.json");

/// The expected pretty-printed outcome JSON.
const GOLDEN: &str = include_str!("golden/q1_caps_plan.json");

fn run_outcome_json() -> String {
    let spec = DeploymentSpec::from_json(SPEC).expect("golden spec parses");
    let outcome = spec.run().expect("golden spec runs");
    outcome.to_json().to_pretty()
}

#[test]
fn fixed_seed_plan_is_byte_identical_across_runs() {
    let first = run_outcome_json();
    let second = run_outcome_json();
    assert_eq!(first, second, "same-process runs diverged");
}

#[test]
fn fixed_seed_plan_matches_committed_golden() {
    let got = run_outcome_json();
    // The golden file ends with a newline (shell redirect); the encoder
    // output does not. Compare trimmed-of-trailing-newline bytes.
    assert_eq!(
        got.trim_end_matches('\n'),
        GOLDEN.trim_end_matches('\n'),
        "placement plan or cost JSON changed; if intentional, regenerate \
         tests/golden/q1_caps_plan.json (see module docs)"
    );
}

#[test]
fn golden_file_is_valid_json_with_expected_shape() {
    let v = Json::parse(GOLDEN).expect("golden parses");
    assert_eq!(v.get("query").unwrap().as_str(), Some("Q1-sliding"));
    assert_eq!(v.get("assignment").unwrap().as_array().unwrap().len(), 16);
    let cost = v.get("cost").unwrap().as_array().unwrap();
    assert_eq!(cost.len(), 3);
    for c in cost {
        let c = c.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&c), "cost component {c} out of range");
    }
}

#[test]
fn simulation_is_deterministic_for_fixed_seed() {
    let simulate = |secs: f64| {
        let mut spec = DeploymentSpec::from_json(SPEC).expect("spec parses");
        spec.simulate_secs = secs;
        let outcome = spec.run().expect("spec runs");
        outcome.to_json().to_string()
    };
    assert_eq!(simulate(30.0), simulate(30.0), "seeded simulation diverged");
}

const GENERATED_PATH: &str = "tests/golden/generated_faults_and_programs.txt";
const GENERATED: &str = include_str!("golden/generated_faults_and_programs.txt");

/// Every generated fault plan and rate program of the golden, one line
/// each: the default configs and configs with every class turned on, at
/// three seeds.
fn generated_schedules() -> String {
    let chaos = [
        ("default", ChaosConfig::default()),
        (
            "every-class",
            ChaosConfig {
                crashes: 2,
                stragglers: 2,
                blackouts: 2,
                metric_noise: 0.1,
                controller_kills: 1,
                model_skews: 1,
                ..ChaosConfig::default()
            },
        ),
    ];
    let workload = [
        ("default", WorkloadConfig::default()),
        (
            "every-class",
            WorkloadConfig {
                diurnal_amplitude: (0.2, 0.4),
                flashes: 2,
                growth_per_sec: (0.5, 2.0),
                ..WorkloadConfig::default()
            },
        ),
    ];
    let sources: Vec<OperatorId> = (0..3).map(OperatorId).collect();
    let mut out = String::new();
    for seed in [7, 11, 23] {
        for (name, config) in &chaos {
            let config = ChaosConfig {
                seed,
                ..config.clone()
            };
            let plan = FaultPlan::generate(&config, 6).expect("chaos config generates");
            writeln!(out, "faults {name} seed {seed}: {plan:?}").unwrap();
        }
        for (name, config) in &workload {
            let config = WorkloadConfig {
                seed,
                ..config.clone()
            };
            let programs = WorkloadEngine::new(config)
                .and_then(|e| e.generate(&sources))
                .expect("workload config generates");
            writeln!(out, "programs {name} seed {seed}: {programs:?}").unwrap();
        }
    }
    out
}

#[test]
fn generated_schedules_match_committed_golden() {
    let got = generated_schedules();
    if std::env::var_os("CAPSYS_BLESS").is_some() {
        std::fs::write(GENERATED_PATH, &got).expect("golden file is writable");
        return;
    }
    assert!(
        got == GENERATED,
        "a generated fault plan or rate program changed; if intentional, \
         regenerate {GENERATED_PATH} (see module docs)"
    );
}
