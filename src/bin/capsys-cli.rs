//! Command-line interface to the CAPSys reproduction.
//!
//! ```text
//! capsys-cli queries                 list the built-in paper queries
//! capsys-cli plan <spec.json>        place a deployment spec, print JSON
//! capsys-cli simulate <spec.json>    place + simulate, print JSON
//! capsys-cli show <query>            describe a built-in query
//! ```
//!
//! Specs are JSON documents; see [`capsys::spec`] for the format.

use std::process::ExitCode;

use capsys::spec::{builtin_query, DeploymentSpec};

fn usage() -> ExitCode {
    eprintln!(
        "usage: capsys-cli <command> [args]\n\
         \n\
         commands:\n\
         \x20 queries              list built-in queries\n\
         \x20 show <query>         describe a built-in query\n\
         \x20 plan <spec.json>     compute a placement (no simulation)\n\
         \x20 simulate <spec.json> compute a placement and simulate it\n\
         \n\
         spec format: see the `capsys::spec` module documentation"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("queries") => {
            for name in [
                "q1-sliding",
                "q2-join",
                "q3-inf",
                "q4-join",
                "q5-aggregate",
                "q6-session",
            ] {
                let q = builtin_query(name).expect("builtin exists");
                println!(
                    "{name:<14} {} operators, {} tasks",
                    q.logical().num_operators(),
                    q.logical().total_tasks()
                );
            }
            ExitCode::SUCCESS
        }
        Some("show") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            match builtin_query(name) {
                Ok(q) => {
                    println!("{}", q.name());
                    for op in q.logical().operators() {
                        println!(
                            "  {:<18} {:?} p={} cpu={:.1}us/rec state={:.0}B/rec out={:.0}B/rec sel={}",
                            op.name,
                            op.kind,
                            op.parallelism,
                            op.profile.cpu_per_record * 1e6,
                            op.profile.state_bytes_per_record,
                            op.profile.out_bytes_per_record,
                            op.profile.selectivity
                        );
                    }
                    for e in q.logical().edges() {
                        println!(
                            "  {} -> {} ({:?})",
                            q.logical().operator(e.from).name,
                            q.logical().operator(e.to).name,
                            e.pattern
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(cmd @ ("plan" | "simulate")) => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut spec = match DeploymentSpec::from_json(&json) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if cmd == "plan" {
                spec.simulate_secs = 0.0;
            } else if spec.simulate_secs <= 0.0 {
                spec.simulate_secs = 120.0;
            }
            match spec.run() {
                Ok(outcome) => {
                    println!(
                        "{}",
                        capsys_util::json::ToJson::to_json(&outcome).to_pretty()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
