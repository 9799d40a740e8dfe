//! Hostile-workload survival: drift-aware governor A/B, overload
//! shedding, and byte-identical crash recovery under adversarial
//! traffic (not a paper figure). The scenarios and their checks are
//! `capsys_bench::claims::hostile`. Writes `BENCH_hostile.json` at the
//! repository root.
//!
//! Usage: `exp_hostile` (no arguments: the A/B runs seeds
//! 7/11/23/31/47, the regression and overload scenarios seed 7).

use std::time::Instant;

use capsys_bench::claims::{hostile, Shape};
use capsys_bench::{banner, bench_record_path, no_args};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    no_args();
    banner(
        "Hostile",
        "adversarial traffic: governor drift A/B, overload shedding, crash replay",
        "robustness extension (not a paper figure)",
    );
    let o = hostile::run(Shape::Full)?;
    o.print();
    o.check()?;
    let path = bench_record_path("BENCH_hostile.json", false);
    std::fs::write(&path, o.record.to_pretty() + "\n")?;
    println!("\nwrote {}", path.display());
    println!(
        "\nall hostile-workload assertions passed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
