//! Crash-recovery sweep: kill the controller at every journaled
//! decision point and prove recovery is exact (not a paper figure). The
//! scenarios and their checks are `capsys_bench::claims::recovery`.
//!
//! Usage: `exp_recovery [--seed N]`

use capsys_bench::claims::{recovery, Shape};
use capsys_bench::{banner, seed_arg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = seed_arg();
    banner(
        "Recovery",
        "kill-at-every-decision crash-recovery sweep",
        "durability extension (not a paper figure)",
    );
    println!("seed {seed}");
    let o = recovery::run(Shape::Full, seed)?;
    o.print();
    o.check()?;
    println!("\nall recovery invariants hold");
    Ok(())
}
