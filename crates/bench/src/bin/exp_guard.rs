//! Safety-governor experiment: canary probation and rollback under a
//! model-skew fault (not a paper figure). The scenario and its checks
//! are `capsys_bench::claims::guard`.
//!
//! Usage: `exp_guard [--seed N]`

use capsys_bench::claims::{guard, Shape};
use capsys_bench::{banner, seed_arg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = seed_arg();
    banner(
        "Guard",
        "reconfiguration safety governor under model skew",
        "robustness extension (not a paper figure)",
    );
    let o = guard::run(Shape::Full, seed)?;
    o.print();
    o.check()?;
    println!("determinism: two seed-{seed} governed runs replay identically");
    println!("\nall guard assertions passed");
    Ok(())
}
