//! Chaos experiment: seeded fault injection against the self-healing
//! closed loop (not a paper figure). The scenario and its checks are
//! `capsys_bench::claims::chaos`.
//!
//! Usage: `exp_chaos [--seed N]`

use capsys_bench::claims::{chaos, Shape};
use capsys_bench::{banner, seed_arg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = seed_arg();
    banner(
        "Chaos",
        "fault injection + self-healing recovery",
        "robustness extension (not a paper figure)",
    );
    let o = chaos::run(Shape::Full, seed)?;
    o.print();
    o.check()?;
    println!("determinism: two seed-{seed} runs replay identically");
    Ok(())
}
