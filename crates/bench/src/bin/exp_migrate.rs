//! Incremental migration vs whole-plan redeploy after a worker crash
//! (not a paper figure). The scenario and its checks are
//! `capsys_bench::claims::migrate`.
//!
//! Usage: `exp_migrate [--seed N]`

use capsys_bench::claims::{migrate, Shape};
use capsys_bench::{banner, seed_arg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = seed_arg();
    banner(
        "Migration",
        "incremental minimum-movement migration vs whole-plan redeploy",
        "migration extension (not a paper figure)",
    );
    let o = migrate::run(Shape::Full, seed)?;
    o.print();
    o.check()?;
    println!(
        "the target re-derives byte-identically, and a same-seed re-run reproduced \
         trace and journal byte-identically"
    );
    println!("\nall migration invariants hold");
    Ok(())
}
