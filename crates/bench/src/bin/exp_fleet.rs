//! Sharded multi-tenant fleet: lease-fenced controller failover at
//! 100+ workers (not a paper figure). The scenario and its checks are
//! `capsys_bench::claims::fleet`. Writes `BENCH_fleet.json` (aggregate
//! goodput, per-tenant fairness, per-window decision latency, and
//! failover MTTR) at the repository root.
//!
//! Usage: `exp_fleet [--seed N]`

use std::time::Instant;

use capsys_bench::claims::{fleet, Shape};
use capsys_bench::{banner, bench_record_path, seed_arg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let seed = seed_arg();
    banner(
        "Fleet",
        "sharded multi-tenant control plane with lease-fenced failover",
        "robustness extension (not a paper figure)",
    );
    let o = fleet::run(Shape::Full, seed)?;
    o.print();
    o.check()?;
    println!("  replay: every shard byte-identical (trace and journal); same-seed re-run too");
    let path = bench_record_path("BENCH_fleet.json", false);
    std::fs::write(&path, o.record.to_pretty() + "\n")?;
    println!("\nwrote {}", path.display());
    println!(
        "\nall fleet invariants hold ({:.1}s)",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
