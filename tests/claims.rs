//! The robustness claims, checked on their smoke shapes.
//!
//! Each test runs one claim of `capsys_bench::claims` — the scenario
//! its `exp_*` binary prints on the full shape — and makes every
//! assertion of the claim through the outcome's `check`. Nothing is
//! written to disk: the fleet and hostile claims validate their
//! `BENCH_*.json` records in memory.

use capsys_bench::claims::{chaos, fleet, guard, hostile, migrate, recovery, Shape, SEEDS};

/// Panics with the claim's message, prefixed with the seed, unless the
/// claim holds.
fn holds(seed: u64, checked: Result<(), String>) {
    if let Err(e) = checked {
        panic!("seed {seed}: {e}");
    }
}

#[test]
fn chaos_claim_holds() {
    for seed in SEEDS {
        let outcome = chaos::run(Shape::Smoke, seed).unwrap();
        // Each seed's crash hits a used worker, so the rung check has
        // recoveries to judge.
        assert!(
            outcome.fewest_recoveries() > 0,
            "seed {seed}: a ladder completed no recovery"
        );
        holds(seed, outcome.check());
    }
}

#[test]
fn guard_claim_holds() {
    holds(7, guard::run(Shape::Smoke, 7).unwrap().check());
}

#[test]
fn recovery_claim_holds() {
    for seed in SEEDS {
        holds(seed, recovery::run(Shape::Smoke, seed).unwrap().check());
    }
}

#[test]
fn migrate_claim_holds() {
    for seed in SEEDS {
        holds(seed, migrate::run(Shape::Smoke, seed).unwrap().check());
    }
}

#[test]
fn hostile_claim_holds() {
    holds(hostile::SEED, hostile::run(Shape::Smoke).unwrap().check());
}

#[test]
fn fleet_claim_holds() {
    for seed in SEEDS {
        holds(seed, fleet::run(Shape::Smoke, seed).unwrap().check());
    }
}
