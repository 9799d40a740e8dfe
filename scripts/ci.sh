#!/usr/bin/env bash
# Hermetic CI for the CAPSys workspace.
#
# Runs entirely offline: the workspace has no external crate
# dependencies (everything external was replaced by crates/util —
# see DESIGN.md "Hermetic build"). This script is the contract:
#
#   1. tree guard — no build artifacts (target/) may be tracked;
#   2. dependency guard — no non-capsys-* dependency may appear in any
#      Cargo.toml (including dev-dependencies);
#   3. panic lint — no unwrap()/expect(/panic! in non-test code under
#      crates/, outside the justified scripts/panic_allowlist.txt;
#  3b. format check — `cargo fmt --all -- --check` over the workspace
#      members (perfbench is a separate package and is not checked);
#  3c. rustdoc check — `cargo doc --workspace --no-deps` with warnings
#      denied, so intra-doc links to renamed or deleted items fail;
#   4. non-test line-count ledger (scripts/loc.sh) — prints the lines
#      before each file's first top-level #[cfg(test)] per file and per
#      crate; informational only, it never fails the build;
#   5. release build of every target;
#   6. full test suite (debug), including the determinism golden test;
#      then the capsys-util suite again in release with
#      -C overflow-checks=yes (the Fixed64 core must never wrap);
#   7. determinism and search-outcome golden tests again in release
#      (debug/release parity), with the store-bound exactness test
#      (tests/store_bound.rs) and the auto-tuner's plain-scan
#      equivalence (tests/autotune_equivalence.rs);
#   8. search smoke — Figure 10a's first-feasible CAPS searches on
#      Q2-join from 16 to 256 tasks under α⃗₁/α⃗₂/α⃗₃, self-asserting that
#      every cell finds a plan (timings are printed, not gated); Table 2's
#      plan and node counts; and Figure 10b's auto-tuned thresholds and
#      probe counts (CAPSYS_FAST=1: 4-16 slots per worker), both against
#      the exact values EXPERIMENTS.md records;
#   9. chaos smoke — seeded fault injection + self-healing recovery
#      under three distinct seeds, each with a same-seed replay check;
#  10. guard smoke — the reconfiguration safety governor under a
#      model-skew fault: governor-off regresses and stays regressed,
#      governor-on detects within one probation window, rolls back to
#      last-known-good, bounds oscillation, and replays identically;
#  11. recovery sweep — kill the controller after every journaled
#      decision (including between Prepare and Commit, and between a
#      governor Rollback and its Commit), recover from the write-ahead
#      journal, and diff the recovered trace and journal byte-for-byte
#      against the uninterrupted golden run, under three distinct seeds;
#      also checks zombie fencing; a fourth scenario journals an
#      incremental migration and sweeps kills across its
#      MigratePrepare/MigrateStep/MigrateCommit records;
#  12. migration smoke — whole-plan redeploy vs minimum-movement
#      incremental migration A/B on the same seeded crash: less state
#      moved, less downtime, less throughput lost, the journaled
#      target re-derived byte-identically through the exported
#      optimizer and within epsilon of the unconstrained optimum,
#      under three distinct seeds;
#  13. anytime search smoke — DFS vs MCTS backends under a shared node
#      budget (seeds 7/11/23), writing BENCH_anytime.json and
#      self-asserting that MCTS matches the DFS optimum bit-for-bit at
#      16 tasks, returns feasible plans at 256/1024 tasks where the
#      budgeted DFS exhausts with none, keeps every anytime curve
#      monotone non-increasing, and replays byte-identically under the
#      same seed;
#  14. hostile-workload smoke — seeded adversarial traffic
#      (seeds 7/11/23), writing BENCH_hostile.json and self-asserting
#      that the drift-aware governor performs zero rollbacks under pure
#      organic growth and flash crowds where the absolute-baseline
#      governor false-rollbacks on every flash seed, an injected true
#      regression is still rolled back within one probation window,
#      the shedding controller engages under sustained overload,
#      bounds backpressure, wins latency-gated goodput over the
#      unshedded baseline, releases once the crowd decays, and a
#      controller kill right after the first journaled Shed record
#      recovers byte-identically;
#  15. fleet smoke — sharded multi-tenant control plane
#      (seeds 7/11/23), writing BENCH_fleet.json and self-asserting
#      that with 6 tenants on a 120-worker heterogeneous fleet, a
#      shard controller killed mid-reconfiguration fails over to a
#      standby within the lease MTTR bound, a controller partitioned
#      past its lease is fenced as a zombie with zero split-brain
#      stamps, the arbiter recovers from its own WAL mid-run, every
#      shard's trace and journal replay byte-identically from journal
#      + recorded history, aggregate goodput stays within 10% of the
#      no-kill baseline, an over-subscribed tenant is rejected at
#      admission, and a same-seed re-run is byte-identical;
#  16. perfbench gate — the benchmark package's own tests, then each
#      workload (place / fleet / recover) for one second at seeds 1 and
#      2: every run must end with `"correct":true` and `"failed":0`, and
#      print the workload's pinned decision digest at both seeds.
#
# Each step prints its own wall-clock time on completion.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

CI_T0=$(date +%s)
STEP_T0=$CI_T0
step() {
    STEP_T0=$(date +%s)
    echo "==> [$1] $2"
}
step_done() {
    echo "    [done in $(($(date +%s) - STEP_T0))s]"
}

step "1/16" "tree guard: no tracked build artifacts"
if git ls-files | grep -q '^target/'; then
    echo "FORBIDDEN: build artifacts under target/ are tracked" >&2
    echo "(run: git rm -r --cached target)" >&2
    exit 1
fi
echo "    ok: target/ is untracked"
step_done

step "2/16" "dependency guard: workspace-internal crates only"
# Collect every dependency key from every manifest. Dependency lines are
# `name = ...` or `name.workspace = true` inside a [*dependencies*]
# section; only capsys-* names are allowed.
violations=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[A-Za-z0-9_-]+(\.workspace)? *=/ {
            split($0, parts, /[. =]/); print parts[1]
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            capsys-*) ;;
            *)
                echo "FORBIDDEN external dependency \`$dep\` in $manifest" >&2
                violations=$((violations + 1))
                ;;
        esac
    done
done
if [ "$violations" -ne 0 ]; then
    echo "dependency guard failed: $violations external dependencies" >&2
    echo "(the build environment is offline; add std-only code to crates/util instead)" >&2
    exit 1
fi
echo "    ok: all dependencies are capsys-* path crates"
step_done

step "3/16" "panic lint: no unwrap/expect/panic! in non-test code"
# Library code must surface failures as Results — a panicking controller
# is the exact failure mode the robustness work guards against. Unit-test
# modules (everything from the first #[cfg(test)] down) and the justified
# files in scripts/panic_allowlist.txt are exempt.
allow_file="scripts/panic_allowlist.txt"
violations=0
for file in $(git ls-files | grep -E '^crates/[^/]+/src/.*\.rs$'); do
    skip=0
    while IFS= read -r prefix; do
        case "$prefix" in '' | \#*) continue ;; esac
        case "$file" in "$prefix"*)
            skip=1
            break
            ;;
        esac
    done <"$allow_file"
    [ "$skip" -eq 1 ] && continue
    hits=$(awk '/#\[cfg\(test\)\]/ { exit } { print NR": "$0 }' "$file" \
        | grep -vE '^[0-9]+:[[:space:]]*//' \
        | grep -E '\.unwrap\(\)|\.expect\(|panic!' || true)
    if [ -n "$hits" ]; then
        echo "PANIC-PRONE code in $file (not in $allow_file):" >&2
        echo "$hits" >&2
        violations=$((violations + 1))
    fi
done
if [ "$violations" -ne 0 ]; then
    echo "panic lint failed in $violations file(s)" >&2
    echo "(return a Result, or justify an allowlist entry)" >&2
    exit 1
fi
echo "    ok: non-test library code is panic-free"
step_done

step "3b/16" "format check: cargo fmt --all -- --check"
cargo fmt --all -- --check
echo "    ok: the workspace is rustfmt-clean"
step_done

step "3c/16" "rustdoc check: cargo doc with warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
echo "    ok: the workspace documents without warnings"
step_done

step "4/16" "non-test line-count ledger (informational)"
scripts/loc.sh
step_done

step "5/16" "cargo build --release (all targets)"
cargo build --release --workspace --all-targets
step_done

step "6/16" "cargo test (debug, full workspace)"
cargo test -q --workspace
step_done

step "6b/16" "fixed-point overflow checks (capsys-util, release + overflow-checks)"
# The Fixed64 core promises saturating/checked arithmetic, never a
# silent two's-complement wrap. Release builds normally disable
# overflow checks, so any unchecked `+`/`-`/`*` on a raw mantissa would
# pass plain release tests and still wrap in production; this run turns
# the checks back on so such an op aborts the suite instead.
RUSTFLAGS="${RUSTFLAGS:-} -C overflow-checks=yes" \
    cargo test -q --release -p capsys-util --target-dir target/overflow-checks
step_done

step "7/16" "determinism + search golden + store-bound + auto-tuner equivalence tests (release)"
cargo test -q --release --test golden_determinism --test search_golden --test store_bound \
    --test autotune_equivalence
step_done

step "8/16" "search smoke (Figure 10a first-feasible searches, 16-256 tasks; Table 2 counts; Figure 10b tuning)"
# exp_fig10a self-asserts that every (scale, alpha) cell finds a plan.
# exp_table2 asserts the plans, nodes and reordered nodes of all seven
# alpha_cpu rows against the exact counts EXPERIMENTS.md records.
# exp_fig10b asserts each row's tuned thresholds and probe count against
# the values EXPERIMENTS.md records; CAPSYS_FAST=1 keeps the nine rows
# with 4-16 slots per worker.
cargo run --release -p capsys-bench --bin exp_fig10a
cargo run --release -p capsys-bench --bin exp_table2
CAPSYS_FAST=1 cargo run --release -p capsys-bench --bin exp_fig10b
step_done

step "9/16" "chaos smoke (fault injection + recovery, seeds 7/11/23)"
for seed in 7 11 23; do
    cargo run --release -p capsys-bench --bin exp_chaos -- --seed "$seed" --quick
done
step_done

step "10/16" "guard smoke (safety governor vs model skew, seed 7)"
# exp_guard self-asserts: without the governor the stale-model regression
# persists; with it, the regression is detected within one probation
# window, rolled back to last-known-good, throughput recovers, churn
# stays within the rollback cap, and same-seed runs replay identically.
cargo run --release -p capsys-bench --bin exp_guard -- --seed 7 --quick
step_done

step "11/16" "recovery sweep (kill-at-every-decision crash recovery, seeds 7/11/23)"
# exp_recovery self-asserts: every kill point recovers to a
# byte-identical trace AND journal, the mid-reconfiguration kill rolls
# forward (for scaling Prepares, governor Rollbacks, and mid-wave
# migrations alike), a chaos-drawn wall-clock kill recovers, and a
# zombie controller is fenced.
for seed in 7 11 23; do
    cargo run --release -p capsys-bench --bin exp_recovery -- --seed "$seed" --smoke
done
step_done

step "12/16" "migration smoke (incremental vs whole-plan A/B, seeds 7/11/23)"
# exp_migrate self-asserts: the incremental arm moves strictly fewer
# bytes, pauses strictly fewer task-seconds, and loses strictly less
# throughput area than the whole-plan arm on the same crash; the
# journaled two-phase wave protocol is complete and minimal; the
# migration target re-derives byte-identically and lands within
# epsilon of the cost optimum; same-seed runs replay identically.
for seed in 7 11 23; do
    cargo run --release -p capsys-bench --bin exp_migrate -- --seed "$seed" --smoke
done
step_done

step "13/16" "anytime search smoke (DFS vs MCTS, BENCH_anytime.json, seeds 7/11/23)"
# exp_search self-asserts: MCTS == DFS optimum at 16 tasks (Fixed64 bit
# equality, every seed), MCTS feasible within the budget at 256/1024
# tasks where the DFS reports budget exhaustion with zero plans,
# monotone anytime curves, and a byte-identical same-seed replay; it
# also validates the BENCH_anytime.json it wrote.
cargo run --release -p capsys-bench --bin exp_search -- --smoke
step_done

step "14/16" "hostile-workload smoke (governor drift A/B + overload shedding, seeds 7/11/23)"
# exp_hostile self-asserts: zero drift-aware rollbacks under pure
# growth and flash crowds (absolute baseline false-rollbacks on every
# flash seed), a true regression still caught within one probation
# window, shedding engages/bounds backpressure/wins goodput/releases
# under an 8x flash crowd, every shed change is journaled, and the
# whole hostile run replays byte-identically after a controller kill;
# it also validates the BENCH_hostile.json it wrote.
cargo run --release -p capsys-bench --bin exp_hostile -- --smoke
step_done

step "15/16" "fleet smoke (sharded control plane + lease-fenced failover, seeds 7/11/23)"
# exp_fleet self-asserts: a shard controller killed mid-reconfiguration
# fails over to a standby within the lease MTTR bound, a partitioned
# controller is fenced as a zombie (zero split-brain stamps), the
# arbiter recovers from its own WAL mid-run, every shard's trace and
# journal replay byte-identically from journal + recorded history,
# aggregate goodput stays within 10% of the no-kill baseline, the
# over-subscribed tenant is rejected at admission, and a same-seed
# re-run is byte-identical; it also validates the BENCH_fleet.json it
# wrote.
for seed in 7 11 23; do
    cargo run --release -p capsys-bench --bin exp_fleet -- --seed "$seed" --smoke
done
step_done

step "16/16" "perfbench gate (self-tests + 1 s of each workload, seeds 1/2)"
# Each run checks its own outputs and prints a digest of every decision
# of a pass. The seed only reorders order-independent work, so both
# seeds must print the workload's pinned digest; a change that re-plans
# every request the same way at both seeds still moves it. A change
# that moves a decision on purpose re-pins the digest here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in place fleet recover; do
    case "$workload" in
        place) pinned=c69d025c9b7c7fab ;;
        fleet) pinned=525f9cb48eb89072 ;;
        recover) pinned=0c185ebb2e5b985e ;;
    esac
    for seed in 1 2; do
        out=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
        last=$(printf '%s\n' "$out" | tail -n 1)
        case "$last" in
            *'"correct":true,'*'"failed":0,'*) ;;
            *)
                echo "perfbench $workload seed $seed failed its own checks:" >&2
                echo "$last" >&2
                exit 1
                ;;
        esac
        digest=$(printf '%s\n' "$out" | awk '/^digest / { print $2 }')
        if [ -z "$digest" ]; then
            echo "perfbench $workload seed $seed printed no digest" >&2
            exit 1
        fi
        if [ "$digest" != "$pinned" ]; then
            echo "perfbench $workload seed $seed digest $digest, expected $pinned" >&2
            exit 1
        fi
    done
    echo "    ok: $workload correct at seeds 1 and 2, digest $pinned"
done
step_done

echo "CI green in $(($(date +%s) - CI_T0))s."
