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
#      crate, then the pub fields of each pub struct *Config (settable
#      values) per struct and per crate; informational only, it never
#      fails the build;
#   5. release build of every target;
#   6. full test suite (debug): the tier-1 `cargo test -q`, which covers
#      every workspace crate (the root manifest's `default-members`),
#      including the determinism golden test and the robustness claims
#      (tests/claims.rs: chaos, guard, recovery, migrate, hostile and
#      fleet on their smoke shapes at seeds 7/11/23, guard and hostile at seed 7 — the scenarios the
#      exp_* binaries of the same names print on their full shapes);
#      then the capsys-util suite again in release with
#      -C overflow-checks=yes (the Fixed64 core must never wrap);
#   7. determinism, search-outcome and simulator golden tests again in
#      release (debug/release parity; the simulator goldens include a
#      fan-out run whose partitions heal, tests/sim_heal_golden.rs),
#      with the store-bound exactness test (tests/store_bound.rs) and
#      its tie cut (tests/tie_cut.rs: a roomy-cluster search that must
#      finish within 20 M nodes), the multi-thread DFS's schedule-independence and worker-panic tests
#      (tests/parallel_schedule.rs, tests/parallel_panic.rs: real thread
#      interleavings in an optimised build), the thread-count
#      independence of the stored and recommended plans on the paper
#      queries (tests/thread_count_outcomes.rs), the auto-tuner's plain-scan
#      equivalence
#      (tests/autotune_equivalence.rs), the simulator's allocation
#      counts (crates/sim/tests/alloc_free_tick.rs: a warm tick phase
#      allocates nothing) and the fleet tick phase's tests (the same
#      surfaces at 1, 2, 3 and 8 threads; a panicking tick is an error;
#      the tick pool keeps its helpers across windows, spawns none on
#      one thread, and joins them when the fleet drops);
#   8. search smoke — Figure 10a's first-feasible CAPS searches on
#      Q2-join from 16 to 256 tasks under α⃗₁/α⃗₂/α⃗₃, self-asserting that
#      every cell finds a plan (timings are printed, not gated); Table 2's
#      plan and node counts; and Figure 10b's auto-tuned thresholds and
#      probe counts (CAPSYS_FAST=1: 4-16 slots per worker), both against
#      the exact values EXPERIMENTS.md records; the step then checks that
#      the committed BENCH_hostile.json and BENCH_fleet.json at the root
#      are unmodified (the claim tests of step 6 validate their records
#      in memory and write nothing);
#   9. perfbench gate — the benchmark package's own tests, then each
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

step "1/9" "tree guard: no tracked build artifacts"
if git ls-files | grep -q '^target/'; then
    echo "FORBIDDEN: build artifacts under target/ are tracked" >&2
    echo "(run: git rm -r --cached target)" >&2
    exit 1
fi
echo "    ok: target/ is untracked"
step_done

step "2/9" "dependency guard: workspace-internal crates only"
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

step "3/9" "panic lint: no unwrap/expect/panic! in non-test code"
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

step "3b/9" "format check: cargo fmt --all -- --check"
cargo fmt --all -- --check
echo "    ok: the workspace is rustfmt-clean"
step_done

step "3c/9" "rustdoc check: cargo doc with warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
echo "    ok: the workspace documents without warnings"
step_done

step "4/9" "non-test line-count and settable-value ledgers (informational)"
scripts/loc.sh
step_done

step "5/9" "cargo build --release (all targets)"
cargo build --release --workspace --all-targets
step_done

step "6/9" "cargo test (debug, full workspace: the tier-1 suite)"
cargo test -q
step_done

step "6b/9" "fixed-point overflow checks (capsys-util, release + overflow-checks)"
# The Fixed64 core promises saturating/checked arithmetic, never a
# silent two's-complement wrap. Release builds normally disable
# overflow checks, so any unchecked `+`/`-`/`*` on a raw mantissa would
# pass plain release tests and still wrap in production; this run turns
# the checks back on so such an op aborts the suite instead.
RUSTFLAGS="${RUSTFLAGS:-} -C overflow-checks=yes" \
    cargo test -q --release -p capsys-util --target-dir target/overflow-checks
step_done

step "7/9" "determinism + search and sim goldens + store-bound + parallel DFS + thread-count outcomes + auto-tuner equivalence + tick-phase tests (release)"
cargo test -q --release --test golden_determinism --test search_golden --test store_bound \
    --test tie_cut --test parallel_schedule --test parallel_panic --test thread_count_outcomes \
    --test autotune_equivalence --test sim_golden --test sim_heal_golden
cargo test -q --release -p capsys-sim --test alloc_free_tick
cargo test -q --release -p capsys-controller --lib -- fleet::tests::tick_phase
step_done

step "8/9" "search smoke (Figure 10a first-feasible searches, 16-256 tasks; Table 2 counts; Figure 10b tuning; committed records unmodified)"
# exp_fig10a self-asserts that every (scale, alpha) cell finds a plan.
# exp_table2 asserts the plans, nodes and reordered nodes of all seven
# alpha_cpu rows against the exact counts EXPERIMENTS.md records.
# exp_fig10b asserts each row's tuned thresholds and probe count against
# the values EXPERIMENTS.md records; CAPSYS_FAST=1 keeps the nine rows
# with 4-16 slots per worker.
cargo run --release -p capsys-bench --bin exp_fig10a
cargo run --release -p capsys-bench --bin exp_table2
CAPSYS_FAST=1 cargo run --release -p capsys-bench --bin exp_fig10b
# Only a full run of exp_hostile or exp_fleet rewrites a committed
# record; nothing in this script may.
if ! git diff --quiet -- BENCH_hostile.json BENCH_fleet.json; then
    echo "a CI step modified a committed BENCH_*.json record:" >&2
    git diff --stat -- BENCH_hostile.json BENCH_fleet.json >&2
    exit 1
fi
echo "    ok: the committed BENCH_*.json records are unmodified"
step_done

step "9/9" "perfbench gate (self-tests + 1 s of each workload, seeds 1/2)"
# Each run checks its own outputs and prints a digest of every decision
# of a pass. The seed only reorders order-independent work, so both
# seeds must print the workload's pinned digest; a change that re-plans
# every request the same way at both seeds still moves it. A change
# that moves a decision on purpose re-pins the digest here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in place fleet recover; do
    case "$workload" in
        place) pinned=f8aa8497ddac85a9 ;;
        fleet) pinned=525f9cb48eb89072 ;;
        recover) pinned=b1fa76239ffa0399 ;;
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
