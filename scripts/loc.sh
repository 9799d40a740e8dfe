#!/usr/bin/env bash
# Non-test line-count ledger for the workspace crates.
#
# For every Rust file under crates/*/src, counts the lines before the
# first top-level `#[cfg(test)]` (the unit-test module, by convention the
# last item of a file), then prints one line per file and one total per
# crate, and a workspace total. Integration tests and examples live
# outside src/ and are not counted.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")
    crate_total=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%7d  %s\n' "$n" "$file"
        crate_total=$((crate_total + n))
    done < <(find "$dir/src" -name '*.rs' | LC_ALL=C sort)
    printf '%7d  %s (total)\n\n' "$crate_total" "$name"
    total=$((total + crate_total))
done
printf '%7d  workspace (total)\n' "$total"
