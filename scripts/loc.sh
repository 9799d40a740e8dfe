#!/usr/bin/env bash
# Non-test line-count ledger for the workspace crates.
#
# For every Rust file under crates/*/src, counts the lines before the
# first top-level `#[cfg(test)]` (the unit-test module, by convention the
# last item of a file), then prints one line per file and one total per
# crate, and a workspace total. Integration tests and examples live
# outside src/ and are not counted.
#
# A second ledger counts settable values: the `pub` fields of every
# `pub struct *Config` in the same non-test lines, one line per struct,
# a total per crate and a workspace total. Both ledgers are
# informational; the script never fails on a count.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<fields> <struct>" for each `pub struct *Config` in a file's
# non-test lines; a unit struct has no fields.
config_fields='
/^#\[cfg\(test\)\]/ { exit }
/^pub struct [A-Za-z0-9_]*Config[ ;{<]/ {
    name = $3
    sub(/[^A-Za-z0-9_].*/, "", name)
    if ($0 ~ /;/) { print 0, name; next }
    open = 1; n = 0; next
}
open && /^}/ { print n, name; open = 0; next }
open && /^    pub [a-z_][a-z0-9_]*:/ { n++ }
'

total=0
fields_total=0
settable=""
for dir in crates/*/; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")
    crate_total=0
    crate_fields=0
    crate_structs=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%7d  %s\n' "$n" "$file"
        crate_total=$((crate_total + n))
        while read -r fields struct; do
            settable+=$(printf '%7d  %s %s' "$fields" "$name" "$struct")$'\n'
            crate_fields=$((crate_fields + fields))
            crate_structs=$((crate_structs + 1))
        done < <(awk "$config_fields" "$file")
    done < <(find "$dir/src" -name '*.rs' | LC_ALL=C sort)
    printf '%7d  %s (total)\n\n' "$crate_total" "$name"
    total=$((total + crate_total))
    if [ "$crate_structs" -gt 0 ]; then
        settable+=$(printf '%7d  %s (total)' "$crate_fields" "$name")$'\n\n'
        fields_total=$((fields_total + crate_fields))
    fi
done
printf '%7d  workspace (total)\n' "$total"

printf '\nSettable values (pub fields of each pub struct *Config):\n\n'
printf '%s' "$settable"
printf '%7d  workspace (total)\n' "$fields_total"
