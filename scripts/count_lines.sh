#!/bin/sh
# Counts the Rust source lines of the workspace crates (`crates/*/src`)
# and how many of them are production code:
#
#   sh scripts/count_lines.sh
#
# A file's production lines are the lines before the `#[cfg(test)]` +
# `mod tests` pair that opens its test module (all of them if it has
# none). A module that a crate root declares `#[cfg(test)] mod name;`
# is compiled only into tests, so its files count zero production lines.
# Prints `total <lines>` and `production <lines>`; run it from anywhere.
set -e
cd "$(dirname "$0")/.."

# The files of the modules a crate root declares test-only.
test_only=$(
    for root in crates/*/src/lib.rs crates/*/src/main.rs; do
        [ -f "$root" ] || continue
        dir=${root%/*}
        awk '
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { armed = 1; next }
            armed && /^[[:space:]]*(#\[|\/\/)/ { next }
            armed && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
                sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "")
                sub(/;.*/, "")
                print
            }
            { armed = 0 }
        ' "$root" | while read -r module; do
            if [ -f "$dir/$module.rs" ]; then echo "$dir/$module.rs"; fi
            if [ -d "$dir/$module" ]; then find "$dir/$module" -name '*.rs'; fi
        done
    done
)

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk -v skip="$test_only" '
    function finish() {
        if (!(file in zero)) production += found ? before_tests : lines
    }
    BEGIN {
        n = split(skip, files, "\n")
        for (i = 1; i <= n; i++) zero[files[i]] = 1
    }
    FNR == 1 {
        if (file != "") finish()
        file = FILENAME
        found = 0
        previous = ""
    }
    {
        total++
        lines = FNR
        if (!found && previous ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ \
            && $0 ~ /^[[:space:]]*mod tests[[:space:]]*\{/) {
            found = 1
            before_tests = FNR - 2
        }
        previous = $0
    }
    END {
        if (file != "") finish()
        print "total " total
        print "production " production
    }
'
