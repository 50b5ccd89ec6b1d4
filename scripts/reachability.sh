#!/bin/sh
# Audits who reaches each production `pub` item of the workspace crates:
#
#   sh scripts/reachability.sh
#
# It works on a copy of the tree in a temporary directory and changes
# nothing in this one (nor `benchmark/Cargo.lock`). In the copy it
# demotes every production `pub fn` and `pub` type (struct, enum, trait,
# type alias, union) of the ten crates other than `rths_lint` to
# `pub(crate)`, then restores what the compiler names:
#
#   1. `cargo check` of the non-test targets (libraries, binaries,
#      examples, benches) and of the `benchmark/` package, all its
#      targets, until both build: what a restore here names is `needed`;
#   2. `cargo check --all-targets`, which adds every test target, until
#      it builds: what a restore here names is `tests-only`;
#   3. the non-test `dead_code` warnings of what is still demoted: those
#      items are `dead` (nothing names them outside the crate's own unit
#      tests), the others `crate` (only their own crate's production code
#      names them, so `pub(crate)` would do).
#
# Production lines follow scripts/count_lines.sh: each file up to its
# `#[cfg(test)]` + `mod tests` pair, and no line of a module that a crate
# root declares `#[cfg(test)] mod name;`. Items that a `pub use` names
# are not demoted (the module-level item of that name in that crate):
# the re-export keeps them public whoever uses them. Doc tests are not
# compiled.
#
# Prints one line per item, `verdict<TAB>file:line<TAB>kind name`, sorted
# by verdict and place, then the count of each verdict. A check round
# costs one incremental `cargo check`; a run takes dozens of them.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/reachability.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
tree=$tmp/tree
mkdir "$tree"
(cd "$root" && tar --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - .) | (cd "$tree" && tar -xf -)
cd "$tree"
export CARGO_TARGET_DIR="$tmp/target"

crates="bench core math net obs oracle par reactor sim stoch"

# The files of the modules a crate root declares test-only.
test_only=$(
    for c in $crates; do
        for r in "crates/$c/src/lib.rs" "crates/$c/src/main.rs"; do
            [ -f "$r" ] || continue
            awk '
                /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { armed = 1; next }
                armed && /^[[:space:]]*(#\[|\/\/)/ { next }
                armed && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
                    sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "")
                    sub(/;.*/, "")
                    print
                }
                { armed = 0 }
            ' "$r" | while read -r m; do
                d=${r%/*}
                if [ -f "$d/$m.rs" ]; then echo "$d/$m.rs"; fi
                if [ -d "$d/$m" ]; then find "$d/$m" -name '*.rs'; fi
            done
        done
    done
)

# The items: `file line kind name`, one line each, in `items`. A name that
# a `pub use` of the same crate names is skipped at module level.
for c in $crates; do
    find "crates/$c/src" -name '*.rs' | LC_ALL=C sort | xargs awk -v skip="$test_only" '
        BEGIN { n = split(skip, f, "\n"); for (i = 1; i <= n; i++) zero[f[i]] = 1 }
        FNR == 1 { done = (FILENAME in zero); previous = ""; inuse = 0 }
        done { next }
        previous ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ \
            && $0 ~ /^[[:space:]]*mod tests[[:space:]]*\{/ { done = 1; next }
        /^[[:space:]]*pub use / { inuse = 1 }
        inuse {
            line = $0
            gsub(/pub use|[{},;]/, " ", line)
            k = split(line, w, /[[:space:]]+/)
            for (i = 1; i <= k; i++) {
                if (w[i] == "" || w[i] == "as") continue
                if (w[i + 1] == "as") continue
                sub(/.*::/, "", w[i])
                if (w[i] != "" && w[i] != "self") reexported[w[i]] = 1
            }
            if ($0 ~ /;/) inuse = 0
        }
        match($0, /^[[:space:]]*pub (const fn|fn|struct|enum|trait|type|union) [A-Za-z0-9_]+/) {
            s = substr($0, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub (const )?/, "", s)
            split(s, w, " ")
            top = ($0 !~ /^[[:space:]]/)
            item[++count] = FILENAME " " FNR " " w[1] " " w[2] " " top
        }
        { previous = $0 }
        END {
            for (i = 1; i <= count; i++) {
                split(item[i], p, " ")
                if (p[5] && (p[4] in reexported)) continue
                print p[1], p[2], p[3], p[4]
            }
        }
    '
done > "$tmp/items"
: > "$tmp/verdicts"

# Demote every item.
while read -r file line kind name; do
    sed -i "${line}s/^\\([[:space:]]*\\)pub /\\1pub(crate) /" "$file"
done < "$tmp/items"

# The `file:line` of every place an error's notes name (its first span,
# the site that failed, is left out), one a line; and `@crates/<c> Name`
# for an error that names a path `rths_<c>::..::Name` (a private type in
# a signature, which rustc reports without a note).
error_places() {
    awk -v tree="$tree/" '
        /^(error|warning)(\[[A-Z0-9]+\])?:/ {
            err = ($1 ~ /^error/); first = 1
            if (err && match($0, /`rths_[a-z]+::[A-Za-z0-9_:]+`/)) {
                path = substr($0, RSTART + 6, RLENGTH - 7)
                c = path; sub(/::.*/, "", c)
                sub(/.*::/, "", path)
                print "@crates/" c " " path
            }
            next
        }
        err && /^[[:space:]]*(-->|:::) / {
            place = $2
            if (first) { first = 0; next }
            if (index(place, tree) == 1) place = substr(place, length(tree) + 1)
            sub(/^(\.\.\/)+/, "", place)
            split(place, p, ":")
            print p[1] ":" p[2]
        }
    ' "$1" | LC_ALL=C sort -u
}

# Restores the demoted items at the places in file $1, giving them
# verdict $2; prints how many it restored.
restore() {
    restored=0
    while read -r file line kind name; do
        if grep -Fqx -e "$file:$line" -e "@${file%%/src/*} $name" "$1" \
            && ! grep -Fq "	$file:$line	" "$tmp/verdicts"; then
            sed -i "${line}s/^\\([[:space:]]*\\)pub(crate) /\\1pub /" "$file"
            printf '%s\t%s:%s\t%s %s\n' "$2" "$file" "$line" "$kind" "$name" >> "$tmp/verdicts"
            restored=$((restored + 1))
        fi
    done < "$tmp/items"
    echo "$restored"
}

# Runs the check command "$@" (logging to $tmp/log) until it passes,
# restoring what each failure names with verdict $verdict.
settle() {
    round=0
    while :; do
        round=$((round + 1))
        if "$@" > "$tmp/log" 2>&1; then
            return 0
        fi
        error_places "$tmp/log" > "$tmp/places"
        n=$(restore "$tmp/places" "$verdict")
        echo "reachability: $verdict round $round restored $n" >&2
        if [ "$n" -eq 0 ]; then
            echo "reachability: a failure names no demoted item:" >&2
            grep -E -A12 '^error' "$tmp/log" | head -80 >&2
            exit 1
        fi
    done
}

production() {
    cargo check --offline --workspace --lib --bins --examples --benches --keep-going \
        && cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets --keep-going
}
everything() {
    cargo check --offline --workspace --all-targets --keep-going \
        && cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets --keep-going
}

verdict=needed
settle production
verdict=tests-only
settle everything

# Dead: the non-test dead_code warnings on lines of still-demoted items.
cargo check --offline --workspace --lib --bins --examples --benches > "$tmp/log" 2>&1
awk -v tree="$tree/" '
    /^(error|warning)(\[[A-Za-z0-9_]+\])?:/ {
        dead = ($0 ~ /never (used|constructed)/); file = ""; next
    }
    dead && /^[[:space:]]*(-->|:::) / {
        file = $2
        if (index(file, tree) == 1) file = substr(file, length(tree) + 1)
        sub(/:.*/, "", file)
        next
    }
    dead && file != "" && match($0, /^[[:space:]]*[0-9]+ \|/) {
        n = substr($0, RSTART, RLENGTH)
        gsub(/[^0-9]/, "", n)
        print file ":" n
    }
' "$tmp/log" | LC_ALL=C sort -u > "$tmp/places"
restore "$tmp/places" dead > /dev/null
while read -r file line kind name; do
    if ! grep -Fq "	$file:$line	" "$tmp/verdicts"; then
        printf 'crate\t%s:%s\t%s %s\n' "$file" "$line" "$kind" "$name" >> "$tmp/verdicts"
    fi
done < "$tmp/items"

LC_ALL=C sort -t '	' -k1,1 -k2,2V "$tmp/verdicts"
for v in needed crate tests-only dead; do
    printf '%s %s\n' "$v" "$(grep -c "^$v	" "$tmp/verdicts" || true)"
done
