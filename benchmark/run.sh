#!/bin/sh
# Builds the benchmark package and runs the harness with the given arguments:
#
#   sh benchmark/run.sh run [--seed N] [--only WORKLOAD] [--out DIR]
#   sh benchmark/run.sh compare A.json B.json
#   sh benchmark/run.sh cell --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. It exists because the multi-process
# workload needs two binaries side by side — the harness and the
# `rths_mp_worker` shim — and `cargo run` builds only the one it runs.
# `cargo build` is a no-op when both are current. A build failure (for
# instance in a directory that holds the benchmark but not the crates it
# measures) ends the script with cargo's exit status and prints no result.
set -e
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rths_benchmark" "$@"
