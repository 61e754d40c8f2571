#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W]   end-to-end set, outputs checked
#   benchmark/run.sh --trace [...]               traced per-layer run
#   benchmark/run.sh --agree [...]               end-to-end set twice, held to the bounds
#   benchmark/run.sh --smoke                     1/20 scale, everything, for pre-commit
#
# The driver's form is
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# and ends with one JSON line on standard output. See README.md here.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Reuse the root target/ unless the caller chose a target directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/dphls-benchmark" --out "$here/out" "$@"
