#!/usr/bin/env bash
# Builds the program under test (the `quorumnet` binary, which the
# quorumd_stream workload spawns) and the benchmark from source, then
# runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload paper_lp --seed 1 --seconds 15 --trace 0
#   bash e2ebench/run.sh run
#
# Both builds share one target directory: $CARGO_TARGET_DIR when set,
# else `target` at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "e2ebench: $root is not a quorumnet checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p quorumnet --bin quorumnet >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
