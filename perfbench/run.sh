#!/usr/bin/env bash
# Builds the `qbss` server and the benchmark harness from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload table1-sweep --seed 1 --seconds 30 --trace 0
#
# Build products go to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root). The last line of stdout is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -d crates/bench ]]; then
  echo "perfbench: $root holds no qbss workspace (Cargo.toml, crates/cli, crates/bench)" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qbss-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --qbss "$CARGO_TARGET_DIR/release/qbss" \
  --trace-dir "$CARGO_TARGET_DIR/perfbench-traces" "$@"
