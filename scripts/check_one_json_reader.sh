#!/usr/bin/env bash
# The workspace has one JSON reader: crates/telemetry/src/json.rs.
# Instance files, job objects, sweep bodies, stream JSONL, baselines and
# traces all go through it (qbss_telemetry::json_parse / JsonCursor), so
# every input gets the same grammar, the same depth cap and the same
# linear string scan. A second hand-rolled reader shows up as one of the
# helper functions below defined anywhere else.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=$(grep -rnE '\bfn (parse_value|skip_value|skip_ws|parse_string|parse_number)\b' \
  crates/*/src --include='*.rs' \
  | grep -v '^crates/telemetry/src/json\.rs:' \
  || true)

if [ -n "$violations" ]; then
  echo "JSON reader helpers outside crates/telemetry/src/json.rs (use qbss_telemetry's reader):"
  echo "$violations"
  exit 1
fi
echo "OK: one JSON reader (crates/telemetry/src/json.rs)"
