#!/usr/bin/env bash
# Perf ledger entry point (benchmarks/README.md).
#
#   benchmarks/run.sh [--seed S]
#       the full ledger: every workload, 7 timed repetitions + 1 traced
#       repetition, each a fresh process; prints every metric and writes
#       benchmarks/out/{ledger.json,trace_*.jsonl,apps_*.csv}
#   benchmarks/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run of one workload (what BENCHMARK.json's command invokes);
#       the last line of stdout is the result object
#   benchmarks/run.sh agree A.json B.json | pin | smoke
#
# Exits non-zero when any output fails verification.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Everything the build leaves behind stays under benchmarks/ (or where
# the caller's CARGO_TARGET_DIR points) and is git-ignored.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/ledger/Cargo.toml" >&2
ledger="$CARGO_TARGET_DIR/release/ledger"

case "${1:-}" in
  agree)
    exec "$ledger" "$@"
    ;;
  pin)
    exec "$ledger" pin --write "$here/ledger/expected/seed7.json"
    ;;
  smoke)
    exec "$ledger" smoke --out "$here/out"
    ;;
esac

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$ledger" bench --out "$here/out" "$@"
  fi
done

# Full ledger: also build the campaign CLI users run, so the ledger can
# prove its VA campaign and `campaign run --app VA` agree.
CARGO_TARGET_DIR="$CARGO_TARGET_DIR/cli" cargo build --release --offline --quiet \
  --manifest-path "$here/../Cargo.toml" -p bench --bin campaign >&2
exec "$ledger" all --out "$here/out" \
  --campaign-bin "$CARGO_TARGET_DIR/cli/release/campaign" "$@"
