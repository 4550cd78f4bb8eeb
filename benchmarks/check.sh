#!/usr/bin/env bash
# Ledger tooling gate: formatting, lints, unit tests, and a smoke run of
# every workload at n = 2 — all offline against the vendored shims.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/ledger/Cargo.toml"

echo "==> cargo fmt --check"
cargo fmt --manifest-path "$manifest" --check
echo "==> cargo clippy -D warnings"
cargo clippy --offline --quiet --release --all-targets --manifest-path "$manifest" -- -D warnings
echo "==> cargo test"
cargo test --offline --quiet --release --manifest-path "$manifest"
echo "==> ledger smoke"
"$here/run.sh" smoke
echo "ledger check: OK"
