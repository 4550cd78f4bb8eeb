#!/usr/bin/env bash
# Tier-1 gate: run before every push (referenced from ROADMAP.md).
#
#   scripts/check.sh
#
# Builds the whole workspace in release mode, runs the full test suite,
# and verifies rustfmt cleanliness. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> campaign CLI: --help exits 0, out-of-range --sms exits 2"
CAMPAIGN=target/release/campaign
"$CAMPAIGN" --help > /dev/null
"$CAMPAIGN" run --help > /dev/null
rc=0; "$CAMPAIGN" run --app VA --sms 0 2> /dev/null || rc=$?
[ "$rc" -eq 2 ]

echo "==> paper smoke (docs/CAMPAIGNS.md): every campaign once, resumable, same figures as the per-figure binaries"
# The whole suite at n = 2 (55 campaigns, 736 trials, ~4 s), once
# uninterrupted and once killed by --limit and resumed. Both must write
# the 13 figure CSVs of crates/bench/tests/fixtures/paper_n2 — generated
# once, at the parent of the change that introduced `campaign paper`
# (commit 39cbd8e), by the three binaries it replaced (baseline_study,
# fig03_utilization, hardening_study at --n-uarch 2 --n-sw 2), whose TMR
# trials all ran on the oracle path: an all-apps, both-layers hardened
# differential — Figure 12's static reuse sets as results/ holds them,
# and the same MANIFEST, from 44 golden runs, 55 shard starts and 22
# snapshot captures (every uarch campaign, base and TMR, is served by the
# fast-forward path; the 11 source-register campaigns of Figure 12 share
# the captures of their application's SVF campaign).
PAPER=$(mktemp -d)
PFLAGS=(paper --n-uarch 2 --n-sw 2)
"$CAMPAIGN" "${PFLAGS[@]}" --out-dir "$PAPER/a" --events "$PAPER/a.jsonl" \
  > /dev/null 2> "$PAPER/a.err"
test "$(grep -c '"kind":"shard_start"' "$PAPER/a.jsonl")" -eq 55
test "$(grep -c '"record":"snapshot"' "$PAPER/a.jsonl")" -eq 22
test "$(grep -c '"record":"snapshot".*"hardened":true' "$PAPER/a.jsonl")" -eq 11
grep -Eq '^golden_run +44 ' "$PAPER/a.err"
"$CAMPAIGN" "${PFLAGS[@]}" --out-dir "$PAPER/b" --limit 40 2> /dev/null \
  | grep 'partial — resume to finish' > /dev/null
"$CAMPAIGN" "${PFLAGS[@]}" --out-dir "$PAPER/b" > /dev/null 2>&1
test "$(ls crates/bench/tests/fixtures/paper_n2/*.csv | wc -l)" -eq 13
for f in crates/bench/tests/fixtures/paper_n2/*.csv; do
  cmp "$f" "$PAPER/a/$(basename "$f")"
  cmp "$f" "$PAPER/b/$(basename "$f")"
done
cmp results/fig12_reuse_sets.csv "$PAPER/a/fig12_reuse_sets.csv"
cmp "$PAPER/a/MANIFEST.csv" "$PAPER/b/MANIFEST.csv"
echo "paper smoke: uninterrupted == resumed == the per-figure binaries' CSVs"

echo "==> extension smoke (docs/CAMPAIGNS.md): same journals, same bytes as the study binaries it replaced"
# `campaign extensions` at the same flags into the directory the paper
# smoke just filled: 182 campaigns, of which the 22 unprotected standard
# ones are loaded from paper's journals (Executed = 0, no shard start) and
# 160 run (11 PVF, HotSpot / LUD / SCP at 2 and 8 SMs, 6 patterns x 22,
# 11 instruction-class campaigns of the two-level study).
# Then into an empty directory, killed by --limit and resumed. Both must
# write the 4 CSVs of crates/bench/tests/fixtures/ext_n2 and the same
# MANIFEST.extensions.csv. Three were generated at the parent of the
# change that deleted their binaries (commit b68f1dd) by layers_study,
# ablation_sizing and fault_model_study at --n-uarch 2 --n-sw 2;
# fig_ace_vs_avf.csv at the parent of the change that deleted ace_study
# (commit 1ff6c1a) by `ace_study --n-uarch 2 --out-dir D`, the same bytes
# whether D held the paper smoke's journals or nothing.
XFLAGS=(extensions --n-uarch 2 --n-sw 2)
"$CAMPAIGN" "${XFLAGS[@]}" --out-dir "$PAPER/a" --events "$PAPER/x.jsonl" > /dev/null 2>&1
test "$(grep -c '"kind":"shard_start"' "$PAPER/x.jsonl")" -eq 160
test "$(grep -Ec '^[^.]+\.(uarch|sw)\.base,[0-9]+,0,' "$PAPER/a/wall.extensions.csv")" -eq 22
"$CAMPAIGN" "${XFLAGS[@]}" --out-dir "$PAPER/c" --limit 300 2> /dev/null \
  | grep 'partial — resume to finish' > /dev/null
"$CAMPAIGN" "${XFLAGS[@]}" --out-dir "$PAPER/c" > /dev/null 2>&1
test "$(ls crates/bench/tests/fixtures/ext_n2/*.csv | wc -l)" -eq 4
for f in crates/bench/tests/fixtures/ext_n2/*.csv; do
  cmp "$f" "$PAPER/a/$(basename "$f")"
  cmp "$f" "$PAPER/c/$(basename "$f")"
done
cmp "$PAPER/a/MANIFEST.extensions.csv" "$PAPER/c/MANIFEST.extensions.csv"
rm -rf "$PAPER"
echo "extension smoke: after paper == killed and resumed on its own == the study binaries' CSVs"

echo "==> dispatch smoke (coordinator + 2 workers, one killed mid-run)"
# Single-process reference, then the same campaign through the dispatch
# service (docs/DISPATCH.md) with a worker that dies mid-lease via the
# --fail-after hook. The merged CSV must be byte-identical and the
# coordinator must report the dead worker's lease as reassigned.
DISP=$(mktemp -d)
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 \
  --csv "$DISP/single.csv" > /dev/null
"$CAMPAIGN" serve --app VA --layer uarch --n 6 --seed 1234 --shards 3 \
  --listen 127.0.0.1:0 --port-file "$DISP/port.txt" \
  --telemetry-port 0 --telemetry-port-file "$DISP/telemetry-port.txt" \
  --lease-ms 400 --backoff-ms 50 --max-backoff-ms 200 --wait-ms 50 \
  --csv "$DISP/dispatch.csv" > /dev/null 2> "$DISP/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$DISP/port.txt" ] && break; sleep 0.1; done
PORT=$(cat "$DISP/port.txt")
# Telemetry (docs/OBSERVABILITY.md): before any worker joins the
# campaign cannot finish, so the coordinator's endpoints are provably
# scraped mid-run. /metrics must pass the exposition lint and /status
# must parse and render as a fleet view.
for _ in $(seq 1 100); do [ -s "$DISP/telemetry-port.txt" ] && break; sleep 0.1; done
TPORT=$(cat "$DISP/telemetry-port.txt")
"$CAMPAIGN" scrape "127.0.0.1:$TPORT"
curl -sf "http://127.0.0.1:$TPORT/metrics" | "$CAMPAIGN" lint
# Plain grep (not -q) so the reader drains the whole stream: -q exits on
# first match and the writer panics on the broken pipe under pipefail.
curl -sf "http://127.0.0.1:$TPORT/status" | grep '"role":"coordinator"' > /dev/null
"$CAMPAIGN" status "127.0.0.1:$TPORT" | grep 'coordinator' > /dev/null
"$CAMPAIGN" top "127.0.0.1:$TPORT" --interval-ms 100 --iterations 2 > /dev/null
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name doomed \
  --fail-after 4 --heartbeat-ms 50 > /dev/null
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w1 --heartbeat-ms 50 \
  --telemetry-port 0 --telemetry-port-file "$DISP/w1-port.txt" --trace > /dev/null &
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w2 --heartbeat-ms 50 > /dev/null &
wait "$SERVE_PID"
wait
cmp "$DISP/single.csv" "$DISP/dispatch.csv"
grep -Eq '\([1-9][0-9]* reassigned' "$DISP/serve.log"

echo "==> replay backend smoke (docs/TRACE.md)"
# The trace-replay backend records the golden access trace, adjudicates
# each trial's footprint deadness against it, and synthesizes masked
# records for provably-dead trials; the assembled CSV must be
# byte-identical to the timed backend's — on VA (one launch), BFS (many
# launches with host glue between them, pointer chasing) and TMR VA
# (three copies, a vote launch after every launch).
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 --backend replay \
  --csv "$DISP/replay.csv" > /dev/null
cmp "$DISP/single.csv" "$DISP/replay.csv"
for target in "BFS" "VA --hardened"; do
  tag=${target// /}
  for backend in timed replay; do
    # $target is split on purpose: an app name and its flags.
    # shellcheck disable=SC2086
    "$CAMPAIGN" run --app $target --layer uarch --n 6 --seed 1234 \
      --backend "$backend" --csv "$DISP/$tag.$backend.csv" > /dev/null
  done
  cmp "$DISP/$tag.timed.csv" "$DISP/$tag.replay.csv"
done

echo "==> fault-model smoke (docs/FAULT_MODELS.md)"
# A non-default pattern must run end to end through the CLI (that every
# pattern classifies identically on every trial path is proven by
# crates/core/tests/path_differential.rs).
"$CAMPAIGN" run --app VA --layer uarch --n 4 --seed 1234 \
  --fault-model burst-row --csv "$DISP/burst.csv" | grep 'result fingerprint' > /dev/null
test -s "$DISP/burst.csv"
rm -rf "$DISP"
echo "dispatch + replay smoke: CSVs byte-identical; fault-model smoke: OK"

echo "==> adaptive sizing smoke (docs/TWOLEVEL.md)"
# CI-driven wave sizing must be deterministic and resumable: an
# uninterrupted run, a run killed mid-wave-2 (--limit) and resumed from
# its per-wave checkpoints, and a dispatched run (one coordinator, two
# plain workers that each stay connected for every wave) must all print
# the same plan/result fingerprints.
ADPT=$(mktemp -d)
AFLAGS=(--app VA --layer uarch --adaptive --ci-target 0.15
        --wave-size 6 --max-trials 24 --seed 53083)
"$CAMPAIGN" run "${AFLAGS[@]}" --csv "$ADPT/adaptive.csv" \
  --events "$ADPT/events.jsonl" > "$ADPT/one.txt" 2> /dev/null
# Captured once per application (docs/PERF.md): several waves, one
# snapshot capture.
test "$(grep -c '"record":"wave"' "$ADPT/events.jsonl")" -ge 2
test "$(grep -c '"record":"snapshot"' "$ADPT/events.jsonl")" -eq 1
# The CSV parses (header + one row per stratum) and every stratum
# converged on the CI target before the trial cap.
head -1 "$ADPT/adaptive.csv" | grep -q '^Kernel,Target,Trials,Fail'
test "$(wc -l < "$ADPT/adaptive.csv")" -eq 6
! grep -q ',cap$' "$ADPT/adaptive.csv"
"$CAMPAIGN" run "${AFLAGS[@]}" --checkpoint "$ADPT/ck.jsonl" --limit 33 \
  > /dev/null
"$CAMPAIGN" run "${AFLAGS[@]}" --checkpoint "$ADPT/ck.jsonl" \
  --resume "$ADPT/ck.jsonl" > "$ADPT/two.txt"
cmp "$ADPT/one.txt" "$ADPT/two.txt"
"$CAMPAIGN" serve "${AFLAGS[@]}" --shards 3 --listen 127.0.0.1:0 \
  --port-file "$ADPT/port.txt" --lease-ms 400 --backoff-ms 50 \
  --max-backoff-ms 200 --wait-ms 50 --telemetry-port 0 \
  --telemetry-port-file "$ADPT/telemetry-port.txt" \
  > "$ADPT/served.txt" 2> "$ADPT/serve.log" &
ADPT_PID=$!
for _ in $(seq 1 100); do [ -s "$ADPT/port.txt" ] && [ -s "$ADPT/telemetry-port.txt" ] && break; sleep 0.1; done
APORT=$(cat "$ADPT/port.txt")
# One telemetry port for the whole campaign, up before any worker joins.
"$CAMPAIGN" scrape "127.0.0.1:$(cat "$ADPT/telemetry-port.txt")"
"$CAMPAIGN" work --connect "127.0.0.1:$APORT" --name aw1 > /dev/null &
"$CAMPAIGN" work --connect "127.0.0.1:$APORT" --name aw2 > /dev/null &
wait "$ADPT_PID"
wait
# One connection per worker for the campaign, not one per worker and wave
# (a worker that starts after the last wave finished never joins).
grep -Eq 'adaptive complete: [0-9]+ waves, [12] workers,' "$ADPT/serve.log"
grep 'fingerprint' "$ADPT/one.txt" > "$ADPT/fp-single.txt"
grep 'fingerprint' "$ADPT/served.txt" > "$ADPT/fp-served.txt"
cmp "$ADPT/fp-single.txt" "$ADPT/fp-served.txt"
rm -rf "$ADPT"
echo "adaptive smoke: single-shot == resumed == dispatched"

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --release --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> perf ledger gate (benchmarks/check.sh: the symbols it pins still build and run)"
benchmarks/check.sh

echo "==> size (reported, not gated): code lines under crates/*/src — no blanks, comments or #[cfg(test)] modules"
awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*(\/\/|$)/{n[FILENAME]++; all++} END{for(f in n) if(f~/\/(harness|captures|codec|recorder|gpu|lifetime|probe|fault|replay|campaign|plan|records|adaptive|twolevel|coordinator|worker|driver|paper|figures|exec|op|mem|functional)\.rs$/) print n[f], f; print all, "total"}' $(find crates/*/src -name '*.rs') | sort -k2

echo "tier-1 gate: OK"
