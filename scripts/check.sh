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

echo "==> the interpreter's differential tests and the schedule pins, compiled as the perf ledger compiles them"
# Release code is what every campaign and the ledger run: the block runner,
# the FMA rows (vector or `mul_add`) and the timed engine's deferred pure
# ops (run at the warp's next impure issue, or before a snapshot, a
# convergence compare or a fault) are checked in that build too: against
# eager runs under faults, against every timed golden launch's `Stats`,
# and through snapshot capture, resume and convergence. Both accelerated
# trial paths — fast-forward and CTA replay, with their preamble images
# and their stop where a trial re-joins golden — are held to the oracle
# in that build too.
cargo test -q --release -p vgpu-sim --test lane_masks --test proptest_engines --test snapshots
cargo test -q --release -p kernels --test golden_schedule --test cta_replay --test fast_forward

echo "==> the probe stream's pins and the replay index, compiled as the perf ledger compiles the recorder"
# The register-operand rows, the recorder and the read-run fold run in
# release in every ledger capture: the expanded-stream pin of all 11 apps
# and the index-vs-touch-list property are checked in that build too. The
# index's verdicts decide which replay records are synthesized in that
# build, so the Dead-verdict cross-checks against real faulty runs (VA,
# and NW and LUD, whose register rows split) and the replay backend
# against the oracle (path_differential) run there as well.
cargo test -q --release -p trace --test golden_pass --test live_intervals --test replay_adjudication
cargo test -q --release -p relia --test path_differential

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
# and the same MANIFEST, from 44 golden runs (the exit profile's
# span_us{span=kernels.golden} count), 55 shard starts and 22
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
grep -Eq '^span_us\{span=kernels\.golden\} +44 ' "$PAPER/a.err"
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
# coordinator must report the dead worker's lease as reassigned. The
# coordinator's event log is the fleet's one telemetry output
# (docs/OBSERVABILITY.md): it must show the three workers joining and the
# campaign completing with every planned trial held (VA: 1 kernel x 5
# structures x 6 = 30). w1 runs with --trace: its spans reach the event
# log, and `campaign timeline` lists a kernels.trials row per trial it ran.
DISP=$(mktemp -d)
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 \
  --csv "$DISP/single.csv" > /dev/null
"$CAMPAIGN" serve --app VA --layer uarch --n 6 --seed 1234 --shards 3 \
  --listen 127.0.0.1:0 --port-file "$DISP/port.txt" \
  --lease-ms 400 --csv "$DISP/dispatch.csv" --events "$DISP/serve.jsonl" \
  > /dev/null 2> "$DISP/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$DISP/port.txt" ] && break; sleep 0.1; done
PORT=$(cat "$DISP/port.txt")
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name doomed --fail-after 4 > /dev/null
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w1 --trace > /dev/null &
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w2 > /dev/null &
wait "$SERVE_PID"
wait
cmp "$DISP/single.csv" "$DISP/dispatch.csv"
grep -Eq '\([1-9][0-9]* reassigned' "$DISP/serve.log"
test "$(grep -c '"kind":"worker_join"' "$DISP/serve.jsonl")" -eq 3
for w in doomed w1 w2; do
  grep -q "\"kind\":\"worker_join\",\"worker\":\"$w\"" "$DISP/serve.jsonl"
done
test "$(grep -c '"kind":"complete".*"done":30,"total":30' "$DISP/serve.jsonl")" -eq 1
"$CAMPAIGN" timeline "$DISP/serve.jsonl" | grep -Eq '  kernels\.trials +w1 '

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
  --port-file "$ADPT/port.txt" --lease-ms 400 \
  > "$ADPT/served.txt" 2> "$ADPT/serve.log" &
ADPT_PID=$!
for _ in $(seq 1 100); do [ -s "$ADPT/port.txt" ] && break; sleep 0.1; done
APORT=$(cat "$ADPT/port.txt")
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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps with rustdoc warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> perf ledger gate (benchmarks/check.sh: the symbols it pins still build and run)"
benchmarks/check.sh

echo "==> size (reported, not gated): code lines under crates/*/src — no blanks, comments or #[cfg(test)] modules — and campaign flags"
awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*(\/\/|$)/{n[FILENAME]++; all++} END{for(f in n) if(f~/\/(harness|captures|codec|recorder|gpu|lifetime|probe|fault|replay|campaign|plan|records|adaptive|twolevel|coordinator|worker|driver|paper|figures|exec|decode|op|mem|functional|timed|cache|snapshot)\.rs$/) print n[f], f; print all, "total"}' $(find crates/*/src -name '*.rs') | sort -k2
# And the campaign's flag table: one `flag(...)` row per command-line flag.
awk '/^pub const FLAGS/{t=1} t && /^\];/{t=0} t && /^[[:space:]]*flag\(/{n++} END{print n, "flags in crates/bench/src/cli.rs"}' crates/bench/src/cli.rs

echo "tier-1 gate: OK"
