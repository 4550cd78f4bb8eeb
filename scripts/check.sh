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
# in that build too, their per-path statistics pinned (trial_stats), and
# so are the kernels unit tests: CTA replay's dirty set (the merged walk
# that settles a simulated CTA's stores against its golden ones), the
# budget edges of crediting, and host reads by the slice.
cargo test -q --release -p vgpu-sim --test lane_masks --test proptest_engines --test snapshots
cargo test -q --release -p kernels --test golden_schedule --test cta_replay --test fast_forward \
  --test trial_stats
cargo test -q --release -p kernels --lib

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

echo "==> the adaptive sizer, compiled as the perf ledger compiles it"
# The ledger's avf_adaptive runs `run_adaptive` in release, where each
# stratum stops once the floating-point half-width of its Wilson interval
# meets the target: its wave schedule is checked in that build too.
cargo test -q --release -p stat --lib

echo "==> campaign CLI: --help exits 0, out-of-range --sms exits 2"
CAMPAIGN=target/release/campaign
"$CAMPAIGN" --help > /dev/null
"$CAMPAIGN" run --help > /dev/null
rc=0; "$CAMPAIGN" run --app VA --sms 0 2> /dev/null || rc=$?
[ "$rc" -eq 2 ]

echo "==> paper smoke (docs/CAMPAIGNS.md): every campaign once on each backend, resumable across them, same figures as the per-figure binaries"
# The whole suite at n = 2 (55 campaigns, 736 trials, ~4 s) three times:
# on the default (replay) backend, on --backend timed, and killed by
# --limit on the default and resumed with --backend timed — a journal may
# mix backends, because records are identical on every path. All three
# must write the 13 figure CSVs of crates/bench/tests/fixtures/paper_n2 —
# generated once, at the parent of the change that introduced `campaign
# paper` (commit 39cbd8e), by the three binaries it replaced
# (baseline_study, fig03_utilization, hardening_study at --n-uarch 2
# --n-sw 2), whose TMR trials all ran on the oracle path: an all-apps,
# both-layers hardened differential — Figure 12's static reuse sets as
# results/ holds them, and the same MANIFEST. Either backend makes 44
# golden runs (the exit profile's span_us{span=kernels.golden} count: the
# 11 source-register campaigns of Figure 12 share the captures of their
# application's SVF campaign) and 55 shard starts. On timed, every uarch
# campaign, base and TMR, captures its snapshot set: 22, 11 of them
# hardened. On replay, every uarch campaign records its golden access
# trace (22 trace.capture spans), and a snapshot set is captured only once
# a trial falls back to simulation: at n = 2 three campaigns have every
# fault provably dead, so 19 snapshot records, 10 of them hardened.
PAPER=$(mktemp -d)
PFLAGS=(paper --n-uarch 2 --n-sw 2)
"$CAMPAIGN" "${PFLAGS[@]}" --out-dir "$PAPER/a" --events "$PAPER/a.jsonl" \
  > /dev/null 2> "$PAPER/a.err"
test "$(grep -c '"kind":"shard_start"' "$PAPER/a.jsonl")" -eq 55
test "$(grep -c '"record":"snapshot"' "$PAPER/a.jsonl")" -eq 19
test "$(grep -c '"record":"snapshot".*"hardened":true' "$PAPER/a.jsonl")" -eq 10
grep -Eq '^span_us\{span=kernels\.golden\} +44 ' "$PAPER/a.err"
grep -Eq '^span_us\{span=trace\.capture\} +22 ' "$PAPER/a.err"
"$CAMPAIGN" "${PFLAGS[@]}" --backend timed --out-dir "$PAPER/t" --events "$PAPER/t.jsonl" \
  > /dev/null 2> "$PAPER/t.err"
test "$(grep -c '"kind":"shard_start"' "$PAPER/t.jsonl")" -eq 55
test "$(grep -c '"record":"snapshot"' "$PAPER/t.jsonl")" -eq 22
test "$(grep -c '"record":"snapshot".*"hardened":true' "$PAPER/t.jsonl")" -eq 11
grep -Eq '^span_us\{span=kernels\.golden\} +44 ' "$PAPER/t.err"
"$CAMPAIGN" "${PFLAGS[@]}" --out-dir "$PAPER/b" --limit 40 2> /dev/null \
  | grep 'partial — resume to finish' > /dev/null
"$CAMPAIGN" "${PFLAGS[@]}" --backend timed --out-dir "$PAPER/b" > /dev/null 2>&1
test "$(ls crates/bench/tests/fixtures/paper_n2/*.csv | wc -l)" -eq 13
for f in crates/bench/tests/fixtures/paper_n2/*.csv; do
  for run in a t b; do
    cmp "$f" "$PAPER/$run/$(basename "$f")"
  done
done
cmp results/fig12_reuse_sets.csv "$PAPER/a/fig12_reuse_sets.csv"
cmp "$PAPER/a/MANIFEST.csv" "$PAPER/t/MANIFEST.csv"
cmp "$PAPER/a/MANIFEST.csv" "$PAPER/b/MANIFEST.csv"
echo "paper smoke: replay == timed == resumed across backends == the per-figure binaries' CSVs"

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

echo "==> shard smoke (docs/CAMPAIGNS.md): three shard processes, one killed and resumed, merged"
# The multi-machine path is one `run --shards 3 --shard-index i` process
# per machine, each journaling with --checkpoint, and one `merge` of the
# journals. Shard 1 is killed by --limit (3 of its 10 trials journaled)
# and finished by the same --checkpoint. Re-running it over its complete
# journal exits 0 and leaves the file as it was; running shard 2 over it
# is another shard's journal: exit 1, file untouched. The merged CSV must
# be byte-identical to the single-process one (VA: 1 kernel x 5
# structures x 6 = 30 trials). The reference names the timed backend,
# which simulates every trial; the shards run on the default replay
# backend, which synthesizes the trials it proves dead: records are
# identical on both. The single-process CSV is also the replay smoke's
# reference below.
SMOKE=$(mktemp -d)
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 --backend timed \
  --csv "$SMOKE/single.csv" > /dev/null
SFLAGS=(--app VA --layer uarch --n 6 --seed 1234 --shards 3)
"$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 0 --checkpoint "$SMOKE/shard0.jsonl" > /dev/null
"$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 1 --checkpoint "$SMOKE/shard1.jsonl" --limit 3 \
  | grep '3/10 trials classified.*partial — resume to finish' > /dev/null
"$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 2 --checkpoint "$SMOKE/shard2.jsonl" > /dev/null
"$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 1 --checkpoint "$SMOKE/shard1.jsonl" > /dev/null
"$CAMPAIGN" merge --app VA --layer uarch --n 6 --seed 1234 --csv "$SMOKE/merged.csv" \
  "$SMOKE"/shard{0,1,2}.jsonl > /dev/null
cmp "$SMOKE/single.csv" "$SMOKE/merged.csv"
cp "$SMOKE/shard1.jsonl" "$SMOKE/shard1.before"
"$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 1 --checkpoint "$SMOKE/shard1.jsonl" > /dev/null
cmp "$SMOKE/shard1.before" "$SMOKE/shard1.jsonl"
rc=0; "$CAMPAIGN" run "${SFLAGS[@]}" --shard-index 2 --checkpoint "$SMOKE/shard1.jsonl" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ]
cmp "$SMOKE/shard1.before" "$SMOKE/shard1.jsonl"

echo "==> result tables (crates/bench/tests/fixtures/run_tables): run and merge print the pinned numbers in release"
# The tables `campaign run` and `merge` print, from the release binary
# users run: each line of commands.txt against its stdout and --csv
# fixtures, and the first command as two shards merged. `cargo test`
# checks the same fixtures with the debug binary (cli_tables.rs).
TABLES=crates/bench/tests/fixtures/run_tables
while read -r stem args; do
  # $args is split on purpose: a command line.
  # shellcheck disable=SC2086
  "$CAMPAIGN" $args --csv "$SMOKE/$stem.csv" > "$SMOKE/$stem.txt" 2> /dev/null
  cmp "$TABLES/$stem.txt" "$SMOKE/$stem.txt"
  cmp "$TABLES/$stem.csv" "$SMOKE/$stem.csv"
done < "$TABLES/commands.txt"
for i in 0 1; do
  "$CAMPAIGN" run --app VA --n 8 --shards 2 --shard-index $i --checkpoint "$SMOKE/t$i.jsonl" \
    > /dev/null 2>&1
done
"$CAMPAIGN" merge --app VA --n 8 --csv "$SMOKE/va_n8_merge.csv" "$SMOKE"/t{0,1}.jsonl \
  > "$SMOKE/va_n8_merge.txt" 2> /dev/null
cmp "$TABLES/va_n8_merge.txt" "$SMOKE/va_n8_merge.txt"
cmp "$TABLES/va_n8_merge.csv" "$SMOKE/va_n8_merge.csv"

echo "==> replay backend smoke (docs/TRACE.md)"
# The trace-replay backend records the golden access trace, adjudicates
# each trial's footprint deadness against it, and synthesizes masked
# records for provably-dead trials; the assembled CSV must be
# byte-identical to the timed backend's — on VA (one launch), BFS (many
# launches with host glue between them, pointer chasing) and TMR VA
# (three copies, a vote launch after every launch).
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 --backend replay \
  --csv "$SMOKE/replay.csv" > /dev/null
cmp "$SMOKE/single.csv" "$SMOKE/replay.csv"
for target in "BFS" "VA --hardened"; do
  tag=${target// /}
  for backend in timed replay; do
    # $target is split on purpose: an app name and its flags.
    # shellcheck disable=SC2086
    "$CAMPAIGN" run --app $target --layer uarch --n 6 --seed 1234 \
      --backend "$backend" --csv "$SMOKE/$tag.$backend.csv" > /dev/null
  done
  cmp "$SMOKE/$tag.timed.csv" "$SMOKE/$tag.replay.csv"
done

echo "==> fault-model smoke (docs/FAULT_MODELS.md)"
# A non-default pattern must run end to end through the CLI (that every
# pattern classifies identically on every trial path is proven by
# crates/core/tests/path_differential.rs).
"$CAMPAIGN" run --app VA --layer uarch --n 4 --seed 1234 \
  --fault-model burst-row --csv "$SMOKE/burst.csv" | grep 'result fingerprint' > /dev/null
test -s "$SMOKE/burst.csv"
rm -rf "$SMOKE"
echo "shard + replay smoke: CSVs byte-identical; fault-model smoke: OK"

echo "==> adaptive sizing smoke (docs/TWOLEVEL.md)"
# CI-driven wave sizing must be deterministic and resumable: an
# uninterrupted run and a run killed mid-wave-2 (--limit) and resumed from
# its per-wave checkpoints must print the same plan/result fingerprints.
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
"$CAMPAIGN" run "${AFLAGS[@]}" --checkpoint "$ADPT/ck.jsonl" > "$ADPT/two.txt"
cmp "$ADPT/one.txt" "$ADPT/two.txt"
rm -rf "$ADPT"
echo "adaptive smoke: single-shot == resumed"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps with rustdoc warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> perf ledger gate (benchmarks/check.sh: the symbols it pins still build and run)"
benchmarks/check.sh

echo "==> size (reported, not gated): code lines under crates/*/src — no blanks, comments or #[cfg(test)] modules — and campaign flags"
awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*(\/\/|$)/{n[FILENAME]++; all++; if(FILENAME~/^crates\/vgpu-sim\/src\//) sim++} END{for(f in n) if(f~/\/(harness|ctalog|ffwd|captures|codec|recorder|gpu|lifetime|probe|fault|replay|campaign|plan|records|adaptive|twolevel|coordinator|worker|driver|paper|figures|exec|decode|op|mem|functional|timed|cache|snapshot|stats)\.rs$/) print n[f], f; print sim, "crates/vgpu-sim/src"; print all, "total"}' $(find crates/*/src -name '*.rs') | sort -k2
# And the campaign's flag table: one `flag(...)` row per command-line flag.
awk '/^pub const FLAGS/{t=1} t && /^\];/{t=0} t && /^[[:space:]]*flag\(/{n++} END{print n, "flags in crates/bench/src/cli.rs"}' crates/bench/src/cli.rs

echo "tier-1 gate: OK"
