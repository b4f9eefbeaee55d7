#!/usr/bin/env bash
# The full local CI gate. Run before pushing.
#
#   ./ci.sh          # build + tests + lint + byte-identity smokes + perf gates
#                    # (tier-1 is the first two steps)
#   ./ci.sh quick    # tier-1 only: release build + root-package tests
set -euo pipefail
cd "$(dirname "$0")"

# --- per-stage timing -------------------------------------------------------
# `stage NAME` closes the previous stage's clock and opens the next; the
# summary at the end shows where CI time actually goes.
STAGE_NAMES=()
STAGE_SECS=()
STAGE_T0=$SECONDS
CURRENT_STAGE=""
stage() {
    local now=$SECONDS
    if [ -n "$CURRENT_STAGE" ]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=($((now - STAGE_T0)))
    fi
    CURRENT_STAGE="$1"
    STAGE_T0=$now
    echo "==> $1"
}
stage_summary() {
    local now=$SECONDS
    if [ -n "$CURRENT_STAGE" ]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=($((now - STAGE_T0)))
        CURRENT_STAGE=""
    fi
    local i total=0
    echo
    echo "==> per-stage timing"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '%5ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
        total=$((total + STAGE_SECS[i]))
    done
    printf '%5ss  total\n' "$total"
}

stage "cargo build --release"
cargo build --release

stage "cargo test -q (tier-1: root package, incl. serve integration)"
cargo test -q

if [ "${1:-}" = "quick" ]; then
    stage_summary
    exit 0
fi

stage "cargo build --release --workspace --bins --examples"
# The root build above skips the crate binaries (demodq-serve,
# demodq-bench, studybench, loadgen) and the examples; compile everything
# the later gates run. Tests build in debug below, and clippy
# --all-targets type-checks every other target.
cargo build --release --workspace --bins --examples

stage "lint coverage: every workspace member lives under a linted root"
# demodq-lint scans the crates/, vendor/ and src/ trees. A workspace
# member added anywhere else would silently escape the determinism and
# safety lints, so a member manifest outside those roots fails the gate.
# The members come from cargo itself: a separate workspace such as
# perfbench/ is not a member, and its manifest is not checked.
members=$(cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, os, sys
meta = json.load(sys.stdin)
ids = set(meta["workspace_members"])
for pkg in meta["packages"]:
    if pkg["id"] in ids:
        print(os.path.relpath(pkg["manifest_path"], meta["workspace_root"]))
')
[ -n "$members" ] || {
    echo "FAIL: cargo metadata listed no workspace members"
    exit 1
}
while IFS= read -r manifest; do
    case "$manifest" in
        Cargo.toml | crates/*/Cargo.toml | vendor/*/Cargo.toml) ;;
        *)
            echo "FAIL: workspace member $manifest is outside demodq-lint coverage (crates/, vendor/, root)"
            exit 1
            ;;
    esac
done <<< "$members"
echo "lint coverage OK ($(wc -l <<< "$members") workspace members)"

stage "demodq-lint (token lints + flow analyses T001/L001/E001/K001/U001 vs lint-baseline.txt)"
cargo run -q --release -p demodq-lint -- --format json

stage "lint fixture self-check (seeded violations must fail an empty baseline)"
# Guards the gate itself: the committed fixture tree seeds at least one
# violation per flow-analysis code, so a pass against an empty baseline
# means the analyses have silently stopped finding anything.
rc=0
cargo run -q --release -p demodq-lint -- \
    --root crates/lint/tests/fixtures/analyze/ws --no-baseline \
    --format json > target/lint_fixture.json || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: seeded fixture tree exited $rc (want 1: violations found)"
    exit 1
fi
for code in T001 L001 E001 K001 U001; do
    grep -q "\"$code\"" target/lint_fixture.json || {
        echo "FAIL: $code did not fire on the seeded fixture tree"
        exit 1
    }
done
echo "lint fixture self-check OK (all five flow codes fired)"

stage "cargo test --workspace --exclude demodq-repro -q"
# The tier-1 stage above already ran the root package's tests.
cargo test --workspace --exclude demodq-repro -q

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "crash-resume smoke (kill -9 mid-study, resume from journal)"
# `demodq-bench study` was compiled by the --workspace --bins --examples
# build above.
SMOKE_DIR=target/resume_smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
STUDY=(target/release/demodq-bench study)
SMOKE_ARGS=(--error mislabels --scale smoke --seed 42)

# 1. Clean reference run (no journal).
"${STUDY[@]}" "${SMOKE_ARGS[@]}" --out "$SMOKE_DIR/clean.json"

# 2. Journaled run killed with SIGKILL after ~50% of the 10 tasks. The
#    self-kill makes a nonzero exit the expected outcome.
if "${STUDY[@]}" "${SMOKE_ARGS[@]}" --journal "$SMOKE_DIR/journal" --kill-after 5; then
    echo "FAIL: the --kill-after run was supposed to die mid-study"
    exit 1
fi

# 3. Resume from the journal; record the summary lines.
"${STUDY[@]}" "${SMOKE_ARGS[@]}" --journal "$SMOKE_DIR/journal" --resume \
    --out "$SMOKE_DIR/resumed.json" | tee "$SMOKE_DIR/resume.log"

# Completed tasks must be replayed, not re-executed...
hits=$(grep -oE 'journal-hits: [0-9]+' "$SMOKE_DIR/resume.log" | grep -oE '[0-9]+')
if [ "${hits:-0}" -lt 5 ]; then
    echo "FAIL: expected at least 5 journal hits on resume, got '${hits:-none}'"
    exit 1
fi
# ...the journal must parse without warnings...
grep -q 'journal-warnings: 0' "$SMOKE_DIR/resume.log" || {
    echo "FAIL: resume reported journal warnings"
    exit 1
}
# ...and the resumed export must be byte-identical to the clean run.
cmp "$SMOKE_DIR/clean.json" "$SMOKE_DIR/resumed.json" || {
    echo "FAIL: resumed results differ from the uninterrupted run"
    exit 1
}
echo "crash-resume smoke OK (journal hits: $hits)"

stage "thread-count byte-identity smoke (1 vs 2 vs 8 threads)"
# The serial run is the reference semantics; any parallel run must export
# the identical bytes (unit seeds derive from grid position, never from
# the schedule, and each unit trains serially on the worker that took
# it). The 2-thread leg exercises the uneven rayon::join splits a
# power-of-two pool never sees.
DEMODQ_THREADS=1 "${STUDY[@]}" "${SMOKE_ARGS[@]}" --out "$SMOKE_DIR/threads1.json"
DEMODQ_THREADS=2 "${STUDY[@]}" "${SMOKE_ARGS[@]}" --out "$SMOKE_DIR/threads2.json"
DEMODQ_THREADS=8 "${STUDY[@]}" "${SMOKE_ARGS[@]}" --out "$SMOKE_DIR/threads8.json"
cmp "$SMOKE_DIR/threads1.json" "$SMOKE_DIR/threads2.json" || {
    echo "FAIL: 2-thread export differs from the 1-thread reference"
    exit 1
}
cmp "$SMOKE_DIR/threads1.json" "$SMOKE_DIR/threads8.json" || {
    echo "FAIL: 8-thread export differs from the 1-thread reference"
    exit 1
}
echo "thread-count byte-identity smoke OK"

stage "large-tier smoke (german @ 2^20-row block pool, journal resume byte-identity)"
# One dataset, one model at --scale large: the pool is a full million-row
# block built by chunked generation and sampled through the block store.
# The journaled first run and a --resume replay must export identical
# bytes (the journal fingerprint covers the scale, so large-tier records
# can never be replayed into a small-tier study or vice versa). The first
# run must also equal results/large_smoke.json byte for byte: at 2^20 rows
# nothing else checks the cells the study samples from the store.
LARGE_DIR=target/large_smoke
rm -rf "$LARGE_DIR"
mkdir -p "$LARGE_DIR"
LARGE_ARGS=(--error mislabels --scale large --seed 42 --datasets german --models log-reg)
"${STUDY[@]}" "${LARGE_ARGS[@]}" --journal "$LARGE_DIR/journal" \
    --out "$LARGE_DIR/first.json"
"${STUDY[@]}" "${LARGE_ARGS[@]}" --journal "$LARGE_DIR/journal" --resume \
    --out "$LARGE_DIR/resumed.json" | tee "$LARGE_DIR/resume.log"
grep -q 'journal-warnings: 0' "$LARGE_DIR/resume.log" || {
    echo "FAIL: large-tier resume reported journal warnings"
    exit 1
}
hits=$(grep -oE 'journal-hits: [0-9]+' "$LARGE_DIR/resume.log" | grep -oE '[0-9]+')
if [ "${hits:-0}" -lt 1 ]; then
    echo "FAIL: large-tier resume replayed no journaled tasks"
    exit 1
fi
cmp "$LARGE_DIR/first.json" "$LARGE_DIR/resumed.json" || {
    echo "FAIL: large-tier resumed export differs from the first run"
    exit 1
}
cmp "$LARGE_DIR/first.json" results/large_smoke.json || {
    echo "FAIL: large-tier export differs from results/large_smoke.json. If the"
    echo "change is meant to move it, regenerate that file with the first command"
    echo "above (--out results/large_smoke.json) and record why in CHANGES.md"
    exit 1
}
echo "large-tier smoke OK (journal hits: $hits, cmp-identical to results/large_smoke.json)"

stage "rectifying-study byte-identity smoke (--repair-side both, 1 vs 8 threads)"
# The `both` arms refit and leaf-rectify tree models inside each unit;
# the schedule-independence guarantee must survive that extra work.
DEMODQ_THREADS=1 "${STUDY[@]}" "${SMOKE_ARGS[@]}" --repair-side both \
    --out "$SMOKE_DIR/rectify1.json"
DEMODQ_THREADS=8 "${STUDY[@]}" "${SMOKE_ARGS[@]}" --repair-side both \
    --out "$SMOKE_DIR/rectify8.json"
grep -q '"repair_side": "both"' "$SMOKE_DIR/rectify1.json" || {
    echo "FAIL: rectifying export does not record its repair side"
    exit 1
}
cmp "$SMOKE_DIR/rectify1.json" "$SMOKE_DIR/rectify8.json" || {
    echo "FAIL: 8-thread rectifying export differs from the 1-thread reference"
    exit 1
}
echo "rectifying-study byte-identity smoke OK"

stage "artifact smoke (run-study, advisor, ablation, gen-data at smoke scale)"
# The paper's tables and figures come from demodq-bench subcommands; run
# the ones no smoke above drives, from a throwaway directory under
# target/, since they write results/ and data/ relative to it.
ARTIFACT_DIR=target/artifact_smoke
rm -rf "$ARTIFACT_DIR"
mkdir -p "$ARTIFACT_DIR"
(
    cd "$ARTIFACT_DIR"
    BENCH=../release/demodq-bench
    "$BENCH" run-study --scale smoke > run_study.log
    "$BENCH" advisor --scale smoke > advisor.log
    "$BENCH" ablation > ablation.log
    "$BENCH" gen-data --scale smoke > gen_data.log
)
[ -s "$ARTIFACT_DIR/results/study_summary.json" ] || {
    echo "FAIL: run-study wrote no results/study_summary.json"
    exit 1
}
csvs=$(find "$ARTIFACT_DIR/data" -name '*.csv' | wc -l)
if [ "$csvs" -ne 5 ]; then
    echo "FAIL: gen-data wrote $csvs data/*.csv files (want 5)"
    exit 1
fi
echo "artifact smoke OK"

stage "examples run (every examples/*.rs exits 0 with output)"
# The examples document the library API, and demodq-lint's U001 counts
# their mains as entries, so each must run, not only compile. None writes
# a file; each still runs from a throwaway directory under target/.
EXAMPLE_DIR=target/examples_run
rm -rf "$EXAMPLE_DIR"
mkdir -p "$EXAMPLE_DIR"
for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    (cd "$EXAMPLE_DIR" && "../release/examples/$name" > "$name.log") || {
        echo "FAIL: example $name exited nonzero"
        exit 1
    }
    [ -s "$EXAMPLE_DIR/$name.log" ] || {
        echo "FAIL: example $name printed nothing"
        exit 1
    }
done
echo "examples OK ($(ls examples/*.rs | wc -l) ran)"

stage "RQ1 figures, RQ2 tables and ablation match results/ (default scale)"
# Figures 1-2 and Tables II-XIII are the committed RQ1/RQ2 outputs, and
# the detectors' flags (the isolation forest's among them) and the study
# scores feed them. Regenerating them at the committed settings must
# reproduce results/ byte for byte, so a change that moves a flag or a
# score has to recommit them. The ablation output comes from the
# artifact smoke above.
FIG_DIR=target/figures
rm -rf "$FIG_DIR"
mkdir -p "$FIG_DIR"
BENCH=target/release/demodq-bench
"$BENCH" fig1 --scale default --seed 42 --drilldown > "$FIG_DIR/fig1.txt"
"$BENCH" fig2 --scale default --seed 42 > "$FIG_DIR/fig2.txt"
for fig in fig1 fig2; do
    cmp "$FIG_DIR/$fig.txt" "results/$fig.txt" || {
        echo "FAIL: $fig output differs from results/$fig.txt. If the change is"
        echo "meant to move it, regenerate both results/fig1.txt and"
        echo "results/fig2.txt with the commands above and record why in CHANGES.md"
        exit 1
    }
done
for error in missing_values outliers mislabels; do
    file=tables_${error%_values}.txt
    "$BENCH" tables --error "$error" --scale default --seed 42 > "$FIG_DIR/$file"
    cmp "$FIG_DIR/$file" "results/$file" || {
        echo "FAIL: tables --error $error differs from results/$file. If the change"
        echo "is meant to move it, regenerate the file with the command above and"
        echo "record why in CHANGES.md"
        exit 1
    }
done
cmp "$ARTIFACT_DIR/ablation.log" results/ablation.txt || {
    echo "FAIL: ablation output differs from results/ablation.txt"
    exit 1
}
echo "RQ1 figures, RQ2 tables and ablation OK (cmp-identical to results/)"

stage "perfbench builds against the crates (cargo test --release, its own workspace)"
# perfbench is a separate workspace that calls the crates by path:
# codec::frame_from_rows / rows_from_frame, DriftStore::observe,
# FeatureEncoder::transform_with_report, App::route_or_defer and
# App::predict_batch among others. Building it and running its own tests
# here turns a signature change that would break the benchmark into a
# CI failure instead of a broken benchmark run.
cargo test -q --release --manifest-path perfbench/Cargo.toml

# The perf gates run last: on a loaded or slow box they can fail on
# timing alone, and the byte-identity smokes above must still have run
# by then.
stage "committed baseline carries the per-kernel and substrate bench fields"
# Cheap pre-flight before the expensive bench run: the committed baseline
# must already have every micro.kernels.* section and the substrate's
# generation rate, or the studybench required-field check below would
# only fail after minutes of work.
for kernel in hist knn_block logreg_batch; do
    grep -q "\"$kernel\"" BENCH_study.json || {
        echo "FAIL: BENCH_study.json is missing the micro.kernels.$kernel section"
        exit 1
    }
done
grep -q '"gen_rows_per_sec"' BENCH_study.json || {
    echo "FAIL: BENCH_study.json is missing substrate.gen_rows_per_sec"
    exit 1
}

stage "studybench perf gate (vs committed BENCH_study.json)"
# Checks required fields on both reports (including micro.kernels.* and
# substrate.*), the end-to-end evals/s floor, the per-kernel speedup
# floors, the substrate generation rows/s floor, and the absolute
# peak-RSS gate on the chunk-generated million-row store (< 2x the
# store's heap plus a 64 MiB allowance: ~97.5 MiB for the ~17 MiB german
# store, which one whole-pool DataFrame held beyond it would exceed).
cargo run --release -p demodq-bench --bin studybench -- \
    --smoke --out target/BENCH_study.json --baseline BENCH_study.json

stage "serve-bench throughput gate (vs committed BENCH_serve.json)"
# Boots the event-driven server on an ephemeral port, hammers /v1/predict
# with the committed benchmark shape, and fails on any 5xx, any mid-run
# connection reset, a missing fairness-drift gauge, or throughput below
# 75% of the committed baseline (machine noise headroom; a real
# regression in the event loop or the batcher blows well past 25%).
SERVE_DIR=target/serve_bench
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
./target/release/demodq-serve --datasets german --models log-reg --quiet \
    --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 150); do
    [ -s "$SERVE_DIR/addr" ] && break
    sleep 0.2
done
[ -s "$SERVE_DIR/addr" ] || {
    echo "FAIL: demodq-serve never published its address"
    exit 1
}
./target/release/loadgen --addr "$(cat "$SERVE_DIR/addr")" \
    --connections 4 --pipeline 32 --batch-rows 1 --duration 5 \
    --baseline BENCH_serve.json --baseline-frac 0.75 \
    --require-drift-gauges --out "$SERVE_DIR/BENCH_serve.json"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT
echo "serve-bench gate OK"

stage_summary
echo "CI green."
