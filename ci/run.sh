#!/usr/bin/env sh
# Offline CI gate: format, lint, build, the workspace's tests, a memory
# bound on the headline cell, and the smoke-scale reproduction's bytes
# across worker counts.
#
# The workspace is fully hermetic — `rand`, `proptest`, and `criterion`
# are replaced by in-repo implementations (crates/stats/src/rng.rs and
# vendor/) — so this script must pass with no network access:
#
#     CARGO_NET_OFFLINE=true ci/run.sh
#
# The pipeline is split into named stages; run a subset by listing them
# in PACT_CI_STAGES (space-separated), e.g.
#
#     PACT_CI_STAGES="fmt lint" ci/run.sh
#     PACT_CI_STAGES="build repro" ci/run.sh
#
# Stage names are validated against the roster below — a typo exits 2
# naming the bad stage instead of silently skipping everything.
#
# Stages: fmt lint build test perf repro
#
# PACT_JOBS is pinned so sweep-shaped tests exercise the parallel
# executor deterministically regardless of the runner's core count.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"
export PACT_JOBS="${PACT_JOBS:-4}"

ROSTER="fmt lint build test perf repro"
STAGES="${PACT_CI_STAGES:-$ROSTER}"
for s in $STAGES; do
    case " $ROSTER " in
    *" $s "*) ;;
    *)
        echo "error: unknown CI stage '$s' in PACT_CI_STAGES (valid: $ROSTER)" >&2
        exit 2
        ;;
    esac
done

TIMING_FILE="$(mktemp)"
PREV_TIMINGS="$(mktemp)"
trap 'rm -f "$TIMING_FILE" "$PREV_TIMINGS"' EXIT
# Last run's wall times (persisted below) drive a soft slowdown warning.
TIMINGS_PATH="target/ci-timings.txt"
[ -f "$TIMINGS_PATH" ] && cp "$TIMINGS_PATH" "$PREV_TIMINGS"

# --- stage bodies ----------------------------------------------------

stage_fmt() {
    cargo fmt --all --check
}

# Static analysis: clippy with warnings denied. clippy.toml and the
# crate-root lint levels carry the determinism and hygiene rules
# (DESIGN.md §11); the denied wildcard lint keeps the `EventKind`
# matches in obs/tracer.rs and obs/export.rs exhaustive (DESIGN.md §15).
# Clippy cannot notice a deleted crate-root level, so each root must
# still name its H001-H003 lints in a `#![warn(...)]`, and Cargo.toml
# must still set the S001 workspace lint.
stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    for f in crates/*/src/lib.rs src/lib.rs crates/bench/src/bin/tierctl.rs; do
        pin_levels "$f" unwrap_used expect_used
    done
    for f in crates/*/src/lib.rs src/lib.rs; do
        [ "$f" = crates/bench/src/lib.rs ] || pin_levels "$f" print_stdout print_stderr
    done
    pin_levels crates/tiersim/src/pmu.rs cast_possible_truncation
    pin_levels crates/tiersim/src/chmu.rs cast_possible_truncation
    grep -q '^allow_attributes_without_reason = "warn"$' Cargo.toml || {
        echo "    FAIL: Cargo.toml no longer sets allow_attributes_without_reason"
        exit 1
    }
    echo "    crate-root lint levels and the S001 workspace lint are set"
}

# pin_levels FILE LINT...: FILE's crate-root `#![warn(...)]` attributes
# still name every clippy LINT.
pin_levels() {
    f=$1
    shift
    levels=$(awk '/^#!\[warn\(/ { on = 1 } on { print } on && /\)\]/ { on = 0 }' "$f")
    for lint in "$@"; do
        case "$levels" in
        *"clippy::$lint"*) ;;
        *)
            echo "    FAIL: $f lost its crate-root #![warn(clippy::$lint)]"
            exit 1
            ;;
        esac
    done
}

# perfbench/ is a workspace of its own (the benchmark's harness), so the
# workspace build does not reach it; build it here so an API change it
# depends on fails CI instead of the next benchmark run.
stage_build() {
    cargo build --release
    cargo build --release --manifest-path perfbench/Cargo.toml
}

# Every crate's tests, the root package's integration tests among them:
# invariants, the config fuzzer, golden digests, fault injection,
# tracing, the criticality report and the tierctl CLI.
stage_test() {
    cargo test --workspace -q
    cargo test --release -q --manifest-path perfbench/Cargo.toml
    # Run every example to completion, not just compile it: they are the
    # documented way into the library, and a run call that fails only
    # shows up when it runs.
    for ex in examples/*.rs; do
        cargo run --release -q --example "$(basename "$ex" .rs)" > /dev/null
    done
    echo "    every example ran to completion"
    # Pin the stage-roster validation above: an unknown stage name must
    # fail fast with exit 2 and name the offender — the old behaviour
    # (silently skipping every stage and printing "CI OK") let a typo'd
    # PACT_CI_STAGES pass a broken tree.
    rc=0
    roster_out=$(PACT_CI_STAGES="no-such-stage" sh ci/run.sh 2>&1) || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "    FAIL: unknown PACT_CI_STAGES stage exited $rc, want 2"
        exit 1
    }
    echo "$roster_out" | grep -q "no-such-stage" || {
        echo "    FAIL: roster error did not name the bad stage"
        exit 1
    }
    echo "    PACT_CI_STAGES roster validation rejects unknown stages with exit 2"
}

# A memory bound on the headline cell: one short perfbench run of
# bckron-pact must check out (`correct`) and peak at no more than
# 20 MiB resident. With per-source plans computed on demand and
# refills of one adjacency line (DESIGN.md §7, "Graph set-up" and
# "Graph streams") it peaks near 17.3 MiB; streams that plan every
# source up front peak near 22.2 MiB, and a build that holds an edge
# list near 40.5 MiB. RSS moves by well under 1 MiB between runs, so
# the bound tolerates host noise.
stage_perf() {
    perf_dir="target/ci-perf"
    rm -rf "$perf_dir"
    mkdir -p "$perf_dir"
    rc=0
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload bckron-pact --seed 42 --seconds 1 --trace 0 \
        > "$perf_dir/bckron-pact.out" || rc=$?
    grep '^metric ' "$perf_dir/bckron-pact.out" || true
    tail -n 1 "$perf_dir/bckron-pact.out" | grep -q '"correct": true' || {
        echo "    FAIL: perfbench bckron-pact is not correct (exit $rc)"
        exit 1
    }
    rss=$(sed -n 's/^metric peak_rss_mib=\([0-9.]*\) MiB$/\1/p' "$perf_dir/bckron-pact.out")
    [ -n "$rss" ] && awk -v r="$rss" 'BEGIN { exit !(r <= 20) }' || {
        echo "    FAIL: bckron-pact peak_rss_mib '$rss', want <= 20"
        exit 1
    }
    echo "    bckron-pact correct, peak RSS $rss MiB <= 20"
}

# The whole smoke-scale reproduction must print the same bytes whether
# each figure's runs go one at a time or over four workers, clean and
# under a fixed fault plan (which every figure applies to every run).
stage_repro() {
    repro_dir="target/ci-repro"
    rm -rf "$repro_dir"
    mkdir -p "$repro_dir"
    cargo build --release -p pact-bench --bin tierctl
    for faults in "" "drop=0.2,fail=0.6,pebs_loss=0.5,seed=3"; do
        for jobs in 1 4; do
            PACT_FAULTS="$faults" PACT_JOBS="$jobs" target/release/tierctl repro \
                --scale smoke > "$repro_dir/j${jobs}.txt"
        done
        cmp "$repro_dir/j1.txt" "$repro_dir/j4.txt"
        echo "    tierctl repro --scale smoke byte-identical across PACT_JOBS={1,4}" \
            "(PACT_FAULTS='$faults')"
    done
}

# --- driver ----------------------------------------------------------

wants() {
    case " $STAGES " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
    esac
}

run_stage() {
    if ! wants "$1"; then
        echo "==> $1 (skipped: not in PACT_CI_STAGES)"
        return 0
    fi
    echo "==> $1"
    stage_start=$(date +%s)
    "stage_$1"
    elapsed=$(($(date +%s) - stage_start))
    printf '%-12s %4ss\n' "$1" "$elapsed" >> "$TIMING_FILE"
    # Soft slowdown warning against the last persisted run: never fails
    # the build (runner load varies), but makes creeping stage cost
    # visible in the log.
    prev=$(awk -v s="$1" '$1 == s { t = $2; sub(/s$/, "", t); print t; exit }' \
        "$PREV_TIMINGS" 2> /dev/null || true)
    if [ -n "${prev:-}" ] && [ "$prev" -gt 0 ] && [ "$elapsed" -gt $((prev * 3 / 2)) ]; then
        echo "    warning: stage $1 took ${elapsed}s, >50% over recorded ${prev}s"
    fi
}

for stage in $ROSTER; do
    run_stage "$stage"
done

echo "==> stage wall times"
cat "$TIMING_FILE"
# Persist the table for the next run's slowdown warnings and the
# workflow's artifact upload; stages skipped this run carry forward
# their previously recorded times, and stages no longer on the roster
# are dropped.
mkdir -p target
cp "$TIMING_FILE" "$TIMINGS_PATH.tmp"
while IFS= read -r line; do
    name=${line%% *}
    case " $ROSTER " in
    *" $name "*) ;;
    *) continue ;;
    esac
    grep -q "^$name " "$TIMING_FILE" || echo "$line" >> "$TIMINGS_PATH.tmp"
done < "$PREV_TIMINGS"
mv "$TIMINGS_PATH.tmp" "$TIMINGS_PATH"
echo "CI OK"
