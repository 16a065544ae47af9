#!/usr/bin/env sh
# Offline CI gate: format, lint, build, tests, perf-regression gate,
# observability / fault / invariant smoke checks.
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
#     PACT_CI_STAGES="build check" ci/run.sh
#
# Stage names are validated against the roster below — a typo exits 2
# naming the bad stage instead of silently skipping everything.
#
# Stages: fmt lint build test workspace perf obs obs-report fault snapshot check
#
# PACT_JOBS is pinned so sweep-shaped tests exercise the parallel
# executor deterministically regardless of the runner's core count.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"
export PACT_JOBS="${PACT_JOBS:-4}"

ROSTER="fmt lint build test workspace perf obs obs-report fault snapshot check"
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

# Static analysis, two layers: pact-lint (the workspace determinism &
# hygiene linter, token rules in DESIGN.md §11) and clippy with
# warnings denied (which also keeps the `EventKind` matches in
# obs/tracer.rs and obs/export.rs free of wildcard arms, DESIGN.md
# §15). The full scan gates on zero unsuppressed findings and leaves
# the JSON report in target/ci-lint for the workflow's artifact
# upload. `tierctl lint` exits 1 on findings, 2 on usage/IO errors;
# either fails the stage.
stage_lint() {
    lint_dir="target/ci-lint"
    rm -rf "$lint_dir"
    mkdir -p "$lint_dir"
    rc=0
    cargo run --release -p pact-bench --bin tierctl -- lint --json \
        > "$lint_dir/lint-report.json" || rc=$?
    [ "$rc" -eq 0 ] || {
        echo "    FAIL: unsuppressed lint findings (see $lint_dir/lint-report.json)"
        cargo run --release -p pact-bench --bin tierctl -- lint || true
        exit 1
    }
    cargo clippy --workspace --all-targets -- -D warnings
}

# perfbench/ is a workspace of its own (the benchmark's harness), so the
# workspace build does not reach it; build it here so an API change it
# depends on fails CI instead of the next benchmark run.
stage_build() {
    cargo build --release
    cargo build --release --manifest-path perfbench/Cargo.toml
}

stage_test() {
    cargo test -q
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

stage_workspace() {
    cargo test --workspace -q
}

# Perf-regression gate: a fresh probe sweep must stay bit-identical and
# keep serial sim_cycles_per_sec within 20% of the committed baseline.
# (Refresh the baseline with `cargo run --release -p pact-bench --bin
# probe_sweep` and commit the new BENCH_sweep.json.)
# Then a memory bound on the headline cell: one short perfbench run of
# bckron-pact must check out (`correct`) and peak at no more than
# 28 MiB resident. The two-pass graph build (DESIGN.md §7, "Graph
# set-up") peaks near 22.5 MiB; a build that holds an edge list peaks
# near 40.5 MiB. RSS moves by well under 1 MiB between runs, so the
# bound tolerates host noise.
stage_perf() {
    cargo run --release -p pact-bench --bin probe_sweep -- \
        --check-against BENCH_sweep.json
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
    [ -n "$rss" ] && awk -v r="$rss" 'BEGIN { exit !(r <= 28) }' || {
        echo "    FAIL: bckron-pact peak_rss_mib '$rss', want <= 28"
        exit 1
    }
    echo "    bckron-pact correct, peak RSS $rss MiB <= 28"
}

stage_obs() {
    obs_dir="target/ci-obs"
    rm -rf "$obs_dir"
    mkdir -p "$obs_dir"
    cargo run --release -p pact-bench --bin tierctl -- trace \
        --workload gups --policy pact --seed 7 --validate \
        --out "$obs_dir/a.json"
    cargo run --release -p pact-bench --bin tierctl -- trace \
        --workload gups --policy pact --seed 7 --validate \
        --out "$obs_dir/b.json"
    cmp "$obs_dir/a.json" "$obs_dir/b.json"
    echo "    chrome traces byte-identical across identically-seeded runs"
}

# Criticality-attribution gate (DESIGN.md §12): `tierctl report` on a
# fault-injected cell must emit its artifacts byte-identically across
# identically-seeded runs, and the metrics endpoint must answer
# /healthz and /metrics. Artifacts stay in target/ci-report for the
# workflow's upload step.
stage_obs_report() {
    report_dir="target/ci-report"
    rm -rf "$report_dir"
    fault_spec='drop=0.2,fail=0.6,retries=1,stall=slow:20000:0.5,seed=7'
    for run in a b; do
        PACT_FAULTS="$fault_spec" \
            cargo run --release -p pact-bench --bin tierctl -- report \
            --workload gups --policy pact --ratio 1:2 --seed 7 \
            --out "$report_dir/$run"
    done
    for f in report.md report.json flame.folded; do
        cmp "$report_dir/a/$f" "$report_dir/b/$f"
    done
    echo "    criticality report byte-identical across identically-seeded runs"
    if command -v curl > /dev/null 2>&1; then
        # Every accepted connection counts against --max-requests, so
        # readiness is detected from the server's "serving metrics"
        # line rather than by probing the port.
        cargo run --release -p pact-bench --bin tierctl -- serve-metrics \
            --workload gups --seed 7 --addr 127.0.0.1:19464 --max-requests 2 \
            > "$report_dir/serve.out" &
        serve_pid=$!
        for _ in $(seq 1 150); do
            grep -q 'serving metrics' "$report_dir/serve.out" 2> /dev/null && break
            sleep 0.2
        done
        curl -fsS http://127.0.0.1:19464/healthz | grep -q ok
        curl -fsS http://127.0.0.1:19464/metrics | grep -q '^pact_total_cycles'
        wait "$serve_pid"
        echo "    /healthz and /metrics answered over HTTP"
    else
        cargo run --release -p pact-bench --bin tierctl -- serve-metrics \
            --workload gups --seed 7 --self-check
        echo "    serve-metrics self-check passed (curl unavailable)"
    fi
}

stage_fault() {
    obs_dir="target/ci-obs"
    mkdir -p "$obs_dir"
    fault_spec='drop=0.2,fail=0.6,retries=1,stall=slow:20000:0.5,seed=7'
    PACT_FAULTS="$fault_spec" cargo run --release -p pact-bench --bin tierctl -- trace \
        --workload gups --policy pact --ratio 1:2 --seed 7 --validate \
        --out "$obs_dir/fault_a.json" | tee "$obs_dir/fault_a.out"
    PACT_FAULTS="$fault_spec" cargo run --release -p pact-bench --bin tierctl -- trace \
        --workload gups --policy pact --ratio 1:2 --seed 7 --validate \
        --out "$obs_dir/fault_b.json" > /dev/null
    cmp "$obs_dir/fault_a.json" "$obs_dir/fault_b.json"
    grep -q 'failed_promotions=0 dropped_orders=0' "$obs_dir/fault_a.out" && {
        echo "    FAIL: injected faults produced no failed/dropped orders"
        exit 1
    }
    grep -q 'failed_promotions=' "$obs_dir/fault_a.out"
    echo "    fault-injected traces byte-identical, nonzero failure totals"
}

# Crash-recovery gate (DESIGN.md §13): capture a fault-injected cell
# with the retry/backoff machinery loaded; resume every frame and
# demand the report:/digest: summary lines match the uninterrupted
# run's exactly.
# A deliberately corrupted frame must be rejected with exit 2, and the
# same fault plan must be set on resume — the plan is part of the
# configuration fingerprint.
stage_snapshot() {
    snap_dir="target/ci-snap"
    rm -rf "$snap_dir"
    mkdir -p "$snap_dir"
    fault_spec='drop=0.2,fail=0.6,retries=2,backoff=2,seed=7'
    PACT_FAULTS="$fault_spec" \
        cargo run --release -p pact-bench --bin tierctl -- snapshot \
        --workload masim --policy pact --ratio 1:2 --seed 7 --every 8 \
        --out "$snap_dir" | tee "$snap_dir/capture.out"
    grep -E '^(report|digest):' "$snap_dir/capture.out" > "$snap_dir/want.txt"
    frames=0
    for snap in "$snap_dir"/snap_*.pactsnap; do
        PACT_FAULTS="$fault_spec" \
            cargo run --release -p pact-bench --bin tierctl -- resume \
            --from "$snap" | grep -E '^(report|digest):' > "$snap_dir/got.txt"
        cmp "$snap_dir/want.txt" "$snap_dir/got.txt"
        frames=$((frames + 1))
    done
    [ "$frames" -gt 0 ] || {
        echo "    FAIL: capture run wrote no snapshots"
        exit 1
    }
    echo "    kill-resume byte-identical for $frames frames"
    first=$(ls "$snap_dir"/snap_*.pactsnap | head -n 1)
    cp "$first" "$snap_dir/corrupt.pactsnap"
    printf '\377' | dd of="$snap_dir/corrupt.pactsnap" bs=1 seek=100 count=1 conv=notrunc 2> /dev/null
    rc=0
    PACT_FAULTS="$fault_spec" cargo run --release -p pact-bench --bin tierctl -- resume \
        --from "$snap_dir/corrupt.pactsnap" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "    FAIL: corrupted snapshot exited $rc, want 2"
        exit 1
    }
    rc=0
    cargo run --release -p pact-bench --bin tierctl -- resume \
        --from "$first" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "    FAIL: resume without the capture's fault plan exited $rc, want 2"
        exit 1
    }
    echo "    corrupted and configuration-mismatched snapshots rejected with exit 2"
}

# Invariant & differential-oracle smoke: the config fuzzer with the
# runtime checker armed, per-cell differential oracles, the
# sweep-level bit-identity oracle, and the whole smoke-scale
# reproduction, which must print the same bytes whether its figures
# run serially or in parallel.
stage_check() {
    cargo run --release -p pact-bench --bin tierctl -- check \
        --fuzz 60 --seed 1 --oracle
    cargo run --release -p pact-bench --bin check_sweep
    repro_dir="target/ci-repro"
    rm -rf "$repro_dir"
    mkdir -p "$repro_dir"
    for jobs in 1 4; do
        PACT_JOBS="$jobs" cargo run --release -p pact-bench --bin tierctl -- repro \
            --scale smoke > "$repro_dir/j${jobs}.txt"
    done
    cmp "$repro_dir/j1.txt" "$repro_dir/j4.txt"
    echo "    tierctl repro --scale smoke byte-identical across PACT_JOBS={1,4}"
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
    # POSIX function names cannot contain dashes; stage names can.
    "stage_$(echo "$1" | tr '-' '_')"
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
