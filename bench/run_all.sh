#!/bin/sh
# Run every report's canonical invocation and collect the outputs.
#
# Usage: bench/run_all.sh [--jobs N] [--seed S] [--trace BENCH]
#        [--timeseries BENCH] [build-dir] [output-dir]
#
# The list at the bottom is the one place that says how each of the 17
# reports is produced; bench/baselines/ holds the BENCH_<report>.json
# each invocation writes, and
#     build/bench/bench_diff bench/baselines <output-dir>
# checks a run against them exactly. Each binary's text tables go to
# stdout and to <output-dir>/<report>.txt. The script runs every
# report, then exits 1 if any binary exited nonzero.
#
# The output directory defaults to $DSM_BENCH_DIR if set, else
# ./bench-results; an explicit output-dir argument overrides both.
# --jobs N is passed through so each sweep runs its points on N host
# threads; results do not depend on N. --seed S exports DSM_SEED=S so
# every sweep's simulated machines use seed S (recorded in each
# report's meta.seed); the campaigns instead use S as the base of their
# per-point seed range.
# --trace BENCH runs that report with transaction tracing on
# (DSM_TXN_TRACE=1), writing TRACE_<bench>.json next to its
# BENCH_<bench>.json (open it at https://ui.perfetto.dev); table1 is
# always traced, because its baseline rows carry the txn_* fields.
# --timeseries BENCH runs that report with time-resolved telemetry on
# (DSM_TIMESERIES=1), writing TIMESERIES_<bench>.json plus a
# self-contained TIMESERIES_<bench>.html. Both flags may be repeated.
# DSM_OPENLOOP=SPEC and DSM_SERVE=SPEC, if set, replace the open-loop
# campaign's load axis and the overload campaign's mechanism axis.
# --seed, --trace, DSM_OPENLOOP and DSM_SERVE change what the reports
# hold, so such a run does not match the baselines; --timeseries and
# --jobs do not.
set -eu

jobs=
traced=" table1_serialized_messages "
ts_benches=" "
while :; do
    case "${1:-}" in
    --jobs)
        jobs=$2
        shift 2
        ;;
    --jobs=*)
        jobs=${1#--jobs=}
        shift
        ;;
    --seed)
        DSM_SEED=$2
        export DSM_SEED
        shift 2
        ;;
    --seed=*)
        DSM_SEED=${1#--seed=}
        export DSM_SEED
        shift
        ;;
    --trace)
        traced="$traced$2 "
        shift 2
        ;;
    --trace=*)
        traced="$traced${1#--trace=} "
        shift
        ;;
    --timeseries)
        ts_benches="$ts_benches$2 "
        shift 2
        ;;
    --timeseries=*)
        ts_benches="$ts_benches${1#--timeseries=} "
        shift
        ;;
    *)
        break
        ;;
    esac
done

build_dir=${1:-build}
out_dir=${2:-${DSM_BENCH_DIR:-bench-results}}

if [ ! -d "$build_dir/bench" ]; then
    echo "error: $build_dir/bench not found -- build the project first" >&2
    echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
    exit 1
fi

mkdir -p "$out_dir"
DSM_BENCH_DIR=$(cd "$out_dir" && pwd)
export DSM_BENCH_DIR
# Keep the logs focused on the tables; dsm_inform chatter is off.
DSM_QUIET=1
export DSM_QUIET

failed=

# run REPORT BINARY [ARG...]: one canonical invocation, writing
# BENCH_REPORT.json.
run() {
    report=$1
    bin=$build_dir/bench/$2
    shift 2
    echo "==> $report"
    case $traced in
    *" $report "*) DSM_TXN_TRACE=1 && export DSM_TXN_TRACE ;;
    *) unset DSM_TXN_TRACE || true ;;
    esac
    case $ts_benches in
    *" $report "*) DSM_TIMESERIES=1 && export DSM_TIMESERIES ;;
    *) unset DSM_TIMESERIES || true ;;
    esac
    if [ -n "$jobs" ]; then
        set -- "$@" --jobs "$jobs"
    fi
    status=0
    "$bin" "$@" </dev/null >"$DSM_BENCH_DIR/$report.txt" || status=$?
    cat "$DSM_BENCH_DIR/$report.txt"
    if [ "$status" -ne 0 ]; then
        echo "error: $report exited with status $status" >&2
        failed="$failed $report"
    fi
    echo
}

run table1_serialized_messages table1_serialized_messages
run fig2_contention_histograms fig2_contention_histograms
run fig3_lockfree_counter fig3_lockfree_counter
run fig4_tts_counter fig4_tts_counter
run fig5_mcs_counter fig5_mcs_counter
run fig6_applications fig6_applications
run ablation_backoff ablation_backoff
run ablation_machine ablation_machine
run ablation_serial_llsc ablation_serial_llsc
run ablation_reservations ablation_reservations
run ablation_barrier ablation_barrier
run fault_sweep campaign fault --seeds 8
run recovery_sweep campaign recovery --seeds 2
run chaos_sweep campaign chaos --seeds 2
run openloop_sweep campaign openloop
run overload_sweep campaign overload
run mc_explore mc_explore

echo "collected reports in $DSM_BENCH_DIR:"
ls -1 "$DSM_BENCH_DIR"/BENCH_*.json
ls -1 "$DSM_BENCH_DIR"/TRACE_*.json 2>/dev/null || true
ls -1 "$DSM_BENCH_DIR"/TIMESERIES_* 2>/dev/null || true
if [ -n "$failed" ]; then
    echo "error: failed:$failed" >&2
    exit 1
fi
