#!/usr/bin/env bash
# CI entrypoint: the full correctness gate for one change.
#
# Stages (run all by default, or select one with --stage so local runs
# and the GitHub Actions jobs share this single entrypoint):
#
#   tier1   default (RelWithDebInfo) build + full ctest, plus a build
#           of the repository benchmark (perfbench/) and its unit tests
#   asan    ASan+UBSan build + full ctest with FDP_AUDIT=1, so every
#           run also audits structural invariants at each sampling
#           interval boundary
#   tsan    ThreadSanitizer build; runs the harness/sim tests (the ones
#           that exercise the parallel sweep scheduler and the logging
#           sink) plus one quick multi-threaded paper sweep
#   static  fdp_analyze: the corpus self-test, then the baseline-gated
#           scan of src/ and tools/ (findings JSON in build-ci/); the
#           optional clang-tidy/cppcheck passes are the CMake `tidy'
#           and `cppcheck' targets
#   bench-smoke
#           tools/bench.sh --quick smoke: builds the benchmark suite,
#           runs one fast repetition, and validates the fdp-results-v1
#           JSON it emits (schema only).
#   bench-diff
#           trajectory gate: diffs the fresh quick-bench output against
#           the committed BENCH_quick_baseline.json with fdp_results.
#           Deterministic simulation counters must match EXACTLY — any
#           drift is a semantics change that needs a baseline regen (and
#           a result_store.hh kSimCoreVersion bump) to land. Timing
#           metrics get wide tolerances and never block (CI machines are
#           too noisy for perf gating). Also smokes the sweep result
#           store: a warm --resume of a paper sweep must skip every
#           cached cell and print bit-identical stdout.
#   bench   both bench stages.
#
# Fails fast: any stage failing stops the pipeline with its exit status.
# ccache is used automatically when installed.

set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
    CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

usage() {
    echo "usage: tools/ci.sh [--stage tier1|asan|tsan|static|" >&2
    echo "                    bench-smoke|bench-diff|bench|all]" >&2
    exit 2
}

STAGE=all
while [ $# -gt 0 ]; do
    case "$1" in
      --stage)
        [ $# -ge 2 ] || usage
        STAGE="$2"
        shift 2
        ;;
      *)
        usage
        ;;
    esac
done

stage_tier1() {
    echo "==== stage tier1: build + tests ===="
    cmake -B "$ROOT/build-ci" -S "$ROOT" "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-ci" -j "$JOBS"
    ctest --test-dir "$ROOT/build-ci" --output-on-failure -j "$JOBS"

    echo "==== stage tier1: repository benchmark builds from the tree ===="
    # perfbench/ compiles ../src unchanged and calls library APIs
    # directly, so a library change that breaks it must fail here
    # rather than in the next benchmark run. Bytecode stays out of the
    # benchmark's directory.
    cmake -S "$ROOT/perfbench" -B "$ROOT/build-ci/perfbench" \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-ci/perfbench" -j "$JOBS"
    (cd "$ROOT" && PYTHONDONTWRITEBYTECODE=1 \
        python3 -m unittest discover -s perfbench -p 'test_*.py')

    echo "==== stage tier1: trace record/verify/replay round trip ===="
    # Record swim through the live generator, prove the file passes a
    # full integrity pass, then prove replay is bit-identical to the
    # recording run — stdout tables and results JSON both.
    local tdir="$ROOT/build-ci/trace-smoke"
    rm -rf "$tdir" && mkdir -p "$tdir"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --insts 200000 \
        --record "$tdir/swim.fdptrace" --out "$tdir/record.json" \
        > "$tdir/record.out"
    "$ROOT/build-ci/bench/fdp_trace" info "$tdir/swim.fdptrace"
    "$ROOT/build-ci/bench/fdp_trace" verify "$tdir/swim.fdptrace"
    "$ROOT/build-ci/bench/fdp_sim" --trace "$tdir/swim.fdptrace" \
        --insts 200000 --out "$tdir/replay.json" > "$tdir/replay.out"
    diff "$tdir/record.out" "$tdir/replay.out"
    diff "$tdir/record.json" "$tdir/replay.json"
    echo "trace smoke: replay bit-identical to the recording run"

    echo "==== stage tier1: snapshot round-trip smoke ===="
    # Warm swim in place and measure, then warm once into an fdpsnap-v1
    # image and fork the measured run from it: stdout tables and results
    # JSON must be bit-identical or the snapshot missed machine state.
    local ndir="$ROOT/build-ci/snap-smoke"
    rm -rf "$ndir" && mkdir -p "$ndir"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --warmup 200000 \
        --insts 200000 --out "$ndir/cold.json" > "$ndir/cold.out" \
        2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --warmup 200000 \
        --save-snap "$ndir/swim.fdpsnap" > /dev/null 2>&1
    "$ROOT/build-ci/bench/fdp_snap" verify "$ndir/swim.fdpsnap"
    "$ROOT/build-ci/bench/fdp_sim" --load-snap "$ndir/swim.fdpsnap" \
        --insts 200000 --out "$ndir/fork.json" > "$ndir/fork.out" \
        2> /dev/null
    diff "$ndir/cold.out" "$ndir/fork.out"
    diff "$ndir/cold.json" "$ndir/fork.json"
    echo "snap smoke: forked run bit-identical to in-place warm-up"

    echo "==== stage tier1: warm-fork sweep determinism smoke ===="
    # A warmed multi-config sweep normally warms each benchmark once and
    # forks every cell from the snapshot; FDP_NO_WARM_FORK=1 forces the
    # per-cell cold warm-up path. The two must be bit-identical.
    local fdir="$ROOT/build-ci/fork-smoke"
    rm -rf "$fdir" && mkdir -p "$fdir"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --warmup 100000 --insts 100000 --jobs 2 \
        --out "$fdir/fork.json" > "$fdir/fork.out" 2> /dev/null
    FDP_NO_WARM_FORK=1 "$ROOT/build-ci/bench/fdp_sim" \
        --bench swim --bench mgrid --warmup 100000 --insts 100000 \
        --jobs 2 --out "$fdir/cold.json" > "$fdir/cold.out" 2> /dev/null
    diff "$fdir/cold.out" "$fdir/fork.out"
    diff "$fdir/cold.json" "$fdir/fork.json"
    echo "fork smoke: warm-fork sweep bit-identical to cold warm-up"

    echo "==== stage tier1: 2-core mix determinism smoke ===="
    # One bandwidth-bound co-run end to end, then the same mix again
    # with a different worker count: stdout tables and results JSON
    # must be bit-identical or the sweep scheduler leaked its thread
    # interleaving into the simulation.
    local mdir="$ROOT/build-ci/mix-smoke"
    rm -rf "$mdir" && mkdir -p "$mdir"
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --insts 100000 --jobs 1 --out "$mdir/jobs1.json" \
        > "$mdir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --insts 100000 --jobs 4 --out "$mdir/jobs4.json" \
        > "$mdir/jobs4.out" 2> /dev/null
    diff "$mdir/jobs1.out" "$mdir/jobs4.out"
    diff "$mdir/jobs1.json" "$mdir/jobs4.json"
    echo "mix smoke: co-run bit-identical across --jobs 1 and --jobs 4"

    echo "==== stage tier1: manager determinism smoke ===="
    # The adaptive prefetcher manager explores/exploits off interval
    # feedback; its FSM must be a pure function of the simulation, so a
    # managed sweep is bit-identical across worker counts too.
    local gdir="$ROOT/build-ci/manager-smoke"
    rm -rf "$gdir" && mkdir -p "$gdir"
    "$ROOT/build-ci/bench/fdp_sim" --list-prefetchers > "$gdir/list.out"
    grep -q '^manager$' "$gdir/list.out"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --manager explore --insts 200000 --jobs 1 \
        --out "$gdir/jobs1.json" > "$gdir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --manager explore --insts 200000 --jobs 4 \
        --out "$gdir/jobs4.json" > "$gdir/jobs4.out" 2> /dev/null
    diff "$gdir/jobs1.out" "$gdir/jobs4.out"
    diff "$gdir/jobs1.json" "$gdir/jobs4.json"
    echo "manager smoke: managed sweep bit-identical across --jobs 1/4"

    echo "==== stage tier1: FR-FCFS 8-core determinism smoke ===="
    # The FR-FCFS memory controller schedules per channel off the FDP
    # accuracy tiers; an 8-core co-run through it (plus its alone
    # baselines) must stay bit-identical across worker counts. The
    # --jobs 1 runs also audit the whole machine (read keys and slot
    # pool included) at every sampling interval and at the end of each
    # run, which must not perturb them. The second pair takes the
    # weighted-service scan, which has no early exit, under the
    # adaptive row policy and a QoS cap, long enough for the co-run to
    # close sampling intervals with its queues full.
    local ddir="$ROOT/build-ci/dram-smoke"
    rm -rf "$ddir" && mkdir -p "$ddir"
    local tag insts knobs
    for tag in default weighted; do
        if [ "$tag" = weighted ]; then
            insts=400000
            knobs=(--qos cap:8+weighted --row-policy adaptive)
        else
            insts=50000
            knobs=(--channels 4)
        fi
        FDP_AUDIT=1 "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw \
            --dram controller "${knobs[@]}" --insts "$insts" --jobs 1 \
            --out "$ddir/$tag-jobs1.json" > "$ddir/$tag-jobs1.out" \
            2> /dev/null
        "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw \
            --dram controller "${knobs[@]}" --insts "$insts" --jobs 4 \
            --out "$ddir/$tag-jobs4.json" > "$ddir/$tag-jobs4.out" \
            2> /dev/null
        diff "$ddir/$tag-jobs1.out" "$ddir/$tag-jobs4.out"
        diff "$ddir/$tag-jobs1.json" "$ddir/$tag-jobs4.json"
    done
    echo "dram smoke: FR-FCFS 8-core co-runs bit-identical across" \
        "--jobs 1/4 (audited at --jobs 1)"
}

stage_asan() {
    echo "==== stage asan: ASan+UBSan build + tests (FDP_AUDIT=1) ===="
    cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DFDP_SANITIZE="address;undefined" \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-asan" -j "$JOBS"
    FDP_AUDIT=1 ctest --test-dir "$ROOT/build-asan" --output-on-failure \
        -j "$JOBS"
}

stage_tsan() {
    echo "==== stage tsan: ThreadSanitizer build + parallel-harness ===="
    cmake -B "$ROOT/build-tsan" -S "$ROOT" -DFDP_SANITIZE=thread \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-tsan" -j "$JOBS" \
        --target test_harness test_sim test_trace test_mc \
        fig09_overall mix05_corun fdp_sim_cli
    # The threaded surface: pool + scheduler + logging sink tests, the
    # trace suite (its golden test drives the pool at --jobs 4), the
    # multi-core suite (its mix-runner tests sweep co-runs and alone
    # baselines through the pool), then one real multi-threaded sweep
    # each for the single-core and co-run paths. mix05_corun gets a
    # small explicit budget — the full default is minutes under TSan.
    # halt_on_error so a race fails CI.
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_harness"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_sim"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_trace"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_mc"
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/fig09_overall" --quick --jobs 4 \
        > /dev/null
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/mix05_corun" --mix mix2-stream \
        --mix mix4-bw --mix mix4-zoo --insts 50000 --jobs 4 > /dev/null
    # The widest co-run through the FR-FCFS controller: 8 per-core FDP
    # loops feeding one multi-channel scheduler under the pool.
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/fdp_sim" --mix mix8-bw \
        --dram controller --channels 4 --insts 50000 --jobs 4 \
        > /dev/null
    echo "tsan stage: zero data races reported"
}

stage_static() {
    echo "==== stage static: fdp_analyze self-test + tree scan ===="
    cmake -B "$ROOT/build-ci" -S "$ROOT" "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-ci" --target fdp_analyze -j "$JOBS"
    local analyze="$ROOT/build-ci/tools/analyze/fdp_analyze"
    "$analyze" --root "$ROOT" --self-test
    # The findings JSON lands in the build dir so CI can archive it.
    "$analyze" --root "$ROOT" \
        --baseline "$ROOT/tools/analyze/baseline.json" \
        --json "$ROOT/build-ci/fdp-findings.json"
}

stage_bench_smoke() {
    echo "==== stage bench-smoke: benchmark smoke (schema only) ===="
    local out="$ROOT/build-bench-ci/bench-smoke.json"
    "$ROOT/tools/bench.sh" --quick --build-dir "$ROOT/build-bench-ci" \
        --out "$out"
    python3 - "$out" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("schema") != "fdp-results-v1":
    sys.exit(f"bad schema: {doc.get('schema')!r}")
entries = doc["entries"]
names = {e["name"] for e in entries}
for e in entries:
    if e["better"] not in ("higher", "lower"):
        sys.exit(f"entry {e['name']}: bad better {e['better']!r}")
    float(e["value"])
for required in ("micro/CacheAccessHit/ns", "macro/insts_per_s",
                 "macro/trace_replay/insts_per_s",
                 "macro/mc2/insts_per_s",
                 "micro/GhbPrefetcherObserve/ns",
                 "micro/StreamFsmTransition/ns",
                 "micro/WorkloadNext/ns",
                 "micro/StatScalarIncrement/ns",
                 "micro/StatBatchedIncrement/ns",
                 "micro/VldpObserve/ns",
                 "micro/DspatchObserve/ns",
                 "micro/ManagerIntervalTick/ns",
                 "micro/DramSchedulePick/ns",
                 "micro/DramBankTick/ns",
                 "macro/sweep_warmfork/speedup"):
    if required not in names:
        sys.exit(f"missing required entry {required}")
print(f"bench smoke: {len(entries)} entries, schema valid")
PYEOF
}

stage_bench_diff() {
    echo "==== stage bench-diff: trajectory gate vs committed baseline ===="
    local bdir="$ROOT/build-bench-ci"
    local fresh="$bdir/bench-fresh.json"
    # The binary revision feeds every sweep-store key, so cells cached
    # by an earlier commit (e.g. out of an actions/cache restore) can
    # never satisfy a lookup from this one.
    FDP_BINARY_REV="$(git -C "$ROOT" rev-parse --short HEAD \
        2>/dev/null || echo local)"
    export FDP_BINARY_REV
    "$ROOT/tools/bench.sh" --quick --build-dir "$bdir" --out "$fresh"
    cmake --build "$bdir" -j "$JOBS" \
        --target fdp_results_cli fig09_overall
    # Exact for deterministic counters, wide non-blocking tolerance for
    # timing. The verdict JSON is archived by the workflow on failure.
    "$bdir/bench/fdp_results" diff \
        "$ROOT/BENCH_quick_baseline.json" "$fresh" \
        --verdict "$bdir/bench-diff-verdict.json"

    echo "==== stage bench-diff: sweep-store resume smoke ===="
    # Cold paper sweep populating a fresh store, then a warm resume at
    # a different worker count: every cell must come from the store
    # (misses=0) and stdout must be bit-identical to the cold run.
    # Keep $sdir/store itself: the workflow restores it from
    # actions/cache, and stale-revision entries are misses by key.
    local sdir="$bdir/store-smoke"
    mkdir -p "$sdir"
    rm -f "$sdir"/cold.* "$sdir"/warm.*
    "$bdir/bench/fig09_overall" --quick --jobs 2 \
        --store "$sdir/store" > "$sdir/cold.out" 2> "$sdir/cold.err"
    "$bdir/bench/fig09_overall" --quick --jobs 4 \
        --store "$sdir/store" --resume \
        > "$sdir/warm.out" 2> "$sdir/warm.err"
    diff "$sdir/cold.out" "$sdir/warm.out"
    grep -q "misses=0" "$sdir/warm.err" || {
        echo "store smoke: warm resume re-simulated cached cells:" >&2
        grep "sweep-store:" "$sdir/warm.err" >&2 || true
        exit 1
    }
    echo "store smoke: warm resume hit every cell, stdout bit-identical"
}

case "$STAGE" in
  tier1)  stage_tier1 ;;
  asan)   stage_asan ;;
  tsan)   stage_tsan ;;
  static) stage_static ;;
  bench-smoke) stage_bench_smoke ;;
  bench-diff)  stage_bench_diff ;;
  bench)
    stage_bench_smoke
    stage_bench_diff
    ;;
  all)
    stage_tier1
    stage_asan
    stage_tsan
    stage_static
    stage_bench_smoke
    stage_bench_diff
    ;;
  *) usage ;;
esac

echo "==== CI: stage(s) '$STAGE' passed ===="
