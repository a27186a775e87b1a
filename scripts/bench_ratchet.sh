#!/bin/sh
# bench_ratchet.sh — fail when benchmarks regress against the committed
# baselines.
#
# Re-runs the archived benchmark suites (pipeline streaming upload, mux
# pipelining, sharded PUT saturation, OPRF keygen, two-phase warm
# upload, Figure 8 rekey delay) and ratchets each
# against its committed BENCH_*.json via `reed-benchjson -compare`: any
# direction-classified metric (ns/op or *_s_* delay up, MB/s or *MBps*
# down) drifting
# past the tolerance exits non-zero and names the offender.
#
# De-flaking: every suite runs three times (-count=3) and the BEST value
# per metric (max throughput, min time) is compared against the
# baseline, so one noisy repeat on a loaded runner cannot fail CI — a
# real regression shows up in all three repeats.
#
# When $GITHUB_STEP_SUMMARY is set (as it is on GitHub runners), each
# suite appends a per-metric markdown delta table there, so the job
# summary shows exactly how far every metric moved even when the ratchet
# passes.
#
# Usage:
#   scripts/bench_ratchet.sh            # 15% tolerance (the CI gate)
#   TOLERANCE=0.30 scripts/bench_ratchet.sh
#
# Refresh the baselines intentionally with `make bench-json` and commit
# the changed BENCH_*.json files alongside the change that shifted them.
set -eu

TOLERANCE=${TOLERANCE:-0.15}
cd "$(dirname "$0")/.."

SUMMARY_ARGS=""
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    SUMMARY_ARGS="-summary $GITHUB_STEP_SUMMARY"
fi

ratchet() {
    name=$1 baseline=$2 pattern=$3 benchtime=$4 pkg=$5
    if [ ! -f "$baseline" ]; then
        echo "bench-ratchet: missing baseline $baseline (run 'make bench-json' and commit it)" >&2
        exit 1
    fi
    echo "== $name (best of 3 vs $baseline, tolerance $TOLERANCE)"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        printf '### bench ratchet: %s\n\n' "$name" >> "$GITHUB_STEP_SUMMARY"
    fi
    # shellcheck disable=SC2086  # SUMMARY_ARGS is deliberately word-split
    go test -run NONE -bench="$pattern" -benchtime="$benchtime" -count=3 "$pkg" \
        | go run ./cmd/reed-benchjson -bestof -compare "$baseline" -tolerance "$TOLERANCE" $SUMMARY_ARGS
}

ratchet pipeline BENCH_pipeline.json BenchmarkStreamingUpload 1x    .
ratchet mux      BENCH_mux.json      BenchmarkMuxedGets       3x    ./internal/server/
ratchet shard    BENCH_shard.json    BenchmarkShardedPut      1x    .
ratchet oprf     BENCH_oprf.json     BenchmarkKeygenPerChunk  1000x ./internal/oprf/
ratchet warm     BENCH_warm.json     BenchmarkWarmUpload      1x    .
ratchet rekey    BENCH_rekey.json    'BenchmarkFig8(aRekeyUsers|bRekeyRatio)' 1x .

echo "bench-ratchet: all suites within tolerance"
