#!/usr/bin/env bash
# Analysis matrix: the full static + dynamic checking story in one command.
#
#   stage 1  drongo_lint        invariant checker over src/ tools/ bench/
#   stage 2  asan               AddressSanitizer build, ctest
#   stage 3  tsan               ThreadSanitizer build, concurrency|faults|obs|serving|lpm|sharing|hedging|daemon|ipv6
#   stage 4  ubsan              UBSan (-fno-sanitize-recover) build, ctest
#
# Usage: tools/ci/analysis_matrix.sh [--short] [--jobs N]
#
#   --short   tier-1 time budget: every sanitizer stage runs only the
#             concurrency|faults|static|obs|serving|lpm|sharing|hedging|daemon|ipv6|codec|engine|measure
#             labels instead of the full suite. (`codec` is the wire codec's unit
#             suites, fuzz seeds, name-compression differential, decoder
#             reference and the allocation budget; `engine` is the
#             training-window and decision-engine suites; `measure` is the
#             trial suite with the GWTW race.)
#   --jobs N  parallel build/test jobs (default: nproc).
#
# Each stage uses its CMakePresets.json preset, so build trees land in
# build-asan/, build-tsan/, build-ubsan/ next to the default build/.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
SHORT=0
JOBS="$(nproc)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --short) SHORT=1 ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "usage: $0 [--short] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done

cd "$ROOT"

banner() { printf '\n=== %s ===\n' "$1"; }

# Stage 1: lint. Build just the checker in the default tree and run it
# against the source tree. Runs first because it is by far the cheapest.
# The SARIF artifact lands in build/ so CI uploaders (and code-scanning
# importers — see docs/ANALYSIS.md) can pick it up even on a red run.
banner "stage 1/4: drongo_lint"
cmake --preset default >/dev/null
cmake --build --preset default --target drongo_lint -j "$JOBS" >/dev/null
./build/tools/lint/drongo_lint --root "$ROOT" --sarif "$ROOT/build/drongo_lint.sarif"
echo "SARIF artifact: build/drongo_lint.sarif"

# Stages 2-4: sanitizer builds. In --short mode each runs only the
# concurrency/faults/static/obs/serving/lpm/sharing/hedging/daemon/ipv6/codec/engine/measure label slice so
# the whole matrix fits a tier-1 budget; the full suite is the default for nightly/deep runs.
LABEL_ARGS=()
if [[ "$SHORT" -eq 1 ]]; then
  LABEL_ARGS=(-L 'concurrency|faults|static|obs|serving|lpm|sharing|hedging|daemon|ipv6|codec|engine|measure')
fi

banner "stage 2/4: AddressSanitizer"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$JOBS" >/dev/null
ctest --test-dir build-asan --output-on-failure -j "$JOBS" "${LABEL_ARGS[@]}"

banner "stage 3/4: ThreadSanitizer (concurrency|faults|obs|serving|lpm|sharing|hedging|daemon|ipv6)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" >/dev/null
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L 'concurrency|faults|obs|serving|lpm|sharing|hedging|daemon|ipv6'

banner "stage 4/4: UndefinedBehaviorSanitizer"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "$JOBS" >/dev/null
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" "${LABEL_ARGS[@]}"

banner "analysis matrix: all stages green"
