#!/usr/bin/env bash
# Full verification of a MOSAIC checkout, one build tree per stage:
#
#   release  build-release  Release build, every tier-1 test (ctest -L tier1)
#   asan     build-asan     ASan + UBSan (MOSAIC_SANITIZE=address), the tier-1
#                           tests without the timing gates (benches and
#                           examples are not built, so those are not registered)
#   tsan     build-tsan     ThreadSanitizer (MOSAIC_SANITIZE=thread), the
#                           concurrency suite (ctest -L tsan)
#
# Usage, from anywhere inside the checkout:
#
#   tools/verify.sh                 # all three stages, in that order
#   tools/verify.sh asan tsan       # a subset
#
# JOBS sets the build and ctest parallelism (default: hardware threads,
# at most 4). Build trees are reused, so a second run only rebuilds what
# changed. Exits non-zero at the first failing stage. docs/robustness.md
# describes the stages.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

# A sanitizer report must fail the test that triggered it.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

stage() {
  local name="$1" dir="$2" label="$3"
  shift 3
  echo "== verify: $name ($dir, ctest -L $label)"
  local start=$SECONDS
  cmake -S "$root" -B "$root/$dir" -DCMAKE_BUILD_TYPE=Release "$@" >/dev/null
  cmake --build "$root/$dir" -j "$jobs" >/dev/null
  ctest --test-dir "$root/$dir" -L "$label" -j "$jobs" --output-on-failure
  echo "== verify: $name passed in $((SECONDS - start)) s"
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then stages=(release asan tsan); fi
for s in "${stages[@]}"; do
  case "$s" in
    release) stage release build-release tier1 ;;
    asan)
      stage asan build-asan tier1 -DMOSAIC_SANITIZE=address \
        -DMOSAIC_BUILD_BENCH=OFF -DMOSAIC_BUILD_EXAMPLES=OFF ;;
    tsan)
      stage tsan build-tsan tsan -DMOSAIC_SANITIZE=thread \
        -DMOSAIC_BUILD_BENCH=OFF -DMOSAIC_BUILD_EXAMPLES=OFF ;;
    *) echo "verify.sh: unknown stage '$s' (release, asan, tsan)" >&2; exit 2 ;;
  esac
done
echo "== verify: all stages passed (${stages[*]})"
