#!/usr/bin/env bash
# Builds with the observability hooks compiled out and runs the tier-1 suite.
#
#   ci/obs_off.sh [extra ctest args...]
#
# With -DNPR_OBS=OFF every NPR_OBS_HOOK site (span records, flight-recorder
# dumps, profiler attribution) expands to nothing, so this catches a hook
# site or a Retire call that only compiles, or only counts, with the layer
# on. The end-to-end observer tests skip in this build; every other test
# must pass. Uses its own build tree (build-obs-off).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-obs-off"

cmake -B "$build_dir" -S "$repo_root" -DNPR_OBS=OFF -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
