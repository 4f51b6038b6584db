#!/usr/bin/env bash
# Proves that a change leaves every simulated output as it was.
#
#   ci/sim_diff.sh [base-ref]     (default: HEAD)
#
# Builds `base-ref` (extracted with git archive into a temp dir) and the
# working tree, both Release in separate build trees, then compares:
#   1. the perfbench digest of every BENCHMARK.json workload at seeds 1 and
#      2 (`perfbench/run.py --seconds 1 --trace 0`); the digest folds the
#      simulated statistics and events_run;
#   2. the stdout of every paper bench whose output is simulated only:
#      sim_core, cluster_scale and micro_host report host time and are not
#      run, and cluster_failover's host wall-time and speedup rows are
#      dropped before the diff.
# Exits non-zero if anything differs and names the workload or bench. Only
# reads perfbench output; the working tree's bench build is build-simdiff/.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
jobs="$(nproc)"

generator=()
if command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi

mkdir -p "$work/base"
git -C "$repo_root" archive "$base_ref" | tar -x -C "$work/base"

benches=()
while read -r name; do
  case "$name" in
    sim_core | cluster_scale) ;;
    *) benches+=("$name") ;;
  esac
done < <(sed -n 's/^npr_add_bench(\(.*\))$/\1/p' "$repo_root/bench/CMakeLists.txt")

build_benches() {  # <source dir> <build dir>
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake -B "$2" -S "$1" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  fi
  cmake --build "$2" -j "$jobs" --target "${benches[@]}" > /dev/null
}

workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$repo_root/BENCHMARK.json")"

# The digests of one checkout, one "<workload> <seed> <digest>" line each.
# perfbench builds into the checkout's own .bench_build.
digests() {  # <checkout root> <out file>
  (
    cd "$1"
    for w in $workloads; do
      for seed in 1 2; do
        d="$(env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload "$w" --seed "$seed" \
               --seconds 1 --trace 0 | sed -n 's/^digest [^ ]* //p' || true)"
        echo "$w $seed ${d:-missing}"
      done
    done
  ) > "$2"
}

bench_outputs() {  # <build dir> <out dir>
  mkdir -p "$2"
  (
    cd "$2"
    for b in "${benches[@]}"; do
      { "$1/bench/$b" 2> /dev/null || echo "exit status $?"; } | grep -v -E ' wall t=[0-9]+ | speedup ' \
        > "$b.out"
    done
  )
}

echo "sim_diff: building $base_ref and the working tree"
build_benches "$work/base" "$work/base/build"
build_benches "$repo_root" "$repo_root/build-simdiff"

echo "sim_diff: perfbench digests"
digests "$work/base" "$work/base.digests"
digests "$repo_root" "$work/tree.digests"

echo "sim_diff: paper benches"
bench_outputs "$work/base/build" "$work/base.out"
bench_outputs "$repo_root/build-simdiff" "$work/tree.out"

status=0
while read -r w seed d_base; do
  d_tree="$(awk -v w="$w" -v s="$seed" '$1 == w && $2 == s { print $3 }' "$work/tree.digests")"
  if [ "$d_base" = missing ] || [ "$d_base" != "$d_tree" ]; then
    echo "DIFFERS  perfbench $w seed $seed: $d_base -> ${d_tree:-missing}"
    status=1
  else
    echo "same     perfbench $w seed $seed: $d_base"
  fi
done < "$work/base.digests"
for b in "${benches[@]}"; do
  if diff -u "$work/base.out/$b.out" "$work/tree.out/$b.out" > "$work/$b.diff"; then
    echo "same     bench $b"
  else
    echo "DIFFERS  bench $b"
    cat "$work/$b.diff"
    status=1
  fi
done
exit "$status"
