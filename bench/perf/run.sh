#!/usr/bin/env bash
# Build the benchmark (first call only; later calls are a no-op build) and
# run it from the repository root. Arguments go to xmem_perf unchanged:
#
#   bash bench/perf/run.sh --workload cold-estimate --seed 1 --seconds 10 --trace 0
#   bash bench/perf/run.sh collect --out results.json --runs 10 --commit <id>
#   bash bench/perf/run.sh compare parent.json change.json
#   bash bench/perf/run.sh --smoke      # every workload at 1/20 size, < 15 s
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=.bench_build/perf

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S bench/perf -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
jobs="$(nproc 2> /dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" --parallel "$jobs" >&2

if [[ "${1:-}" == "--smoke" ]]; then
  # The four workloads run side by side, untraced and then traced.
  for trace in 0 1; do
    pids=()
    for workload in cold-estimate whatif-sweep plan-search serve-mixed; do
      "$build/xmem_perf" run --workload "$workload" --seed 1 --seconds 0.5 \
        --trace "$trace" --smoke > /dev/null &
      pids+=("$!")
    done
    failed=0
    for pid in "${pids[@]}"; do wait "$pid" || failed=1; done
    if (( failed )); then
      echo "smoke: a workload failed its checks (trace $trace)" >&2
      exit 1
    fi
  done
  echo "smoke: every workload passed its checks"
  exit 0
fi
exec "$build/xmem_perf" "$@"
