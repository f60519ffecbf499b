#!/usr/bin/env bash
# Builds and runs the layered benchmark (perf/README.md):
#
#   perf/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#               [--smoke]
#
# Builds build-perf/ from source with fixed Release flags when needed (build
# output goes to stderr), then runs every workload (or W) once. It prints each
# metric as `workload metric value unit n=samples`, writes
# build-perf/results/<seed>-<time>.json, ends stdout with one JSON summary line,
# and exits non-zero when any correctness check fails. --smoke runs all four
# workloads at a tenth of the duration and rate, after compare.py --self-test.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-perf

smoke=0
for arg in "$@"; do
  if [[ "$arg" == --smoke ]]; then smoke=1; fi
done

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" -j "$jobs" >&2

# Provenance: the commit measured, when this is a git work tree of its own.
sha=none
dirty=unknown
if [[ "$(git rev-parse --show-toplevel 2>/dev/null || true)" == "$root" ]]; then
  sha="$(git rev-parse HEAD)"
  if [[ -z "$(git status --porcelain --untracked-files=no)" ]]; then
    dirty=0
  else
    dirty=1
  fi
fi

if (( smoke )); then
  python3 perf/compare.py --self-test >&2
fi
exec "$build/dsmt_perf" --build-dir "$build" --git-sha "$sha" \
  --git-dirty "$dirty" "$@"
