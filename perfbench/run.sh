#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output stays in _build/, run data
# and traces in .perfbench-data/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
