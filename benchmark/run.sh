#!/bin/sh
# Build the benchmark from source, then run it with every argument
# passed through, e.g.
#   sh benchmark/run.sh --workload oltp-contended --seed 17 --seconds 6 --trace 0
# Build output goes to stderr; the benchmark's own output is stdout.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet benchmark/camelot_bench.exe 1>&2
exec ./_build/default/benchmark/camelot_bench.exe "$@"
