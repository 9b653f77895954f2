#!/bin/sh
# Byte-for-byte comparison of this tree's transcripts with those of
# another commit: builds BASE from `git archive` in a temporary
# directory, runs the same camelot_sim commands, examples and
# benchmark runs in both builds, and compares stdout and exit status.
# Prints each mismatch and exits 1 if there is any, 0 if every run is
# identical.
#
#   sh tools/parent-diff.sh BASE      (or: make parent-diff BASE=<rev>)
#
# The chaos workloads are the ones test/golden/dune runs one by one.
# The benchmark runs every workload at smoke scale, traced, on the rigs
# it builds itself (24 dispatcher sites, the Adaptive logger, unbatched
# 8-site 2PC fan-out); only its virtual metric lines are compared, since
# its wall-clock and heap lines differ from run to run. A benchmark
# mismatch confined to per-layer lines (a metric name with a layer
# prefix, such as sim.events_per_txn) is labelled "counters only": every
# end-to-end virtual line is identical. It still counts as a mismatch.
set -u
base=${1:?usage: sh tools/parent-diff.sh BASE}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/parent-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$base" | tar xf - -C "$tmp/base" || exit 2
examples="quickstart bank_transfer nested_travel nonblocking_failover blocked_operator"
targets="bin/camelot_sim.exe benchmark/camelot_bench.exe"
for ex in $examples; do targets="$targets examples/$ex.exe"; done
echo "parent-diff: building $base and this tree" >&2
# shellcheck disable=SC2086
(cd "$tmp/base" && dune build --root . $targets) >&2 || exit 2
# shellcheck disable=SC2086
dune build --root . $targets >&2 || exit 2

runs=0
mismatches=0
# compare NAME FILTER EXE-RELATIVE-PATH ARGS...: FILTER (a command
# reading stdin) picks the part of stdout that is compared
compare() {
  name=$1
  filter=$2
  exe=$3
  shift 3
  (cd "$tmp/base" && "./_build/default/$exe" "$@") >"$tmp/old.raw" 2>/dev/null
  old_status=$?
  "./_build/default/$exe" "$@" >"$tmp/new.raw" 2>/dev/null
  new_status=$?
  $filter <"$tmp/old.raw" >"$tmp/old.out"
  $filter <"$tmp/new.raw" >"$tmp/new.out"
  runs=$((runs + 1))
  if [ "$old_status" -ne "$new_status" ] || ! cmp -s "$tmp/old.out" "$tmp/new.out"; then
    mismatches=$((mismatches + 1))
    scope=
    if [ "$exe" = benchmark/camelot_bench.exe ] && [ "$old_status" -eq "$new_status" ]; then
      end_to_end_lines <"$tmp/old.raw" >"$tmp/old.e2e"
      end_to_end_lines <"$tmp/new.raw" >"$tmp/new.e2e"
      if cmp -s "$tmp/old.e2e" "$tmp/new.e2e"; then scope=", counters only"; fi
    fi
    echo "MISMATCH: $name (exit $old_status -> $new_status$scope)"
    diff "$tmp/old.out" "$tmp/new.out" | head -n 20
  fi
}

sim() { compare "camelot_sim $*" cat bin/camelot_sim.exe "$@"; }

virtual_lines() { grep ' virtual'; }

# end-to-end metric names carry no layer prefix
end_to_end_lines() { grep ' virtual' | awk '$1 !~ /[.]/'; }

bench() {
  compare "camelot_bench $* (virtual lines)" virtual_lines \
    benchmark/camelot_bench.exe "$@"
}

sim all
sim shootout --sites 4
sim chaos --budget 3000 --seed 7
sim chaos --jobs 2 --budget 600 --seed 3
sim chaos --inject-bug
sim chaos --budget 10000 --seed 42
for w in $(sed -n 's/.*--workload \([a-z0-9-]*\).*/\1/p' test/golden/dune); do
  for s in 5 9; do
    sim chaos --budget 1500 --seed "$s" --workload "$w"
  done
done
for ex in $examples; do
  compare "examples/$ex" cat "examples/$ex.exe"
done
for s in 5 17; do
  bench --workload all --scale smoke --seed "$s" --trace 1
done

echo "parent-diff: $runs runs against $base, $mismatches mismatched"
[ "$mismatches" -eq 0 ]
