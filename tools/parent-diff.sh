#!/bin/sh
# Byte-for-byte comparison of this tree's transcripts with those of
# another commit: builds BASE from `git archive` in a temporary
# directory, runs the same camelot_sim commands and examples in both
# builds, and compares stdout and exit status. Prints each mismatch and
# exits 1 if there is any, 0 if every run is identical.
#
#   sh tools/parent-diff.sh BASE      (or: make parent-diff BASE=<rev>)
#
# The chaos workloads are the ones test/golden/dune runs one by one.
set -u
base=${1:?usage: sh tools/parent-diff.sh BASE}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/parent-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$base" | tar xf - -C "$tmp/base" || exit 2
examples="quickstart bank_transfer nested_travel nonblocking_failover blocked_operator"
targets="bin/camelot_sim.exe"
for ex in $examples; do targets="$targets examples/$ex.exe"; done
echo "parent-diff: building $base and this tree" >&2
# shellcheck disable=SC2086
(cd "$tmp/base" && dune build --root . $targets) >&2 || exit 2
# shellcheck disable=SC2086
dune build --root . $targets >&2 || exit 2

runs=0
mismatches=0
# compare NAME EXE-RELATIVE-PATH ARGS...
compare() {
  name=$1
  exe=$2
  shift 2
  (cd "$tmp/base" && "./_build/default/$exe" "$@") >"$tmp/old.out" 2>/dev/null
  old_status=$?
  "./_build/default/$exe" "$@" >"$tmp/new.out" 2>/dev/null
  new_status=$?
  runs=$((runs + 1))
  if [ "$old_status" -ne "$new_status" ] || ! cmp -s "$tmp/old.out" "$tmp/new.out"; then
    mismatches=$((mismatches + 1))
    echo "MISMATCH: $name (exit $old_status -> $new_status)"
    diff "$tmp/old.out" "$tmp/new.out" | head -n 20
  fi
}

sim() { compare "camelot_sim $*" bin/camelot_sim.exe "$@"; }

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
  compare "examples/$ex" "examples/$ex.exe"
done

echo "parent-diff: $runs runs against $base, $mismatches mismatched"
[ "$mismatches" -eq 0 ]
