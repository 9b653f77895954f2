.PHONY: build test check bench bench-smoke bench-compare chaos-smoke chaos-deep fmt-check parent-diff

build:
	dune build

test:
	dune runtest

# The one-stop gate: compile everything, run the test suite, time the
# simulator and diff that against the committed baseline, sweep the
# fault-schedule explorer. It writes no tracked file.
check: build test bench-smoke bench-compare chaos-smoke

# Bounded deterministic fault-injection search (~a second of wall
# clock): runs the crash/partition/drop singles at every registered
# fault point for every commit protocol, then mutates the schedules
# that grew coverage, and fails on any oracle violation or uncovered
# fault point.
chaos-smoke:
	dune exec bin/camelot_sim.exe -- chaos --budget 1200 --seed 42

# Deep pass of the same search (~1 min on a 2-core host): 100k schedules
# mutated from a persistent corpus under CHAOS_CORPUS (reused across
# runs, so later sessions start from everything earlier ones found).
# JOBS > 1 splits the budget over that many parallel domains sharing
# the corpus. Memory stays flat as the budget grows: each schedule's
# fibers are freed once it is checked (~17 MB peak RSS at 100k
# schedules). Not part of `make check` — run it before
# protocol-touching changes land.
CHAOS_CORPUS ?= _chaos_corpus
JOBS ?= 1
chaos-deep:
	dune exec bin/camelot_sim.exe -- chaos --budget 100000 --seed 42 \
		--corpus $(CHAOS_CORPUS) --jobs $(JOBS)

bench:
	dune exec bench/main.exe

# Fast CI-friendly pass: best-of-3 short timings for every
# microbenchmark, written to the untracked BENCH.new.json.
bench-smoke:
	dune exec bench/main.exe -- --quick --json BENCH.new.json

# Fail if any wall-clock entry present in both files got more than 25%
# slower than the committed BENCH.json. Modelled results are not
# compared here: the tier-1 goldens in test/golden pin them exactly.
bench-compare:
	dune exec bench/compare.exe -- BENCH.json BENCH.new.json

# Byte-for-byte comparison with another commit (~1 min on 2 cores):
# builds BASE from `git archive` in a temporary directory and compares
# stdout and exit status of `all`, `shootout --sites 4`, four chaos
# runs, the 24 per-workload chaos runs, the five examples and the
# benchmark's virtual metric lines at seeds 5 and 17; exits 1 on any
# mismatch. Not part of `make check`.
#   make parent-diff BASE=HEAD~1
parent-diff:
	@if [ -z "$(BASE)" ]; then echo "usage: make parent-diff BASE=<rev>" >&2; exit 2; fi
	sh tools/parent-diff.sh $(BASE)

# Formatting gate. The container may not ship ocamlformat; skip (with a
# note) rather than fail when the tool is absent.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed; skipping"; \
	fi
