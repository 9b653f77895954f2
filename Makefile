.PHONY: build test check bench bench-smoke bench-compare chaos-smoke chaos-deep fmt-check

build:
	dune build

test:
	dune runtest

# The one-stop gate: compile everything, run the test suite, time the
# simulator and diff that against the committed baseline, sweep the
# fault-schedule explorer. It writes no tracked file.
check: build test bench-smoke bench-compare chaos-smoke

# Bounded deterministic fault-injection sweep (~a second of wall
# clock): enumerates crash/partition/drop singles at every registered
# fault point for both commit protocols, then random pairs, and fails
# on any oracle violation or uncovered fault point.
chaos-smoke:
	dune exec bin/camelot_sim.exe -- chaos --budget 1200 --seed 42

# Deep coverage-guided fuzzing pass (~2 min): 100k schedules mutated
# from a persistent corpus under CHAOS_CORPUS (reused across runs, so
# later sessions start from everything earlier ones found). JOBS > 1
# splits the budget over that many parallel fuzzing domains sharing
# the corpus. Not part of `make check` — run it before
# protocol-touching changes land.
CHAOS_CORPUS ?= _chaos_corpus
JOBS ?= 1
chaos-deep:
	dune exec bin/camelot_sim.exe -- chaos --fuzz --budget 100000 --seed 42 \
		--corpus $(CHAOS_CORPUS) --jobs $(JOBS)

bench:
	dune exec bench/main.exe

# Fast CI-friendly pass: best-of-3 short timings for every
# microbenchmark plus the Part-1 reproduction wall clock, written to
# the untracked BENCH.new.json.
bench-smoke:
	dune exec bench/main.exe -- --quick --json BENCH.new.json

# Fail if any wall-clock entry present in both files got more than 25%
# slower than the committed BENCH.json. Modelled results are not
# compared here: the tier-1 goldens in test/golden pin them exactly.
bench-compare:
	dune exec bench/compare.exe -- BENCH.json BENCH.new.json

# Formatting gate. The container may not ship ocamlformat; skip (with a
# note) rather than fail when the tool is absent.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed; skipping"; \
	fi
