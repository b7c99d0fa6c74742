.PHONY: all build test bench ci fmt-check state-check gate perf-gate perf-baseline clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all

# Source hygiene: no tabs, no trailing whitespace in OCaml sources
# (ocamlformat is not available in the sealed environment, so this is
# the formatting floor CI can enforce).
fmt-check:
	@bad=$$(grep -rlnP '\t| +$$' --include='*.ml' --include='*.mli' \
	  lib bin test bench examples 2>/dev/null || true); \
	if [ -n "$$bad" ]; then \
	  echo "fmt-check: tabs or trailing whitespace in:"; echo "$$bad"; exit 1; \
	else echo "fmt-check: OK"; fi

# No hidden process-wide state: outside the telemetry layer (lib/obs),
# no module in lib/ keeps an ephemeron, a mutex or a top-level
# Hashtbl/ref/Atomic, so nothing caches between a caller and the code
# it calls.
state-check:
	@bad=$$(grep -rnE 'Ephemeron|Mutex\.create|^let [a-z_]+ *(:[^=]*)?= *(Hashtbl\.create|ref |Atomic\.make)' \
	  lib --include='*.ml' | grep -v '^lib/obs/' || true); \
	if [ -n "$$bad" ]; then \
	  echo "state-check: process-wide state outside lib/obs:"; echo "$$bad"; exit 1; \
	else echo "state-check: OK"; fi

# Timing gate: the four checks that are timings, one row each — the
# static analyzer's marginal cost stays under 5% of pipeline compile
# on DJ(AND_9) (CPU time, best of 20), Auto (sparse) beats forced
# dense on the 64-shot randomized AND-7 ladder, Auto (hybrid) beats
# forced sparse by 1.2x on 16 shots of the hybrid-shaped circuit, and
# Auto stays within 1.25x of the fastest of forced sparse, forced
# exact and the forced tableau (where it runs), summed over the Testkit
# mirrors of perfbench's wide-sim shapes and BV_1111's dyn2 paper job
# at their shot counts (CPU time, best of 3).  Non-zero exit names the
# failing row.  Every other check runs in `dune runtest`.
gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- gate

# Perf regression gate: sample every shared bench workload into
# percentile histograms (interleaved rounds, see bench/main.ml) and
# compare p50/p99 against the checked-in dqc.bench/2 baseline.
# Non-zero exit on regression beyond the thresholds (10% p50, 25% p99
# with p90 corroboration).  Regenerate the baseline on a quiet machine
# with `make perf-baseline` when a slowdown is intentional.
perf-gate:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- perf \
	  --against BENCH_baseline.json --out BENCH_perf.json

perf-baseline:
	OCAMLRUNPARAM=b dune exec bench/main.exe -- perf --out BENCH_baseline.json

# One-command gate: full build of every target (examples/ and
# perfbench/ included, so a public name they use cannot vanish
# unnoticed) + the tier-1 tests (every correctness check, the CLI's
# exit codes and telemetry exports included) + the
# execution-backend study (non-zero exit when its dense configurations
# disagree) + the timing gate + the perf regression gate + source
# hygiene + the no-hidden-state check (OCAMLRUNPARAM=b: backtraces on
# uncaught exceptions).
ci:
	OCAMLRUNPARAM=b dune build @all @runtest
	OCAMLRUNPARAM=b dune exec bench/main.exe -- backend
	$(MAKE) gate
	$(MAKE) perf-gate
	$(MAKE) fmt-check
	$(MAKE) state-check

clean:
	dune clean
