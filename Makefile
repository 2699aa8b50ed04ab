# Convenience targets (cf. the paper artifact's makefiles).

.PHONY: all build test check-profile stress trace-smoke profile-smoke serve-smoke metrics-smoke benchmark-smoke bench bench-quick bench-compare examples clean

# Fixed-seed chaos specification used by `make stress` (see
# docs/RUNTIME.md for the BDS_CHAOS format).  delay+starve perturb
# scheduling without changing results, so the whole suite — cram tests
# included — must still pass exactly; cram blocks that assert chaos-off
# output pin BDS_CHAOS='' themselves (the empty string is the explicit
# opt-out, not the default config).
CHAOS_SPEC ?= seed=1,p=0.02,kinds=delay+starve

# Domain counts swept by `make stress`.  CI's smoke job narrows this to
# two counts (STRESS_DOMAINS="2 4") to keep the job fast.
STRESS_DOMAINS ?= 1 2 4

all: build

build:
	dune build @all

test:
	dune runtest --force

# Build-profile guard: the default build is dune-workspace's `opt`
# profile, which compiles without dune dev's -opaque (so small helpers
# inline across modules) and keeps dev's fatal warnings.  Fails if the
# compile rule of a library module shows -opaque, if dune-workspace's
# `opt` flags carry no fatal warning set, or if the rule lacks one of
# those flags, i.e. if the default build fell back to `dev` or lost its
# warnings (see docs/RUNTIME.md "Build profile").  The flag list is read
# from dune-workspace, so it is written in one place.
check-profile:
	@probe=_build/default/lib/core/.bds.objs/native/bds__Seq.cmx; \
	flags=$$(sed -n '/(flags/,$$p' dune-workspace | tr -s ' ()' '\n' | grep -vx -e '' -e flags); \
	printf '%s\n' "$$flags" | grep -q @ || { \
	  echo "check-profile: dune-workspace's opt flags have no fatal warning set"; exit 1; }; \
	rule=$$(dune rules $$probe | sed 's/^ *//') || exit 1; \
	if printf '%s\n' "$$rule" | grep -qxF -- -opaque; then \
	  echo "check-profile: $$probe is compiled with -opaque"; exit 1; \
	fi; \
	for f in $$flags; do \
	  printf '%s\n' "$$rule" | grep -qxF -- "$$f" || { \
	    echo "check-profile: $$probe is compiled without $$f"; exit 1; }; \
	done; \
	echo "check-profile: ok ($$probe: no -opaque, fatal warnings on)"

# Chaos stress: the dedicated @stress alias, then the full suite under
# fault injection across 1, 2 and 4 domains, after the trace, profiler,
# job-service and observability round-trips.
stress: trace-smoke profile-smoke serve-smoke metrics-smoke
	dune build @stress --force
	for d in $(STRESS_DOMAINS); do \
	  echo "== stress: BDS_NUM_DOMAINS=$$d BDS_CHAOS=$(CHAOS_SPEC) =="; \
	  BDS_NUM_DOMAINS=$$d BDS_CHAOS="$(CHAOS_SPEC)" dune runtest --force || exit 1; \
	done

# Trace round-trip: run the probe with tracing enabled, then validate
# the emitted Chrome-trace JSON with the probe's own checker (the same
# grammar Perfetto accepts; see docs/OBSERVABILITY.md).
TRACE_SMOKE_FILE ?= /tmp/bds-trace-smoke.json
trace-smoke:
	dune build bin/bds_probe.exe
	BDS_TRACE=$(TRACE_SMOKE_FILE) BDS_NUM_DOMAINS=4 dune exec bin/bds_probe.exe -- stats
	dune exec bin/bds_probe.exe -- trace-check --strict $(TRACE_SMOKE_FILE)

# Profiler round-trip: run the report pipeline under the work/span
# profiler on a multi-domain pool, in both human and JSON form (the
# JSON pass re-parses nothing here, but exercises the render path CI
# artifacts use; see docs/OBSERVABILITY.md "Profiling").
profile-smoke:
	dune build bin/bds_probe.exe
	BDS_NUM_DOMAINS=4 dune exec bin/bds_probe.exe -- report
	BDS_NUM_DOMAINS=4 dune exec bin/bds_probe.exe -- report --json > /dev/null

# Job-service round-trip: bds_serve over a Unix socket, one scripted
# workload forcing every typed response (incl. a deadline-exceeded and a
# shed job), graceful SIGTERM with trace flush, then the same under
# jobs+raise chaos at 4 domains (see docs/SERVICE.md).
serve-smoke:
	scripts/serve_smoke

# Observability round-trip: bds_serve with the flight recorder and a
# periodic metrics file, a multi-tenant workload, a METRICS scrape
# validated as OpenMetrics and a SIGQUIT flight dump consistent with the
# final STATS (see docs/OBSERVABILITY.md "Service observability").
metrics-smoke:
	scripts/metrics_smoke

# Benchmark smoke: every workload of the end-to-end benchmark
# (BENCHMARK.json, benchmark/README.md) at about 1% of its work, each in
# a fresh process that ends with its own JSON summary line.  Fails on a
# non-zero exit, unless the last line is a summary reporting
# "correct": true, or if any workload's summary reports false (a wrong
# kernel result or a lost job).
BENCHMARK_SMOKE_FILE ?= /tmp/bds-benchmark-smoke.txt
benchmark-smoke:
	dune exec --root . ./benchmark/main.exe -- --smoke > $(BENCHMARK_SMOKE_FILE); \
	  status=$$?; cat $(BENCHMARK_SMOKE_FILE); exit $$status
	tail -n 1 $(BENCHMARK_SMOKE_FILE) | grep -q '"correct": *true'
	if grep -q '"correct": *false' $(BENCHMARK_SMOKE_FILE); then exit 1; fi

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- --quick

# Perf-regression gate: stream-overhead + float-kernels + sweep-block
# bench vs the ratio gates BENCH_12.json declares (see
# scripts/bench_compare).
bench-compare:
	scripts/bench_compare

# Run every example: examples/dune's run-examples alias is the one list
# (--force reruns them even when nothing changed).
examples:
	dune build --force @run-examples

clean:
	dune clean
