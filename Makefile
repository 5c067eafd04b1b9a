# Tier-1 verify: build, vet, full tests, a race pass over the
# concurrency layer (worker-pool runner, event engine, live-metrics
# server), the grids whose cells share workload inputs across workers
# (harness, workloads, trace), the simulator hot path (core protocol +
# cache storage, two machines per process sharing the engine's ring
# pool) and the observability packages, 1-iteration benchmark smokes
# (whole-simulator throughput, and the engine's Step, the network's
# Arrival and the L1's hit path, the per-event, per-message and
# per-reference paths, plus input generation and the L1 lookup) so
# regressions that crash or deadlock are caught before they reach a
# real benchmarking session, the observability smoke (trace + metrics
# JSON must parse, live metrics endpoint must serve Prometheus text
# during a run), the flight-log smoke (under each of the four
# protocols, two recordings of one run byte-identical and
# inspect-clean) and the result-cache smoke. ./cmd's tests build and
# exec the binaries, which Go's test cache does not key on, so they
# always run (-count=1) and only once. perfbench is its own module,
# which the root `go build ./...` skips, so it is vetted and tested on
# its own (vet, not build: `go build` there writes a perfbench binary
# into the tree).
verify:
	go build ./...
	go vet ./...
	go test $$(go list ./... | grep -vx protozoa/cmd)
	go test -count=1 ./cmd
	go test -race ./internal/runner ./internal/engine ./internal/resultcache
	go test -race ./internal/harness ./internal/workloads ./internal/trace
	go test -race ./internal/core ./internal/cache
	go test -race ./internal/obs ./internal/obs/attrib ./internal/obs/selfprof ./internal/obs/flight
	go test -run '^$$' -bench SimulatorThroughput -benchtime 1x .
	go test -run '^$$' -bench 'Step|Arrival' -benchtime 1x ./internal/engine ./internal/noc
	go test -run '^$$' -bench L1Hit -benchtime 1x ./internal/core
	go test -run '^$$' -bench 'Records|CacheLookup' -benchtime 1x ./internal/workloads ./internal/cache
	GOPROXY=off GOWORK=off go -C perfbench vet ./...
	GOPROXY=off GOWORK=off go -C perfbench test -count 1 ./...
	$(MAKE) obs-smoke
	$(MAKE) flight-smoke
	$(MAKE) cache-smoke

# golden rewrites every golden file from the current code: the core
# views, transition table, gauge sets and violation transcript, the
# harness's attribution pins and reproduction report, the runner's
# sweep CSVs (the 2-row pin, the full 28x4 suite and the micro sweep)
# and the short `protozoa verify` output. Run it only after an
# intentional output change, then review the diff it leaves: it names
# exactly the cells and lines that moved.
golden:
	go test -count=1 -run Golden ./internal/core ./internal/harness ./internal/runner ./cmd -update

# Every smoke target works in its own mktemp -d scratch directory,
# removed on exit (success or failure), so concurrent invocations never
# trample each other and nothing accumulates in /tmp.

# flight-smoke: under each protocol, record the flight log of the same
# run twice — the files must be byte-identical (the transcript is a pure
# function of the run) — then validate the log end to end through
# protozoa inspect -check. Every protocol's l1-state/dir-state edges
# are exercised.
flight-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/protozoa ./cmd/protozoa; \
	for p in mesi sw swmr mw; do \
		for run in a b; do \
			$$d/protozoa sim -workload barnes -protocol $$p -scale 1 \
				-flight $$d/$$p-$$run.pzfl > /dev/null; \
		done; \
		cmp $$d/$$p-a.pzfl $$d/$$p-b.pzfl \
			|| { echo "flight-smoke: $$p: two recordings of one run diverge"; exit 1; }; \
		$$d/protozoa inspect -check $$d/$$p-a.pzfl \
			|| { echo "flight-smoke: $$p: recorded log failed validation"; exit 1; }; \
	done; \
	echo "flight-smoke: flight logs of all four protocols byte-identical across recordings and inspect-clean"

# trace-smoke: a 1-iteration simulation with event tracing and the
# metrics registry enabled, validating both JSON artifacts parse
# (python3 json.tool; Perfetto loads anything that passes).
trace-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go run ./cmd/protozoa sim -workload histogram -protocol mw -scale 1 \
		-trace-out $$d/trace.json \
		-metrics-out $$d/metrics.json > /dev/null; \
	python3 -m json.tool $$d/trace.json > /dev/null; \
	python3 -m json.tool $$d/metrics.json > /dev/null; \
	echo "trace-smoke: trace.json and metrics.json parse OK"

# obs-smoke: trace-smoke plus a live scrape — run protozoa sim with
# -serve, curl /metrics mid-run, and validate every non-comment line is
# Prometheus `name value` text including the attribution gauges.
obs-smoke: trace-smoke
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/protozoa ./cmd/protozoa; \
	$$d/protozoa sim -workload histogram -protocol mw \
		-cores 16 -scale 60 -serve 127.0.0.1:18099 > /dev/null 2>$$d/serve.err & \
	pid=$$!; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:18099/metrics > $$d/metrics.prom 2>/dev/null \
			&& grep -q '^protozoa_snapshots_total [1-9]' $$d/metrics.prom; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	wait $$pid || { echo "obs-smoke: simulator failed"; cat $$d/serve.err; exit 1; }; \
	[ $$ok -eq 1 ] || { echo "obs-smoke: live endpoint never answered"; exit 1; }; \
	grep -q '^protozoa_attrib_fetched_words ' $$d/metrics.prom \
		|| { echo "obs-smoke: attribution gauges missing"; exit 1; }; \
	awk '!/^#/ { if (NF != 2 || $$1 !~ /^protozoa_[a-zA-Z0-9_:]+$$/ || $$2 !~ /^[0-9.eE+-]+$$/) \
		{ print "obs-smoke: bad metrics line: " $$0; exit 1 } }' $$d/metrics.prom; \
	echo "obs-smoke: live /metrics served valid Prometheus text mid-run"

# cache-smoke: the result cache end to end, in three acts. Warm: a
# cold sweep populates a fresh -cache-dir, then the identical grid
# re-runs against it — every cell must come back cached and the CSV
# must be byte-identical. Resume: a second cold sweep into a fresh
# directory is killed once its first entries land on disk, then re-run
# — the interrupted grid must finish with at least one cell resumed
# from the cache and the same byte-identical CSV. Extract: a short
# verify runs cold, then warm, on one -cache-dir — the checker
# summaries must come back from the entries' Extract payloads, all
# four cells cached, with byte-identical output.
CACHE_SMOKE_GRID = -workloads linear-regression,barnes -protocols all -scale 8
CACHE_SMOKE_VERIFY = -accesses 40000 -seed 7

cache-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/protozoa ./cmd/protozoa; \
	$$d/protozoa sweep $(CACHE_SMOKE_GRID) \
		-cache-dir $$d/cache \
		> $$d/cold.csv 2>/dev/null; \
	$$d/protozoa sweep $(CACHE_SMOKE_GRID) \
		-cache-dir $$d/cache -progress \
		> $$d/warm.csv 2>$$d/warm.err; \
	cmp $$d/cold.csv $$d/warm.csv \
		|| { echo "cache-smoke: warm CSV differs from cold"; exit 1; }; \
	grep -q '8 cells (0 failed, 8 cached)' $$d/warm.err \
		|| { echo "cache-smoke: warm run re-simulated cells:"; \
		     tail -1 $$d/warm.err; exit 1; }; \
	echo "cache-smoke: warm re-run 100% cached, CSV byte-identical"; \
	$$d/protozoa sweep $(CACHE_SMOKE_GRID) \
		-cache-dir $$d/cache-resume \
		> /dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 200); do \
		n=$$(find $$d/cache-resume -name '*.pzc' 2>/dev/null | wc -l); \
		[ $$n -ge 2 ] && break; \
		sleep 0.05; \
	done; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	n=$$(find $$d/cache-resume -name '*.pzc' | wc -l); \
	[ $$n -ge 1 ] || { echo "cache-smoke: no entries persisted before the kill"; exit 1; }; \
	[ $$n -le 7 ] || echo "cache-smoke: note: grid finished before the kill ($$n entries)"; \
	$$d/protozoa sweep $(CACHE_SMOKE_GRID) \
		-cache-dir $$d/cache-resume -progress \
		> $$d/resume.csv 2>$$d/resume.err; \
	cmp $$d/cold.csv $$d/resume.csv \
		|| { echo "cache-smoke: resumed CSV differs from cold"; exit 1; }; \
	grep -Eq '8 cells \(0 failed, [1-8] cached\)' $$d/resume.err \
		|| { echo "cache-smoke: resume run reused nothing:"; \
		     tail -1 $$d/resume.err; exit 1; }; \
	echo "cache-smoke: kill-mid-grid resume reused persisted cells, CSV byte-identical"; \
	$$d/protozoa verify $(CACHE_SMOKE_VERIFY) -cache-dir $$d/cache-verify \
		> $$d/verify-cold.txt 2>/dev/null; \
	$$d/protozoa verify $(CACHE_SMOKE_VERIFY) -cache-dir $$d/cache-verify -progress \
		> $$d/verify-warm.txt 2>$$d/verify-warm.err; \
	cmp $$d/verify-cold.txt $$d/verify-warm.txt \
		|| { echo "cache-smoke: warm verify output differs from cold"; exit 1; }; \
	grep -q '4 cells (0 failed, 4 cached)' $$d/verify-warm.err \
		|| { echo "cache-smoke: warm verify re-simulated cells:"; \
		     tail -1 $$d/verify-warm.err; exit 1; }; \
	echo "cache-smoke: warm verify 100% cached from Extract payloads, output byte-identical"

# bench runs the simulator throughput benchmark with allocation
# accounting in a benchstat-friendly shape (-count 5). Compare against
# the latest committed BENCH_*.json numbers after hot-path changes.
bench:
	go test -run '^$$' -bench SimulatorThroughput -benchmem -benchtime 2s -count 5 .

# bench-compare is the regression workflow behind the committed
# BENCH_*.json snapshots: run the gate's throughput benchmark at
# -count 5, diff per-benchmark medians against the most recent
# snapshot, and emit the next one. benchstat is used when present;
# cmd/protozoa-benchdiff (in-repo, no dependencies) always runs and
# writes the snapshot. Override the endpoints with
# `make bench-compare BENCH_BASELINE=BENCH_6.json BENCH_OUT=/tmp/x.json`;
# BENCH_CHANGE sets the snapshot's one-line description.
BENCH_BASELINE ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
BENCH_OUT ?=
BENCH_CHANGE ?= uncommitted working tree
bench-compare:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/protozoa-benchdiff ./cmd/protozoa-benchdiff; \
	go test -run '^$$' -bench SimulatorThroughputParallel -benchmem \
		-benchtime 2s -count 5 . | tee $$d/bench.txt; \
	if command -v benchstat >/dev/null 2>&1; then benchstat $$d/bench.txt; fi; \
	$$d/protozoa-benchdiff -baseline "$(BENCH_BASELINE)" \
		$(if $(BENCH_OUT),-out "$(BENCH_OUT)") \
		-change "$(BENCH_CHANGE)" < $$d/bench.txt

# bench-gate is the CI perf-regression gate: a shorter benchmark pass
# (median-of-3 at 1s) diffed against the latest committed BENCH_*.json
# with a tolerance band. It exits non-zero when median throughput falls
# more than BENCH_GATE_TOL percent below the baseline, or median
# allocs/op rise more than that percent above it, and writes no
# snapshot. The CI job is a required check, so a failure blocks the
# merge; run it locally as a pre-push check after hot-path changes.
BENCH_GATE_TOL ?= 15
bench-gate:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/protozoa-benchdiff ./cmd/protozoa-benchdiff; \
	go test -run '^$$' -bench SimulatorThroughputParallel -benchmem \
		-benchtime 1s -count 3 . | tee $$d/bench.txt; \
	$$d/protozoa-benchdiff -baseline "$(BENCH_BASELINE)" \
		-gate $(BENCH_GATE_TOL) < $$d/bench.txt

.PHONY: verify golden bench bench-compare bench-gate trace-smoke obs-smoke flight-smoke cache-smoke
