GO ?= go

.PHONY: all build test race loc abba cmp verify tables-check serve-smoke cluster-smoke store-smoke trace-smoke scenario-smoke adapt-smoke bench bench-intree bench-smoke bench-check clean

all: build

build:
	$(GO) build ./...

# Tier-1: the whole repo must build and every test must pass.
test:
	$(GO) test ./...

# Race-check the concurrency-bearing packages: the mesh-sequence generator
# that builds its coarse levels on goroutines, the simulated interconnect,
# the PARTI executors with self-healing receives, the distributed solver
# with its recovery orchestrator, the shared-memory worker-pool engine (single-grid
# and pooled multigrid, V- and W-cycles), whose workers write without locks
# because each stores only into the vertex range it owns, the transfer operators the
# pooled multigrid builds side by side and scatters in parallel, the
# flight-recorder tracer whose rings are written from every worker
# concurrently, the cluster
# coordinator with its health monitors and handoff machinery, the
# scenario harness that drives every engine over the presets, the
# content-addressed artifact store hit from every HTTP handler at once,
# the adaptive driver that rebuilds the pooled engine between epochs, and
# the party-counted flights both service tiers share work through. The
# edge coloring the C90 model reads is serial; it stays on the list, where
# it costs a second.
race:
	$(GO) test -race ./internal/color/... ./internal/forkjoin/... ./internal/meshgen/... ./internal/simnet/... ./internal/parti/... ./internal/dmsolver/... ./internal/smsolver/... ./internal/multigrid/... ./internal/serve/... ./internal/trace/... ./internal/cluster/... ./internal/scenario/... ./internal/store/... ./internal/adapt/... ./internal/flight/...

# Non-test Go lines per internal package, their total, per command and
# over examples/ — the figures ROADMAP and the issues quote. Plain line counts: comments and
# blanks included, _test.go files not. The benchmark programs (cmd/bench*)
# are left out. Then the independently settable
# values (scripts/settable.go): the exported fields of every Config,
# Options and RunOptions struct under internal/, the flags of each serving
# and solving command, and their total.
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $${d%/}; \
	done; \
	printf '%6d  total (internal)\n' $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	for d in cmd/eul3d cmd/eul3dd cmd/eul3dc cmd/meshgen cmd/partition examples; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@$(GO) run scripts/settable.go internal cmd/eul3d cmd/eul3dd cmd/eul3dc

# ABBA comparison of the benchmark for a performance claim: BASE (default
# HEAD) checked out in a temporary git worktree against the working tree,
# PAIRS (default 5) alternating pairs of workload WL (default serve_mix).
# Prints per metric the medians, the pairs won and, for the end-to-end
# metrics, whether the change stays inside BENCHMARK.json's bound. See
# scripts/abba.sh for SEED and TRACE.
abba:
	WL=$(WL) BASE=$(BASE) PAIRS=$(PAIRS) sh scripts/abba.sh

# Bitwise CLI comparison: BASE (default HEAD) against the working tree over
# a fixed eul3d matrix (every in-process strategy with and without workers,
# the distributed and chaos paths, the adaptive path and a checkpoint ->
# resume pair), comparing histories, solutions, checkpoints and masked
# stdout. One line per row; fails on any difference. See scripts/cmp.sh.
cmp:
	BASE=$(BASE) sh scripts/cmp.sh

# Committed-results check: regenerate Figures 1-4 and Tables 1a-1c / 2a-2c
# into a temporary directory and diff every file against results/, with the
# "(generated in ...)" timings filtered out of both (~2 min on 2 CPUs). The
# tables model the paper's machines from analytic counts and one recorded
# cycle, so they must not move unless a change means them to.
TABLES = fig1 fig2 fig3 fig4 1a 1b 1c 2a 2b 2c
tables-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/benchtables" ./cmd/benchtables; mkdir "$$dir/out"; \
	for id in $(TABLES); do \
		"$$dir/benchtables" -only $$id -outdir "$$dir/out" > /dev/null; \
	done; \
	status=0; \
	for f in "$$dir"/out/*; do \
		n=$$(basename "$$f"); \
		sed -E 's/ *\(generated in [^)]*\)//' "$$f" > "$$dir/got"; \
		sed -E 's/ *\(generated in [^)]*\)//' "results/$$n" | diff -u - "$$dir/got" || { echo "tables-check: $$n differs from results/$$n"; status=1; }; \
	done; \
	[ $$status = 0 ] && echo "tables-check: $$(ls "$$dir/out" | wc -l) files match results/"; exit $$status

# End-to-end serving smoke: build eul3dd, start it on a random port, run a
# channel-mesh job to completion, check /metrics, then SIGTERM it mid-job
# and verify the drain checkpoint resumes on restart.
serve-smoke:
	$(GO) test -run TestServeSmoke -count 1 -v ./cmd/eul3dd

# End-to-end fault-tolerance smoke: build eul3dd and eul3dc, start three
# checkpointing nodes plus the coordinator, kill -9 the node running a job
# mid-solve, and verify the dead node is marked unhealthy within the
# heartbeat threshold and every job completes bitwise identical to a
# single-node reference run.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count 1 -v ./cmd/eul3dc

# End-to-end artifact-store smoke: upload a mesh once to the coordinator,
# solve it by content hash (the coordinator pushes the blob to the chosen
# node), kill -9 that node after a checkpoint, and verify the job finishes
# on the survivor — mesh and checkpoint both travelling as hash references
# — bitwise identical to an uninterrupted reference run.
store-smoke:
	$(GO) test -run TestStoreSmoke -count 1 -v ./cmd/eul3dc

# Flight-recorder smoke: build eul3d, run it traced on the shared-memory
# and fault-injected distributed paths, and validate every emitted file as
# loadable Chrome trace JSON (including the automatic incident dump).
trace-smoke:
	$(GO) test -run TestTraceSmoke -count 1 -v ./cmd/eul3d

# End-to-end scenario smoke: build eul3dd, post the Sod shock tube over
# HTTP on the sequential engine and the pooled engine at workers 1/2/8,
# and check the L1 error against the exact Riemann solution stays under
# the committed tolerance with bitwise-identical pooled diagnostics.
scenario-smoke:
	$(GO) test -run TestScenarioSmoke -count 1 -v ./cmd/eul3dd

# End-to-end adaptive-solve smoke: build eul3d, run the Sod preset with
# -adapt on the pooled engine, and assert the epoch count, cells refined,
# mesh conformity, the per-epoch rebuild report, and the scenario physics
# check on the adapted mesh.
adapt-smoke:
	$(GO) test -run TestAdaptSmoke -count 1 -v ./cmd/eul3d

# Full gate: vet, all tests, race pass, short fuzz smokes on the
# fault-spec parser, the exact Riemann solver, the artifact blob frame
# decoder, the resume-record and mesh decoders and the refinement midpoint
# table (errors, never panics), and
# the serving, cluster, artifact-store, tracing, scenario and adaptive
# smoke tests, every in-tree benchmark once, the benchmark's own
# compile-and-gate check, and the committed tables regenerated.
verify: build
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) race
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 2s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzRiemann -fuzztime 2s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzArtifactDecode -fuzztime 2s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 2s ./internal/meshio
	$(GO) test -run '^$$' -fuzz FuzzMeshDecode -fuzztime 2s ./internal/meshio
	$(GO) test -run '^$$' -fuzz FuzzMidpointTable -fuzztime 2s ./internal/refine
	$(GO) test -run TestServeSmoke -count 1 ./cmd/eul3dd
	$(GO) test -run TestClusterSmoke -count 1 ./cmd/eul3dc
	$(GO) test -run TestStoreSmoke -count 1 ./cmd/eul3dc
	$(GO) test -run TestTraceSmoke -count 1 ./cmd/eul3d
	$(GO) test -run TestScenarioSmoke -count 1 ./cmd/eul3dd
	$(GO) test -run TestAdaptSmoke -count 1 ./cmd/eul3d
	$(MAKE) bench-intree
	$(MAKE) bench-smoke
	$(MAKE) bench-check
	$(MAKE) tables-check

# Benchmarks: the Go micro-benchmarks plus the shared-memory scaling run,
# which writes its results to BENCH_smsolver.json.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...
	$(GO) run ./cmd/benchsm -out BENCH_smsolver.json

# Every in-tree Benchmark* once. EXPERIMENTS.md quotes them and several
# b.Fatal when an invariant breaks, so a change that breaks one must fail
# the gate, not the next person's measurement; unlike `make bench` this
# writes nothing.
bench-intree:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Compile-and-gate check of the repository's benchmark (cmd/bench, the
# program BENCHMARK.json declares). It is a module of its own, so `go build
# ./...` above never compiles it and an API change it depends on would
# otherwise surface only when the benchmark is next run. Its tests run
# every workload at -smoke size with the bitwise / roundoff / result-hash
# gates on (~15 s); nothing under cmd/bench is written.
bench-smoke:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# Benchmark-honesty gate: a short strict benchsm pass that refuses to run
# any series with more workers than the host has CPUs (a GOMAXPROCS-blind
# series time-slices its workers on one core and records fictional
# speedups), plus a check that the committed BENCH_smsolver.json contains
# no series whose recorded gomaxprocs is below its worker count.
bench-check:
	$(GO) run ./cmd/benchsm -strict -workers auto -nx 10 -ny 6 -nz 4 \
		-steps 4 -warmup 1 -levels 2 -cycles 3 -out /tmp/bench-check.json
	$(GO) run ./cmd/benchcheck BENCH_smsolver.json /tmp/bench-check.json

clean:
	$(GO) clean ./...
