GO ?= go

.PHONY: all build vet fmt test test-race bench-e2e bench-pairs bench-layers chaos crash fuzz-smoke serve-smoke obs-smoke repl-smoke watch-smoke stats-smoke vulncheck

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# Every package under the race detector. The bench fixtures are too slow
# for -race, so the harness packages run in -short mode, as do the WAL
# and chaos suites (their full crash-point sweeps run in make test). The
# tests of the pooled search scratch and the client's pooled response
# buffers — concurrent evaluations trading them, and results kept while
# later ones reuse them — run ten times over.
test-race:
	$(GO) test -race ./internal/obs/ ./internal/stats/ ./internal/plan/ ./internal/graph/ ./internal/codec/ ./internal/core/ ./internal/exec/
	$(GO) test -race -count=10 -run 'Pooled|Retained' ./internal/plan/ ./internal/exec/ ./internal/client/ ./internal/graph/
	$(GO) test -race ./internal/gremlin/ ./internal/relational/
	$(GO) test -race ./internal/server/ ./internal/client/ ./internal/repl/ ./internal/watch/ ./cmd/nepal/
	$(GO) test -race . ./internal/schema/ ./internal/temporal/ ./internal/rpe/ ./internal/query/ ./internal/codegen/ ./internal/netmodel/ ./internal/workload/
	$(GO) test -race -short ./internal/wal/ ./internal/chaos/
	$(GO) test -race -short ./internal/bench/ ./cmd/nepalbench/ ./cmd/nepalgen/ ./benchmark/

# The end-to-end benchmark of BENCHMARK.json, one plain run per workload
# at the driver's size, printing the three end-to-end metrics of each —
# the numbers a PR description quotes (benchmark/BASELINE.md has the
# baseline and how far they spread).
bench-e2e:
	@for w in path-mining serve-interactive ingest-durable feed-mixed; do \
		echo "== $$w"; \
		out=$$($(GO) run ./benchmark --workload $$w --seed 1 --seconds 20 --trace 0) \
			|| { echo "$$out" | tail -n 5; exit 1; }; \
		echo "$$out" | grep -E '^(setup_s|alloc_kb_per_op|heap_mb) '; \
	done

# Alternating parent/working-tree pairs of one workload on consecutive
# seeds, with each side's medians and quartiles and the change's win
# count per end-to-end metric — how a performance claim is measured:
#   make bench-pairs PARENT=<rev> WORKLOAD=ingest-durable PAIRS=10 SEED=201
bench-pairs:
	./scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# One traced run per side of the same comparison, printing every
# per-layer metric of both with their ratio — where a claimed saving
# appears:
#   make bench-layers PARENT=<rev> WORKLOAD=path-mining SEED=1
bench-layers:
	./scripts/bench_layers.sh $(PARENT) $(WORKLOAD) $(SEED)

# Fault-injection suite: the chaos package's own tests (probe faults and
# latency injection, the flaky listener, the cluster simulation's seed
# corpus with its history checker and fault-coverage guard), plus the
# query governance tests — cancellation, deadline and limit aborts
# against a slow backend, panic conversion, a routed engine's error
# failing the query — run twice under the race detector to shake out
# scheduling-dependent failures.
chaos:
	$(GO) test -race -count=2 ./internal/chaos/
	$(GO) test -race -count=2 -run 'Chaos|Routed|Govern|Cancel|Deadline|Limit|Panic' \
		./internal/plan/ ./internal/exec/ ./internal/core/

# Durability suite: the WAL crash-point property tests, crash-injection
# recovery (torn sidecars included), the binary codec's round-trip and
# canonical-encoding tests, the refusal of retired (JSON) log and
# checkpoint formats, the store invariant checker, and the
# live-write/replay parity tests, twice under the race detector (-short
# keeps the full-byte-sweep property test sampled).
crash:
	$(GO) test -race -count=2 -short ./internal/wal/ ./internal/codec/ ./internal/chaos/
	$(GO) test -race -count=2 -run 'WAL|Crash|Recover|Invariant|Fsck|Checkpoint|HistoryChurn|PersistTyped|Replay|Sidecar|Format|RoundTrip' \
		./internal/graph/ ./internal/core/ ./internal/server/ ./internal/repl/ ./cmd/nepal/

# Short coverage-guided fuzz passes over the inputs fed untrusted bytes:
# the WAL frame decoder (every replication batch and crash-recovery
# scan), the checkpoint loader (every recovery's checkpoint and every
# follower's bootstrap snapshot), the unique index (batches of writes
# whose unique values mix every kind, some rolled back, held after each
# to a reference keyed by the values' canonical keys and across a
# checkpoint round trip), statement preparation (every /v1/query
# body: parse, analyze, the digest held to its shape — the hash of its
# text, masking exactly the template's parameters, kept by every literal
# substitution — and the statement template bound to substituted
# literals against a fresh compile), the statement entry
# points (raw bytes as a /v1/query body and raw name, q and queue values
# on /v1/watch/query: never a panic, a 5xx or an undocumented status)
# and the /v1/ingest write path (random op batches
# through the server's handler into a WAL-backed store, held to the
# atomic-batch contract, and sent again as WAL frames through the Go
# client to a twin store that must answer and log the same bytes; raw
# bytes as a WAL-framed body, never a panic, a 400 changing nothing),
# plus new seeds of the cluster simulation, of
# the clock's edge conversion (every time a request carries into the
# engine's int64 nanoseconds, saturating at the range's ends and at the
# Forever sentinel), of the standing-query patcher (a patchable
# statement under a mutation stream the input chooses, its deltas held
# to a fresh evaluation after every batch) and of the feed parameter
# readers (every integer query parameter of /v1/wal and /v1/watch: a
# value read exactly when well-formed, a wait clamped to its cap).
# Seeds are binary frames from the record encoder (and one retired JSON
# frame), a binary checkpoint and its copy re-encoded to
# name a UID far past the allocation frontier, the paper's queries,
# statements of every literal kind and an overflowing queue= value,
# batches that fail on an earlier op,
# one framed body of each kind the server refuses and the simulation's
# corpus; 15s each is a smoke budget (the two parsers reach six-digit
# exec counts, the checkpoint loader tens of thousands — its 1s
# minimization cap keeps new inputs from eating the budget — the unique
# index tens of thousands, the ingest
# targets, which open a store per input (two for FuzzIngest), a few
# hundred, the statement entry points tens of thousands, the simulation,
# which runs a three-node cluster per seed, a few dozen, the patcher,
# which builds a fixture and a hub per input, a few thousand, the
# parameter readers over a hundred thousand).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=15s -run '^$$' ./internal/wal/
	$(GO) test -fuzz=FuzzLoadHistory -fuzztime=15s -fuzzminimizetime=1s -run '^$$' ./internal/graph/
	$(GO) test -fuzz=FuzzUniqueIndex -fuzztime=15s -run '^$$' ./internal/graph/
	$(GO) test -fuzz=FuzzPrepare -fuzztime=15s -run '^$$' ./internal/query/
	$(GO) test -fuzz='^FuzzIngest$$' -fuzztime=15s -run '^$$' ./internal/server/
	$(GO) test -fuzz=FuzzIngestFrames -fuzztime=15s -run '^$$' ./internal/server/
	$(GO) test -fuzz=FuzzQueryRequest -fuzztime=15s -run '^$$' ./internal/server/
	$(GO) test -fuzz=FuzzClusterSim -fuzztime=15s -run '^$$' ./internal/chaos/
	$(GO) test -fuzz=FuzzTimeBounds -fuzztime=15s -run '^$$' ./internal/temporal/
	$(GO) test -fuzz=FuzzStandingQuery -fuzztime=15s -run '^$$' ./internal/watch/
	$(GO) test -fuzz=FuzzFeedParams -fuzztime=15s -run '^$$' ./internal/repl/

# End-to-end serving smoke: start a server over the demo topology, wait
# for /healthz through the Go client, run one query over the wire, shut
# the server down gracefully.
serve-smoke:
	./scripts/serve_smoke.sh

# Observability smoke: start a server with an access log, run a query,
# then assert /metrics parses as Prometheus exposition with a live
# runtime heap gauge, /debug/traces resolves the just-run query to a
# span tree, and every request left one trace-tagged access-log line.
obs-smoke:
	./scripts/obs_smoke.sh

# Replication smoke: a WAL-backed primary plus two -follow read replicas
# on ephemeral ports; asserts replicated reads with staleness watermarks,
# read-only rejection, /readyz, lag metrics, and promote-to-primary.
repl-smoke:
	./scripts/repl_smoke.sh

# Watch smoke: a WAL-backed primary plus one replica; asserts the CLI
# feed tail, mid-stream resume, SSE delivery across the replication hop
# with index/epoch intact, standing-query deltas, watch_compacted after
# checkpoint, and watch.* metrics.
watch-smoke:
	./scripts/watch_smoke.sh

# Workload-introspection smoke: two servers over the demo topology;
# asserts digest folding across literal variants, statement-table
# sorting and reset, the per-digest Prometheus series, nepal -top, and
# the /debug/cluster peer probe.
stats-smoke:
	./scripts/stats_smoke.sh

# Known-vulnerability scan over the module graph and reachable call
# paths; advisory in CI (non-blocking), runnable locally at will.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
