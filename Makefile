# Dash reproduction build targets.

GO ?= go

.PHONY: build test race vet lint bench

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./internal/search/ ./internal/fragindex/ ./internal/replic/ ./cmd/dashserve/
	$(GO) test -race -run 'TestHandleConcurrentQueueFlush|TestQueueFlush' .

vet:
	$(GO) vet ./...

# lint runs dashvet — the project's invariant analyzers (snapshotescape,
# ctxfirst, atomicfield, droppederr; see internal/lint and
# ARCHITECTURE.md "Static analysis & invariants") — together with the
# stock go vet suite. Any finding fails the target.
lint:
	$(GO) run ./cmd/dashvet ./...

# bench regenerates the tracked search-path performance snapshot: the
# Fig. 11 top-k sweep, the context-overhead guard (the cooperative
# cancellation poll must sit within noise of a background-ctx run), the
# parallel-throughput scaling benchmark, the live-mutation-under-load
# benchmark, the snapshot-publish-cost benchmark (chunked metadata +
# batched applies), the sharded serving benchmarks (scatter-gather
# search + routed applies at S = 1/4/16 vs the single-index baseline),
# the durable apply benchmark (journal off vs interval vs always), the
# replication tail-poll benchmark (journals of 10/1,000/10,000 records;
# ns/op stays flat), the serving-under-load benchmark (result-cache hit-rate sweep, cached
# vs uncached hot path, open-loop 2x-overload shedding percentiles), and the
# whole-index rebuild benchmark (Compact and the S=3 partition, both
# Restore of a Dump, at 10k/100k refs),
# with allocation counts, converted to BENCH_search.json so the perf
# trajectory is diffable PR over PR.
bench:
	$(GO) test -run '^$$' -bench 'Fig11|SearchContextOverhead|ParallelSearchThroughput|LiveMutationUnderLoad|ApplyPublishCost|ShardedSearchThroughput|ShardedApplyThroughput|DurableApplyThroughput|TailFrom|ServeOverload|Rebuild' -benchmem -count 1 . > BENCH_search.txt
	$(GO) run ./cmd/benchjson -o BENCH_search.json < BENCH_search.txt
	@rm -f BENCH_search.txt
	@echo wrote BENCH_search.json
