# Developer entry points. CI runs the same commands (.github/workflows/ci.yml);
# keep the two in sync, especially the pinned linter versions.

# Pinned linter versions — bump deliberately, in lockstep with ci.yml.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race race-core fmt lint hammerlint staticcheck vulncheck bench-smoke sim-mem clean

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# race-core is CI's "Consensus core (race)" step: the packages whose
# concurrency tests only mean something under the race detector (DAG,
# committer, scheduler, engine, trie and executor, gateway ring, replica,
# validator assembly, mempool lanes, TCP transport).
race-core:
	go test -race ./internal/dag/ ./internal/bullshark/ ./internal/core/ ./internal/types/ ./internal/engine/ ./internal/merkle/ ./internal/execution/ ./internal/rpc/ ./internal/replica/ ./internal/validator/ ./internal/mempool/ ./internal/transport/

# fmt rewrites every file gofmt would change; CI fails when there is one.
fmt:
	gofmt -w .

# lint runs every static check. hammerlint (the repo's own vettool; see
# tools/hammerlint and the README's "Static analysis & invariants" section)
# always runs; staticcheck and govulncheck run when installed and otherwise
# print the pinned install command — they need network to fetch, which
# offline dev containers may not have.
lint: hammerlint staticcheck vulncheck

hammerlint:
	go build -o bin/hammerlint ./tools/hammerlint
	go vet -vettool=bin/hammerlint ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# bench-smoke checks the black-box benchmark (bench/, a module of its own, so
# `go test ./...` at the root does not reach it): BENCHMARK.json matches the
# runner's spec and a 2-second serve-steady run is correct; and bench/probes,
# which imports hammerhead/internal/* behind a build tag, still vets and
# builds (the benchmark itself only reports `probes.built 0` when it does
# not). `bash bench/run.sh` is the benchmark itself.
bench-smoke:
	cd bench && go vet -tags benchprobes ./probes && go build -tags benchprobes -o /dev/null ./probes
	cd bench && go test ./...

# sim-mem is CI's "Retained memory and pinned results" step: the retained
# heap of a paper-sized fault run (n=50, 16 crashed) stays under its budgets
# halfway and at the end, a small fault run reproduces its pinned
# commit-stream hash, a serving validator's gateway and executor retain no
# more after 1000 commits than after 200, the DAG's tag-scan lookups
# answer as the digest index they replaced did, and a burst of full batches
# drains at certification pace and, with a validator stalled, loses and
# duplicates nothing.
sim-mem:
	go test -run 'TestFaultRunRetainedHeap|TestFaultRunResultsPinned' ./internal/experiment/
	go test -run TestServingRetainedHeapFollowsState ./internal/rpc/
	go test -run TestDigestLookupsMatchIndexModel ./internal/dag/
	go test -run 'TestBurstDrainsAtCertificationPace|TestBurstSurvivesAStalledValidator' ./internal/simnet/

clean:
	rm -rf bin hammerlint
