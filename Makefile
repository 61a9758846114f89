# Tier-1 gate plus the stricter checks CI runs.

GO ?= go

.PHONY: build test check vet race bench benchcheck gobench lint obscheck fuzz

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for 10 s. Operator inputs (manifests,
# fault specs) must parse to a value or an error, never a panic; plain
# `go test` runs only the seed corpora.
fuzz:
	$(GO) test ./internal/hafnium -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s

# lint is the CI formatting/static gate, reproducible locally: gofmt
# must report no files, vet must pass, every exported identifier in the
# core packages must carry a doc comment, and ARCHITECTURE.md's package
# table must cover every internal/ package (cmd/docgate -arch).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/docgate -arch ARCHITECTURE.md -internal internal \
		./internal/sim ./internal/metrics ./internal/faults ./internal/kernel ./internal/serve \
		./internal/tz ./internal/cluster ./internal/harness

# obscheck is the observability gate: the metrics snapshot must be
# deterministic across same-seed runs, the Perfetto trace export must
# pass schema validation (khsim trace -check exits non-zero otherwise),
# and every experiment in the harness registry (khsim list: cluster
# failover at 3 and 8 nodes, snapshot/fork, live migration, serving)
# must pass its -check gate twice at the same seed and write
# byte-identical artifacts.
obscheck: build
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/khsim" ./cmd/khsim || exit 1; \
	"$$tmp/khsim" metrics -config kitten -bench stream -seed 1 > "$$tmp/a.metrics" && \
	"$$tmp/khsim" metrics -config kitten -bench stream -seed 1 > "$$tmp/b.metrics" && \
	cmp "$$tmp/a.metrics" "$$tmp/b.metrics" || { echo "obscheck: metrics snapshot not deterministic"; exit 1; }; \
	"$$tmp/khsim" trace -config kitten -bench selfish -seconds 0.1 -format perfetto -check -out "$$tmp/trace.json" || exit 1; \
	xs=$$("$$tmp/khsim" list | cut -f1); [ -n "$$xs" ] || { echo "obscheck: khsim list is empty"; exit 1; }; \
	for x in $$xs; do \
		"$$tmp/khsim" $$x -seed 1 -check -artifact "$$tmp/a.$$x" > /dev/null && \
		"$$tmp/khsim" $$x -seed 1 -check -artifact "$$tmp/b.$$x" > /dev/null && \
		cmp "$$tmp/a.$$x" "$$tmp/b.$$x" || { echo "obscheck: $$x failed its check or its artifact is not deterministic"; exit 1; }; \
	done; \
	echo "obscheck: ok"

# check is the full pre-merge gate: build, vet, the test suite under the
# race detector, and the observability gate.
check: build vet race obscheck

# bench refreshes the committed engine-throughput trajectory
# (BENCH_sim.json), preserving its pinned pre-optimization baseline
# block. benchcheck is the CI regression gate against the committed file.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_sim.json

benchcheck:
	$(GO) run ./cmd/benchjson -reps 5 -check BENCH_sim.json

# gobench runs the paper-figure go-test benchmarks (bench_test.go).
gobench:
	$(GO) test -bench=. -benchtime=1x ./...
