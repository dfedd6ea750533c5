# Developer entry points. `make check` is the tier-1 gate: vet and gofmt, build,
# full test suite under the race detector, and a one-iteration pass
# over the kernel and parallelism micro-benchmarks so a broken
# benchmark cannot sit unnoticed until someone profiles.

GO ?= go

.PHONY: all check test-names vet build test race bench-module bench-smoke bench

all: check

check: test-names vet build race bench-module bench-smoke

# A -run/-bench/-fuzz alternative that names a test which no longer
# exists selects nothing and passes; fail on it, here and in CI.
test-names:
	./scripts/check_test_names.sh

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows suite training ~15x, so the heavyweight
# packages (core, experiments) need far more than go test's default
# 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 60m ./...

# The repository benchmark is a nested module (bench/go.mod), invisible
# to the root ./... patterns: it compiles against the root's exported
# API, so its vet, accounting tests and smoke run need their own
# invocation.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of the fast micro-benchmarks (no suite training):
# compiles every benchmark in the tree and executes the kernel and
# parallelism ones.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkMatMulKernels|BenchmarkKernelTiers' -benchtime 1x ./internal/nn/
	$(GO) test -run NONE -bench 'BenchmarkInferBatchTiers' -benchtime 1x ./internal/transformer/
	$(GO) test -run NONE -bench 'BenchmarkTrieScan' -benchtime 1x ./internal/ctrie/
	$(GO) test -run NONE -bench 'BenchmarkPairwiseDistances|BenchmarkDistMatrixGrowCluster' -benchtime 1x .

# The full benchmark suite, including the table/figure reproductions
# (trains the small-scale suite first; takes several minutes).
bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...
