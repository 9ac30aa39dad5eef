GO ?= go

.PHONY: all build test vet race fuzz shuffle check bench bench-smoke \
	perfbench-check cover cover-check serve-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector in a random test order,
# so a hidden dependence between tests of any package fails here.
race:
	$(GO) test -race -shuffle=on ./...

# fuzz gives each native fuzz target a short budget beyond its checked-in
# corpus. Go only allows one -fuzz per invocation, so targets run in
# sequence. Longer sessions: go test -fuzz=FuzzX -fuzztime=5m ./internal/...
FUZZTIME ?= 5s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzGilbertElliott -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzEventlogRoundTrip -fuzztime=$(FUZZTIME) ./internal/eventlog
	$(GO) test -run='^$$' -fuzz=FuzzTabulateAgreement -fuzztime=$(FUZZTIME) ./internal/caltable
	$(GO) test -run='^$$' -fuzz=FuzzGridIndex -fuzztime=$(FUZZTIME) ./internal/mac
	$(GO) test -run='^$$' -fuzz=FuzzGridStats -fuzztime=$(FUZZTIME) ./internal/bayes
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzLFGStream -fuzztime=$(FUZZTIME) ./internal/sim

# shuffle reruns the stateful service/runner suites twice in random order:
# the runner and serve packages keep cross-test state (the process-wide
# run-slot free list, the runner/serve job counters, daemon state dirs), and
# the second pass catches state one run leaks into the next.
shuffle:
	$(GO) test -count=2 -shuffle=on ./internal/runner ./internal/serve

# cover prints per-package statement coverage; cover-check additionally
# enforces the floors in coverage_floor.txt (see cmd/covergate). Floors
# ratchet upward as tests improve.
cover:
	$(GO) test -cover ./...

cover-check:
	$(GO) test -cover ./... | $(GO) run ./cmd/covergate -floors coverage_floor.txt

# serve-smoke boots the cocoad service on a loopback port, submits the
# odometry golden family through the real HTTP API, and requires the
# served result's summary to be byte-identical to the checked-in golden
# file — the end-to-end proof that the service layer adds scheduling,
# never semantics.
serve-smoke:
	$(GO) run ./cmd/cocoad -smoke internal/scenario/testdata/golden_odometry.json

# check is the gate a change must pass before it lands: static analysis,
# the full suite under the race detector in shuffled order (the experiment
# engine fans runs out across goroutines, so -race is not optional here), a
# short fuzz pass over the serialization/loss-channel/LUT/RNG-seeding
# targets, a one-iteration benchmark smoke so bench-only code paths cannot
# rot between bench runs,
# the repository benchmark's own vet and tests, the per-package coverage
# floor gate, the cocoad end-to-end smoke, and the shuffled reruns of the
# order-sensitive service suites. Performance is gated by the repeated,
# host-normalised perfbench runs that BENCHMARK.json declares, not here.
check: vet race fuzz shuffle bench-smoke perfbench-check cover-check serve-smoke

# bench regenerates every paper figure at reduced scale, including the
# serial-vs-parallel engine pair (BenchmarkReplication*).
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark for exactly one iteration —
# a correctness gate, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# perfbench-check vets and tests the repository benchmark (perfbench/, run
# as bash perfbench/run.sh; see BENCHMARK.json). It is its own module, so
# the root ./... patterns never compile it; this step keeps an internal API
# change from breaking it unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
