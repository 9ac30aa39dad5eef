GO ?= go

.PHONY: all build test vet race fuzz shuffle check bench bench-smoke \
	perfbench-check cover cover-check full-golden clean

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
	$(GO) test -run='^$$' -fuzz=FuzzTraceRender -fuzztime=$(FUZZTIME) ./internal/eventlog
	$(GO) test -run='^$$' -fuzz=FuzzTabulateAgreement -fuzztime=$(FUZZTIME) ./internal/caltable
	$(GO) test -run='^$$' -fuzz=FuzzCalibrate -fuzztime=$(FUZZTIME) ./internal/caltable
	$(GO) test -run='^$$' -fuzz=FuzzGridIndex -fuzztime=$(FUZZTIME) ./internal/mac
	$(GO) test -run='^$$' -fuzz=FuzzGridStats -fuzztime=$(FUZZTIME) ./internal/bayes
	$(GO) test -run='^$$' -fuzz=FuzzLFGStream -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzCalendar -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzWaypointLeg -fuzztime=$(FUZZTIME) ./internal/mobility
	$(GO) test -run='^$$' -fuzz=FuzzSampleRSSIGate -fuzztime=$(FUZZTIME) ./internal/radio

# shuffle reruns the whole suite twice in random order, so a test that
# leaks state into the next one (through a process-wide run-slot or Result
# free list, telemetry.Default, or a daemon state dir) fails here;
# TestPackageLevelVarsAllowListed keeps new package-level state from
# appearing unnoticed.
shuffle:
	$(GO) test -count=2 -shuffle=on ./...

# cover prints per-package statement coverage; cover-check additionally
# enforces the floors in coverage_floor.txt (see cmd/covergate). Floors
# ratchet upward as tests improve.
cover:
	$(GO) test -cover ./...

cover-check:
	$(GO) test -cover ./... | $(GO) run ./cmd/covergate -floors coverage_floor.txt

# full-golden runs the whole evaluation suite at paper scale (about a minute
# on 2 CPUs) and requires its output to equal results_full.txt, apart from
# the "total wall time:" trailer. It is too slow for check; run it when a
# change could move any experiment's numbers.
full-golden:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/cocoaexp > "$$dir/out.txt" && \
	grep -v '^total wall time:' results_full.txt > "$$dir/want.txt" && \
	grep -v '^total wall time:' "$$dir/out.txt" > "$$dir/got.txt" && \
	diff -u "$$dir/want.txt" "$$dir/got.txt" && \
	echo "full-golden: output matches results_full.txt"

# check is the gate a change must pass before it lands: static analysis,
# the full suite under the race detector in shuffled order (the experiment
# engine fans runs out across goroutines, so -race is not optional here), a
# short fuzz pass over the serialization/trace-rendering/loss-channel/LUT/
# calibration-oracle/grid-index/grid-statistics/RNG-seeding/event-calendar/
# motion-leg/RSSI-gate targets, a one-iteration benchmark smoke so
# bench-only code paths cannot rot between bench runs,
# the repository benchmark's own vet and tests, the per-package coverage
# floor gate, and two shuffled reruns of the whole suite. Those reruns are
# the non-race step, so they are where the allocation guards run
# (TestWarmSlotAllocsFlatInTraffic, TestWarmRoundTripAllocsZero), which
# skip under -race because its instrumentation allocates. The cocoad
# end-to-end checks (served bytes equal direct runs, /metrics lints clean)
# are tests inside race and shuffle. Performance is gated by the repeated,
# host-normalised perfbench runs that BENCHMARK.json declares, not here.
check: vet race fuzz shuffle bench-smoke perfbench-check cover-check

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
