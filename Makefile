# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet fmt check lint-scheme fuzz fleet-smoke service-smoke obs-smoke bench bench-smoke experiments ablations examples clean

all: build vet test check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint-scheme guards the policy-engine architecture: every Scheme/Mode switch
# (and every case arm over the scheme/mode/placement constants) must live in
# internal/scheme — or internal/edge for the edge tier's own machinery — the
# hub runner is a scheme-agnostic conductor. Production code only; tests may
# enumerate modes to assert planner output.
lint-scheme:
	@out=$$( \
	  { grep -rnE 'switch[ (][^{]*([Ss]cheme|[Mm]ode)' --include='*.go' --exclude='*_test.go' cmd internal examples; \
	    grep -rnE '^[[:space:]]*case[[:space:]][^:]*(\bBaseline\b|\bBatching\b|\bBCOM\b|\bBEAM\b|\bHybrid\b|\bECOM\b|\bPerSample\b|\bBatched\b|\bOffloaded\b|\bUploaded\b|\bOnCPU\b|\bOnMCU\b|\bOnEdge\b|[^a-zA-Z.]COM\b)' \
	      --include='*.go' --exclude='*_test.go' cmd internal examples; } \
	  | grep -v '^internal/scheme/' | grep -v '^internal/edge/' || true); \
	if [ -n "$$out" ]; then \
	  echo "lint-scheme: Scheme/Mode control flow outside internal/scheme:"; \
	  echo "$$out"; exit 1; \
	fi; echo "lint-scheme: ok"

# check is the pre-merge gate: static analysis, the scheme-placement lint,
# the race detector, and short fuzz passes over the four decoders that
# consume user-shaped bytes (CoAP wire format, harvest trace grammar, sweep
# spec JSON, fault schedule grammar). The race run holds every other gate:
#   - allocation and byte ceilings: TestFleetSweepAllocGate and
#     TestFig11ByteGate (root package, gates_test.go);
#   - the abl-observer and abl-harvest self-gates: TestAblObserverGates and
#     TestAblHarvestSurvivalRanking (internal/experiments);
#   - the committed optimizer plan, emitted and replayed through the CLI:
#     TestOptimizeCommittedExample (cmd/iotfleet).
check: vet lint-scheme race fuzz

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s ./internal/coapmsg
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s ./internal/power
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime 10s ./internal/faults

# Tiny end-to-end fleet sweep (8 scenarios) under the race detector: exercises
# the worker pool, reorder-buffer aggregation, the Prometheus endpoint (the
# sweep self-scrapes its own /metrics at the end), and the CLI in one shot.
fleet-smoke:
	$(GO) run -race ./cmd/iotfleet -spec internal/fleet/testdata/smoke.json \
		-workers 4 -progress -metrics-addr 127.0.0.1:0

# Service-mode fault-tolerance smoke: coordinator + two worker processes
# under the race detector, one worker kill -9'd mid-sweep; the merged
# aggregate JSON must equal the in-process workers=1 run byte for byte.
service-smoke:
	sh scripts/service_smoke.sh

# End-to-end observability smoke: one clean and one chaotic instrumented run
# dumping trace + counters (+ flight ring under chaos), then the exporter
# test suite — golden trace bytes, analytic Table II counter values, and the
# instrumented-run-is-byte-identical guarantee.
OBS_TMP ?= /tmp
obs-smoke:
	$(GO) run ./cmd/iotsim -apps A2 -scheme baseline -windows 2 -outputs=false \
		-trace $(OBS_TMP)/obs-baseline-trace.json -counters
	$(GO) run ./cmd/iotsim -apps A2,A7 -scheme beam -windows 2 -outputs=false \
		-chaos "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms" \
		-trace $(OBS_TMP)/obs-chaos-trace.json -counters -flight
	$(GO) test -run 'TestObs|TestChromeTrace' ./internal/hub ./internal/obs

fmt:
	gofmt -l -w .

# Full benchmark harness: one testing.B per paper table/figure + ablations
# + per-package micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code in CI
# without paying for real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate every paper artifact (tables + figures) as ASCII.
experiments:
	$(GO) run ./cmd/experiments -all -chart

ablations:
	$(GO) run ./cmd/experiments -ablations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smarthome
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/smartcity
	$(GO) run ./examples/custom

clean:
	$(GO) clean -testcache
