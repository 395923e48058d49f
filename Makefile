# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet fmt check lint-scheme fuzz fleet-smoke service-smoke obs-smoke observer-smoke opt-smoke harvest-smoke bench bench-json bench-diff bench-smoke experiments ablations examples clean

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
# the race detector, the optimizer determinism smoke, the observer-effect
# smoke, the battery/harvest smoke, and short fuzz passes over the four
# decoders that consume user-shaped bytes (CoAP wire format, harvest trace
# grammar, sweep spec JSON, fault schedule grammar).
check: vet lint-scheme race opt-smoke observer-smoke harvest-smoke fuzz

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

# Observer-effect smoke: the abl-observer ablation enforces its own gates —
# the External/zero-cost asymptote is byte-identical to the unobserved run,
# energy inflation grows strictly with the sampling rate within every scheme,
# and per-sample schemes inflate strictly more than batched ones — so simply
# running it (plus the asymptote/chaos/analytic test suite) is the gate.
observer-smoke:
	$(GO) run ./cmd/experiments -id abl-observer > /dev/null
	$(GO) test -run 'TestMeter' ./internal/hub ./internal/obs
	@echo "observer-smoke: ok"

# Optimizer determinism smoke: run the committed example search twice, demand
# the two emitted plans are byte-identical AND equal to the committed plan,
# then verify the plan's embedded replay spec reproduces its aggregates byte
# for byte (and still beats every paper scheme) through `optimize
# -check-replay`.
OPT_TMP ?= /tmp
opt-smoke:
	$(GO) run ./cmd/iotfleet optimize -spec internal/optimizer/testdata/example.json \
		-out $(OPT_TMP)/opt-smoke-1.json > /dev/null
	$(GO) run ./cmd/iotfleet optimize -spec internal/optimizer/testdata/example.json \
		-out $(OPT_TMP)/opt-smoke-2.json > /dev/null
	cmp $(OPT_TMP)/opt-smoke-1.json $(OPT_TMP)/opt-smoke-2.json
	cmp $(OPT_TMP)/opt-smoke-1.json internal/optimizer/testdata/example.plan.json
	$(GO) run ./cmd/iotfleet optimize -check-replay internal/optimizer/testdata/example.plan.json
	@echo "opt-smoke: ok"

# Battery/harvest smoke: the abl-harvest ablation enforces its own gates —
# the shared supply browns out at least one scheme and spares at least one,
# survivors' survival equals the horizon, reruns are byte-identical, and the
# fleet reproduces identical per-scenario records for any worker count — so
# running it (plus the asymptote/brownout suite) is the gate.
harvest-smoke:
	$(GO) run ./cmd/experiments -id abl-harvest > /dev/null
	$(GO) test -run 'TestBattery|TestArenaReuseBatteryArmed|TestBrownoutUnderChaos' ./internal/hub ./internal/power
	@echo "harvest-smoke: ok"

fmt:
	gofmt -l -w .

# Full benchmark harness: one testing.B per paper table/figure + ablations
# + per-package micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Record a benchmark run as a trajectory point: parse the -bench output into
# BENCH_<UTC stamp>.json (see cmd/benchjson). Commit the file to track
# performance over time. BENCHTIME=2s for steadier numbers; default is the
# go test default.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json

# Compare the two newest committed trajectory points (the UTC stamp in the
# file name sorts lexically = chronologically) as a % delta table. A
# trajectory with fewer than two points has nothing to compare yet — that is
# a fresh checkout, not an error.
bench-diff:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-diff: need >=2 trajectory files, have $$#"; exit 0; fi; \
	echo "bench-diff: $$1 -> $$2"; \
	$(GO) run ./cmd/benchjson -diff $$1 $$2

# One iteration of every benchmark: catches bit-rotted benchmark code in CI
# without paying for real measurement. The last two steps are allocation
# regression gates, and benchjson -gate fails the build when a hot path
# regresses past one:
#   - the arena keeps a steady-state fleet scenario at ~118 allocs;
#     ALLOC_BUDGET pins the ceiling with headroom.
#   - Fig. 11 allocates ~62 MB per pass with depth-bounded device queues
#     (210.7 MB when the MCU queue grew with every push); the 100 MB/op
#     ceiling sits between the two.
ALLOC_BUDGET ?= 500
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'FleetSweep/workers=1$$' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -gate FleetSweep/workers=1 -max-allocs-per-scenario $(ALLOC_BUDGET)
	$(GO) test -run '^$$' -bench 'Fig11MultiApp$$' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -gate Fig11MultiApp -max-mb-per-op 100

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
