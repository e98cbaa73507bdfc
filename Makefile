GO ?= go

.PHONY: check vet build test race race-service race-spaces race-observability fuzz-smoke bench bench-telemetry bench-smoke

# check is the tier-1 gate: everything a PR must keep green.
check: vet build test race race-service race-spaces race-observability fuzz-smoke bench-telemetry bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The campaign service's multi-campaign concurrency proof under the
# race detector: two tenants' distinct campaigns complete concurrently
# on one shared fleet (TestTwoTenantsConcurrent), plus the rest of the
# service suite (scheduling, backpressure, drain, archive hits) —
# -count=2 shakes out ordering-dependent races the single pass in
# `race` can miss.
race-service:
	$(GO) test -race -count=2 ./internal/service

# The attack-style fault models (instruction skip, PC corruption,
# multi-bit bursts) under the race detector: the objective-carrying
# strategy matrix and skip/burst interrupt+resume in the root package,
# plus the attack-space fleet/archive paths of the campaign service —
# -count=2 shakes out ordering-dependent races, exactly like
# race-service.
race-spaces:
	$(GO) test -race -count=2 -run='TestObjectiveStrategyEquivalence|TestInterruptResumeAttackSpaces|TestOracleRandomCoordinates' . ./internal/experiments
	$(GO) test -race -count=2 -run='TestInvariant12ArchiveHitAttackSpaces' ./internal/service

# The observability layer under the race detector: the fleet trace
# timeline (spans merging from concurrent workers into the
# coordinator's recorder), the straggler watchdog and windowed rate
# estimator reading coordinator state while leases churn, the
# /metrics exposition racing live instruments, and the service-side
# trace/metrics/starved-tenant surface — the span recorder and
# watchdog are the newest lock-guarded state shared across worker
# goroutines and HTTP handlers, and -count=2 shakes out
# ordering-dependent races, exactly like race-service.
race-observability:
	$(GO) test -race -count=2 -run='TestFleetTraceTimeline|TestWatchdogFlagsStragglerWorker|TestWindowedWorkerRates|TestCoordinatorMetricsExposition' ./internal/cluster
	$(GO) test -race -count=2 -run='TestServiceTraceAndMetrics|TestStarvedTenantWatchdog' ./internal/service

# A short deterministic-corpus + 10s randomized smoke of the attack
# surfaces: the binary decoders exposed to untrusted bytes
# (corrupted checkpoint files, mutated cluster wire frames and damaged
# service archive entries must error, never panic), and the predecode
# fast path under self-modifying stores and code-region bit flips (the
# pre-decoded dispatch stream must stay lockstep-identical to the plain
# decoder through precise invalidation). The attack-space coordinate codecs are
# covered the same way: the burst (k, pos) decoder must reject or decode
# to an exact adjacent mask, and skip-space class lists must survive the
# archive/wire FromClasses round trip.
fuzz-smoke:
	$(GO) test ./internal/checkpoint -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzWorkUnitDecode -fuzztime=10s
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzArchiveEntryDecode -fuzztime=10s
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzPredecodeSelfModify -fuzztime=10s
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzBurstMaskDecode -fuzztime=10s
	$(GO) test ./internal/pruning -run='^$$' -fuzz=FuzzSkipCoordinateRoundTrip -fuzztime=10s

# A short run of the instrument-overhead benchmark: the disabled
# (nil-registry) fast path must stay allocation-free, which -benchmem
# makes visible; TestDisabledPathAllocFree enforces it in `test`.
bench-telemetry:
	$(GO) test ./internal/telemetry -run='^$$' -bench=BenchmarkTelemetryOverhead -benchtime=100x -benchmem

# One un-calibrated iteration of every BenchmarkFullScan row — each
# strategy × accelerator combination plus the attack-space variants —
# so a broken scan configuration fails `make check` instead of being
# discovered at the next full bench run. BENCH_SKIP_WRITE keeps the
# single-iteration timings out of the tracked BENCH_scan.json.
bench-smoke:
	BENCH_SKIP_WRITE=1 $(GO) test -run='^$$' -bench=BenchmarkFullScan -benchtime=1x .

bench:
	$(GO) test -bench=. -benchmem
