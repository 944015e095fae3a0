# Developer entry points. `make check` is the gate for every change: the
# harness and explorer are concurrent, so the race detector is mandatory,
# and the repo's own invariants (determinism, telemetry accounting, option
# sentinels, runner construction, ordering constants) are compiler-checked
# by compasslint. CI's lint job runs `make check`, so the flags here and
# there are identical by construction.

GO ?= go

.PHONY: check lint fmt build vet test race perfbench bench fuzz fuzznative golden telemetry serve servesmoke shardsmoke plan

check: lint build race perfbench

# Static analysis: gofmt, go vet, and the repo's own analyzer suite (see
# DESIGN.md §9 and internal/analyzers).
lint: fmt vet
	$(GO) run ./cmd/compasslint ./...

# Formatting: every Go file outside testdata (whose analyzer fixtures
# keep their own layout) must be gofmt-clean. The benchmark's build
# directory is skipped.
fmt:
	@files="$$(gofmt -l . | grep -v -e '/testdata/' -e '^\.bench_build/' || true)"; \
	if [ -n "$$files" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark (perfbench/, see its README) is its own module that
# replaces compass with this checkout, so `./...` above never compiles it.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Differential fuzzing smoke: a clean sweep over all libraries must stay
# silent, and a seeded mutant must be caught and shrunk. Longer campaigns:
# `go run ./cmd/fuzz -duration 5m` (see README and DESIGN.md §7).
fuzz:
	$(GO) run ./cmd/fuzz -duration 10s -q
	$(GO) run ./cmd/fuzz -lib treiber -mutate relaxed-push -expect-failure -q

# Native Go fuzz targets, short deterministic pass over the seed corpus
# plus a bounded fuzzing run each.
FUZZTIME ?= 30s
fuzznative:
	$(GO) test -fuzz FuzzViewOps -fuzztime $(FUZZTIME) ./internal/view
	$(GO) test -fuzz FuzzLogViewOps -fuzztime $(FUZZTIME) ./internal/view
	$(GO) test -fuzz FuzzMemorySteps -fuzztime $(FUZZTIME) ./internal/memory

# Golden litmus corpus: verify the reachable-outcome sets; regenerate
# deliberately with `make golden UPDATE=-update` after an intentional
# memory-model change.
golden:
	$(GO) test ./internal/litmus -run TestGoldenLitmusCorpus $(UPDATE)

# Telemetry artifact smoke: emit stats + Chrome trace from a litmus run
# and validate both against their schemas (what CI's telemetry job does).
telemetry:
	$(GO) run ./cmd/litmus -test SB -por=source -plan -stats /tmp/compass_sb.json -trace-out /tmp/compass_sb.trace.json
	$(GO) run ./cmd/statcheck -snapshot /tmp/compass_sb.json -trace /tmp/compass_sb.trace.json

# Regenerate the committed static access-plan fixture from the suite
# sources (internal/analysis/staticplan/testdata/plans.json), then verify
# it round-trips. The planstale lint pass and TestPlansFresh fail until a
# workload edit that changes its plan is followed by this target.
plan:
	$(GO) test ./internal/analysis/staticplan -run TestPlansFresh -update -count=1
	$(GO) test ./internal/analysis/staticplan -run TestPlansFresh -count=1

# Run the verification service with a persistent checkpoint directory;
# SIGTERM pauses jobs at their next segment boundary and a restart
# resumes them (see README "Verification as a service").
STATEDIR ?= /tmp/compassd-state
serve:
	$(GO) run ./cmd/compassd -addr localhost:8723 -state $(STATEDIR)

# compassd crash smoke: the kill/resume identity matrix plus the re-exec
# SIGKILL test (a real process killed mid-frontier, resumed on a
# different worker count, final report diffed against an uninterrupted
# run). CI's compassd job runs these and a shell-level binary smoke.
servesmoke:
	$(GO) test ./internal/serve -run 'TestKillResume|TestSIGKILLResume' -count=1 -v

# Multi-process sharding smoke: the lease matrix (two peers vs
# single-process byte-identity, peer SIGKILLed mid-lease, coordinator
# crash + epoch-bumped resume, idempotent returns) and the /v1 HTTP
# lifecycle, including the refusal of removed spec fields. CI's compassd-shard job runs these and a shell-level
# coordinator + two-peer smoke with one peer killed mid-run.
shardsmoke:
	$(GO) test ./internal/serve -run 'TestShard|TestHTTP|TestSubmitDuringShutdown' -count=1 -v

# Quick microbenchmark pass: view cloning, release writes, the T1 effort
# table, exhaustive MP, the logical-view joins, lib/deque's bytes and
# allocations per exhaustive execution, the library corpus's per random
# execution, and IRIW and STAR5's per unreduced execution, whole and in
# segments. End-to-end performance claims come from perfbench.
bench:
	$(GO) test -run '^$$' -bench 'ViewClone16|ReleaseWrite|T1EffortTable|ExhaustiveMP|LogViewJoin32|ClockJoin|LibDequeExhaustive|RandomLibraryChecks|LitmusOffLong' -benchmem . ./internal/view ./internal/memory
