GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check lint lint-sarif test race test-e2e test-recovery fuzz-smoke bench bench-diff bench-diff-core

all: build vet lint test

# e2ebench/ is its own module, which `./...` skips; building and
# vetting it here catches a deleted name it still calls before CI's
# late e2e step does. Its build writes no binary (-o /dev/null).
build:
	$(GO) build ./...
	$(GO) -C e2ebench build -o /dev/null ./...

vet:
	$(GO) vet ./...
	$(GO) -C e2ebench vet ./...

# Formatting gate: lists every tracked Go file gofmt would rewrite and
# fails if there is any.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Domain-aware static analysis: determinism, dp-leak, float-safety,
# errcheck-lite, concurrency-safety and durability-ordering diagnostics
# go vet cannot see. See DESIGN.md ("Machine-checked invariants") for
# the code catalogue and the //mcslint:allow annotation syntax.
lint:
	$(GO) run ./cmd/mcs-lint ./...

# Same suite, SARIF 2.1.0 output for code-scanning UIs. Always writes
# mcs-lint.sarif (empty results on a clean tree) and preserves the
# lint exit status.
lint-sarif:
	$(GO) run ./cmd/mcs-lint -q -format sarif ./... > mcs-lint.sarif

# The default test target runs with the race detector: the distributed
# protocol and the fault-injection suite are exactly the code most
# likely to hide data races.
test:
	$(GO) test -race ./...

race: test

# The served-round benchmark under e2ebench/ is a separate module, so
# `go test ./...` never builds it. Its tests include the four-workload
# smoke run with its IR, digest and delivered-equals-reported checks,
# and TestLiveHeapFlat, which serves 20 rounds and fails when the live
# heap grows per round (partition bid buffers and auctions persist
# across rounds).
test-e2e:
	$(GO) -C e2ebench test ./...

# Micro-benchmarks for the auction core, the telemetry overhead pair,
# and the sweep engine (cover construction, reweight-vs-rebuild,
# sequential-vs-parallel sweeps), regenerating the committed
# BENCH_*.json files so perf changes show up in diffs. Human-readable
# lines go to stderr.
bench:
	$(GO) run ./cmd/mcs-bench -out BENCH_core.json > /dev/null
	$(GO) run ./cmd/mcs-bench -suite experiment -out BENCH_experiment.json > /dev/null

# Blocking regression gate for the experiment suite: fails when a
# gated benchmark (auction/cover/gain/sweep/rebuild/reweight) is more
# than 25% slower or allocates 25% more per op, when AuctionNew
# exceeds its absolute 300 allocs/op ceiling, or when the parallel
# Figure 4 sweep loses its speedup over sequential (1.3x on 2-3 cores,
# 2x on 4+, 4x on 8+; skipped with a note on one core). The 25%
# thresholds are coarse enough to hold on noisy shared runners.
bench-diff:
	$(GO) run ./cmd/mcs-bench -suite experiment -baseline BENCH_experiment.json > /dev/null

# Blocking regression gate for the core suite: the auction build and
# run benchmarks. A served partition runs neither per round: it runs
# Drawer.Prepare plus Draw, which AuctionDraw measures and which is
# reported but not diffed until BENCH_core.json records it. Gated
# benchmarks in this suite are coarse enough (>25% threshold) to hold
# even on noisy shared runners, so CI fails hard on them.
bench-diff-core:
	$(GO) run ./cmd/mcs-bench -baseline BENCH_core.json > /dev/null

# Durability gate: the WAL/snapshot store's unit, fuzz-corpus and
# replay-exactness property tests (recovery is bitwise-identical to the
# live accountant and the event fold at every record boundary), plus
# the kill/restart chaos tests and the round's skill-journal tests, all
# race-enabled and cache-busted.
test-recovery:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 \
		-run 'KillRestart|Resample|RoundSeedDerivation|SkillJournal' \
		./internal/protocol/
	$(GO) test -race -count=1 -run 'Restore|Recover|Journal' \
		./internal/mechanism/ ./internal/telemetry/evlog/

# Short fuzzing passes over the wire-format (frame decode, stream
# decode against json.Decoder, frame encode against json.Marshal),
# instance-validation, price-set and WAL-recovery targets, seeded from
# the on-disk corpora under testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./internal/protocol/ -run='^$$' -fuzz='^FuzzMessageDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/protocol/ -run='^$$' -fuzz='^FuzzConnRecv$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/protocol/ -run='^$$' -fuzz='^FuzzMessageEncode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzValidate$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzPriceSet$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store/ -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=$(FUZZTIME)
