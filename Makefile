GO ?= go

.PHONY: all build test race vet fmt ci figures bench bench-smoke vuln staticcheck cover profile fuzz chaos chaos-bindlockd clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting (CI gate); run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt vet build race fuzz

# fuzz gives each native fuzz target a short budget — enough to shake out
# parser regressions on every CI run; longer campaigns run the same targets
# with a bigger -fuzztime by hand.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/frontend -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sat -run '^$$' -fuzz FuzzParseDIMACS -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sat -run '^$$' -fuzz FuzzSolveAssuming -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzFingerprint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzCycleConstraints -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzEvalLanes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codesign -run '^$$' -fuzz FuzzSearchesMatchReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/satattack -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME)

# chaos runs the full tier-1 suite under a randomized-seed fault plan
# (picked up by the chaos-aware tests via BINDLOCK_CHAOS_SEED). The suite
# must stay green: faults are injected, retried, voted away — never fatal.
chaos:
	@seed=$${BINDLOCK_CHAOS_SEED:-$$(date +%s)}; \
	echo "chaos seed: $$seed"; \
	BINDLOCK_CHAOS_SEED=$$seed $(GO) test -count=1 ./...

# chaos-bindlockd is the serving-layer chaos drill: a fault plan stays active
# while a hammer of identical submissions runs, the manager drains, and a
# restarted manager resumes the interrupted attack from its checkpoint. The
# result must stay byte-identical to a never-faulted run. The regex also
# picks up the storage-integrity drill (TestServerChaosCorruption), which
# replays a corrupt=-bearing plan against a sealed cache: every disk read
# comes back bit-flipped and must degrade to an authenticated recompute.
# Seeded the same way as `make chaos`; CI runs it smoke-sized (one seed) on
# every push.
chaos-bindlockd:
	@seed=$${BINDLOCK_CHAOS_SEED:-$$(date +%s)}; \
	echo "chaos-bindlockd seed: $$seed"; \
	BINDLOCK_CHAOS_SEED=$$seed $(GO) test -count=1 -race -run 'TestServerChaos|TestSingleFlightHammer' ./internal/server

figures:
	$(GO) run ./cmd/figures -fig all

# bench times the parallel fan-outs at -j 1 vs -j N, verifies the outputs are
# bit-identical, and records the baseline in BENCH_parallel.json with
# per-run allocation counts (-benchmem). benchpar itself refuses a -jobs
# above the machine's CPU count, so an oversubscribed run can never become
# the checked-in baseline.
bench:
	$(GO) run ./cmd/benchpar -benchmem -attack-reps 5 -o BENCH_parallel.json

# bench-smoke is the CI-sized benchpar run: tiny workloads, a throwaway
# output file, but the same determinism gates — -j 1 vs -j N fingerprints
# must match, and every attack and solver row (sat-attack-modes,
# cyclic-attack-modes, sat-prop-rate) must reproduce its fingerprint in the
# checked-in BENCH_smoke_baseline.json on any hardware, or it exits 1 — plus
# a benchstat-style throughput gate: those rows' iters/sec and props/sec
# must stay within BENCH_REGRESS of the baseline (skipped with a warning
# when the hardware fingerprint differs from the baseline's).
BENCH_REGRESS ?= 0.20
bench-smoke:
	$(GO) run ./cmd/benchpar -samples 60 -secrets 2 -bench fir -attack-width 3 \
		-attack-reps 7 \
		-baseline BENCH_smoke_baseline.json -max-regress $(BENCH_REGRESS) \
		-o bench_smoke.json
	rm -f bench_smoke.json

# vuln scans the module against the Go vulnerability database. It downloads
# govulncheck on demand, so it needs network access; it is a CI step, not
# part of the offline `make ci` gate.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# staticcheck lints the module with honnef.co/go/tools. Like vuln it fetches
# the tool on demand, so it needs network access; it is a CI step, not part
# of the offline `make ci` gate.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# cover gates the metrics registry on a coverage floor: every tool's -metrics
# output and the determinism contract depend on it, so regressions in its
# tests fail CI rather than silently shrinking the pinned surface.
METRICS_COVER_MIN ?= 90
cover:
	$(GO) test -coverprofile=cover.out ./internal/metrics
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/metrics coverage: $$total% (floor $(METRICS_COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(METRICS_COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || \
		{ echo "coverage $$total% is below the $(METRICS_COVER_MIN)% floor"; exit 1; }

# profile runs the parallel benchmark under the pprof profilers and writes the
# aggregated metrics snapshot next to the profiles; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/benchpar -o BENCH_parallel.json -metrics metrics.json \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# clean removes build caches and every generated artifact the targets above
# leave behind: coverage profiles, pprof profiles, metrics snapshots, attack
# checkpoints and benchmark baselines.
clean:
	$(GO) clean ./...
	rm -f cover.out *.pprof metrics.json metrics.prom *.ckpt BENCH_parallel.json
