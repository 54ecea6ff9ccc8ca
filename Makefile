GO ?= go

.PHONY: all build test race vet fmt ci figures golden bench loc vuln staticcheck cover fuzz chaos chaos-bindlockd clean

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
# with a bigger -fuzztime by hand. Minimizing a new input is capped at 1000
# executions: go test's default of 60 s would let a target that finds one
# late spend the rest of its budget minimizing, executing nothing credited.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/frontend -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/sat -run '^$$' -fuzz FuzzParseDIMACS -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/sat -run '^$$' -fuzz FuzzSolveAssuming -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzFingerprint -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzCycleConstraints -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/netlist -run '^$$' -fuzz FuzzEvalLanes -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/codesign -run '^$$' -fuzz FuzzSearchesMatchReference -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/satattack -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x

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

# golden re-records the testdata of TestFiguresGolden (internal/experiments)
# from the current code: the full reproduction at seeds 1 and 7, on amd64.
# Run it only for a deliberate change to a figure, and name the re-pin in
# CHANGES.md.
golden:
	$(GO) test ./internal/experiments -run '^TestFiguresGolden$$' -count=1 -update

# bench runs the repository benchmark (bench/, declared in BENCHMARK.json):
# every workload, untraced then traced, built from source into .bench_build/.
# See bench/README.md for scoping a run with --workload, --seed and --seconds.
bench:
	bash bench/run.sh

# loc prints the production Go line count: every non-test .go file outside
# the benchmark module (bench/) and its build directory. Each change reports
# its net production lines as the difference of two `make loc` readings.
loc:
	@find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

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

# clean removes build caches and every generated artifact the targets above
# leave behind: coverage profiles, pprof profiles, metrics snapshots, attack
# checkpoints and the benchmark's build directory.
clean:
	$(GO) clean ./...
	rm -f cover.out *.pprof metrics.json metrics.prom *.ckpt
	rm -rf .bench_build
