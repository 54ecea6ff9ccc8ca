// Command benchpar measures the wall-clock effect of the internal/parallel
// worker pool and cross-checks the determinism guarantee: the same sweep runs
// at -j 1 and at -j N, both outputs are fingerprinted, and the fingerprints
// must match bit-for-bit before any timing is reported.
//
// Usage:
//
//	benchpar [-samples N] [-seed S] [-bench a,b,c] [-secrets N] [-jobs N]
//	         [-o BENCH_parallel.json] [-metrics out.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The report is written as JSON (default BENCH_parallel.json) with one entry
// per workload (the Fig. 4 sweep and the SAT-resilience sweep), each carrying
// sequential and parallel timings, the speedup ratio, and the shared
// fingerprint, plus a "metrics" snapshot of the run's aggregated counters.
// A third workload, sat-attack-modes, times the exact SAT attack on one
// SFLL-locked adder (-attack-width) and reports attack throughput as
// iterations/sec from the satattack_iteration_seconds histogram; its
// fingerprint covers the recovered key and the DIP count. A fourth,
// cyclic-attack-modes, does the same for the CycSAT-constrained attack on a
// cyclically locked adder. A fifth, sat-prop-rate, isolates raw
// unit-propagation throughput on budgeted random 3-SAT, run twice on the
// same engine. Each of these rows names its configuration in a mode, and
// every repetition of a mode must reproduce its fingerprint.
//
// -baseline compares the run with a checked-in report: each baseline row
// that has a mode must reproduce its fingerprint on any hardware, and on the
// baseline's own hardware its throughput must also stay within -max-regress.
// On single-core machines the speedup is honestly ~1x; the determinism check
// is the part that must always hold. -metrics additionally writes the
// snapshot to its own file; -cpuprofile/-memprofile capture pprof profiles of
// the whole comparison (see `make profile`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bindlock/internal/cli"
	"bindlock/internal/experiments"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/parallel"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
)

// Timing is one measurement: a (workload, worker count) pair for the
// parallelism sweeps, or a (workload, mode) pair for the attack and solver
// rows.
type Timing struct {
	Jobs        int     `json:"jobs"`
	Mode        string  `json:"mode,omitempty"`
	Seconds     float64 `json:"seconds"`
	ItersPerSec float64 `json:"iters_per_sec,omitempty"`
	// Mallocs/AllocBytes are heap-allocation deltas over the run
	// (runtime.MemStats), recorded when -benchmem is set — the benchpar
	// analogue of `go test -benchmem`.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// PropsPerSec is raw unit-propagation throughput (sat-prop-rate only).
	PropsPerSec float64 `json:"props_per_sec,omitempty"`
	Fingerprint string  `json:"fingerprint"`
}

// Workload aggregates the runs of one workload: the sequential/parallel
// pair of a sweep, or the moded rows of an attack or solver workload.
type Workload struct {
	Name string   `json:"name"`
	Runs []Timing `json:"runs"`
	// Speedup is -j 1 over -j N wall time; workloads that compare no two
	// configurations leave it out.
	Speedup       float64 `json:"speedup,omitempty"`
	Deterministic bool    `json:"deterministic"`
}

// Report is the BENCH_parallel.json schema.
type Report struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Workloads  []Workload `json:"workloads"`
	// Metrics is the run's aggregated metrics snapshot: solver and attack
	// counters summed over every workload at every worker count.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

func main() {
	samples := flag.Int("samples", 200, "workload samples per benchmark")
	seed := flag.Int64("seed", 1, "workload seed")
	benches := flag.String("bench", "fir,jdmerge3,ecb_enc4", "comma-separated benchmark subset for the sweep")
	secrets := flag.Int("secrets", 4, "secrets per key width in the resilience sweep")
	attackWidth := flag.Int("attack-width", 4, "adder operand width for the sat-attack-modes and cyclic-attack-modes workloads")
	attackReps := flag.Int("attack-reps", 1, "repetitions per attack mode; the best run is reported (noise floor for the -baseline gate)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel worker count to compare against -j 1")
	out := flag.String("o", "BENCH_parallel.json", "output JSON path")
	metricsFile := flag.String("metrics", "", "also write the metrics snapshot to this file (JSON, or Prometheus text for .prom)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchMem := flag.Bool("benchmem", false, "record heap-allocation deltas (mallocs, bytes) per run in the report")
	baseline := flag.String("baseline", "", "compare every moded row with this checked-in report: fingerprints must match, and on the same hardware throughput must stay within -max-regress")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional iters/sec regression against -baseline")
	flag.Parse()

	// An honest multi-core baseline needs real cores behind every worker: a
	// -j above the machine's CPU count measures oversubscription, not
	// parallel speedup, and such a report must never become the checked-in
	// reference.
	if *jobs > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchpar: -jobs %d exceeds the %d available CPUs; baselines must not oversubscribe\n",
			*jobs, runtime.NumCPU())
		os.Exit(cli.ExitFailure)
	}
	recordMem = *benchMem

	tel, err := cli.NewTelemetry(*metricsFile, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpar:", err)
		os.Exit(cli.ExitFailure)
	}
	if tel.Registry == nil {
		// The report always embeds a snapshot, so a registry runs even
		// without -metrics.
		tel.Registry = metrics.New()
		tel.Registry.Set("process_gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	}
	fail := func(prefix string, err error) {
		fmt.Fprintf(os.Stderr, "benchpar: %s%v\n", prefix, err)
		tel.Exit(cli.ExitCode(err))
	}

	ctx := tel.Context(context.Background())
	cfg := experiments.Config{
		Samples:        *samples,
		Seed:           *seed,
		Candidates:     6,
		MaxAssignments: 40,
		OptimalBudget:  500,
		Benchmarks:     strings.Split(*benches, ","),
	}

	rep := Report{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	fig4 := func(j int) (string, error) {
		c := cfg
		c.Parallelism = j
		s, err := experiments.NewSuite(parallel.NewContext(ctx, j), c)
		if err != nil {
			return "", err
		}
		d, err := s.Fig4(parallel.NewContext(ctx, j))
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := d.WriteFig4CSV(&buf); err != nil {
			return "", err
		}
		return fingerprint(buf.Bytes()), nil
	}
	resil := func(j int) (string, error) {
		rows, err := experiments.Resilience(parallel.NewContext(ctx, j), []int{2, 3}, *secrets, *seed)
		if err != nil {
			return "", err
		}
		return fingerprint([]byte(fmt.Sprintf("%+v", rows))), nil
	}

	ok := true
	for _, wl := range []struct {
		name string
		run  func(j int) (string, error)
	}{
		{"fig4-sweep", fig4},
		{"sat-resilience", resil},
	} {
		w, err := measure(wl.name, wl.run, *jobs)
		if err != nil {
			fail(wl.name+": ", err)
		}
		ok = ok && w.Deterministic
		rep.Workloads = append(rep.Workloads, w)
	}

	// The attack rows time one key recovery each, on a fresh registry per
	// repetition so the iteration histogram covers one run.
	w, err := attackModes(ctx, *attackWidth, *attackReps)
	if err != nil {
		fail("sat-attack-modes: ", err)
	}
	rep.Workloads = append(rep.Workloads, w)
	w, err = cyclicAttackModes(ctx, *attackWidth, *attackReps, *seed)
	if err != nil {
		fail("cyclic-attack-modes: ", err)
	}
	rep.Workloads = append(rep.Workloads, w)

	// The propagation-rate rows isolate the solver hot loop; attack
	// iterations are encode- and oracle-bound at benchmark widths, so
	// solver throughput only shows on instances where unit propagation
	// dominates.
	w, err = satPropRate(*attackReps)
	if err != nil {
		fail("sat-prop-rate: ", err)
	}
	ok = ok && w.Deterministic
	rep.Workloads = append(rep.Workloads, w)

	snap := tel.Registry.Snapshot()
	rep.Metrics = &snap

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail("", err)
	}
	fmt.Printf("[wrote %s]\n", *out)
	if *baseline != "" {
		if err := gateBaseline(rep, *baseline, *maxRegress); err != nil {
			fail("baseline: ", err)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchpar: DETERMINISM VIOLATION: -j 1 and -j N outputs differ")
		tel.Exit(cli.ExitFailure)
	}
	tel.Exit(cli.ExitOK)
}

// gateBaseline is the CI gate against a checked-in baseline report. First,
// on any hardware, every baseline row that has a mode must reappear in this
// run with the same fingerprint: the attack and solver rows are
// deterministic, so a changed key, DIP count or solver counter is a
// behaviour change, not noise. Then the benchstat-style throughput gate
// fails on a regression beyond maxRegress. Throughput is only comparable on
// the hardware that recorded the baseline, so a NumCPU/GOMAXPROCS/Go-version
// mismatch skips that half with a warning instead of failing on numbers that
// were never commensurable.
func gateBaseline(rep Report, path string, maxRegress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fingerprints := func(r Report) map[string]string {
		m := map[string]string{}
		for _, w := range r.Workloads {
			for _, t := range w.Runs {
				if t.Mode != "" {
					m[w.Name+"/"+t.Mode] = t.Fingerprint
				}
			}
		}
		return m
	}
	baseFPs, curFPs := fingerprints(base), fingerprints(rep)
	if len(baseFPs) == 0 {
		return fmt.Errorf("%s carries no moded rows to gate on", path)
	}
	for _, mode := range sortedKeys(baseFPs) {
		got, found := curFPs[mode]
		switch {
		case !found:
			return fmt.Errorf("mode %q in baseline %s is missing from this run", mode, path)
		case got != baseFPs[mode]:
			return fmt.Errorf("mode %q fingerprint %s, baseline %s records %s", mode, got, path, baseFPs[mode])
		}
		fmt.Printf("baseline %-36s fingerprint %s ok\n", mode, got)
	}
	if base.NumCPU != rep.NumCPU || base.GOMAXPROCS != rep.GOMAXPROCS || base.GoVersion != rep.GoVersion {
		fmt.Fprintf(os.Stderr,
			"benchpar: baseline %s recorded on cpu=%d gomaxprocs=%d %s, this run is cpu=%d gomaxprocs=%d %s; skipping regression gate\n",
			path, base.NumCPU, base.GOMAXPROCS, base.GoVersion,
			rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion)
		return nil
	}
	// One throughput per (workload, mode): iterations/sec for the attack
	// modes, propagations/sec for the raw solver loop.
	modes := func(r Report) map[string]float64 {
		m := map[string]float64{}
		for _, w := range r.Workloads {
			for _, t := range w.Runs {
				if t.Mode == "" {
					continue
				}
				if v := max(t.ItersPerSec, t.PropsPerSec); v > 0 {
					m[w.Name+"/"+t.Mode] = v
				}
			}
		}
		return m
	}
	baseModes, curModes := modes(base), modes(rep)
	if len(baseModes) == 0 {
		return fmt.Errorf("%s carries no per-mode throughput to gate on", path)
	}
	var regressed []string
	for _, mode := range sortedKeys(baseModes) {
		want := baseModes[mode]
		got, found := curModes[mode]
		if !found {
			return fmt.Errorf("mode %q in baseline %s is missing from this run", mode, path)
		}
		floor := want * (1 - maxRegress)
		verdict := "ok"
		if got < floor {
			verdict = "REGRESSION"
			regressed = append(regressed, mode)
		}
		fmt.Printf("baseline %-36s %12.1f -> %12.1f /s (floor %.1f) %s\n",
			mode, want, got, floor, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("modes regressed beyond %.0f%%: %s",
			maxRegress*100, strings.Join(regressed, ", "))
	}
	return nil
}

// sortedKeys gives the gate a stable report order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recordMem mirrors the -benchmem flag; when set every timed run also
// records its heap-allocation delta.
var recordMem bool

// timed runs fn, returning elapsed seconds and (under -benchmem) the heap
// mallocs/bytes delta across the run.
func timed(fn func() error) (secs float64, mallocs, allocBytes uint64, err error) {
	var before runtime.MemStats
	if recordMem {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	err = fn()
	secs = time.Since(start).Seconds()
	if recordMem {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	return secs, mallocs, allocBytes, err
}

// measure times one workload at -j 1 and -j jobs and checks the fingerprints
// agree.
func measure(name string, run func(j int) (string, error), jobs int) (Workload, error) {
	w := Workload{Name: name}
	for _, j := range []int{1, jobs} {
		var fp string
		secs, mallocs, allocBytes, err := timed(func() error {
			var rerr error
			fp, rerr = run(j)
			return rerr
		})
		if err != nil {
			return w, err
		}
		w.Runs = append(w.Runs, Timing{
			Jobs: j, Seconds: secs, Fingerprint: fp,
			Mallocs: mallocs, AllocBytes: allocBytes,
		})
		fmt.Printf("%-16s -j %-3d %8.3fs  %s\n", name, j, secs, fp)
	}
	w.Deterministic = w.Runs[0].Fingerprint == w.Runs[1].Fingerprint
	if w.Runs[1].Seconds > 0 {
		w.Speedup = w.Runs[0].Seconds / w.Runs[1].Seconds
	}
	return w, nil
}

// attackModes times the exact SAT attack on an SFLL-locked adder.
func attackModes(ctx context.Context, width, reps int) (Workload, error) {
	base, err := netlist.NewAdder(width)
	if err != nil {
		return Workload{}, err
	}
	secret := (uint64(1)<<(2*width) - 1) / 3 // 0b0101… pattern, always in range
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{secret})
	if err != nil {
		return Workload{}, err
	}
	return timeAttack(ctx, "sat-attack-modes", "rebuild", locked, key, satattack.Options{}, reps)
}

// cyclicAttackModes times the CycSAT-constrained attack on a cyclically
// locked adder (SRCLock-style feedback MUXes plus decoys).
func cyclicAttackModes(ctx context.Context, width, reps int, seed int64) (Workload, error) {
	base, err := netlist.NewAdder(width)
	if err != nil {
		return Workload{}, err
	}
	locked, key, err := netlist.LockCyclic(base, 2, 2, seed)
	if err != nil {
		return Workload{}, err
	}
	return timeAttack(ctx, "cyclic-attack-modes", "cycsat-rebuild", locked, key,
		satattack.Options{CycleBreak: true}, reps)
}

// timeAttack runs one attack configuration reps times, checks every
// recovered key against the oracle, and reports the fastest repetition with
// its throughput as iterations/sec from the run's
// satattack_iteration_seconds histogram. The fingerprint covers the
// recovered key bits and the iteration count.
func timeAttack(ctx context.Context, name, mode string, locked *netlist.Circuit, key []bool, opts satattack.Options, reps int) (Workload, error) {
	w := Workload{Name: name}
	if reps < 1 {
		reps = 1
	}
	// Best-of-reps: scheduler noise only ever slows a run down, so the
	// fastest repetition is the stable estimate the -baseline gate needs.
	// Every repetition must produce the same fingerprint — a repetition that
	// doesn't is a determinism violation, not noise.
	var t Timing
	for rep := 0; rep < reps; rep++ {
		reg := metrics.New()
		mctx := metrics.NewContext(ctx, reg)
		oracle := satattack.OracleFromCircuit(locked, key)
		var res *satattack.Result
		secs, mallocs, allocBytes, err := timed(func() error {
			var aerr error
			res, aerr = satattack.Attack(mctx, locked, oracle, opts)
			return aerr
		})
		if err != nil {
			return w, err
		}
		if verr := satattack.VerifyKey(ctx, locked, res.Key, oracle); verr != nil {
			return w, fmt.Errorf("%s: recovered key failed verification: %w", mode, verr)
		}
		rt := Timing{
			Jobs: 1, Mode: mode, Seconds: secs, Fingerprint: attackFingerprint(res),
			Mallocs: mallocs, AllocBytes: allocBytes,
		}
		if h, found := reg.Snapshot().Histogram("satattack_iteration_seconds"); found && h.Sum > 0 {
			rt.ItersPerSec = float64(h.Count) / h.Sum
		}
		if rep == 0 {
			t = rt
			continue
		}
		if rt.Fingerprint != t.Fingerprint {
			return w, fmt.Errorf("%s repetition %d changed fingerprint %s -> %s",
				mode, rep, t.Fingerprint, rt.Fingerprint)
		}
		if rt.ItersPerSec > t.ItersPerSec {
			t = rt
		}
	}
	w.Runs = append(w.Runs, t)
	w.Deterministic = true
	fmt.Printf("%-19s %-14s %8.3fs  %10.1f iters/s  %s\n",
		w.Name, mode, t.Seconds, t.ItersPerSec, t.Fingerprint)
	return w, nil
}

// satPropRate measures raw unit-propagation throughput on fixed-seed random
// 3-SAT instances under a fixed conflict budget: budgeted search on instances
// big enough that the propagate loop — not encoding or oracle calls —
// dominates. Only the Solve calls are timed. The default engine runs twice
// and the two runs carry the determinism check (same engine, same instances,
// bit-identical verdicts and counters).
func satPropRate(reps int) (Workload, error) {
	w := Workload{Name: "sat-prop-rate"}
	const (
		numVars   = 1200
		ratio     = 4.26 // clauses per variable, near the 3-SAT phase transition
		seeds     = 3
		conflicts = 20_000 // per-solve budget; bounds the comparison, not the search
	)
	numClauses := int(float64(numVars) * ratio)
	// Each engine run is a couple of seconds of tight solver loop, so timing
	// noise is a few percent, not the 2x swings of the millisecond-scale
	// attack runs; two repetitions suffice for the best-of estimate.
	if reps > 2 {
		reps = 2
	}
	if reps < 1 {
		reps = 1
	}
	f, err := sat.BackendFactory(sat.DefaultBackend)
	if err != nil {
		return w, err
	}
	for _, mode := range []string{"arena", "arena-rerun"} {
		var t Timing
		for rep := 0; rep < reps; rep++ {
			var (
				props int64
				secs  float64
				fp    []byte
			)
			for seed := int64(0); seed < seeds; seed++ {
				b := f()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < numVars; i++ {
					b.NewVar()
				}
				for i := 0; i < numClauses; i++ {
					b.AddClause(
						sat.NewLit(rng.Intn(numVars), rng.Intn(2) == 0),
						sat.NewLit(rng.Intn(numVars), rng.Intn(2) == 0),
						sat.NewLit(rng.Intn(numVars), rng.Intn(2) == 0))
				}
				b.SetMaxConflicts(conflicts)
				start := time.Now()
				model, err := b.Solve(context.Background())
				secs += time.Since(start).Seconds()
				verdict := "unsat"
				switch {
				case errors.Is(err, sat.ErrBudget):
					verdict = "budget"
				case err != nil:
					return w, fmt.Errorf("seed %d: %w", seed, err)
				case model:
					verdict = "sat"
				}
				st := b.Stats()
				props += st.Propagations
				fp = append(fp, fmt.Sprintf("%d:%s:%d:%d;", seed, verdict, st.Propagations, st.Conflicts)...)
			}
			rt := Timing{Jobs: 1, Mode: mode, Seconds: secs, Fingerprint: fingerprint(fp)}
			if secs > 0 {
				rt.PropsPerSec = float64(props) / secs
			}
			if rep == 0 {
				t = rt
				continue
			}
			if rt.Fingerprint != t.Fingerprint {
				return w, fmt.Errorf("%s repetition %d changed fingerprint %s -> %s",
					mode, rep, t.Fingerprint, rt.Fingerprint)
			}
			if rt.PropsPerSec > t.PropsPerSec {
				t = rt
			}
		}
		w.Runs = append(w.Runs, t)
		fmt.Printf("%-19s %-14s %8.3fs  %10.0f props/s  %s\n",
			w.Name, mode, t.Seconds, t.PropsPerSec, t.Fingerprint)
	}
	w.Deterministic = w.Runs[0].Fingerprint == w.Runs[1].Fingerprint
	return w, nil
}

// attackFingerprint digests what every repetition of an attack row must
// reproduce bit-for-bit: the recovered key and the DIP iteration count.
func attackFingerprint(res *satattack.Result) string {
	b := make([]byte, 0, len(res.Key)+16)
	for _, bit := range res.Key {
		if bit {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	b = append(b, fmt.Sprintf(":%d", res.Iterations)...)
	return fingerprint(b)
}

// fingerprint is a 64-bit FNV-1a digest of the serialised output, enough to
// witness bit-identical tables across worker counts.
func fingerprint(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
