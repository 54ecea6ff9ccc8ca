// Command figures regenerates the paper's evaluation figures and headline
// statistics (Sec. VI) as text tables.
//
// Usage:
//
//	figures [-fig 4|5|6|corruption|scan|resilience|eps|stability|all]
//	        [-samples N] [-seed S] [-candidates N] [-assignments N]
//	        [-optbudget N] [-bench a,b,c] [-csv DIR] [-timeout D] [-j N] [-v]
//	        [-metrics out.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -timeout bounds the whole regeneration with a context deadline; on expiry
// the tool exits 2 (0 success, 1 failure, 2 interrupted). -v streams phase
// progress to stderr. -j bounds the worker pool every sweep fans out over
// (default GOMAXPROCS); the tables are bit-identical at any -j. -metrics
// writes a metrics snapshot (JSON, or Prometheus text with a .prom
// extension) on every exit, including interrupted ones.
//
// The default configuration matches the paper's setup: all 11 benchmarks,
// the 10 most common minterms as candidate locked inputs, and the full
// {1,2,3} locked FUs x {1,2,3} locked inputs sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"bindlock/internal/cli"
	"bindlock/internal/experiments"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, corruption, scan, resilience, eps, stability or all")
	samples := flag.Int("samples", 600, "workload samples per benchmark")
	seed := flag.Int64("seed", 1, "workload seed")
	candidates := flag.Int("candidates", 10, "candidate locked input count |C|")
	assignments := flag.Int("assignments", 300, "max locked-input assignments enumerated per configuration")
	optBudget := flag.Int("optbudget", 20000, "largest enumeration for which optimal co-design also runs (-1 disables)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 11)")
	secrets := flag.Int("secrets", 6, "secrets per key width in the resilience experiments")
	csvDir := flag.String("csv", "", "also write each regenerated figure as CSV into this directory")
	timeout := flag.Duration("timeout", 0, "bound the whole regeneration wall time; 0 means no limit")
	jobs := flag.Int("j", 0, "worker pool size for the sweeps; 0 means GOMAXPROCS (output is identical at any -j)")
	verbose := flag.Bool("v", false, "stream phase progress to stderr")
	metricsFile := flag.String("metrics", "", "write a metrics snapshot to this file on exit (JSON, or Prometheus text for .prom)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	tel, err := cli.NewTelemetry(*metricsFile, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(cli.ExitFailure)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *verbose {
		ctx = progress.NewContext(ctx, &progress.Logger{W: os.Stderr})
	}
	ctx = parallel.NewContext(ctx, *jobs)
	ctx = tel.Context(ctx)

	cfg := experiments.Config{
		Samples:        *samples,
		Seed:           *seed,
		Candidates:     *candidates,
		MaxAssignments: *assignments,
		OptimalBudget:  *optBudget,
		Parallelism:    *jobs,
	}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}

	// Every error exit goes through the telemetry flush so partial metrics
	// survive, with the interrupted-vs-failed exit code derived from the
	// error.
	if err := experiments.Regenerate(ctx, os.Stdout, cfg, *fig, *secrets, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		tel.Exit(cli.ExitCode(err))
	}
	tel.Exit(cli.ExitOK)
}
