package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"bindlock/internal/dfg"
	"bindlock/internal/experiments"
	"bindlock/internal/metrics"
	"bindlock/internal/parallel"
)

// reproPins are sha256 fingerprints of the tables a full-size paper-repro
// pass renders at seed 1, the cmd/figures default. Only the tables that do
// not depend on a SAT-attack transcript are pinned: scan, resilience and eps
// follow the DIP sequence, which a deliberate change to the attack core may
// re-pin, so those are checked pass to pass and across -j only.
var reproPins = map[string]string{
	"fig4":       "1f814ed40264fc681c66b4f5b63835260804368dc6d955c303526eb4dd96ebe2",
	"fig5":       "04cf8d99641712f649577afb4889b97ba735eedef904c5c85f11484166eab143",
	"fig6":       "38506b86b3fa4aaf12b948d6746a2aa0702916d5247738aabab04ea5a93a5d59",
	"corruption": "c950b606f51140dc3d273a763b4c25c905c23f9c48aa6d8b8ce7498ea0a4b312",
	"stability":  "8960812c6c45b4d41868cd536c5a3663eb4056fe729cc31409af1eb59587635b",
}

// reproScale sizes one reproduction pass. full is cmd/figures -fig all at
// its defaults.
type reproScale struct {
	cfg         experiments.Config
	scan        []experiments.ScanSpec
	secrets     int
	stabilities []int64
}

func reproSize(seed int64, short bool) reproScale {
	s := reproScale{
		cfg: experiments.Config{Samples: 600, Seed: seed, Candidates: 10,
			MaxAssignments: 300, OptimalBudget: 20000},
		scan: []experiments.ScanSpec{
			{Bench: "jdmerge1", Class: dfg.ClassMul},
			{Bench: "fir", Class: dfg.ClassAdd},
			{Bench: "dct", Class: dfg.ClassAdd},
		},
		secrets:     6,
		stabilities: []int64{1, 2, 3, 4, 5},
	}
	if short {
		s.cfg.Benchmarks, s.cfg.Samples = []string{"fir"}, 120
		s.scan, s.secrets, s.stabilities = s.scan[1:2], 1, []int64{1}
	}
	return s
}

// reproPass runs the cmd/figures -fig all sequence once at parallelism j,
// each public experiments call (with its rendering) inside one span, and
// returns every rendered table.
func reproPass(ctx context.Context, sc reproScale, j int, tr *tracer, root int) (map[string][]byte, error) {
	ctx = parallel.NewContext(ctx, j)
	cfg := sc.cfg
	cfg.Parallelism = j
	seed := cfg.Seed
	tables := map[string][]byte{}
	render := func(name string, f func(*bytes.Buffer)) {
		var b bytes.Buffer
		f(&b)
		tables[name] = b.Bytes()
	}
	var suite *experiments.Suite
	steps := []struct {
		span string
		run  func() error
	}{
		{"experiments.prepare", func() (err error) {
			suite, err = experiments.NewSuite(ctx, cfg)
			return err
		}},
		{"experiments.fig4", func() error {
			sweep, err := suite.Fig4(ctx)
			if err != nil {
				return err
			}
			render("fig4", func(b *bytes.Buffer) { experiments.RenderFig4(b, sweep) })
			render("fig5", func(b *bytes.Buffer) { experiments.RenderFig5(b, experiments.Fig5From(sweep)) })
			return nil
		}},
		{"experiments.fig6", func() error {
			d, err := suite.Fig6(ctx)
			if err == nil {
				render("fig6", func(b *bytes.Buffer) { experiments.RenderFig6(b, d) })
			}
			return err
		}},
		{"experiments.corruption", func() error {
			rows, err := suite.OutputCorruption(ctx)
			if err == nil {
				render("corruption", func(b *bytes.Buffer) { experiments.RenderCorruption(b, rows) })
			}
			return err
		}},
		{"experiments.scan", func() error {
			rows, err := experiments.ScanSweep(ctx, sc.scan, 12, cfg.Samples, seed)
			if err == nil {
				render("scan", func(b *bytes.Buffer) { experiments.RenderScan(b, rows) })
			}
			return err
		}},
		{"experiments.resilience", func() error {
			rows, err := experiments.Resilience(ctx, []int{2, 3, 4}, sc.secrets, seed)
			if err == nil {
				render("resilience", func(b *bytes.Buffer) { experiments.RenderResilience(b, rows) })
			}
			return err
		}},
		{"experiments.stability", func() error {
			s, err := experiments.SeedStability(ctx, cfg, sc.stabilities)
			if err == nil {
				render("stability", func(b *bytes.Buffer) { experiments.RenderStability(b, s) })
			}
			return err
		}},
		{"experiments.eps", func() error {
			rows, err := experiments.EpsilonSweep(ctx, []int{0, 1, 2}, sc.secrets, seed)
			if err == nil {
				render("eps", func(b *bytes.Buffer) { experiments.RenderEpsilonSweep(b, rows) })
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := tr.timed(root, s.span, "", s.run); err != nil {
			return tables, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	return tables, nil
}

func fingerprint(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runRepro measures the paper reproduction. Set-up is preparing the kernels
// (experiments.NewSuite), timed on its own so that work moved into it shows;
// every pass still prepares them again, as cmd/figures does, with no warm-up.
// A traced run makes one untraced pass at -j nproc as the reference, then
// alternates untraced and traced passes at -j1, so the layer histograms add
// up to the pass wall.
func runRepro(ctx context.Context, r *run) error {
	sc := reproSize(r.cfg.seed, r.cfg.short)
	nproc := runtime.NumCPU()
	_, _, err := setUp(r, func(tr *tracer, parent int) (*experiments.Suite, error) {
		cfg := sc.cfg
		cfg.Parallelism = nproc
		var s *experiments.Suite
		err := tr.timed(parent, "experiments.prepare", "", func() (err error) {
			s, err = experiments.NewSuite(parallel.NewContext(ctx, nproc), cfg)
			return err
		})
		return s, err
	}, nil)
	if err != nil {
		return err
	}

	var ref map[string][]byte
	var walls, tracedWalls []float64
	var roots []int
	hists := map[string]float64{}
	counters := map[string]int64{}
	minPasses := 1
	if r.cfg.trace {
		minPasses = 3
	}
	err = r.measure(minPasses, func(i int) error {
		j, traced := nproc, false
		if r.cfg.trace && i > 0 {
			j, traced = 1, i%2 == 1
		}
		pctx := ctx
		var tr *tracer
		var reg *metrics.Registry
		if traced {
			tr, reg = r.tr, metrics.New()
			pctx = metrics.NewContext(ctx, reg)
		}
		root := tr.begin(0, "pass", fmt.Sprintf("%d/j%d", i, j))
		start := time.Now()
		tables, err := reproPass(pctx, sc, j, tr, root)
		wall := time.Since(start).Seconds()
		tr.end(root, nil)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = tables
			checkPins(r, tables, sc)
		}
		for name, want := range ref {
			r.check(bytes.Equal(tables[name], want), "pass %d at -j%d: table %s differs from the first pass", i, j, name)
		}
		switch {
		case traced:
			tracedWalls = append(tracedWalls, wall)
			roots = append(roots, root)
			snap := reg.Snapshot()
			for _, h := range snap.Histograms {
				hists[h.Name] += h.Sum
				hists[h.Name+"#count"] += float64(h.Count)
			}
			for _, c := range snap.Counters {
				counters[c.Name] += c.Value
			}
		case r.cfg.trace && i == 0:
			// The -j nproc reference is not compared with the -j1 passes' walls.
		default:
			walls = append(walls, wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !r.cfg.trace {
		r.set("wall_s", median(walls), len(walls))
		r.set("p50_ms", median(walls)*1000, len(walls))
		return nil
	}
	secs, _, unattributed := r.tr.passTotals(roots)
	n := float64(len(roots))
	perPass := func(name string, v float64) { r.set(name, v/n, len(roots)) }
	for _, step := range []string{"prepare", "fig4", "fig6", "corruption", "scan", "resilience", "stability", "eps"} {
		perPass("experiments."+step+"_s", secs["experiments."+step])
	}
	for name, hist := range map[string]string{
		"sim.run_s":             "sim_run_seconds",
		"codesign.search_s":     "codesign_seconds",
		"binding.bind_s":        "binding_bind_seconds",
		"lockedsim.run_s":       "lockedsim_run_seconds",
		"satattack.iteration_s": "satattack_iteration_seconds",
		"sat.solve_s":           "sat_solve_seconds",
	} {
		perPass(name, hists[hist])
	}
	perPass("sat.solve_calls", hists["sat_solve_seconds#count"])
	perPass("satattack.dips", float64(counters["satattack_dips_total"]))
	perPass("sat.conflicts", float64(counters["sat_conflicts_total"]))
	perPass("sat.propagations", float64(counters["sat_propagations_total"]))
	perPass("netlist.oracle_queries", float64(counters["satattack_oracle_queries_total"]))
	perPass("unattributed_s", unattributed)
	r.set("bench.trace_overhead", median(tracedWalls)/median(walls)-1, len(tracedWalls))
	return nil
}

// checkPins compares a full-size seed-1 pass with the pinned fingerprints.
func checkPins(r *run, tables map[string][]byte, sc reproScale) {
	if r.cfg.short || sc.cfg.Seed != 1 {
		return
	}
	for name, want := range reproPins {
		got := fingerprint(tables[name])
		r.check(got == want, "table %s fingerprint %s, pinned %s", name, got, want)
	}
}
