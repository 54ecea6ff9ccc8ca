package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

// StabilityRow is one seed's headline numbers.
type StabilityRow struct {
	Seed                  int64
	ObfOverall, CoOverall float64
	HeuristicGap          float64
}

// Stability aggregates the headline statistics across workload seeds,
// establishing that the reproduction's conclusions are not artefacts of one
// synthetic-workload draw.
type Stability struct {
	Rows                     []StabilityRow
	MeanObf, StdObf          float64
	MeanCo, StdCo            float64
	MinCoOverObf             float64 // smallest per-seed CoOverall/ObfOverall ratio
	AllSeedsCoBeatsObf       bool
	AllSeedsAboveUnityMargin bool // every seed's ObfOverall > 2
}

// SeedStability reruns the Fig. 4 sweep under each seed and aggregates the
// headline statistics.
func SeedStability(ctx context.Context, cfg Config, seeds []int64) (*Stability, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds given")
	}
	hook := progress.FromContext(ctx)
	progress.Start(hook, "stability", fmt.Sprintf("%d seeds", len(seeds)))
	out := &Stability{
		MinCoOverObf:             math.Inf(1),
		AllSeedsCoBeatsObf:       true,
		AllSeedsAboveUnityMargin: true,
	}
	// One task per (seed, benchmark): it prepares that benchmark under that
	// seed and computes its Fig. 4 cells, so only the preparations in
	// flight are live. Each seed's cells merge in benchmark order, the
	// order of its Fig. 4 sweep, so the table is identical at any worker
	// count.
	names := cfg.benchmarkNames()
	n := len(seeds) * len(names)
	var ticks atomic.Int64
	cells, _, err := parallel.Map(ctx, cfg.Parallelism, n, func(tctx context.Context, t int) ([]Cell, error) {
		c := cfg
		c.Seed = seeds[t/len(names)]
		s := &Suite{Cfg: c.withDefaults()}
		sctx := parallel.Sequential(tctx)
		p, err := s.Cfg.prepare(sctx, names[t%len(names)])
		if err != nil {
			return nil, err
		}
		var out []Cell
		for _, class := range classes(p) {
			cs, err := s.fig4BenchClass(sctx, p, class)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
		}
		progress.Tick(hook, "stability", int(ticks.Add(1)), n)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var obs, cos []float64
	for si, seed := range seeds {
		var d Fig4Data
		for _, cs := range cells[si*len(names) : (si+1)*len(names)] {
			d.Cells = append(d.Cells, cs...)
		}
		h := d.HeadlineStats()
		out.Rows = append(out.Rows, StabilityRow{
			Seed: seed, ObfOverall: h.ObfOverall, CoOverall: h.CoOverall,
			HeuristicGap: h.HeuristicGap,
		})
		obs = append(obs, h.ObfOverall)
		cos = append(cos, h.CoOverall)
		if h.CoOverall < h.ObfOverall {
			out.AllSeedsCoBeatsObf = false
		}
		if h.ObfOverall <= 2 {
			out.AllSeedsAboveUnityMargin = false
		}
		if r := h.CoOverall / h.ObfOverall; r < out.MinCoOverObf {
			out.MinCoOverObf = r
		}
	}
	out.MeanObf, out.StdObf = meanStd(obs)
	out.MeanCo, out.StdCo = meanStd(cos)
	progress.End(hook, "stability", "")
	return out, nil
}

func meanStd(xs []float64) (m, s float64) {
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	if len(xs) > 1 {
		s = math.Sqrt(s / float64(len(xs)-1))
	}
	return m, s
}

// RenderStability prints the per-seed table and aggregates.
func RenderStability(w io.Writer, s *Stability) {
	fmt.Fprintln(w, "Seed stability: Fig. 4 headline under independent workload draws")
	rule(w, 64)
	fmt.Fprintf(w, "%-8s %16s %16s %14s\n", "seed", "obf overall", "co overall", "heur gap")
	rule(w, 64)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-8d %15.1fx %15.1fx %13.2f%%\n",
			r.Seed, r.ObfOverall, r.CoOverall, 100*r.HeuristicGap)
	}
	rule(w, 64)
	fmt.Fprintf(w, "obf-aware: %.1fx ± %.1fx   co-design: %.1fx ± %.1fx\n",
		s.MeanObf, s.StdObf, s.MeanCo, s.StdCo)
	fmt.Fprintf(w, "co-design beats obf-aware on every seed: %v (min ratio %.2fx)\n",
		s.AllSeedsCoBeatsObf, s.MinCoOverObf)
}
