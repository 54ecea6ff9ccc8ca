package experiments

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/interrupt"
	"bindlock/internal/mediabench"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

// spaceCap saturates the assignment-space product. Any space this large is
// stride-sampled anyway, so only two properties matter: the saturated total
// must dominate every unsaturated one, and strideIndex over it must not
// overflow (guaranteed for totals <= 1<<62, see below).
const spaceCap = int64(1) << 62

// assignmentSpace returns nCombos^lockedFUs, saturating at spaceCap. The
// previous truncated partial product biased stride sampling toward a
// low-index subspace whenever the space overflowed the guard.
func assignmentSpace(nCombos, lockedFUs int) int64 {
	total := int64(1)
	for i := 0; i < lockedFUs; i++ {
		if total > spaceCap/int64(nCombos) {
			return spaceCap
		}
		total *= int64(nCombos)
	}
	return total
}

// strideIndex returns floor(j*total/n), the j-th of n stride-sample indices
// over a space of total assignments, using 128-bit intermediates so the
// product cannot overflow. Div64 needs its high word below the divisor:
// j < n and total <= 1<<62 give hi <= (n-1)>>2 < n.
func strideIndex(j, n int, total int64) int64 {
	hi, lo := bits.Mul64(uint64(j), uint64(total))
	q, _ := bits.Div64(hi, lo, uint64(n))
	return int64(q)
}

// Cell is one (benchmark, class, locked FUs, locked inputs) configuration of
// the Sec. VI sweep, with the mean smoothed error ratios of each
// security-aware algorithm over each baseline.
type Cell struct {
	Bench        string
	Class        dfg.Class
	LockedFUs    int
	LockedInputs int

	// Obfuscation-aware binding (Problem 1): mean over the enumerated
	// locked-input assignments.
	ObfVsArea, ObfVsPower float64
	// Assignments actually enumerated (sampled when the space exceeds the
	// cap).
	Assignments int
	// Sampled records whether stride-sampling was used.
	Sampled bool

	// Binding-obfuscation co-design (Problem 2), P-time heuristic.
	CoVsArea, CoVsPower float64
	HeuErrors           int

	// Ablation: ratios against the area-aware baseline granted its BEST
	// post-binding lock placement (see the package comment).
	ObfVsAreaBest, CoVsAreaBest float64

	// Optimal co-design, when the enumeration fits the budget (NaN/0
	// otherwise).
	OptVsArea, OptVsPower float64
	OptErrors             int
	OptRan                bool
}

// Fig4Data is the full sweep behind Fig. 4 (and, by re-aggregation, Fig. 5).
type Fig4Data struct {
	Cells []Cell
}

// Fig4 runs the Sec. VI sweep: for every benchmark and FU class, every
// combination of {1,2,3} locked FUs locking {1,2,3} inputs each from the 10
// most common candidate minterms. Benchmark x class pairs fan out over the
// worker pool (Config.Parallelism, see internal/parallel); cells merge in
// task order, so the sweep is bit-identical to a single-worker run.
func (s *Suite) Fig4(ctx context.Context) (*Fig4Data, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hook := progress.FromContext(ctx)
	progress.Start(hook, "fig4", fmt.Sprintf("%d benchmarks", len(s.preps)))
	type unit struct {
		p     *mediabench.Prepared
		class dfg.Class
	}
	var units []unit
	for _, p := range s.preps {
		for _, class := range classes(p) {
			units = append(units, unit{p, class})
		}
	}
	var ticks atomic.Int64
	perUnit, _, err := parallel.Map(ctx, s.Cfg.Parallelism, len(units), func(tctx context.Context, i int) ([]Cell, error) {
		// The inner co-design enumerations run sequentially: the outer
		// fan-out already saturates the pool.
		cells, err := s.fig4BenchClass(parallel.Sequential(tctx), units[i].p, units[i].class)
		if err != nil {
			return nil, err
		}
		progress.Tick(hook, "fig4", int(ticks.Add(1)), len(units))
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	data := &Fig4Data{}
	for _, cells := range perUnit {
		data.Cells = append(data.Cells, cells...)
	}
	progress.End(hook, "fig4", fmt.Sprintf("%d cells", len(data.Cells)))
	return data, nil
}

func (s *Suite) fig4BenchClass(ctx context.Context, p *mediabench.Prepared, class dfg.Class) ([]Cell, error) {
	cfg := s.Cfg
	cands, candIdx := candidateList(p, class, cfg.Candidates)
	if len(cands) == 0 {
		return nil, nil
	}
	area, power, err := bindBaselines(p, class, cfg.NumFUs)
	if err != nil {
		return nil, err
	}

	var cells []Cell
	for lockedFUs := 1; lockedFUs <= 3 && lockedFUs <= cfg.NumFUs; lockedFUs++ {
		for inputs := 1; inputs <= 3 && inputs <= len(cands); inputs++ {
			if cerr := interrupt.Check(ctx, "experiments: fig4", nil); cerr != nil {
				return nil, cerr
			}
			o := codesignOptions(class, cfg.NumFUs, lockedFUs, inputs, cands, cfg.OptimalBudget)
			ev, err := codesign.NewEvaluator(p.G, p.Res.K, o)
			if err != nil {
				return nil, err
			}
			areaTotals := ev.PerFUCandidateTotals(area.Assign, len(cands))
			powerTotals := ev.PerFUCandidateTotals(power.Assign, len(cands))

			cell := Cell{
				Bench: p.Bench.Name, Class: class,
				LockedFUs: lockedFUs, LockedInputs: inputs,
			}

			// --- Problem 1: obfuscation-aware binding over enumerated
			// locked-input assignments.
			combos := codesign.Combinations(len(cands), inputs)
			total := assignmentSpace(len(combos), lockedFUs)
			n := cfg.MaxAssignments
			if total <= int64(n) {
				n = int(total)
			} else {
				cell.Sampled = true
			}
			// Problem 2 first: the co-designed solution chooses its locked
			// inputs freely from the candidate list (Sec. III-C: the freedom
			// to lock y instead of x is the point of co-design); its error
			// count is fixed per configuration and compared below against
			// every conventional design point (enumerated combination on a
			// security-oblivious binding).
			heu, err := codesign.Heuristic(ctx, p.G, p.Res.K, o)
			if err != nil {
				return nil, err
			}
			cell.HeuErrors = heu.Errors

			var rArea, rPower, rAreaBest []float64
			var rCoArea, rCoPower, rCoAreaBest []float64
			sets := make([][]int, cfg.NumFUs)
			for j := 0; j < n; j++ {
				// Deterministic stride over the mixed-radix space.
				idx := int64(j)
				if cell.Sampled {
					idx = strideIndex(j, n, total)
				}
				for fu := 0; fu < lockedFUs; fu++ {
					sets[fu] = combos[idx%int64(len(combos))]
					idx /= int64(len(combos))
				}
				for fu := lockedFUs; fu < cfg.NumFUs; fu++ {
					sets[fu] = nil
				}
				// Problem 1: locked inputs pre-assigned per FU.
				eObf := ev.Eval(sets)
				eArea := fixedPlacement(areaTotals, sets[:lockedFUs])
				ePower := fixedPlacement(powerTotals, sets[:lockedFUs])
				rArea = append(rArea, smoothedRatio(eObf, eArea))
				rPower = append(rPower, smoothedRatio(eObf, ePower))
				rAreaBest = append(rAreaBest, smoothedRatio(eObf, bestPlacement(areaTotals, sets[:lockedFUs])))

				// Problem 2: co-design vs the conventional flow that bound
				// obliviously and locked this enumerated combination. The
				// co-designed solution can always fall back to the Problem 1
				// binding of the combination, so it is at least eObf.
				eCo := cell.HeuErrors
				if eCo < eObf {
					eCo = eObf
				}
				rCoArea = append(rCoArea, smoothedRatio(eCo, eArea))
				rCoPower = append(rCoPower, smoothedRatio(eCo, ePower))
				rCoAreaBest = append(rCoAreaBest, smoothedRatio(eCo, bestPlacement(areaTotals, sets[:lockedFUs])))
			}
			cell.Assignments = n
			cell.ObfVsArea = mean(rArea)
			cell.ObfVsPower = mean(rPower)
			cell.ObfVsAreaBest = mean(rAreaBest)
			cell.CoVsArea = mean(rCoArea)
			cell.CoVsPower = mean(rCoPower)
			cell.CoVsAreaBest = mean(rCoAreaBest)

			// --- Heuristic-vs-optimal gap (Sec. VI-A: "< 0.5% solution
			// degradation"): the optimal co-design within the enumeration
			// budget.
			cell.OptVsArea, cell.OptVsPower = math.NaN(), math.NaN()
			if cfg.OptimalBudget > 0 && total <= int64(cfg.OptimalBudget) {
				opt, err := codesign.Optimal(ctx, p.G, p.Res.K, o)
				if err != nil {
					return nil, err
				}
				optSets, err := lockedSetsToIndices(opt.Cfg, candIdx, cfg.NumFUs)
				if err != nil {
					return nil, err
				}
				cell.OptRan = true
				cell.OptErrors = opt.Errors
				cell.OptVsArea = smoothedRatio(opt.Errors, fixedPlacement(areaTotals, optSets[:lockedFUs]))
				cell.OptVsPower = smoothedRatio(opt.Errors, fixedPlacement(powerTotals, optSets[:lockedFUs]))
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// BenchRow is one bar group of Fig. 4: per benchmark and class, ratios
// averaged over every locking configuration and locked-input combination.
type BenchRow struct {
	Bench                 string
	Class                 dfg.Class
	ObfVsArea, ObfVsPower float64
	CoVsArea, CoVsPower   float64
}

// PerBenchmark aggregates cells into the Fig. 4 bar groups, averaging over
// every locking configuration as in the paper ("The results were averaged
// over every locked FU count, locked input count, and locked input
// combination").
func (d *Fig4Data) PerBenchmark() []BenchRow {
	type key struct {
		bench string
		class dfg.Class
	}
	group := map[key][]Cell{}
	var order []key
	for _, c := range d.Cells {
		k := key{c.Bench, c.Class}
		if _, ok := group[k]; !ok {
			order = append(order, k)
		}
		group[k] = append(group[k], c)
	}
	var rows []BenchRow
	for _, k := range order {
		cells := group[k]
		var oa, op, ca, cp []float64
		for _, c := range cells {
			oa = append(oa, c.ObfVsArea)
			op = append(op, c.ObfVsPower)
			ca = append(ca, c.CoVsArea)
			cp = append(cp, c.CoVsPower)
		}
		rows = append(rows, BenchRow{
			Bench: k.bench, Class: k.class,
			ObfVsArea: mean(oa), ObfVsPower: mean(op),
			CoVsArea: mean(ca), CoVsPower: mean(cp),
		})
	}
	return rows
}

// Headline summarises the sweep the way the paper's abstract does: the mean
// increase of each security-aware algorithm over each baseline, plus the
// overall (both-baselines) averages quoted as "26x" and "99x".
type Headline struct {
	ObfVsArea, ObfVsPower float64
	CoVsArea, CoVsPower   float64
	ObfOverall, CoOverall float64
	// HeuristicGap is the mean relative shortfall of the heuristic vs the
	// optimal co-design on the configurations where the optimal ran
	// (paper: < 0.5%).
	HeuristicGap float64
	OptimalCells int
	// Ablation: mean ratios against the area-aware baseline granted its
	// best post-binding lock placement.
	ObfVsAreaBest, CoVsAreaBest float64
}

// HeadlineStats computes the abstract-level aggregates from the sweep.
func (d *Fig4Data) HeadlineStats() Headline {
	var oa, op, ca, cp, gaps, oab, cab []float64
	for _, c := range d.Cells {
		oa = append(oa, c.ObfVsArea)
		op = append(op, c.ObfVsPower)
		ca = append(ca, c.CoVsArea)
		cp = append(cp, c.CoVsPower)
		oab = append(oab, c.ObfVsAreaBest)
		cab = append(cab, c.CoVsAreaBest)
		if c.OptRan && c.OptErrors > 0 {
			gaps = append(gaps, float64(c.OptErrors-c.HeuErrors)/float64(c.OptErrors))
		}
	}
	h := Headline{
		ObfVsArea: mean(oa), ObfVsPower: mean(op),
		CoVsArea: mean(ca), CoVsPower: mean(cp),
		OptimalCells:  len(gaps),
		ObfVsAreaBest: mean(oab),
		CoVsAreaBest:  mean(cab),
	}
	h.ObfOverall = (h.ObfVsArea + h.ObfVsPower) / 2
	h.CoOverall = (h.CoVsArea + h.CoVsPower) / 2
	h.HeuristicGap = mean(gaps)
	return h
}
