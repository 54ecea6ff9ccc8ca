// Package experiments regenerates every figure and headline statistic of the
// paper's evaluation (Sec. VI).
//
// The flow per benchmark follows Fig. 3: compile the kernel, schedule onto up
// to 3 FUs per class with the path-based scheduler, simulate the typical
// workload to obtain expected input occurrences per operation, then sweep the
// locking configurations of Sec. VI — {1,2,3} locked FUs x {1,2,3} locked
// inputs chosen from the 10 most common minterms — comparing security-aware
// binding/co-design against area-aware [20] and power-aware [19] binding with
// identical locking configurations.
//
// Baseline lock placement. A locking configuration specifies locked FU count
// and locked input identity; following the paper's "identical locking
// configuration" comparison, the baseline carries the same minterm sets on
// the same FU indices (0..L-1) of its own binding — conventional locking is
// applied after binding without architectural knowledge, so the lock lands
// on an arbitrary FU. As an ablation we additionally report the baseline
// under its BEST placement (the injective assignment of minterm sets onto
// FUs maximising the baseline's error count): even that post-binding
// optimisation cannot recover the co-design advantage, because the
// security-oblivious binding never concentrated the locked minterms on any
// single FU in the first place.
//
// Ratio aggregation. Per-configuration ratios use add-one smoothing,
// (E_sec + 1) / (E_base + 1), since a security-oblivious binding can yield a
// zero baseline error count; EXPERIMENTS.md discusses the effect.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"bindlock/internal/binding"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/locking"
	"bindlock/internal/mediabench"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

// Config parameterises a reproduction run.
type Config struct {
	// Samples is the workload length per benchmark (default 600).
	Samples int
	// Seed drives workload generation (default 1).
	Seed int64
	// Candidates is |C|, the candidate locked input count (default 10).
	Candidates int
	// MaxAssignments caps the enumerated locked-input assignments per
	// locking configuration in the obfuscation-aware sweep; larger spaces
	// are strided deterministically (default 300).
	MaxAssignments int
	// OptimalBudget is the largest enumeration for which the optimal
	// co-design algorithm is also run (default 20000; set negative to
	// disable the optimal pass).
	OptimalBudget int
	// Benchmarks restricts the run to a subset by name (nil = all 11).
	Benchmarks []string
	// NumFUs is the per-class allocation (default 3, as in the paper).
	NumFUs int
	// Parallelism bounds the worker count of the sweep fan-outs; 0 defers to
	// the context's setting, falling back to GOMAXPROCS (see
	// internal/parallel). Results are bit-identical at any worker count.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Samples == 0 {
		c.Samples = mediabench.DefaultSamples
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Candidates == 0 {
		c.Candidates = 10
	}
	if c.MaxAssignments == 0 {
		c.MaxAssignments = 300
	}
	if c.OptimalBudget == 0 {
		c.OptimalBudget = 20000
	}
	if c.NumFUs == 0 {
		c.NumFUs = 3
	}
	return c
}

// Suite caches prepared benchmarks across experiments.
type Suite struct {
	Cfg   Config
	preps []*mediabench.Prepared
}

// NewSuite prepares the selected benchmarks (compile, schedule, simulate).
// Cancellation is checked between benchmarks and flows into each workload
// simulation.
func NewSuite(ctx context.Context, cfg Config) (*Suite, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	s := &Suite{Cfg: cfg}
	names := cfg.benchmarkNames()
	hook := progress.FromContext(ctx)
	progress.Start(hook, "prepare", fmt.Sprintf("%d benchmarks", len(names)))
	// One task per benchmark; each preparation is independent and results
	// land in name order, so the suite is identical at any worker count.
	var ticks atomic.Int64
	preps, _, err := parallel.Map(ctx, cfg.Parallelism, len(names), func(tctx context.Context, i int) (*mediabench.Prepared, error) {
		p, err := cfg.prepare(parallel.Sequential(tctx), names[i])
		if err != nil {
			return nil, err
		}
		progress.Tick(hook, "prepare", int(ticks.Add(1)), len(names))
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	s.preps = preps
	progress.End(hook, "prepare", "")
	return s, nil
}

// benchmarkNames lists the selected benchmarks: Benchmarks, or all 11.
func (c Config) benchmarkNames() []string {
	if c.Benchmarks != nil {
		return c.Benchmarks
	}
	var names []string
	for _, b := range mediabench.All() {
		names = append(names, b.Name)
	}
	return names
}

// prepare compiles, schedules and simulates one benchmark under c, which
// must have its defaults applied.
func (c Config) prepare(ctx context.Context, name string) (*mediabench.Prepared, error) {
	b, err := mediabench.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Prepare(ctx, c.NumFUs, c.Samples, c.Seed)
}

// Prepared exposes the cached benchmark preparations.
func (s *Suite) Prepared() []*mediabench.Prepared { return s.preps }

// largestFirst returns the task indices [0, n) ordered by size, largest
// first and ties in index order: the dispatch order of a fan-out whose task
// sizes are known before it starts.
func largestFirst(n int, size func(i int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	return order
}

// classes lists the FU classes a prepared benchmark actually uses.
func classes(p *mediabench.Prepared) []dfg.Class {
	var cs []dfg.Class
	for _, c := range []dfg.Class{dfg.ClassAdd, dfg.ClassMul} {
		if p.HasClass(c) {
			cs = append(cs, c)
		}
	}
	return cs
}

// bindBaselines computes the two security-oblivious bindings once per
// benchmark/class.
func bindBaselines(p *mediabench.Prepared, class dfg.Class, numFUs int) (area, power *binding.Binding, err error) {
	prob := &binding.Problem{G: p.G, Class: class, NumFUs: numFUs, K: p.Res.K, Res: p.Res}
	area, err = (binding.AreaAware{}).Bind(prob)
	if err != nil {
		return nil, nil, fmt.Errorf("area-aware on %s/%v: %w", p.Bench.Name, class, err)
	}
	power, err = (binding.PowerAware{}).Bind(prob)
	if err != nil {
		return nil, nil, fmt.Errorf("power-aware on %s/%v: %w", p.Bench.Name, class, err)
	}
	return area, power, nil
}

// candidateList returns C: the topK most common minterms of the class, and a
// reverse index.
func candidateList(p *mediabench.Prepared, class dfg.Class, topK int) ([]dfg.Minterm, map[dfg.Minterm]int) {
	top := p.Res.K.TopMinterms(p.G, class, topK)
	cs := make([]dfg.Minterm, len(top))
	idx := make(map[dfg.Minterm]int, len(top))
	for i, mc := range top {
		cs[i] = mc.M
		idx[mc.M] = i
	}
	return cs, idx
}

// fixedPlacement returns the baseline error count when minterm set i sits on
// baseline FU i (the paper-faithful "identical locking configuration").
// totals[fu][c] are per-FU candidate occurrence sums under the fixed
// baseline binding; sets holds the candidate index sets of the locked FUs
// (length L <= numFUs).
func fixedPlacement(totals [][]int, sets [][]int) int {
	sum := 0
	for fu, set := range sets {
		for _, c := range set {
			sum += totals[fu][c]
		}
	}
	return sum
}

// bestPlacement returns the maximum baseline error count over all injective
// placements of the minterm sets onto FUs — the ablation granting the
// baseline optimal post-binding lock placement.
func bestPlacement(totals [][]int, sets [][]int) int {
	numFUs := len(totals)
	best := 0
	used := make([]bool, numFUs)
	var rec func(i, sum int)
	rec = func(i, sum int) {
		if i == len(sets) {
			if sum > best {
				best = sum
			}
			return
		}
		for fu := 0; fu < numFUs; fu++ {
			if used[fu] {
				continue
			}
			used[fu] = true
			add := 0
			for _, c := range sets[i] {
				add += totals[fu][c]
			}
			rec(i+1, sum+add)
			used[fu] = false
		}
	}
	rec(0, 0)
	return best
}

// smoothedRatio is (a+1)/(b+1): the add-one-smoothed error ratio.
func smoothedRatio(a, b int) float64 {
	return float64(a+1) / float64(b+1)
}

// geoMean returns the geometric mean of positive values (NaN when empty).
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// lockedSetsToIndices converts a co-design result's minterm sets into
// candidate index sets aligned with the allocation.
func lockedSetsToIndices(cfg *locking.Config, idx map[dfg.Minterm]int, numFUs int) ([][]int, error) {
	sets := make([][]int, numFUs)
	for _, l := range cfg.Locks {
		set := make([]int, 0, len(l.Minterms))
		for _, m := range l.Minterms {
			ci, ok := idx[m]
			if !ok {
				return nil, fmt.Errorf("experiments: locked minterm %v not among candidates", m)
			}
			set = append(set, ci)
		}
		sets[l.FU] = set
	}
	return sets, nil
}

// codesignOptions builds the co-design options for one configuration.
func codesignOptions(class dfg.Class, numFUs, lockedFUs, mintermsPerFU int, cands []dfg.Minterm, budget int) codesign.Options {
	return codesign.Options{
		Class:           class,
		NumFUs:          numFUs,
		LockedFUs:       lockedFUs,
		MintermsPerFU:   mintermsPerFU,
		Candidates:      cands,
		Scheme:          locking.SFLLRem,
		MaxEnumerations: budget,
	}
}
