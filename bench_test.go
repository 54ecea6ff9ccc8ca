package bindlock

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Sec. VI) under `go test -bench`. One benchmark per experiment:
//
//	BenchmarkFig1Motivation   — E1: Sec. III motivational bindings (6/16/17)
//	BenchmarkFig2Bipartite    — E2: Fig. 2 bipartite binding step (cost 13)
//	BenchmarkFig4ObfAware     — E3: Fig. 4 top panel sweep
//	BenchmarkFig4CoDesign     — E4: Fig. 4 bottom panel sweep
//	BenchmarkFig5Sensitivity  — E5: Fig. 5 re-aggregation
//	BenchmarkFig6Overhead     — E6: Fig. 6 overhead measurement
//	BenchmarkSATResilience    — E7: Eqn. 1 empirical validation
//	BenchmarkEpsilonSweep     — E7b: ε/λ trade-off at fixed key length
//	BenchmarkMethodology      — E8: Sec. V-C design methodology
//	BenchmarkCoDesignOptimal  — E9: optimal co-design (heuristic-gap baseline)
//
// plus substrate microbenchmarks (matching, scheduling, simulation, SAT).
// Reported custom metrics carry the reproduced quantities so a bench run
// doubles as a summary of the reproduction.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bindlock/internal/binding"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/experiments"
	"bindlock/internal/locking"
	"bindlock/internal/matching"
	"bindlock/internal/mediabench"
	"bindlock/internal/netlist"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
	"bindlock/internal/sched"
	"bindlock/internal/sim"
	"bindlock/internal/trace"
)

// benchCfg is a reduced sweep configuration so the full harness completes in
// seconds; cmd/figures runs the paper-scale configuration.
var benchCfg = experiments.Config{
	Samples:        300,
	Seed:           1,
	Candidates:     8,
	MaxAssignments: 60,
	OptimalBudget:  2000,
	Benchmarks:     []string{"dct", "fir", "jdmerge4", "motion2"},
}

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite(context.Background(), benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// fig1Instance rebuilds the Sec. III example.
func fig1Instance() (*dfg.Graph, *sim.KMatrix, *locking.Config) {
	g := dfg.New("fig1")
	a := g.AddInput("a")
	bb := g.AddInput("b")
	c := g.AddInput("c")
	d := g.AddInput("d")
	e := g.AddInput("e")
	f := g.AddInput("f")
	opA := g.AddBinary(dfg.Add, a, bb)
	opB := g.AddBinary(dfg.Add, d, e)
	opC := g.AddBinary(dfg.Add, opA, c)
	opD := g.AddBinary(dfg.Add, opB, f)
	g.AddOutput("y1", opC)
	g.AddOutput("y2", opD)
	g.Ops[opA].Cycle = 1
	g.Ops[opB].Cycle = 1
	g.Ops[opC].Cycle = 2
	g.Ops[opD].Cycle = 2
	x := dfg.CanonMinterm(dfg.Add, 1, 2)
	y := dfg.CanonMinterm(dfg.Add, 3, 4)
	k := sim.NewKMatrix(len(g.Ops))
	k.Add(x, opA, 6)
	k.Add(x, opB, 1)
	k.Add(x, opD, 10)
	k.Add(y, opA, 9)
	k.Add(y, opD, 8)
	cfg, _ := locking.NewConfig(dfg.ClassAdd, 2, 1, locking.SFLLRem, [][]dfg.Minterm{{x}})
	return g, k, cfg
}

// BenchmarkFig1Motivation binds the Sec. III example and reports the
// reproduced error counts (6 oblivious, 16 obfuscation-aware).
func BenchmarkFig1Motivation(b *testing.B) {
	g, k, cfg := fig1Instance()
	p := &binding.Problem{G: g, Class: dfg.ClassAdd, NumFUs: 2, K: k, Lock: cfg}
	var errs int
	for i := 0; i < b.N; i++ {
		bd, err := (binding.ObfuscationAware{}).Bind(p)
		if err != nil {
			b.Fatal(err)
		}
		errs, err = binding.ApplicationErrors(g, k, cfg, bd)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(errs), "errors")
}

// BenchmarkFig2Bipartite solves the Fig. 2C max-weight bipartite matching
// (total cost 13 at t=1).
func BenchmarkFig2Bipartite(b *testing.B) {
	w := [][]float64{
		{6, 9, 0},
		{4, 3, 0},
	}
	var total float64
	for i := 0; i < b.N; i++ {
		var err error
		_, total, err = matching.MaxWeight(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total, "cost")
}

// BenchmarkFig4ObfAware runs the Fig. 4 sweep and reports the
// obfuscation-aware headline increase.
func BenchmarkFig4ObfAware(b *testing.B) {
	s := benchSuite(b)
	var h experiments.Headline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		h = d.HeadlineStats()
	}
	b.ReportMetric(h.ObfVsArea, "x-vs-area")
	b.ReportMetric(h.ObfVsPower, "x-vs-power")
}

// BenchmarkFig4CoDesign reports the co-design headline increase from the
// same sweep (Fig. 4 bottom panel).
func BenchmarkFig4CoDesign(b *testing.B) {
	s := benchSuite(b)
	var h experiments.Headline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		h = d.HeadlineStats()
	}
	b.ReportMetric(h.CoVsArea, "x-vs-area")
	b.ReportMetric(h.CoVsPower, "x-vs-power")
	b.ReportMetric(100*h.HeuristicGap, "gap-pct")
}

// BenchmarkFig5Sensitivity re-aggregates the sweep by locking parameter and
// reports the "1 FU" co-design group.
func BenchmarkFig5Sensitivity(b *testing.B) {
	s := benchSuite(b)
	d, err := s.Fig4(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var f5 *experiments.Fig5Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f5 = experiments.Fig5From(d)
	}
	b.ReportMetric(f5.Rows[0].CoVsArea, "1FU-co-vs-area")
	b.ReportMetric(f5.Rows[6].CoVsArea, "avg-co-vs-area")
}

// BenchmarkFig6Overhead measures the datapath overhead suite (Fig. 6).
func BenchmarkFig6Overhead(b *testing.B) {
	s := benchSuite(b)
	var d *experiments.Fig6Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		d, err = s.Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.AvgRegCo, "regs")
	b.ReportMetric(d.AvgSwitchCo, "switch")
}

// BenchmarkSATResilience runs the Eqn. 1 validation on 2-bit-operand adders
// and reports measured iterations against λ.
func BenchmarkSATResilience(b *testing.B) {
	var rows []experiments.ResilienceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Resilience(context.Background(), []int{2, 3}, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].MeanIterations, "iters")
	b.ReportMetric(rows[len(rows)-1].Lambda, "lambda")
}

// BenchmarkEpsilonSweep measures the fixed-key-length ε/λ trade-off.
func BenchmarkEpsilonSweep(b *testing.B) {
	var rows []experiments.EpsilonSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.EpsilonSweep(context.Background(), []int{0, 2}, 2, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanIterations, "iters-h0")
	b.ReportMetric(rows[len(rows)-1].MeanIterations, "iters-h2")
}

// BenchmarkMethodology runs the Sec. V-C design methodology on dct.
func BenchmarkMethodology(b *testing.B) {
	d, err := PrepareBenchmark(context.Background(), "dct", WithMaxFUs(3), WithSamples(300), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	cands := d.Candidates(ClassAdd, 10)
	var plan *Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err = d.Methodology(context.Background(), ClassAdd, 2, cands, 200, 3600*1e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.FullLockKeyBits), "netkeybits")
	b.ReportMetric(plan.Lambda, "lambda")
}

// BenchmarkCoDesignOptimal runs the exact co-design enumeration on a
// tractable configuration (the E9 heuristic-gap reference).
func BenchmarkCoDesignOptimal(b *testing.B) {
	bench, err := mediabench.ByName("fir")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Prepare(context.Background(), 3, 300, 42)
	if err != nil {
		b.Fatal(err)
	}
	top := p.Res.K.TopMinterms(p.G, dfg.ClassAdd, 8)
	cands := make([]dfg.Minterm, len(top))
	for i, mc := range top {
		cands[i] = mc.M
	}
	o := codesign.Options{
		Class: dfg.ClassAdd, NumFUs: 3, LockedFUs: 2, MintermsPerFU: 2,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
	var opt *codesign.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err = codesign.Optimal(context.Background(), p.G, p.Res.K, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.Errors), "errors")
	b.ReportMetric(float64(opt.Enumerated), "combos")
}

// --- substrate microbenchmarks ---

// BenchmarkHungarian solves a 32x48 max-weight assignment.
func BenchmarkHungarian(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	w := make([][]float64, 32)
	for i := range w {
		w[i] = make([]float64, 48)
		for j := range w[i] {
			w[i][j] = r.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matching.MaxWeight(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduler schedules the dct kernel path-based onto 3 FUs.
func BenchmarkScheduler(b *testing.B) {
	bench, _ := mediabench.ByName("dct")
	g, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	cons := sched.Constraints{MaxFUs: map[dfg.Class]int{dfg.ClassAdd: 3, dfg.ClassMul: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PathBased(g.Clone(), cons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator runs the trace-driven simulator over 600 samples of the
// dct workload.
func BenchmarkSimulator(b *testing.B) {
	bench, _ := mediabench.ByName("dct")
	g, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sched.PathBased(g, sched.DefaultConstraints()); err != nil {
		b.Fatal(err)
	}
	tr := bench.Workload(g, 600, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), g, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen generates 600 image-block samples.
func BenchmarkWorkloadGen(b *testing.B) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.ImageBlocks, names, 600, int64(i))
	}
}

// BenchmarkSATSolver solves a PHP(8,7) instance (UNSAT, learning-heavy).
func BenchmarkSATSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.NewSolver()
		n, m := 8, 7
		vars := make([][]int, n)
		for p := range vars {
			vars[p] = make([]int, m)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p < n; p++ {
			lits := make([]sat.Lit, m)
			for h := 0; h < m; h++ {
				lits[h] = sat.NewLit(vars[p][h], false)
			}
			s.AddClause(lits...)
		}
		for h := 0; h < m; h++ {
			for p1 := 0; p1 < n; p1++ {
				for p2 := p1 + 1; p2 < n; p2++ {
					s.AddClause(sat.NewLit(vars[p1][h], true), sat.NewLit(vars[p2][h], true))
				}
			}
		}
		ok, err := s.Solve(context.Background())
		if err != nil || ok {
			b.Fatalf("PHP(8,7) = %v, %v", ok, err)
		}
	}
}

// BenchmarkSATAttack attacks an SFLL-locked 3-bit adder end to end, and
// fir's kernel miter under the repository benchmark's attack-sfll recipe
// (2 FUs, 120 samples, SFLL on the top candidate minterm, a 24-DIP budget,
// 10,000 conflicts per solve), reporting the bytes a realistic miter
// allocates per attack.
func BenchmarkSATAttack(b *testing.B) {
	b.Run("adder3", func(b *testing.B) {
		base, err := netlist.NewAdder(3)
		if err != nil {
			b.Fatal(err)
		}
		locked, key, err := netlist.LockSFLLHD0(base, []uint64{0b101101})
		if err != nil {
			b.Fatal(err)
		}
		oracle := satattack.OracleFromCircuit(locked, key)
		var iters int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := satattack.Attack(context.Background(), locked, oracle, satattack.Options{})
			if err != nil {
				b.Fatal(err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "DIPs")
	})
	b.Run("fir", func(b *testing.B) {
		ed := elaborateLockedBenchmark(b, "fir")
		oracle := satattack.OracleFromCircuit(ed.Circuit, ed.CorrectKey)
		opts := satattack.Options{MaxIterations: 24, MaxConflicts: 10000}
		var iters int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := satattack.Attack(context.Background(), ed.Circuit, oracle, opts)
			if err != nil && !errors.Is(err, satattack.ErrIterationBudget) && !errors.Is(err, sat.ErrBudget) {
				b.Fatal(err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "DIPs")
	})
}

// BenchmarkBindObfAware binds the dct adders obfuscation-aware.
func BenchmarkBindObfAware(b *testing.B) {
	d, err := PrepareBenchmark(context.Background(), "dct", WithMaxFUs(3), WithSamples(300), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	cands := d.Candidates(ClassAdd, 4)
	lock, err := d.NewLockConfig(ClassAdd, 2, [][]Minterm{cands[:2], cands[2:4]})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BindObfuscationAware(ClassAdd, lock); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoDesignHeuristic runs the P-time heuristic on the dct adders.
func BenchmarkCoDesignHeuristic(b *testing.B) {
	d, err := PrepareBenchmark(context.Background(), "dct", WithMaxFUs(3), WithSamples(300), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	cands := d.Candidates(ClassAdd, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CoDesign(context.Background(), ClassAdd, 3, 3, cands); err != nil {
			b.Fatal(err)
		}
	}
}
