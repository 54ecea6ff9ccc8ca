package bindlock

// Ablation benchmarks for the design decisions called out in DESIGN.md:
// baseline lock placement, scheduler choice, the fast evaluator, and the
// approximate attack.

import (
	"context"
	"io"
	"testing"

	"bindlock/internal/binding"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/experiments"
	"bindlock/internal/locking"
	"bindlock/internal/mediabench"
	"bindlock/internal/netlist"
	"bindlock/internal/rtl"
	"bindlock/internal/satattack"
	"bindlock/internal/sched"
	"bindlock/internal/sim"
)

// BenchmarkAblationBestPlacement contrasts the paper-faithful fixed lock
// placement against granting the baseline its best post-binding placement:
// the obfuscation-aware advantage collapses under best placement while the
// co-design advantage survives — the win comes from minterm concentration,
// not lock labelling.
func BenchmarkAblationBestPlacement(b *testing.B) {
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
	b.ReportMetric(h.ObfVsArea, "fixed-obf")
	b.ReportMetric(h.ObfVsAreaBest, "best-obf")
	b.ReportMetric(h.CoVsArea, "fixed-co")
	b.ReportMetric(h.CoVsAreaBest, "best-co")
}

// BenchmarkAblationScheduler re-runs the co-design-vs-area comparison with
// the force-directed scheduler instead of the path-based one: the security
// advantage is a property of binding, not of a particular schedule.
func BenchmarkAblationScheduler(b *testing.B) {
	bench, err := mediabench.ByName("jdmerge4")
	if err != nil {
		b.Fatal(err)
	}
	g, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	// Latency: path-based span at 3 FUs, so the comparison is like for
	// like.
	probe := g.Clone()
	span, err := sched.PathBased(probe, sched.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fds := g.Clone()
		if _, err := sched.ForceDirected(fds, span); err != nil {
			b.Fatal(err)
		}
		tr := bench.Workload(fds, 300, 1)
		res, err := sim.Run(context.Background(), fds, tr)
		if err != nil {
			b.Fatal(err)
		}
		numFUs := fds.MaxConcurrency(dfg.ClassMul)
		if numFUs < 2 {
			numFUs = 2
		}
		top := res.K.TopMinterms(fds, dfg.ClassMul, 8)
		cands := make([]dfg.Minterm, len(top))
		for j, mc := range top {
			cands[j] = mc.M
		}
		co, err := codesign.Heuristic(context.Background(), fds, res.K, codesign.Options{
			Class: dfg.ClassMul, NumFUs: numFUs, LockedFUs: 1, MintermsPerFU: 2,
			Candidates: cands, Scheme: locking.SFLLRem,
		})
		if err != nil {
			b.Fatal(err)
		}
		area, err := (binding.AreaAware{}).Bind(&binding.Problem{
			G: fds, Class: dfg.ClassMul, NumFUs: numFUs, K: res.K, Res: res,
		})
		if err != nil {
			b.Fatal(err)
		}
		eArea, err := binding.ApplicationErrors(fds, res.K, co.Cfg, area)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(co.Errors+1) / float64(eArea+1)
	}
	b.ReportMetric(ratio, "co-vs-area")
}

// BenchmarkAblationEvaluator contrasts the co-design heuristic through the
// fast evaluator against driving the official binder per combination — the
// speedup that makes the optimal enumeration tractable.
func BenchmarkAblationEvaluator(b *testing.B) {
	bench, _ := mediabench.ByName("dct")
	p, err := bench.Prepare(context.Background(), 3, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	top := p.Res.K.TopMinterms(p.G, dfg.ClassAdd, 8)
	cands := make([]dfg.Minterm, len(top))
	for i, mc := range top {
		cands[i] = mc.M
	}
	o := codesign.Options{
		Class: dfg.ClassAdd, NumFUs: 3, LockedFUs: 1, MintermsPerFU: 2,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
	b.Run("evaluator", func(b *testing.B) {
		ev, err := codesign.NewEvaluator(p.G, p.Res.K, o)
		if err != nil {
			b.Fatal(err)
		}
		sets := make([][]int, 3)
		combos := codesign.Combinations(len(cands), 2)
		for i := 0; i < b.N; i++ {
			best := -1
			for _, c := range combos {
				sets[0] = c
				if e := ev.Eval(sets); e > best {
					best = e
				}
			}
		}
	})
	b.Run("binder", func(b *testing.B) {
		combos := codesign.Combinations(len(cands), 2)
		for i := 0; i < b.N; i++ {
			best := -1
			for _, c := range combos {
				ms := []dfg.Minterm{cands[c[0]], cands[c[1]]}
				cfg, err := locking.NewConfig(dfg.ClassAdd, 3, 1, locking.SFLLRem,
					[][]dfg.Minterm{ms})
				if err != nil {
					b.Fatal(err)
				}
				bd, err := (binding.ObfuscationAware{}).Bind(&binding.Problem{
					G: p.G, Class: dfg.ClassAdd, NumFUs: 3, K: p.Res.K, Lock: cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				e, err := binding.ApplicationErrors(p.G, p.Res.K, cfg, bd)
				if err != nil {
					b.Fatal(err)
				}
				if e > best {
					best = e
				}
			}
		}
	})
}

// BenchmarkApproxAttack measures the AppSAT-style budgeted attack and
// reports the residual error rate of the approximate key.
func BenchmarkApproxAttack(b *testing.B) {
	base, err := netlist.NewAdder(4)
	if err != nil {
		b.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0xA5})
	if err != nil {
		b.Fatal(err)
	}
	oracle := satattack.OracleFromCircuit(locked, key)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := satattack.ApproxAttack(context.Background(), locked, oracle, satattack.ApproxOptions{
			MaxIterations: 8, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.EstErrorRate
	}
	b.ReportMetric(rate, "err-rate")
}

// BenchmarkCorruption runs the functional output-corruption experiment.
func BenchmarkCorruption(b *testing.B) {
	s := benchSuite(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.OutputCorruption(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.CoSampleRate / float64(len(rows))
		}
	}
	b.ReportMetric(mean, "co-sample-rate")
}

// BenchmarkForceDirected schedules the dct kernel with FDS.
func BenchmarkForceDirected(b *testing.B) {
	bench, _ := mediabench.ByName("dct")
	g, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	probe := g.Clone()
	span := sched.ASAP(probe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ForceDirected(g.Clone(), span+2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerilogExport emits RTL for the dct datapath.
func BenchmarkVerilogExport(b *testing.B) {
	bench, _ := mediabench.ByName("dct")
	p, err := bench.Prepare(context.Background(), 3, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	bindings := map[dfg.Class]*binding.Binding{}
	for _, class := range []dfg.Class{dfg.ClassAdd, dfg.ClassMul} {
		bd, err := (binding.AreaAware{}).Bind(&binding.Problem{
			G: p.G, Class: class, NumFUs: 3, K: p.Res.K, Res: p.Res,
		})
		if err != nil {
			b.Fatal(err)
		}
		bindings[class] = bd
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rtl.WriteVerilog(io.Discard, p.G, bindings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPortSwap measures the switching-rate gain of orienting
// commutative operands after binding (the operand-order freedom classic
// low-power flows exploit).
func BenchmarkAblationPortSwap(b *testing.B) {
	bench, _ := mediabench.ByName("fir")
	p, err := bench.Prepare(context.Background(), 3, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	bindings := map[dfg.Class]*binding.Binding{}
	for _, class := range []dfg.Class{dfg.ClassAdd, dfg.ClassMul} {
		bd, err := (binding.PowerAware{}).Bind(&binding.Problem{
			G: p.G, Class: class, NumFUs: 3, K: p.Res.K, Res: p.Res,
		})
		if err != nil {
			b.Fatal(err)
		}
		bindings[class] = bd
	}
	var plain, oriented rtl.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orients := map[dfg.Class]rtl.Orientation{}
		for class, bd := range bindings {
			o, err := rtl.OptimizePorts(p.G, bd, p.Res)
			if err != nil {
				b.Fatal(err)
			}
			orients[class] = o
		}
		var err error
		plain, err = rtl.Measure(p.G, bindings, p.Res)
		if err != nil {
			b.Fatal(err)
		}
		oriented, err = rtl.MeasureOriented(p.G, bindings, p.Res, orients)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plain.SwitchingRate, "switch-plain")
	b.ReportMetric(oriented.SwitchingRate, "switch-oriented")
}
