package codesign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bindlock/internal/binding"
	"bindlock/internal/dfg"
	"bindlock/internal/locking"
	"bindlock/internal/sim"
)

// wideGraph builds a scheduled DFG with `perCycle` adds in each of `cycles`
// cycles.
func wideGraph(cycles, perCycle int) *dfg.Graph {
	g := dfg.New("wide")
	a := g.AddInput("a")
	b := g.AddInput("b")
	var last dfg.OpID
	for t := 1; t <= cycles; t++ {
		for i := 0; i < perCycle; i++ {
			last = g.AddBinary(dfg.Add, a, b)
			g.Ops[last].Cycle = t
		}
	}
	g.AddOutput("y", last)
	return g
}

func TestEvaluatorExportedAPI(t *testing.T) {
	g := wideGraph(2, 2)
	cands := []dfg.Minterm{
		dfg.CanonMinterm(dfg.Add, 1, 1),
		dfg.CanonMinterm(dfg.Add, 2, 2),
	}
	k := sim.NewKMatrix(len(g.Ops))
	adds := g.OpsOfClass(dfg.ClassAdd)
	k.Add(cands[0], adds[0], 5)
	k.Add(cands[1], adds[1], 3)
	k.Add(cands[0], adds[2], 7)
	k.Add(cands[1], adds[3], 2)

	o := Options{Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 1, MintermsPerFU: 1,
		Candidates: cands, Scheme: locking.SFLLRem}
	ev := mustEvaluator(t, g, k, o)

	// FU0 locks candidate 0: optimal binding grabs ops 0 (5) and 2 (7).
	if got := ev.Eval([][]int{{0}, nil}); got != 12 {
		t.Errorf("Eval = %d, want 12", got)
	}
	// Both FUs locked on different candidates: 5+3 in cycle 1, 7+2 in 2.
	if got := ev.Eval([][]int{{0}, {1}}); got != 17 {
		t.Errorf("Eval = %d, want 17", got)
	}

	// BaselineEval on a fixed binding: ops 0,2 on FU0; 1,3 on FU1.
	opOnFU := map[dfg.OpID]int{adds[0]: 0, adds[1]: 1, adds[2]: 0, adds[3]: 1}
	if got := ev.BaselineEval(opOnFU, [][]int{{0}, nil}); got != 12 {
		t.Errorf("BaselineEval = %d, want 12", got)
	}
	if got := ev.BaselineEval(opOnFU, [][]int{{1}, nil}); got != 0 {
		t.Errorf("BaselineEval = %d, want 0 (candidate 1 never on FU0)", got)
	}

	// PerFUCandidateTotals must agree with BaselineEval sums.
	totals := ev.PerFUCandidateTotals(opOnFU, len(cands))
	if totals[0][0] != 12 || totals[0][1] != 0 || totals[1][0] != 0 || totals[1][1] != 5 {
		t.Errorf("totals = %v", totals)
	}
}

// TestEvaluatorHungarianFallback exercises the large-allocation path
// (NumFUs > 4 bypasses direct assignment enumeration) and checks it agrees
// with the official binder.
func TestEvaluatorHungarianFallback(t *testing.T) {
	g := wideGraph(3, 5)
	cands := []dfg.Minterm{
		dfg.CanonMinterm(dfg.Add, 1, 1),
		dfg.CanonMinterm(dfg.Add, 2, 2),
		dfg.CanonMinterm(dfg.Add, 3, 3),
	}
	k := sim.NewKMatrix(len(g.Ops))
	for i, id := range g.OpsOfClass(dfg.ClassAdd) {
		k.Add(cands[i%3], id, 1+i*i%11)
	}
	const numFUs = 6
	o := Options{Class: dfg.ClassAdd, NumFUs: numFUs, LockedFUs: 2, MintermsPerFU: 1,
		Candidates: cands, Scheme: locking.SFLLRem}
	ev := mustEvaluator(t, g, k, o)
	if ev.assignments != nil {
		t.Fatal("allocation of 6 FUs must use the Hungarian fallback")
	}
	sets := [][]int{{0}, {2}, nil, nil, nil, nil}
	got := ev.Eval(sets)

	cfg := o.configFor(sets)
	bd, err := (binding.ObfuscationAware{}).Bind(&binding.Problem{
		G: g, Class: dfg.ClassAdd, NumFUs: numFUs, K: k, Lock: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := binding.ApplicationErrors(g, k, cfg, bd)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Hungarian-path Eval = %d, binder = %d", got, want)
	}
}

// Property: the direct-enumeration path and the Hungarian path agree on
// random instances where both are applicable.
func TestEvaluatorPathsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		g := wideGraph(1+r.Intn(3), 1+r.Intn(3))
		cands := []dfg.Minterm{
			dfg.CanonMinterm(dfg.Add, 1, 1),
			dfg.CanonMinterm(dfg.Add, 2, 2),
		}
		k := sim.NewKMatrix(len(g.Ops))
		for _, id := range g.OpsOfClass(dfg.ClassAdd) {
			for ci := range cands {
				if c := r.Intn(8); c > 0 {
					k.Add(cands[ci], id, c)
				}
			}
		}
		numFUs := 3
		o := Options{Class: dfg.ClassAdd, NumFUs: numFUs, LockedFUs: 2, MintermsPerFU: 1,
			Candidates: cands, Scheme: locking.SFLLRem}
		evDirect := mustEvaluator(t, g, k, o)
		evHung := mustEvaluator(t, g, k, o)
		evHung.assignments = nil // force the Hungarian path
		sets := [][]int{{r.Intn(2)}, {r.Intn(2)}, nil}
		return evDirect.Eval(sets) == evHung.Eval(sets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCombinationsExported(t *testing.T) {
	if got := len(Combinations(10, 3)); got != 120 {
		t.Fatalf("C(10,3) = %d, want 120", got)
	}
	if got := len(Combinations(5, 1)); got != 5 {
		t.Fatalf("C(5,1) = %d, want 5", got)
	}
}

// mustEvaluator builds an evaluator for a problem the test knows is valid.
func mustEvaluator(t testing.TB, g *dfg.Graph, k *sim.KMatrix, o Options) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(g, k, o)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// newRand avoids importing math/rand at top level in multiple test files.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
