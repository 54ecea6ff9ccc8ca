package codesign

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bindlock/internal/dfg"
	"bindlock/internal/locking"
	"bindlock/internal/parallel"
	"bindlock/internal/sim"
)

// refCase is one co-design problem for the reference comparison.
type refCase struct {
	g *dfg.Graph
	k *sim.KMatrix
	o Options
}

// newRefCase builds a problem from raw shape parameters, folding each into
// its range: 2–5 FUs (5 takes the Hungarian fallback), 1–3 locked FUs,
// 1–3 minterms per FU from up to two more candidates, and 1–4 cycles of
// at most NumFUs adds. K counts come from seed, mostly small so that leaves
// often tie; tie sets every count to 1, so every leaf of a search ties.
func newRefCase(seed int64, numFUs, lockedFUs, perFU, extraCands, cycles, perCycle uint8, tie bool) refCase {
	nf := 2 + int(numFUs)%4
	o := Options{
		Class:         dfg.ClassAdd,
		NumFUs:        nf,
		LockedFUs:     1 + int(lockedFUs)%min(3, nf),
		MintermsPerFU: 1 + int(perFU)%3,
		Scheme:        locking.SFLLRem,
	}
	for i := 0; i < o.MintermsPerFU+int(extraCands)%3; i++ {
		o.Candidates = append(o.Candidates, dfg.CanonMinterm(dfg.Add, uint8(i), uint8(100+i)))
	}
	g := wideGraph(1+int(cycles)%4, 1+int(perCycle)%nf)
	k := sim.NewKMatrix(len(g.Ops))
	r := rand.New(rand.NewSource(seed))
	for _, id := range g.OpsOfClass(dfg.ClassAdd) {
		for _, m := range o.Candidates {
			n := 1
			if !tie {
				n = r.Intn(4)
			}
			k.Add(m, id, n)
		}
	}
	return refCase{g, k, o}
}

// refOptimal is the plain exact search: every combination tuple in
// lexicographic order (FU 0 outermost), each leaf scored by Evaluator.Eval,
// the first strict maximum kept.
func refOptimal(ev *Evaluator, o Options) (best int, bestSets [][]int, enumerated int) {
	combos := Combinations(len(o.Candidates), o.MintermsPerFU)
	sets := make([][]int, o.NumFUs)
	best = -1
	var rec func(fu int)
	rec = func(fu int) {
		if fu == o.LockedFUs {
			enumerated++
			if e := ev.Eval(sets); e > best {
				best, bestSets = e, append([][]int(nil), sets...)
			}
			return
		}
		for _, c := range combos {
			sets[fu] = c
			rec(fu + 1)
		}
		sets[fu] = nil
	}
	rec(0)
	return best, bestSets, enumerated
}

// refHeuristic is the plain sequential heuristic: each round scores every
// combination on its FU by Evaluator.Eval and freezes the first strict
// maximum.
func refHeuristic(ev *Evaluator, o Options) (best int, sets [][]int, enumerated int) {
	combos := Combinations(len(o.Candidates), o.MintermsPerFU)
	sets = make([][]int, o.NumFUs)
	for fu := 0; fu < o.LockedFUs; fu++ {
		best = -1
		var bestC []int
		for _, c := range combos {
			sets[fu] = c
			enumerated++
			if e := ev.Eval(sets); e > best {
				best, bestC = e, c
			}
		}
		sets[fu] = bestC
	}
	return best, sets, enumerated
}

// checkAgainstReference runs Optimal and Heuristic at -j1 and -j4 and
// requires the reference searches' Errors, Cfg and Enumerated from each.
func checkAgainstReference(t *testing.T, c refCase) {
	t.Helper()
	ev, err := NewEvaluator(c.g, c.k, c.o)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		errors     int
		sets       [][]int
		enumerated int
	}
	searches := []struct {
		name string
		run  func(context.Context, *dfg.Graph, *sim.KMatrix, Options) (*Result, error)
		ref  func(*Evaluator, Options) (int, [][]int, int)
	}{
		{"optimal", Optimal, refOptimal},
		{"heuristic", Heuristic, refHeuristic},
	}
	for _, s := range searches {
		var w want
		w.errors, w.sets, w.enumerated = s.ref(ev, c.o)
		for _, j := range []int{1, 4} {
			res, err := s.run(parallel.NewContext(context.Background(), j), c.g, c.k, c.o)
			if err != nil {
				t.Fatalf("%s -j%d: %v", s.name, j, err)
			}
			if res.Errors != w.errors || res.Enumerated != w.enumerated {
				t.Fatalf("%s -j%d (%+v): errors %d enumerated %d, reference %d and %d",
					s.name, j, c.o, res.Errors, res.Enumerated, w.errors, w.enumerated)
			}
			if want := c.o.configFor(w.sets); !reflect.DeepEqual(res.Cfg, want) {
				t.Fatalf("%s -j%d (%+v): config %+v, reference %+v", s.name, j, c.o, res.Cfg, want)
			}
		}
	}
}

// TestSearchesMatchReference pins the table-driven searches to the plain
// per-leaf enumeration over Evaluator.Eval on random problems, including
// all-tie ones where only first-maximum order decides the configuration.
func TestSearchesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	u := func() uint8 { return uint8(r.Intn(256)) }
	for i := 0; i < 200; i++ {
		checkAgainstReference(t, newRefCase(r.Int63(), u(), u(), u(), u(), u(), u(), i%5 == 0))
	}
}

// FuzzSearchesMatchReference is TestSearchesMatchReference's comparison as
// a native fuzz target over the problem shape, the K seed and the tie flag.
func FuzzSearchesMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), false)
	f.Add(int64(2), uint8(2), uint8(2), uint8(1), uint8(2), uint8(3), uint8(3), false)
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(1), uint8(2), uint8(2), true)
	f.Add(int64(4), uint8(3), uint8(2), uint8(0), uint8(2), uint8(3), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, numFUs, lockedFUs, perFU, extraCands, cycles, perCycle uint8, tie bool) {
		checkAgainstReference(t, newRefCase(seed, numFUs, lockedFUs, perFU, extraCands, cycles, perCycle, tie))
	})
}

// TestNewEvaluatorRejectsOvercommittedCycle: a cycle with more class ops
// than FUs has no injective binding. NewEvaluator used to skip validation
// and score such problems 0; it now rejects them as Optimal and Heuristic
// do.
func TestNewEvaluatorRejectsOvercommittedCycle(t *testing.T) {
	g := wideGraph(1, 3)
	cand := dfg.CanonMinterm(dfg.Add, 1, 1)
	k := sim.NewKMatrix(len(g.Ops))
	for _, id := range g.OpsOfClass(dfg.ClassAdd) {
		k.Add(cand, id, 5)
	}
	o := Options{Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 1, MintermsPerFU: 1,
		Candidates: []dfg.Minterm{cand}, Scheme: locking.SFLLRem}
	ev, err := NewEvaluator(g, k, o)
	if err == nil || !strings.Contains(err.Error(), "below max concurrency") {
		t.Fatalf("err = %v, want the allocation rejected", err)
	}
	if ev != nil {
		t.Error("rejected problem returned an evaluator")
	}
	// With one FU per op the problem is valid: the locked FU takes one op.
	o.NumFUs = 3
	if got := mustEvaluator(t, g, k, o).Eval([][]int{{0}, nil, nil}); got != 5 {
		t.Errorf("Eval = %d, want 5", got)
	}
}
