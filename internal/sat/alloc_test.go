package sat

import (
	"context"
	"testing"
)

// TestPropagateSteadyStateAllocs gates the arena layout's core promise: once
// the watch lists, trail and heap have reached capacity, a full
// decide/propagate/backtrack cycle touches only pre-allocated storage. A
// regression here means the hot loop started allocating per propagation —
// exactly the failure mode the flat arena replaced the slice-of-slices
// layout to eliminate.
//
// The formula is a long implication chain x0 -> x1 -> ... -> x(n-1): one
// decision floods the whole trail through propagate, exercising the watcher
// scan, blocker checks and enqueue for every variable, and cancelUntil then
// unwinds all of it.
func TestPropagateSteadyStateAllocs(t *testing.T) {
	s := NewSolver()
	const n = 128
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		if !s.AddClause(NewLit(i, true), NewLit(i+1, false)) {
			t.Fatal("chain clause rejected")
		}
	}

	cycle := func() {
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		if !s.enqueue(NewLit(0, false), refUndef) {
			t.Fatal("decision enqueue failed")
		}
		if confl := s.propagate(); confl != refUndef {
			t.Fatalf("implication chain conflicted at ref %d", confl)
		}
		if len(s.trail) != n {
			t.Fatalf("propagate implied %d of %d variables", len(s.trail), n)
		}
		s.cancelUntil(0)
	}

	// One warm-up cycle grows every slice (trail, watch lists, heap) to its
	// steady-state capacity; everything after must reuse that storage.
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("decide/propagate/backtrack cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestWarmResolveAllocs pins that a satisfiable re-solve of an unchanged
// formula allocates nothing: the model goes into the solver's reused
// buffer, and the cancellation checks snapshot Stats only once the context
// is done. The attack loop re-solves its miter once per DIP.
func TestWarmResolveAllocs(t *testing.T) {
	s := NewSolver()
	const n = 128
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(NewLit(i, true), NewLit(i+1, false))
	}
	ctx := context.Background()
	solve := func() {
		if ok, err := s.Solve(ctx); !ok || err != nil {
			t.Fatalf("Solve = %v, %v; want true, nil", ok, err)
		}
	}
	solve()
	if avg := testing.AllocsPerRun(100, solve); avg != 0 {
		t.Errorf("warm satisfiable re-solve allocates %.1f times per run, want 0", avg)
	}
}
