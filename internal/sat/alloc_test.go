package sat

import (
	"context"
	"fmt"
	"runtime"
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
// unwinds all of it. The longer chain's literals fill three watch pages.
func TestPropagateSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{128, 3 * watchPageSize / 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := NewSolver()
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

			// One warm-up cycle grows every slice (trail, watch lists, heap)
			// to its steady-state capacity; everything after must reuse that
			// storage.
			cycle()
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("decide/propagate/backtrack cycle allocates %.1f times per run, want 0", avg)
			}
		})
	}
}

// TestNewVarBytes bounds the bytes a growing formula allocates per variable,
// the cost the SAT attack's miter pays for every circuit copy it adds. The
// formula is 2^17 variables with one binary clause per 8 of them, so the
// per-variable tables, not the clauses, dominate. Measured on amd64: 436
// B/var with one [][]watcher entry per literal and an int-indexed heap, each
// regrown by append (the watch headers alone are 48 B/var, re-copied at every
// regrowth); 198 B/var with paged watch lists and an int32 heap. A solver of
// a few variables, the size the fuzz targets build by the million, must not
// pay for a whole 12-KiB page: 6 variables take 1,808 B unpaged, 1,704 B
// with a first page that grows, and 14,536 B with a whole first page.
func TestNewVarBytes(t *testing.T) {
	grow := func(n, every int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewSolver()
		for i := 0; i < n; i++ {
			s.NewVar()
			if i >= every && i%every == 0 {
				s.AddClause(NewLit(i-every, true), NewLit(i, false))
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	const n, maxPerVar = 1 << 17, 300
	if perVar := float64(grow(n, 8)) / n; perVar > maxPerVar {
		t.Errorf("growing a formula to %d variables allocated %.0f B/var, want at most %d", n, perVar, maxPerVar)
	}
	const small, maxSmall = 6, 4096
	if b := grow(small, 8); b > maxSmall {
		t.Errorf("a %d-variable solver allocated %d B, want at most %d", small, b, maxSmall)
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
