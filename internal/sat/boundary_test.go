package sat

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bindlock/internal/fault"
)

// TestAddClauseUnknownVariable: an out-of-range literal must not crash or
// poison the answer as UNSAT — it records a sticky typed error that the next
// Solve returns.
func TestAddClauseUnknownVariable(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	s.AddClause(NewLit(v, false), NewLit(7, false))
	if !errors.Is(s.Err(), ErrUnknownVariable) {
		t.Fatalf("Err() = %v, want ErrUnknownVariable", s.Err())
	}
	// Poisoned: later clauses are dropped, Solve refuses with the error
	// rather than reporting UNSAT for a formula it never saw.
	s.AddClause(NewLit(v, true))
	ok, err := s.Solve(context.Background())
	if !errors.Is(err, ErrUnknownVariable) {
		t.Fatalf("Solve err = %v, want ErrUnknownVariable", err)
	}
	if ok {
		t.Error("poisoned Solve must not report SAT")
	}
	if s.NumClauses() != 0 {
		t.Errorf("poisoned solver attached %d clauses, want 0", s.NumClauses())
	}
}

// TestValueErr runs every registered backend through the model's
// lifetime: ErrNoModel before the first solve, the model after a
// satisfiable one, ErrUnknownVariable outside it, and ErrNoModel again once
// a NewVar, an AddClause or a solve that does not return true has made the
// model stale.
func TestValueErr(t *testing.T) {
	ctx := context.Background()
	for _, name := range Backends() {
		for _, tc := range []struct {
			name  string
			stale func(b Backend, v int) // v is the variable the model holds
		}{
			{"NewVar", func(b Backend, v int) { b.NewVar() }},
			{"AddClause", func(b Backend, v int) { b.AddClause(NewLit(v, false), NewLit(v, true)) }},
			{"unsat solve", func(b Backend, v int) {
				if ok, err := b.SolveAssuming(ctx, NewLit(v, true)); ok || err != nil {
					t.Fatalf("SolveAssuming(-v) = %v, %v; want false, nil", ok, err)
				}
			}},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				b, err := NewBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				v := b.NewVar()
				if _, err := b.ValueErr(v); !errors.Is(err, ErrNoModel) {
					t.Fatalf("pre-solve ValueErr err = %v, want ErrNoModel", err)
				}
				b.AddClause(NewLit(v, false))
				if ok, err := b.Solve(ctx); !ok || err != nil {
					t.Fatalf("Solve = %v, %v", ok, err)
				}
				if got, err := b.ValueErr(v); err != nil || !got {
					t.Errorf("ValueErr(%d) = %v, %v; want true, nil", v, got, err)
				}
				if _, err := b.ValueErr(99); !errors.Is(err, ErrUnknownVariable) {
					t.Errorf("out-of-range ValueErr err = %v, want ErrUnknownVariable", err)
				}
				if _, err := b.ValueErr(-1); !errors.Is(err, ErrUnknownVariable) {
					t.Errorf("negative ValueErr err = %v, want ErrUnknownVariable", err)
				}
				tc.stale(b, v)
				for w := 0; w < b.NumVars(); w++ {
					if got, err := b.ValueErr(w); !errors.Is(err, ErrNoModel) {
						t.Errorf("stale ValueErr(%d) = %v, %v; want ErrNoModel", w, got, err)
					}
				}
			})
		}
	}
}

// TestSolveFaultHook: a context-carried injector configured to fail
// sat.solve every call makes Solve return the injected error.
func TestSolveFaultHook(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	s.AddClause(NewLit(v, false))
	ctx := fault.NewContext(context.Background(),
		fault.New(fault.Plan{FailEvery: map[string]uint64{"sat.solve": 1}}))
	if _, err := s.Solve(ctx); !fault.IsInjected(err) {
		t.Fatalf("Solve err = %v, want injected fault", err)
	}
	// The solver is untouched: a clean context solves normally.
	if ok, err := s.Solve(context.Background()); !ok || err != nil {
		t.Fatalf("post-fault Solve = %v, %v", ok, err)
	}
}

func TestParseDIMACSVarCap(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("p cnf 999999999 1\n1 0\n"))
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized header err = %v, want variable-limit rejection", err)
	}
	if _, err := ParseDIMACS(strings.NewReader("p cnf 2 1\np cnf 2 1\n1 0\n")); err == nil {
		t.Fatal("duplicate problem line must be rejected")
	}
}
