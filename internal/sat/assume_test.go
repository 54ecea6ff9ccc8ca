package sat

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// backendsUnderTest returns a fresh instance of every registered backend so
// the assumption contract is checked against each engine, not just CDCL.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	out := map[string]Backend{}
	for _, name := range Backends() {
		b, err := NewBackend(name)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", name, err)
		}
		out[name] = b
	}
	return out
}

func TestSolveAssumingBasic(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			a := s.NewVar()
			b := s.NewVar()
			// a -> b
			s.AddClause(NewLit(a, true), NewLit(b, false))

			sat, err := s.SolveAssuming(context.Background(), NewLit(a, false))
			if err != nil || !sat {
				t.Fatalf("assume a: sat=%v err=%v, want true", sat, err)
			}
			if !s.Value(a) || !s.Value(b) {
				t.Fatalf("model a=%v b=%v, want both true", s.Value(a), s.Value(b))
			}
			if got := s.FailedAssumptions(); got != nil {
				t.Fatalf("FailedAssumptions after SAT = %v, want nil", got)
			}

			// Conflicting assumptions a ∧ ¬b: unsatisfiable under them, but the
			// formula — and the solver — must stay healthy.
			sat, err = s.SolveAssuming(context.Background(), NewLit(a, false), NewLit(b, true))
			if err != nil || sat {
				t.Fatalf("assume a,¬b: sat=%v err=%v, want false nil", sat, err)
			}
			failed := s.FailedAssumptions()
			if len(failed) == 0 {
				t.Fatal("no failed assumptions reported for UNSAT-under-assumptions")
			}
			for _, l := range failed {
				if l != NewLit(a, false) && l != NewLit(b, true) {
					t.Fatalf("failed assumption %v is not a subset of the passed set", l)
				}
			}

			// Assumptions were scoped to the call: the bare formula is still SAT.
			sat, err = s.Solve(context.Background())
			if err != nil || !sat {
				t.Fatalf("solve after failed assumptions: sat=%v err=%v, want true", sat, err)
			}
		})
	}
}

func TestSolveAssumingDoesNotPoisonClauseDB(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			const n = 8
			vars := make([]int, n)
			for i := range vars {
				vars[i] = s.NewVar()
			}
			// Chain v0 -> v1 -> ... -> v7.
			for i := 0; i+1 < n; i++ {
				s.AddClause(NewLit(vars[i], true), NewLit(vars[i+1], false))
			}

			// Assuming v0 ∧ ¬v7 is unsatisfiable; do it repeatedly and verify the
			// solver still answers the satisfiable queries in between. With
			// clause learning this exercises that failed assumptions never enter
			// the learned-clause DB as facts.
			for round := 0; round < 3; round++ {
				sat, err := s.SolveAssuming(context.Background(), NewLit(vars[0], false), NewLit(vars[n-1], true))
				if err != nil || sat {
					t.Fatalf("round %d assume v0,¬v7: sat=%v err=%v, want false nil", round, sat, err)
				}
				sat, err = s.SolveAssuming(context.Background(), NewLit(vars[n-1], true))
				if err != nil || !sat {
					t.Fatalf("round %d assume ¬v7: sat=%v err=%v, want true", round, sat, err)
				}
				if s.Value(vars[0]) {
					t.Fatalf("round %d: v0 true in a model assuming ¬v7 (chain forces ¬v0)", round)
				}
			}
		})
	}
}

// TestSolveAssumingAlreadySatisfied covers the dummy-decision-level path: an
// assumption forced true by propagation before it is installed.
func TestSolveAssumingAlreadySatisfied(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			a := s.NewVar()
			b := s.NewVar()
			s.AddClause(NewLit(a, false)) // unit: a
			s.AddClause(NewLit(a, true), NewLit(b, false))

			sat, err := s.SolveAssuming(context.Background(), NewLit(a, false), NewLit(b, false))
			if err != nil || !sat {
				t.Fatalf("sat=%v err=%v, want true", sat, err)
			}
			// And an assumption contradicting a root-level unit fails cleanly.
			sat, err = s.SolveAssuming(context.Background(), NewLit(a, true))
			if err != nil || sat {
				t.Fatalf("assume ¬a against unit a: sat=%v err=%v, want false nil", sat, err)
			}
			if failed := s.FailedAssumptions(); len(failed) == 0 {
				t.Fatal("no failed assumptions for root-level contradiction")
			}
			sat, err = s.Solve(context.Background())
			if err != nil || !sat {
				t.Fatalf("formula poisoned by root-contradicting assumption: sat=%v err=%v", sat, err)
			}
		})
	}
}

func TestSolveAssumingUnknownVariable(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			v := s.NewVar()
			s.AddClause(NewLit(v, false))
			if _, err := s.SolveAssuming(context.Background(), NewLit(v+7, false)); !errors.Is(err, ErrUnknownVariable) {
				t.Fatalf("out-of-range assumption: err=%v, want ErrUnknownVariable", err)
			}
			if _, err := s.SolveAssuming(context.Background(), LitUndef); !errors.Is(err, ErrUnknownVariable) {
				t.Fatalf("LitUndef assumption: err=%v, want ErrUnknownVariable", err)
			}
			// The rejection is not sticky: a clean call still works.
			sat, err := s.SolveAssuming(context.Background(), NewLit(v, false))
			if err != nil || !sat {
				t.Fatalf("after rejected assumption: sat=%v err=%v, want true", sat, err)
			}
		})
	}
}

// TestSolveAssumingPoisonedSolver pins the precedence between the sticky
// AddClause boundary error and assumption handling: a poisoned solver
// reports its sticky error from SolveAssuming just as it does from Solve.
func TestSolveAssumingPoisonedSolver(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			v := s.NewVar()
			s.AddClause(NewLit(v, false), NewLit(v+3, false)) // unknown var: sticky error
			if s.Err() == nil {
				t.Fatal("AddClause with unknown variable did not record a sticky error")
			}
			if _, err := s.SolveAssuming(context.Background(), NewLit(v, false)); !errors.Is(err, ErrUnknownVariable) {
				t.Fatalf("poisoned solver: err=%v, want sticky ErrUnknownVariable", err)
			}
		})
	}
}

func TestSolveAssumingOnUNSATFormula(t *testing.T) {
	for name, s := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			v := s.NewVar()
			s.AddClause(NewLit(v, false))
			s.AddClause(NewLit(v, true))
			sat, err := s.SolveAssuming(context.Background(), NewLit(v, false))
			if err != nil || sat {
				t.Fatalf("UNSAT formula under assumptions: sat=%v err=%v, want false nil", sat, err)
			}
		})
	}
}

// TestSolveAssumingClauseRetention checks learned-clause reuse across calls on
// the CDCL backend: solving the same sub-problem twice under assumptions must
// not repeat the first call's conflicts from scratch.
func TestSolveAssumingClauseRetention(t *testing.T) {
	s := NewSolver()
	rng := rand.New(rand.NewSource(7))
	const n = 60
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	sel := s.NewVar() // selector guarding a hard sub-formula
	// Random 3-SAT at a hard-ish ratio, every clause guarded by ¬sel.
	for i := 0; i < 4*n; i++ {
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		s.AddClause(NewLit(sel, true), NewLit(vars[a], rng.Intn(2) == 0), NewLit(vars[b], rng.Intn(2) == 0), NewLit(vars[c], rng.Intn(2) == 0))
	}

	if _, err := s.SolveAssuming(context.Background(), NewLit(sel, false)); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	first := s.Stats().Conflicts
	if _, err := s.SolveAssuming(context.Background(), NewLit(sel, false)); err != nil {
		t.Fatalf("second solve: %v", err)
	}
	second := s.Stats().Conflicts - first
	if first > 0 && second >= first {
		t.Fatalf("second identical query cost %d conflicts, first cost %d — learned clauses not retained", second, first)
	}
}

func TestBackendRegistry(t *testing.T) {
	if names := Backends(); !slices.Equal(names, []string{"cdcl", "dpll"}) {
		t.Fatalf("Backends() = %v, want [cdcl dpll]", names)
	}
	if _, err := BackendFactory(""); err != nil {
		t.Fatalf("empty name should resolve to the default backend: %v", err)
	}
	if _, err := BackendFactory("no-such-engine"); err == nil {
		t.Fatal("unknown backend name resolved")
	}
	if err := RegisterBackend("", func() Backend { return NewSolver() }); err == nil {
		t.Fatal("empty backend name registered")
	}
	if err := RegisterBackend("x-nil", nil); err == nil {
		t.Fatal("nil factory registered")
	}
	if err := RegisterBackend("cdcl", func() Backend { return NewSolver() }); err == nil {
		t.Fatal("duplicate backend name registered")
	}
}

// TestDPLLAgainstBruteForce cross-checks the reference engine on random small
// formulas, with and without assumptions.
func TestDPLLAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(5)
		d := NewDPLL()
		for i := 0; i < n; i++ {
			d.NewVar()
		}
		var clauses [][]Lit
		for i := 0; i < 3+rng.Intn(4*n); i++ {
			var c []Lit
			for j := 0; j < 1+rng.Intn(3); j++ {
				c = append(c, NewLit(rng.Intn(n), rng.Intn(2) == 0))
			}
			d.AddClause(append([]Lit(nil), c...)...)
			clauses = append(clauses, c)
		}
		var assumps []Lit
		for j := 0; j < rng.Intn(3); j++ {
			assumps = append(assumps, NewLit(rng.Intn(n), rng.Intn(2) == 0))
		}
		ref := clauses
		for _, a := range assumps {
			ref = append(ref, []Lit{a})
		}
		want := bruteForce(n, ref)
		got, err := d.SolveAssuming(context.Background(), assumps...)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got != want {
			t.Fatalf("iter %d: dpll=%v bruteforce=%v (clauses %v assumps %v)", iter, got, want, clauses, assumps)
		}
		if got {
			for _, c := range ref {
				sat := false
				for _, l := range c {
					if d.Value(l.Var()) != l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model violates %v", iter, c)
				}
			}
		}
	}
}
