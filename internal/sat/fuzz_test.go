package sat

import (
	"context"
	"strings"
	"testing"
)

// FuzzParseDIMACS drives the DIMACS reader with arbitrary bytes. The
// property under test: ParseDIMACS never panics and never allocates
// unboundedly (MaxDIMACSVars gates the header), and an accepted formula is
// well-formed enough for the solver boundary (no sticky AddClause error).
func FuzzParseDIMACS(f *testing.F) {
	seeds := []string{
		"",
		"p cnf 0 0\n",
		"p cnf 2 2\n1 -2 0\n2 0\n",
		"c comment\np cnf 3 1\n1 2 3 0\n",
		"p cnf 1 1\n1 0",      // no trailing newline, clause flushed at EOF
		"p cnf 1 1\n1",        // unterminated clause
		"1 0\n",               // clause before problem line
		"p cnf 999999999 1\n", // over the variable cap
		"p cnf 2 1\n1 x 0\n",  // bad literal token
		"p cnf 2 1\n3 0\n",    // literal beyond declared count
		"p cnf 2 1\n-0 0\n",   // negative zero
		"p cnf 2 1\n1 -1 0\n", // tautology
		"p cnf 2 2\n1 0\n-1 0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseDIMACS(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("ParseDIMACS returned nil solver and nil error")
		}
		if s.Err() != nil {
			t.Fatalf("accepted formula left a sticky solver error: %v", s.Err())
		}
		if s.NumVars() > MaxDIMACSVars {
			t.Fatalf("solver has %d vars, above the %d cap", s.NumVars(), MaxDIMACSVars)
		}
	})
}

// FuzzSolveAssuming differentially tests the assumption interface of the
// CDCL engine against the DPLL reference. The fuzzer's byte stream is decoded
// into a small formula plus an assumption set; both engines must agree on
// satisfiability, a SAT model must satisfy every clause and every assumption,
// and an UNSAT-under-assumptions verdict must make the CDCL engine report a
// failed subset of the assumptions that — added as unit clauses — makes a
// fresh solve unsatisfiable. Each solver is also queried again afterwards to
// prove assumptions never poison the clause DB.
func FuzzSolveAssuming(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 255, 3, 255, 1})
	f.Add([]byte{4, 1, 0, 3, 255, 2, 1})
	f.Add([]byte{2, 0, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%6) + 1 // 1..6 variables
		data = data[1:]

		engines := []struct {
			name string
			b    Backend
		}{
			{"cdcl", NewSolver()},
			{"dpll", NewDPLL()},
		}
		for i := 0; i < n; i++ {
			for _, e := range engines {
				e.b.NewVar()
			}
		}

		// Decode: bytes are literals (var = b%n, sign = b>=128); 255 ends a
		// clause; after the clause section a trailing run encodes assumptions.
		var clauses [][]Lit
		var cur []Lit
		var assumps []Lit
		for i, b := range data {
			if b == 255 {
				if len(cur) > 0 {
					clauses = append(clauses, cur)
					cur = nil
				}
				continue
			}
			l := NewLit(int(b)%n, b >= 128)
			if i >= len(data)-3 && len(cur) == 0 && len(assumps) < 3 {
				assumps = append(assumps, l)
				continue
			}
			cur = append(cur, l)
		}
		if len(cur) > 0 {
			clauses = append(clauses, cur)
		}
		if len(clauses) > 24 {
			clauses = clauses[:24]
		}
		for _, c := range clauses {
			for _, e := range engines {
				e.b.AddClause(append([]Lit(nil), c...)...)
			}
		}

		ctx := context.Background()
		verdicts := make([]bool, len(engines))
		for i, e := range engines {
			got, err := e.b.SolveAssuming(ctx, assumps...)
			if err != nil {
				t.Fatalf("%s solve: %v", e.name, err)
			}
			verdicts[i] = got
			if got != verdicts[0] {
				t.Fatalf("disagreement: %s=%v %s=%v (clauses %v assumps %v)",
					engines[0].name, verdicts[0], e.name, got, clauses, assumps)
			}
		}
		sat := verdicts[0]

		check := func(name string, val func(int) bool) {
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if val(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s model violates clause %v", name, c)
				}
			}
			for _, a := range assumps {
				if val(a.Var()) == a.Sign() {
					t.Fatalf("%s model violates assumption %v", name, a)
				}
			}
		}
		if sat {
			for _, e := range engines {
				check(e.name, e.b.Value)
			}
		} else if len(assumps) > 0 {
			// The reported subset must come from the passed assumptions and
			// must independently reproduce unsatisfiability.
			set := map[Lit]bool{}
			for _, a := range assumps {
				set[a] = true
			}
			for _, e := range engines {
				if e.name == "dpll" {
					continue
				}
				failed := e.b.FailedAssumptions()
				for _, l := range failed {
					if !set[l] {
						t.Fatalf("%s failed assumption %v not in passed set %v", e.name, l, assumps)
					}
				}
				fresh := NewSolver()
				for i := 0; i < n; i++ {
					fresh.NewVar()
				}
				for _, c := range clauses {
					fresh.AddClause(append([]Lit(nil), c...)...)
				}
				for _, l := range failed {
					fresh.AddClause(l)
				}
				if got, err := fresh.Solve(ctx); err != nil {
					t.Fatalf("%s fresh solve: %v", e.name, err)
				} else if got {
					t.Fatalf("%s failed subset %v does not reproduce unsatisfiability", e.name, failed)
				}
			}
		}

		// Every solver stays usable after an assumption query.
		re := make([]bool, len(engines))
		for i, e := range engines {
			got, err := e.b.Solve(ctx)
			if err != nil {
				t.Fatalf("%s re-solve: %v", e.name, err)
			}
			re[i] = got
			if got != re[0] {
				t.Fatalf("re-solve disagreement: %s=%v %s=%v",
					engines[0].name, re[0], e.name, got)
			}
		}
	})
}
