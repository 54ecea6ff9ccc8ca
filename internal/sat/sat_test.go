package sat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bindlock/internal/interrupt"
	"bindlock/internal/progress"
)

// bruteForce decides satisfiability of a clause set over n variables by
// exhaustive enumeration (reference oracle for the CDCL implementation).
func bruteForce(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// checkModel verifies the solver's model satisfies every clause.
func checkModel(t *testing.T, s *Solver, clauses [][]Lit) {
	t.Helper()
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Sign() {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model violates clause %v", c)
		}
	}
}

func TestTrivialSAT(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(NewLit(a, false))
	s.AddClause(NewLit(a, true), NewLit(b, false))
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatalf("model a=%v b=%v, want true true", s.Value(a), s.Value(b))
	}
}

func TestTrivialUNSAT(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(NewLit(a, false))
	if s.AddClause(NewLit(a, true)) {
		t.Fatal("contradictory unit must report failure")
	}
	ok, err := s.Solve(context.Background())
	if err != nil || ok {
		t.Fatalf("Solve = %v, %v, want UNSAT", ok, err)
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause must fail")
	}
	if ok, _ := s.Solve(context.Background()); ok {
		t.Fatal("must be UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(a, true)) // tautology: ignored
	s.AddClause(NewLit(b, false), NewLit(b, false), NewLit(b, false))
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v", ok, err)
	}
	if !s.Value(b) {
		t.Fatal("b must be true")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons, 3 holes — classically UNSAT and exercises
	// clause learning. Variable p*3+h means pigeon p sits in hole h.
	s := NewSolver()
	vars := make([][]int, 4)
	for p := range vars {
		vars[p] = make([]int, 3)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < 4; p++ {
		s.AddClause(NewLit(vars[p][0], false), NewLit(vars[p][1], false), NewLit(vars[p][2], false))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.AddClause(NewLit(vars[p1][h], true), NewLit(vars[p2][h], true))
			}
		}
	}
	ok, err := s.Solve(context.Background())
	if err != nil || ok {
		t.Fatalf("PHP(4,3) = %v, %v, want UNSAT", ok, err)
	}
	if s.Conflicts == 0 {
		t.Error("UNSAT proof without conflicts is impossible")
	}
}

func TestPigeonholeLarger(t *testing.T) {
	// PHP(7,6) requires real conflict-driven search.
	s := NewSolver()
	n, m := 7, 6
	vars := make([][]int, n)
	for p := range vars {
		vars[p] = make([]int, m)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]Lit, m)
		for h := 0; h < m; h++ {
			lits[h] = NewLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < m; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NewLit(vars[p1][h], true), NewLit(vars[p2][h], true))
			}
		}
	}
	ok, err := s.Solve(context.Background())
	if err != nil || ok {
		t.Fatalf("PHP(7,6) = %v, %v, want UNSAT", ok, err)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks CDCL against exhaustive
// enumeration on random 3-SAT instances around the phase transition.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9) // 4..12 vars
		nc := int(4.3*float64(n)) + rng.Intn(5)
		s := NewSolver()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		clauses := make([][]Lit, 0, nc)
		for i := 0; i < nc; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = NewLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			return false
		}
		want := bruteForce(n, clauses)
		if got != want {
			return false
		}
		if got {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						sat = true
					}
				}
				if !sat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSolving(t *testing.T) {
	// Solve, add constraints, solve again: the SAT-attack usage pattern.
	s := NewSolver()
	vars := make([]int, 6)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// At least one true.
	lits := make([]Lit, 6)
	for i := range lits {
		lits[i] = NewLit(vars[i], false)
	}
	s.AddClause(lits...)
	for round := 0; round < 5; round++ {
		ok, err := s.Solve(context.Background())
		if err != nil || !ok {
			t.Fatalf("round %d: %v %v", round, ok, err)
		}
		// Forbid the returned model restricted to true vars.
		var block []Lit
		for _, v := range vars {
			if s.Value(v) {
				block = append(block, NewLit(v, true))
			} else {
				block = append(block, NewLit(v, false))
			}
		}
		s.AddClause(block...)
	}
}

func TestXorChainUNSAT(t *testing.T) {
	// x1 ^ x2, x2 ^ x3, ..., plus x1 == xn and odd chain length: UNSAT.
	// Encoded as CNF equivalences; stresses propagation.
	s := NewSolver()
	n := 14 // 13 XOR-true constraints flip parity an odd number of times
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	addXorTrue := func(a, b int) { // a XOR b = true
		s.AddClause(NewLit(a, false), NewLit(b, false))
		s.AddClause(NewLit(a, true), NewLit(b, true))
	}
	addEq := func(a, b int) { // a == b
		s.AddClause(NewLit(a, false), NewLit(b, true))
		s.AddClause(NewLit(a, true), NewLit(b, false))
	}
	for i := 0; i+1 < n; i++ {
		addXorTrue(vars[i], vars[i+1])
	}
	addEq(vars[0], vars[n-1]) // x_{n-1} = NOT x_0 after 13 flips: contradiction
	ok, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("odd xor chain with equality must be UNSAT")
	}
}

// pigeonhole encodes PHP(n, m): n pigeons into m holes. For n > m it is UNSAT
// and exponentially hard for resolution — the standard budget/cancellation
// workload.
func pigeonhole(s *Solver, n, m int) {
	vars := make([][]int, n)
	for p := range vars {
		vars[p] = make([]int, m)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]Lit, m)
		for h := 0; h < m; h++ {
			lits[h] = NewLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < m; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NewLit(vars[p1][h], true), NewLit(vars[p2][h], true))
			}
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A hard instance with a tiny budget must return ErrBudget, typed as a
	// budget interruption carrying the search counters.
	s := NewSolver()
	pigeonhole(s, 9, 8)
	s.MaxConflicts = 50
	_, err := s.Solve(context.Background())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !errors.Is(err, interrupt.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want interrupt.ErrBudgetExceeded", err)
	}
	stats, ok := interrupt.Partial[Stats](err)
	if !ok || stats.Conflicts < 50 {
		t.Fatalf("partial stats = %+v, %v; want conflicts >= 50", stats, ok)
	}
}

// TestBudgetedRandom3SATPinned pins the default backend's search trajectory
// on budgeted random 3-SAT near the phase transition, where unit propagation
// dominates the work. Each seed's instance (1200 variables, 5112 clauses
// drawn in variable-then-sign order) stops on the 20,000-conflict budget
// after a pinned number of propagations. These instances reach restarts and
// clause-database reduction, which the small adder attacks pinned elsewhere
// may never do, so a change there shows up here even when their keys and
// DIP counts hold. A deliberate search change re-pins these together with
// the attack pins.
func TestBudgetedRandom3SATPinned(t *testing.T) {
	const (
		numVars    = 1200
		numClauses = 5112 // 4.26 clauses per variable
		conflicts  = 20_000
	)
	f, err := BackendFactory(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	for seed, wantProps := range []int64{2_467_687, 2_460_042, 2_493_947} {
		b := f()
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < numVars; i++ {
			b.NewVar()
		}
		for i := 0; i < numClauses; i++ {
			b.AddClause(
				NewLit(rng.Intn(numVars), rng.Intn(2) == 0),
				NewLit(rng.Intn(numVars), rng.Intn(2) == 0),
				NewLit(rng.Intn(numVars), rng.Intn(2) == 0))
		}
		b.SetMaxConflicts(conflicts)
		if _, err := b.Solve(context.Background()); !errors.Is(err, ErrBudget) {
			t.Fatalf("seed %d: err = %v, want ErrBudget", seed, err)
		}
		if st := b.Stats(); st.Conflicts != conflicts || st.Propagations != wantProps {
			t.Errorf("seed %d: %d conflicts, %d propagations; pinned %d, %d",
				seed, st.Conflicts, st.Propagations, conflicts, wantProps)
		}
	}
}

func TestSolveCancellation(t *testing.T) {
	// A deadline mid-search must interrupt the solver promptly with partial
	// statistics; PHP(11,10) runs far beyond the 20ms budget otherwise.
	s := NewSolver()
	pigeonhole(s, 11, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Solve(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, interrupt.ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline-classified budget interruption", err)
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("solver returned %v after the 20ms deadline; want prompt return", elapsed)
	}
	stats, ok := interrupt.Partial[Stats](err)
	if !ok || stats.Conflicts == 0 {
		t.Errorf("partial stats = %+v, %v; want non-zero conflicts", stats, ok)
	}

	// Pre-cancelled contexts never enter the search.
	s2 := NewSolver()
	pigeonhole(s2, 9, 8)
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := s2.Solve(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve = %v, want context.Canceled", err)
	}
}

func TestSolveEmitsProgress(t *testing.T) {
	var c progress.Counter
	s := NewSolver()
	pigeonhole(s, 8, 7)
	s.MaxConflicts = 5000
	ctx := progress.NewContext(context.Background(), &c)
	_, _ = s.Solve(ctx)
	if c.Steps("solve") == 0 {
		t.Fatal("Solve emitted no solve progress events")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLitBasics(t *testing.T) {
	l := NewLit(5, false)
	if l.Var() != 5 || l.Sign() {
		t.Fatal("positive literal broken")
	}
	n := l.Neg()
	if n.Var() != 5 || !n.Sign() || n.Neg() != l {
		t.Fatal("negation broken")
	}
	if l.String() != "6" || n.String() != "-6" || LitUndef.String() != "undef" {
		t.Errorf("String: %q %q", l.String(), n.String())
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	src := `c example
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v %v", ok, err)
	}
	// -1 forces x1 false; 1 -2 forces x2 false; 2 3 forces x3 true.
	if s.Value(0) || s.Value(1) || !s.Value(2) {
		t.Fatalf("model = %v %v %v", s.Value(0), s.Value(1), s.Value(2))
	}

	var sb strings.Builder
	s2 := NewSolver()
	for i := 0; i < 3; i++ {
		s2.NewVar()
	}
	s2.AddClause(NewLit(0, false), NewLit(1, true))
	if err := s2.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "p cnf 3 1") || !strings.Contains(sb.String(), "1 -2 0") {
		t.Errorf("WriteDIMACS output:\n%s", sb.String())
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 3\n1 0\n",
		"1 2 0\n",
		"p cnf 2 1\n5 0\n",
		"p dnf 2 1\n1 0\n",
		"p cnf 2 1\n1 a 0\n",
	}
	for _, src := range cases {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestValuePanicsWithoutModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Value without model must panic")
		}
	}()
	s := NewSolver()
	s.NewVar()
	s.Value(0)
}

func TestStatisticsPopulated(t *testing.T) {
	s := NewSolver()
	n := 8
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	rng := rand.New(rand.NewSource(5))
	var clauses [][]Lit
	for i := 0; i < 30; i++ {
		c := []Lit{
			NewLit(rng.Intn(n), rng.Intn(2) == 0),
			NewLit(rng.Intn(n), rng.Intn(2) == 0),
			NewLit(rng.Intn(n), rng.Intn(2) == 0),
		}
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	ok, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		checkModel(t, s, clauses)
	}
	if s.Propagations == 0 && s.Decisions == 0 {
		t.Error("no work recorded")
	}
}

// TestReduceDBStress drives enough conflicts to trigger learned-clause
// database reduction and checks the solver still decides correctly. The
// padded run creates unconstrained variables first, so PHP(8,7)'s literals
// straddle the first watch-page boundary and sweep rewrites watch lists on
// both sides of it.
func TestReduceDBStress(t *testing.T) {
	for _, pad := range []int{0, watchPageSize/2 - 28} {
		t.Run(fmt.Sprintf("pad=%d", pad), func(t *testing.T) {
			// PHP(8,7): UNSAT with thousands of conflicts.
			s := NewSolver()
			for i := 0; i < pad; i++ {
				s.NewVar()
			}
			n, m := 8, 7
			vars := make([][]int, n)
			for p := range vars {
				vars[p] = make([]int, m)
				for h := range vars[p] {
					vars[p][h] = s.NewVar()
				}
			}
			first, last := NewLit(vars[0][0], false), NewLit(vars[n-1][m-1], true)
			if pad > 0 && first>>watchPageBits == last>>watchPageBits {
				t.Fatalf("literals %v..%v share one watch page", first, last)
			}
			for p := 0; p < n; p++ {
				lits := make([]Lit, m)
				for h := 0; h < m; h++ {
					lits[h] = NewLit(vars[p][h], false)
				}
				s.AddClause(lits...)
			}
			for h := 0; h < m; h++ {
				for p1 := 0; p1 < n; p1++ {
					for p2 := p1 + 1; p2 < n; p2++ {
						s.AddClause(NewLit(vars[p1][h], true), NewLit(vars[p2][h], true))
					}
				}
			}
			ok, err := s.Solve(context.Background())
			if err != nil || ok {
				t.Fatalf("PHP(8,7) = %v, %v, want UNSAT", ok, err)
			}
			if s.Conflicts < 1000 {
				t.Skipf("only %d conflicts; reduceDB untested on this machine", s.Conflicts)
			}
			// Reduction must actually have removed clauses: the live learned
			// count trails the number of learned clauses ever attached.
			if removed := int(s.learnedTotal) - s.learnts; removed == 0 {
				t.Errorf("no clauses removed after %d conflicts", s.Conflicts)
			}
		})
	}
}

// TestReduceDBPreservesSATAnswers re-checks random instances larger than the
// brute-force tests, comparing against a fresh solve with reduction
// effectively disabled (huge conflict budget but few conflicts).
func TestReduceDBPreservesSATAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		nv := 30
		nc := 125
		type cl []Lit
		var clauses []cl
		for i := 0; i < nc; i++ {
			c := cl{
				NewLit(rng.Intn(nv), rng.Intn(2) == 0),
				NewLit(rng.Intn(nv), rng.Intn(2) == 0),
				NewLit(rng.Intn(nv), rng.Intn(2) == 0),
			}
			clauses = append(clauses, c)
		}
		solve := func() bool {
			s := NewSolver()
			for i := 0; i < nv; i++ {
				s.NewVar()
			}
			for _, c := range clauses {
				s.AddClause(c...)
			}
			ok, err := s.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				for _, c := range clauses {
					sat := false
					for _, l := range c {
						if s.Value(l.Var()) != l.Sign() {
							sat = true
						}
					}
					if !sat {
						t.Fatal("model violates clause")
					}
				}
			}
			return ok
		}
		a := solve()
		b := solve()
		if a != b {
			t.Fatalf("nondeterministic answer on trial %d", trial)
		}
	}
}

// TestReduceOrderTotalOrder pins reduceDB's deletion order: ascending
// activity with the clause index breaking ties, so which clauses fall in the
// deleted half depends only on the inputs, not the sort implementation or
// the input permutation.
func TestReduceOrderTotalOrder(t *testing.T) {
	base := []reduceCand{
		{idx: 9, act: 0.5},
		{idx: 1, act: 1},
		{idx: 3, act: 1},
		{idx: 7, act: 1},
		{idx: 2, act: 2},
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		cands := append([]reduceCand(nil), base...)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		reduceOrder(cands)
		for i, want := range base {
			if cands[i] != want {
				t.Fatalf("trial %d: order[%d] = %+v, want %+v", trial, i, cands[i], want)
			}
		}
	}
}
