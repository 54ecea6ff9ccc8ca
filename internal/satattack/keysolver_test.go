package satattack

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"bindlock/internal/interrupt"
	"bindlock/internal/progress"
	"bindlock/internal/sat"
)

// solverLog records, in order, every solver an attack's factory creates
// ("new i") and every solve call made on solver i ("solve i").
type solverLog struct {
	events  []string
	solvers []*loggedBackend
}

type loggedBackend struct {
	sat.Backend
	id  int
	log *solverLog
}

func (b *loggedBackend) Solve(ctx context.Context) (bool, error) {
	b.log.events = append(b.log.events, fmt.Sprintf("solve %d", b.id))
	return b.Backend.Solve(ctx)
}

func (b *loggedBackend) SolveAssuming(ctx context.Context, assumps ...sat.Lit) (bool, error) {
	b.log.events = append(b.log.events, fmt.Sprintf("solve %d", b.id))
	return b.Backend.SolveAssuming(ctx, assumps...)
}

func (l *solverLog) factory() sat.Backend {
	b := &loggedBackend{Backend: sat.NewSolver(), id: len(l.solvers), log: l}
	l.solvers = append(l.solvers, b)
	l.events = append(l.events, fmt.Sprintf("new %d", b.id))
	return b
}

// checkKeySolverAfterMiter asserts that the attack built exactly two
// solvers, the miter first, and created the key solver only after the
// miter's last solve.
func (l *solverLog) checkKeySolverAfterMiter(t *testing.T) {
	t.Helper()
	if len(l.solvers) != 2 {
		t.Fatalf("attack built %d solvers, want the miter and the key solver: %v", len(l.solvers), l.events)
	}
	created := slices.Index(l.events, "new 1")
	lastMiter := -1
	for i, e := range l.events {
		if e == "solve 0" {
			lastMiter = i
		}
	}
	if lastMiter < 0 || created < lastMiter {
		t.Fatalf("key solver created at event %d, miter last solved at event %d: %v", created, lastMiter, l.events)
	}
}

// failingOracle answers the first n queries and fails every later one.
func failingOracle(base Oracle, n int) Oracle {
	answered := 0
	return OracleFunc(func(in []bool) ([]bool, error) {
		if answered == n {
			return nil, errors.New("oracle down")
		}
		answered++
		return base.Query(in)
	})
}

// TestKeySolverBuiltAfterMiter checks, on every exit path that extracts a
// key, that the key solver is created only once the miter has made its last
// solve, so the two never live side by side.
func TestKeySolverBuiltAfterMiter(t *testing.T) {
	locked, correct := lockedAdder(t, 4)
	oracle := OracleFromCircuit(locked, correct)
	cancelAfter := func(dips int) context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return progress.NewContext(ctx, progress.Func(func(ev progress.Event) {
			if ev.Kind == progress.Step && ev.Phase == "attack" && ev.Done == dips {
				cancel()
			}
		}))
	}
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		opts    Options
		oracle  Oracle
		wantErr func(error) bool
	}{
		{"completion", context.Background(), Options{}, oracle, func(err error) bool { return err == nil }},
		{"iteration-budget", context.Background(), Options{MaxIterations: 5}, oracle,
			func(err error) bool { return errors.Is(err, ErrIterationBudget) }},
		{"cancelled", cancelAfter(7), Options{}, oracle,
			func(err error) bool { return errors.Is(err, interrupt.ErrCancelled) }},
		{"conflict-budget", context.Background(), Options{MaxConflicts: 1}, oracle,
			func(err error) bool { return errors.Is(err, interrupt.ErrBudgetExceeded) }},
		{"oracle-failure", context.Background(), Options{}, failingOracle(oracle, 6),
			func(err error) bool { return errors.Is(err, ErrOracleUnavailable) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log solverLog
			tc.opts.Backend = log.factory
			res, err := Attack(tc.ctx, locked, tc.oracle, tc.opts)
			if !tc.wantErr(err) {
				t.Fatalf("err = %v", err)
			}
			if res == nil || res.Key == nil {
				t.Fatalf("no key extracted: %+v", res)
			}
			log.checkKeySolverAfterMiter(t)
		})
	}
}

// TestOracleFailureKeyIgnoresUnansweredDIP: an attack whose oracle fails on
// DIP k+1 extracts its key from the k answered DIPs alone. The key satisfies
// every answered DIP, and the key solver is clause for clause the one a
// k-DIP budgeted attack extracts from, so the unanswered DIP constrains
// nothing.
func TestOracleFailureKeyIgnoresUnansweredDIP(t *testing.T) {
	locked, correct := lockedAdder(t, 4)
	oracle := OracleFromCircuit(locked, correct)
	const answered = 6
	var failed, budgeted solverLog
	res, err := Attack(context.Background(), locked, failingOracle(oracle, answered), Options{Backend: failed.factory})
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want the oracle failure", err)
	}
	if res.Iterations != answered+1 || len(res.DIPs) != answered+1 {
		t.Fatalf("%d iterations, %d DIPs; want %d of each", res.Iterations, len(res.DIPs), answered+1)
	}
	for i, dip := range res.DIPs[:answered] {
		got, err := locked.Eval(dip, res.Key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(dip)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("partial key %s disagrees with the oracle on answered DIP %d", bitsToString(res.Key), i+1)
		}
	}

	ref, err := Attack(context.Background(), locked, oracle, Options{MaxIterations: answered, Backend: budgeted.factory})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("budgeted reference: err = %v", err)
	}
	if !slices.EqualFunc(ref.DIPs, res.DIPs[:answered], slices.Equal[[]bool]) {
		t.Fatal("budgeted reference found different DIPs")
	}
	if !slices.Equal(ref.Key, res.Key) {
		t.Errorf("key %s, budgeted reference %s", bitsToString(res.Key), bitsToString(ref.Key))
	}
	got, want := failed.solvers[1], budgeted.solvers[1]
	if got.NumVars() != want.NumVars() || got.NumClauses() != want.NumClauses() {
		t.Errorf("key solver %d vars, %d clauses; budgeted reference %d, %d",
			got.NumVars(), got.NumClauses(), want.NumVars(), want.NumClauses())
	}
}
