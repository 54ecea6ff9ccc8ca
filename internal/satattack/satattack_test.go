package satattack

import (
	"context"
	"errors"
	"testing"
	"time"

	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/progress"

	"bindlock/internal/locking"
	"bindlock/internal/netlist"
)

func TestAttackXORLockedAdder(t *testing.T) {
	// Random XOR locking falls to the SAT attack in a handful of
	// iterations — the observation motivating SAT-resilient schemes.
	base, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockXOR(base, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 30 {
		t.Errorf("XOR locking took %d iterations; expected quick collapse", res.Iterations)
	}
	if res.Duration <= 0 || len(res.DIPs) != res.Iterations {
		t.Errorf("bookkeeping: duration=%v dips=%d iters=%d", res.Duration, len(res.DIPs), res.Iterations)
	}
	t.Logf("xor-locked adder: %d iterations in %v", res.Iterations, res.Duration)
}

func TestAttackSFLLIsExpensive(t *testing.T) {
	// SFLL-HD(0) on a 3-bit adder: 6-bit key, 64-minterm input space.
	// Each DIP eliminates O(1) keys; the attack hits the secret after
	// traversing on average half the key space, so the MEAN iteration
	// count over random secrets sits near λ/2 (λ from Eqn. 1 ≈ 64). Any
	// single secret can fall early or late depending on the solver's
	// deterministic elimination order.
	base, err := netlist.NewAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	secrets := []uint64{0b101101, 0b000000, 0b111111, 0b010010, 0b100001,
		0b011011, 0b110100, 0b001110}
	total := 0
	for _, s := range secrets {
		locked, key, err := netlist.LockSFLLHD0(base, []uint64{s})
		if err != nil {
			t.Fatal(err)
		}
		oracle := OracleFromCircuit(locked, key)
		res, err := Attack(context.Background(), locked, oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
			t.Fatal(err)
		}
		total += res.Iterations
	}
	mean := float64(total) / float64(len(secrets))
	lam, err := locking.ExpectedSATIterations(6, 1, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	// Mean must be the same order of magnitude as λ/2 (band [λ/8, 2λ]),
	// far above the handful of DIPs XOR locking survives.
	if mean < lam/8 || mean > 2*lam {
		t.Errorf("mean iterations = %.1f, Eqn.1 λ = %v (acceptance band [%v, %v])",
			mean, lam, lam/8, 2*lam)
	}
	t.Logf("sfll adder: mean %.1f iterations over %d secrets (Eqn.1 λ = %v)",
		mean, len(secrets), lam)
}

func TestAttackRoutingLockedAdder(t *testing.T) {
	base, err := netlist.NewAdder(2) // 4 inputs: power of two
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockRouting(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatal(err)
	}
	t.Logf("routing-locked adder: %d iterations", res.Iterations)
}

func TestAttackMultiplier(t *testing.T) {
	base, err := netlist.NewMultiplier(3)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0b010110})
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatal(err)
	}
}

func TestAttackIterationBudget(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{5})
	oracle := OracleFromCircuit(locked, key)
	_, err := Attack(context.Background(), locked, oracle, Options{MaxIterations: 2})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("err = %v, want iteration budget", err)
	}
}

func TestAttackRejectsUnlockedCircuit(t *testing.T) {
	base, _ := netlist.NewAdder(2)
	if _, err := Attack(context.Background(), base, OracleFromCircuit(base, nil), Options{}); err == nil {
		t.Fatal("circuit without keys must be rejected")
	}
}

func TestAttackInconsistentOracle(t *testing.T) {
	// An oracle that answers from a different function: constraints become
	// unsatisfiable and the attack reports the inconsistency rather than
	// fabricating a key.
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{7})
	honest := OracleFromCircuit(locked, key)
	// Flip output bit 1, which no key bit influences (SFLL only perturbs
	// bit 0): the very first I/O constraint is unsatisfiable for every key.
	bogus := OracleFunc(func(inputs []bool) ([]bool, error) {
		outs, err := honest.Query(inputs)
		if err != nil {
			return nil, err
		}
		outs[1] = !outs[1]
		return outs, nil
	})
	_, err := Attack(context.Background(), locked, bogus, Options{})
	if err == nil {
		t.Fatal("inconsistent oracle must produce an error")
	}
}

func TestVerifyKeyDetectsWrongKey(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{0b000111})
	oracle := OracleFromCircuit(locked, key)
	wrong := append([]bool(nil), key...)
	wrong[0] = !wrong[0]
	if err := VerifyKey(context.Background(), locked, wrong, oracle); err == nil {
		t.Fatal("VerifyKey must reject a wrong key")
	}
	if err := VerifyKey(context.Background(), locked, key, oracle); err != nil {
		t.Fatalf("VerifyKey rejected the correct key: %v", err)
	}
}

// TestVerifyKeyWideCircuit is the regression test for the 64-input wrap:
// `1 << n` overflowed to a zero-size sweep space, so VerifyKey on a circuit
// with 64+ inputs checked no patterns at all and silently accepted any key.
func TestVerifyKeyWideCircuit(t *testing.T) {
	base, err := netlist.NewAdder(32) // 64 primary inputs
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockXOR(base, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	wrong := make([]bool, len(key))
	for i, b := range key {
		wrong[i] = !b
	}
	if err := VerifyKey(context.Background(), locked, wrong, oracle); err == nil {
		t.Fatal("VerifyKey accepted a wrong key on a 64-input circuit")
	}
	if err := VerifyKey(context.Background(), locked, key, oracle); err != nil {
		t.Fatalf("VerifyKey rejected the correct key: %v", err)
	}
}

// TestAttackArchitectureIndependence: the SAT attack's iteration behaviour
// depends on the locked FUNCTION, not the FU micro-architecture. Locking the
// same minterm on a ripple-carry and a carry-lookahead adder must both fall
// to the attack with verified keys, at comparable effort.
func TestAttackArchitectureIndependence(t *testing.T) {
	variants, err := netlist.ArchitectureVariants("adder", 3)
	if err != nil {
		t.Fatal(err)
	}
	secret := uint64(0b011010)
	var iters []int
	for _, base := range variants {
		locked, key, err := netlist.LockSFLLHD0(base, []uint64{secret})
		if err != nil {
			t.Fatal(err)
		}
		oracle := OracleFromCircuit(locked, key)
		res, err := Attack(context.Background(), locked, oracle, Options{})
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		iters = append(iters, res.Iterations)
	}
	// Identical functions: the DIP space is the same; solver heuristics can
	// wander, so allow slack but demand the same order of magnitude.
	lo, hi := iters[0], iters[0]
	for _, n := range iters[1:] {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi > 8*lo+8 {
		t.Errorf("iteration counts diverge across architectures: %v", iters)
	}
}

// TestAttackCancellationMidRun: the acceptance scenario from the co-design
// methodology — an SFLL-locked adder whose λ (Eqn. 1) is far beyond any
// interactive budget, attacked under a 50ms context deadline. The attack
// must return promptly with a typed budget error carrying a partial result
// whose DIP count is non-zero.
func TestAttackCancellationMidRun(t *testing.T) {
	base, err := netlist.NewAdder(8) // 16 inputs: λ = 2^16 DIPs
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0xBEEF})
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Attack(ctx, locked, oracle, Options{})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("attack under a 50ms deadline must not complete")
	}
	if !errors.Is(err, interrupt.ErrBudgetExceeded) {
		t.Errorf("errors.Is(err, interrupt.ErrBudgetExceeded) = false: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("attack returned after %v; want prompt return near the 50ms deadline", elapsed)
	}
	if res == nil {
		t.Fatal("interrupted attack must return its partial result")
	}
	if res.Iterations == 0 {
		t.Error("partial result has zero DIP iterations; expected progress before the deadline")
	}
	if len(res.Key) != len(locked.Keys) {
		t.Errorf("partial result missing best-so-far key: len=%d want %d", len(res.Key), len(locked.Keys))
	}
	if p, ok := interrupt.Partial[*Result](err); !ok || p != res {
		t.Errorf("error must carry the same partial result: %v %v", p, ok)
	}
	t.Logf("interrupted after %d DIPs in %v", res.Iterations, elapsed)
}

// TestAttackExplicitCancel: an already-cancelled context aborts before the
// first DIP and classifies as cancellation, not budget exhaustion.
func TestAttackExplicitCancel(t *testing.T) {
	base, _ := netlist.NewAdder(4)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Attack(ctx, locked, OracleFromCircuit(locked, key), Options{})
	if !errors.Is(err, interrupt.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want cancellation semantics", err)
	}
	if res == nil || res.Iterations != 0 {
		t.Fatalf("pre-cancelled attack: res = %+v", res)
	}
}

// TestAttackBudgetPartialResult: the iteration-budget exit must populate
// the partial key, DIP count, and duration rather than abandoning them.
func TestAttackBudgetPartialResult(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{5})
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{MaxIterations: 2})
	if !errors.Is(err, ErrIterationBudget) || !errors.Is(err, interrupt.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want iteration budget with typed kind", err)
	}
	if res == nil {
		t.Fatal("budget exit must return the partial result")
	}
	if res.Iterations != 2 || len(res.DIPs) != 2 {
		t.Errorf("partial iterations = %d, DIPs = %d; want 2, 2", res.Iterations, len(res.DIPs))
	}
	if len(res.Key) != len(locked.Keys) {
		t.Errorf("budget exit missing best-guess key: len=%d want %d", len(res.Key), len(locked.Keys))
	}
	if res.Duration <= 0 {
		t.Error("budget exit missing duration")
	}
}

// TestApproxAttackCancellation: ApproxAttack honours an expired deadline
// during its DIP loop and returns the partial result.
func TestApproxAttackCancellation(t *testing.T) {
	base, _ := netlist.NewAdder(8)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{0xACE})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := ApproxAttack(ctx, locked, OracleFromCircuit(locked, key),
		ApproxOptions{MaxIterations: 1 << 20})
	if err == nil {
		t.Fatal("deadline must interrupt the approximate attack")
	}
	if !errors.Is(err, interrupt.ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want budget/deadline semantics", err)
	}
	if res == nil {
		t.Fatal("interrupted approx attack must return its partial result")
	}
	t.Logf("approx attack interrupted after %d DIPs", res.Iterations)
}

// TestAttackEmitsProgress: a context-carried hook observes attack phase
// start, per-DIP steps, and phase end.
func TestAttackEmitsProgress(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{9})
	var c progress.Counter
	ctx := progress.NewContext(context.Background(), &c)
	res, err := Attack(ctx, locked, OracleFromCircuit(locked, key), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Starts("attack") != 1 || c.Ends("attack") != 1 {
		t.Errorf("phase events: starts=%d ends=%d", c.Starts("attack"), c.Ends("attack"))
	}
	if c.Steps("attack") != res.Iterations {
		t.Errorf("step events = %d, want one per DIP (%d)", c.Steps("attack"), res.Iterations)
	}
}

// TestAttackTimesEncoding pins what satattack_encode_seconds times: the
// miter encode, each answered DIP's I/O constraint and the key solver's
// build, one observation each, whether the attack completes or ends on its
// DIP budget. Being a *_seconds histogram it stays out of the deterministic
// metrics subset.
func TestAttackTimesEncoding(t *testing.T) {
	base, err := netlist.NewAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0b101101})
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	for _, budget := range []int{0, 3} {
		reg := metrics.New()
		res, err := Attack(metrics.NewContext(context.Background(), reg), locked, oracle, Options{MaxIterations: budget})
		if budget == 0 && err != nil || budget > 0 && !errors.Is(err, ErrIterationBudget) {
			t.Fatalf("budget %d: %v", budget, err)
		}
		snap := reg.Snapshot()
		h, _ := snap.Histogram("satattack_encode_seconds")
		if want := uint64(res.Iterations + 2); h.Count != want {
			t.Errorf("budget %d: %d DIPs took %d encode observations, want %d", budget, res.Iterations, h.Count, want)
		}
		if _, ok := snap.Deterministic().Histogram("satattack_encode_seconds"); ok {
			t.Error("satattack_encode_seconds is in the deterministic subset")
		}
	}
}
