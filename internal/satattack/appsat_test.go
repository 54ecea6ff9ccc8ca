package satattack

import (
	"context"
	"errors"
	"testing"

	"bindlock/internal/fault"
	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
)

func TestApproxAttackExactOnXOR(t *testing.T) {
	// High-corruption XOR locking: the approximate attack converges
	// exactly well within a small budget.
	base, _ := netlist.NewAdder(4)
	locked, key, err := netlist.LockXOR(base, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	res, err := ApproxAttack(context.Background(), locked, oracle, ApproxOptions{MaxIterations: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("XOR locking not solved exactly within budget (%d iterations)", res.Iterations)
	}
	if res.EstErrorRate != 0 {
		t.Fatalf("exact key has error rate %v", res.EstErrorRate)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatal(err)
	}
}

// TestApproxEstimateInterruptedRate pins the error-rate denominator of an
// interrupted estimation: the rate covers exactly the samples compared. The
// DIP budget is the exact attack's DIP count, so the candidate key is
// correct; the oracle then complements every estimation answer, making each
// sample wrong, and cancels the context on the 512th, so the run stops at
// the 512-sample check with 512 of 512 samples wrong.
func TestApproxEstimateInterruptedRate(t *testing.T) {
	base, _ := netlist.NewAdder(4)
	locked, key, err := netlist.LockXOR(base, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := OracleFromCircuit(locked, key)
	exact, err := Attack(context.Background(), locked, truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := exact.Iterations
	const sampled = 512
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	oracle := OracleFunc(func(in []bool) ([]bool, error) {
		calls++
		out, err := truth.Query(in)
		if err != nil || calls <= budget {
			return out, err
		}
		for i := range out {
			out[i] = !out[i]
		}
		if calls == budget+sampled {
			cancel()
		}
		return out, nil
	})
	res, err := ApproxAttack(ctx, locked, oracle, ApproxOptions{MaxIterations: budget, Seed: 1})
	if !errors.Is(err, interrupt.ErrCancelled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if res == nil {
		t.Fatal("interrupted estimation returned no partial result")
	}
	if res.Iterations != budget || res.Exact {
		t.Fatalf("iterations %d exact %v, want the full budget of %d, approximate", res.Iterations, res.Exact, budget)
	}
	if calls != budget+sampled {
		t.Fatalf("oracle answered %d queries, want %d", calls, budget+sampled)
	}
	if res.EstErrorRate != 1 {
		t.Fatalf("EstErrorRate = %v, want exactly 1 (%d of %d samples wrong)", res.EstErrorRate, sampled, sampled)
	}
}

func TestApproxAttackOnSFLL(t *testing.T) {
	// Critical-minterm locking: with a tiny DIP budget the attack returns
	// an approximate key with near-zero error rate — yet the protected
	// minterm typically remains corrupted, which is the property the
	// paper's binding co-design weaponises.
	base, _ := netlist.NewAdder(4) // 8-bit input space, 8-bit key
	secret := uint64(0b10110101)
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{secret})
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	res, err := ApproxAttack(context.Background(), locked, oracle, ApproxOptions{MaxIterations: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Skip("attack converged exactly within 8 DIPs; elimination order hit the secret")
	}
	if res.Iterations != 8 {
		t.Fatalf("iterations = %d, want the full budget", res.Iterations)
	}
	// Low overall error: at most the two corrupted minterms out of 256,
	// so the sampled rate must be tiny.
	if res.EstErrorRate > 0.05 {
		t.Fatalf("approximate key error rate %v, want near zero", res.EstErrorRate)
	}
	// The approximate key must NOT be the correct key (the miter still had
	// DIPs), so the protected minterm stays corrupted.
	if netlist.BitsToUint64(res.Key) == secret {
		t.Fatal("budgeted attack returned the exact secret despite remaining DIPs")
	}
	in := netlist.Uint64ToBits(secret, 8)
	got, err := locked.Eval(in, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(in)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range got {
		if got[i] != want[i] {
			same = false
		}
	}
	if same {
		t.Fatal("protected minterm not corrupted under the approximate key")
	}
}

func TestApproxAttackRejectsUnlocked(t *testing.T) {
	base, _ := netlist.NewAdder(2)
	if _, err := ApproxAttack(context.Background(), base, OracleFromCircuit(base, nil), ApproxOptions{}); err == nil {
		t.Fatal("unlocked circuit must be rejected")
	}
}

func TestApproxAttackDefaults(t *testing.T) {
	base, _ := netlist.NewAdder(2)
	locked, key, err := netlist.LockXOR(base, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproxAttack(context.Background(), locked, OracleFromCircuit(locked, key), ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// TestApproxAttackFailPointPlanKeepsOracle pins that a fault plan without
// oracle faults leaves the attack's oracle alone: under a fail-point-only
// plan no query is counted as a faultable oracle call, the in-process oracle
// keeps its 64-lane path, and the approximate attack returns the no-plan
// result.
func TestApproxAttackFailPointPlanKeepsOracle(t *testing.T) {
	base, _ := netlist.NewAdder(8)
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{12345})
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	plan := fault.Plan{FailEvery: map[string]uint64{"sim.run": 1000}}
	if _, ok := faultyOracle(fault.New(plan), oracle).(circuitOracle); !ok {
		t.Error("a fail-point-only plan wrapped the in-process oracle, hiding its 64-lane path")
	}
	run := func(inj *fault.Injector) (*ApproxResult, metrics.Snapshot) {
		reg := metrics.New()
		ctx := metrics.NewContext(context.Background(), reg)
		if inj != nil {
			ctx = fault.NewContext(ctx, inj.WithRegistry(reg))
		}
		res, err := ApproxAttack(ctx, locked, oracle, ApproxOptions{MaxIterations: 4, Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	want, _ := run(nil)
	got, snap := run(fault.New(plan))
	if n, _ := snap.Counter("fault_oracle_calls_total"); n != 0 {
		t.Errorf("fault_oracle_calls_total = %d under a fail-point-only plan, want 0", n)
	}
	if got.EstErrorRate != want.EstErrorRate || got.Iterations != want.Iterations ||
		netlist.BitsToUint64(got.Key) != netlist.BitsToUint64(want.Key) {
		t.Errorf("under the plan: %d DIPs, key %#x, est err %v; without it: %d DIPs, key %#x, est err %v",
			got.Iterations, netlist.BitsToUint64(got.Key), got.EstErrorRate,
			want.Iterations, netlist.BitsToUint64(want.Key), want.EstErrorRate)
	}
}
