package satattack

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"bindlock/internal/netlist"
)

// latchCircuit builds the minimal cyclic locked circuit w = x OR (k AND w):
// the correct key k=0 breaks the loop (identity function), the wrong key
// k=1 closes a latch whose CNF has two fixed points at x=0 — the exact
// structure that makes the acyclic-miter SAT attack spin.
func latchCircuit(t *testing.T) (*netlist.Circuit, []bool) {
	t.Helper()
	c := netlist.New("latch")
	x := c.AddInput()
	k := c.AddKey()
	fb := c.And(k, x)
	w := c.Or(x, fb)
	c.MarkOutput(w)
	c.AddFeedback(fb, 1, w, 0, true)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c, []bool{false}
}

// TestUnconstrainedAttackDivergesOnLatch demonstrates the motivating failure
// mode: without cycle-breaking constraints the miter keeps re-finding the
// same DIP — each iteration's fresh constraint instance admits the latch's
// other fixed point — and the attack burns its whole iteration budget.
func TestUnconstrainedAttackDivergesOnLatch(t *testing.T) {
	locked, key := latchCircuit(t)
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{MaxIterations: 8})
	if err == nil {
		// A terminating run would have to produce a correct key; prove it
		// did not.
		if verr := VerifyKey(context.Background(), locked, res.Key, oracle); verr == nil {
			t.Fatal("unconstrained attack succeeded on a cyclic circuit")
		}
		return
	}
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("error = %v, want ErrIterationBudget", err)
	}
	if res == nil || res.Iterations != 8 {
		t.Fatalf("partial result = %+v, want 8 burned iterations", res)
	}
}

// TestCycSATRecoversLatchKey checks the constrained attack on the same
// circuit: the constraints collapse the key space to the acyclic half, the
// miter is immediately UNSAT and the extracted key verifies.
func TestCycSATRecoversLatchKey(t *testing.T) {
	locked, key := latchCircuit(t)
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{CycleBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatalf("recovered key wrong: %v", err)
	}
}

// TestCycSATRecoversCyclicAdderKeys runs the CycSAT-constrained attack on
// cyclically locked adders (feedback cycles plus functional decoys, so the
// DIP loop does real work) and requires every recovered key to verify. The
// attack is deterministic, so each case also pins its recovered key bits and
// DIP count; a deliberate change to the encoding or the search re-pins them
// together with the root package's cycsatTranscriptPins.
func TestCycSATRecoversCyclicAdderKeys(t *testing.T) {
	for _, tc := range []struct {
		width    int
		seed     int64
		wantKey  string
		wantDIPs int
	}{
		{width: 3, seed: 1, wantKey: "1110", wantDIPs: 2},
		{width: 3, seed: 2, wantKey: "0110", wantDIPs: 1},
		{width: 3, seed: 3, wantKey: "0000", wantDIPs: 3},
		{width: 3, seed: 4, wantKey: "0010", wantDIPs: 1},
		{width: 4, seed: 1, wantKey: "0000", wantDIPs: 1},
	} {
		base, err := netlist.NewAdder(tc.width)
		if err != nil {
			t.Fatal(err)
		}
		locked, key, err := netlist.LockCyclic(base, 2, 2, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle := OracleFromCircuit(locked, key)
		res, err := Attack(context.Background(), locked, oracle, Options{CycleBreak: true})
		if err != nil {
			t.Fatalf("width %d seed %d: %v", tc.width, tc.seed, err)
		}
		if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
			t.Fatalf("width %d seed %d: %v", tc.width, tc.seed, err)
		}
		if got := bitsToString(res.Key); got != tc.wantKey || res.Iterations != tc.wantDIPs {
			t.Errorf("width %d seed %d: recovered key %s after %d DIPs, pinned %s after %d",
				tc.width, tc.seed, got, res.Iterations, tc.wantKey, tc.wantDIPs)
		}
	}
}

// TestCheckpointCycleBreakMismatch checks a transcript recorded under one
// cycle-constraint mode never resumes under the other.
func TestCheckpointCycleBreakMismatch(t *testing.T) {
	base, err := netlist.NewAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint only exists once the DIP loop has run; scan seeds for a
	// lock whose decoys force at least one distinguishing input.
	var locked *netlist.Circuit
	var key []bool
	var oracle Oracle
	path := filepath.Join(t.TempDir(), "cyclic.ckpt")
	for seed := int64(1); ; seed++ {
		if seed > 32 {
			t.Fatal("no seed in 1..32 produced a DIP-requiring cyclic lock")
		}
		locked, key, err = netlist.LockCyclic(base, 1, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle = OracleFromCircuit(locked, key)
		res, err := Attack(context.Background(), locked, oracle,
			Options{CycleBreak: true, CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 0 {
			break
		}
	}
	cp, err := LoadCheckpoint(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.CycleBreak {
		t.Fatal("checkpoint does not record cycle_break")
	}
	_, err = Attack(context.Background(), locked, oracle, Options{Resume: cp})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("cross-mode resume error = %v, want ErrCheckpointMismatch", err)
	}
	// Same mode resumes cleanly.
	res, err := Attack(context.Background(), locked, oracle,
		Options{CycleBreak: true, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Fatal(err)
	}
}
