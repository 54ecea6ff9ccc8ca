package satattack

import (
	"context"
	"testing"

	"bindlock/internal/netlist"
)

// TestAttackEveryLockConstructor attacks each of the six gate-level lock
// constructors at small widths, with the unlocked base circuit as the
// oracle. The correct key must reproduce the base function, and the
// recovered key must pass VerifyKey, which checks every input pattern at
// these widths. The cyclic row runs with CycleBreak, the path that encodes
// the second miter copy with cnf.EncodeShared.
func TestAttackEveryLockConstructor(t *testing.T) {
	adder := func(w int) *netlist.Circuit {
		c, err := netlist.NewAdder(w)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	add2, add3 := adder(2), adder(3)
	cases := []struct {
		name       string
		base       *netlist.Circuit
		lock       func(base *netlist.Circuit) (*netlist.Circuit, []bool, error)
		cycleBreak bool
	}{
		{"LockXOR", add3, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockXOR(b, 8, 3)
		}, false},
		{"LockSFLLHD0", add3, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockSFLLHD0(b, []uint64{0b101101})
		}, false},
		{"LockSFLLHD", add3, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockSFLLHD(b, 0b011010, 1)
		}, false},
		// The routing network needs a power-of-two input count.
		{"LockRouting", add2, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockRouting(b, 1)
		}, false},
		{"LockAntiSAT", add3, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockAntiSAT(b, 1)
		}, false},
		{"LockCyclic", add3, func(b *netlist.Circuit) (*netlist.Circuit, []bool, error) {
			return netlist.LockCyclic(b, 2, 2, 1)
		}, true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			locked, key, err := tc.lock(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			oracle := OracleFromCircuit(tc.base, nil)
			if err := VerifyKey(ctx, locked, key, oracle); err != nil {
				t.Fatalf("correct key does not give the base function: %v", err)
			}
			res, err := Attack(ctx, locked, oracle, Options{CycleBreak: tc.cycleBreak})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyKey(ctx, locked, res.Key, oracle); err != nil {
				t.Fatalf("recovered key after %d DIPs: %v", res.Iterations, err)
			}
			t.Logf("%d key bits, %d DIPs", len(locked.Keys), res.Iterations)
		})
	}
}
