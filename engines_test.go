package bindlock

import (
	"context"
	"testing"

	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
)

// TestAttackKeyVerifiesOnSFLLAdder completes a full attack on the default
// engine against a small SFLL-locked adder and checks the recovered key
// passes functional verification against the oracle: whatever DIP walk the
// solver takes, the key it lands on must be correct.
func TestAttackKeyVerifiesOnSFLLAdder(t *testing.T) {
	base, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0x6B})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	oracle := satattack.OracleFromCircuit(locked, key)
	res, err := satattack.Attack(ctx, locked, oracle, satattack.Options{})
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	if err := satattack.VerifyKey(ctx, locked, res.Key, oracle); err != nil {
		t.Errorf("recovered key failed verification: %v", err)
	}
	t.Logf("%d iterations", res.Iterations)
}
