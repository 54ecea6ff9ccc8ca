package bindlock

import (
	"context"
	"fmt"
	"testing"

	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
)

// TestAttackKeyVerifiesOnSFLLAdder completes full attacks on the default
// engine against small SFLL-HD(0)-locked adders and checks each recovered
// key passes functional verification against the oracle. The exact attack
// is deterministic, so each case also pins its recovered key bits and DIP
// count: a change to the encoding, the solver's search or the DIP loop moves
// them and must be re-pinned deliberately, together with sfllTranscriptPins.
func TestAttackKeyVerifiesOnSFLLAdder(t *testing.T) {
	for _, tc := range []struct {
		width    int
		secret   uint64
		wantKey  string
		wantDIPs int
	}{
		{width: 4, secret: 0x6B, wantKey: "11010110", wantDIPs: 253},
		{width: 3, secret: 21, wantKey: "101010", wantDIPs: 52},
		{width: 4, secret: 85, wantKey: "10101010", wantDIPs: 185},
	} {
		t.Run(fmt.Sprintf("w%d-s%d", tc.width, tc.secret), func(t *testing.T) {
			base, err := netlist.NewAdder(tc.width)
			if err != nil {
				t.Fatal(err)
			}
			locked, key, err := netlist.LockSFLLHD0(base, []uint64{tc.secret})
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
			if got := bitString(res.Key); got != tc.wantKey || res.Iterations != tc.wantDIPs {
				t.Errorf("recovered key %s after %d DIPs, pinned %s after %d",
					got, res.Iterations, tc.wantKey, tc.wantDIPs)
			}
		})
	}
}
