package satattack

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// TestDaemonAttackSearchPinned pins the whole CDCL search of three
// daemon-sized attacks: width-4 SFLL-HD(0) adders under cold secrets the
// daemon-mix benchmark serves. Beyond the DIPs and the key, it pins each
// solver's decision, propagation and conflict counters, so a solver change
// that keeps the answers but reorders the search (a different branching
// tie-break, a heap that drops or reorders entries) fails here, in a
// sub-second test that also runs under -race.
func TestDaemonAttackSearchPinned(t *testing.T) {
	for _, tc := range []struct {
		secret uint64
		dips   int
		digest string // first 8 bytes of the sha256 of the DIPs, one bit string a line
		key    string
		// stats holds "decisions/propagations/conflicts" of each solver
		// the attack built, in creation order: the miter, then the key
		// extractor.
		stats []string
	}{
		{secret: 6, dips: 153, digest: "f776dffa4539dbd2", key: "01100000",
			stats: []string{"2413/662650/583", "0/7201/0"}},
		{secret: 40, dips: 96, digest: "905620fc3444319d", key: "00010100",
			stats: []string{"1268/251508/278", "0/4522/0"}},
		{secret: 80, dips: 159, digest: "7e2b44b771745eeb", key: "00001010",
			stats: []string{"1844/655913/431", "0/7483/0"}},
	} {
		t.Run(fmt.Sprintf("s%d", tc.secret), func(t *testing.T) {
			base, err := netlist.NewAdder(4)
			if err != nil {
				t.Fatal(err)
			}
			locked, correct, err := netlist.LockSFLLHD0(base, []uint64{tc.secret})
			if err != nil {
				t.Fatal(err)
			}
			var solvers []*sat.Solver
			factory := func() sat.Backend {
				s := sat.NewSolver()
				solvers = append(solvers, s)
				return s
			}
			ctx := context.Background()
			oracle := OracleFromCircuit(locked, correct)
			// A width-4 lock has 256 keys, so no correct attack needs more
			// DIPs; the bound turns a solver that reports unfinished
			// searches as models into a failure instead of a runaway.
			res, err := Attack(ctx, locked, oracle, Options{Backend: factory, MaxIterations: 256})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyKey(ctx, locked, res.Key, oracle); err != nil {
				t.Fatalf("recovered key fails verification: %v", err)
			}
			var dips strings.Builder
			for _, d := range res.DIPs {
				dips.WriteString(bitsToString(d))
				dips.WriteByte('\n')
			}
			sum := sha256.Sum256([]byte(dips.String()))
			digest := hex.EncodeToString(sum[:8])
			var stats []string
			for _, s := range solvers {
				st := s.Stats()
				stats = append(stats, fmt.Sprintf("%d/%d/%d", st.Decisions, st.Propagations, st.Conflicts))
			}
			got := fmt.Sprintf("%d DIPs %s, key %s, solvers %q", res.Iterations, digest, bitsToString(res.Key), stats)
			want := fmt.Sprintf("%d DIPs %s, key %s, solvers %q", tc.dips, tc.digest, tc.key, tc.stats)
			if got != want {
				t.Errorf("search\n got %s\nwant %s", got, want)
			}
		})
	}
}
