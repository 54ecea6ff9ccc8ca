package satattack

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
)

// probeCircuit has n inputs and one output, x[t] AND k. Under the correct
// key (k=1) the output is x[t]; under the wrong key it is 0, so the two
// differ exactly on the patterns with input t set.
func probeCircuit(t *testing.T, n, probe int) *netlist.Circuit {
	t.Helper()
	c := netlist.New(fmt.Sprintf("probe%d_%d", n, probe))
	for i := 0; i < n; i++ {
		c.AddInput()
	}
	k := c.AddKey()
	c.MarkOutput(c.And(c.Inputs[probe], k))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVerifyKeyDrivesEveryInput is the regression test for the strided
// sweep above 16 inputs, which drove only inputs [bits-16, bits) and never
// an input at 64 or above: a key wrong only when input 0 (of 20) or input 70
// (of 80) is set passed verification.
func TestVerifyKeyDrivesEveryInput(t *testing.T) {
	for _, tc := range []struct{ n, probe int }{{20, 0}, {80, 70}} {
		c := probeCircuit(t, tc.n, tc.probe)
		oracle := OracleFromCircuit(c, []bool{true})
		err := VerifyKey(context.Background(), c, []bool{false}, oracle)
		if err == nil {
			t.Fatalf("%d inputs: VerifyKey accepted a key wrong whenever input %d is set", tc.n, tc.probe)
		}
		if tc.n > 64 {
			// Wide patterns print as LSB-first bit strings.
			var pat string
			if _, serr := fmt.Sscanf(err.Error(), "satattack: key wrong at input %s output 0", &pat); serr != nil ||
				len(pat) != tc.n || pat[tc.probe] != '1' {
				t.Fatalf("%d inputs: error %q does not name an %d-bit pattern with bit %d set", tc.n, err, tc.n, tc.probe)
			}
		}
		if err := VerifyKey(context.Background(), c, []bool{true}, oracle); err != nil {
			t.Fatalf("%d inputs: VerifyKey rejected the correct key: %v", tc.n, err)
		}
	}
}

// refVerify is the per-pattern exhaustive sweep VerifyKey is held to on
// circuits of at most 16 inputs: scalar evaluation of the locked side, then
// one oracle query, pattern by pattern. It returns the number of oracle
// queries made and the error.
func refVerify(locked *netlist.Circuit, key []bool, oracle Oracle) (int64, error) {
	n := len(locked.Inputs)
	queries := int64(0)
	for v := uint64(0); v < 1<<uint(n); v++ {
		in := netlist.Uint64ToBits(v, n)
		got, err := locked.Eval(in, key)
		if err != nil {
			return queries, err
		}
		queries++
		want, err := oracle.Query(in)
		if err != nil {
			return queries, fmt.Errorf("satattack: verify key at input %#x: %w", v,
				fmt.Errorf("%w: %d of %d votes failed (last: %v)", ErrOracleUnavailable, 1, 1, err))
		}
		for i := range got {
			if got[i] != want[i] {
				return queries, fmt.Errorf("satattack: key wrong at input %#x output %d", v, i)
			}
		}
	}
	return queries, nil
}

// cyclicKeys locks a 4-bit adder cyclically and finds, over every key, one
// whose per-pattern sweep first fails on a latch and one whose sweep first
// fails on an output mismatch.
func cyclicKeys(t *testing.T) (locked *netlist.Circuit, correct, latching, wrong []bool) {
	t.Helper()
	for seed := int64(1); seed <= 20; seed++ {
		base, err := netlist.NewAdder(4)
		if err != nil {
			t.Fatal(err)
		}
		c, key, err := netlist.LockCyclic(base, 2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle := OracleFromCircuit(c, key)
		latching, wrong = nil, nil
		for v := uint64(0); v < 1<<uint(len(key)); v++ {
			k := netlist.Uint64ToBits(v, len(key))
			_, err := refVerify(c, k, oracle)
			switch {
			case errors.Is(err, netlist.ErrUnstable):
				latching = k
			case err != nil:
				wrong = k
			}
		}
		if latching != nil && wrong != nil {
			return c, key, latching, wrong
		}
	}
	t.Fatal("no seed gives both a latching and a wrong key")
	return
}

// TestVerifyKeyBatchedMatchesPerPattern holds the batched oracle path to the
// per-pattern one: VerifyKey through OracleFromCircuit (64 lanes on both
// sides) and through OracleFunc(OracleFromCircuit(...).Query) (per-pattern
// queries) must give the per-pattern reference's verdict, exact error text
// and retry_* counts — for the correct key, a wrong key, a key that latches
// the locked side, and an oracle that latches.
func TestVerifyKeyBatchedMatchesPerPattern(t *testing.T) {
	locked, correct, latching, wrong := cyclicKeys(t)
	for _, tc := range []struct {
		name      string
		key       []bool
		oracleKey []bool
		wantErr   bool
	}{
		{"correct", correct, correct, false},
		{"wrong", wrong, correct, true},
		{"latching", latching, correct, true},
		{"latching-oracle", correct, latching, true},
	} {
		base := OracleFromCircuit(locked, tc.oracleKey)
		refQueries, refErr := refVerify(locked, tc.key, base)
		if (refErr != nil) != tc.wantErr {
			t.Fatalf("%s: reference verdict %v", tc.name, refErr)
		}
		if tc.name == "latching" && !errors.Is(refErr, netlist.ErrUnstable) {
			t.Fatalf("%s: reference error %v does not wrap ErrUnstable", tc.name, refErr)
		}
		for _, o := range []struct {
			name   string
			oracle Oracle
		}{{"circuit", base}, {"func", OracleFunc(base.Query)}} {
			reg := metrics.New()
			err := VerifyKey(metrics.NewContext(context.Background(), reg), locked, tc.key, o.oracle)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("%s/%s: err %v, reference %v", tc.name, o.name, err, refErr)
			}
			if refErr != nil && errors.Is(refErr, netlist.ErrUnstable) != errors.Is(err, netlist.ErrUnstable) {
				t.Errorf("%s/%s: ErrUnstable wrapping differs from the reference", tc.name, o.name)
			}
			snap := reg.Snapshot()
			for _, name := range []string{"retry_votes_total", "retry_oracle_attempts_total"} {
				if got, _ := snap.Counter(name); got != refQueries {
					t.Errorf("%s/%s: %s = %d, reference %d", tc.name, o.name, name, got, refQueries)
				}
			}
		}
	}
}

// TestVerifyKeyFaultOracleSequence checks that an oracle VerifyKey cannot
// batch sees exactly the per-pattern query sequence, in order, and nothing
// past the first mismatch.
func TestVerifyKeyFaultOracleSequence(t *testing.T) {
	locked, correct, _, wrong := cyclicKeys(t)
	base := OracleFromCircuit(locked, correct)
	var seen []uint64
	rec := OracleFunc(func(in []bool) ([]bool, error) {
		seen = append(seen, netlist.BitsToUint64(in))
		return base.Query(in)
	})
	err := VerifyKey(context.Background(), locked, wrong, rec)
	if err == nil {
		t.Fatal("VerifyKey accepted a wrong key")
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("query %d was pattern %#x, want %#x", i, v, i)
		}
	}
	if want := fmt.Sprintf("input %#x ", len(seen)-1); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the last queried pattern (%s)", err, want)
	}
}

// TestVerifyLanesSteadyStateAllocs pins a warm 64-pattern block of the
// batched sweep — pattern draw, both lane evaluations, comparison and
// counters — at zero heap allocations.
func TestVerifyLanesSteadyStateAllocs(t *testing.T) {
	base, err := netlist.NewAdder(10) // 20 inputs: the drawn-pattern path
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockCyclic(base, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := metrics.NewContext(context.Background(), metrics.New())
	oracle := OracleFromCircuit(locked, key)
	v := newVerifier(ctx, locked, key, oracle, newQuerier(oracle, RetryPolicy{}, 1, 1, metrics.FromContext(ctx)))
	if v.got == nil || v.want == nil {
		t.Fatal("batched sweep not set up on both sides")
	}
	if err := v.block(0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := v.block(1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm block allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkVerifyKeyCyclic times a full 2^16-pattern VerifyKey of a
// cyclically locked 8-bit multiplier under its correct key.
func BenchmarkVerifyKeyCyclic(b *testing.B) {
	base, err := netlist.NewMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	locked, key, err := netlist.LockCyclic(base, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyKey(context.Background(), locked, key, oracle); err != nil {
			b.Fatal(err)
		}
	}
}
