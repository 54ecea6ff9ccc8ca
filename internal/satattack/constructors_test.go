package satattack

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestWrongKeysBehaveAsSchemePromises checks every key of the 3-bit adder
// locks on all 64 inputs against what each scheme promises a wrong key does.
//
// SFLL-HD(h) flips the output wherever exactly one of HD(x, s) = h (the
// perturb unit on the protected pattern s) and HD(x, k) = h (the restore
// unit on the key k) holds, so a key corrupts the adder exactly there.
//
// A cyclic wrong key either cannot settle on some input, and then closes a
// structural cycle, or settles everywhere and corrupts the adder or not. The
// last case is real: key 0xF of this lock (correct key 0x7) arms a feedback
// edge yet settles to the adder's function on every input.
func TestWrongKeysBehaveAsSchemePromises(t *testing.T) {
	add3, err := netlist.NewAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	n := len(add3.Inputs)
	// each calls f with every input pattern and the adder's output on it.
	each := func(f func(x uint64, in, want []bool)) {
		for x := uint64(0); x < 1<<uint(n); x++ {
			in := netlist.Uint64ToBits(x, n)
			want, err := add3.Eval(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			f(x, in, want)
		}
	}

	type sfllLock struct {
		name   string
		s      uint64 // protected pattern
		h      int
		locked *netlist.Circuit
	}
	hd0, _, err := netlist.LockSFLLHD0(add3, []uint64{0b101101})
	if err != nil {
		t.Fatal(err)
	}
	sfll := []sfllLock{{"LockSFLLHD0", 0b101101, 0, hd0}}
	for h := 0; h <= 2; h++ {
		hd, _, err := netlist.LockSFLLHD(add3, 0b011010, h)
		if err != nil {
			t.Fatal(err)
		}
		sfll = append(sfll, sfllLock{fmt.Sprintf("LockSFLLHD h=%d", h), 0b011010, h, hd})
	}
	for _, l := range sfll {
		for k := uint64(0); k < 1<<uint(len(l.locked.Keys)); k++ {
			key := netlist.Uint64ToBits(k, len(l.locked.Keys))
			each(func(x uint64, in, want []bool) {
				got, err := l.locked.Eval(in, key)
				if err != nil {
					t.Fatal(err)
				}
				promised := (netlist.HammingDistance(x, l.s) == l.h) != (netlist.HammingDistance(x, k) == l.h)
				if equalBits(got, want) == promised {
					t.Fatalf("%s: key %#x on input %#x corrupts %v, want %v", l.name, k, x, !promised, promised)
				}
			})
		}
	}

	locked, correct, err := netlist.LockCyclic(add3, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var unstable, corrupting, equivalent []uint64
	for k := uint64(0); k < 1<<uint(len(locked.Keys)); k++ {
		if k == netlist.BitsToUint64(correct) {
			continue
		}
		key := netlist.Uint64ToBits(k, len(locked.Keys))
		settles, corrupts := true, false
		each(func(_ uint64, in, want []bool) {
			got, err := locked.Eval(in, key)
			switch {
			case errors.Is(err, netlist.ErrUnstable):
				settles = false
			case err != nil:
				t.Fatal(err)
			case !equalBits(got, want):
				corrupts = true
			}
		})
		switch {
		case !settles:
			if !locked.CyclicUnder(key) {
				t.Errorf("LockCyclic: key %#x does not settle yet closes no structural cycle", k)
			}
			unstable = append(unstable, k)
		case corrupts:
			corrupting = append(corrupting, k)
		default:
			equivalent = append(equivalent, k)
		}
	}
	if got := netlist.BitsToUint64(correct); got != 0x7 {
		t.Fatalf("LockCyclic: correct key %#x, want 0x7", got)
	}
	if len(unstable) != 4 || len(corrupting) != 10 || !slices.Equal(equivalent, []uint64{0xF}) {
		t.Fatalf("LockCyclic wrong keys: %d unstable, %d corrupting, equivalent %#x; want 4, 10 and [0xf]",
			len(unstable), len(corrupting), equivalent)
	}
	if !locked.CyclicUnder(netlist.Uint64ToBits(0xF, len(locked.Keys))) {
		t.Error("LockCyclic: equivalent wrong key 0xf closes no structural cycle")
	}
}
