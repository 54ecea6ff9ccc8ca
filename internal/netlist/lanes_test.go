package netlist

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Three-valued logic for the scalar reference evaluator: 0, 1, or X.
const (
	tv0 uint8 = 0
	tv1 uint8 = 1
	tvX uint8 = 2
)

// evalCyclicRef is the scalar ternary fixed-point evaluator the 64-lane
// evaluator replaced, kept verbatim as its differential reference: every
// non-source gate starts at X and in-order sweeps refine values until none
// changes; an output still X means the configuration latches or oscillates.
func evalCyclicRef(c *Circuit, inputs, keys []bool) ([]bool, error) {
	vals := make([]uint8, len(c.Gates))
	in, key := 0, 0
	for id, g := range c.Gates {
		switch g.Kind {
		case GInput:
			vals[id] = b2t(inputs[in])
			in++
		case GKey:
			vals[id] = b2t(keys[key])
			key++
		case GConst:
			vals[id] = b2t(g.Arg)
		default:
			vals[id] = tvX
		}
	}
	for pass := 0; pass <= len(c.Gates); pass++ {
		changed := false
		for id, g := range c.Gates {
			if g.Kind.arity() == 0 {
				continue
			}
			var nv uint8
			a := vals[g.A]
			switch g.Kind {
			case GNot:
				nv = tNot(a)
			case GBuf:
				nv = a
			case GAnd:
				nv = tAnd(a, vals[g.B])
			case GOr:
				nv = tOr(a, vals[g.B])
			case GXor:
				nv = tXor(a, vals[g.B])
			case GNand:
				nv = tNot(tAnd(a, vals[g.B]))
			case GNor:
				nv = tNot(tOr(a, vals[g.B]))
			case GXnor:
				nv = tNot(tXor(a, vals[g.B]))
			default:
				return nil, fmt.Errorf("netlist %s: unknown gate kind %v", c.Name, g.Kind)
			}
			if nv != vals[id] {
				vals[id] = nv
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	outs := make([]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		switch vals[id] {
		case tvX:
			return nil, fmt.Errorf("%w: circuit %q output %d undefined under key %#x",
				ErrUnstable, c.Name, i, BitsToUint64(keys))
		case tv1:
			outs[i] = true
		}
	}
	return outs, nil
}

func b2t(v bool) uint8 {
	if v {
		return tv1
	}
	return tv0
}

func tNot(a uint8) uint8 {
	if a == tvX {
		return tvX
	}
	return a ^ 1
}

func tAnd(a, b uint8) uint8 {
	if a == tv0 || b == tv0 {
		return tv0
	}
	if a == tvX || b == tvX {
		return tvX
	}
	return tv1
}

func tOr(a, b uint8) uint8 {
	if a == tv1 || b == tv1 {
		return tv1
	}
	if a == tvX || b == tvX {
		return tvX
	}
	return tv0
}

func tXor(a, b uint8) uint8 {
	if a == tvX || b == tvX {
		return tvX
	}
	return a ^ b
}

// laneBits extracts lane l of a word per bit.
func laneBits(words []uint64, l int) []bool {
	bits := make([]bool, len(words))
	for i, w := range words {
		bits[i] = w>>uint(l)&1 == 1
	}
	return bits
}

// randomWords draws n words of independent random lanes.
func randomWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// checkLanes evaluates 64 random patterns — each lane with its own key — and
// holds every lane to the scalar reference: the ternary reference for cyclic
// circuits, the acyclic Eval otherwise. Scalar Eval, which on a cyclic
// circuit is lane 0 of the evaluator, must agree with the reference too. It
// returns the number of unstable lanes seen.
func checkLanes(t *testing.T, c *Circuit, rng *rand.Rand) int {
	t.Helper()
	e, err := c.NewLaneEval()
	if err != nil {
		t.Fatal(err)
	}
	// A first evaluation on other patterns leaves state behind that the
	// checked one must not see.
	if _, _, err := e.Eval(randomWords(rng, len(c.Inputs)), randomWords(rng, len(c.Keys))); err != nil {
		t.Fatal(err)
	}
	in, keys := randomWords(rng, len(c.Inputs)), randomWords(rng, len(c.Keys))
	outs, unstable, err := e.Eval(in, keys)
	if err != nil {
		t.Fatal(err)
	}
	unstableLanes := 0
	for l := 0; l < 64; l++ {
		li, lk := laneBits(in, l), laneBits(keys, l)
		var want []bool
		if c.HasFeedback() {
			want, err = evalCyclicRef(c, li, lk)
		} else {
			want, err = c.Eval(li, lk)
		}
		got, gerr := c.Eval(li, lk)
		laneUnstable := unstable>>uint(l)&1 == 1
		if errors.Is(err, ErrUnstable) {
			unstableLanes++
			if !laneUnstable {
				t.Fatalf("lane %d: reference unstable (%v), lanes report stable", l, err)
			}
			if gerr == nil || gerr.Error() != err.Error() {
				t.Fatalf("lane %d: scalar Eval err %v, reference %v", l, gerr, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("lane %d: reference: %v", l, err)
		}
		if laneUnstable {
			t.Fatalf("lane %d: lanes report unstable, reference settles to %v", l, want)
		}
		if gerr != nil {
			t.Fatalf("lane %d: scalar Eval: %v", l, gerr)
		}
		for o := range want {
			if lo := outs[o]>>uint(l)&1 == 1; lo != want[o] || got[o] != want[o] {
				t.Fatalf("lane %d output %d: lanes %v scalar %v reference %v", l, o, lo, got[o], want[o])
			}
		}
	}
	return unstableLanes
}

// randomCircuit builds a random DAG of every gate kind over a few inputs and
// keys, with edges random key-conditioned back-edges (which, unlike
// LockCyclic's, need not respect the dead-when-broken contract, so they latch
// and oscillate freely).
func randomCircuit(rng *rand.Rand, gates, edges int) *Circuit {
	c := New("fuzz")
	for i := 0; i < 3; i++ {
		c.AddInput()
	}
	for i := 0; i < edges+1; i++ {
		c.AddKey()
	}
	c.AddConst(rng.Intn(2) == 1)
	firstLogic := len(c.Gates)
	for len(c.Gates) < firstLogic+gates {
		a, b := rng.Intn(len(c.Gates)), rng.Intn(len(c.Gates))
		switch GateKind(int(GNot) + rng.Intn(int(GXnor-GNot)+1)) {
		case GNot:
			c.Not(a)
		case GBuf:
			c.Buf(a)
		case GAnd:
			c.And(a, b)
		case GOr:
			c.Or(a, b)
		case GXor:
			c.Xor(a, b)
		case GNand:
			c.Nand(a, b)
		case GNor:
			c.Nor(a, b)
		case GXnor:
			c.Xnor(a, b)
		}
	}
	for i := 0; i < 3; i++ {
		c.MarkOutput(firstLogic + rng.Intn(gates))
	}
	placed := 0
	for _, id := range rng.Perm(gates) {
		if placed == edges {
			break
		}
		g := firstLogic + id
		pin := rng.Intn(c.Gates[g].Kind.arity())
		c.AddFeedback(g, pin, g+rng.Intn(len(c.Gates)-g), placed, rng.Intn(2) == 1)
		placed++
	}
	return c
}

// TestEvalLanesMatchesScalar runs the lane differential over acyclic and
// cyclic datapaths, including LockCyclic locks whose random keys latch.
func TestEvalLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mul, err := NewMultiplier(3)
	if err != nil {
		t.Fatal(err)
	}
	xor, _, err := LockXOR(mul, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkLanes(t, mul, rng)
	checkLanes(t, xor, rng)
	unstable := 0
	for seed := int64(1); seed <= 6; seed++ {
		add, err := NewAdder(3)
		if err != nil {
			t.Fatal(err)
		}
		cyc, _, err := LockCyclic(add, 3, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		unstable += checkLanes(t, cyc, rng)
		unstable += checkLanes(t, randomCircuit(rng, 20, 3), rng)
	}
	if unstable == 0 {
		t.Fatal("no lane latched: the differential never exercised the unstable mask")
	}
}

// TestLaneEvalSteadyStateAllocs pins a warm 64-lane evaluation of a cyclic
// circuit at zero heap allocations.
func TestLaneEvalSteadyStateAllocs(t *testing.T) {
	add, err := NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _, err := LockCyclic(add, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cyc.NewLaneEval()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in, keys := randomWords(rng, len(cyc.Inputs)), randomWords(rng, len(cyc.Keys))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.Eval(in, keys); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Eval allocates %.1f times, want 0", allocs)
	}
}

// FuzzEvalLanes builds random small circuits — random DAGs with free-form
// back-edges, and LockCyclic locks evaluated under random (mostly wrong)
// keys — and requires every lane of the 64-lane evaluator to match the
// scalar reference, both its outputs and whether it is unstable.
func FuzzEvalLanes(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), false)
	f.Add(int64(2), uint8(20), uint8(3), false)
	f.Add(int64(3), uint8(2), uint8(2), true)
	f.Add(int64(4), uint8(31), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, nGates, nEdges uint8, lockCyclic bool) {
		rng := rand.New(rand.NewSource(seed))
		var c *Circuit
		if lockCyclic {
			base, err := NewAdder(int(nGates)%3 + 1)
			if err != nil {
				t.Fatal(err)
			}
			if c, _, err = LockCyclic(base, int(nEdges)%3+1, int(nEdges)/3%3, seed); err != nil {
				t.Skip("no placement")
			}
		} else {
			c = randomCircuit(rng, int(nGates)%32+2, int(nEdges)%5)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("generated circuit invalid: %v", err)
		}
		checkLanes(t, c, rng)
	})
}
