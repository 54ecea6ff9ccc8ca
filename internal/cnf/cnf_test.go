package cnf

import (
	"context"
	"testing"
	"testing/quick"

	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// TestEncodeMatchesEval checks Tseitin correctness: for every gate kind, a
// circuit's CNF encoding under pinned inputs must force the outputs the
// evaluator computes.
func TestEncodeMatchesEval(t *testing.T) {
	c := netlist.New("gates")
	a := c.AddInput()
	b := c.AddInput()
	c.MarkOutput(c.And(a, b))
	c.MarkOutput(c.Or(a, b))
	c.MarkOutput(c.Xor(a, b))
	c.MarkOutput(c.Nand(a, b))
	c.MarkOutput(c.Nor(a, b))
	c.MarkOutput(c.Xnor(a, b))
	c.MarkOutput(c.Not(a))
	c.MarkOutput(c.Buf(b))
	c.MarkOutput(c.Mux(a, b, c.Not(b)))
	c.MarkOutput(c.AddConst(true))

	for v := uint64(0); v < 4; v++ {
		in := netlist.Uint64ToBits(v, 2)
		want, err := c.Eval(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEncoder()
		inst, err := e.Encode(c, e.ConstVars(in), nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := e.S.Solve(context.Background())
		if err != nil || !ok {
			t.Fatalf("input %#x: solve = %v %v", v, ok, err)
		}
		for i, ov := range inst.Outputs {
			if e.S.Value(ov) != want[i] {
				t.Errorf("input %#x output %d: cnf %v, eval %v", v, i, e.S.Value(ov), want[i])
			}
		}
	}
}

// Property: for random operand pairs, the adder/multiplier encodings agree
// with direct evaluation.
func TestEncodeArithmeticQuick(t *testing.T) {
	add, err := netlist.NewAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := netlist.NewMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		for _, c := range []*netlist.Circuit{add, mul} {
			n := len(c.Inputs)
			in := netlist.Uint64ToBits(uint64(raw)&(1<<uint(n)-1), n)
			want, err := c.Eval(in, nil)
			if err != nil {
				return false
			}
			e := NewEncoder()
			inst, err := e.Encode(c, e.ConstVars(in), nil)
			if err != nil {
				return false
			}
			ok, err := e.S.Solve(context.Background())
			if err != nil || !ok {
				return false
			}
			for i, ov := range inst.Outputs {
				if e.S.Value(ov) != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEncodeForcedOutputRecoverInputs(t *testing.T) {
	// Pin the adder's output to a constant and solve for inputs: the model
	// must be a preimage.
	add, _ := netlist.NewAdder(4)
	e := NewEncoder()
	inst, err := e.Encode(add, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := netlist.Uint64ToBits(9, 4)
	for i, ov := range inst.Outputs {
		e.FixVar(ov, target[i])
	}
	ok, err := e.S.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("solve = %v %v", ok, err)
	}
	in := make([]bool, 8)
	for i, v := range inst.Inputs {
		in[i] = e.S.Value(v)
	}
	got, err := add.Eval(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if netlist.BitsToUint64(got) != 9 {
		t.Fatalf("preimage evaluates to %d, want 9", netlist.BitsToUint64(got))
	}
}

func TestSharedBusEncoding(t *testing.T) {
	// Two adder copies over the same input variables must always agree.
	add, _ := netlist.NewAdder(3)
	e := NewEncoder()
	i1, err := e.Encode(add, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := e.Encode(add, i1.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Assert some output differs: must be UNSAT.
	diffs := make([]int, len(i1.Outputs))
	for i := range diffs {
		diffs[i] = e.XorVar(i1.Outputs[i], i2.Outputs[i])
	}
	g := e.GuardedAtLeastOne(diffs)
	ok, err := e.S.SolveAssuming(context.Background(), sat.NewLit(g, false))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("identical circuit copies cannot differ")
	}
}

func TestEncodeBindingArityErrors(t *testing.T) {
	add, _ := netlist.NewAdder(2)
	e := NewEncoder()
	if _, err := e.Encode(add, []int{0}, nil); err == nil {
		t.Error("wrong input bus arity must error")
	}
	locked, _, _ := netlist.LockXOR(add, 2, 1)
	if _, err := e.Encode(locked, nil, []int{0}); err == nil {
		t.Error("wrong key bus arity must error")
	}
}

func TestConstVarStable(t *testing.T) {
	e := NewEncoder()
	t1 := e.ConstVar(true)
	t2 := e.ConstVar(true)
	f1 := e.ConstVar(false)
	if t1 != t2 || t1 == f1 {
		t.Fatal("ConstVar must cache per polarity")
	}
	ok, err := e.S.Solve(context.Background())
	if err != nil || !ok {
		t.Fatal("constants alone must be SAT")
	}
	if !e.S.Value(t1) || e.S.Value(f1) {
		t.Fatal("constants pinned wrong")
	}
}

func TestXorVarTruthTable(t *testing.T) {
	for v := 0; v < 4; v++ {
		e := NewEncoder()
		a := e.ConstVar(v&1 == 1)
		b := e.ConstVar(v&2 == 2)
		y := e.XorVar(a, b)
		ok, err := e.S.Solve(context.Background())
		if err != nil || !ok {
			t.Fatal(err)
		}
		want := (v&1 == 1) != (v&2 == 2)
		if e.S.Value(y) != want {
			t.Errorf("xor(%d) = %v, want %v", v, e.S.Value(y), want)
		}
	}
}

// latchCircuit builds w = x OR (k AND w) with the AND's B pin registered as
// a feedback edge armed by k=1: the minimal cyclic locked circuit.
func latchCircuit(t *testing.T) *netlist.Circuit {
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
	return c
}

// TestEncodeCyclicFixedPoints checks the Tseitin encoding of a cyclic
// circuit admits exactly the circuit's fixed points: under the armed key
// both latch values are models, under the broken key the output is forced.
func TestEncodeCyclicFixedPoints(t *testing.T) {
	solve := func(x, k, out bool) bool {
		e := NewEncoder()
		inst, err := e.Encode(latchCircuit(t), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.FixVar(inst.Inputs[0], x)
		e.FixVar(inst.Keys[0], k)
		e.FixVar(inst.Outputs[0], out)
		ok, err := e.S.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// Armed latch at x=0: w = w, both fixed points satisfiable.
	if !solve(false, true, false) || !solve(false, true, true) {
		t.Fatal("armed latch should admit both fixed points at x=0")
	}
	// Broken key: w = x exactly.
	if solve(false, false, true) || solve(true, false, false) {
		t.Fatal("broken key must force w = x")
	}
	if !solve(false, false, false) || !solve(true, false, true) {
		t.Fatal("broken key lost the functional fixed point")
	}
	// Armed with controlling input x=1: w forced to 1 despite the loop.
	if solve(true, true, false) || !solve(true, true, true) {
		t.Fatal("controlling input must collapse the armed loop")
	}
}

// TestCycleClausesRestrictKeys checks the conjoined constraints exclude the
// cycle-closing key assignment.
func TestCycleClausesRestrictKeys(t *testing.T) {
	c := latchCircuit(t)
	clauses, err := c.CycleConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) == 0 {
		t.Fatal("latch produced no cycle constraints")
	}
	e := NewEncoder()
	inst, err := e.Encode(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CycleClauses(inst.Keys, clauses); err != nil {
		t.Fatal(err)
	}
	e.FixVar(inst.Keys[0], true) // the armed (cyclic) choice
	ok, err := e.S.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cycle clauses failed to exclude the armed key")
	}
	// Out-of-range clause indices are rejected.
	if err := e.CycleClauses(nil, clauses); err == nil {
		t.Fatal("want error for clause over an empty key bus")
	}
}
