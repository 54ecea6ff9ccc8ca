package netlist

import "fmt"

// LaneEval evaluates a circuit on 64 input patterns at once in bit-sliced
// form. Input word i holds input i's value in every pattern (bit j = pattern
// j), key words likewise, and each gate's value is one uint64 whose lanes
// are independent scalar evaluations. The scratch planes are allocated once
// and reused, so a warm Eval allocates nothing. An evaluator is not safe for
// concurrent use; build one per goroutine.
//
// An acyclic circuit evaluates in one topological pass. A circuit with
// feedback edges evaluates to a three-valued Kleene fixed point on two
// planes: val holds each lane's value and def marks the lanes whose value is
// defined (val is kept 0 outside def). Every gate starts undefined and
// in-order sweeps repeat until no lane changes; controlling values propagate
// through undefined ones lane-wise — AND(0, X) = 0 — which is how a broken
// feedback arm kills the loop value under the correct key. Lane by lane this
// is exactly the scalar ternary sweep, so each lane reaches the same fixed
// point the scalar evaluator would.
type LaneEval struct {
	c    *Circuit
	val  []uint64 // per gate: lane values
	def  []uint64 // per gate: defined lanes; nil for acyclic circuits
	outs []uint64
}

// NewLaneEval returns a reusable 64-lane evaluator of c.
func (c *Circuit) NewLaneEval() (*LaneEval, error) {
	if c.err != nil {
		return nil, c.err
	}
	e := &LaneEval{
		c:    c,
		val:  make([]uint64, len(c.Gates)),
		outs: make([]uint64, len(c.Outputs)),
	}
	// Constants are sources that no sweep writes, so they are set once.
	for id, g := range c.Gates {
		switch {
		case g.Kind > GXnor:
			return nil, fmt.Errorf("netlist %s: unknown gate kind %v", c.Name, g.Kind)
		case g.Kind == GConst && g.Arg:
			e.val[id] = ^uint64(0)
		}
	}
	if len(c.Feedback) > 0 {
		e.def = make([]uint64, len(c.Gates))
	}
	return e, nil
}

// Eval evaluates the 64 patterns given as input and key words. It returns one
// word per output and the mask of unstable lanes: lanes in which some output
// is still undefined at the fixed point, because that lane's configuration
// latches or oscillates. The output slice is reused by the next Eval.
func (e *LaneEval) Eval(inputs, keys []uint64) (outs []uint64, unstable uint64, err error) {
	c := e.c
	if len(inputs) != len(c.Inputs) {
		return nil, 0, fmt.Errorf("netlist %s: got %d inputs, want %d", c.Name, len(inputs), len(c.Inputs))
	}
	if len(keys) != len(c.Keys) {
		return nil, 0, fmt.Errorf("netlist %s: got %d key bits, want %d", c.Name, len(keys), len(c.Keys))
	}
	val := e.val
	for i, id := range c.Inputs {
		val[id] = inputs[i]
	}
	for i, id := range c.Keys {
		val[id] = keys[i]
	}
	if e.def == nil {
		e.acyclic()
		for i, id := range c.Outputs {
			e.outs[i] = val[id]
		}
		return e.outs, 0, nil
	}
	e.fixedPoint()
	for i, id := range c.Outputs {
		e.outs[i] = val[id]
		unstable |= ^e.def[id]
	}
	return e.outs, unstable, nil
}

// acyclic is the single topological pass over the value plane.
func (e *LaneEval) acyclic() {
	val := e.val
	for id, g := range e.c.Gates {
		switch g.Kind {
		case GNot:
			val[id] = ^val[g.A]
		case GBuf:
			val[id] = val[g.A]
		case GAnd:
			val[id] = val[g.A] & val[g.B]
		case GOr:
			val[id] = val[g.A] | val[g.B]
		case GXor:
			val[id] = val[g.A] ^ val[g.B]
		case GNand:
			val[id] = ^(val[g.A] & val[g.B])
		case GNor:
			val[id] = ^(val[g.A] | val[g.B])
		case GXnor:
			val[id] = ^(val[g.A] ^ val[g.B])
		}
	}
}

// fixedPoint runs the two-plane ternary sweeps. Refinement is monotone —
// undefined lanes may become defined, defined lanes never change — so the
// iteration settles within one sweep per gate.
func (e *LaneEval) fixedPoint() {
	val, def := e.val, e.def
	for id, g := range e.c.Gates {
		if g.Kind.arity() == 0 {
			def[id] = ^uint64(0)
		} else {
			val[id], def[id] = 0, 0
		}
	}
	for pass := 0; pass <= len(e.c.Gates); pass++ {
		changed := false
		for id, g := range e.c.Gates {
			var v, d uint64
			switch g.Kind {
			case GInput, GKey, GConst:
				continue
			case GNot, GBuf:
				v, d = val[g.A], def[g.A]
			case GAnd, GNand:
				va, vb := val[g.A], val[g.B]
				v = va & vb
				d = v | def[g.A]&^va | def[g.B]&^vb
			case GOr, GNor:
				va, vb := val[g.A], val[g.B]
				v = va | vb
				d = v | def[g.A]&^va&def[g.B]&^vb
			case GXor, GXnor:
				d = def[g.A] & def[g.B]
				v = (val[g.A] ^ val[g.B]) & d
			}
			switch g.Kind {
			case GNot, GNand, GNor, GXnor:
				v = ^v & d
			}
			if v != val[id] || d != def[id] {
				val[id], def[id] = v, d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// evalLane0 is the scalar Eval of a cyclic circuit: lane 0 of a LaneEval.
func (c *Circuit) evalLane0(inputs, keys []bool) ([]bool, error) {
	e, err := c.NewLaneEval()
	if err != nil {
		return nil, err
	}
	outs, unstable, err := e.Eval(boolWords(inputs), boolWords(keys))
	if err != nil {
		return nil, err
	}
	if unstable&1 != 0 {
		for i, id := range c.Outputs {
			if e.def[id]&1 == 0 {
				return nil, fmt.Errorf("%w: circuit %q output %d undefined under key %#x",
					ErrUnstable, c.Name, i, BitsToUint64(keys))
			}
		}
	}
	res := make([]bool, len(outs))
	for i, w := range outs {
		res[i] = w&1 == 1
	}
	return res, nil
}

// boolWords places bits in lane 0 of one word each.
func boolWords(bits []bool) []uint64 {
	w := make([]uint64, len(bits))
	for i, b := range bits {
		if b {
			w[i] = 1
		}
	}
	return w
}
