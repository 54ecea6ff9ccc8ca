// Package cnf translates gate-level circuits into CNF via the Tseitin
// transformation, instantiating circuit copies inside a sat.Solver.
//
// The SAT attack needs several copies of the locked circuit sharing or
// fixing different buses (two key copies over shared inputs for the miter;
// input-constant copies for the distinguishing-I/O constraints), so the
// encoder exposes explicit variable binding per bus.
package cnf

import (
	"fmt"

	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// Encoder instantiates circuits into a solver backend.
type Encoder struct {
	S sat.Backend

	varTrue  int
	varFalse int
	haveK    bool

	lits []sat.Lit // scratch clause handed to S.AddClause; see add
}

// add sends one clause to the backend through the encoder's scratch slice.
// A variadic call through the sat.Backend interface would heap-allocate a
// new literal list for every clause; Backend.AddClause does not retain its
// argument, so one slice serves them all.
func (e *Encoder) add(lits ...sat.Lit) {
	e.lits = append(e.lits[:0], lits...)
	e.S.AddClause(e.lits...)
}

// NewEncoder returns an encoder over a fresh solver of the default backend.
func NewEncoder() *Encoder { return &Encoder{S: sat.NewSolver()} }

// NewEncoderBackend returns an encoder over the given solver backend.
func NewEncoderBackend(b sat.Backend) *Encoder { return &Encoder{S: b} }

// Instance records the solver variables of one circuit copy.
type Instance struct {
	Inputs  []int
	Keys    []int
	Outputs []int

	// gateVars is the per-gate solver variable of this copy, kept so a
	// later EncodeShared call can alias the nets a second key copy has in
	// common with this one.
	gateVars []int
}

// ConstVar returns a solver variable pinned to the given constant.
func (e *Encoder) ConstVar(v bool) int {
	if !e.haveK {
		e.varTrue = e.S.NewVar()
		e.varFalse = e.S.NewVar()
		e.add(sat.NewLit(e.varTrue, false))
		e.add(sat.NewLit(e.varFalse, true))
		e.haveK = true
	}
	if v {
		return e.varTrue
	}
	return e.varFalse
}

// FreshVars allocates n fresh solver variables.
func (e *Encoder) FreshVars(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = e.S.NewVar()
	}
	return vs
}

// ConstVars returns pinned variables for a bit pattern.
func (e *Encoder) ConstVars(bits []bool) []int {
	vs := make([]int, len(bits))
	for i, b := range bits {
		vs[i] = e.ConstVar(b)
	}
	return vs
}

// Encode instantiates circuit c. inputs and keys bind the respective buses
// to existing solver variables; pass nil to allocate fresh ones. The
// returned instance records all three buses.
func (e *Encoder) Encode(c *netlist.Circuit, inputs, keys []int) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if inputs == nil {
		inputs = e.FreshVars(len(c.Inputs))
	}
	if keys == nil {
		keys = e.FreshVars(len(c.Keys))
	}
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("cnf: %d input vars for %d inputs", len(inputs), len(c.Inputs))
	}
	if len(keys) != len(c.Keys) {
		return nil, fmt.Errorf("cnf: %d key vars for %d keys", len(keys), len(c.Keys))
	}
	return e.emit(c, inputs, keys, nil, nil)
}

// EncodeShared instantiates a second key copy of c against prev, a full
// Encode of the same circuit in this encoder. Only the key cone — gates
// whose value can depend on a key bit — is re-encoded on fresh variables
// with a fresh key bus; every net outside the cone aliases prev's variable
// outright. The copies are miter-equivalent to two full Encode calls over a
// shared input bus, but the solver sees the shared logic once, so proving
// the final "no distinguishing input remains" UNSAT no longer requires
// re-deriving the equality of two syntactically disjoint copies of the
// whole datapath.
func (e *Encoder) EncodeShared(c *netlist.Circuit, prev *Instance) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if prev == nil || len(prev.gateVars) != len(c.Gates) {
		return nil, fmt.Errorf("cnf: shared encode against a foreign instance")
	}
	return e.emit(c, prev.Inputs, e.FreshVars(len(c.Keys)), prev, keyCone(c))
}

// emit is the Tseitin gate loop behind every circuit copy: it encodes c over
// the given input and key buses, which the caller has checked. With shared
// nil every gate is encoded. With shared set, only the gates in cone are;
// every other gate aliases shared's variable. A key cone never holds an
// input or constant gate and always holds every key gate, so the bus walks
// below stay aligned in both modes.
func (e *Encoder) emit(c *netlist.Circuit, inputs, keys []int, shared *Instance, cone []bool) (*Instance, error) {
	encoded := func(id int) bool { return shared == nil || cone[id] }
	gateVar := make([]int, len(c.Gates))
	in, key := 0, 0
	pos := func(v int) sat.Lit { return sat.NewLit(v, false) }
	neg := func(v int) sat.Lit { return sat.NewLit(v, true) }

	// Cyclic circuits reference gates that have not been encoded yet: each
	// distinct feedback source gets a variable pinned up front, in Feedback
	// order, so every instance of the circuit allocates its variables in the
	// same order. When the source gate is finally encoded it either *is* the
	// pinned variable (fresh-variable kinds) or is tied to it with
	// equivalence clauses (alias kinds: input/key/const/buf). Only encoded
	// sources need this copy's own pinned variable; a source outside the
	// cone resolves to the shared copy's settled variable.
	var pinned map[int]int
	if len(c.Feedback) > 0 {
		pinned = make(map[int]int, len(c.Feedback))
		for _, fe := range c.Feedback {
			if _, ok := pinned[fe.From]; !ok && encoded(fe.From) {
				pinned[fe.From] = e.S.NewVar()
			}
		}
	}
	// fanin resolves a fan-in reference from gate id: an ordinary (earlier)
	// gate by the variable the loop below gave it, a back-edge by its pinned
	// variable — Validate guarantees any non-topological fan-in is a
	// registered feedback source, so the pinned lookup cannot miss — or, for
	// a source outside the cone, by the shared copy's variable.
	fanin := func(ref, id int) int {
		switch {
		case ref < id:
			return gateVar[ref]
		case encoded(ref):
			return pinned[ref]
		}
		return shared.gateVars[ref]
	}
	// bindPinned ties an alias-encoded gate's variable to its pinned
	// feedback variable.
	bindPinned := func(id int) {
		if pv, ok := pinned[id]; ok && pv != gateVar[id] {
			e.add(neg(pv), pos(gateVar[id]))
			e.add(pos(pv), neg(gateVar[id]))
		}
	}

	for id, g := range c.Gates {
		if !encoded(id) {
			gateVar[id] = shared.gateVars[id]
			continue
		}
		switch g.Kind {
		case netlist.GInput:
			gateVar[id] = inputs[in]
			in++
			bindPinned(id)
			continue
		case netlist.GKey:
			gateVar[id] = keys[key]
			key++
			bindPinned(id)
			continue
		case netlist.GConst:
			gateVar[id] = e.ConstVar(g.Arg)
			bindPinned(id)
			continue
		case netlist.GBuf:
			gateVar[id] = fanin(g.A, id)
			bindPinned(id)
			continue
		}
		y, havePin := pinned[id]
		if !havePin {
			y = e.S.NewVar()
		}
		gateVar[id] = y
		a := fanin(g.A, id)
		switch g.Kind {
		case netlist.GNot:
			e.add(pos(y), pos(a))
			e.add(neg(y), neg(a))
		case netlist.GAnd, netlist.GNand:
			b := fanin(g.B, id)
			yp, yn := pos(y), neg(y)
			if g.Kind == netlist.GNand {
				yp, yn = yn, yp
			}
			e.add(yn, pos(a))
			e.add(yn, pos(b))
			e.add(yp, neg(a), neg(b))
		case netlist.GOr, netlist.GNor:
			b := fanin(g.B, id)
			yp, yn := pos(y), neg(y)
			if g.Kind == netlist.GNor {
				yp, yn = yn, yp
			}
			e.add(yp, neg(a))
			e.add(yp, neg(b))
			e.add(yn, pos(a), pos(b))
		case netlist.GXor, netlist.GXnor:
			b := fanin(g.B, id)
			yp, yn := pos(y), neg(y)
			if g.Kind == netlist.GXnor {
				yp, yn = yn, yp
			}
			e.add(yn, pos(a), pos(b))
			e.add(yn, neg(a), neg(b))
			e.add(yp, pos(a), neg(b))
			e.add(yp, neg(a), pos(b))
		default:
			return nil, fmt.Errorf("cnf: unsupported gate kind %v", g.Kind)
		}
	}

	inst := &Instance{
		Inputs:   inputs,
		Keys:     keys,
		Outputs:  make([]int, len(c.Outputs)),
		gateVars: gateVar,
	}
	for i, o := range c.Outputs {
		inst.Outputs[i] = gateVar[o]
	}
	return inst, nil
}

// keyCone marks every gate whose value can depend on a key input: the
// forward closure of the GKey gates over ordinary fan-in edges and feedback
// back-edges. Back-edges point at later gates, so the sweep iterates to a
// fixed point instead of trusting a single topological pass.
func keyCone(c *netlist.Circuit) []bool {
	dep := make([]bool, len(c.Gates))
	for changed := true; changed; {
		changed = false
		for id, g := range c.Gates {
			if dep[id] {
				continue
			}
			d := false
			switch g.Kind {
			case netlist.GInput, netlist.GConst:
			case netlist.GKey:
				d = true
			case netlist.GNot, netlist.GBuf:
				d = dep[g.A]
			default:
				d = dep[g.A] || dep[g.B]
			}
			if d {
				dep[id] = true
				changed = true
			}
		}
	}
	return dep
}

// FixVar pins an existing solver variable to a constant.
func (e *Encoder) FixVar(v int, val bool) {
	e.add(sat.NewLit(v, !val))
}

// XorVar returns a fresh variable constrained to a XOR b.
func (e *Encoder) XorVar(a, b int) int {
	y := e.S.NewVar()
	e.add(sat.NewLit(y, true), sat.NewLit(a, false), sat.NewLit(b, false))
	e.add(sat.NewLit(y, true), sat.NewLit(a, true), sat.NewLit(b, true))
	e.add(sat.NewLit(y, false), sat.NewLit(a, false), sat.NewLit(b, true))
	e.add(sat.NewLit(y, false), sat.NewLit(a, true), sat.NewLit(b, false))
	return y
}

// CycleClauses conjoins CycSAT cycle-breaking constraints over a key bus:
// for each netlist.CycleClause at least one of its literals
// (keyVars[Key] == Val) must hold, so every satisfying assignment of the
// solver selects an acyclic key configuration. The clauses are permanent
// (unguarded): cyclic wrong keys are never functionally correct, so pruning
// them can only shrink the search.
func (e *Encoder) CycleClauses(keyVars []int, clauses []netlist.CycleClause) error {
	for _, cl := range clauses {
		e.lits = e.lits[:0]
		for _, kl := range cl {
			if kl.Key < 0 || kl.Key >= len(keyVars) {
				return fmt.Errorf("cnf: cycle clause key index %d outside %d-bit key bus",
					kl.Key, len(keyVars))
			}
			e.lits = append(e.lits, sat.NewLit(keyVars[kl.Key], !kl.Val))
		}
		e.S.AddClause(e.lits...)
	}
	return nil
}

// GuardedAtLeastOne allocates a fresh guard variable g and adds the clause
// (¬g ∨ v1 ∨ … ∨ vn): whenever g holds, at least one of the variables must
// be true. Solving under the assumption g activates the constraint; solving
// without it leaves the clause vacuously satisfiable, which is how the
// attack loop keeps one warm miter solver usable for both difference
// finding and plain consistency checks.
func (e *Encoder) GuardedAtLeastOne(vars []int) int {
	g := e.S.NewVar()
	e.lits = append(e.lits[:0], sat.NewLit(g, true))
	for _, v := range vars {
		e.lits = append(e.lits, sat.NewLit(v, false))
	}
	e.S.AddClause(e.lits...)
	return g
}
