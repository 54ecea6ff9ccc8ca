// Package netlist provides gate-level combinational circuits: the substrate
// on which logic locking is physically realised and SAT-attacked.
//
// The paper's architectural algorithms reason about locked FUs abstractly;
// validating their SAT-resilience claims (Eqn. 1, Sec. II-A) requires real
// locked netlists and a real SAT attack. This package synthesises the FU
// datapaths (ripple-carry adders, array multipliers), inserts locking
// structures (XOR key gates, SFLL-HD functionality stripping and restore,
// keyed routing networks), and evaluates circuits for use as attack oracles.
package netlist

import (
	"errors"
	"fmt"
)

// ErrConstruction reports that a builder call referenced a gate that does
// not exist. The builder is sticky: the first bad reference is recorded,
// every later call becomes a no-op returning -1, and the error surfaces
// from Err, Validate, and Eval — so generator code can chain builder calls
// without checking each one and still never ship a malformed circuit.
var ErrConstruction = errors.New("netlist: malformed construction")

// ErrUnstable reports a cyclic circuit configuration that did not settle: the
// key-conditioned feedback left at least one output oscillating or latching,
// so the circuit has no unique combinational value for that input/key pair.
// Wrong keys of cyclic locking schemes are *designed* to trigger this; the
// evaluator detects it deterministically (three-valued fixed point) instead
// of looping forever.
var ErrUnstable = errors.New("netlist: combinational feedback did not settle")

// GateKind enumerates gate types. Input and Key are sources; all others
// combine fan-ins.
type GateKind uint8

// Gate kinds.
const (
	GInput GateKind = iota // primary input
	GKey                   // key input
	GConst                 // constant (value in Arg)
	GNot                   // 1 fan-in
	GBuf                   // 1 fan-in
	GAnd
	GOr
	GXor
	GNand
	GNor
	GXnor
)

var gateNames = [...]string{
	GInput: "input", GKey: "key", GConst: "const", GNot: "not", GBuf: "buf",
	GAnd: "and", GOr: "or", GXor: "xor", GNand: "nand", GNor: "nor", GXnor: "xnor",
}

func (k GateKind) String() string {
	if int(k) < len(gateNames) {
		return gateNames[k]
	}
	return fmt.Sprintf("gate(%d)", uint8(k))
}

// arity returns the fan-in count of a gate kind.
func (k GateKind) arity() int {
	switch k {
	case GInput, GKey, GConst:
		return 0
	case GNot, GBuf:
		return 1
	default:
		return 2
	}
}

// Gate is one node of the circuit. Fan-ins reference earlier gates
// (topological order is an invariant maintained by the builder).
type Gate struct {
	Kind GateKind
	A, B int  // fan-ins; -1 when unused
	Arg  bool // constant value for GConst
}

// FeedbackEdge registers one key-conditioned back-edge: fan-in Pin of gate
// Gate reads the output of the LATER gate From, breaking the topological
// invariant on purpose. Key indexes the circuit's key bus; the edge is
// considered structurally live exactly when keys[Key] == Arm.
//
// Contract (maintained by LockCyclic, assumed by CycleConstraints and the
// evaluator): whenever keys[Key] != Arm the consuming gate's output must not
// depend on the rewired fan-in — in the MUX construction the back-edge feeds
// an AND whose other input is forced to 0 by the key, so the broken edge is
// dead combinationally, not just conceptually.
type FeedbackEdge struct {
	Gate int  // consuming gate id
	Pin  int  // 0 = fan-in A, 1 = fan-in B
	From int  // source gate id, >= Gate
	Key  int  // index into Keys (bus position, not gate id)
	Arm  bool // key value under which the edge is live
}

// Circuit is a combinational netlist with designated primary inputs, key
// inputs and outputs.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // gate ids, in bus order
	Keys    []int
	Outputs []int
	// Feedback lists the registered key-conditioned back-edges of a cyclic
	// circuit (SRCLock-style locking). Empty for ordinary acyclic netlists,
	// which keep the single-pass evaluator and the strict topological
	// Validate invariant.
	Feedback []FeedbackEdge

	// err records the first builder misuse (ErrConstruction); once set,
	// builder calls are no-ops and Validate/Eval refuse the circuit.
	err error
}

// New returns an empty circuit.
func New(name string) *Circuit { return &Circuit{Name: name} }

func (c *Circuit) add(g Gate) int {
	if c.err != nil {
		return -1
	}
	n := g.Kind.arity()
	if n >= 1 {
		if !c.ref(g.A) {
			return -1
		}
	} else {
		g.A = -1
	}
	if n == 2 {
		if !c.ref(g.B) {
			return -1
		}
	} else {
		g.B = -1
	}
	c.Gates = append(c.Gates, g)
	return len(c.Gates) - 1
}

// ref checks a fan-in reference, recording the first violation as the
// circuit's sticky construction error.
func (c *Circuit) ref(id int) bool {
	if id < 0 || id >= len(c.Gates) {
		c.err = fmt.Errorf("%w: circuit %q fan-in %d out of range (have %d gates)",
			ErrConstruction, c.Name, id, len(c.Gates))
		return false
	}
	return true
}

// Err returns the first builder misuse recorded on the circuit, or nil.
// errors.Is(err, ErrConstruction) matches it.
func (c *Circuit) Err() error { return c.err }

// AddInput appends a primary input and returns its gate id.
func (c *Circuit) AddInput() int {
	id := c.add(Gate{Kind: GInput})
	c.Inputs = append(c.Inputs, id)
	return id
}

// AddKey appends a key input and returns its gate id.
func (c *Circuit) AddKey() int {
	id := c.add(Gate{Kind: GKey})
	c.Keys = append(c.Keys, id)
	return id
}

// AddConst appends a constant gate.
func (c *Circuit) AddConst(v bool) int { return c.add(Gate{Kind: GConst, Arg: v}) }

// Not appends an inverter on a.
func (c *Circuit) Not(a int) int { return c.add(Gate{Kind: GNot, A: a}) }

// Buf appends a buffer on a.
func (c *Circuit) Buf(a int) int { return c.add(Gate{Kind: GBuf, A: a}) }

// And appends an AND gate.
func (c *Circuit) And(a, b int) int { return c.add(Gate{Kind: GAnd, A: a, B: b}) }

// Or appends an OR gate.
func (c *Circuit) Or(a, b int) int { return c.add(Gate{Kind: GOr, A: a, B: b}) }

// Xor appends an XOR gate.
func (c *Circuit) Xor(a, b int) int { return c.add(Gate{Kind: GXor, A: a, B: b}) }

// Nand appends a NAND gate.
func (c *Circuit) Nand(a, b int) int { return c.add(Gate{Kind: GNand, A: a, B: b}) }

// Nor appends a NOR gate.
func (c *Circuit) Nor(a, b int) int { return c.add(Gate{Kind: GNor, A: a, B: b}) }

// Xnor appends an XNOR gate.
func (c *Circuit) Xnor(a, b int) int { return c.add(Gate{Kind: GXnor, A: a, B: b}) }

// Mux appends sel ? hi : lo as three gates.
func (c *Circuit) Mux(sel, lo, hi int) int {
	notSel := c.Not(sel)
	return c.Or(c.And(sel, hi), c.And(notSel, lo))
}

// AddFeedback rewires fan-in pin (0=A, 1=B) of gate to read from a gate at
// or after it in topological order, registering the back-edge as conditioned
// on key bit key (bus index) being equal to arm. Misuse — out-of-range ids,
// a forward "feedback" that an ordinary edge could express, a pin the gate
// does not have, or a second feedback on the same pin — records the sticky
// construction error, mirroring the rest of the builder.
func (c *Circuit) AddFeedback(gate, pin, from, key int, arm bool) {
	if c.err != nil {
		return
	}
	fail := func(format string, args ...any) {
		c.err = fmt.Errorf("%w: circuit %q "+format,
			append([]any{ErrConstruction, c.Name}, args...)...)
	}
	if gate < 0 || gate >= len(c.Gates) {
		fail("feedback gate %d out of range", gate)
		return
	}
	if from < gate || from >= len(c.Gates) {
		fail("feedback source %d invalid for gate %d (want %d <= from < %d)",
			from, gate, gate, len(c.Gates))
		return
	}
	if key < 0 || key >= len(c.Keys) {
		fail("feedback key index %d out of range (have %d keys)", key, len(c.Keys))
		return
	}
	g := &c.Gates[gate]
	if pin < 0 || pin >= g.Kind.arity() {
		fail("feedback pin %d invalid for %v gate %d", pin, g.Kind, gate)
		return
	}
	for _, fe := range c.Feedback {
		if fe.Gate == gate && fe.Pin == pin {
			fail("duplicate feedback on gate %d pin %d", gate, pin)
			return
		}
	}
	if pin == 0 {
		g.A = from
	} else {
		g.B = from
	}
	c.Feedback = append(c.Feedback, FeedbackEdge{Gate: gate, Pin: pin, From: from, Key: key, Arm: arm})
}

// HasFeedback reports whether the circuit carries registered back-edges
// (i.e. is a cyclic netlist needing the fixed-point evaluator).
func (c *Circuit) HasFeedback() bool { return len(c.Feedback) > 0 }

// MarkOutput designates gate id as the next primary output.
func (c *Circuit) MarkOutput(id int) {
	if c.err != nil || !c.ref(id) {
		return
	}
	c.Outputs = append(c.Outputs, id)
}

// NumGates returns the total gate count (including sources).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// LogicGates returns the count of combinational gates (excluding sources),
// the "area" figure used in overhead reporting.
func (c *Circuit) LogicGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind.arity() > 0 {
			n++
		}
	}
	return n
}

// Eval computes the outputs for the given input and key assignments. An
// acyclic circuit evaluates in a single topological pass; a circuit with
// registered feedback edges evaluates to a three-valued fixed point and
// returns ErrUnstable when the configuration oscillates or latches instead
// of settling; it is lane 0 of the 64-lane evaluator (see LaneEval).
func (c *Circuit) Eval(inputs, keys []bool) ([]bool, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("netlist %s: got %d inputs, want %d", c.Name, len(inputs), len(c.Inputs))
	}
	if len(keys) != len(c.Keys) {
		return nil, fmt.Errorf("netlist %s: got %d key bits, want %d", c.Name, len(keys), len(c.Keys))
	}
	if len(c.Feedback) > 0 {
		return c.evalLane0(inputs, keys)
	}
	vals := make([]bool, len(c.Gates))
	in, key := 0, 0
	for id, g := range c.Gates {
		switch g.Kind {
		case GInput:
			vals[id] = inputs[in]
			in++
		case GKey:
			vals[id] = keys[key]
			key++
		case GConst:
			vals[id] = g.Arg
		case GNot:
			vals[id] = !vals[g.A]
		case GBuf:
			vals[id] = vals[g.A]
		case GAnd:
			vals[id] = vals[g.A] && vals[g.B]
		case GOr:
			vals[id] = vals[g.A] || vals[g.B]
		case GXor:
			vals[id] = vals[g.A] != vals[g.B]
		case GNand:
			vals[id] = !(vals[g.A] && vals[g.B])
		case GNor:
			vals[id] = !(vals[g.A] || vals[g.B])
		case GXnor:
			vals[id] = vals[g.A] == vals[g.B]
		default:
			return nil, fmt.Errorf("netlist %s: unknown gate kind %v", c.Name, g.Kind)
		}
	}
	outs := make([]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		outs[i] = vals[id]
	}
	return outs, nil
}

// Validate checks structural invariants: topological fan-in order (except
// for registered feedback edges), source bookkeeping consistency, feedback
// registration consistency, and output references. A circuit whose builder
// recorded a construction error fails validation with that error.
func (c *Circuit) Validate() error {
	if c.err != nil {
		return c.err
	}
	// Registered back-edges, keyed by (gate, pin); Validate exempts exactly
	// these from the topological invariant and checks they match the wiring.
	type pinRef struct{ gate, pin int }
	var back map[pinRef]FeedbackEdge
	if len(c.Feedback) > 0 {
		back = make(map[pinRef]FeedbackEdge, len(c.Feedback))
		for _, fe := range c.Feedback {
			if fe.Gate < 0 || fe.Gate >= len(c.Gates) || fe.From < fe.Gate || fe.From >= len(c.Gates) {
				return fmt.Errorf("netlist %s: feedback edge %+v out of range", c.Name, fe)
			}
			if fe.Key < 0 || fe.Key >= len(c.Keys) {
				return fmt.Errorf("netlist %s: feedback edge %+v key index out of range", c.Name, fe)
			}
			if fe.Pin < 0 || fe.Pin >= c.Gates[fe.Gate].Kind.arity() {
				return fmt.Errorf("netlist %s: feedback edge %+v pin invalid", c.Name, fe)
			}
			ref := pinRef{fe.Gate, fe.Pin}
			if _, dup := back[ref]; dup {
				return fmt.Errorf("netlist %s: duplicate feedback on gate %d pin %d", c.Name, fe.Gate, fe.Pin)
			}
			got := c.Gates[fe.Gate].A
			if fe.Pin == 1 {
				got = c.Gates[fe.Gate].B
			}
			if got != fe.From {
				return fmt.Errorf("netlist %s: feedback edge %+v disagrees with wiring (fan-in is %d)",
					c.Name, fe, got)
			}
			back[ref] = fe
		}
	}
	in, key := 0, 0
	for id, g := range c.Gates {
		n := g.Kind.arity()
		if n >= 1 && (g.A < 0 || g.A >= id) {
			if _, ok := back[pinRef{id, 0}]; !ok {
				return fmt.Errorf("netlist %s: gate %d fan-in A=%d not topological", c.Name, id, g.A)
			}
			if g.A < 0 || g.A >= len(c.Gates) {
				return fmt.Errorf("netlist %s: gate %d fan-in A=%d out of range", c.Name, id, g.A)
			}
		}
		if n == 2 && (g.B < 0 || g.B >= id) {
			if _, ok := back[pinRef{id, 1}]; !ok {
				return fmt.Errorf("netlist %s: gate %d fan-in B=%d not topological", c.Name, id, g.B)
			}
			if g.B < 0 || g.B >= len(c.Gates) {
				return fmt.Errorf("netlist %s: gate %d fan-in B=%d out of range", c.Name, id, g.B)
			}
		}
		switch g.Kind {
		case GInput:
			if in >= len(c.Inputs) || c.Inputs[in] != id {
				return fmt.Errorf("netlist %s: input bookkeeping broken at gate %d", c.Name, id)
			}
			in++
		case GKey:
			if key >= len(c.Keys) || c.Keys[key] != id {
				return fmt.Errorf("netlist %s: key bookkeeping broken at gate %d", c.Name, id)
			}
			key++
		}
	}
	if in != len(c.Inputs) || key != len(c.Keys) {
		return fmt.Errorf("netlist %s: source bookkeeping counts wrong", c.Name)
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("netlist %s: no outputs", c.Name)
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Gates) {
			return fmt.Errorf("netlist %s: output %d out of range", c.Name, o)
		}
	}
	return nil
}

// Uint64ToBits expands the low n bits of v, LSB first.
func Uint64ToBits(v uint64, n int) []bool {
	bits := make([]bool, n)
	for i := 0; i < n; i++ {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}

// BitsToUint64 packs bits (LSB first) into an integer.
func BitsToUint64(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
