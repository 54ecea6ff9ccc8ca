package cnf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// streamBackend is a nopBackend that hashes the exact sequence of NewVar and
// AddClause calls it receives: two encoders that feed a solver the same
// stream leave the same digest, and any change to variable order, clause
// order or literal order changes it.
type streamBackend struct {
	nopBackend
	h   hash.Hash
	buf []byte
}

func (b *streamBackend) NewVar() int {
	b.h.Write([]byte{'v'})
	return b.nopBackend.NewVar()
}

func (b *streamBackend) AddClause(lits ...sat.Lit) bool {
	b.buf = binary.AppendUvarint(append(b.buf[:0], 'c'), uint64(len(lits)))
	for _, l := range lits {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(l))
	}
	b.h.Write(b.buf)
	return b.nopBackend.AddClause(lits...)
}

// bus folds an instance's three buses into the digest, so a copy that sends
// the same clauses but hands the attack different output variables fails too.
func (b *streamBackend) bus(inst *Instance) {
	for _, vs := range [][]int{inst.Inputs, inst.Keys, inst.Outputs} {
		b.buf = binary.AppendUvarint(append(b.buf[:0], 'b'), uint64(len(vs)))
		for _, v := range vs {
			b.buf = binary.AppendUvarint(b.buf, uint64(v))
		}
		b.h.Write(b.buf)
	}
}

// aliasLatch is latchCircuit with its feedback read through a buffer: the
// back-edge source is an alias-kind gate, so every copy ties the source's
// pinned variable to its fan-in with equivalence clauses.
func aliasLatch(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("alias-latch")
	x := c.AddInput()
	k := c.AddKey()
	fb := c.And(k, x)
	w := c.Buf(c.Or(x, fb))
	c.MarkOutput(w)
	c.AddFeedback(fb, 1, w, 0, true)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEncodeClauseStreamPinned pins the exact variable and clause stream of
// every circuit copy the SAT attack encodes, step by step in one encoder:
// the first key copy (Encode), a second full copy over the same inputs, a
// cone-shared copy (EncodeShared), and a constant-input DIP copy over each
// of the two key buses. The digests were recorded before Encode and
// EncodeShared shared one gate emitter; a refactor of the encoder must keep
// every one, or the attacks' DIPs, keys and transcripts move with it.
func TestEncodeClauseStreamPinned(t *testing.T) {
	adder, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	mult, err := netlist.NewMultiplier(3)
	if err != nil {
		t.Fatal(err)
	}
	sfll, _, err := netlist.LockSFLLHD0(adder, []uint64{0x5A})
	if err != nil {
		t.Fatal(err)
	}
	cycAdd, _, err := netlist.LockCyclic(adder, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cycMul, _, err := netlist.LockCyclic(mult, 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c *netlist.Circuit
		// full, second, shared and dip digests (first 16 hex digits).
		want [4]string
	}{
		{sfll, [4]string{"037efb1e4af2a485", "b565a326ff5ed65f", "b51146e73519c49c", "6c6d756d405416f2"}},
		{cycAdd, [4]string{"414d6b3f91e47f51", "b32d50519151e00d", "afd2c0e130c232cf", "03ccfef0e0eb3445"}},
		{cycMul, [4]string{"8ab89be6523edfbe", "6257a68f26a13206", "b9a51ea531254ac1", "4deb024bde784bdc"}},
		{aliasLatch(t), [4]string{"0d5d20eb289a0bff", "a79cf0e0ee6a6ea5", "c50faf96d46989ae", "6d77f3e7b1438fdd"}},
	}
	steps := [4]string{"full", "second", "shared", "dip"}
	for _, tc := range cases {
		b := &streamBackend{h: sha256.New()}
		e := NewEncoderBackend(b)
		var got [4]string
		step := func(i int) {
			got[i] = hex.EncodeToString(b.h.Sum(nil))[:16]
			b.h.Reset()
		}
		full, err := e.Encode(tc.c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.bus(full)
		step(0)
		second, err := e.Encode(tc.c, full.Inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.bus(second)
		step(1)
		shared, err := e.EncodeShared(tc.c, full)
		if err != nil {
			t.Fatal(err)
		}
		b.bus(shared)
		step(2)
		dip := make([]bool, len(tc.c.Inputs))
		for i := range dip {
			dip[i] = i%3 != 1
		}
		in := e.ConstVars(dip)
		for _, keys := range [][]int{full.Keys, shared.Keys} {
			ci, err := e.Encode(tc.c, in, keys)
			if err != nil {
				t.Fatal(err)
			}
			b.bus(ci)
		}
		step(3)
		t.Logf("%s: %d vars, %d clauses, digests %q", tc.c.Name, b.vars, b.clauses, got)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: %s copy stream digest %s, pinned %s", tc.c.Name, steps[i], got[i], tc.want[i])
			}
		}
	}
}
