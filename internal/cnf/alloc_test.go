package cnf

import (
	"context"
	"testing"

	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// nopBackend is a sat.Backend that counts variables and clauses and keeps
// nothing, so an allocation count over it measures the encoder alone.
type nopBackend struct{ vars, clauses int }

func (b *nopBackend) NewVar() int                             { b.vars++; return b.vars - 1 }
func (b *nopBackend) AddClause(lits ...sat.Lit) bool          { b.clauses++; return true }
func (b *nopBackend) Solve(ctx context.Context) (bool, error) { return false, nil }
func (b *nopBackend) SolveAssuming(ctx context.Context, assumps ...sat.Lit) (bool, error) {
	return false, nil
}
func (b *nopBackend) FailedAssumptions() []sat.Lit { return nil }
func (b *nopBackend) Value(v int) bool             { panic("nopBackend has no model") }
func (b *nopBackend) ValueErr(v int) (bool, error) { return false, sat.ErrNoModel }
func (b *nopBackend) Err() error                   { return nil }
func (b *nopBackend) Stats() sat.Stats             { return sat.Stats{} }
func (b *nopBackend) NumVars() int                 { return b.vars }
func (b *nopBackend) NumClauses() int              { return b.clauses }
func (b *nopBackend) SetMaxConflicts(n int64)      {}

// TestEncodeAllocs pins that encoding a circuit costs a constant number of
// allocations, not one per clause: every clause reaches the backend through
// the encoder's scratch slice. The circuit is an SFLL-HD(0)-locked width-8
// adder, the attack's largest daemon request, encoded both as a full copy
// and as a cone-shared second key copy.
func TestEncodeAllocs(t *testing.T) {
	base, err := netlist.NewAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	locked, _, err := netlist.LockSFLLHD0(base, []uint64{0xA5C3})
	if err != nil {
		t.Fatal(err)
	}
	b := &nopBackend{}
	e := NewEncoderBackend(b)
	inputs := e.FreshVars(len(locked.Inputs))
	keys := e.FreshVars(len(locked.Keys))
	prev, err := e.Encode(locked, inputs, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		encode func() (*Instance, error)
	}{
		{"Encode", func() (*Instance, error) { return e.Encode(locked, inputs, keys) }},
		{"EncodeShared", func() (*Instance, error) { return e.EncodeShared(locked, prev) }},
	} {
		encode := func() {
			if _, err := tc.encode(); err != nil {
				t.Fatal(err)
			}
		}
		before := b.clauses
		encode()
		perEncode := b.clauses - before
		avg := testing.AllocsPerRun(20, encode)
		t.Logf("%s: %d clauses, %.0f allocations", tc.name, perEncode, avg)
		if avg > 8 {
			t.Errorf("%s of %d clauses allocates %.0f times, want at most 8", tc.name, perEncode, avg)
		}
	}
}
