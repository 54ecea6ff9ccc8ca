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
// adder, the attack's largest daemon request.
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
	encode := func() {
		if _, err := e.Encode(locked, inputs, keys); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	before := b.clauses
	encode()
	perEncode := b.clauses - before
	avg := testing.AllocsPerRun(20, encode)
	t.Logf("Encode: %d clauses, %.0f allocations", perEncode, avg)
	if avg > 8 {
		t.Errorf("Encode of %d clauses allocates %.0f times, want at most 8", perEncode, avg)
	}
}
