package satattack

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"bindlock/internal/interrupt"
	"bindlock/internal/netlist"
	"bindlock/internal/sat"
)

// lockedAdder builds an SFLL-HD0-locked ripple-carry adder for backend
// plumbing tests.
func lockedAdder(t *testing.T, width int) (*netlist.Circuit, []bool) {
	t.Helper()
	base, err := netlist.NewAdder(width)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{0b010110})
	if err != nil {
		t.Fatal(err)
	}
	return locked, key
}

// countingBackend wraps a real backend and records what was configured on
// it, so the option-plumbing tests can see through the factory.
type countingBackend struct {
	sat.Backend
	maxConflicts int64
}

func (c *countingBackend) SetMaxConflicts(n int64) {
	c.maxConflicts = n
	c.Backend.SetMaxConflicts(n)
}

// TestResolveBackendDefaults: with neither Solver nor Backend set, the
// attack solves on the default engine and labels its transcript with the
// default's name, so the checkpoint resumes under an explicit "cdcl" too.
func TestResolveBackendDefaults(t *testing.T) {
	locked, key := lockedAdder(t, 3)
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if _, err := Attack(context.Background(), locked, OracleFromCircuit(locked, key),
		Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Solver != sat.DefaultBackend {
		t.Fatalf("checkpoint solver = %q, want default %q", cp.Solver, sat.DefaultBackend)
	}
}

func TestResolveBackendUnknownName(t *testing.T) {
	locked, key := lockedAdder(t, 3)
	_, err := Attack(context.Background(), locked, OracleFromCircuit(locked, key),
		Options{Solver: "no-such-engine"})
	if err == nil {
		t.Fatal("unknown backend name resolved without error")
	}
	if errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded) {
		t.Fatalf("unknown backend reported as an interruption: %v", err)
	}
}

// TestResolveBackendAppliesMaxConflicts pins the Options.MaxConflicts
// propagation: every solver the attack builds from an explicit Backend —
// the miter and the key extractor — must carry the per-call conflict bound.
func TestResolveBackendAppliesMaxConflicts(t *testing.T) {
	var built []*countingBackend
	explicit := func() sat.Backend {
		b := &countingBackend{Backend: sat.NewSolver()}
		built = append(built, b)
		return b
	}
	locked, key := lockedAdder(t, 3)
	const bound = 1 << 20
	if _, err := Attack(context.Background(), locked, OracleFromCircuit(locked, key),
		Options{Backend: explicit, MaxConflicts: bound}); err != nil {
		t.Fatal(err)
	}
	if len(built) != 2 {
		t.Fatalf("explicit factory built %d backends, want 2 (miter and key solver)", len(built))
	}
	for i, b := range built {
		if b.maxConflicts != bound {
			t.Fatalf("backend %d has maxConflicts %d, want %d", i, b.maxConflicts, bound)
		}
	}
}

// TestAttackMaxConflictsBudget drives the propagation end to end: a conflict
// budget far too small for the miter must surface as a typed budget error
// from the attack, not an infinite solve.
func TestAttackMaxConflictsBudget(t *testing.T) {
	locked, key := lockedAdder(t, 3)
	oracle := OracleFromCircuit(locked, key)
	res, err := Attack(context.Background(), locked, oracle, Options{MaxConflicts: 1})
	if err == nil {
		t.Fatalf("attack with a 1-conflict budget succeeded after %d iterations", res.Iterations)
	}
	if !errors.Is(err, interrupt.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
}
