package sat

// This file defines the solver seam of the attack stack. Everything above
// the CNF layer — the Tseitin encoder, the SAT attack's miter loop, the
// facade and the serving layer — programs against Backend, not against the
// concrete CDCL struct, so alternative engines (the bundled DPLL reference
// solver, or a future external solver binding) plug in behind a name instead
// of forking the attack loop. Named construction matters beyond dependency
// injection: the server folds the backend name into its cache fingerprints,
// and attack checkpoints record it, so results computed by one engine are
// never served or resumed under another.

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Backend is the solver interface the CNF and attack layers program against.
// Implementations must be deterministic: the same sequence of NewVar /
// AddClause / Solve / SolveAssuming calls yields the same models, the same
// failed-assumption sets and the same Stats, which is what the repository's
// bit-identical-results guarantee rests on.
type Backend interface {
	// NewVar allocates a fresh variable and returns its index.
	NewVar() int
	// AddClause adds a clause at the top level (between solve calls). It
	// returns false if the formula became trivially unsatisfiable. A literal
	// over an unallocated variable records a sticky error surfaced by the
	// next solve call (see Err). It does not retain lits, so callers may
	// reuse one slice for every clause.
	AddClause(lits ...Lit) bool
	// Solve searches for a model of the clause set.
	Solve(ctx context.Context) (bool, error)
	// SolveAssuming searches for a model under temporary assumption
	// literals. Assumptions act as scoped decisions, not clauses: they are
	// retracted when the call returns, and anything learned during the call
	// remains valid for later calls. (false, nil) under assumptions means
	// unsatisfiable with them; FailedAssumptions then reports a subset of
	// the assumptions responsible, and the solver stays usable.
	SolveAssuming(ctx context.Context, assumps ...Lit) (bool, error)
	// FailedAssumptions returns the failed-assumption subset of the most
	// recent SolveAssuming call that returned (false, nil), in the polarity
	// the assumptions were passed; nil after any other outcome.
	FailedAssumptions() []Lit
	// Value returns variable v's value in the most recent model; it may
	// panic without one. ValueErr is the non-panicking boundary form. A
	// model lasts until the next NewVar, AddClause or solve call, and only
	// a solve call that returns true makes a new one.
	Value(v int) bool
	ValueErr(v int) (bool, error)
	// Err returns the sticky boundary error recorded by AddClause, or nil.
	Err() error
	// Stats snapshots the search counters.
	Stats() Stats
	// NumVars and NumClauses report formula size for telemetry.
	NumVars() int
	NumClauses() int
	// SetMaxConflicts bounds the search effort of each subsequent solve
	// call (0: the backend default). The budget is per call, not
	// cumulative, so a long-lived solver does not start later calls
	// part-exhausted.
	SetMaxConflicts(n int64)
}

// Factory constructs a fresh Backend. The attack layer takes factories, not
// instances, because one attack builds several solvers (miter and key
// extraction) that must come from the same engine.
type Factory func() Backend

// DefaultBackend is the backend name used when none is requested.
const DefaultBackend = "cdcl"

var (
	backendMu  sync.RWMutex
	backendReg = map[string]Factory{}
)

func init() {
	MustRegisterBackend("cdcl", func() Backend { return NewSolver() })
	MustRegisterBackend("dpll", func() Backend { return NewDPLL() })
}

// RegisterBackend makes a named backend available to BackendFactory. It
// fails on an empty name, a nil factory, or a name already taken — silently
// replacing an engine would let cached results and checkpoints recorded
// under the name disagree with fresh runs.
func RegisterBackend(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("sat: backend name is empty")
	}
	if f == nil {
		return fmt.Errorf("sat: backend %q has a nil factory", name)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendReg[name]; dup {
		return fmt.Errorf("sat: backend %q already registered", name)
	}
	backendReg[name] = f
	return nil
}

// MustRegisterBackend is RegisterBackend for init-time registration.
func MustRegisterBackend(name string, f Factory) {
	if err := RegisterBackend(name, f); err != nil {
		panic(err)
	}
}

// BackendFactory resolves a backend name ("" means DefaultBackend) to its
// factory.
func BackendFactory(name string) (Factory, error) {
	if name == "" {
		name = DefaultBackend
	}
	backendMu.RLock()
	f, ok := backendReg[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sat: unknown solver backend %q (have %v)", name, Backends())
	}
	return f, nil
}

// NewBackend constructs a fresh solver from a backend name ("" means
// DefaultBackend).
func NewBackend(name string) (Backend, error) {
	f, err := BackendFactory(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendReg))
	for n := range backendReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
