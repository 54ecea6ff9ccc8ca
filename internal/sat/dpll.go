package sat

// This file is the second solver engine behind the Backend seam: a plain
// DPLL solver — unit propagation by clause scanning, chronological
// backtracking, no clause learning, no heuristics beyond first-unassigned
// branching with false-first phase. It exists for two reasons. As a
// reference engine it is simple enough to audit, so the fuzz harness
// cross-checks the CDCL solver's SAT/UNSAT verdicts against it. As a second
// registered backend it proves the seam: the attack stack, the cache
// fingerprints and the checkpoint format all carry a backend name end to
// end. It is exponentially slower than CDCL on hard instances — use it for
// small jobs and differential testing, not SFLL keyspaces.

import (
	"context"
	"fmt"

	"bindlock/internal/interrupt"
)

// DPLL is a backtracking SAT solver implementing Backend. The zero value is
// not usable; call NewDPLL.
type DPLL struct {
	nvars   int
	clauses [][]Lit

	assign []int8 // per var; rebuilt each solve call
	trail  []Lit
	// levels[i] describes decision level i+1: the trail index of its
	// decision and whether the false-first phase was already flipped.
	// Assumption levels are never flipped — exhausting them means
	// unsatisfiable under the assumptions.
	levels []dpllLevel

	ok     bool
	err    error
	failed []Lit
	model  []bool

	maxConflicts int64
	stats        Stats
}

type dpllLevel struct {
	at      int
	flipped bool
}

// NewDPLL returns an empty DPLL solver.
func NewDPLL() *DPLL {
	return &DPLL{ok: true}
}

// NewVar allocates a fresh variable and returns its index.
func (d *DPLL) NewVar() int {
	v := d.nvars
	d.nvars++
	d.model = nil
	return v
}

// NumVars returns the number of variables created so far.
func (d *DPLL) NumVars() int { return d.nvars }

// NumClauses returns the number of clauses added so far.
func (d *DPLL) NumClauses() int { return len(d.clauses) }

// SetMaxConflicts bounds each solve call's backtrack budget
// (0: DefaultMaxConflicts).
func (d *DPLL) SetMaxConflicts(n int64) { d.maxConflicts = n }

// Stats snapshots the search counters.
func (d *DPLL) Stats() Stats { return d.stats }

// Err returns the sticky boundary error recorded by AddClause, or nil.
func (d *DPLL) Err() error { return d.err }

// AddClause adds a clause, with the same boundary semantics as the CDCL
// solver: a literal over an unallocated variable records a sticky
// ErrUnknownVariable (the clause is dropped and the next solve call returns
// the error), an empty clause marks the formula unsatisfiable, and the
// return value reports whether the formula is still possibly satisfiable.
func (d *DPLL) AddClause(lits ...Lit) bool {
	d.model = nil
	if d.err != nil {
		return true
	}
	if !d.ok {
		return false
	}
	clause := make([]Lit, 0, len(lits))
	seen := map[Lit]bool{}
	for _, l := range lits {
		if l.Var() < 0 || l.Var() >= d.nvars {
			d.err = fmt.Errorf("%w: literal %v (have %d vars)", ErrUnknownVariable, l, d.nvars)
			return true
		}
		switch {
		case seen[l.Neg()]:
			return true // tautological
		case seen[l]:
			continue
		default:
			seen[l] = true
			clause = append(clause, l)
		}
	}
	if len(clause) == 0 {
		d.ok = false
		return false
	}
	d.clauses = append(d.clauses, clause)
	return true
}

func (d *DPLL) valueLit(l Lit) int8 {
	v := d.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		return -v
	}
	return v
}

func (d *DPLL) set(l Lit) {
	if l.Sign() {
		d.assign[l.Var()] = lFalse
	} else {
		d.assign[l.Var()] = lTrue
	}
	d.trail = append(d.trail, l)
}

// propagate scans all clauses to a fixpoint, asserting unit clauses. It
// returns false on a conflict (some clause has every literal false).
func (d *DPLL) propagate() bool {
	for changed := true; changed; {
		changed = false
		for _, clause := range d.clauses {
			unassigned := LitUndef
			n := 0
			sat := false
			for _, l := range clause {
				switch d.valueLit(l) {
				case lTrue:
					sat = true
				case lUndef:
					unassigned = l
					n++
				}
				if sat {
					break
				}
			}
			if sat {
				continue
			}
			switch n {
			case 0:
				return false // every literal false: conflict
			case 1:
				d.set(unassigned)
				d.stats.Propagations++
				changed = true
			}
		}
	}
	return true
}

// backtrack undoes decision levels until one with an unflipped non-assumption
// decision remains, flips it, and returns true. Exhausting the stack — or
// reaching an assumption level, which must not be flipped — means the search
// space under the assumptions is empty.
func (d *DPLL) backtrack(nAssumps int) bool {
	for len(d.levels) > nAssumps {
		top := &d.levels[len(d.levels)-1]
		decision := d.trail[top.at]
		for i := len(d.trail) - 1; i >= top.at; i-- {
			d.assign[d.trail[i].Var()] = lUndef
		}
		d.trail = d.trail[:top.at]
		if !top.flipped {
			top.flipped = true
			d.set(decision.Neg())
			return true
		}
		d.levels = d.levels[:len(d.levels)-1]
	}
	return false
}

// Solve searches for a model; see SolveAssuming.
func (d *DPLL) Solve(ctx context.Context) (bool, error) {
	return d.SolveAssuming(ctx)
}

// SolveAssuming searches for a model under the given assumptions. The
// engine has no clause learning, so unsatisfiability under assumptions
// reports the whole assumption set as failed (a sound over-approximation of
// the minimal core the CDCL backend extracts). Interruption mirrors the
// CDCL solver: context errors and the per-call conflict budget surface as
// interrupt-typed errors carrying a Stats snapshot.
func (d *DPLL) SolveAssuming(ctx context.Context, assumps ...Lit) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.failed = nil
	d.model = nil
	if d.err != nil {
		return false, d.err
	}
	if !d.ok {
		return false, nil
	}
	for _, a := range assumps {
		if a == LitUndef || a.Var() < 0 || a.Var() >= d.nvars {
			return false, fmt.Errorf("%w: assumption %v (have %d vars)", ErrUnknownVariable, a, d.nvars)
		}
	}

	budget := d.maxConflicts
	if budget == 0 {
		budget = DefaultMaxConflicts
	}
	conflicts := int64(0)

	// Fresh search state per call; the clause set is the only persistent
	// formula state, so assumptions scope naturally to this call.
	if cap(d.assign) < d.nvars {
		d.assign = make([]int8, d.nvars)
	}
	d.assign = d.assign[:d.nvars]
	for i := range d.assign {
		d.assign[i] = lUndef
	}
	d.trail = d.trail[:0]
	d.levels = d.levels[:0]

	unsat := func() (bool, error) {
		if len(assumps) > 0 {
			d.failed = append([]Lit(nil), assumps...)
		} else {
			d.ok = false
		}
		return false, nil
	}

	sinceCheck := 0
	for {
		if sinceCheck++; sinceCheck >= ctxCheckInterval {
			sinceCheck = 0
			if err := interrupt.Check(ctx, "sat: dpll solve", d.stats); err != nil {
				return false, err
			}
		}
		if !d.propagate() {
			d.stats.Conflicts++
			if conflicts++; conflicts >= budget {
				return false, interrupt.Budget("sat: dpll solve", ErrBudget, d.stats)
			}
			if !d.backtrack(len(assumps)) {
				return unsat()
			}
			continue
		}
		// Install the next pending assumption as a decision. One already
		// true is skipped without a level (the prefix below the first real
		// decision needs no unwinding granularity); one already false is a
		// final conflict.
		next := LitUndef
		for i := len(d.levels); next == LitUndef && i < len(assumps); {
			switch a := assumps[i]; d.valueLit(a) {
			case lTrue:
				i++
				// Keep level accounting aligned with assumptions by
				// recording a dummy (already-satisfied) level.
				d.levels = append(d.levels, dpllLevel{at: len(d.trail), flipped: true})
			case lFalse:
				d.failed = append([]Lit(nil), assumps...)
				return false, nil
			default:
				next = a
			}
		}
		if next == LitUndef {
			v := -1
			for i := 0; i < d.nvars; i++ {
				if d.assign[i] == lUndef {
					v = i
					break
				}
			}
			if v == -1 {
				d.model = make([]bool, d.nvars)
				for i, a := range d.assign {
					d.model[i] = a == lTrue
				}
				return true, nil
			}
			d.stats.Decisions++
			d.levels = append(d.levels, dpllLevel{at: len(d.trail)})
			d.set(NewLit(v, true)) // false-first phase
			continue
		}
		d.stats.Decisions++
		d.levels = append(d.levels, dpllLevel{at: len(d.trail), flipped: true})
		d.set(next)
	}
}

// FailedAssumptions returns the assumption set of the most recent
// SolveAssuming call that returned (false, nil) under assumptions; nil
// otherwise. Without clause learning the engine cannot isolate a smaller
// core, so the whole set is reported.
func (d *DPLL) FailedAssumptions() []Lit { return d.failed }

// Value returns variable v's value in the most recent model. It panics
// without one; boundary code should prefer ValueErr.
func (d *DPLL) Value(v int) bool {
	if d.model == nil {
		panic("sat: Value called without a model")
	}
	return d.model[v]
}

// ValueErr is the non-panicking form of Value.
func (d *DPLL) ValueErr(v int) (bool, error) {
	if d.model == nil {
		return false, ErrNoModel
	}
	if v < 0 || v >= len(d.model) {
		return false, fmt.Errorf("%w: variable %d (model has %d)", ErrUnknownVariable, v, len(d.model))
	}
	return d.model[v], nil
}
