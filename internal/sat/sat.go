// Package sat is a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver built on the standard MiniSat architecture: two
// watched literals per clause, VSIDS variable activities, phase saving,
// first-UIP conflict analysis with non-chronological backjumping, and Luby
// restarts.
//
// The clause database is a single flat arena ([]Lit) addressed by packed
// ClauseRef offsets, and every watch-list entry carries a blocker literal, so
// the propagation hot loop usually decides a clause is satisfied from the
// watcher alone without touching clause memory. The watch lists' headers sit
// in pages of 512 literals that never move once full, so a formula that keeps
// growing (the SAT attack's miter gains two circuit copies per DIP) never
// re-copies the watch table. The DPLL engine (dpll.go) is the second
// registered backend, kept as the differential reference for the fuzz and
// assumption suites.
//
// It is the engine behind the oracle-guided SAT attack of Subramanyan et al.
// [10] implemented in internal/satattack, which the paper uses as the
// benchmark threat model for logic locking (Sec. II-A).
package sat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"bindlock/internal/fault"
	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/progress"
)

// Lit is a literal: variable index (0-based) shifted left once, with the low
// bit set for negation.
type Lit uint32

// LitUndef is the sentinel "no literal".
const LitUndef Lit = ^Lit(0)

// NewLit returns the literal for variable v (0-based), negated if neg.
func NewLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lifted boolean values
const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// ErrBudget is returned by Solve when the conflict budget is exhausted
// before a result is reached.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// ErrUnknownVariable reports a literal or variable index outside the
// solver's allocated range at an exported entry point (AddClause, ValueErr).
var ErrUnknownVariable = errors.New("sat: unknown variable")

// ErrNoModel is returned by ValueErr when no satisfying model is available:
// no solve call has returned true since the last NewVar or AddClause call,
// or the most recent solve call did not return true.
var ErrNoModel = errors.New("sat: no model available")

// ClauseRef is a packed reference to a clause: the offset of its header word
// in the solver's arena. refUndef marks "no clause" (decisions, external
// facts).
type ClauseRef int32

const refUndef ClauseRef = -1

// Arena clause layout, back to back in one []Lit:
//
//	arena[ref+0]  header: size<<hdrSizeShift | flags
//	arena[ref+1]  activity (float32 bits; meaningful for learned clauses)
//	arena[ref+2…] the literals; positions 0 and 1 are the watched pair
//
// The header flags mark learned clauses and clauses condemned by reduceDB;
// a removed clause stays in place only until the same reduceDB call's sweep
// compacts the arena over it.
const (
	hdrRemoved   = 1 << 0
	hdrLearned   = 1 << 1
	hdrSizeShift = 2
	clauseHeader = 2 // words before the literals
)

// watcher is one packed watch-list entry: the watching clause plus a blocker
// literal — some literal of the clause (usually the other watched one) whose
// truth proves the clause satisfied without loading it from the arena.
type watcher struct {
	ref     ClauseRef
	blocker Lit
}

// The watch table is paged: a page holds the watch lists of watchPageSize
// consecutive literals (256 variables), 12 KiB of slice headers. The first
// page grows with the formula, so a solver of a few variables pays only for
// the lists it has. NewVar allocates every later page whole when a
// variable's literals start it, and that page never moves: growing the
// formula appends one page to the table instead of re-copying (and
// re-zeroing, under GC write barriers) every list header so far.
const (
	watchPageBits = 9
	watchPageSize = 1 << watchPageBits
)

// Solver is a CDCL SAT solver. The zero value is not usable; call NewSolver.
type Solver struct {
	arena        []Lit       // flat clause storage; see the layout above
	clauseCount  int         // clauses ever attached (NumClauses)
	problemCount int         // non-learned clauses attached
	learnedTotal int64       // learned clauses ever attached
	learnts      int         // live learned clause count
	learntRefs   []ClauseRef // live learned clauses, attach order
	claInc       float64

	watches [][][]watcher // per literal, paged: watchers of clauses watching it

	value    []int8      // per literal: lTrue, lFalse or lUndef
	level    []int32     // per var: decision level of assignment
	reason   []ClauseRef // per var: clause that implied it, or refUndef
	polarity []bool      // per var: saved phase (last assigned sign)

	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap

	ok     bool  // false once a top-level conflict is derived
	err    error // sticky: first AddClause boundary violation; Solve returns it
	failed []Lit // failed assumptions of the last unsatisfiable SolveAssuming

	// MaxConflicts bounds the search effort of each solve call; 0 means
	// DefaultMaxConflicts. The budget is per call: a reused solver does not
	// start later calls part-exhausted by earlier ones.
	MaxConflicts int64

	// statistics
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64

	model     []bool // reused across solves; meaningful only while haveModel
	haveModel bool   // the last solve returned true and nothing was added since
	seen      []bool // scratch for conflict analysis
	learntBuf []Lit  // scratch for analyze (attached clauses are arena copies)
	clauseBuf []Lit  // scratch for AddClause simplification
}

// DefaultMaxConflicts is the default search budget.
const DefaultMaxConflicts = 20_000_000

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1, watches: make([][][]watcher, 1)}
	s.heap = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of clauses attached so far — problem plus
// learned, including clauses since deleted by reduceDB (the count only grows).
func (s *Solver) NumClauses() int { return s.clauseCount }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.haveModel = false
	s.value = append(s.value, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, refUndef)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	switch lit := int(NewLit(v, false)); {
	case lit < watchPageSize:
		s.watches[0] = append(s.watches[0], nil, nil)
	case lit&(watchPageSize-1) == 0:
		s.watches = append(s.watches, make([][]watcher, watchPageSize))
	}
	s.heap.push(v)
	return v
}

// watchList returns literal l's watch list in place.
func (s *Solver) watchList(l Lit) *[]watcher {
	return &s.watches[l>>watchPageBits][l&(watchPageSize-1)]
}

// clauseLits returns the clause's literal slice, aliasing the arena.
func (s *Solver) clauseLits(ref ClauseRef) []Lit {
	n := int(uint32(s.arena[ref]) >> hdrSizeShift)
	return s.arena[int(ref)+clauseHeader : int(ref)+clauseHeader+n]
}

func (s *Solver) clauseAct(ref ClauseRef) float64 {
	return float64(math.Float32frombits(uint32(s.arena[ref+1])))
}

func (s *Solver) setClauseAct(ref ClauseRef, act float32) {
	s.arena[ref+1] = Lit(math.Float32bits(act))
}

// valueLit is one load: value holds both polarities of every variable, so
// the propagation hot loop never branches on a literal's sign.
func (s *Solver) valueLit(l Lit) int8 { return s.value[l] }

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// enqueue assigns literal l with the given reason clause (refUndef for
// decisions and external facts). It returns false if l is already false.
func (s *Solver) enqueue(l Lit, from ClauseRef) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.value[l], s.value[l.Neg()] = lTrue, lFalse
	s.polarity[v] = l.Sign()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// AddClause adds a clause over the given literals. It must be called at the
// top level (between Solve calls). It returns false if the formula became
// trivially unsatisfiable. A literal referencing an unallocated variable
// records a sticky ErrUnknownVariable on the solver — the clause is dropped,
// further clauses are ignored, and the next Solve returns the error (not
// UNSAT: a malformed encoding proves nothing about satisfiability). Calling
// AddClause during search remains a panic; that is an internal-invariant
// violation only solver-embedding code can commit.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.haveModel = false
	if s.err != nil {
		return true // poisoned: clause dropped, Solve surfaces the error
	}
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Simplify: sort out duplicates, satisfied clauses, false literals. The
	// scan over the accepted prefix replaces the old map-based dedup —
	// encoder clauses are short, and the scratch buffer keeps the encoding
	// phase allocation-free.
	clause := s.clauseBuf[:0]
outer:
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() || l.Var() < 0 {
			s.err = fmt.Errorf("%w: literal %v (have %d vars)", ErrUnknownVariable, l, s.NumVars())
			return true
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // clause already satisfied
		case lFalse:
			continue
		}
		for _, e := range clause {
			if e == l {
				continue outer // duplicate
			}
			if e == l.Neg() {
				return true // tautological
			}
		}
		clause = append(clause, l)
	}
	s.clauseBuf = clause
	switch len(clause) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(clause[0], refUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != refUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.attach(clause, false)
	return true
}

// attach copies the clause into the arena and registers its two watchers,
// each blocking on the other watched literal.
func (s *Solver) attach(lits []Lit, learned bool) ClauseRef {
	ref := ClauseRef(len(s.arena))
	hdr := uint32(len(lits)) << hdrSizeShift
	if learned {
		hdr |= hdrLearned
	}
	s.arena = append(s.arena, Lit(hdr), 0)
	s.arena = append(s.arena, lits...)
	s.clauseCount++
	if learned {
		s.learnedTotal++
		s.learnts++
		s.learntRefs = append(s.learntRefs, ref)
	} else {
		s.problemCount++
	}
	w0, w1 := s.watchList(lits[0]), s.watchList(lits[1])
	*w0 = append(*w0, watcher{ref, lits[1]})
	*w1 = append(*w1, watcher{ref, lits[0]})
	return ref
}

// propagate performs unit propagation over the watched literals. It returns
// the reference of a conflicting clause, or refUndef.
//
// The blocker check is the hot-path point of the arena layout: a watcher
// whose blocker literal is true proves its clause satisfied without loading
// the clause, so the common case costs one assignment-array read. Only when
// the blocker misses is the clause pulled from the arena, normalised (false
// literal to position 1), and either re-blocked on the other watch, moved to
// a new watch, or recognised as unit/conflicting. reduceDB sweeps condemned
// clauses out of every watch list before returning, so each watcher
// reference here is live by invariant.
func (s *Solver) propagate() ClauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := p.Neg()
		wl := s.watchList(falseLit)
		ws := *wl
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			base := int(w.ref)
			n := int(uint32(s.arena[base]) >> hdrSizeShift)
			lits := s.arena[base+clauseHeader : base+clauseHeader+n]
			// Normalise: the false literal sits at position 1.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			other := lits[0]
			// Satisfied by the other watch? Keep, re-blocking on it.
			if other != w.blocker && s.valueLit(other) == lTrue {
				kept = append(kept, watcher{w.ref, other})
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < n; k++ {
				if s.valueLit(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := s.watchList(lits[1])
					*nl = append(*nl, watcher{w.ref, other})
					found = true
					break
				}
			}
			if found {
				continue // watch moved: drop from this list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.ref, other})
			if !s.enqueue(other, w.ref) {
				// Conflict: restore the remaining watches and bail.
				kept = append(kept, ws[wi+1:]...)
				*wl = kept
				s.qhead = len(s.trail)
				return w.ref
			}
		}
		*wl = kept
	}
	return refUndef
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.Var()
		s.value[l], s.value[l.Neg()] = lUndef, lUndef
		s.reason[v] = refUndef
		s.heap.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (asserting literal first) and the backjump level. The returned slice is a
// reused scratch buffer: the caller must copy it (attach does) before the
// next conflict.
func (s *Solver) analyze(confl ClauseRef) ([]Lit, int32) {
	learnt := append(s.learntBuf[:0], LitUndef)
	counter := 0
	p := LitUndef
	index := len(s.trail) - 1
	cur := s.decisionLevel()

	for {
		lits := s.clauseLits(confl)
		s.bumpClause(confl)
		start := 0
		if p != LitUndef {
			start = 1 // lits[0] is the implied literal p
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= cur {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select the next trail literal to resolve on.
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Clear remaining marks.
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = false
	}

	// Backjump level: highest level among the non-asserting literals.
	back := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = s.level[learnt[1].Var()]
	}
	s.learntBuf = learnt
	return learnt, back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

const (
	varDecay = 1.0 / 0.95
	claDecay = 1.0 / 0.999
)

// bumpClause raises a learned clause's activity (problem clauses carry no
// activity: they are never removed). Activities are float32s stored inline
// in the arena header; the ordering reduceDB needs survives the narrower
// precision, and the usual 1e20 rescale keeps them in range.
func (s *Solver) bumpClause(ref ClauseRef) {
	if uint32(s.arena[ref])&hdrLearned == 0 {
		return
	}
	act := float32(s.clauseAct(ref) + s.claInc)
	s.setClauseAct(ref, act)
	if act > 1e20 {
		for _, lr := range s.learntRefs {
			s.setClauseAct(lr, float32(s.clauseAct(lr)*1e-20))
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether the clause is the reason of a current assignment
// and therefore must not be deleted.
func (s *Solver) locked(ref ClauseRef) bool {
	l := s.clauseLits(ref)[0]
	return s.value[l] != lUndef && s.reason[l.Var()] == ref
}

// reduceDB deletes roughly half of the live learned clauses, lowest activity
// first, keeping binary and locked clauses. Deletion is mark-and-sweep: the
// condemned clauses are flagged in their headers, then sweep drops their
// watchers from every watch list and compacts the arena over their storage —
// so no stale watcher survives the call and removed clause bodies are
// reclaimed rather than leaked.
func (s *Solver) reduceDB() {
	var cands []reduceCand
	for _, ref := range s.learntRefs {
		if len(s.clauseLits(ref)) <= 2 || s.locked(ref) {
			continue
		}
		cands = append(cands, reduceCand{int32(ref), s.clauseAct(ref)})
	}
	if len(cands) < 2 {
		return
	}
	// Remove the lower-activity half.
	reduceOrder(cands)
	for _, c := range cands[:len(cands)/2] {
		ref := ClauseRef(c.idx)
		s.arena[ref] |= hdrRemoved
		s.learnts--
	}
	s.sweep()
}

// sweep compacts the arena over clauses marked removed and rewrites every
// live reference: watch lists (dropping watchers of removed clauses — the
// watch-hygiene point of the layout), assignment reasons (reasons are locked
// and so never removed), and the learned-clause list.
func (s *Solver) sweep() {
	remap := make(map[ClauseRef]ClauseRef, s.clauseCount)
	w := 0
	for r := 0; r < len(s.arena); {
		hdr := uint32(s.arena[r])
		tot := clauseHeader + int(hdr>>hdrSizeShift)
		if hdr&hdrRemoved == 0 {
			remap[ClauseRef(r)] = ClauseRef(w)
			copy(s.arena[w:w+tot], s.arena[r:r+tot])
			w += tot
		}
		r += tot
	}
	s.arena = s.arena[:w]
	for _, page := range s.watches {
		for li, ws := range page {
			kept := ws[:0]
			for _, wt := range ws {
				if nr, ok := remap[wt.ref]; ok {
					wt.ref = nr
					kept = append(kept, wt)
				}
			}
			page[li] = kept
		}
	}
	for v := range s.reason {
		if s.reason[v] != refUndef {
			s.reason[v] = remap[s.reason[v]]
		}
	}
	lr := s.learntRefs[:0]
	for _, ref := range s.learntRefs {
		if nr, ok := remap[ref]; ok {
			lr = append(lr, nr)
		}
	}
	s.learntRefs = lr
}

// reduceCand is a clause-deletion candidate considered by reduceDB.
type reduceCand struct {
	idx int32
	act float64
}

// reduceOrder sorts deletion candidates into ascending activity, breaking
// activity ties by clause reference (attach order): a total order, so which
// clauses fall in the deleted half depends only on the inputs, not on the
// sort implementation.
func reduceOrder(cands []reduceCand) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].act != cands[j].act {
			return cands[i].act < cands[j].act
		}
		return cands[i].idx < cands[j].idx
	})
}

// pickBranch selects the unassigned variable with highest activity, or
// returns -1 when every variable is assigned. In that case every heap entry
// is stale, and popping them one by one (a full sift-down each) would only
// empty the heap: reset reaches the same empty heap in one pass. Every
// satisfiable solve ends here; on a width-4 SFLL attack's miter that is
// about 2,000 stale entries per DIP.
func (s *Solver) pickBranch() int {
	if len(s.trail) == s.NumVars() {
		s.heap.reset()
		return -1
	}
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.value[NewLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// luby computes term x (0-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's formulation).
func luby(x int64) int64 {
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Stats is a snapshot of the solver's search counters — the partial result
// an interrupted Solve carries.
type Stats struct {
	Conflicts, Decisions, Propagations, Restarts int64
}

// Stats snapshots the solver's search counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
	}
}

// SetMaxConflicts bounds each subsequent solve call's conflict budget
// (0: DefaultMaxConflicts). It is the Backend form of the MaxConflicts field.
func (s *Solver) SetMaxConflicts(n int64) { s.MaxConflicts = n }

// ctxCheckInterval bounds how many conflicts/decisions may pass between
// cancellation checks; at CDCL step rates this keeps cancellation latency
// well under the ~100ms promptness target.
const ctxCheckInterval = 2048

// checkCtx is interrupt.Check for the solve loop. It snapshots the Stats
// partial result only once ctx is done, so a live check allocates nothing.
func (s *Solver) checkCtx(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		return interrupt.FromContext("sat: solve", cerr, s.Stats())
	}
	return nil
}

// Solve searches for a satisfying assignment. It returns (true, nil) with a
// model available via Value, (false, nil) if the formula is unsatisfiable,
// or (false, err) when interrupted: err wraps interrupt.ErrBudgetExceeded
// (and ErrBudget) when the conflict budget ran out, or classifies ctx.Err()
// when the context was cancelled or its deadline expired. Either way the
// error carries a Stats snapshot as partial result. Cancellation is checked
// at restart boundaries and every ctxCheckInterval conflicts/decisions.
func (s *Solver) Solve(ctx context.Context) (bool, error) {
	return s.SolveAssuming(ctx)
}

// SolveAssuming is Solve under temporary assumption literals, as in MiniSat.
// Assumptions are installed as the first decisions of the search (one
// decision level each), never as clauses: everything the call learns is
// derived by resolution from the clause database alone and therefore stays
// valid for later calls with different assumptions, while the assumptions
// themselves are retracted on return. (false, nil) with
// assumptions means the clause set is unsatisfiable together with them;
// FailedAssumptions then reports a responsible subset, the clause database
// is unpoisoned, and the solver remains usable. Only a conflict at decision
// level zero — below every assumption — marks the formula itself
// unsatisfiable.
func (s *Solver) SolveAssuming(ctx context.Context, assumps ...Lit) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.failed = nil
	s.haveModel = false
	if m := metrics.FromContext(ctx); m != nil {
		// Solver counters are cumulative across Solve calls on a reused
		// solver (the attack loop re-solves one growing formula), so the
		// registry records per-call deltas.
		stop := m.Timer("sat_solve_seconds")
		before := s.Stats()
		learnedBefore := s.learnedTotal
		defer func() {
			stop()
			after := s.Stats()
			m.Add("sat_solve_total", 1)
			m.Add("sat_conflicts_total", after.Conflicts-before.Conflicts)
			m.Add("sat_decisions_total", after.Decisions-before.Decisions)
			m.Add("sat_propagations_total", after.Propagations-before.Propagations)
			m.Add("sat_restarts_total", after.Restarts-before.Restarts)
			m.Add("sat_learned_clauses_total", s.learnedTotal-learnedBefore)
		}()
	}
	if err := fault.Hit(ctx, "sat.solve"); err != nil {
		return false, fmt.Errorf("sat: solve: %w", err)
	}
	if s.err != nil {
		return false, s.err
	}
	if !s.ok {
		return false, nil
	}
	for _, a := range assumps {
		if a == LitUndef || a.Var() < 0 || a.Var() >= s.NumVars() {
			return false, fmt.Errorf("%w: assumption %v (have %d vars)", ErrUnknownVariable, a, s.NumVars())
		}
	}
	defer s.cancelUntil(0)
	if s.propagate() != refUndef {
		s.ok = false
		return false, nil
	}

	budget := s.MaxConflicts
	if budget == 0 {
		budget = DefaultMaxConflicts
	}
	// The budget is per call: measure conflicts against this call's start,
	// so a warm solver reused across an attack's iterations is not charged
	// for earlier calls' work.
	budgetBase := s.Conflicts
	hook := progress.FromContext(ctx)
	var restartN int64
	const restartBase = 100
	maxLearnts := s.problemCount/3 + 1000
	sinceCheck := 0

	for {
		if err := s.checkCtx(ctx); err != nil {
			return false, err
		}
		progress.Emit(hook, progress.Event{
			Kind: progress.Step, Phase: "solve",
			Conflicts: s.Conflicts, Decisions: s.Decisions,
		})
		restartBudget := luby(restartN) * restartBase
		restartN++
		s.Restarts++
		conflicts := int64(0)
		for {
			if sinceCheck++; sinceCheck >= ctxCheckInterval {
				sinceCheck = 0
				if err := s.checkCtx(ctx); err != nil {
					return false, err
				}
			}
			confl := s.propagate()
			if confl != refUndef {
				s.Conflicts++
				conflicts++
				if s.decisionLevel() == 0 {
					s.ok = false
					return false, nil
				}
				learnt, back := s.analyze(confl)
				s.cancelUntil(back)
				if len(learnt) == 1 {
					if !s.enqueue(learnt[0], refUndef) {
						s.ok = false
						return false, nil
					}
				} else {
					ref := s.attach(learnt, true)
					s.bumpClause(ref)
					s.enqueue(learnt[0], ref)
				}
				s.varInc *= varDecay
				s.claInc *= claDecay
				if s.learnts > maxLearnts {
					s.reduceDB()
					maxLearnts += maxLearnts / 10
				}
				if s.Conflicts-budgetBase >= budget {
					return false, interrupt.Budget("sat: solve", ErrBudget, s.Stats())
				}
				continue
			}
			if conflicts >= restartBudget {
				s.cancelUntil(0)
				break // restart
			}
			// Extend the assumption prefix first: assumption i is the
			// decision of level i+1. An assumption already implied true
			// opens a dummy level (keeping the level-per-assumption
			// invariant); one implied false is a final conflict — the
			// assumptions are jointly unsatisfiable with the clause set,
			// which says nothing about the clause set alone.
			next := LitUndef
			for next == LitUndef && int(s.decisionLevel()) < len(assumps) {
				switch p := assumps[s.decisionLevel()]; s.valueLit(p) {
				case lTrue:
					s.trailLim = append(s.trailLim, int32(len(s.trail)))
				case lFalse:
					s.failed = s.analyzeFinal(p)
					return false, nil
				default:
					next = p
				}
			}
			if next == LitUndef {
				v := s.pickBranch()
				if v == -1 {
					// All variables assigned: SAT. The model buffer is
					// reused, growing only with the variable count.
					n := s.NumVars()
					s.model = slices.Grow(s.model[:0], n)[:n]
					for i := range s.model {
						s.model[i] = s.value[NewLit(i, false)] == lTrue
					}
					s.haveModel = true
					return true, nil
				}
				s.Decisions++
				next = NewLit(v, s.polarity[v])
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.enqueue(next, refUndef)
		}
	}
}

// analyzeFinal computes the failed-assumption set once assumption p is found
// false while the trail holds only assumption decisions and their
// consequences. Walking the trail backwards from the top, it expands implied
// literals through their reason clauses and collects the assumption
// decisions reached — MiniSat's final-conflict analysis. The result is the
// subset of the passed assumptions (in their original polarity, p included)
// that is jointly unsatisfiable with the clause set. Nothing is learned and
// nothing enters the clause database: the "conflict" involves the
// assumptions, which are scoped to this call, so recording any of it as a
// clause would poison later calls.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	out := []Lit{p}
	if s.decisionLevel() == 0 {
		return out // p is falsified by the formula alone at the root
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == refUndef {
			// A decision: at this point of the search every decision is an
			// assumption, recorded on the trail in its passed polarity.
			if s.level[v] > 0 {
				out = append(out, s.trail[i])
			}
		} else {
			// Implied: charge the literals of its reason clause (lits[0]
			// is the implied literal itself).
			for _, q := range s.clauseLits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
	return out
}

// FailedAssumptions returns the failed-assumption subset computed by the
// most recent SolveAssuming call that returned (false, nil) under
// assumptions, in the polarity they were passed. It returns nil after any
// other outcome — a satisfiable call, a formula-level UNSAT, or an error.
func (s *Solver) FailedAssumptions() []Lit { return s.failed }

// Value returns variable v's value in the most recent model. It panics if no
// model is available; hot loops that have just seen Solve return true may use
// it unconditionally. Boundary code should prefer ValueErr.
func (s *Solver) Value(v int) bool {
	if !s.haveModel {
		panic("sat: Value called without a model")
	}
	return s.model[v]
}

// ValueErr is the non-panicking form of Value for exported boundaries: it
// returns ErrNoModel when no model is available and ErrUnknownVariable when
// v is out of range.
func (s *Solver) ValueErr(v int) (bool, error) {
	if !s.haveModel {
		return false, ErrNoModel
	}
	if v < 0 || v >= len(s.model) {
		return false, fmt.Errorf("%w: variable %d (model has %d)", ErrUnknownVariable, v, len(s.model))
	}
	return s.model[v], nil
}

// Err returns the sticky boundary error recorded by AddClause, or nil.
func (s *Solver) Err() error { return s.err }

// varHeap is an indexed max-heap over variable activities. Equal
// activities are ordered by array position alone, so the exact sequence of
// pushes, pops and sifts is part of the decision order: every pinned
// transcript depends on it. Entries are int32, as a Lit already limits
// variables to 2^31.
type varHeap struct {
	act  *[]float64
	heap []int32
	pos  []int32 // var -> heap index, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap { return &varHeap{act: act} }

// up and down sift with a moving hole: the sifted variable is held aside,
// each entry it passes moves one level, and it is written once where it
// stops. They make the comparisons pairwise swaps would make and leave the
// same array.
func (h *varHeap) up(i int) {
	act := *h.act
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !(act[v] > act[h.heap[parent]]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	act := *h.act
	v := h.heap[i]
	n := len(h.heap)
	for {
		child, best := -1, act[v]
		if l := 2*i + 1; l < n && act[h.heap[l]] > best {
			child, best = l, act[h.heap[l]]
		}
		if r := 2*i + 2; r < n && act[h.heap[r]] > best {
			child = r
		}
		if child < 0 {
			break
		}
		h.heap[i] = h.heap[child]
		h.pos[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) push(v int) {
	for v >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return int(v)
}

// reset empties the heap in one pass.
func (h *varHeap) reset() {
	for _, v := range h.heap {
		h.pos[v] = -1
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(int(h.pos[v]))
	}
}
