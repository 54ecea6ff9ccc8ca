package main

import (
	"context"
	"time"

	"bindlock/internal/sat"
	"bindlock/internal/satattack"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent 0 marks a top-level span; Item names the instance or job the
// span belongs to; Counts carries the work counted inside it.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Item   string           `json:"item,omitempty"`
	Start  float64          `json:"start_s"`
	End    float64          `json:"end_s"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0: top level) and returns its id.
func (t *tracer) begin(parent int, name, item string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Item: item,
		Start: time.Since(t.t0).Seconds()})
	return id
}

// end closes span id, attaching counts.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Counts = counts
}

// timed runs f inside a span.
func (t *tracer) timed(parent int, name, item string, f func() error) error {
	id := t.begin(parent, name, item)
	err := f()
	t.end(id, nil)
	return err
}

func (t *tracer) write(path string) error { return writeJSON(path, t.spans) }

// under returns the spans whose ancestor chain reaches root.
func (t *tracer) under(root int) []span {
	var out []span
	for _, s := range t.spans {
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if p == root {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// passTotals sums, over the spans under the given roots, span seconds by
// name and counts by key, and each root's time outside its direct children.
func (t *tracer) passTotals(roots []int) (secs map[string]float64, counts map[string]int64, unattributed float64) {
	secs, counts = map[string]float64{}, map[string]int64{}
	for _, root := range roots {
		for _, s := range t.under(root) {
			secs[s.Name] += s.dur()
			for k, v := range s.Counts {
				counts[k] += v
			}
		}
		covered := 0.0
		for _, s := range t.spans {
			if s.Parent == root {
				covered += s.dur()
			}
		}
		unattributed += t.spans[root-1].dur() - covered
	}
	return secs, counts, unattributed
}

// solverStats is what the counting backend and timing oracle observe in one
// attack. The attack is single-threaded, so the fields need no locking.
type solverStats struct {
	backends    []sat.Backend
	solveNS     int64
	solveCalls  int64
	clauses     int64
	vars        int64
	oracleNS    int64
	queries     int64
	lastMiterNS int64 // the miter's most recent solve
	lastMiterOK bool  // it found a DIP
}

// counts exports the attack's counters for its span, given how it ended:
// the final miter solve of an attack that converged or hit the conflict cap
// is its terminal solve.
func (st *solverStats) counts(dips int, terminal bool) map[string]int64 {
	var conflicts, props int64
	for _, b := range st.backends {
		s := b.Stats()
		conflicts += s.Conflicts
		props += s.Propagations
	}
	c := map[string]int64{
		"dips": int64(dips), "solve_ns": st.solveNS, "solve_calls": st.solveCalls,
		"clauses": st.clauses, "vars": st.vars, "conflicts": conflicts, "propagations": props,
		"oracle_ns": st.oracleNS, "oracle_queries": st.queries,
	}
	if terminal && !st.lastMiterOK {
		c["terminal_ns"] = st.lastMiterNS
	}
	return c
}

// factory wraps the default solver engine so every solver the attack builds
// is timed per solve call and counts the clauses and variables it is given.
// The first solver an attack builds is its miter.
func (st *solverStats) factory() (sat.Factory, error) {
	inner, err := sat.BackendFactory(sat.DefaultBackend)
	if err != nil {
		return nil, err
	}
	return func() sat.Backend {
		b := &countingBackend{Backend: inner(), st: st, miter: len(st.backends) == 0}
		st.backends = append(st.backends, b)
		return b
	}, nil
}

// oracle times every query the attack makes.
func (st *solverStats) oracle(o satattack.Oracle) satattack.Oracle {
	return satattack.OracleFunc(func(in []bool) ([]bool, error) {
		start := time.Now()
		out, err := o.Query(in)
		st.oracleNS += int64(time.Since(start))
		st.queries++
		return out, err
	})
}

// countingBackend decorates a sat.Backend: it times Solve and SolveAssuming
// and counts AddClause and NewVar calls without timing them, which keeps the
// per-clause overhead to an increment.
type countingBackend struct {
	sat.Backend
	st    *solverStats
	miter bool
}

func (b *countingBackend) NewVar() int {
	b.st.vars++
	return b.Backend.NewVar()
}

func (b *countingBackend) AddClause(lits ...sat.Lit) bool {
	b.st.clauses++
	return b.Backend.AddClause(lits...)
}

func (b *countingBackend) Solve(ctx context.Context) (bool, error) {
	return b.SolveAssuming(ctx)
}

func (b *countingBackend) SolveAssuming(ctx context.Context, assumps ...sat.Lit) (bool, error) {
	start := time.Now()
	ok, err := b.Backend.SolveAssuming(ctx, assumps...)
	ns := int64(time.Since(start))
	b.st.solveNS += ns
	b.st.solveCalls++
	if b.miter {
		b.st.lastMiterNS, b.st.lastMiterOK = ns, ok && err == nil
	}
	return ok, err
}
