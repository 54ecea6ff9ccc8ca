package codesign

import (
	"math"

	"bindlock/internal/dfg"
	"bindlock/internal/matching"
	"bindlock/internal/sim"
)

// Evaluator computes the Eqn. 2 cost of the obfuscation-aware binding for a
// candidate-set assignment without materialising configs or bindings. It
// holds the class ops cycle by cycle with dense candidate count rows and, for
// the small FU counts typical of HLS (R ≤ 4), replaces the Hungarian solver
// with direct enumeration of the per-cycle assignments.
type Evaluator struct {
	// ops lists the class ops cycle by cycle: the t-th occupied cycle holds
	// ops[start[t]:start[t+1]]. Every per-op slice in this package uses this
	// dense index.
	ops   []dfg.OpID
	start []int
	// cnt[c][i] is K_{candidate c, ops[i]}: one dense row per candidate.
	cnt    [][]int
	numFUs int
	// assignments[k] enumerates the injective maps of k ops onto FUs when
	// numFUs is small; nil selects the Hungarian path.
	assignments [][][]int
}

const directEnumFUs = 4

// NewEvaluator builds an evaluator for the given problem. It is exported for
// the experiment harness, which sweeps far more candidate-set assignments
// than the co-design algorithms themselves. It validates the problem as the
// co-design algorithms do: a cycle with more class ops than FUs has no
// binding at all, so it is an error rather than a silent cost of 0.
func NewEvaluator(g *dfg.Graph, k *sim.KMatrix, o Options) (*Evaluator, error) {
	if err := o.check(g, k); err != nil {
		return nil, err
	}
	return newEvaluator(g, k, &o), nil
}

// newEvaluator builds an evaluator for a problem that passed Options.check.
func newEvaluator(g *dfg.Graph, k *sim.KMatrix, o *Options) *Evaluator {
	ev := &Evaluator{numFUs: o.NumFUs, start: []int{0}}
	for _, t := range g.SortedCycleList(o.Class) {
		ev.ops = append(ev.ops, g.AtCycle(o.Class, t)...)
		ev.start = append(ev.start, len(ev.ops))
	}
	ev.cnt = make([][]int, len(o.Candidates))
	for ci, m := range o.Candidates {
		ev.cnt[ci] = make([]int, len(ev.ops))
		for i, op := range ev.ops {
			ev.cnt[ci][i] = k.Count(m, op)
		}
	}
	if o.NumFUs <= directEnumFUs {
		ev.assignments = injectionTable[o.NumFUs]
	}
	return ev
}

// injectionTable[n][k] enumerates the injective maps of k ops onto n FUs
// for every n ≤ directEnumFUs. It is built once and shared, read-only, by
// every evaluator.
var injectionTable = func() (t [directEnumFUs + 1][][][]int) {
	for n := range t {
		t[n] = make([][][]int, n+1)
		for k := 1; k <= n; k++ {
			t[n][k] = injections(k, n)
		}
	}
	return t
}()

// injections enumerates all injective assignments of k sources onto n sinks.
func injections(k, n int) [][]int {
	var out [][]int
	cur := make([]int, k)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for f := 0; f < n; f++ {
			if !used[f] {
				used[f] = true
				cur[i] = f
				rec(i + 1)
				used[f] = false
			}
		}
	}
	rec(0)
	return out
}

// Eval returns the Eqn. 2 cost of the optimal obfuscation-aware binding when
// FU f locks the candidate indices sets[f] (nil = unlocked). Cycles are
// separable (Thm. 2), so the per-cycle optima sum to the global optimum.
func (ev *Evaluator) Eval(sets [][]int) int {
	return ev.eval(sets)
}

// BaselineEval returns the Eqn. 2 cost when the binding is fixed (opOnFU maps
// each class op to its FU) and FU f locks the candidate indices sets[f]. This
// is the cost of applying an identical locking configuration to a circuit
// bound by a security-oblivious algorithm.
func (ev *Evaluator) BaselineEval(opOnFU map[dfg.OpID]int, sets [][]int) int {
	total := 0
	for i, op := range ev.ops {
		for _, ci := range sets[opOnFU[op]] {
			total += ev.cnt[ci][i]
		}
	}
	return total
}

// PerFUCandidateTotals returns totals[fu][c]: the summed occurrences of
// candidate c over the ops the fixed binding places on FU fu. Harness code
// uses it to evaluate many lock placements on one baseline binding cheaply.
func (ev *Evaluator) PerFUCandidateTotals(opOnFU map[dfg.OpID]int, numCands int) [][]int {
	totals := make([][]int, ev.numFUs)
	for fu := range totals {
		totals[fu] = make([]int, numCands)
	}
	for i, op := range ev.ops {
		fu := opOnFU[op]
		for c := 0; c < numCands; c++ {
			totals[fu][c] += ev.cnt[c][i]
		}
	}
	return totals
}

func (ev *Evaluator) eval(sets [][]int) int {
	total := 0
	for t := 0; t+1 < len(ev.start); t++ {
		lo, hi := ev.start[t], ev.start[t+1]
		if ev.assignments != nil {
			best := 0
			for _, as := range ev.assignments[hi-lo] {
				sum := 0
				for i, f := range as {
					for _, ci := range sets[f] {
						sum += ev.cnt[ci][lo+i]
					}
				}
				if sum > best {
					best = sum
				}
			}
			total += best
			continue
		}
		// Large allocations: fall back to the Hungarian solver.
		w := make([][]float64, hi-lo)
		for i := range w {
			w[i] = make([]float64, ev.numFUs)
			for f := 0; f < ev.numFUs; f++ {
				if sets[f] == nil {
					continue
				}
				s := 0
				for _, ci := range sets[f] {
					s += ev.cnt[ci][lo+i]
				}
				w[i][f] = float64(s)
			}
		}
		_, sum, err := matching.MaxWeight(w)
		if err == nil {
			total += int(sum + 0.5)
		}
	}
	return total
}

// table is one search's tabulation of the errors each op contributes under
// every candidate combination: w[j*len(ev.ops)+i] = Σ_{c ∈ combos[j]}
// cnt[c][i]. It is built once per Optimal or Heuristic run and shared,
// read-only, by every sweep of that run.
type table struct {
	ev     *Evaluator
	combos [][]int
	// w is nil on the Hungarian path, whose sweeps call eval per leaf.
	w []int
}

func newTable(ev *Evaluator, combos [][]int) *table {
	tab := &table{ev: ev, combos: combos}
	if ev.assignments == nil {
		return tab
	}
	nops := len(ev.ops)
	tab.w = make([]int, len(combos)*nops)
	for j, combo := range combos {
		row := tab.w[j*nops : (j+1)*nops]
		for _, ci := range combo {
			for i, n := range ev.cnt[ci] {
				row[i] += n
			}
		}
	}
	return tab
}

// sets expands per-FU combination indices (pick[f] for the first len(pick)
// FUs; the rest unlocked) into Eval's candidate index sets.
func (tab *table) sets(pick []int) [][]int {
	sets := make([][]int, tab.ev.numFUs)
	for f, j := range pick {
		sets[f] = tab.combos[j]
	}
	return sets
}

// sweep scores every combination on one locked FU fu, with the FUs below fu
// frozen and those above it unlocked: Optimal's innermost level and each
// Heuristic round. Every injective assignment of a cycle's ops puts at most
// one op on fu, so the cycle's optimum is the better of its best assignment
// with no op on fu and, over each op i, its best with i on fu plus i's
// errors under the swept combination. Those bests depend only on the frozen
// FUs, so reset computes them once and each leaf costs O(ops).
type sweep struct {
	tab *table
	fu  int
	// a0[t] is cycle t's best assignment with no op on fu, floored at 0 as
	// in eval; ai[i] is the best with op i on fu, excluding i's own errors.
	a0, ai []int
	// sets is the Hungarian path's per-leaf scratch.
	sets [][]int
}

// newSweep returns private scratch for one goroutine's sweeps.
func (tab *table) newSweep() *sweep {
	ev := tab.ev
	return &sweep{
		tab:  tab,
		a0:   make([]int, len(ev.start)-1),
		ai:   make([]int, len(ev.ops)),
		sets: make([][]int, ev.numFUs),
	}
}

// reset freezes FU f < fu on combination pick[f], leaves the FUs above fu
// unlocked, and prepares the sweep of fu.
func (s *sweep) reset(pick []int, fu int) {
	tab, ev := s.tab, s.tab.ev
	s.fu = fu
	if tab.w == nil {
		clear(s.sets)
		for f := 0; f < fu; f++ {
			s.sets[f] = tab.combos[pick[f]]
		}
		return
	}
	nops := len(ev.ops)
	for t := range s.a0 {
		lo, hi := ev.start[t], ev.start[t+1]
		s.a0[t] = 0
		for i := lo; i < hi; i++ {
			s.ai[i] = math.MinInt
		}
		for _, as := range ev.assignments[hi-lo] {
			sum, on := 0, -1
			for i, f := range as {
				switch {
				case f == fu:
					on = lo + i
				case f < fu:
					sum += tab.w[pick[f]*nops+lo+i]
				}
			}
			if on < 0 {
				s.a0[t] = max(s.a0[t], sum)
			} else {
				s.ai[on] = max(s.ai[on], sum)
			}
		}
	}
}

// cost returns eval's cost with FU fu on combination j.
func (s *sweep) cost(j int) int {
	tab, ev := s.tab, s.tab.ev
	if tab.w == nil {
		s.sets[s.fu] = tab.combos[j]
		return ev.eval(s.sets)
	}
	nops := len(ev.ops)
	row := tab.w[j*nops : (j+1)*nops]
	total := 0
	for t, best := range s.a0 {
		lo, hi := ev.start[t], ev.start[t+1]
		ai, w := s.ai[lo:hi], row[lo:hi]
		for i, a := range ai {
			best = max(best, a+w[i])
		}
		total += best
	}
	return total
}
