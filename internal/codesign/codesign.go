// Package codesign implements binding–obfuscation co-design (Sec. V of the
// paper): choosing the binding and the locked input minterms together to
// maximise locking-induced application errors.
//
// Two algorithms are provided. Optimal enumerates every combination of
// candidate locked inputs for every locked FU — ((|C| choose |M|))^|L|
// combinations — applying obfuscation-informed binding to each; it is exact
// but exponential. Heuristic is the paper's P-time algorithm: it fixes locked
// FUs one at a time, enumerating combinations only for the FU under
// consideration with all previously fixed FUs locked and the rest unlocked
// (Sec. V-A, steps 1–5). The paper measures the heuristic within 0.5% of
// optimal; the experiment harness reproduces that comparison.
package codesign

import (
	"context"
	"fmt"
	"sync/atomic"

	"bindlock/internal/binding"
	"bindlock/internal/dfg"
	"bindlock/internal/interrupt"
	"bindlock/internal/locking"
	"bindlock/internal/metrics"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/sim"
)

// Options configures a co-design run.
type Options struct {
	Class dfg.Class
	// NumFUs is the allocation size R.
	NumFUs int
	// LockedFUs is |L|: FUs 0..LockedFUs-1 are locked.
	LockedFUs int
	// MintermsPerFU is |M_l|, identical for each locked FU (as in the
	// paper's evaluation sweep).
	MintermsPerFU int
	// Candidates is the designer-specified candidate locked input list C.
	Candidates []dfg.Minterm
	// Scheme is the critical-minterm scheme realising the lock.
	Scheme locking.Scheme
	// MaxEnumerations bounds the optimal algorithm's combination count;
	// 0 applies DefaultMaxEnumerations. The heuristic ignores it.
	MaxEnumerations int
	// DegradeToHeuristic makes Optimal fall back to Heuristic instead of
	// failing when the enumeration exceeds the budget. The result then has
	// Degraded set so callers can tell an exact optimum from a fallback.
	DegradeToHeuristic bool
}

// DefaultMaxEnumerations caps the optimal algorithm's search size.
const DefaultMaxEnumerations = 400000

// Result is a co-designed locking configuration with its binding and cost.
type Result struct {
	Cfg     *locking.Config
	Binding *binding.Binding
	// Errors is the Eqn. 2 application error count of the solution.
	Errors int
	// Enumerated is the number of locked-input combinations evaluated.
	Enumerated int
	// Degraded reports that Optimal exceeded its enumeration budget and
	// fell back to the heuristic (Options.DegradeToHeuristic): the result
	// is a good solution, not a provable optimum.
	Degraded bool
}

func (o *Options) check(g *dfg.Graph, k *sim.KMatrix) error {
	if g == nil || k == nil {
		return fmt.Errorf("codesign: graph and K matrix required")
	}
	if o.LockedFUs < 1 || o.LockedFUs > o.NumFUs {
		return fmt.Errorf("codesign: locked FU count %d outside [1, %d]", o.LockedFUs, o.NumFUs)
	}
	if o.MintermsPerFU < 1 || o.MintermsPerFU > len(o.Candidates) {
		return fmt.Errorf("codesign: %d minterms per FU with %d candidates", o.MintermsPerFU, len(o.Candidates))
	}
	if !o.Scheme.CriticalMinterm() {
		return fmt.Errorf("codesign: scheme %v cannot pin locked inputs", o.Scheme)
	}
	if o.NumFUs < g.MaxConcurrency(o.Class) {
		return fmt.Errorf("codesign: allocation %d below max concurrency %d",
			o.NumFUs, g.MaxConcurrency(o.Class))
	}
	seen := map[dfg.Minterm]bool{}
	for _, m := range o.Candidates {
		if seen[m] {
			return fmt.Errorf("codesign: duplicate candidate %v", m)
		}
		seen[m] = true
	}
	return nil
}

// configFor materialises a locking configuration from per-FU candidate index
// sets.
func (o *Options) configFor(sets [][]int) *locking.Config {
	cfg := &locking.Config{Class: o.Class, NumFUs: o.NumFUs}
	for fu, set := range sets {
		if set == nil {
			continue
		}
		ms := make([]dfg.Minterm, len(set))
		for i, ci := range set {
			ms[i] = o.Candidates[ci]
		}
		cfg.Locks = append(cfg.Locks, locking.FULock{
			FU: fu, Scheme: o.Scheme, Minterms: ms, KeyBits: locking.DefaultKeyBits,
		})
	}
	return cfg
}

// finalize runs the official obfuscation-aware binder on the winning
// configuration and packages the result. The binding phase is the one
// non-enumeration cost of a co-design run, so it gets its own timing.
func finalize(ctx context.Context, g *dfg.Graph, k *sim.KMatrix, o *Options, sets [][]int, enumerated int) (*Result, error) {
	mreg := metrics.FromContext(ctx)
	defer mreg.Timer("binding_bind_seconds")()
	mreg.Add("binding_bind_total", 1)
	cfg := o.configFor(sets)
	b, err := (binding.ObfuscationAware{}).Bind(&binding.Problem{
		G: g, Class: o.Class, NumFUs: o.NumFUs, K: k, Lock: cfg,
	})
	if err != nil {
		return nil, err
	}
	e, err := binding.ApplicationErrors(g, k, cfg, b)
	if err != nil {
		return nil, err
	}
	return &Result{Cfg: cfg, Binding: b, Errors: e, Enumerated: enumerated}, nil
}

// ctxEvery is the candidate-evaluation stride between context checks in the
// enumeration loops: cheap evals dominate, so checking every leaf would cost
// more than the work it guards.
const ctxEvery = 256

// Optimal runs the exact co-design algorithm. It returns an error when the
// enumeration exceeds the configured budget ("this results in a
// non-polynomial runtime", Sec. V-B); callers wanting an any-size answer
// should use Heuristic. Cancellation is checked every few hundred candidate
// evaluations; an interrupted search returns the best solution found so far
// (bound and costed) alongside the typed interruption error.
func Optimal(ctx context.Context, g *dfg.Graph, k *sim.KMatrix, o Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.check(g, k); err != nil {
		return nil, err
	}
	combos := combinations(len(o.Candidates), o.MintermsPerFU)
	total := 1
	budget := o.MaxEnumerations
	if budget == 0 {
		budget = DefaultMaxEnumerations
	}
	for i := 0; i < o.LockedFUs; i++ {
		if total > budget/len(combos)+1 {
			total = budget + 1
			break
		}
		total *= len(combos)
	}
	if total > budget {
		if o.DegradeToHeuristic {
			// Graceful degradation (the paper's own answer to the
			// non-polynomial runtime, Sec. V-C): hand the instance to the
			// polynomial heuristic and mark the result as inexact.
			mreg := metrics.FromContext(ctx)
			mreg.Add("codesign_degraded_total", 1)
			res, err := Heuristic(ctx, g, k, o)
			if res != nil {
				res.Degraded = true
			}
			return res, err
		}
		return nil, fmt.Errorf("codesign: optimal enumeration of %d^%d combinations exceeds budget %d",
			len(combos), o.LockedFUs, budget)
	}

	hook := progress.FromContext(ctx)
	progress.Start(hook, "codesign", fmt.Sprintf("optimal over %d combinations", total))
	mreg := metrics.FromContext(ctx)
	defer mreg.Timer("codesign_seconds")()
	tab := newTable(newEvaluator(g, k, &o), combos)

	// The combination space shards by top-level (FU 0) combination: one task
	// per combination, each enumerating its subtree sequentially with private
	// scratch state against the shared immutable table, and sweeping the
	// innermost locked FU in one pass per prefix. With a single locked FU
	// the shard is its one leaf. The sequential enumeration keeps the FIRST
	// maximum in lexicographic leaf order, which the merge reproduces: strict
	// > within each subtree, then strict > across subtrees in ascending task
	// order.
	last := o.LockedFUs - 1
	var ticks atomic.Int64
	subs, done, perr := parallel.Map(ctx, 0, len(combos), func(tctx context.Context, ti int) (subtree, error) {
		st := subtree{bestE: -1}
		sw := tab.newSweep()
		pick := make([]int, o.LockedFUs)
		pick[0] = ti
		var rec func(fu int) error
		rec = func(fu int) error {
			if fu < last {
				for j := range combos {
					pick[fu] = j
					if err := rec(fu + 1); err != nil {
						return err
					}
				}
				return nil
			}
			lo, hi := 0, len(combos)
			if last == 0 {
				lo, hi = ti, ti+1
			}
			sw.reset(pick, last)
			// The check/tick stride counts leaves globally across shards;
			// each sweep reserves its leaves' ticks with one atomic add.
			tick := ticks.Add(int64(hi-lo)) - int64(hi-lo)
			for j := lo; j < hi; j++ {
				st.enumerated++
				if tick++; tick%ctxEvery == 0 {
					if cerr := interrupt.Check(tctx, "codesign: optimal", nil); cerr != nil {
						return cerr
					}
					progress.Tick(hook, "codesign", int(tick), total)
				}
				if e := sw.cost(j); e > st.bestE {
					st.bestE = e
					pick[last] = j
					st.bestPick = append(st.bestPick[:0], pick...)
				}
			}
			return nil
		}
		return st, rec(min(1, last))
	})
	best := subtree{bestE: -1}
	enumerated := 0
	for i, st := range subs {
		if !done[i] {
			continue
		}
		enumerated += st.enumerated
		if st.bestE > best.bestE {
			best = st
		}
	}
	mreg.Add("codesign_evaluated_total", int64(enumerated))
	if perr != nil {
		// Leaves the interruption cut off: the gap to the planned total.
		mreg.Add("codesign_pruned_total", int64(total-enumerated))
		return interruptedResult(ctx, g, k, &o, tab.sets(best.bestPick), enumerated, "codesign: optimal", perr, hook)
	}
	progress.End(hook, "codesign", fmt.Sprintf("optimal: %d evaluated", enumerated))
	return finalize(ctx, g, k, &o, tab.sets(best.bestPick), enumerated)
}

// subtree is one shard's outcome in the exact enumeration: the best
// per-FU combination indices seen, their cost, and the leaves evaluated.
type subtree struct {
	bestE      int
	bestPick   []int
	enumerated int
}

// interruptedResult packages the best-so-far candidate sets of a cancelled
// enumeration: the partial solution is bound and costed like a final one so
// callers get a usable configuration, then attached to the typed error.
func interruptedResult(ctx context.Context, g *dfg.Graph, k *sim.KMatrix, o *Options, bestSets [][]int, enumerated int, op string, cause error, hook progress.Hook) (*Result, error) {
	progress.End(hook, "codesign", fmt.Sprintf("interrupted after %d evaluations", enumerated))
	any := false
	for _, s := range bestSets {
		if s != nil {
			any = true
			break
		}
	}
	if !any {
		return nil, interrupt.Rewrap(op, cause, nil)
	}
	res, err := finalize(ctx, g, k, o, bestSets, enumerated)
	if err != nil {
		return nil, interrupt.Rewrap(op, cause, nil)
	}
	return res, interrupt.Rewrap(op, cause, res)
}

// Heuristic runs the paper's P-time sequential algorithm: locked FUs are
// processed one at a time; for the FU under consideration every candidate
// combination is tried (with previously fixed FUs locked and later FUs
// unlocked) and the best is frozen before moving on. Each round is one
// sweep of that FU over the search's table.
// Cancellation is checked every few hundred candidate evaluations; an
// interrupted search returns the configuration frozen so far.
func Heuristic(ctx context.Context, g *dfg.Graph, k *sim.KMatrix, o Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.check(g, k); err != nil {
		return nil, err
	}
	combos := combinations(len(o.Candidates), o.MintermsPerFU)
	total := len(combos) * o.LockedFUs
	hook := progress.FromContext(ctx)
	progress.Start(hook, "codesign", fmt.Sprintf("heuristic over %d combinations per FU", len(combos)))
	mreg := metrics.FromContext(ctx)
	defer mreg.Timer("codesign_seconds")()
	tab := newTable(newEvaluator(g, k, &o), combos)
	sw := tab.newSweep()
	pick := make([]int, o.LockedFUs)
	ticks := 0
	// round sweeps FU fu and returns its first best combination.
	round := func(fu int) (int, error) {
		if err := interrupt.Check(ctx, "codesign: heuristic", nil); err != nil {
			return 0, err
		}
		sw.reset(pick, fu)
		bestE, bestJ := -1, 0
		for j := range combos {
			if ticks++; ticks%ctxEvery == 0 {
				if err := interrupt.Check(ctx, "codesign: heuristic", nil); err != nil {
					return 0, err
				}
				progress.Tick(hook, "codesign", ticks, total)
			}
			if e := sw.cost(j); e > bestE {
				bestE, bestJ = e, j
			}
		}
		return bestJ, nil
	}
	enumerated := 0
	for fu := 0; fu < o.LockedFUs; fu++ {
		j, err := round(fu)
		if err != nil {
			// The interrupted round is dropped: the partial result is the
			// FUs frozen so far.
			mreg.Add("codesign_evaluated_total", int64(enumerated))
			mreg.Add("codesign_pruned_total", int64(total-enumerated))
			return interruptedResult(ctx, g, k, &o, tab.sets(pick[:fu]), enumerated, "codesign: heuristic", err, hook)
		}
		enumerated += len(combos)
		mreg.Add("codesign_rounds_total", 1)
		pick[fu] = j
	}
	mreg.Add("codesign_evaluated_total", int64(enumerated))
	progress.End(hook, "codesign", fmt.Sprintf("heuristic: %d evaluated", enumerated))
	return finalize(ctx, g, k, &o, tab.sets(pick), enumerated)
}

// Combinations returns all k-subsets of {0..n-1} in lexicographic order.
// The co-design algorithms enumerate these; the experiment harness reuses
// them to sweep locked-input identities.
func Combinations(n, k int) [][]int {
	return combinations(n, k)
}

// combinations returns all k-subsets of {0..n-1} in lexicographic order,
// sharing one backing array.
func combinations(n, k int) [][]int {
	count := 1
	for i := 0; i < k; i++ {
		count = count * (n - i) / (i + 1)
	}
	out := make([][]int, 0, count)
	flat := make([]int, 0, count*k)
	idx := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			flat = append(flat, idx...)
			out = append(out, flat[len(flat)-k:len(flat):len(flat)])
			return
		}
		for i := start; i <= n-(k-pos); i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return out
}
