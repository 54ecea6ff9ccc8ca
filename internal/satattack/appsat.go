package satattack

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/progress"
	"bindlock/internal/sat"
)

// This file implements an AppSAT-style approximate attack: run the exact
// SAT attack with an early-termination DIP budget, take its best candidate
// key, and estimate that key's error rate by random oracle queries.
//
// Against high-corruption locking the approximate attack recovers an exact
// or near-exact key almost immediately. Against critical-minterm locking it
// also returns a low-error key quickly — but that key still corrupts the
// protected minterms, which is precisely why the paper can afford few locked
// inputs as long as binding routes the workload onto them (and why
// approximation-resilience arguments [12] favour the critical-minterm
// family).

// ApproxOptions tunes the approximate attack.
type ApproxOptions struct {
	// MaxIterations is the early-termination DIP budget (default 16).
	MaxIterations int
	// ErrorSamples is the number of random queries used to estimate the
	// candidate key's error rate (default 2000).
	ErrorSamples int
	// Seed drives the random error-estimation queries.
	Seed int64
	// MaxConflicts bounds each SAT call, routed through the backend factory
	// so every solver the attack creates is bounded consistently.
	MaxConflicts int64
	// Solver names the registered sat backend to solve with ("" means
	// sat.DefaultBackend).
	Solver string
	// Backend, when non-nil, supplies the solver factory directly and takes
	// precedence over Solver.
	Backend sat.Factory
	// Retry tunes per-query oracle retry (zero value: single attempt).
	Retry RetryPolicy
	// Votes is the number of oracle queries per DIP and per error sample,
	// folded per output bit by majority vote (default 1).
	Votes int
	// Quorum is the minimum agreeing votes per output bit (default simple
	// majority, Votes/2+1).
	Quorum int
}

// ApproxResult reports an approximate attack.
type ApproxResult struct {
	// Key is the best candidate key after the DIP budget.
	Key []bool
	// Iterations is the number of DIPs actually used.
	Iterations int
	// Exact records whether the DIP loop converged (miter UNSAT) within
	// the budget — the key is then provably correct.
	Exact bool
	// EstErrorRate is the sampled fraction of inputs on which the
	// candidate key disagrees with the oracle.
	EstErrorRate float64
	// Duration is the wall time of the attack.
	Duration time.Duration
}

const approxOp = "satattack: approx attack"

// ApproxAttack runs the early-terminating SAT attack against the locked
// circuit: Attack with MaxIterations set to the DIP budget, then the error
// estimation. Cancellation is honoured per DIP and per error-estimation
// sample; an interrupted run returns the partial ApproxResult alongside the
// typed interruption error.
func ApproxAttack(ctx context.Context, locked *netlist.Circuit, oracle Oracle, opts ApproxOptions) (*ApproxResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := opts.MaxIterations
	if budget == 0 {
		budget = 16
	}
	samples := opts.ErrorSamples
	if samples == 0 {
		samples = 2000
	}
	hook := progress.FromContext(ctx)
	progress.Start(hook, "approx-attack", locked.Name)
	start := time.Now()
	ares, err := Attack(ctx, locked, oracle, Options{
		MaxIterations: budget, MaxConflicts: opts.MaxConflicts,
		Solver: opts.Solver, Backend: opts.Backend,
		Retry: opts.Retry, Votes: opts.Votes, Quorum: opts.Quorum,
	})
	res := &ApproxResult{}
	if ares != nil {
		res.Key, res.Iterations = ares.Key, ares.Iterations
	}
	switch {
	case err == nil:
		// The miter went UNSAT within the budget: the key is provably correct.
		res.Exact = true
	case errors.Is(err, ErrIterationBudget) && res.Key != nil:
		// Budget spent: the key is the approximate candidate.
	case ares != nil && (errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded)):
		res.Duration = time.Since(start)
		progress.End(hook, "approx-attack", fmt.Sprintf("interrupted after %d DIPs", res.Iterations))
		return res, interrupt.Rewrap(approxOp, err, res)
	default:
		return nil, err
	}

	// Estimate the candidate key's error rate by random queries, drawn
	// sample by sample from the seeded stream and compared 64 at a time.
	q := newQuerier(oracle, opts.Retry, opts.Votes, opts.Quorum, metrics.FromContext(ctx))
	rng := rand.New(rand.NewSource(opts.Seed))
	v := newVerifier(ctx, locked, res.Key, oracle, q)
	err = v.sample(samples, func(_ int, in []bool) {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
	})
	if err != nil {
		if !errors.Is(err, interrupt.ErrCancelled) && !errors.Is(err, interrupt.ErrBudgetExceeded) {
			return nil, fmt.Errorf("satattack: approx error estimation: %w", err)
		}
		// Cut short: the rate over the samples compared before the
		// interruption.
		if v.compared > 0 {
			res.EstErrorRate = float64(v.wrong) / float64(v.compared)
		}
		res.Duration = time.Since(start)
		progress.End(hook, "approx-attack", "interrupted during error estimation")
		return res, interrupt.Rewrap(approxOp, err, res)
	}
	res.EstErrorRate = float64(v.wrong) / float64(samples)
	res.Duration = time.Since(start)
	progress.End(hook, "approx-attack", fmt.Sprintf("%d DIPs, est err %.3f", res.Iterations, res.EstErrorRate))
	return res, nil
}
