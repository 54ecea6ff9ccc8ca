package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"bindlock/internal/interrupt"
	"bindlock/internal/locking"
	"bindlock/internal/netlist"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/satattack"
)

// ResilienceRow compares Eqn. 1's predicted SAT iterations against the
// measured iteration count of a real SAT attack on an SFLL-locked FU netlist.
type ResilienceRow struct {
	// OperandBits is the FU operand width; the module input space is
	// 2*OperandBits wide and the SFLL key matches it.
	OperandBits int
	KeyBits     int
	// Lambda is Eqn. 1's expected iteration count.
	Lambda float64
	// MeanIterations is the measured mean over the attacked secrets.
	MeanIterations float64
	// MinIterations and MaxIterations bound the per-secret spread.
	MinIterations, MaxIterations int
	Secrets                      int
}

// Resilience runs the empirical validation of Eqn. 1 (experiment E7): for
// each operand width, SFLL-HD(0)-lock an adder on several random secret
// minterms, run the full oracle-guided SAT attack, and compare the measured
// iteration counts with the analytic λ. The attack's elimination order makes
// any single secret fall early or late; the mean over secrets is the
// comparable statistic (λ/2 is the center of the uniform hitting time, and
// Eqn. 1's ceiling-of-expectation sits within 2x of it).
//
// The attacks fan out over the worker pool, widest adders first: attack cost
// grows about fourfold per operand bit, so the longest attacks start while
// the shorter ones fill in around them. An interrupted sweep returns, in the
// given order, exactly the rows of the widths whose secrets all finished.
func Resilience(ctx context.Context, operandBits []int, secretsPer int, seed int64) ([]ResilienceRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hook := progress.FromContext(ctx)
	progress.Start(hook, "resilience", fmt.Sprintf("%d widths x %d secrets", len(operandBits), secretsPer))

	// Fixtures, analytic rows and ALL secrets are produced up front, the
	// secrets in the sequential RNG draw order, so fanning the attacks out
	// below cannot perturb which instances run.
	rng := rand.New(rand.NewSource(seed))
	bases := make([]*netlist.Circuit, len(operandBits))
	rows := make([]ResilienceRow, len(operandBits))
	secrets := make([][]uint64, len(operandBits))
	for wi, w := range operandBits {
		base, err := netlist.NewAdder(w)
		if err != nil {
			return nil, err
		}
		bases[wi] = base
		keyBits := 2 * w
		space := uint64(1) << uint(keyBits)
		lam, err := locking.ExpectedSATIterations(keyBits, 1, 1/float64(space))
		if err != nil {
			return nil, err
		}
		rows[wi] = ResilienceRow{
			OperandBits: w, KeyBits: keyBits, Lambda: lam,
			MinIterations: 1 << 30, Secrets: secretsPer,
		}
		secrets[wi] = make([]uint64, secretsPer)
		for i := range secrets[wi] {
			secrets[wi][i] = rng.Uint64() % space
		}
	}

	// One task per (width, secret) attack instance, widest width first and
	// secrets in draw order within a width; the lock constructors clone the
	// shared base netlists. Task k attacks instance order[k], and instance
	// wi*secretsPer+i is width wi's secret i.
	n := len(operandBits) * secretsPer
	order := largestFirst(n, func(t int) int { return operandBits[t/secretsPer] })
	var ticks atomic.Int64
	iters, done, perr := parallel.Map(ctx, 0, n, func(tctx context.Context, k int) (int, error) {
		wi, i := order[k]/secretsPer, order[k]%secretsPer
		secret := secrets[wi][i]
		lockedC, key, err := netlist.LockSFLLHD0(bases[wi], []uint64{secret})
		if err != nil {
			return 0, err
		}
		oracle := satattack.OracleFromCircuit(lockedC, key)
		res, err := satattack.Attack(tctx, lockedC, oracle, satattack.Options{})
		if err != nil {
			return 0, fmt.Errorf("attack on %d-bit adder (secret %#x): %w", operandBits[wi], secret, err)
		}
		if err := satattack.VerifyKey(tctx, lockedC, res.Key, oracle); err != nil {
			return 0, err
		}
		progress.Tick(hook, "resilience", int(ticks.Add(1)), n)
		return res.Iterations, nil
	})

	// Aggregate, in width order, every width whose secrets all finished.
	measured := make([]int, n)
	finished := make([]bool, n)
	for k, t := range order {
		measured[t], finished[t] = iters[k], done[k]
	}
	out := make([]ResilienceRow, 0, len(operandBits))
	for wi := range operandBits {
		if slices.Contains(finished[wi*secretsPer:(wi+1)*secretsPer], false) {
			continue
		}
		row := rows[wi]
		total := 0
		for i := 0; i < secretsPer; i++ {
			it := measured[wi*secretsPer+i]
			total += it
			if it < row.MinIterations {
				row.MinIterations = it
			}
			if it > row.MaxIterations {
				row.MaxIterations = it
			}
		}
		row.MeanIterations = float64(total) / float64(secretsPer)
		out = append(out, row)
	}
	if perr != nil {
		return out, interrupt.Rewrap("experiments: resilience", perr, out)
	}
	progress.End(hook, "resilience", "")
	return out, nil
}

// EpsilonSweepRow captures the core trade-off of Eqn. 1 at a fixed key
// length: locking more inputs (raising ε via SFLL-HD's h parameter)
// collapses SAT resilience.
type EpsilonSweepRow struct {
	// H is the SFLL-HD Hamming distance; each wrong key corrupts
	// LockedMinterms = C(keyBits, h) protected inputs.
	H              int
	LockedMinterms int
	Lambda         float64
	MeanIterations float64
}

// EpsilonSweep measures the locked-input side of the trade-off on a fixed
// 3-bit adder (6-bit key) by sweeping SFLL-HD's h: ε = C(6,h)/64 grows with
// h while the key length stays fixed, and both Eqn. 1's λ and the measured
// attack iterations collapse accordingly. This is the empirical form of the
// dilemma the paper's binding co-design escapes: more corruption at the
// module level costs SAT resilience.
func EpsilonSweep(ctx context.Context, hs []int, secretsPer int, seed int64) ([]EpsilonSweepRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(seed))
	base, err := netlist.NewAdder(3)
	if err != nil {
		return nil, err
	}
	const keyBits = 6
	space := uint64(1) << keyBits
	rows := make([]EpsilonSweepRow, len(hs))
	secrets := make([][]uint64, len(hs))
	for hi, h := range hs {
		locked := netlist.ProtectedCount(keyBits, h)
		lam, err := locking.ExpectedSATIterations(keyBits, 1, float64(locked)/float64(space))
		if err != nil {
			return nil, err
		}
		rows[hi] = EpsilonSweepRow{H: h, LockedMinterms: locked, Lambda: lam}
		secrets[hi] = make([]uint64, secretsPer)
		for i := range secrets[hi] {
			secrets[hi][i] = rng.Uint64() % space
		}
	}

	n := len(hs) * secretsPer
	iters, done, perr := parallel.Map(ctx, 0, n, func(tctx context.Context, t int) (int, error) {
		hi, i := t/secretsPer, t%secretsPer
		lockedC, keyBitsPattern, err := netlist.LockSFLLHD(base, secrets[hi][i], hs[hi])
		if err != nil {
			return 0, err
		}
		oracle := satattack.OracleFromCircuit(lockedC, keyBitsPattern)
		res, err := satattack.Attack(tctx, lockedC, oracle, satattack.Options{})
		if err != nil {
			return 0, err
		}
		return res.Iterations, nil
	})
	prefix := parallel.Prefix(done)
	out := make([]EpsilonSweepRow, 0, len(hs))
	for hi := range hs {
		if (hi+1)*secretsPer > prefix {
			break
		}
		row := rows[hi]
		total := 0
		for i := 0; i < secretsPer; i++ {
			total += iters[hi*secretsPer+i]
		}
		row.MeanIterations = float64(total) / float64(secretsPer)
		out = append(out, row)
	}
	if perr != nil {
		return out, interrupt.Rewrap("experiments: epsilon sweep", perr, out)
	}
	return out, nil
}
