package satattack

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/progress"
)

// refErrorCount is the scalar corruption sweep ErrorCount replaces: per
// pattern, evaluate the locked side, query the oracle, count a pattern whose
// outputs differ anywhere.
func refErrorCount(locked *netlist.Circuit, key []bool, oracle Oracle, patterns [][]bool) (int, error) {
	wrong := 0
	for _, in := range patterns {
		got, err := locked.Eval(in, key)
		if err != nil {
			return 0, err
		}
		want, err := oracle.Query(in)
		if err != nil {
			return 0, err
		}
		for i := range got {
			if got[i] != want[i] {
				wrong++
				break
			}
		}
	}
	return wrong, nil
}

// randomPatterns draws n input patterns for c from a seeded stream.
func randomPatterns(c *netlist.Circuit, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bool, n)
	for s := range out {
		out[s] = make([]bool, len(c.Inputs))
		for i := range out[s] {
			out[s][i] = rng.Intn(2) == 1
		}
	}
	return out
}

// xorLockedAdder XOR-locks an 8-bit adder, a lock whose wrong keys corrupt
// a large share of the input space.
func xorLockedAdder(t *testing.T) (*netlist.Circuit, []bool) {
	t.Helper()
	base, err := netlist.NewAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockXOR(base, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return locked, key
}

// flip returns key with the given bits inverted.
func flip(key []bool, bits ...int) []bool {
	out := append([]bool(nil), key...)
	for _, b := range bits {
		out[b] = !out[b]
	}
	return out
}

// TestErrorCountMatchesScalar checks the 64-lane corruption sweep against
// the scalar one on 600 patterns (nine full blocks and a 24-pattern tail),
// through the lane oracle and through a wrapped one that is queried pattern
// by pattern, including a cyclic key whose lanes do not settle.
func TestErrorCountMatchesScalar(t *testing.T) {
	xor, xorKey := xorLockedAdder(t)
	cyc, cycCorrect, latching, cycWrong := cyclicKeys(t)
	for _, tc := range []struct {
		name        string
		locked      *netlist.Circuit
		key, oracle []bool
		wantWrong   bool // the reference counts at least one wrong pattern
		wantErr     bool
	}{
		{"xor-correct", xor, xorKey, xorKey, false, false},
		{"xor-wrong", xor, flip(xorKey, 7), xorKey, true, false},
		{"cyclic-wrong", cyc, cycWrong, cycCorrect, true, false},
		{"cyclic-latching", cyc, latching, cycCorrect, false, true},
	} {
		patterns := randomPatterns(tc.locked, 600, 11)
		if tc.locked == cyc {
			// Every 8-input pattern, then a repeat: the latching and wrong
			// keys fail somewhere in it.
			patterns = patterns[:0]
			for s := 0; s < 600; s++ {
				patterns = append(patterns, netlist.Uint64ToBits(uint64(s%256), len(cyc.Inputs)))
			}
		}
		base := OracleFromCircuit(tc.locked, tc.oracle)
		queries := 0
		counted := OracleFunc(func(in []bool) ([]bool, error) {
			queries++
			return base.Query(in)
		})
		ref, refErr := refErrorCount(tc.locked, tc.key, counted, patterns)
		refQueries := queries
		if (refErr != nil) != tc.wantErr || (ref > 0) != tc.wantWrong {
			t.Fatalf("%s: reference %d wrong, err %v", tc.name, ref, refErr)
		}
		for _, o := range []struct {
			name   string
			oracle Oracle
		}{{"circuit", base}, {"func", counted}} {
			queries = 0
			got, err := ErrorCount(context.Background(), tc.locked, tc.key, o.oracle, patterns)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("%s/%s: err %v, reference %v", tc.name, o.name, err, refErr)
			}
			if err == nil && got != ref {
				t.Errorf("%s/%s: %d wrong, reference %d", tc.name, o.name, got, ref)
			}
			if o.name == "func" && queries != refQueries {
				t.Errorf("%s/%s: %d queries, reference %d", tc.name, o.name, queries, refQueries)
			}
		}
	}
}

// refEstimate is ApproxAttack's scalar error estimation: per sample, draw
// the pattern from the seeded stream, evaluate the locked side and ask the
// querier, with the interruption check before every 256th sample. It
// returns the rate over the samples compared.
func refEstimate(ctx context.Context, locked *netlist.Circuit, key []bool, q *querier, seed int64, samples int) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	wrong := 0
	for s := 0; s < samples; s++ {
		if s%256 == 0 {
			if err := interrupt.Check(ctx, approxOp, nil); err != nil {
				if s == 0 {
					return 0, err
				}
				return float64(wrong) / float64(s), err
			}
		}
		in := make([]bool, len(locked.Inputs))
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		got, err := locked.Eval(in, key)
		if err != nil {
			return 0, err
		}
		want, err := q.query(ctx, in)
		if err != nil {
			return 0, err
		}
		for i := range got {
			if got[i] != want[i] {
				wrong++
				break
			}
		}
	}
	return float64(wrong) / float64(samples), nil
}

// estimationOracle wraps a circuit oracle for one approximate attack: it
// counts the queries made after the DIP loop ends (the error estimation)
// and cancels the attack's context on the cancelAt-th of them (0: never).
type estimationOracle struct {
	base       Oracle
	lanes      bool // expose the base oracle itself, so the estimate runs on lanes
	estimating bool
	queries    int
	cancelAt   int
	cancel     context.CancelFunc
}

func (e *estimationOracle) oracle() Oracle {
	if e.lanes {
		return e.base
	}
	return OracleFunc(func(in []bool) ([]bool, error) {
		if e.estimating {
			e.queries++
			if e.queries == e.cancelAt {
				e.cancel()
			}
		}
		return e.base.Query(in)
	})
}

// OnProgress marks the end of the DIP loop.
func (e *estimationOracle) OnProgress(ev progress.Event) {
	if ev.Kind == progress.PhaseEnd && ev.Phase == "attack" {
		e.estimating = true
	}
}

// TestApproxEstimateMatchesScalar checks ApproxAttack's 64-lane error
// estimate against the scalar loop it replaces, on 400 samples (six full
// blocks and a 16-sample tail) and on 600 cut short by cancellation: the
// same rate over the samples compared, and for a wrapped oracle the same
// query count and retry_* metrics.
func TestApproxEstimateMatchesScalar(t *testing.T) {
	locked, correct := xorLockedAdder(t)
	for _, tc := range []struct {
		name     string
		lanes    bool
		votes    int
		samples  int
		cancelAt int // cancel on this estimation query (wrapped oracle only)
		cutShort bool
	}{
		{name: "lanes", lanes: true, samples: 400},
		{name: "lanes-votes", lanes: true, votes: 3, samples: 400},
		{name: "func", samples: 400},
		{name: "func-votes", votes: 3, samples: 400},
		{name: "func-cancelled", samples: 600, cancelAt: 300, cutShort: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ApproxOptions{MaxIterations: 2, ErrorSamples: tc.samples, Seed: 5, Votes: tc.votes}

			// Reference: the same DIP loop, then the scalar estimate.
			refReg := metrics.New()
			refCtx, refCancel := context.WithCancel(metrics.NewContext(context.Background(), refReg))
			defer refCancel()
			refOracle := &estimationOracle{base: OracleFromCircuit(locked, correct), lanes: tc.lanes, cancelAt: tc.cancelAt, cancel: refCancel}
			o := refOracle.oracle()
			ares, err := Attack(progress.NewContext(refCtx, refOracle), locked, o, Options{MaxIterations: 2, Votes: tc.votes})
			if !errors.Is(err, ErrIterationBudget) {
				t.Fatalf("reference attack: %v", err)
			}
			refOracle.estimating = true
			q := newQuerier(o, RetryPolicy{}, tc.votes, 0, refReg)
			refRate, refErr := refEstimate(refCtx, locked, ares.Key, q, opts.Seed, tc.samples)
			if (refErr != nil) != tc.cutShort {
				t.Fatalf("reference estimate: %v", refErr)
			}
			if refRate == 0 {
				t.Fatal("reference estimate saw no wrong sample; the case tests nothing")
			}

			reg := metrics.New()
			ctx, cancel := context.WithCancel(metrics.NewContext(context.Background(), reg))
			defer cancel()
			eo := &estimationOracle{base: OracleFromCircuit(locked, correct), lanes: tc.lanes, cancelAt: tc.cancelAt, cancel: cancel}
			res, err := ApproxAttack(progress.NewContext(ctx, eo), locked, eo.oracle(), opts)
			if tc.cutShort {
				if !errors.Is(err, interrupt.ErrCancelled) {
					t.Fatalf("err %v, want a cancellation", err)
				}
				if p, ok := interrupt.Partial[*ApproxResult](err); !ok || p != res {
					t.Fatalf("partial result %v not carried by the error", p)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if res.EstErrorRate != refRate {
				t.Errorf("EstErrorRate %v, reference %v", res.EstErrorRate, refRate)
			}
			if eo.queries != refOracle.queries {
				t.Errorf("%d estimation queries, reference %d", eo.queries, refOracle.queries)
			}
			snap, refSnap := reg.Snapshot(), refReg.Snapshot()
			for _, name := range []string{"retry_votes_total", "retry_oracle_attempts_total", "retry_oracle_failures_total", "retry_quorum_failures_total"} {
				got, _ := snap.Counter(name)
				want, _ := refSnap.Counter(name)
				if got != want {
					t.Errorf("%s = %d, reference %d", name, got, want)
				}
			}
		})
	}
}

// TestApproxEstimateCancelledBeforeSampling cancels the lane-path estimate
// before its first block: no sample is compared, so the rate stays 0.
func TestApproxEstimateCancelledBeforeSampling(t *testing.T) {
	locked, correct := xorLockedAdder(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := progress.Func(func(ev progress.Event) {
		if ev.Kind == progress.PhaseEnd && ev.Phase == "attack" {
			cancel()
		}
	})
	res, err := ApproxAttack(progress.NewContext(ctx, hook), locked, OracleFromCircuit(locked, correct),
		ApproxOptions{MaxIterations: 2, ErrorSamples: 400, Seed: 5})
	if !errors.Is(err, interrupt.ErrCancelled) {
		t.Fatalf("err %v, want a cancellation", err)
	}
	if res == nil || res.Key == nil || res.EstErrorRate != 0 || res.Iterations != 2 {
		t.Fatalf("partial result %+v", res)
	}
}
