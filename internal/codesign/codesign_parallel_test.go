package codesign

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"bindlock/internal/dfg"
	"bindlock/internal/interrupt"
	"bindlock/internal/locking"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

// wideOptions builds a configuration whose enumeration is large enough to
// shard meaningfully: (12 choose 2)^2 = 4356 combinations.
func wideOptions(t *testing.T) ([]dfg.Minterm, Options) {
	t.Helper()
	var cands []dfg.Minterm
	for i := 0; i < 12; i++ {
		cands = append(cands, dfg.CanonMinterm(dfg.Add, uint8(10+i), uint8(40+i)))
	}
	return cands, Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 2,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
}

// TestOptimalParallelDeterminism asserts the tentpole guarantee for the
// exact enumeration: the Result — winning configuration included, since ties
// break toward the lowest lexicographic combination index — is identical at
// every worker count.
func TestOptimalParallelDeterminism(t *testing.T) {
	g, k := fig1(t)
	_, o := wideOptions(t)
	seq, err := Optimal(parallel.NewContext(context.Background(), 1), g, k, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := Optimal(parallel.NewContext(context.Background(), workers), g, k, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel Result differs from sequential:\nseq %+v\npar %+v",
				workers, seq.Cfg, par.Cfg)
		}
	}
}

// TestHeuristicParallelDeterminism does the same for the P-time algorithm,
// whose rounds must ignore the worker count.
func TestHeuristicParallelDeterminism(t *testing.T) {
	g, k := fig1(t)
	_, o := wideOptions(t)
	seq, err := Heuristic(parallel.NewContext(context.Background(), 1), g, k, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := Heuristic(parallel.NewContext(context.Background(), workers), g, k, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel Result differs from sequential:\nseq %+v\npar %+v",
				workers, seq.Cfg, par.Cfg)
		}
	}
}

// TestOptimalParallelCancellation cancels a sharded enumeration mid-flight
// and checks the typed error still carries a usable best-so-far Result.
func TestOptimalParallelCancellation(t *testing.T) {
	g, k := fig1(t)
	_, o := wideOptions(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int64
	hooked := progress.NewContext(ctx, progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Phase == "codesign" && steps.Add(1) == 2 {
			cancel()
		}
	}))
	res, err := Optimal(parallel.NewContext(hooked, 4), g, k, o)
	if err == nil {
		t.Fatal("cancelled enumeration returned nil error")
	}
	if !errors.Is(err, interrupt.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res != nil {
		// A partial solution, when delivered, must be fully costed and
		// carried by the typed error too.
		if res.Errors < 0 || res.Cfg == nil || res.Binding == nil {
			t.Fatalf("partial result not costed: %+v", res)
		}
		if p, ok := interrupt.Partial[*Result](err); !ok || p != res {
			t.Fatal("typed error does not carry the partial Result")
		}
	}
}
