package bindlock

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"bindlock/internal/dfg"
	"bindlock/internal/progress"
)

// TestLockAndAttackDeadlinePartial is the issue's acceptance scenario: a SAT
// attack on an SFLL-locked adder whose resilience (λ = 2^16 expected
// iterations) far exceeds a 50ms deadline must return promptly with a typed
// budget error and a populated partial outcome.
func TestLockAndAttackDeadlinePartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	out, err := LockAndAttack(ctx, 8, 0xBEEF)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("attack finished inside 50ms; expected a deadline interruption")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("interrupted attack took %v, want well under 150ms", elapsed)
	}
	if out == nil {
		t.Fatal("partial outcome is nil")
	}
	if out.Iterations <= 0 {
		t.Fatalf("partial outcome has %d iterations, want > 0", out.Iterations)
	}
	if out.KeyBits == 0 || out.GateCount == 0 {
		t.Fatalf("partial outcome not populated: %+v", out)
	}
	got, ok := PartialResult[*AttackOutcome](err)
	if !ok || got != out {
		t.Fatalf("PartialResult = (%v, %v), want the returned outcome", got, ok)
	}
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v does not unwrap to *InterruptError", err)
	}
}

// TestPrepareCancelled checks that an already-cancelled context stops the
// facade flow before any work happens.
func TestPrepareCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Prepare(ctx, quickKernel, WithMaxFUs(2), WithSamples(500))
	if err == nil {
		t.Fatal("Prepare with cancelled context succeeded")
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// traceBytes flattens a workload trace into one byte slice for exact
// comparison.
func traceBytes(t *Trace) []byte {
	var buf bytes.Buffer
	for _, n := range t.Names {
		buf.WriteString(n)
		buf.WriteByte(0)
	}
	for _, s := range t.Samples {
		buf.Write(s)
	}
	return buf.Bytes()
}

// TestPrepareDeterminism is the determinism regression test: two Prepare
// runs with the same seed must produce byte-identical workload traces and
// identical K matrices.
func TestPrepareDeterminism(t *testing.T) {
	mk := func() *Design {
		d, err := Prepare(context.Background(), quickKernel,
			WithMaxFUs(2), WithSamples(250), WithWorkload(WorkloadImageBlocks), WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := mk(), mk()

	if d1.Trace == nil || d2.Trace == nil {
		t.Fatal("Design.Trace not populated by Prepare")
	}
	if !bytes.Equal(traceBytes(d1.Trace), traceBytes(d2.Trace)) {
		t.Fatal("same seed produced different workload traces")
	}
	for id := range d1.G.Ops {
		op := dfg.OpID(id)
		m1, m2 := d1.Res.K.OpMinterms(op), d2.Res.K.OpMinterms(op)
		if len(m1) != len(m2) {
			t.Fatalf("op %d: minterm sets differ in size: %d vs %d", id, len(m1), len(m2))
		}
		for i, m := range m1 {
			if m2[i] != m {
				t.Fatalf("op %d: minterm order differs at %d: %v vs %v", id, i, m, m2[i])
			}
			if c1, c2 := d1.Res.K.Count(m, op), d2.Res.K.Count(m, op); c1 != c2 {
				t.Fatalf("op %d minterm %v: count %d vs %d", id, m, c1, c2)
			}
		}
	}
}

// TestPrepareProgressOption checks that WithProgress receives the simulate
// phase telemetry.
func TestPrepareProgressOption(t *testing.T) {
	var c progress.Counter
	_, err := Prepare(context.Background(), quickKernel,
		WithMaxFUs(2), WithSamples(300), WithProgress(&c))
	if err != nil {
		t.Fatal(err)
	}
	if c.Starts("simulate") != 1 || c.Ends("simulate") != 1 {
		t.Fatalf("simulate phase not reported: starts=%d ends=%d",
			c.Starts("simulate"), c.Ends("simulate"))
	}
}

// TestCoDesignFacadeCancellation cancels a facade co-design mid-search and
// checks the typed error and prompt return.
func TestCoDesignFacadeCancellation(t *testing.T) {
	d, err := PrepareBenchmark(context.Background(), "dct",
		WithMaxFUs(3), WithSamples(300), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cands := d.Candidates(ClassAdd, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = d.CoDesignOptimal(ctx, ClassAdd, 2, 3, cands)
	if err == nil {
		t.Fatal("cancelled co-design succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled co-design took %v", elapsed)
	}
}
