package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"bindlock/internal/interrupt"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
)

// TestAssignmentSpaceSaturates is the regression test for the truncated
// partial product: the old guard broke out of the multiply loop with `total`
// holding only the factors accumulated so far, so stride sampling covered a
// biased low-index subspace. The saturating product always dominates every
// in-range space.
func TestAssignmentSpaceSaturates(t *testing.T) {
	cases := []struct {
		nCombos, lockedFUs int
		want               int64
	}{
		{120, 1, 120},
		{120, 2, 14400},
		{120, 3, 1728000}, // the sweep's largest default space
		{1, 5, 1},
		{45, 0, 1},
		// 120^10 ≈ 6.2e20 overflows the old int guard; it saturates now.
		{120, 10, spaceCap},
		// 2^31 FU choices at 2 locked FUs exceed 2^62 exactly at the edge.
		{1 << 31, 2, spaceCap},
	}
	for _, c := range cases {
		if got := assignmentSpace(c.nCombos, c.lockedFUs); got != c.want {
			t.Errorf("assignmentSpace(%d, %d) = %d, want %d", c.nCombos, c.lockedFUs, got, c.want)
		}
	}
	if spaceCap != 4611686018427387904 {
		t.Fatalf("spaceCap = %d, want 1<<62", spaceCap)
	}
}

// TestStrideIndexPinned pins the sampled indices, saturated and not: the
// stride must span the whole space instead of the old truncated prefix.
func TestStrideIndexPinned(t *testing.T) {
	// Unsaturated: plain floor(j*total/n).
	if got := strideIndex(2, 40, 1728000); got != 86400 {
		t.Errorf("strideIndex(2, 40, 1728000) = %d, want 86400", got)
	}
	// Saturated: 4 samples stride the full 2^62 space in quarters. The
	// pre-fix arithmetic would have overflowed int64 at j*total here.
	want := []int64{0, 1152921504606846976, 2305843009213693952, 3458764513820540928}
	for j, w := range want {
		if got := strideIndex(j, 4, spaceCap); got != w {
			t.Errorf("strideIndex(%d, 4, cap) = %d, want %d", j, got, w)
		}
	}
	// The last of n samples stays strictly inside the space.
	if got := strideIndex(299, 300, spaceCap); got < 0 || got >= spaceCap {
		t.Errorf("strideIndex(299, 300, cap) = %d outside [0, cap)", got)
	}
}

// cellsBitIdentical compares Fig4Data bit-for-bit, treating float fields by
// their IEEE-754 bits so that NaN placeholders (optimal pass skipped) compare
// equal when — and only when — they are the same bit pattern.
func cellsBitIdentical(t *testing.T, a, b *Fig4Data) {
	t.Helper()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		va, vb := reflect.ValueOf(a.Cells[i]), reflect.ValueOf(b.Cells[i])
		for f := 0; f < va.NumField(); f++ {
			fa, fb := va.Field(f), vb.Field(f)
			name := va.Type().Field(f).Name
			if fa.Kind() == reflect.Float64 {
				if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
					t.Fatalf("cell %d field %s: %v vs %v", i, name, fa.Float(), fb.Float())
				}
				continue
			}
			if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
				t.Fatalf("cell %d field %s: %v vs %v", i, name, fa.Interface(), fb.Interface())
			}
		}
	}
}

// TestResilienceParallelDeterminism: pre-drawn secrets and aggregation by
// instance keep the SAT-attack sweep identical across worker counts, with
// three widths so that widest-first dispatch reorders the tasks.
func TestResilienceParallelDeterminism(t *testing.T) {
	seq, err := Resilience(parallel.NewContext(context.Background(), 1), []int{1, 2, 3}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Resilience(parallel.NewContext(context.Background(), 4), []int{1, 2, 3}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel rows differ:\nseq %+v\npar %+v", seq, par)
	}
	if len(seq) != 3 || seq[0].OperandBits != 1 || seq[2].OperandBits != 3 {
		t.Fatalf("rows %+v, want widths 1, 2, 3 in order", seq)
	}
}

// TestResilienceInterruptedKeepsFinishedWidths cancels a -j 1 sweep just
// after the first attack on a width: the wider widths have finished (they
// run first) and no other has, so the interrupted sweep returns exactly
// those rows, in ascending width order, as the uninterrupted sweep computes
// them.
func TestResilienceInterruptedKeepsFinishedWidths(t *testing.T) {
	widths, secrets := []int{1, 2, 3}, 3
	full, err := Resilience(parallel.NewContext(context.Background(), 1), widths, secrets, 5)
	if err != nil {
		t.Fatal(err)
	}
	for finished := 1; finished <= 2; finished++ {
		ctx, cancel := context.WithCancel(parallel.NewContext(context.Background(), 1))
		hook := progress.Func(func(ev progress.Event) {
			if ev.Kind == progress.Step && ev.Phase == "resilience" && ev.Done == finished*secrets+1 {
				cancel()
			}
		})
		rows, err := Resilience(progress.NewContext(ctx, hook), widths, secrets, 5)
		cancel()
		if !errors.Is(err, interrupt.ErrCancelled) {
			t.Fatalf("%d widths finished: err = %v, want a cancellation", finished, err)
		}
		if want := full[len(full)-finished:]; !reflect.DeepEqual(rows, want) {
			t.Fatalf("%d widths finished: rows %+v, want %+v", finished, rows, want)
		}
		if partial, ok := interrupt.Partial[[]ResilienceRow](err); !ok || !reflect.DeepEqual(partial, rows) {
			t.Fatalf("%d widths finished: partial rows %+v not carried by the error", finished, partial)
		}
	}
}

// TestFig4ParallelDeterminism asserts the tentpole guarantee at the sweep
// level: Fig4 output is bit-identical across worker counts.
func TestFig4ParallelDeterminism(t *testing.T) {
	s := smallSuite(t)
	s.Cfg.Parallelism = 1
	seq, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		s.Cfg.Parallelism = workers
		par, err := s.Fig4(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cellsBitIdentical(t, seq, par)
	}
}
