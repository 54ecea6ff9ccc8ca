package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bindlock/internal/dfg"
	"bindlock/internal/parallel"
)

func TestScanAccessExperiment(t *testing.T) {
	row, err := ScanAccess(context.Background(), "jdmerge1", dfg.ClassMul, 12, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if row.KeyBits != 16 {
		t.Fatalf("key bits = %d, want 16 (1 FU x 1 minterm)", row.KeyBits)
	}
	if row.DesignGates <= 0 || row.DesignInputs != 24 { // y, cb, cr
		t.Fatalf("surface: %d gates, %d inputs", row.DesignGates, row.DesignInputs)
	}
	// The designer's wrong-key corruption must be visible.
	if row.CoSampleRate <= 0 {
		t.Fatal("generic wrong key corrupts nothing; lock ineffective")
	}
	// Within a 12-DIP budget against a 16-bit key space neither attack can
	// converge exactly (2^16 candidates, O(1) eliminated per DIP).
	if row.ScanExact || row.NoScanExact {
		t.Fatalf("attack converged exactly within budget: scan=%v noscan=%v",
			row.ScanExact, row.NoScanExact)
	}
	if row.ScanIterations != 12 || row.NoScanIters != 12 {
		t.Fatalf("iterations = %d/%d, want full budget", row.ScanIterations, row.NoScanIters)
	}
	// The approximate keys must leave application corruption in place —
	// the protected minterm is still wrong under (almost) any wrong key.
	if row.ScanSampleRate <= 0 && row.NoScanRate <= 0 {
		t.Error("both approximate keys eliminated all corruption; defence claim broken")
	}

	var sb strings.Builder
	RenderScan(&sb, []*ScanRow{row})
	if !strings.Contains(sb.String(), "jdmerge1") || !strings.Contains(sb.String(), "Scan-access") {
		t.Error("render incomplete")
	}
}

func TestScanAccessErrors(t *testing.T) {
	if _, err := ScanAccess(context.Background(), "ecb_enc4", dfg.ClassMul, 4, 50, 1); err == nil {
		t.Fatal("ecb_enc4 has no multipliers; must error")
	}
	if _, err := ScanAccess(context.Background(), "nope", dfg.ClassAdd, 4, 50, 1); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// TestScanSweepParallelDeterminism: the flat, largest-first attack fan-out
// gives the same rows at -j 1 and -j 4, and each row equals its spec's
// ScanAccess run alone.
func TestScanSweepParallelDeterminism(t *testing.T) {
	specs := []ScanSpec{
		{Bench: "jdmerge1", Class: dfg.ClassMul},
		{Bench: "fir", Class: dfg.ClassAdd},
		{Bench: "jdmerge3", Class: dfg.ClassAdd},
	}
	const budget, samples, seed = 6, 200, 3
	seq, err := ScanSweep(parallel.NewContext(context.Background(), 1), specs, budget, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ScanSweep(parallel.NewContext(context.Background(), 4), specs, budget, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("rows differ between -j 1 and -j 4:\nseq %+v\npar %+v", seq, par)
	}
	for i, spec := range specs {
		alone, err := ScanAccess(context.Background(), spec.Bench, spec.Class, budget, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq[i], alone) {
			t.Errorf("%s: swept row %+v, alone %+v", spec.Bench, seq[i], alone)
		}
	}
}
