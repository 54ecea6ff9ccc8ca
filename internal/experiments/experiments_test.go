package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"bindlock/internal/dfg"
)

// smallSuite builds a reduced but end-to-end suite (3 benchmarks, fewer
// samples and assignments) for fast unit testing; cmd/figures runs the full
// configuration.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(context.Background(), Config{
		Samples:        200,
		Seed:           1,
		Candidates:     6,
		MaxAssignments: 40,
		OptimalBudget:  500,
		Benchmarks:     []string{"fir", "jdmerge3", "ecb_enc4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig4SmallSuite(t *testing.T) {
	s := smallSuite(t)
	d, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmarks; ecb_enc4 has no multipliers: 5 (bench, class) groups x
	// 9 configurations.
	if len(d.Cells) != 5*9 {
		t.Fatalf("cells = %d, want 45", len(d.Cells))
	}
	for _, c := range d.Cells {
		if c.ObfVsArea <= 0 || c.ObfVsPower <= 0 || c.CoVsArea <= 0 || c.CoVsPower <= 0 {
			t.Fatalf("non-positive ratio in cell %+v", c)
		}
		if c.Assignments <= 0 {
			t.Fatalf("cell %+v enumerated nothing", c)
		}
		if c.OptRan && c.HeuErrors > c.OptErrors {
			t.Fatalf("heuristic %d beats optimal %d in %s/%v L=%d m=%d",
				c.HeuErrors, c.OptErrors, c.Bench, c.Class, c.LockedFUs, c.LockedInputs)
		}
	}
}

func TestFig4SecurityAwareWins(t *testing.T) {
	// The headline result: security-aware binding must beat the baselines
	// on average, and co-design must beat obfuscation-aware binding.
	s := smallSuite(t)
	d, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h := d.HeadlineStats()
	if h.ObfOverall <= 1.5 {
		t.Errorf("obf-aware overall increase = %.2fx, expected well above 1x", h.ObfOverall)
	}
	if h.CoOverall <= h.ObfOverall {
		t.Errorf("co-design (%.2fx) must beat obf-aware (%.2fx)", h.CoOverall, h.ObfOverall)
	}
	if h.OptimalCells == 0 {
		t.Error("no optimal cells ran despite budget")
	}
	// The paper reports the heuristic within 0.5% of optimal.
	if h.HeuristicGap < 0 || h.HeuristicGap > 0.005 {
		t.Errorf("heuristic gap = %.4f, expected within [0, 0.5%%]", h.HeuristicGap)
	}
	t.Logf("headline: obf %.1fx, co %.1fx, gap %.2f%% over %d optimal cells",
		h.ObfOverall, h.CoOverall, 100*h.HeuristicGap, h.OptimalCells)
}

func TestFig4PerBenchmarkGrouping(t *testing.T) {
	s := smallSuite(t)
	d, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := d.PerBenchmark()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Bench+"/"+r.Class.String()] = true
		if math.IsNaN(r.ObfVsArea) || math.IsNaN(r.CoVsPower) {
			t.Errorf("NaN aggregate in row %+v", r)
		}
	}
	if !seen["ecb_enc4/adder"] || seen["ecb_enc4/multiplier"] {
		t.Errorf("grouping wrong: %v", seen)
	}
}

func TestFig5Aggregation(t *testing.T) {
	s := smallSuite(t)
	d, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f5 := Fig5From(d)
	if len(f5.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (3 FU groups + 3 input groups + avg)", len(f5.Rows))
	}
	if f5.Rows[6].Label != "Avg." {
		t.Fatalf("last row = %q, want Avg.", f5.Rows[6].Label)
	}
	for _, r := range f5.Rows {
		if r.CoVsArea <= 0 || math.IsNaN(r.CoVsArea) {
			t.Errorf("row %s has bad co/area %v", r.Label, r.CoVsArea)
		}
		// The paper's consistency claim: every configuration group stays
		// above 1x for co-design.
		if r.CoVsArea < 1 && r.CoVsPower < 1 {
			t.Errorf("row %s: co-design below 1x on both baselines", r.Label)
		}
	}
}

func TestFig6Overheads(t *testing.T) {
	s := smallSuite(t)
	d, err := s.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(d.Rows))
	}
	// Register overheads must be small (paper: ~4.7 average, bars 0-10).
	for _, r := range d.Rows {
		if r.RegObfAware < -10 || r.RegObfAware > 25 {
			t.Errorf("%s: Δreg obf = %d out of plausible range", r.Bench, r.RegObfAware)
		}
		if r.SwitchObfAware < -0.3 || r.SwitchObfAware > 0.3 {
			t.Errorf("%s: Δswitch obf = %v out of plausible range", r.Bench, r.SwitchObfAware)
		}
	}
	if math.Abs(d.AvgRegObf) > 15 || math.Abs(d.AvgSwitchObf) > 0.2 {
		t.Errorf("averages out of range: %+v", d)
	}
}

func TestResilienceTracksLambda(t *testing.T) {
	rows, err := Resilience(context.Background(), []int{2, 3}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// λ quadruples per operand bit (key grows 2 bits); measured means must
	// preserve the ordering and rough magnitude.
	if rows[1].Lambda <= rows[0].Lambda {
		t.Error("λ must grow with key length")
	}
	if rows[1].MeanIterations <= rows[0].MeanIterations {
		t.Errorf("measured iterations must grow with key length: %v vs %v",
			rows[0].MeanIterations, rows[1].MeanIterations)
	}
	for _, r := range rows {
		if r.MeanIterations < r.Lambda/8 || r.MeanIterations > 2*r.Lambda {
			t.Errorf("width %d: mean %.1f outside [λ/8, 2λ] of λ=%.0f",
				r.OperandBits, r.MeanIterations, r.Lambda)
		}
	}
}

func TestEpsilonSweepCollapse(t *testing.T) {
	rows, err := EpsilonSweep(context.Background(), []int{0, 1, 2}, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More locked minterms -> lower λ and lower measured iterations.
	for i := 1; i < len(rows); i++ {
		if rows[i].Lambda > rows[i-1].Lambda {
			t.Errorf("λ must fall with h: %v", rows)
		}
		if rows[i].MeanIterations > rows[i-1].MeanIterations {
			t.Errorf("measured iterations must fall with h: %+v", rows)
		}
	}
}

func TestRenderers(t *testing.T) {
	s := smallSuite(t)
	d, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFig4(&sb, d)
	RenderFig5(&sb, Fig5From(d))
	f6, err := s.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	RenderFig6(&sb, f6)
	rows, err := Resilience(context.Background(), []int{2}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	RenderResilience(&sb, rows)
	eps, err := EpsilonSweep(context.Background(), []int{0, 1}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	RenderEpsilonSweep(&sb, eps)
	out := sb.String()
	for _, want := range []string{"Figure 4", "Figure 5", "Figure 6", "Eqn. 1",
		"fir", "jdmerge3", "ecb_enc4", "headline", "Avg."} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Samples != 600 || c.Candidates != 10 || c.MaxAssignments != 300 ||
		c.OptimalBudget != 20000 || c.NumFUs != 3 || c.Seed != 1 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestBestPlacement(t *testing.T) {
	totals := [][]int{
		{10, 0}, // FU0
		{1, 5},  // FU1
		{0, 0},  // FU2
	}
	// One set locking candidate 0, one locking candidate 1: best placement
	// puts set0 on FU0 (10) and set1 on FU1 (5).
	got := bestPlacement(totals, [][]int{{0}, {1}})
	if got != 15 {
		t.Fatalf("bestPlacement = %d, want 15", got)
	}
	// A single set: takes the best FU.
	if got := bestPlacement(totals, [][]int{{1}}); got != 5 {
		t.Fatalf("bestPlacement = %d, want 5", got)
	}
}

func TestNewSuiteErrors(t *testing.T) {
	if _, err := NewSuite(context.Background(), Config{Benchmarks: []string{"bogus"}}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestClassesHelper(t *testing.T) {
	s := smallSuite(t)
	for _, p := range s.Prepared() {
		cs := classes(p)
		if p.Bench.Name == "ecb_enc4" {
			if len(cs) != 1 || cs[0] != dfg.ClassAdd {
				t.Errorf("ecb_enc4 classes = %v", cs)
			}
		} else if len(cs) != 2 {
			t.Errorf("%s classes = %v", p.Bench.Name, cs)
		}
	}
}
