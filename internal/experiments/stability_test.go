package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestSeedStability(t *testing.T) {
	cfg := Config{
		Samples:        200,
		Candidates:     6,
		MaxAssignments: 40,
		OptimalBudget:  -1, // skip optimal: stability concerns the means
		Benchmarks:     []string{"fir", "jdmerge4", "dct"},
	}
	s, err := SeedStability(context.Background(), cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// The reproduction's core conclusions must hold on every seed.
	if !s.AllSeedsCoBeatsObf {
		t.Error("co-design lost to obf-aware on some seed")
	}
	if !s.AllSeedsAboveUnityMargin {
		t.Error("obf-aware fell to within 2x of the baseline on some seed")
	}
	if s.MeanCo <= s.MeanObf {
		t.Errorf("mean co %.2f <= mean obf %.2f", s.MeanCo, s.MeanObf)
	}
	if s.StdObf < 0 || s.StdCo < 0 {
		t.Error("negative stdev")
	}
	var sb strings.Builder
	RenderStability(&sb, s)
	if !strings.Contains(sb.String(), "Seed stability") || !strings.Contains(sb.String(), "±") {
		t.Error("render incomplete")
	}
}

func TestSeedStabilityNoSeeds(t *testing.T) {
	if _, err := SeedStability(context.Background(), Config{}, nil); err == nil {
		t.Fatal("empty seed list must error")
	}
}

// TestSeedStabilityParallelDeterminism: the per-(seed, benchmark) fan-out
// gives the same table at -j 1 and -j 4, and each seed's headline equals
// that of a Fig. 4 sweep over a suite prepared under that seed.
func TestSeedStabilityParallelDeterminism(t *testing.T) {
	cfg := Config{
		Samples:        150,
		Candidates:     6,
		MaxAssignments: 30,
		OptimalBudget:  200,
		Benchmarks:     []string{"fir", "jdmerge3", "ecb_enc4"},
	}
	seeds := []int64{1, 4}
	run := func(j int) *Stability {
		c := cfg
		c.Parallelism = j
		s, err := SeedStability(context.Background(), c, seeds)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		return s
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("tables differ between -j 1 and -j 4:\nseq %+v\npar %+v", seq, par)
	}
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := NewSuite(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Fig4(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h := d.HeadlineStats()
		want := StabilityRow{Seed: seed, ObfOverall: h.ObfOverall, CoOverall: h.CoOverall, HeuristicGap: h.HeuristicGap}
		if seq.Rows[i] != want {
			t.Errorf("seed %d: row %+v, Fig. 4 sweep %+v", seed, seq.Rows[i], want)
		}
	}
}
