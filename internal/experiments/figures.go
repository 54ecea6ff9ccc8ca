package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bindlock/internal/dfg"
)

// reproScanSpecs are the E12 runs of a full reproduction.
var reproScanSpecs = []ScanSpec{
	{Bench: "jdmerge1", Class: dfg.ClassMul},
	{Bench: "fir", Class: dfg.ClassAdd},
	{Bench: "dct", Class: dfg.ClassAdd},
}

// Regenerate renders the figures named by fig to w, as cmd/figures prints
// them: "all" renders every table in the order below, any of "4", "5", "6",
// "corruption", "scan", "resilience", "stability" or "eps" renders one, and
// any other name renders nothing. A timed stage ends with a line
// "[<stage> regenerated in <wall time>]", the only output that differs from
// run to run. secrets is the secret count per key width of E7 and E7b. With
// csvDir set, each figure that has a CSV form is also written there, and a
// "[wrote <path>]" line follows it. As given, before Config's defaults
// apply, cfg.Samples also sizes the scan experiment's workloads and
// cfg.Seed also seeds the scan, resilience and epsilon experiments.
func Regenerate(ctx context.Context, w io.Writer, cfg Config, fig string, secrets int, csvDir string) error {
	want := func(names ...string) bool {
		for _, n := range names {
			if fig == n || fig == "all" {
				return true
			}
		}
		return false
	}
	writeCSV := func(name string, write func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		path := filepath.Join(csvDir, name+".csv")
		file, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("csv %s: %w", name, err)
		}
		err = write(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("csv %s: %w", name, err)
		}
		fmt.Fprintf(w, "[wrote %s]\n", path)
		return nil
	}
	timed := func(name string, run func() error) error {
		start := time.Now()
		if err := run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	var suite *Suite
	if want("4", "5", "6", "corruption") {
		var err error
		if suite, err = NewSuite(ctx, cfg); err != nil {
			return err
		}
	}
	if want("4", "5") {
		var sweep *Fig4Data
		if err := timed("sweep", func() (err error) {
			sweep, err = suite.Fig4(ctx)
			return err
		}); err != nil {
			return err
		}
		if want("4") {
			RenderFig4(w, sweep)
			if err := writeCSV("fig4", sweep.WriteFig4CSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		if want("5") {
			f5 := Fig5From(sweep)
			RenderFig5(w, f5)
			if err := writeCSV("fig5", f5.WriteFig5CSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	steps := []struct {
		fig, name string
		run       func() error
	}{
		{"6", "figure 6", func() error {
			d, err := suite.Fig6(ctx)
			if err != nil {
				return err
			}
			RenderFig6(w, d)
			return writeCSV("fig6", d.WriteFig6CSV)
		}},
		{"corruption", "corruption", func() error {
			rows, err := suite.OutputCorruption(ctx)
			if err != nil {
				return err
			}
			RenderCorruption(w, rows)
			return writeCSV("corruption", func(w io.Writer) error { return WriteCorruptionCSV(w, rows) })
		}},
		{"scan", "scan access", func() error {
			rows, err := ScanSweep(ctx, reproScanSpecs, 12, cfg.Samples, cfg.Seed)
			if err != nil {
				return err
			}
			RenderScan(w, rows)
			return nil
		}},
		{"resilience", "resilience", func() error {
			rows, err := Resilience(ctx, []int{2, 3, 4}, secrets, cfg.Seed)
			if err != nil {
				return err
			}
			RenderResilience(w, rows)
			return writeCSV("resilience", func(w io.Writer) error { return WriteResilienceCSV(w, rows) })
		}},
		{"stability", "seed stability", func() error {
			s, err := SeedStability(ctx, cfg, []int64{1, 2, 3, 4, 5})
			if err != nil {
				return err
			}
			RenderStability(w, s)
			return nil
		}},
		{"eps", "epsilon sweep", func() error {
			rows, err := EpsilonSweep(ctx, []int{0, 1, 2}, secrets, cfg.Seed)
			if err != nil {
				return err
			}
			RenderEpsilonSweep(w, rows)
			return nil
		}},
	}
	for _, s := range steps {
		if !want(s.fig) {
			continue
		}
		if err := timed(s.name, s.run); err != nil {
			return err
		}
	}
	return nil
}
