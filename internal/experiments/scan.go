package experiments

import (
	"context"
	"fmt"
	"io"

	"bindlock/internal/binding"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/elaborate"
	"bindlock/internal/netlist"
	"bindlock/internal/parallel"
	"bindlock/internal/satattack"
)

// ScanRow reports experiment E12: budgeted SAT attacks against one
// co-designed locked benchmark, with scan access (the attacker isolates the
// locked FU and attacks its 16-bit module space — the paper's Sec. II-A
// threat model) and without (the attacker sees only the primary I/O of the
// whole elaborated datapath). The defence claim: within realistic DIP
// budgets neither attack recovers the exact key, and the approximate keys
// both leave the co-designed application corruption intact.
type ScanRow struct {
	Bench string
	// DesignGates and DesignInputs size the no-scan attack surface.
	DesignGates, DesignInputs int
	// KeyBits is the shared lock key length.
	KeyBits int
	// CoSampleRate is the workload corruption of the lock under a generic
	// wrong key (the designer's intent).
	CoSampleRate float64

	// Scan: budgeted module attack.
	ScanIterations  int
	ScanExact       bool
	ScanSampleRate  float64 // workload corruption under the scan-recovered key
	NoScanIters     int
	NoScanExact     bool
	NoScanRate      float64 // workload corruption under the no-scan-recovered key
	NoScanErrSample float64 // attacker-visible random-input error of that key
}

// ScanSpec names one E12 run: a benchmark and the FU class to lock.
type ScanSpec struct {
	Bench string
	Class dfg.Class
}

// ScanSweep runs E12 on each spec with the given DIP budget. It fans out
// over the worker pool configured on ctx (see internal/parallel) in two flat
// task lists: first one task per spec that builds its design, then one task
// per budgeted attack (two per spec, no scan and scan), each with the
// corruption sweep of the key it recovers, dispatched largest attacked
// circuit first. Rows come back in spec order, identical to running the
// specs one by one.
func ScanSweep(ctx context.Context, specs []ScanSpec, budget, samples int, seed int64) ([]*ScanRow, error) {
	designs, _, err := parallel.Map(ctx, 0, len(specs), func(tctx context.Context, i int) (*scanDesign, error) {
		return newScanDesign(parallel.Sequential(tctx), specs[i], samples, seed)
	})
	if err != nil {
		return nil, err
	}

	// Attack t targets spec t/2: the whole design when t is even, the
	// isolated module when it is odd.
	target := func(t int) (*netlist.Circuit, []bool) {
		d := designs[t/2]
		if t%2 == 0 {
			return d.locked.Circuit, d.locked.CorrectKey
		}
		return d.module, d.moduleKey
	}
	order := largestFirst(2*len(specs), func(t int) int {
		c, _ := target(t)
		return c.LogicGates()
	})

	attacks, _, err := parallel.Map(ctx, 0, len(order), func(tctx context.Context, i int) (*scanAttack, error) {
		t := order[i]
		c, key := target(t)
		return designs[t/2].attack(parallel.Sequential(tctx), c, key, budget, seed)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]*ScanRow, len(specs))
	for i, d := range designs {
		rows[i] = d.row
	}
	for i, a := range attacks {
		row := rows[order[i]/2]
		if order[i]%2 == 0 {
			row.NoScanIters, row.NoScanExact = a.iterations, a.exact
			row.NoScanErrSample, row.NoScanRate = a.estErrorRate, a.sampleRate
		} else {
			row.ScanIterations, row.ScanExact, row.ScanSampleRate = a.iterations, a.exact, a.sampleRate
		}
	}
	return rows, nil
}

// ScanAccess runs E12 on one benchmark with the given DIP budget: a
// one-spec ScanSweep.
func ScanAccess(ctx context.Context, benchName string, class dfg.Class, budget, samples int, seed int64) (*ScanRow, error) {
	rows, err := ScanSweep(ctx, []ScanSpec{{Bench: benchName, Class: class}}, budget, samples, seed)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// scanDesign is one E12 spec, built: the co-designed locked datapath, its
// unlocked twin as the reference for corruption sweeps, the workload as
// input patterns, and the locked FU isolated as a standalone module.
type scanDesign struct {
	row       *ScanRow
	locked    *elaborate.Result
	reference satattack.Oracle
	patterns  [][]bool
	module    *netlist.Circuit
	moduleKey []bool
}

// newScanDesign prepares the benchmark, co-designs a single-FU,
// single-minterm lock (a 16-bit key), elaborates the design with and without
// it, measures the corruption of a generic wrong key and locks the module.
func newScanDesign(ctx context.Context, spec ScanSpec, samples int, seed int64) (*scanDesign, error) {
	s, err := NewSuite(ctx, Config{Samples: samples, Seed: seed, Benchmarks: []string{spec.Bench}})
	if err != nil {
		return nil, err
	}
	p, class := s.preps[0], spec.Class
	if !p.HasClass(class) {
		return nil, fmt.Errorf("experiments: %s has no %v operations", spec.Bench, class)
	}
	cands, _ := candidateList(p, class, s.Cfg.Candidates)

	co, err := codesign.Heuristic(ctx, p.G, p.Res.K,
		codesignOptions(class, s.Cfg.NumFUs, 1, 1, cands, s.Cfg.OptimalBudget))
	if err != nil {
		return nil, err
	}
	bindings := map[dfg.Class]*binding.Binding{class: co.Binding}
	for _, other := range []dfg.Class{dfg.ClassAdd, dfg.ClassMul} {
		if other == class || !p.HasClass(other) {
			continue
		}
		area, _, err := bindBaselines(p, other, s.Cfg.NumFUs)
		if err != nil {
			return nil, err
		}
		bindings[other] = area
	}
	locked, err := elaborate.Design(p.G, bindings, co.Cfg)
	if err != nil {
		return nil, err
	}
	clean, err := elaborate.Design(p.G, bindings, nil)
	if err != nil {
		return nil, err
	}
	d := &scanDesign{
		row: &ScanRow{
			Bench:        spec.Bench,
			DesignGates:  locked.Circuit.LogicGates(),
			DesignInputs: len(locked.Circuit.Inputs),
			KeyBits:      len(locked.CorrectKey),
		},
		locked:    locked,
		reference: satattack.OracleFromCircuit(clean.Circuit, nil),
		patterns:  make([][]bool, len(p.Trace.Samples)),
	}
	for i, sample := range p.Trace.Samples {
		d.patterns[i] = elaborate.PackInputs(sample)
	}

	// Designer's view: a generic wrong key (one bit off the correct key).
	generic := append([]bool(nil), locked.CorrectKey...)
	generic[0] = !generic[0]
	if d.row.CoSampleRate, err = d.sampleRate(ctx, generic); err != nil {
		return nil, err
	}

	// Scan: the attacker isolates the locked FU as a standalone module over
	// its own 16-bit input space (the Sec. II-A model).
	minterm := co.Cfg.Locks[0].Minterms[0]
	pattern := uint64(minterm.A()) | uint64(minterm.B())<<elaborate.Width
	var moduleBase *netlist.Circuit
	if class == dfg.ClassMul {
		moduleBase, err = netlist.NewMultiplier(elaborate.Width)
	} else {
		moduleBase, err = netlist.NewAdder(elaborate.Width)
	}
	if err != nil {
		return nil, err
	}
	if d.module, d.moduleKey, err = netlist.LockSFLLHD0(moduleBase, []uint64{pattern}); err != nil {
		return nil, err
	}
	return d, nil
}

// sampleRate is the workload corruption of the locked design under key: the
// fraction of workload samples on which some output differs from the
// unlocked design's.
func (d *scanDesign) sampleRate(ctx context.Context, key []bool) (float64, error) {
	wrong, err := satattack.ErrorCount(ctx, d.locked.Circuit, key, d.reference, d.patterns)
	if err != nil {
		return 0, err
	}
	return float64(wrong) / float64(len(d.patterns)), nil
}

// scanAttack is one budgeted E12 attack and the workload corruption of the
// key it recovers.
type scanAttack struct {
	iterations   int
	exact        bool
	estErrorRate float64
	sampleRate   float64
}

// attack runs the budgeted approximate attack on c, locked under correctKey
// (the whole design or the module), and sweeps the design's workload
// corruption under the recovered key.
func (d *scanDesign) attack(ctx context.Context, c *netlist.Circuit, correctKey []bool, budget int, seed int64) (*scanAttack, error) {
	res, err := satattack.ApproxAttack(ctx, c, satattack.OracleFromCircuit(c, correctKey),
		satattack.ApproxOptions{MaxIterations: budget, Seed: seed, ErrorSamples: 400})
	if err != nil {
		return nil, err
	}
	a := &scanAttack{iterations: res.Iterations, exact: res.Exact, estErrorRate: res.EstErrorRate}
	if a.sampleRate, err = d.sampleRate(ctx, res.Key); err != nil {
		return nil, err
	}
	return a, nil
}

// RenderScan prints E12 rows.
func RenderScan(w io.Writer, rows []*ScanRow) {
	fmt.Fprintln(w, "Scan-access experiment: budgeted SAT attacks on the elaborated gate-level")
	fmt.Fprintln(w, "design (no scan) and on the isolated locked FU module (scan, Sec. II-A model)")
	rule(w, 86)
	fmt.Fprintf(w, "%-10s %7s %7s %6s | %14s | %14s | %10s\n",
		"benchmark", "gates", "inputs", "key", "scan DIPs/err", "noscan DIPs/err", "wrong-key")
	rule(w, 86)
	for _, r := range rows {
		mark := func(exact bool) string {
			if exact {
				return "!"
			}
			return ""
		}
		fmt.Fprintf(w, "%-10s %7d %7d %6d | %6d%s %6.3f | %6d%s %8.3f | %10.3f\n",
			r.Bench, r.DesignGates, r.DesignInputs, r.KeyBits,
			r.ScanIterations, mark(r.ScanExact), r.ScanSampleRate,
			r.NoScanIters, mark(r.NoScanExact), r.NoScanRate,
			r.CoSampleRate)
	}
	rule(w, 86)
	fmt.Fprintln(w, "columns: workload sample-error rates under the attack-recovered keys and under")
	fmt.Fprintln(w, "a generic wrong key; '!' marks an exact recovery. expected: within budget both")
	fmt.Fprintln(w, "attacks stay approximate and the co-designed corruption survives")
}
