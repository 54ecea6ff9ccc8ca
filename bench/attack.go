package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bindlock"
	"bindlock/internal/netlist"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
)

// The SFLL kernel attacks stop after sfllDIPBudget DIPs or when one solve
// exhausts sfllConflictCap conflicts. A kernel whose miter collapses within
// the budget (jctrans2 after 2 DIPs at every seed tried) otherwise spends
// 12–20 s in one terminal UNSAT; the cap turns that solve into a fixed
// amount of solver work that a faster miter encoding can still finish
// inside, recovering the key instead. The cap is set so a capped kernel
// costs about what a budget-ended one does (0.2–0.8 s), because which
// kernels collapse early changes with the seed.
const (
	sfllDIPBudget   = 24
	sfllConflictCap = 10000
)

// sfllVariants is how many kernel lock sets attack-sfll draws from the
// run's seed, one per pass: the seed picks each kernel's locked minterm,
// and with it whether the kernel ends on the DIP budget or the cap, which
// moved the 11-kernel pass between 3.7 and 5.3 s over seeds 11–20.
const sfllVariants = 7

// sfllAdderSecrets are the width-4 SFLL-HD(0) adder secrets recovered to a
// verified key in every attack-sfll pass. They are fixed, not drawn from the
// seed: the time to a key varies 500-fold with the secret (0.5–260 ms at
// width 4), so a seeded draw of a few secrets would move wall_s between
// seeds by far more than any code change worth detecting.
var sfllAdderSecrets = []uint64{0, 32, 64, 96, 128, 160, 192, 224}

// cyclicKernels are attacked under SRCLock-style cyclic locks. noisest2 has
// large single solves whose time stays within 0.2–1.0 s over placement
// seeds 1–12, and VerifyKey's 2^16-pattern sweep (about 2.6 s) still takes
// most of its time to a key. motion3 solves longer but ranges from 65 ms to
// 66 s with the placement seed, and fft from 12 ms to 2.9 s; adding a
// verify-only kernel such as jdmerge1 would split each pass into two
// clusters of request latency and leave p50_ms between them.
var cyclicKernels = []string{"noisest2"}

const (
	cyclicEdges  = 2
	cyclicDecoys = 2
)

// instance is one locked circuit an attack workload recovers a key for.
type instance struct {
	name   string
	locked *netlist.Circuit
	key    []bool
	opts   satattack.Options
}

// outcome is how one attack ended. It is a pure function of the instance,
// so it must repeat exactly in every pass, traced or not.
type outcome struct {
	end  string // "key", "dip-budget" or "conflict-cap"
	dips int
	key  string
}

// cyclicVariants is how many cyclic placements attack-cyclic draws from the
// run's seed, one per pass. noisest2's attack takes 0.2–1.3 s depending on
// the placement, so a run that repeated one placement would carry that
// draw's hardness into every pass; over eight placements the median pass
// settles near the median placement.
const cyclicVariants = 8

func runAttackSFLL(ctx context.Context, r *run) error {
	return runAttacks(ctx, r, sfllVariants, func(tr *tracer, parent int, seed int64) ([]*instance, error) {
		kernels, secrets := kernelNames(), sfllAdderSecrets
		if r.cfg.short {
			kernels, secrets = []string{"jdmerge1"}, secrets[6:7]
		}
		var insts []*instance
		for _, name := range kernels {
			ed, err := elaborateKernel(ctx, tr, parent, name, seed, true)
			if err != nil {
				return nil, err
			}
			insts = append(insts, &instance{name: name, locked: ed.Circuit, key: ed.CorrectKey,
				opts: satattack.Options{MaxIterations: sfllDIPBudget, MaxConflicts: sfllConflictCap}})
		}
		for _, s := range secrets {
			in := &instance{name: fmt.Sprintf("adder4/secret=%d", s)}
			err := tr.timed(parent, "netlist.lock", in.name, func() error {
				base, err := netlist.NewAdder(4)
				if err != nil {
					return err
				}
				in.locked, in.key, err = netlist.LockSFLLHD0(base, []uint64{s})
				return err
			})
			if err != nil {
				return nil, err
			}
			insts = append(insts, in)
		}
		return insts, nil
	})
}

func runAttackCyclic(ctx context.Context, r *run) error {
	return runAttacks(ctx, r, cyclicVariants, func(tr *tracer, parent int, seed int64) ([]*instance, error) {
		if r.cfg.short {
			// A width-4 adder keeps VerifyKey at 256 patterns instead of 2^16.
			in := &instance{name: "adder4", opts: satattack.Options{CycleBreak: true}}
			err := tr.timed(parent, "netlist.lock", in.name, func() error {
				base, err := netlist.NewAdder(4)
				if err != nil {
					return err
				}
				in.locked, in.key, err = netlist.LockCyclic(base, cyclicEdges, cyclicDecoys, seed)
				return err
			})
			return []*instance{in}, err
		}
		var insts []*instance
		for _, name := range cyclicKernels {
			ed, err := elaborateKernel(ctx, tr, parent, name, seed, false)
			if err != nil {
				return nil, err
			}
			in := &instance{name: name, opts: satattack.Options{CycleBreak: true}}
			err = tr.timed(parent, "netlist.lock", name, func() error {
				var err error
				in.locked, in.key, err = netlist.LockCyclic(ed.Circuit, cyclicEdges, cyclicDecoys, seed)
				return err
			})
			if err != nil {
				return nil, err
			}
			insts = append(insts, in)
		}
		return insts, nil
	})
}

func kernelNames() []string {
	var names []string
	for _, b := range bindlock.Benchmarks() {
		names = append(names, b.Name)
	}
	return names
}

// elaborateKernel runs the front-of-line flow on one kernel: prepare (2 FUs
// per class, 120 samples, the run's seed), then either an SFLL lock of the
// top candidate minterm with obfuscation-aware binding of its class (sfll),
// or area binding of every class and no lock (the base a cyclic lock goes
// on), and elaboration to a gate-level netlist.
func elaborateKernel(ctx context.Context, tr *tracer, parent int, name string, seed int64, sfll bool) (*bindlock.ElaboratedDesign, error) {
	var d *bindlock.Design
	err := tr.timed(parent, "mediabench.prepare", name, func() error {
		var err error
		d, err = bindlock.PrepareBenchmark(ctx, name,
			bindlock.WithMaxFUs(2), bindlock.WithSamples(120), bindlock.WithSeed(seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	bindings := map[bindlock.Class]*bindlock.Binding{}
	var lock *bindlock.LockConfig
	err = tr.timed(parent, "binding.bind", name, func() error {
		for _, class := range []bindlock.Class{bindlock.ClassAdd, bindlock.ClassMul} {
			if len(d.G.OpsOfClass(class)) == 0 {
				continue
			}
			if sfll && lock == nil {
				cands := d.Candidates(class, 1)
				if len(cands) == 0 {
					return fmt.Errorf("%s: no candidate minterms for class %v", name, class)
				}
				var err error
				if lock, err = d.NewLockConfig(class, 1, [][]bindlock.Minterm{cands[:1]}); err != nil {
					return err
				}
				if bindings[class], err = d.BindObfuscationAware(class, lock); err != nil {
					return err
				}
				continue
			}
			var err error
			if bindings[class], err = d.BindBaseline(class, "area"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var ed *bindlock.ElaboratedDesign
	err = tr.timed(parent, "elaborate.design", name, func() error {
		var err error
		ed, err = d.Elaborate(bindings, lock)
		return err
	})
	return ed, err
}

// runAttacks is the attack workloads' measured phase. Set-up builds
// nVariants instance sets, variant v from seed·nVariants+v. Pass i attacks
// every instance of one variant, cycling, verifies each recovered key, and
// checks that each outcome repeats the outcome of any earlier pass over the
// same variant. A traced run alternates untraced and traced passes over the
// same variant, so every traced outcome is compared with an untraced one;
// the traced passes give the per-layer breakdown.
func runAttacks(ctx context.Context, r *run, nVariants int, build func(tr *tracer, parent int, seed int64) ([]*instance, error)) error {
	variants, setupRoot, err := setUp(r, func(tr *tracer, parent int) ([][]*instance, error) {
		var vs [][]*instance
		for v := range nVariants {
			insts, err := build(tr, parent, r.cfg.seed*int64(nVariants)+int64(v))
			if err != nil {
				return nil, err
			}
			vs = append(vs, insts)
		}
		return vs, nil
	}, nil)
	if err != nil {
		return err
	}
	seen := map[string]outcome{}
	var walls, tracedWalls, lat, keyS []float64
	var budgetDIPs, budgetS float64
	var roots []int
	minPasses := 1
	if r.cfg.trace {
		minPasses = 2
	}
	err = r.measure(minPasses, func(i int) error {
		v, traced := i%nVariants, false
		var tr *tracer
		if r.cfg.trace {
			v, traced = i/2%nVariants, i%2 == 1
		}
		if traced {
			tr = r.tr
		}
		root := tr.begin(0, "pass", fmt.Sprintf("%d/variant%d", i, v))
		start := time.Now()
		passKey := 0.0
		var passLat []float64
		for _, in := range variants[v] {
			o, attackS, verifyS, err := attackInstance(ctx, in, tr, root)
			if err != nil {
				r.fail("%s variant %d pass %d: %v", in.name, v, i, err)
				continue
			}
			id := fmt.Sprintf("%d/%s", v, in.name)
			prev, ok := seen[id]
			if !ok {
				seen[id], prev = o, o
			}
			r.check(o == prev, "%s variant %d pass %d: outcome %+v, earlier pass %+v", in.name, v, i, o, prev)
			r.check(o.end != "dip-budget" || o.dips == in.opts.MaxIterations,
				"%s: stopped on the DIP budget after %d DIPs", in.name, o.dips)
			passLat = append(passLat, (attackS+verifyS)*1000)
			switch o.end {
			case "key":
				passKey += attackS + verifyS
			case "dip-budget":
				budgetDIPs += float64(o.dips)
				budgetS += attackS
			}
		}
		tr.end(root, nil)
		wall := time.Since(start).Seconds()
		if traced {
			tracedWalls = append(tracedWalls, wall)
			roots = append(roots, root)
			return nil
		}
		walls = append(walls, wall)
		lat = append(lat, passLat...)
		keyS = append(keyS, passKey)
		return nil
	})
	if err != nil {
		return err
	}
	if !r.cfg.trace {
		r.set("wall_s", median(walls), len(walls))
		r.set("p50_ms", median(lat), len(lat))
		return nil
	}
	r.set("satattack.key_s", median(keyS), len(keyS))
	r.set("satattack.dips_per_s", ratio(budgetDIPs, budgetS), int(budgetDIPs))
	setupLayers(r, setupRoot)
	secs, counts, unattributed := r.tr.passTotals(roots)
	n := float64(len(roots))
	perPass := func(name string, v float64) { r.set(name, v/n, len(roots)) }
	solveS := float64(counts["solve_ns"]) / 1e9
	oracleS := float64(counts["oracle_ns"]) / 1e9
	perPass("satattack.attack_s", secs["satattack.attack"])
	perPass("satattack.attack_self_s", secs["satattack.attack"]-solveS-oracleS)
	perPass("satattack.verify_s", secs["satattack.verify"])
	perPass("satattack.dips", float64(counts["dips"]))
	perPass("sat.solve_s", solveS)
	perPass("sat.solve_calls", float64(counts["solve_calls"]))
	perPass("sat.terminal_unsat_s", float64(counts["terminal_ns"])/1e9)
	perPass("sat.conflicts", float64(counts["conflicts"]))
	perPass("sat.propagations", float64(counts["propagations"]))
	perPass("cnf.clauses", float64(counts["clauses"]))
	perPass("cnf.vars", float64(counts["vars"]))
	r.set("cnf.clauses_per_dip", ratio(float64(counts["clauses"]), float64(counts["dips"])), int(counts["dips"]))
	perPass("netlist.oracle_s", oracleS)
	perPass("netlist.oracle_queries", float64(counts["oracle_queries"]))
	perPass("unattributed_s", unattributed)
	r.set("bench.trace_overhead", median(tracedWalls)/median(walls)-1, len(tracedWalls))
	return nil
}

// setupLayers reports the traced set-up's spans per layer.
func setupLayers(r *run, setupRoot int) {
	secs, _, _ := r.tr.passTotals([]int{setupRoot})
	for _, l := range []string{"mediabench.prepare", "binding.bind", "elaborate.design", "netlist.lock"} {
		r.set(l+"_s", secs[l], 1)
	}
}

// attackInstance attacks one instance and verifies a recovered key. In a
// traced pass the attack runs on a counting solver backend and a timing
// oracle, and its span carries their counts; VerifyKey always queries the
// plain oracle, so its span is the whole sweep.
func attackInstance(ctx context.Context, in *instance, tr *tracer, parent int) (o outcome, attackS, verifyS float64, err error) {
	opts := in.opts
	oracle := satattack.OracleFromCircuit(in.locked, in.key)
	attackOracle := oracle
	var st *solverStats
	if tr != nil {
		st = &solverStats{}
		if opts.Backend, err = st.factory(); err != nil {
			return o, 0, 0, err
		}
		attackOracle = st.oracle(oracle)
	}
	id := tr.begin(parent, "satattack.attack", in.name)
	start := time.Now()
	res, err := satattack.Attack(ctx, in.locked, attackOracle, opts)
	attackS = time.Since(start).Seconds()
	switch {
	case err == nil:
		o.end = "key"
	case errors.Is(err, satattack.ErrIterationBudget):
		o.end = "dip-budget"
	case errors.Is(err, sat.ErrBudget):
		o.end = "conflict-cap"
	default:
		tr.end(id, nil)
		return o, 0, 0, err
	}
	o.dips = res.Iterations
	if st != nil {
		tr.end(id, st.counts(res.Iterations, o.end != "dip-budget"))
	}
	if o.end != "key" {
		return o, attackS, 0, nil
	}
	o.key = bitString(res.Key)
	vid := tr.begin(parent, "satattack.verify", in.name)
	start = time.Now()
	err = satattack.VerifyKey(ctx, in.locked, res.Key, oracle)
	verifyS = time.Since(start).Seconds()
	tr.end(vid, nil)
	if err != nil {
		return o, attackS, verifyS, fmt.Errorf("recovered key fails VerifyKey: %w", err)
	}
	return o, attackS, verifyS, nil
}

// bitString renders key bits least significant first, as job results do.
func bitString(bits []bool) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = '0'
		if b {
			out[i] = '1'
		}
	}
	return string(out)
}
