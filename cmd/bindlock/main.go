// Command bindlock runs the security-aware binding flow on a benchmark or a
// kernel source file and reports the locking-induced application errors of
// each binding algorithm side by side.
//
// Usage:
//
//	bindlock -bench fir [-class adder|multiplier] [-locked-fus 2] [-inputs 2]
//	         [-fus 3] [-samples 600] [-seed 1] [-candidates 10] [-dot]
//	         [-attack] [-attack-iters N] [-attack-scheme sfll|cyclic]
//	         [-cycles 2] [-decoys 2] [-solver cdcl|dpll]
//	         [-timeout 30s] [-j N] [-v] [-fault-plan SPEC] [-metrics out.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	bindlock -src kernel.bl [-workload image|audio|bitstream|sensor|uniform] ...
//
// -timeout bounds the whole run; on expiry the tool reports the partial
// progress of the interrupted phase and exits 2 (0 success, 1 failure,
// 2 interrupted). -v streams per-phase progress to stderr. -j sizes the
// worker pool used by simulation and co-design (default GOMAXPROCS); results
// are bit-identical at any -j. -metrics writes a metrics snapshot (JSON, or
// Prometheus text with a .prom extension) on every exit, including
// interrupted ones. -fault-plan injects a deterministic fault schedule into
// the compute stack's fail-points ("sim.run", "sat.solve") and into the
// oracle queries of -attack, for chaos runs.
//
// -attack elaborates the co-designed datapath to a flat gate-level netlist
// and runs the oracle-guided SAT attack against it, demonstrating the Eqn. 1
// resilience the tool predicts. -attack-iters bounds the DIP loop (full
// attacks are exponential by design) and -solver picks the SAT engine; every
// engine recovers a verified key.
//
// -attack-scheme cyclic swaps the datapath's SFLL locks for SRCLock-style
// cyclic obfuscation: the datapath is elaborated unlocked, -cycles feedback
// MUXes and -decoys decoy MUXes are inserted, and the attack runs with CycSAT
// cycle-breaking key constraints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bindlock"
	"bindlock/internal/cli"
)

func main() {
	bench := flag.String("bench", "", "built-in benchmark name (one of the 11 MediaBench kernels)")
	src := flag.String("src", "", "kernel source file in the bindlock kernel language")
	workload := flag.String("workload", "image", "workload family for -src: image, audio, bitstream, sensor, uniform")
	class := flag.String("class", "adder", "FU class to bind: adder or multiplier")
	fus := flag.Int("fus", 3, "FU allocation per class")
	lockedFUs := flag.Int("locked-fus", 2, "number of locked FUs")
	inputs := flag.Int("inputs", 2, "locked input minterms per FU")
	samples := flag.Int("samples", 600, "workload samples")
	seed := flag.Int64("seed", 1, "workload seed")
	candidates := flag.Int("candidates", 10, "candidate locked input count")
	dot := flag.Bool("dot", false, "print the scheduled DFG in Graphviz DOT format")
	verilog := flag.Bool("verilog", false, "emit the co-designed datapath as RTL Verilog")
	attack := flag.Bool("attack", false, "elaborate the co-designed datapath to gates and run the oracle-guided SAT attack on it")
	attackIters := flag.Int("attack-iters", 0, "bound the -attack DIP loop; 0 means unbounded (full attacks on paper-sized locks take ~2^k DIPs)")
	attackScheme := flag.String("attack-scheme", "sfll", "locking scheme for -attack: sfll (the co-designed locks) or cyclic (SRCLock-style feedback obfuscation on the unlocked datapath)")
	cycles := flag.Int("cycles", 2, "key-programmed feedback edges for -attack-scheme cyclic")
	decoys := flag.Int("decoys", 2, "acyclic decoy MUXes for -attack-scheme cyclic")
	solver := flag.String("solver", "", fmt.Sprintf("sat solver backend for -attack: %v (default %q)", bindlock.SolverBackends(), bindlock.DefaultSolverBackend))
	optimize := flag.Bool("O", false, "run front-end optimisation passes (fold/CSE/DCE) before scheduling (-src only)")
	timeout := flag.Duration("timeout", 0, "bound the whole run; 0 means no limit")
	jobs := flag.Int("j", 0, "worker pool size for simulation and co-design; 0 means GOMAXPROCS (output is identical at any -j)")
	verbose := flag.Bool("v", false, "stream per-phase progress to stderr")
	faultPlan := flag.String("fault-plan", "", "inject a deterministic fault schedule into the compute stack and the -attack oracle, e.g. seed=42,fail:sim.run=100")
	metricsFile := flag.String("metrics", "", "write a metrics snapshot to this file on exit (JSON, or Prometheus text for .prom)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	plan, err := bindlock.ParseFaultPlan(*faultPlan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bindlock:", err)
		os.Exit(cli.ExitFailure)
	}

	tel, err := cli.NewTelemetry(*metricsFile, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bindlock:", err)
		os.Exit(cli.ExitFailure)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *verbose {
		ctx = bindlock.WithProgressContext(ctx, &bindlock.ProgressLogger{W: os.Stderr})
	}
	ctx = bindlock.WithParallelismContext(ctx, *jobs)
	ctx = tel.Context(ctx)
	// After the metrics context, so injected faults are counted there.
	ctx = bindlock.WithFaultPlanContext(ctx, plan)

	atk := attackFlags{
		enabled: *attack, iters: *attackIters,
		solver: *solver,
		scheme: *attackScheme, cycles: *cycles, decoys: *decoys, seed: *seed,
	}
	err = run(ctx, *bench, *src, *workload, *class, *fus, *lockedFUs, *inputs,
		*samples, *seed, *candidates, *dot, *verilog, *optimize, atk)
	if err != nil {
		if errors.Is(err, bindlock.ErrCancelled) || errors.Is(err, bindlock.ErrBudgetExceeded) {
			fmt.Fprintf(os.Stderr, "bindlock: interrupted (%v)\n", err)
			if res, ok := bindlock.PartialResult[*bindlock.CoDesignResult](err); ok && res != nil {
				fmt.Fprintf(os.Stderr, "bindlock: best co-design so far: E = %d after %d evaluations\n",
					res.Errors, res.Enumerated)
			}
		} else {
			fmt.Fprintln(os.Stderr, "bindlock:", err)
		}
	}
	tel.Exit(cli.ExitCode(err))
}

// attackFlags bundles the -attack family of flags.
type attackFlags struct {
	enabled        bool
	iters          int
	solver         string
	scheme         string
	cycles, decoys int
	seed           int64
}

func run(ctx context.Context, bench, src, workload, className string, fus, lockedFUs, inputs,
	samples int, seed int64, candidates int, dot, verilog, optimize bool, atk attackFlags) error {
	var d *bindlock.Design
	var err error
	switch {
	case bench != "" && src != "":
		return fmt.Errorf("-bench and -src are mutually exclusive")
	case bench != "":
		d, err = bindlock.PrepareBenchmark(ctx, bench,
			bindlock.WithMaxFUs(fus), bindlock.WithSamples(samples), bindlock.WithSeed(seed))
	case src != "":
		data, rerr := os.ReadFile(src)
		if rerr != nil {
			return rerr
		}
		kernel := string(data)
		if optimize {
			g, cerr := bindlock.Compile(kernel)
			if cerr != nil {
				return cerr
			}
			og, stats, oerr := bindlock.Optimize(g)
			if oerr != nil {
				return oerr
			}
			fmt.Printf("optimised: folded %d, simplified %d, merged %d, removed %d dead (%d -> %d ops)\n",
				stats.FoldedConsts, stats.Simplified, stats.CSEMerged, stats.DeadRemoved,
				len(g.Ops), len(og.Ops))
			gen, gerr := workloadKind(workload)
			if gerr != nil {
				return gerr
			}
			d, err = bindlock.PrepareGraph(ctx, og, bindlock.WithMaxFUs(fus),
				bindlock.WithSamples(samples), bindlock.WithWorkload(gen), bindlock.WithSeed(seed))
			break
		}
		gen, gerr := workloadKind(workload)
		if gerr != nil {
			return gerr
		}
		d, err = bindlock.Prepare(ctx, kernel, bindlock.WithMaxFUs(fus),
			bindlock.WithSamples(samples), bindlock.WithWorkload(gen), bindlock.WithSeed(seed))
	default:
		return fmt.Errorf("one of -bench or -src is required (try -bench fir)")
	}
	if err != nil {
		return err
	}

	var class bindlock.Class
	switch className {
	case "adder":
		class = bindlock.ClassAdd
	case "multiplier":
		class = bindlock.ClassMul
	default:
		return fmt.Errorf("unknown class %q", className)
	}

	st := d.G.Stat()
	fmt.Printf("kernel %s: %d adds, %d muls, %d cycles on up to %d FUs/class\n",
		st.Name, st.Adds, st.Muls, st.Cycles, d.NumFUs)
	if dot {
		fmt.Println(d.G.DOT())
	}

	cands := d.Candidates(class, candidates)
	if len(cands) == 0 {
		return fmt.Errorf("kernel has no %v operations", class)
	}
	if inputs > len(cands) {
		inputs = len(cands)
	}
	fmt.Printf("top candidate locked inputs (%v): ", class)
	for i, m := range cands {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(m)
	}
	fmt.Println()

	// Co-design picks the locked inputs and the binding together.
	co, err := d.CoDesign(ctx, class, lockedFUs, inputs, cands)
	if err != nil {
		return err
	}
	fmt.Printf("\nbinding-obfuscation co-design: E = %d application errors / %d samples\n",
		co.Errors, samples)
	for _, l := range co.Cfg.Locks {
		fmt.Printf("  FU %d locks %v\n", l.FU, l.Minterms)
	}
	lam, err := bindlock.Resilience(co.Cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  SAT resilience (Eqn. 1): %.0f expected iterations per module\n", lam)

	// The same locking configuration on each baseline binding.
	fmt.Println("\nidentical locking configuration under security-oblivious binding:")
	for _, name := range []string{"area", "power", "random"} {
		b, err := d.BindBaseline(class, name)
		if err != nil {
			return err
		}
		e, err := d.ApplicationErrors(co.Cfg, b)
		if err != nil {
			return err
		}
		fmt.Printf("  %-7s binding: E = %5d  (co-design advantage: %.1fx)\n",
			name, e, float64(co.Errors+1)/float64(e+1))
	}

	if verilog {
		bindings, err := fullBindings(d, class, co.Binding)
		if err != nil {
			return err
		}
		fmt.Println("\n// --- RTL Verilog of the co-designed datapath ---")
		if err := d.WriteVerilog(os.Stdout, bindings); err != nil {
			return err
		}
	}

	if atk.enabled {
		bindings, err := fullBindings(d, class, co.Binding)
		if err != nil {
			return err
		}
		var opts []bindlock.AttackOption
		if atk.solver != "" {
			opts = append(opts, bindlock.WithSolverBackend(atk.solver))
		}
		if atk.iters > 0 {
			opts = append(opts, bindlock.WithAttackIterations(atk.iters))
		}
		var out *bindlock.AttackOutcome
		switch atk.scheme {
		case "sfll":
			ed, eerr := d.Elaborate(bindings, co.Cfg)
			if eerr != nil {
				return eerr
			}
			fmt.Printf("\nSAT attack on the elaborated datapath (%d logic gates, %d key bits):\n",
				ed.Circuit.LogicGates(), len(ed.Circuit.Keys))
			out, err = bindlock.AttackDesign(ctx, ed, opts...)
		case "cyclic":
			ed, eerr := d.Elaborate(bindings, nil)
			if eerr != nil {
				return eerr
			}
			fmt.Printf("\nCycSAT attack on the cyclically locked datapath (%d logic gates, %d cycles + %d decoys):\n",
				ed.Circuit.LogicGates(), atk.cycles, atk.decoys)
			opts = append(opts, bindlock.WithCyclicLock(atk.cycles, atk.decoys, atk.seed))
			out, err = bindlock.AttackDesign(ctx, ed, opts...)
		default:
			return fmt.Errorf("unknown attack scheme %q (want sfll or cyclic)", atk.scheme)
		}
		if err != nil {
			if out != nil && (errors.Is(err, bindlock.ErrCancelled) || errors.Is(err, bindlock.ErrBudgetExceeded)) {
				fmt.Printf("  attack interrupted after %d DIPs in %v (best-so-far key: %d bits)\n",
					out.Iterations, out.Duration.Round(time.Millisecond), len(out.Key))
			}
			return err
		}
		fmt.Printf("  key recovered and verified after %d DIPs in %v\n",
			out.Iterations, out.Duration.Round(time.Millisecond))
	}
	return nil
}

// fullBindings completes the co-designed class binding with an area-baseline
// binding for the other FU class when the kernel uses it.
func fullBindings(d *bindlock.Design, class bindlock.Class, b *bindlock.Binding) (map[bindlock.Class]*bindlock.Binding, error) {
	bindings := map[bindlock.Class]*bindlock.Binding{class: b}
	for _, other := range []bindlock.Class{bindlock.ClassAdd, bindlock.ClassMul} {
		if other == class || len(d.G.OpsOfClass(other)) == 0 {
			continue
		}
		bb, err := d.BindBaseline(other, "area")
		if err != nil {
			return nil, err
		}
		bindings[other] = bb
	}
	return bindings, nil
}

func workloadKind(name string) (bindlock.WorkloadKind, error) {
	switch name {
	case "image":
		return bindlock.WorkloadImageBlocks, nil
	case "audio":
		return bindlock.WorkloadAudio, nil
	case "bitstream":
		return bindlock.WorkloadBitstream, nil
	case "sensor":
		return bindlock.WorkloadSensorNoise, nil
	case "uniform":
		return bindlock.WorkloadUniform, nil
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}
