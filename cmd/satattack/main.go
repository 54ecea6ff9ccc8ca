// Command satattack synthesises a gate-level FU, locks it with a chosen
// scheme, and runs the oracle-guided SAT attack against it, reporting the
// measured effort next to the Eqn. 1 prediction.
//
// Usage:
//
//	satattack [-fu adder|multiplier] [-width 3] [-scheme sfll|sfll-hd|xor|routing|cyclic]
//	          [-secret N] [-h 1] [-keys 8] [-cycles 2] [-decoys 2] [-cycsat]
//	          [-seed 1] [-timeout 30s] [-j N] [-progress]
//	          [-retries 1] [-votes 1] [-quorum 0] [-fault-plan SPEC]
//	          [-checkpoint FILE] [-checkpoint-every 1] [-resume FILE]
//	          [-checkpoint-key-file FILE]
//	          [-solver cdcl|dpll]
//	          [-metrics out.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	satattack -validate [-secrets 6]
//
// -timeout bounds the attack with a context deadline; on expiry the tool
// prints a partial-result summary (DIPs found, best-so-far key) and exits
// with status 2. Exit codes follow the repository convention: 0 success,
// 1 failure, 2 interrupted. -progress streams per-DIP and solver telemetry
// to stderr. -j sizes the worker pool for the -validate sweeps (default
// GOMAXPROCS); the tables are bit-identical at any -j. -metrics writes a
// metrics snapshot (solver conflict/decision counters, DIP histograms; JSON,
// or Prometheus text with a .prom extension) on every exit, including
// interrupted ones.
//
// The robustness flags harden the oracle loop: -retries retries each oracle
// query with exponential backoff, -votes/-quorum answer each DIP by majority
// vote over repeated queries, -checkpoint writes the oracle transcript
// atomically every -checkpoint-every iterations, and -resume continues a
// killed attack bit-identically from its checkpoint. -checkpoint-key-file
// names a node secret (hex, generated on first use) that MACs every
// checkpoint write and is required to verify on -resume, so a tampered
// transcript cold-fails instead of steering the attack. -fault-plan injects a
// deterministic fault schedule (oracle transients, bit flips, latency,
// outages, solver fail-points) for chaos-testing the whole loop, e.g.
// "seed=42,transient=0.1,bitflip=0.01,fail:sat.solve=50".
//
// -solver selects the SAT engine by registered backend name ("cdcl", the
// default, or "dpll", the reference engine).
//
// -scheme cyclic locks with SRCLock-style feedback obfuscation: -cycles
// key-programmed feedback MUXes (wrong keys close combinational cycles that
// latch or oscillate) plus -decoys acyclic decoy MUXes. The attack then runs
// with CycSAT cycle-breaking key constraints; -cycsat=false drops them to
// demonstrate the plain attack diverging (bound it with -timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bindlock/internal/cli"
	"bindlock/internal/experiments"
	"bindlock/internal/fault"
	"bindlock/internal/interrupt"
	"bindlock/internal/keymat"
	"bindlock/internal/locking"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
	"bindlock/internal/store"
)

func main() {
	fu := flag.String("fu", "adder", "functional unit: adder or multiplier")
	width := flag.Int("width", 3, "operand width in bits")
	scheme := flag.String("scheme", "sfll", "locking scheme: sfll, sfll-hd, xor, routing, anti-sat or cyclic")
	secret := flag.Int64("secret", -1, "protected input minterm (sfll schemes); -1 (default) draws a cryptographically random secret and prints it — pass a value for reproducible runs")
	hd := flag.Int("h", 1, "hamming distance for sfll-hd")
	keys := flag.Int("keys", 8, "key-gate count for xor locking")
	cycles := flag.Int("cycles", 2, "key-programmed feedback edges for cyclic locking")
	decoys := flag.Int("decoys", 2, "acyclic decoy MUXes for cyclic locking")
	cycsat := flag.Bool("cycsat", true, "conjoin CycSAT cycle-breaking key constraints (cyclic scheme only); disable to watch the plain attack diverge")
	seed := flag.Int64("seed", 1, "seed for randomized insertions")
	validate := flag.Bool("validate", false, "run the Eqn. 1 validation sweep instead of a single attack")
	secrets := flag.Int("secrets", 6, "secrets per key width for -validate")
	verilog := flag.Bool("verilog", false, "emit the locked netlist as structural Verilog before attacking")
	approx := flag.Int("approx", 0, "run an AppSAT-style approximate attack with this DIP budget instead of the exact attack")
	timeout := flag.Duration("timeout", 0, "bound the attack wall time; 0 means no limit")
	jobs := flag.Int("j", 0, "worker pool size for the -validate sweeps; 0 means GOMAXPROCS (output is identical at any -j)")
	showProgress := flag.Bool("progress", false, "stream per-DIP and solver telemetry to stderr")
	retries := flag.Int("retries", 1, "oracle query attempts before giving up (backoff between tries)")
	votes := flag.Int("votes", 1, "oracle queries per DIP, folded by per-bit majority vote")
	quorum := flag.Int("quorum", 0, "minimum agreeing votes per output bit; 0 means simple majority")
	checkpoint := flag.String("checkpoint", "", "write the attack's oracle transcript to this file for later -resume")
	checkpointEvery := flag.Int("checkpoint-every", 1, "iterations between checkpoint writes")
	resume := flag.String("resume", "", "resume a killed attack from this checkpoint file")
	checkpointKeyFile := flag.String("checkpoint-key-file", "", "node secret for tamper-evident checkpoints (hex, created on first use); writes MAC'd transcripts and rejects tampered ones on -resume")
	faultPlan := flag.String("fault-plan", "", "inject a deterministic fault schedule, e.g. seed=42,transient=0.1,bitflip=0.01")
	solver := flag.String("solver", "", fmt.Sprintf("sat solver backend: %v (default %q)", sat.Backends(), sat.DefaultBackend))
	metricsFile := flag.String("metrics", "", "write a metrics snapshot to this file on exit (JSON, or Prometheus text for .prom)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	plan, err := fault.Parse(*faultPlan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satattack:", err)
		os.Exit(cli.ExitFailure)
	}

	tel, err := cli.NewTelemetry(*metricsFile, *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satattack:", err)
		os.Exit(cli.ExitFailure)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *showProgress {
		ctx = progress.NewContext(ctx, &progress.Logger{W: os.Stderr, EveryN: 1})
	}
	ctx = parallel.NewContext(ctx, *jobs)
	ctx = tel.Context(ctx)

	if *validate {
		err = runValidate(ctx, *secrets, *seed)
	} else {
		var ckptKey []byte
		if *checkpointKeyFile != "" {
			ckptKey, err = store.LoadOrCreateKey(*checkpointKeyFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "satattack:", err)
				os.Exit(cli.ExitFailure)
			}
		}
		rb := robustness{
			retries: *retries, votes: *votes, quorum: *quorum,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery,
			resume: *resume, ckptKey: ckptKey, plan: plan,
			solver: *solver,
			cycles: *cycles, decoys: *decoys, cycsat: *cycsat,
		}
		err = attack(ctx, *fu, *width, *scheme, *secret, *hd, *keys, *seed, *verilog, *approx, rb)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "satattack:", err)
	}
	// Telemetry flushes on every path, so an interrupted run still leaves its
	// partial metrics snapshot behind.
	tel.Exit(cli.ExitCode(err))
}

// runValidate runs the Eqn. 1 validation and epsilon sweeps. Partial tables
// are rendered before an interruption error is returned.
func runValidate(ctx context.Context, secrets int, seed int64) error {
	rows, err := experiments.Resilience(ctx, []int{2, 3, 4}, secrets, seed)
	if err != nil {
		if interrupted(err) {
			experiments.RenderResilience(os.Stdout, rows)
			fmt.Fprintf(os.Stderr, "satattack: validation interrupted; %d width rows completed\n", len(rows))
		}
		return err
	}
	experiments.RenderResilience(os.Stdout, rows)
	eps, err := experiments.EpsilonSweep(ctx, []int{0, 1, 2}, secrets, seed)
	if err != nil {
		if interrupted(err) {
			fmt.Fprintf(os.Stderr, "satattack: epsilon sweep interrupted; %d rows completed\n", len(eps))
		}
		return err
	}
	fmt.Println()
	experiments.RenderEpsilonSweep(os.Stdout, eps)
	cyc, err := experiments.Cyclic(ctx, []int{2, 3}, 2, 2, seed)
	if err != nil {
		if interrupted(err) {
			fmt.Fprintf(os.Stderr, "satattack: cyclic sweep interrupted; %d rows completed\n", len(cyc))
		}
		return err
	}
	fmt.Println()
	experiments.RenderCyclic(os.Stdout, cyc)
	return nil
}

// interrupted reports whether err is a cancellation or budget interruption.
func interrupted(err error) bool {
	return errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded)
}

// printPartial summarises an interrupted attack: how far it got and whether
// a best-so-far key consistent with the observed oracle answers exists. The
// interruption error itself is printed (and exit-coded) by main.
func printPartial(iterations, keyLen, keyBits int, start time.Time, err error) {
	kind := "cancelled"
	if errors.Is(err, interrupt.ErrBudgetExceeded) {
		kind = "budget exhausted"
	}
	fmt.Printf("attack interrupted (%s) after %d DIPs in %v\n", kind, iterations, time.Since(start).Round(time.Millisecond))
	switch {
	case keyLen == keyBits && iterations > 0:
		fmt.Printf("best-so-far key guess available (%d bits, consistent with all %d observed DIPs)\n", keyBits, iterations)
	case keyLen == keyBits:
		fmt.Printf("unconstrained key guess extracted (%d bits; no DIPs observed yet)\n", keyBits)
	default:
		fmt.Println("no key guess extracted before interruption")
	}
}

// robustness bundles the oracle-resilience and chaos flags.
type robustness struct {
	retries, votes, quorum int
	checkpoint             string
	checkpointEvery        int
	resume                 string
	ckptKey                []byte
	plan                   fault.Plan
	solver                 string
	cycles, decoys         int
	cycsat                 bool
}

func attack(ctx context.Context, fu string, width int, scheme string, secretFlag int64, hd, keys int, seed int64, verilog bool, approx int, rb robustness) error {
	var base *netlist.Circuit
	var err error
	switch fu {
	case "adder":
		base, err = netlist.NewAdder(width)
	case "multiplier":
		base, err = netlist.NewMultiplier(width)
	default:
		return fmt.Errorf("unknown FU %q", fu)
	}
	if err != nil {
		return err
	}

	// The sfll schemes protect an input minterm — real key material. The
	// default is a cryptographically random draw per run (printed, so the
	// operator can reproduce); an explicit -secret is the reproducible mode.
	secret := uint64(secretFlag)
	if secretFlag < 0 && (scheme == "sfll" || scheme == "sfll-hd") {
		secret, err = keymat.RandomSecret(len(base.Inputs))
		if err != nil {
			return err
		}
		fmt.Printf("secret drawn at random (reproduce with -secret %d)\n", secret)
	}

	var locked *netlist.Circuit
	var key []bool
	switch scheme {
	case "sfll":
		locked, key, err = netlist.LockSFLLHD0(base, []uint64{secret})
	case "sfll-hd":
		locked, key, err = netlist.LockSFLLHD(base, secret, hd)
	case "xor":
		locked, key, err = netlist.LockXOR(base, keys, seed)
	case "routing":
		locked, key, err = netlist.LockRouting(base, seed)
	case "anti-sat":
		locked, key, err = netlist.LockAntiSAT(base, seed)
	case "cyclic":
		locked, key, err = netlist.LockCyclic(base, rb.cycles, rb.decoys, seed)
	default:
		return fmt.Errorf("unknown scheme %q", scheme)
	}
	if err != nil {
		return err
	}
	cycleBreak := false
	if scheme == "cyclic" {
		metrics.FromContext(ctx).Add("cyclock_cycles_inserted", int64(len(locked.Feedback)))
		cycleBreak = rb.cycsat
		fmt.Printf("cyclic lock: %d feedback edges, %d decoys; cycsat constraints %v\n",
			len(locked.Feedback), rb.decoys, cycleBreak)
	}
	fmt.Printf("locked %s: %d logic gates, %d key bits (%s)\n",
		base.Name, locked.LogicGates(), len(locked.Keys), scheme)
	if verilog {
		if err := locked.WriteVerilog(os.Stdout); err != nil {
			return err
		}
	}

	retry := satattack.RetryPolicy{MaxAttempts: rb.retries, Seed: seed}
	var cp *satattack.Checkpoint
	if rb.resume != "" {
		cp, err = satattack.LoadCheckpoint(rb.resume, rb.ckptKey)
		if err != nil {
			return err
		}
		fmt.Printf("resuming from %s: %d DIPs already answered\n", rb.resume, cp.Iterations)
	}
	// clean stays unwrapped: the final key verification models a bench check
	// under good conditions, not another noisy campaign query.
	clean := satattack.OracleFromCircuit(locked, key)
	oracle := clean
	if !rb.plan.Zero() {
		inj := fault.New(rb.plan).WithRegistry(metrics.FromContext(ctx))
		if cp != nil {
			// Schedule continuity: faults already drawn for the answered
			// calls are not re-drawn after resume.
			inj.Seek(cp.OracleCalls)
		}
		oracle = satattack.OracleFunc(inj.WrapOracle(oracle.Query))
		ctx = fault.NewContext(ctx, inj)
		fmt.Printf("fault plan active: %s\n", rb.plan)
	}
	start := time.Now()
	if approx > 0 {
		if rb.checkpoint != "" || rb.resume != "" {
			return fmt.Errorf("checkpoint/resume requires the exact attack (drop -approx)")
		}
		if scheme == "cyclic" {
			return fmt.Errorf("the approximate attack does not support cyclic locks (drop -approx)")
		}
		res, err := satattack.ApproxAttack(ctx, locked, oracle, satattack.ApproxOptions{
			MaxIterations: approx, Seed: seed,
			Retry: retry, Votes: rb.votes, Quorum: rb.quorum,
			Solver: rb.solver,
		})
		if err != nil {
			if interrupted(err) && res != nil {
				printPartial(res.Iterations, len(res.Key), len(locked.Keys), start, err)
			}
			return err
		}
		exact := "approximate"
		if res.Exact {
			exact = "exact"
		}
		fmt.Printf("approx attack: %d DIPs in %v, %s key, estimated error rate %.4f\n",
			res.Iterations, res.Duration, exact, res.EstErrorRate)
		return nil
	}
	res, err := satattack.Attack(ctx, locked, oracle, satattack.Options{
		Retry: retry, Votes: rb.votes, Quorum: rb.quorum,
		CheckpointPath: rb.checkpoint, CheckpointEvery: rb.checkpointEvery,
		CheckpointKey: rb.ckptKey,
		Resume:        cp,
		Solver:        rb.solver,
		CycleBreak:    cycleBreak,
	})
	if err != nil {
		if interrupted(err) && res != nil {
			printPartial(res.Iterations, len(res.Key), len(locked.Keys), start, err)
			if rb.checkpoint != "" {
				fmt.Printf("oracle transcript saved; continue with -resume %s\n", rb.checkpoint)
			}
		}
		return err
	}
	if err := satattack.VerifyKey(ctx, locked, res.Key, clean, retry); err != nil {
		return fmt.Errorf("recovered key failed verification: %w", err)
	}
	fmt.Printf("attack succeeded: %d iterations in %v; recovered key verified\n",
		res.Iterations, res.Duration)

	if scheme == "sfll" || scheme == "sfll-hd" {
		lockedCount := 1
		if scheme == "sfll-hd" {
			lockedCount = netlist.ProtectedCount(len(locked.Keys), hd)
		}
		eps := float64(lockedCount) / float64(uint64(1)<<uint(len(locked.Keys)))
		lam, err := locking.ExpectedSATIterations(len(locked.Keys), 1, eps)
		if err != nil {
			return err
		}
		fmt.Printf("Eqn. 1 prediction: λ = %.0f expected iterations (ε = %.2g)\n", lam, eps)
	}
	return nil
}
