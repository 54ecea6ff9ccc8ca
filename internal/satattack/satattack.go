// Package satattack implements the oracle-guided SAT attack of Subramanyan
// et al. [10], the threat model against which the paper's locking
// configurations are sized (Sec. II-A).
//
// The attack holds a locked netlist and black-box access to an activated IC
// (the oracle). It repeatedly solves a miter — two copies of the locked
// circuit with shared inputs and independent keys whose outputs differ — to
// find a distinguishing input pattern (DIP), queries the oracle on the DIP,
// and constrains both key copies to reproduce the observed output. When the
// miter becomes unsatisfiable, every key consistent with the accumulated
// constraints is functionally correct; one is extracted from a
// constraint-only solver built from the answered DIPs.
//
// Attack is context-aware: SFLL-style point functions are designed to blow
// up solver time, so a server embedding the attack bounds it with a context
// deadline. An interrupted attack returns the partial Result — DIP count and
// the best-so-far key guess consistent with every oracle answer observed —
// both directly and inside the typed interrupt.Error.
package satattack

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bindlock/internal/cnf"
	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/progress"
	"bindlock/internal/sat"
)

// Oracle answers input queries with the activated IC's outputs. Concrete
// oracles range from in-process circuit evaluation (OracleFromCircuit)
// through fault-injected and retried wrappers to, eventually, remote
// hardware; the attack only ever sees Query.
type Oracle interface {
	Query(inputs []bool) ([]bool, error)
}

// OracleFunc adapts a plain query function to the Oracle interface, the
// bridge to func-shaped seams like fault.WrapOracle.
type OracleFunc func(inputs []bool) ([]bool, error)

// Query implements Oracle.
func (f OracleFunc) Query(inputs []bool) ([]bool, error) { return f(inputs) }

// OracleFromCircuit builds the standard evaluation oracle: the locked
// circuit activated with its correct key (equivalently, the original
// circuit).
func OracleFromCircuit(c *netlist.Circuit, correctKey []bool) Oracle {
	return circuitOracle{c: c, key: correctKey}
}

// circuitOracle is the in-process evaluation oracle. Besides Query it can
// answer 64 patterns at once, which VerifyKey uses to sweep in blocks; any
// wrapper around it hides that and gets the per-pattern query sequence.
type circuitOracle struct {
	c   *netlist.Circuit
	key []bool
}

// Query implements Oracle.
func (o circuitOracle) Query(inputs []bool) ([]bool, error) { return o.c.Eval(inputs, o.key) }

// lanes returns a 64-lane evaluator of the activated circuit.
func (o circuitOracle) lanes() (*keyedLanes, error) { return newKeyedLanes(o.c, o.key) }

// Options tunes the attack.
type Options struct {
	// MaxIterations bounds the DIP loop (default 1 << 20).
	MaxIterations int
	// MaxConflicts bounds each SAT call (default sat.DefaultMaxConflicts).
	// It is routed through the backend factory, so both solvers the attack
	// creates — the miter and the key extractor — are bounded consistently.
	MaxConflicts int64
	// Solver names the registered sat backend to solve with ("" means
	// sat.DefaultBackend). The name is recorded in checkpoints so a
	// transcript is never resumed under a different engine.
	Solver string
	// Backend, when non-nil, supplies the solver factory directly and takes
	// precedence over Solver (tests and embedders with unregistered
	// engines). Checkpoints still record Solver as the transcript label.
	Backend sat.Factory
	// CycleBreak enables the CycSAT extension for cyclically locked
	// circuits: key-only "no structural cycle" constraints are pre-computed
	// from the netlist's feedback edges (netlist.CycleConstraints) and
	// conjoined into the miter and the key solver before the DIP loop, so
	// the attack only ever reasons over acyclic key configurations. Off by
	// default — running the plain attack against a cyclic circuit is the
	// motivating failure mode and stays expressible. The flag is recorded in
	// checkpoints: constraints change the DIP sequence, so a transcript is
	// never replayed across modes.
	CycleBreak bool
	// Retry tunes per-query oracle retry (zero value: single attempt, the
	// pre-retry behaviour).
	Retry RetryPolicy
	// Votes is the number of oracle queries per DIP, folded per output bit
	// by majority vote (default 1: trust the single answer).
	Votes int
	// Quorum is the minimum agreeing votes per output bit (default simple
	// majority, Votes/2+1). A bit that splits without a quorum-sized
	// majority fails the query with ErrNoQuorum.
	Quorum int
	// CheckpointPath, when set, makes the attack journal its oracle
	// transcript (DIPs, answers, oracle-call counts) to this file, so a
	// killed attack can be resumed bit-identically. The first write
	// creates the file atomically; later writes append.
	CheckpointPath string
	// CheckpointEvery is the iteration interval between checkpoint writes
	// (default 1: every iteration).
	CheckpointEvery int
	// CheckpointKey, when non-nil, MACs every journal line with the node
	// key (a chained hmac-sha256); loading with the same key then rejects
	// any tampered file as a mismatch. nil writes digest-only checkpoints
	// (corruption detection without tamper evidence).
	CheckpointKey []byte
	// Resume replays a previously saved checkpoint before querying the
	// oracle live: each re-solved DIP is asserted against the recorded one
	// (ErrCheckpointMismatch on divergence) and the recorded answer is used
	// in place of an oracle query.
	Resume *Checkpoint
}

// Result reports a completed or interrupted attack.
type Result struct {
	// Key is a functionally correct key for the locked circuit. On an
	// interrupted attack it is the best-so-far guess consistent with every
	// observed oracle answer (nil when even that could not be extracted).
	Key []bool
	// Iterations is the number of DIPs required (λ in Eqn. 1).
	Iterations int
	// Duration is the wall time of the attack.
	Duration time.Duration
	// DIPs are the distinguishing inputs discovered, in order.
	DIPs [][]bool
}

// ErrIterationBudget is returned when the DIP loop exceeds MaxIterations.
var ErrIterationBudget = errors.New("satattack: iteration budget exhausted")

const attackOp = "satattack: attack"

// normalizeSolver maps the empty backend name to the default, so checkpoint
// labels written before the field existed compare equal to explicit defaults.
func normalizeSolver(name string) string {
	if name == "" {
		return sat.DefaultBackend
	}
	return name
}

// resolveBackend turns a backend name (or an explicit factory, which wins)
// into the factory the attack builds every solver from, plus the backend
// name to label transcripts with. The factory applies maxConflicts to every
// solver it creates, so the miter and the key extractor share one consistent
// per-call bound.
func resolveBackend(name string, f sat.Factory, maxConflicts int64) (sat.Factory, string, error) {
	if f == nil {
		var err error
		if f, err = sat.BackendFactory(name); err != nil {
			return nil, "", err
		}
	}
	if maxConflicts > 0 {
		inner := f
		f = func() sat.Backend {
			b := inner()
			b.SetMaxConflicts(maxConflicts)
			return b
		}
	}
	return f, normalizeSolver(name), nil
}

func (o Options) backendFactory() (sat.Factory, string, error) {
	return resolveBackend(o.Solver, o.Backend, o.MaxConflicts)
}

// Attack runs the SAT attack against the locked circuit using the oracle.
// Cancellation is checked before every DIP iteration and inside each solver
// call. An interrupted attack — context cancelled, deadline expired, or
// iteration/conflict budget exhausted — returns the partial Result together
// with a typed error: errors.Is matches interrupt.ErrCancelled or
// interrupt.ErrBudgetExceeded (and the underlying context error), and the
// partial Result also rides inside the interrupt.Error.
func Attack(ctx context.Context, locked *netlist.Circuit, oracle Oracle, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := locked.Validate(); err != nil {
		return nil, err
	}
	if len(locked.Keys) == 0 {
		return nil, fmt.Errorf("satattack: circuit %q has no key inputs", locked.Name)
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 1 << 20
	}
	ckEvery := opts.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 1
	}

	factory, solverName, err := opts.backendFactory()
	if err != nil {
		return nil, err
	}

	hook := progress.FromContext(ctx)
	progress.Start(hook, "attack", locked.Name)
	start := time.Now()

	mreg := metrics.FromContext(ctx)

	q := newQuerier(oracle, opts.Retry, opts.Votes, opts.Quorum, mreg)
	replay := opts.Resume
	if replay != nil {
		if err := replay.validateFor(locked, solverName, opts.CycleBreak); err != nil {
			return nil, err
		}
		// Physical-call continuity: the querier resumes counting where the
		// interrupted run stopped, so later checkpoints stay cumulative and
		// a fault injector Seek'd to OracleCalls stays schedule-aligned.
		q.calls = replay.OracleCalls
	}

	// Miter solver: two key copies over shared inputs, outputs forced to
	// differ somewhere. The at-least-one-difference clause is guarded by an
	// activation literal and each DIP search solves under the assumption
	// that the guard holds, so the solver stays warm across iterations and
	// the guard never contaminates the learned-clause DB when the key space
	// collapses.
	me := cnf.NewEncoderBackend(factory())
	inst1, err := me.Encode(locked, nil, nil)
	if err != nil {
		return nil, err
	}
	// The cyclic path shares every net outside the key cone between the two
	// copies: the terminal UNSAT on a cyclically locked datapath otherwise
	// spends its time re-proving two disjoint copies of the unlocked logic
	// equal. The SFLL path keeps the historical full-duplication encoding so
	// its variable stream — and with it every pinned transcript and
	// fingerprint — stays bit-identical.
	var inst2 *cnf.Instance
	if opts.CycleBreak {
		inst2, err = me.EncodeShared(locked, inst1)
	} else {
		inst2, err = me.Encode(locked, inst1.Inputs, nil)
	}
	if err != nil {
		return nil, err
	}
	// Outputs outside the key cone alias the same variable in both copies
	// and can never differ; only genuine difference candidates join the
	// miter disjunction.
	diffs := make([]int, 0, len(inst1.Outputs))
	for i := range inst1.Outputs {
		if inst1.Outputs[i] != inst2.Outputs[i] {
			diffs = append(diffs, me.XorVar(inst1.Outputs[i], inst2.Outputs[i]))
		}
	}
	act := sat.NewLit(me.GuardedAtLeastOne(diffs), false)

	// CycSAT pre-processing: derive the cycle-breaking key constraints once
	// and conjoin them over both miter key copies, so no DIP search ever
	// wanders into a key that closes a combinational loop (whose CNF fixed
	// points are unrelated to any settled circuit behaviour). The key
	// solver gets the same clauses below.
	var cycleClauses []netlist.CycleClause
	if opts.CycleBreak {
		stopCC := mreg.Timer("cycsat_constraint_seconds")
		cycleClauses, err = locked.CycleConstraints()
		stopCC()
		if err != nil {
			return nil, fmt.Errorf("satattack: cycle constraints: %w", err)
		}
		mreg.Add("cycsat_constraints_total", int64(len(cycleClauses)))
		for _, kv := range [][]int{inst1.Keys, inst2.Keys} {
			if err := me.CycleClauses(kv, cycleClauses); err != nil {
				return nil, err
			}
		}
	}

	// The checkpoint journal seals a resumed run's replayed transcript up
	// front, so the file its first write creates already holds every
	// recorded DIP: replay never shrinks a checkpoint.
	var jr *journal
	if opts.CheckpointPath != "" {
		cp := Checkpoint{
			Version: CheckpointVersion, Circuit: locked.Name,
			InputBits: len(locked.Inputs), KeyBits: len(locked.Keys),
			Solver: solverName, CycleBreak: opts.CycleBreak,
		}
		if replay != nil {
			cp.Iterations, cp.OracleCalls = replay.Iterations, replay.OracleCalls
			cp.DIPs, cp.Answers, cp.Calls = replay.DIPs, replay.Answers, replay.Calls
		}
		if jr, err = newJournal(&cp, opts.CheckpointKey); err != nil {
			return nil, err
		}
		defer jr.close() // every flush fsyncs, so closing can lose nothing
	}

	res := &Result{}
	// answers holds the oracle's answer to each answered DIP, in order: with
	// res.DIPs, the transcript the key solver is built from.
	var answers [][]bool
	// releaseMiter records the miter's final CNF size and drops the solver,
	// so the key solver built after it never lives beside it.
	var miterVars, miterClauses int
	releaseMiter := func() {
		if me != nil {
			miterVars, miterClauses = me.S.NumVars(), me.S.NumClauses()
			me = nil
		}
	}
	// End-of-attack telemetry on every return path, completed or interrupted:
	// the miter encoder's final CNF size and the DIP count are deterministic
	// for a given circuit, so they land in the registry's deterministic
	// subset. All methods tolerate a nil registry.
	defer func() {
		releaseMiter()
		mreg.Add("satattack_attacks_total", 1)
		mreg.Add("satattack_cnf_vars_total", int64(miterVars))
		mreg.Add("satattack_cnf_clauses_total", int64(miterClauses))
		mreg.Observe("satattack_dip_iterations", float64(res.Iterations))
	}()
	// The key solver holds only the I/O constraints of the answered DIPs
	// over one key bus, led by the cycle constraints; it stays satisfiable
	// (the correct key satisfies everything) and yields the key. It is
	// built once, when a key is extracted, after the miter is released:
	// the same clause stream the DIP loop would have fed it, so the same
	// key, and an attack's footprint is the larger of the two solvers
	// rather than their sum.
	var ke *cnf.Encoder
	var keyVars []int
	keySolver := func() error {
		if ke != nil {
			return nil
		}
		releaseMiter()
		var err error
		ke, keyVars, err = buildKeySolver(factory(), locked, cycleClauses, res.DIPs, answers)
		return err
	}
	// extractKey solves the key solver for a best-effort key guess,
	// detached from the (possibly done) caller context: the constraint-only
	// solver stays satisfiable and cheap, so the extraction is bounded by its
	// own conflict budget rather than the expired deadline.
	extractKey := func() {
		if keySolver() != nil {
			return
		}
		if found, err := ke.S.Solve(context.WithoutCancel(ctx)); err == nil && found {
			res.Key = keyValues(ke, keyVars)
		}
	}
	// stopIter times one whole DIP iteration — miter solve, oracle query and
	// miter constraint encoding, but not checkpoint IO, which
	// satattack_checkpoint_seconds times. It is re-armed per iteration and
	// safe to settle on any exit path.
	var iterTimer func()
	stopIter := func() {
		if iterTimer != nil {
			iterTimer()
			iterTimer = nil
		}
	}
	// interrupted finalises an interruption: it stamps the duration,
	// extracts the best-so-far key guess from the accumulated constraints,
	// and rewraps the cause with the attack-level partial result.
	interrupted := func(cause error) (*Result, error) {
		stopIter()
		res.Duration = time.Since(start)
		extractKey()
		progress.End(hook, "attack", fmt.Sprintf("interrupted after %d DIPs", res.Iterations))
		return res, interrupt.Rewrap(attackOp, cause, res)
	}
	// saveCheckpoint makes the journal's unsaved records durable: one write
	// and one fsync, the first of which creates the file.
	saveCheckpoint := func() error {
		if jr == nil || jr.unsaved == 0 {
			return nil
		}
		defer mreg.Timer("satattack_checkpoint_seconds")()
		mreg.Add("resume_checkpoints_written_total", 1)
		return jr.flush(opts.CheckpointPath)
	}
	for res.Iterations < maxIter {
		if cerr := interrupt.Check(ctx, attackOp, nil); cerr != nil {
			return interrupted(cerr)
		}
		iterTimer = mreg.Timer("satattack_iteration_seconds")
		found, err := me.S.SolveAssuming(ctx, act)
		if err != nil {
			if errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded) {
				return interrupted(err)
			}
			stopIter()
			return nil, fmt.Errorf("satattack: miter solve (iteration %d): %w", res.Iterations+1, err)
		}
		if !found {
			stopIter()
			break // no more DIPs: key space collapsed to correct classes
		}
		res.Iterations++
		mreg.Add("satattack_dips_total", 1)

		dip := make([]bool, len(inst1.Inputs))
		for i, v := range inst1.Inputs {
			dip[i] = me.S.Value(v)
		}
		res.DIPs = append(res.DIPs, dip)

		// Answer the DIP: from the replayed transcript while it lasts (the
		// solver is deterministic, so the re-solved DIP must match the
		// recorded one), live through the resilient querier after. The
		// logical query counter covers both paths — it tracks the
		// computation, not the I/O, and so stays in the deterministic
		// metrics subset.
		var outs []bool
		if replay != nil && res.Iterations <= replay.Iterations {
			rec, _ := stringToBits(replay.DIPs[res.Iterations-1]) // validated by LoadCheckpoint
			if !equalBits(dip, rec) {
				stopIter()
				return nil, fmt.Errorf("%w: iteration %d re-solved DIP %s, checkpoint recorded %s",
					ErrCheckpointMismatch, res.Iterations, bitsToString(dip), replay.DIPs[res.Iterations-1])
			}
			outs, _ = stringToBits(replay.Answers[res.Iterations-1])
			if len(outs) != len(locked.Outputs) {
				stopIter()
				return nil, fmt.Errorf("%w: iteration %d recorded a %d-bit answer, circuit has %d outputs",
					ErrCheckpointMismatch, res.Iterations, len(outs), len(locked.Outputs))
			}
			mreg.Add("resume_replayed_queries_total", 1)
		} else {
			outs, err = q.query(ctx, dip)
			if err != nil {
				if errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded) {
					return interrupted(err)
				}
				// Oracle exhausted: surface the partial result (DIPs paid
				// for so far, best-effort key) alongside the typed error so
				// a caller holding a checkpoint loses nothing. The
				// unanswered DIP constrains nothing.
				stopIter()
				res.Duration = time.Since(start)
				extractKey()
				progress.End(hook, "attack", fmt.Sprintf("oracle failed after %d DIPs", res.Iterations))
				return res, fmt.Errorf("satattack: oracle query (iteration %d): %w", res.Iterations, err)
			}
			if jr != nil {
				jr.add(bitsToString(dip), bitsToString(outs), q.calls)
			}
		}
		mreg.Add("satattack_oracle_queries_total", 1)
		answers = append(answers, outs)

		// Constrain both miter key copies with the observed I/O behaviour.
		inBits := me.ConstVars(dip)
		for _, kv := range [][]int{inst1.Keys, inst2.Keys} {
			ci, err := me.Encode(locked, inBits, kv)
			if err != nil {
				stopIter()
				return nil, err
			}
			for i, ov := range ci.Outputs {
				me.FixVar(ov, outs[i])
			}
		}
		stopIter()

		// Checkpoint before the progress event: a hook that cancels on
		// seeing iteration k then finds the file holding exactly k
		// iterations, which is what the resume tests rely on.
		if res.Iterations%ckEvery == 0 {
			if err := saveCheckpoint(); err != nil {
				return nil, err
			}
		}
		progress.Emit(hook, progress.Event{
			Kind: progress.Step, Phase: "attack",
			Done: res.Iterations, Total: maxIter, Detail: "DIP",
		})
	}
	// Flush the transcript tail so the file always reflects the final state,
	// whatever interval the writes were on.
	if err := saveCheckpoint(); err != nil {
		return nil, err
	}
	if res.Iterations >= maxIter {
		cause := fmt.Errorf("%w (%d iterations)", ErrIterationBudget, maxIter)
		res.Duration = time.Since(start)
		extractKey()
		progress.End(hook, "attack", fmt.Sprintf("budget after %d DIPs", res.Iterations))
		return res, interrupt.Budget(attackOp, cause, res)
	}

	if err := keySolver(); err != nil {
		return nil, err
	}
	found, err := ke.S.Solve(ctx)
	if err != nil {
		if errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, interrupt.ErrBudgetExceeded) {
			return interrupted(err)
		}
		return nil, fmt.Errorf("satattack: key extraction: %w", err)
	}
	if !found {
		return nil, fmt.Errorf("satattack: constraints unsatisfiable; oracle inconsistent with netlist")
	}
	res.Key = keyValues(ke, keyVars)
	res.Duration = time.Since(start)
	progress.End(hook, "attack", fmt.Sprintf("%d DIPs", res.Iterations))
	return res, nil
}

// buildKeySolver encodes a transcript on a fresh solver: the cycle
// constraints over one key bus, then each answered DIP's I/O constraint.
// answers may be one shorter than dips (an unanswered last DIP).
func buildKeySolver(b sat.Backend, locked *netlist.Circuit, cycle []netlist.CycleClause, dips, answers [][]bool) (*cnf.Encoder, []int, error) {
	ke := cnf.NewEncoderBackend(b)
	keyVars := ke.FreshVars(len(locked.Keys))
	if err := ke.CycleClauses(keyVars, cycle); err != nil {
		return nil, nil, err
	}
	for d, outs := range answers {
		ci, err := ke.Encode(locked, ke.ConstVars(dips[d]), keyVars)
		if err != nil {
			return nil, nil, err
		}
		for i, ov := range ci.Outputs {
			ke.FixVar(ov, outs[i])
		}
	}
	return ke, keyVars, nil
}

// keyValues reads the key bus out of a satisfied key solver.
func keyValues(ke *cnf.Encoder, keyVars []int) []bool {
	key := make([]bool, len(keyVars))
	for i, v := range keyVars {
		key[i] = ke.S.Value(v)
	}
	return key
}
