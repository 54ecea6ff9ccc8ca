package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"bindlock"
	"bindlock/internal/fault"
	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
)

// The result payloads, one per job kind. These are the bytes the result
// cache stores, so they contain only deterministic fields — never wall
// time, which lives on the job record instead.

// PrepareResult summarises a prepared design.
type PrepareResult struct {
	Name     string `json:"name,omitempty"`
	Adds     int    `json:"adds"`
	Muls     int    `json:"muls"`
	Inputs   int    `json:"inputs"`
	Outputs  int    `json:"outputs"`
	Cycles   int    `json:"cycles"`
	NumFUs   int    `json:"num_fus"`
	Samples  int    `json:"samples"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// TopAdd and TopMul are the most frequent input minterms per class over
	// the workload — the default candidate locked-input lists.
	TopAdd []uint32 `json:"top_add,omitempty"`
	TopMul []uint32 `json:"top_mul,omitempty"`
}

// LockSpec is one FU's locking specification in a result payload.
type LockSpec struct {
	FU       int      `json:"fu"`
	Scheme   string   `json:"scheme"`
	Minterms []uint32 `json:"minterms"`
	KeyBits  int      `json:"key_bits"`
}

// BoundOp is one operation-to-FU assignment in a result payload.
type BoundOp struct {
	Op int `json:"op"`
	FU int `json:"fu"`
}

// LockResult is a locking configuration with its Eqn. 1 resilience.
type LockResult struct {
	Class  string     `json:"class"`
	NumFUs int        `json:"num_fus"`
	Locks  []LockSpec `json:"locks"`
	// Lambda is the expected SAT-attack iteration count of Eqn. 1.
	Lambda float64 `json:"lambda"`
}

// BindResult is a binding under a fixed locking configuration with its
// Eqn. 2 application-error cost.
type BindResult struct {
	Binder string     `json:"binder"`
	Class  string     `json:"class"`
	NumFUs int        `json:"num_fus"`
	Locks  []LockSpec `json:"locks"`
	Assign []BoundOp  `json:"assign"`
	// Errors is the expected locked-input application count of Eqn. 2.
	Errors int `json:"errors"`
}

// CodesignResult is a co-designed locking configuration and binding.
type CodesignResult struct {
	Class      string     `json:"class"`
	NumFUs     int        `json:"num_fus"`
	Candidates int        `json:"candidates"`
	Locks      []LockSpec `json:"locks"`
	Assign     []BoundOp  `json:"assign"`
	Errors     int        `json:"errors"`
	Enumerated int        `json:"enumerated"`
	Lambda     float64    `json:"lambda"`
}

// AttackResult is a completed gate-level SAT attack: the recovered key and
// the measured effort.
type AttackResult struct {
	OperandBits int    `json:"operand_bits"`
	Scheme      string `json:"scheme"`
	Secret      uint64 `json:"secret,omitempty"`
	KeyBits     int    `json:"key_bits"`
	GateCount   int    `json:"gate_count"`
	Iterations  int    `json:"iterations"`
	// FeedbackEdges is the cyclic lock's key-programmed feedback MUX count
	// (scheme "cyclic" only).
	FeedbackEdges int `json:"feedback_edges,omitempty"`
	// Key is the recovered key as a '0'/'1' string, least significant bit
	// first, verified functionally correct against the oracle.
	Key string `json:"key"`
}

// AttackPartial is the best-so-far state of an interrupted attack.
type AttackPartial struct {
	Iterations int `json:"iterations"`
	KeyBits    int `json:"key_bits"`
	GateCount  int `json:"gate_count"`
}

// run dispatches a job to its kind's executor.
func (m *Manager) run(ctx context.Context, j *job) (any, error) {
	r := j.req
	if r.Kind == KindAttack {
		return m.runAttack(ctx, j)
	}
	d, err := m.design(ctx, r)
	if err != nil {
		return nil, err
	}
	switch r.Kind {
	case KindPrepare:
		return prepareResult(r, d), nil
	case KindBind:
		return runBind(r, d)
	case KindLock:
		return runLock(r, d)
	case KindCodesign:
		return runCodesign(ctx, r, d)
	}
	return nil, fmt.Errorf("server: no executor for kind %q", r.Kind)
}

// design returns the prepared design for r's front-of-line fields, memoised
// under the prepare fingerprint so a burst of bind/lock/codesign jobs over
// one kernel compiles and simulates it once.
func (m *Manager) design(ctx context.Context, r *resolved) (*bindlock.Design, error) {
	key := r.prepareFingerprint().Key()
	if d, ok := m.designs.Get(key); ok {
		m.reg.Add("server_design_memo_hit_total", 1)
		return d, nil
	}
	m.reg.Add("server_design_memo_miss_total", 1)
	opts := []bindlock.Option{
		bindlock.WithMaxFUs(r.MaxFUs),
		bindlock.WithSamples(r.Samples),
		bindlock.WithWorkload(r.gen),
		bindlock.WithSeed(r.Seed),
	}
	var d *bindlock.Design
	var err error
	if r.Bench != "" {
		d, err = bindlock.PrepareBenchmark(ctx, r.Bench, opts...)
	} else {
		d, err = bindlock.Prepare(ctx, r.Source, opts...)
	}
	if err != nil {
		return nil, err
	}
	m.designs.Put(key, d)
	return d, nil
}

func prepareResult(r *resolved, d *bindlock.Design) *PrepareResult {
	st := d.G.Stat()
	return &PrepareResult{
		Name: st.Name, Adds: st.Adds, Muls: st.Muls,
		Inputs: st.Inputs, Outputs: st.Outputs, Cycles: st.Cycles,
		NumFUs: d.NumFUs, Samples: r.Samples, Workload: r.Workload, Seed: r.Seed,
		TopAdd: minterms32(d.Candidates(bindlock.ClassAdd, 5)),
		TopMul: minterms32(d.Candidates(bindlock.ClassMul, 5)),
	}
}

// lockConfig builds the job's locking configuration: the LockedFUs most
// frequent candidate minterms of the class, MintermsPerFU each.
func lockConfig(r *resolved, d *bindlock.Design) (*bindlock.LockConfig, error) {
	need := r.LockedFUs * r.MintermsPerFU
	cands := d.Candidates(r.class, need)
	if len(cands) < need {
		return nil, fmt.Errorf("workload yields %d %s candidate minterms, need %d",
			len(cands), r.Class, need)
	}
	sets := make([][]bindlock.Minterm, r.LockedFUs)
	for i := range sets {
		sets[i] = cands[i*r.MintermsPerFU : (i+1)*r.MintermsPerFU]
	}
	return d.NewLockConfig(r.class, r.LockedFUs, sets)
}

func runLock(r *resolved, d *bindlock.Design) (any, error) {
	cfg, err := lockConfig(r, d)
	if err != nil {
		return nil, err
	}
	lambda, err := bindlock.Resilience(cfg)
	if err != nil {
		return nil, err
	}
	return &LockResult{
		Class: r.Class, NumFUs: cfg.NumFUs,
		Locks: lockSpecs(cfg), Lambda: lambda,
	}, nil
}

func runBind(r *resolved, d *bindlock.Design) (any, error) {
	cfg, err := lockConfig(r, d)
	if err != nil {
		return nil, err
	}
	var b *bindlock.Binding
	if r.Binder == "obfuscation-aware" {
		b, err = d.BindObfuscationAware(r.class, cfg)
	} else {
		b, err = d.BindBaseline(r.class, r.Binder)
	}
	if err != nil {
		return nil, err
	}
	errs, err := d.ApplicationErrors(cfg, b)
	if err != nil {
		return nil, err
	}
	return &BindResult{
		Binder: r.Binder, Class: r.Class, NumFUs: cfg.NumFUs,
		Locks: lockSpecs(cfg), Assign: assignList(b), Errors: errs,
	}, nil
}

func runCodesign(ctx context.Context, r *resolved, d *bindlock.Design) (any, error) {
	cands := d.Candidates(r.class, r.Candidates)
	if len(cands) < r.LockedFUs*r.MintermsPerFU {
		return nil, fmt.Errorf("workload yields %d %s candidate minterms, need %d",
			len(cands), r.Class, r.LockedFUs*r.MintermsPerFU)
	}
	res, err := d.CoDesign(ctx, r.class, r.LockedFUs, r.MintermsPerFU, cands)
	if err != nil {
		// Surface the frozen-so-far configuration inside the job record.
		if p, ok := bindlock.PartialResult[*bindlock.CoDesignResult](err); ok && p != nil {
			return codesignPayload(r, len(cands), p), err
		}
		return nil, err
	}
	return codesignPayload(r, len(cands), res), nil
}

func codesignPayload(r *resolved, candidates int, res *bindlock.CoDesignResult) *CodesignResult {
	out := &CodesignResult{
		Class: r.Class, Candidates: candidates,
		Errors: res.Errors, Enumerated: res.Enumerated,
	}
	if res.Cfg != nil {
		out.NumFUs = res.Cfg.NumFUs
		out.Locks = lockSpecs(res.Cfg)
		if lambda, err := bindlock.Resilience(res.Cfg); err == nil {
			out.Lambda = lambda
		}
	}
	if res.Binding != nil {
		out.Assign = assignList(res.Binding)
	}
	return out
}

// runAttack mirrors the facade's LockAndAttack, run directly over the
// gate-level stack so the recovered key lands in the result payload. When a
// checkpoint directory is configured the attack persists its oracle
// transcript under the job's fingerprint key; a resubmission after a drain
// or crash resumes from it and — by the transcript-replay contract —
// recovers a bit-identical key.
func (m *Manager) runAttack(ctx context.Context, j *job) (any, error) {
	r := j.req
	base, err := netlist.NewAdder(r.OperandBits)
	if err != nil {
		return nil, err
	}
	var locked *netlist.Circuit
	var key []bool
	if r.Scheme == SchemeCyclic {
		locked, key, err = netlist.LockCyclic(base, r.CycleEdges, r.CycleDecoys, r.Seed)
		if err == nil {
			m.reg.Add("cyclock_cycles_inserted", int64(len(locked.Feedback)))
		}
	} else {
		locked, key, err = netlist.LockSFLLHD0(base, []uint64{r.Secret})
	}
	if err != nil {
		return nil, err
	}
	opts := satattack.Options{
		CheckpointEvery: m.cfg.CheckpointEvery,
		CheckpointKey:   m.cfg.CheckpointKey,
		Solver:          r.Solver,
		CycleBreak:      r.Scheme == SchemeCyclic,
	}
	// coldRestart marks a checkpoint that existed but was rejected
	// (corrupt, tampered, foreign): the resume is abandoned and the fault
	// schedule must restart from call zero, exactly like the mid-replay
	// mismatch path below.
	coldRestart := false
	if m.cfg.CheckpointDir != "" {
		opts.CheckpointPath = filepath.Join(m.cfg.CheckpointDir, j.key+".ckpt")
		data, rerr := os.ReadFile(opts.CheckpointPath)
		if rerr == nil {
			// Route the raw bytes through the injector's corruption site
			// before decoding, so chaos runs drive the same detection path
			// real bit rot would.
			data = fault.CorruptAt(ctx, "ckpt.load", data)
			if cp, derr := satattack.DecodeCheckpoint(data, m.cfg.CheckpointKey); derr == nil {
				opts.Resume = cp
				j.setResumed(opts.CheckpointPath)
			} else {
				// Corrupt, tampered or foreign checkpoint: never resume
				// from it — drop the file and run cold, deterministically.
				m.reg.Add("resume_checkpoints_rejected_total", 1)
				os.Remove(opts.CheckpointPath)
				coldRestart = true
			}
		} else if !errors.Is(rerr, fs.ErrNotExist) {
			// Unreadable is as untrustworthy as unverifiable.
			m.reg.Add("resume_checkpoints_rejected_total", 1)
			os.Remove(opts.CheckpointPath)
			coldRestart = true
		}
	}
	// The clean oracle stays unwrapped for the final key verification; the
	// attack oracle goes through the context's fault injector when the daemon
	// runs under a fault plan (chaos harness, noisy-tester campaigns). On
	// resume the injector counter must first be realigned to the checkpoint's
	// oracle-call count — the calls before it were served in a previous
	// process, and the schedule has to continue exactly where an
	// uninterrupted run would be, not re-draw the served prefix's faults
	// against post-resume queries (that divergence was the daemon-side bug
	// the CLI's resume path never had).
	oracle := satattack.OracleFromCircuit(locked, key)
	attackOracle := oracle
	inj := fault.FromContext(ctx)
	if inj != nil {
		if opts.Resume != nil {
			inj.Seek(opts.Resume.OracleCalls)
		} else if coldRestart {
			// The rejected checkpoint's writer advanced the schedule; its
			// replacement cold run starts at call zero.
			inj.Seek(0)
		}
		attackOracle = satattack.OracleFunc(inj.WrapOracle(oracle.Query))
	}
	res, err := satattack.Attack(ctx, locked, attackOracle, opts)
	if err != nil && errors.Is(err, satattack.ErrCheckpointMismatch) && opts.Resume != nil {
		// The transcript belongs to some other run: discard and restart.
		// A cold run's fault schedule starts at call zero, so the injector
		// rewinds with it.
		m.reg.Add("resume_checkpoints_rejected_total", 1)
		os.Remove(opts.CheckpointPath)
		j.setResumed("")
		opts.Resume = nil
		inj.Seek(0)
		res, err = satattack.Attack(ctx, locked, attackOracle, opts)
	}
	if err != nil {
		if opts.CheckpointPath != "" {
			if _, serr := os.Stat(opts.CheckpointPath); serr == nil {
				j.setCheckpoint(opts.CheckpointPath)
			}
		}
		if res != nil {
			return &AttackPartial{
				Iterations: res.Iterations,
				KeyBits:    len(locked.Keys),
				GateCount:  locked.LogicGates(),
			}, err
		}
		return nil, err
	}
	if err := satattack.VerifyKey(ctx, locked, res.Key, oracle); err != nil {
		return nil, err
	}
	if opts.CheckpointPath != "" {
		// The transcript has served its purpose.
		os.Remove(opts.CheckpointPath)
	}
	return &AttackResult{
		OperandBits: r.OperandBits, Scheme: r.Scheme, Secret: r.Secret,
		KeyBits: len(locked.Keys), GateCount: locked.LogicGates(),
		Iterations: res.Iterations, FeedbackEdges: len(locked.Feedback),
		Key: bitString(res.Key),
	}, nil
}

func bitString(bits []bool) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

func minterms32(ms []bindlock.Minterm) []uint32 {
	out := make([]uint32, len(ms))
	for i, m := range ms {
		out[i] = uint32(m)
	}
	return out
}

func lockSpecs(cfg *bindlock.LockConfig) []LockSpec {
	out := make([]LockSpec, 0, len(cfg.Locks))
	for _, l := range cfg.Locks {
		out = append(out, LockSpec{
			FU: l.FU, Scheme: l.Scheme.String(),
			Minterms: minterms32(l.Minterms), KeyBits: l.KeyBits,
		})
	}
	return out
}

// assignList flattens a binding into a stable op-sorted list.
func assignList(b *bindlock.Binding) []BoundOp {
	out := make([]BoundOp, 0, len(b.Assign))
	for op, fu := range b.Assign {
		out = append(out, BoundOp{Op: int(op), FU: fu})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Op < out[k].Op })
	return out
}
