// Package bindlock is a security-aware resource binding library for
// high-level synthesis, implementing "A Resource Binding Approach to Logic
// Obfuscation" (Zuzak, Liu, Srivastava — DAC 2021).
//
// Logic locking injects key-controlled errors into IC modules, but the SAT
// attack forces locked modules to corrupt only a handful of input minterms,
// which rarely disturbs the application. This library exploits the resource
// binding step of HLS to concentrate those few locked minterms where they
// hurt: the obfuscation-aware binder maps operations onto locked functional
// units to maximise locked-input hits, and the binding–obfuscation co-design
// algorithms pick the locked minterms and the binding together.
//
// The package is a facade over the internal implementation:
//
//   - Compile parses a kernel in a small C-like language into a data-flow
//     graph (internal/frontend).
//   - Prepare runs the full front-of-line flow: compile, schedule onto a
//     bounded FU allocation (internal/sched), generate a typical workload
//     (internal/trace) and simulate it to collect the input-minterm
//     occurrence matrix K (internal/sim). It is configured with functional
//     options (WithMaxFUs, WithSamples, WithWorkload, WithSeed,
//     WithProgress).
//   - Design.BindObfuscationAware, Design.CoDesign and Design.Methodology
//     expose the paper's algorithms (internal/binding, internal/codesign).
//   - Benchmarks returns the 11 MediaBench-derived kernels of the paper's
//     evaluation (internal/mediabench).
//   - The gate-level stack — netlists, locking constructions, the CDCL SAT
//     solver and the oracle-guided SAT attack — is exercised through the
//     LockAndAttack helper and the cmd/satattack tool.
//
// Every potentially long-running entry point takes a context.Context as its
// first argument. Cancellation and deadlines are honoured at natural
// iteration boundaries (solver restarts, attack DIPs, co-design candidate
// evaluations, workload samples); an interrupted call returns a typed error
// matching ErrCancelled or ErrBudgetExceeded — and the underlying
// context.Canceled / context.DeadlineExceeded — together with the partial
// result computed so far. Progress hooks attached with WithProgress (or
// progress-carrying contexts) receive per-phase telemetry from every layer.
//
// The compute stack fans independent work out over a bounded worker pool
// (internal/parallel): workload simulation shards samples, the co-design
// algorithms shard their combination enumerations, and the experiment
// drivers shard benchmarks, seeds and attack instances. The worker count
// comes from WithParallelism / WithParallelismContext (default GOMAXPROCS)
// and every result is bit-identical to a single-worker run, so parallelism
// only changes wall-clock time.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured reproduction record.
package bindlock

import (
	"context"
	"fmt"
	"io"
	"time"

	"bindlock/internal/alloc"
	"bindlock/internal/binding"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/elaborate"
	"bindlock/internal/fault"
	"bindlock/internal/frontend"
	"bindlock/internal/interrupt"
	"bindlock/internal/keymat"
	"bindlock/internal/lockedsim"
	"bindlock/internal/locking"
	"bindlock/internal/mediabench"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/opt"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/rtl"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
	"bindlock/internal/sched"
	"bindlock/internal/sim"
	"bindlock/internal/trace"
)

// Core data types, re-exported for downstream use.
type (
	// Graph is a (scheduled) data-flow graph.
	Graph = dfg.Graph
	// OpID identifies an operation in a Graph.
	OpID = dfg.OpID
	// Minterm is a packed 2x8-bit FU input pair.
	Minterm = dfg.Minterm
	// Class is a functional-unit class (adder or multiplier).
	Class = dfg.Class
	// KMatrix holds per-operation input-minterm occurrence counts.
	KMatrix = sim.KMatrix
	// SimResult is a workload simulation outcome (K matrix plus operand
	// streams).
	SimResult = sim.Result
	// Trace is an input workload.
	Trace = trace.Trace
	// WorkloadKind selects a synthetic workload family.
	WorkloadKind = trace.Generator
	// Binding maps operations onto FUs.
	Binding = binding.Binding
	// Binder is a binding algorithm.
	Binder = binding.Binder
	// LockConfig is a per-class locking configuration.
	LockConfig = locking.Config
	// FULock is the locking specification of one FU.
	FULock = locking.FULock
	// Scheme is a logic-locking technique.
	Scheme = locking.Scheme
	// CoDesignResult is a co-designed locking configuration and binding.
	CoDesignResult = codesign.Result
	// Plan is a Sec. V-C design-methodology outcome.
	Plan = codesign.Plan
	// DatapathMetrics reports register/mux/switching overhead.
	DatapathMetrics = rtl.Metrics
	// Benchmark is one of the paper's 11 evaluation kernels.
	Benchmark = mediabench.Benchmark
)

// FU classes.
const (
	ClassAdd = dfg.ClassAdd
	ClassMul = dfg.ClassMul
)

// Workload families.
const (
	WorkloadUniform     = trace.Uniform
	WorkloadImageBlocks = trace.ImageBlocks
	WorkloadAudio       = trace.Audio
	WorkloadBitstream   = trace.Bitstream
	WorkloadSensorNoise = trace.SensorNoise
)

// Locking schemes.
const (
	SFLLRem       = locking.SFLLRem
	SFLLHD        = locking.SFLLHD
	StrongAntiSAT = locking.StrongAntiSAT
	FullLock      = locking.FullLock
)

// Interruption semantics, re-exported from internal/interrupt. A cancelled
// or budget-limited call returns an *InterruptError whose errors.Is matches
// one of these sentinels as well as the underlying context error.
var (
	// ErrCancelled marks work stopped by explicit context cancellation.
	ErrCancelled = interrupt.ErrCancelled
	// ErrBudgetExceeded marks work stopped by a deadline or an iteration /
	// conflict budget.
	ErrBudgetExceeded = interrupt.ErrBudgetExceeded
)

type (
	// InterruptError is the typed error carrying interruption kind, cause
	// and the partial result computed before the interruption.
	InterruptError = interrupt.Error
	// ProgressEvent is one telemetry event from a compute phase.
	ProgressEvent = progress.Event
	// ProgressHook receives ProgressEvents.
	ProgressHook = progress.Hook
	// ProgressLogger is a ready-made throttled textual ProgressHook.
	ProgressLogger = progress.Logger
	// MetricsRegistry aggregates counters, gauges and histograms from every
	// instrumented compute phase (see internal/metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time, sorted copy of a MetricsRegistry,
	// exportable as JSON or Prometheus text.
	MetricsSnapshot = metrics.Snapshot
)

// Robustness surface, re-exported from internal/fault and
// internal/satattack (see DESIGN.md, "Robustness & fault model").
type (
	// FaultPlan is a declarative, seed-deterministic fault-injection
	// schedule: oracle transients, per-bit output flips, latency spikes,
	// hard outage windows and named infrastructure fail-points. The zero
	// value injects nothing.
	FaultPlan = fault.Plan
	// RetryPolicy tunes per-oracle-query retry: attempt budget and
	// exponential backoff with seeded jitter.
	RetryPolicy = satattack.RetryPolicy
	// AttackCheckpoint is a saved SAT-attack oracle transcript (DIPs,
	// answers, counters); Attack resumes from it bit-identically.
	AttackCheckpoint = satattack.Checkpoint
)

// ErrOracleUnavailable marks an oracle query that failed even after its
// retry policy was exhausted (including vote splits below quorum).
var ErrOracleUnavailable = satattack.ErrOracleUnavailable

// ParseFaultPlan reads a fault-plan spec of comma-separated key=value
// fields, e.g. "seed=42,transient=0.1,bitflip=0.01,fail:sat.solve=50".
// An empty spec is the zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// WithFaultPlanContext returns a context carrying an injector for the plan:
// every attack downstream queries its oracle through it, and the fail-point
// sites (the SAT solver's "sat.solve", the workload simulator's "sim.run")
// consult it. The injector counts its faults in the context's metrics
// registry, so attach metrics first. A zero plan returns ctx unchanged.
func WithFaultPlanContext(ctx context.Context, p FaultPlan) context.Context {
	if p.Zero() {
		return ctx
	}
	return fault.NewContext(ctx, fault.New(p).WithRegistry(metrics.FromContext(ctx)))
}

// LoadAttackCheckpoint reads and validates a checkpoint written by a
// checkpointing attack (WithCheckpoint, or cmd/satattack -checkpoint). The
// file's digest chain must verify; passing a node key additionally
// requires a valid MAC chain under it, so a tampered transcript is rejected
// as a checkpoint mismatch rather than replayed.
func LoadAttackCheckpoint(path string, key ...[]byte) (*AttackCheckpoint, error) {
	var k []byte
	if len(key) > 0 {
		k = key[0]
	}
	return satattack.LoadCheckpoint(path, k)
}

// RandomSecret draws a cryptographically random locking secret of the
// given bit width (for an attack on w-bit operands, pass 2*w). Random
// per-use secrets are the production default; supplying a fixed secret is
// the opt-in reproducible mode.
func RandomSecret(bits int) (uint64, error) { return keymat.RandomSecret(bits) }

// NewMetricsRegistry returns an empty metrics registry. Attach it with
// WithMetrics (prepare flow) or WithMetricsContext (any context-aware call)
// and read it back with Snapshot once the computation finishes.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// WithMetricsContext returns a context carrying the registry; every
// instrumented call downstream — solver, attack, simulation, co-design,
// worker pool — accumulates its counters there. A nil registry returns ctx
// unchanged (metrics stay disabled at nil-check cost only).
func WithMetricsContext(ctx context.Context, r *MetricsRegistry) context.Context {
	return metrics.NewContext(ctx, r)
}

// PartialResult extracts the typed partial result from an interruption
// error: the best-so-far attack Result, co-design Result, solver Stats and
// so on, depending on which layer was interrupted.
func PartialResult[T any](err error) (T, bool) { return interrupt.Partial[T](err) }

// WithProgressContext returns a context carrying the hook; every
// context-aware call in the library emits its phase telemetry to it.
func WithProgressContext(ctx context.Context, h ProgressHook) context.Context {
	return progress.NewContext(ctx, h)
}

// WithParallelismContext returns a context carrying a worker-count bound for
// every fan-out point downstream: workload simulation shards, the co-design
// enumerations and the experiment sweeps. n <= 0 leaves the default
// (GOMAXPROCS) in effect. Results are bit-identical at any worker count —
// parallelism is purely a wall-clock setting.
func WithParallelismContext(ctx context.Context, n int) context.Context {
	return parallel.NewContext(ctx, n)
}

// Compile parses kernel source in the library's C-like kernel language into
// an unscheduled data-flow graph.
func Compile(src string) (*Graph, error) { return frontend.Compile(src) }

// OptimizeStats reports what the optimisation pipeline removed.
type OptimizeStats = opt.Result

// Optimize runs the HLS front-end passes (constant folding, common
// subexpression elimination, dead-code elimination) on an unscheduled graph,
// returning an equivalent, usually smaller graph.
func Optimize(g *Graph) (*Graph, OptimizeStats, error) { return opt.Optimize(g) }

// Benchmarks returns the 11 MediaBench-derived kernels of the paper's
// evaluation.
func Benchmarks() []Benchmark { return mediabench.All() }

// BenchmarkByName looks up one of the 11 kernels.
func BenchmarkByName(name string) (Benchmark, error) { return mediabench.ByName(name) }

// Design is a scheduled, workload-characterised kernel ready for
// security-aware binding.
type Design struct {
	G      *Graph
	Res    *SimResult
	NumFUs int
	// Trace is the workload the characterisation simulated over; with a
	// fixed seed it is byte-identical across runs.
	Trace *Trace
}

// Option configures the Prepare family of constructors.
type Option func(*prepareConfig)

type prepareConfig struct {
	maxFUs      int
	samples     int
	gen         WorkloadKind
	genSet      bool
	seed        int64
	hook        ProgressHook
	parallelism int
	metrics     *metrics.Registry
}

// registry resolves the effective metrics registry: the WithMetrics option
// wins, then one already carried on the context, then nil (disabled).
func (c *prepareConfig) registry(ctx context.Context) *metrics.Registry {
	if c.metrics != nil {
		return c.metrics
	}
	return metrics.FromContext(ctx)
}

func defaultPrepareConfig() prepareConfig {
	return prepareConfig{maxFUs: 2, samples: mediabench.DefaultSamples, gen: WorkloadUniform, seed: 1}
}

// WithMaxFUs sets the per-class FU allocation bound (default 2).
func WithMaxFUs(n int) Option { return func(c *prepareConfig) { c.maxFUs = n } }

// WithSamples sets the workload length (default 600).
func WithSamples(n int) Option { return func(c *prepareConfig) { c.samples = n } }

// WithWorkload selects the synthetic workload family (default
// WorkloadUniform; PrepareBenchmark defaults to the kernel's paper-matched
// family instead).
func WithWorkload(gen WorkloadKind) Option {
	return func(c *prepareConfig) { c.gen = gen; c.genSet = true }
}

// WithSeed sets the workload generator seed (default 1). Identical seeds
// yield byte-identical traces and identical K matrices.
func WithSeed(seed int64) Option { return func(c *prepareConfig) { c.seed = seed } }

// WithProgress attaches a progress hook for the prepare flow. The hook is
// carried on the context handed to the workload simulation; for telemetry
// from later calls (co-design, attacks) pass a WithProgressContext context
// to those calls.
func WithProgress(h ProgressHook) Option { return func(c *prepareConfig) { c.hook = h } }

// WithProgressFunc is WithProgress for a bare function.
func WithProgressFunc(f func(ProgressEvent)) Option { return WithProgress(progress.Func(f)) }

// WithParallelism bounds the worker count of the prepare flow's workload
// simulation (default: the context's setting, then GOMAXPROCS). The K matrix
// and operand streams are bit-identical at any worker count.
func WithParallelism(n int) Option { return func(c *prepareConfig) { c.parallelism = n } }

// WithMetrics attaches a metrics registry to the prepare flow: compile,
// schedule and simulation phase timings plus the design-shape gauges land in
// it, and the registry rides the context into the workload simulation. For
// telemetry from later calls (co-design, attacks) pass a WithMetricsContext
// context to those calls.
func WithMetrics(r *MetricsRegistry) Option { return func(c *prepareConfig) { c.metrics = r } }

// Prepare runs the experimental flow of the paper's Fig. 3 on kernel source:
// compile, schedule onto a bounded FU allocation with the path-based
// scheduler, generate a typical workload, and simulate it to obtain the K
// matrix. Cancellation interrupts the workload simulation at sample
// granularity.
func Prepare(ctx context.Context, src string, opts ...Option) (*Design, error) {
	cfg := resolveOptions(opts)
	stop := cfg.registry(ctx).Timer("frontend_compile_seconds")
	g, err := frontend.Compile(src)
	stop()
	if err != nil {
		return nil, err
	}
	return prepareGraph(ctx, g, cfg)
}

// PrepareGraph runs the scheduling and workload-characterisation flow on an
// already-compiled (for example, optimised) graph. The graph is scheduled in
// place.
func PrepareGraph(ctx context.Context, g *Graph, opts ...Option) (*Design, error) {
	return prepareGraph(ctx, g, resolveOptions(opts))
}

// resolveOptions folds the option list over the defaults.
func resolveOptions(opts []Option) prepareConfig {
	cfg := defaultPrepareConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func prepareGraph(ctx context.Context, g *Graph, cfg prepareConfig) (*Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.hook != nil {
		ctx = progress.NewContext(ctx, cfg.hook)
	}
	if cfg.parallelism > 0 {
		ctx = parallel.NewContext(ctx, cfg.parallelism)
	}
	if cfg.metrics != nil {
		ctx = metrics.NewContext(ctx, cfg.metrics)
	}
	mreg := metrics.FromContext(ctx)
	cons := sched.Constraints{MaxFUs: map[Class]int{ClassAdd: cfg.maxFUs, ClassMul: cfg.maxFUs}}
	stopSched := mreg.Timer("sched_schedule_seconds")
	_, err := sched.PathBased(g, cons)
	stopSched()
	if err != nil {
		return nil, err
	}
	mreg.Set("design_ops", float64(len(g.Ops)))
	mreg.Set("design_cycles", float64(g.Cycles()))
	var names []string
	for _, id := range g.Inputs() {
		names = append(names, g.Ops[id].Name)
	}
	tr := trace.Generate(cfg.gen, names, cfg.samples, cfg.seed)
	res, err := sim.Run(ctx, g, tr)
	if err != nil {
		return nil, err
	}
	return &Design{G: g, Res: res, NumFUs: cfg.maxFUs, Trace: tr}, nil
}

// PrepareBenchmark runs the same flow on one of the built-in kernels. The
// workload family defaults to the kernel's paper-matched generator; override
// it with WithWorkload.
func PrepareBenchmark(ctx context.Context, name string, opts ...Option) (*Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := mediabench.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := resolveOptions(opts)
	if !cfg.genSet {
		cfg.gen = b.Gen
	}
	stop := cfg.registry(ctx).Timer("frontend_compile_seconds")
	g, err := b.Compile()
	stop()
	if err != nil {
		return nil, err
	}
	return prepareGraph(ctx, g, cfg)
}

// Candidates returns the k most frequent input minterms of the class over
// the design's workload — the default candidate locked input list C of
// Sec. V-B.
func (d *Design) Candidates(class Class, k int) []Minterm {
	top := d.Res.K.TopMinterms(d.G, class, k)
	ms := make([]Minterm, len(top))
	for i, mc := range top {
		ms[i] = mc.M
	}
	return ms
}

// NewLockConfig builds a critical-minterm locking configuration: lockedFUs
// FUs of the allocation each protecting the corresponding minterm set.
func (d *Design) NewLockConfig(class Class, lockedFUs int, minterms [][]Minterm) (*LockConfig, error) {
	return locking.NewConfig(class, d.NumFUs, lockedFUs, locking.SFLLRem, minterms)
}

// BindObfuscationAware solves Problem 1 (Sec. IV): given a fixed locking
// configuration, bind to maximise locking-induced application errors.
func (d *Design) BindObfuscationAware(class Class, lock *LockConfig) (*Binding, error) {
	return (binding.ObfuscationAware{}).Bind(&binding.Problem{
		G: d.G, Class: class, NumFUs: d.NumFUs, K: d.Res.K, Lock: lock,
	})
}

// BindBaseline binds with a security-oblivious baseline: "area" (register
// minimising, Huang et al. [20]), "power" (switching minimising, Chang et
// al. [19]) or "random".
func (d *Design) BindBaseline(class Class, name string) (*Binding, error) {
	var b Binder
	switch name {
	case "area":
		b = binding.AreaAware{}
	case "power":
		b = binding.PowerAware{}
	case "random":
		b = binding.Random{Seed: 1}
	default:
		return nil, fmt.Errorf("bindlock: unknown baseline %q (want area, power or random)", name)
	}
	return b.Bind(&binding.Problem{
		G: d.G, Class: class, NumFUs: d.NumFUs, K: d.Res.K, Res: d.Res,
	})
}

// ApplicationErrors evaluates the paper's Eqn. 2 cost: the expected number
// of locked-input applications to locked FUs over the workload.
func (d *Design) ApplicationErrors(lock *LockConfig, b *Binding) (int, error) {
	return binding.ApplicationErrors(d.G, d.Res.K, lock, b)
}

// CoDesign solves Problem 2 (Sec. V) with the P-time heuristic: choose the
// binding and the locked minterms (mintermsPerFU each from candidates) for
// lockedFUs FUs to maximise application errors.
// Cancellation is honoured per candidate evaluation; an interrupted search
// returns the configuration frozen so far inside the typed error.
func (d *Design) CoDesign(ctx context.Context, class Class, lockedFUs, mintermsPerFU int, candidates []Minterm) (*CoDesignResult, error) {
	return codesign.Heuristic(ctx, d.G, d.Res.K, codesign.Options{
		Class: class, NumFUs: d.NumFUs, LockedFUs: lockedFUs,
		MintermsPerFU: mintermsPerFU, Candidates: candidates,
		Scheme: locking.SFLLRem,
	})
}

// CoDesignOptimal solves Problem 2 exactly (exponential enumeration).
func (d *Design) CoDesignOptimal(ctx context.Context, class Class, lockedFUs, mintermsPerFU int, candidates []Minterm) (*CoDesignResult, error) {
	return codesign.Optimal(ctx, d.G, d.Res.K, codesign.Options{
		Class: class, NumFUs: d.NumFUs, LockedFUs: lockedFUs,
		MintermsPerFU: mintermsPerFU, Candidates: candidates,
		Scheme: locking.SFLLRem,
	})
}

// Methodology runs the Sec. V-C design flow: find the smallest locked-input
// count meeting minErrors, then size a Full-Lock-style routing network (only
// if needed) so the modelled SAT attack takes at least minSATTime.
func (d *Design) Methodology(ctx context.Context, class Class, lockedFUs int, candidates []Minterm,
	minErrors int, minSATTime time.Duration) (*Plan, error) {
	return codesign.Methodology(ctx, d.G, d.Res.K,
		codesign.Options{
			Class: class, NumFUs: d.NumFUs, LockedFUs: lockedFUs,
			Candidates: candidates, Scheme: locking.SFLLRem,
		},
		codesign.Target{MinErrors: minErrors, MinSATTime: minSATTime})
}

// Overhead measures the bound datapath (register count, mux inputs,
// switching rate) for the given per-class bindings.
func (d *Design) Overhead(bindings map[Class]*Binding) (DatapathMetrics, error) {
	return rtl.Measure(d.G, bindings, d.Res)
}

// WriteVerilog emits the bound design as a synthesisable RTL module with
// shared FUs, input multiplexers and a cycle-counter controller. Every FU
// class present in the design needs a binding.
func (d *Design) WriteVerilog(w io.Writer, bindings map[Class]*Binding) error {
	return rtl.WriteVerilog(w, d.G, bindings)
}

// CorruptionReport is a functional locked-design simulation outcome.
type CorruptionReport = lockedsim.Report

// SimulateLocked runs the design's workload through the locked datapath
// under a wrong key and reports injected and application-visible errors.
func (d *Design) SimulateLocked(ctx context.Context, tr *Trace, b *Binding, cfg *LockConfig) (CorruptionReport, error) {
	return lockedsim.Run(ctx, d.G, tr, b, cfg)
}

// MinimalAllocation returns the smallest per-class FU counts under which the
// path-based scheduler meets the latency bound (the allocation phase of HLS).
func MinimalAllocation(g *Graph, latency int) (map[Class]int, error) {
	return alloc.Minimal(g, latency)
}

// AllocationTradeoff sweeps the class allocation from 1 to maxFUs and
// reports the achieved latency at each point.
func AllocationTradeoff(g *Graph, class Class, maxFUs int) ([]alloc.Point, error) {
	return alloc.Tradeoff(g, class, maxFUs)
}

// Resilience returns Eqn. 1's expected SAT-attack iteration count for a
// locking configuration (the weakest locked module governs).
func Resilience(lock *LockConfig) (float64, error) {
	return locking.ConfigResilience(lock)
}

// AttackOutcome reports a gate-level SAT attack run from LockAndAttack or
// AttackDesign.
type AttackOutcome struct {
	// Iterations is the number of distinguishing input patterns needed.
	Iterations int
	// Duration is the attack wall time.
	Duration time.Duration
	// KeyBits is the locked circuit's key length.
	KeyBits int
	// GateCount is the locked circuit's logic gate count.
	GateCount int
	// Key is the recovered key (on an interrupted run, the best-so-far
	// guess consistent with every observed oracle answer; nil when even
	// that could not be extracted).
	Key []bool
}

// ElaboratedDesign is a flat gate-level realisation of a bound, locked
// design (see internal/elaborate).
type ElaboratedDesign = elaborate.Result

// Elaborate lowers the design into one gate-level netlist under the given
// per-class bindings, realising cfg's locked FUs as SFLL hardware with
// per-FU shared keys. Pass a nil cfg for an unlocked reference netlist.
func (d *Design) Elaborate(bindings map[Class]*Binding, cfg *LockConfig) (*ElaboratedDesign, error) {
	return elaborate.Design(d.G, bindings, cfg)
}

// AttackOption configures the SAT-attack run of LockAndAttack and AttackDesign.
type AttackOption func(*attackConfig)

type attackConfig struct {
	opts       satattack.Options
	resumePath string
	cyclic     *cyclicLock // set by WithCyclicLock
}

type cyclicLock struct {
	cycles, decoys int
	seed           int64
}

// WithAttackRetry makes every oracle query resilient: up to
// p.MaxAttempts tries with exponential backoff and seeded jitter before the
// query fails with an error matching ErrOracleUnavailable.
func WithAttackRetry(p RetryPolicy) AttackOption {
	return func(c *attackConfig) { c.opts.Retry = p }
}

// WithAttackVoting answers each DIP by majority vote over `votes` oracle
// queries; each output bit needs at least `quorum` agreeing votes (0: simple
// majority). Voting absorbs bit-flip noise a single query would swallow.
func WithAttackVoting(votes, quorum int) AttackOption {
	return func(c *attackConfig) { c.opts.Votes, c.opts.Quorum = votes, quorum }
}

// WithCheckpoint makes the attack journal its oracle transcript to path,
// appending after every DIP, so a killed attack loses no oracle work.
func WithCheckpoint(path string) AttackOption {
	return func(c *attackConfig) { c.opts.CheckpointPath = path }
}

// WithResume resumes the attack from a checkpoint file: recorded DIPs are
// replayed (and asserted against the re-solved ones) instead of re-querying
// the oracle, and the run continues bit-identically from where it stopped.
func WithResume(path string) AttackOption {
	return func(c *attackConfig) { c.resumePath = path }
}

// WithCheckpointKey MACs every checkpoint write with the node key and
// requires a valid MAC when resuming (WithResume), making transcripts
// tamper-evident: a modified .ckpt fails as a checkpoint mismatch instead
// of steering the resumed attack.
func WithCheckpointKey(key []byte) AttackOption {
	return func(c *attackConfig) { c.opts.CheckpointKey = key }
}

// WithCyclicLock attacks an SRCLock-style cyclic lock instead of the
// target's own: `cycles` key-programmed feedback MUXes plus `decoys` acyclic
// decoy MUXes, placement drawn from seed (netlist.LockCyclic). The CycSAT
// cycle-breaking constraints are always on: they are what let the attack
// terminate where the plain one diverges.
func WithCyclicLock(cycles, decoys int, seed int64) AttackOption {
	return func(c *attackConfig) { c.cyclic = &cyclicLock{cycles: cycles, decoys: decoys, seed: seed} }
}

// WithSolverBackend selects the sat solver engine by registered name; see
// SolverBackends for the available names. The default is "cdcl". The name is
// recorded in checkpoints, so a transcript is never resumed under a
// different engine.
func WithSolverBackend(name string) AttackOption {
	return func(c *attackConfig) { c.opts.Solver = name }
}

// WithAttackIterations bounds the DIP loop: the attack stops with a typed
// budget error — and the best-so-far key — after n iterations.
func WithAttackIterations(n int) AttackOption {
	return func(c *attackConfig) { c.opts.MaxIterations = n }
}

// WithSolverConflicts bounds every individual SAT call of the attack to n
// conflicts, surfacing as a typed budget error when exhausted.
func WithSolverConflicts(n int64) AttackOption {
	return func(c *attackConfig) { c.opts.MaxConflicts = n }
}

// SolverBackends lists the registered sat solver engine names, sorted.
func SolverBackends() []string { return sat.Backends() }

// DefaultSolverBackend is the engine attacks use when no backend is selected.
const DefaultSolverBackend = sat.DefaultBackend

// LockAndAttack synthesises a gate-level adder FU of the given operand
// width, locks it with SFLL-HD(0) protecting the secret minterm, and runs
// the full oracle-guided SAT attack against it. It validates that the
// recovered key is functionally correct and reports the measured effort —
// the empirical side of Eqn. 1. Under WithCyclicLock the adder is locked
// cyclically instead and the secret is ignored.
//
// A context deadline bounds the attack: on interruption the partial
// AttackOutcome (DIP iterations completed so far) is returned alongside a
// typed error matching ErrBudgetExceeded or ErrCancelled. AttackOptions add
// the robustness surface: oracle retry, per-DIP voting and
// checkpoint/resume; faults come from a WithFaultPlanContext context.
func LockAndAttack(ctx context.Context, operandBits int, secret uint64, options ...AttackOption) (*AttackOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg attackConfig
	for _, o := range options {
		o(&cfg)
	}
	base, err := netlist.NewAdder(operandBits)
	if err != nil {
		return nil, err
	}
	if cfg.cyclic != nil {
		return runGateAttack(ctx, base, nil, cfg, "bindlock: lock and attack")
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{secret})
	if err != nil {
		return nil, err
	}
	return runGateAttack(ctx, locked, key, cfg, "bindlock: lock and attack")
}

// AttackDesign runs the oracle-guided SAT attack against an elaborated
// design — the whole bound datapath with its locked FUs realised as SFLL
// hardware — instead of a single synthetic FU. The same option surface as
// LockAndAttack applies: retry, voting, checkpoint/resume, solver backend
// and WithCyclicLock, which needs a design elaborated unlocked (nil
// LockConfig) and attacks a cyclically locked copy of it. Full attacks on
// paper-sized locking configurations are expensive by design (that is
// Eqn. 1's point); bound exploratory runs with WithAttackIterations or a
// context deadline, and read the partial outcome.
func AttackDesign(ctx context.Context, ed *ElaboratedDesign, options ...AttackOption) (*AttackOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ed == nil || ed.Circuit == nil {
		return nil, fmt.Errorf("bindlock: attack design: nil elaborated design")
	}
	var cfg attackConfig
	for _, o := range options {
		o(&cfg)
	}
	if cfg.cyclic != nil && len(ed.CorrectKey) != 0 {
		return nil, fmt.Errorf("bindlock: attack design cyclic: design already carries %d key bits; elaborate with a nil lock config", len(ed.CorrectKey))
	}
	return runGateAttack(ctx, ed.Circuit, ed.CorrectKey, cfg, "bindlock: attack design")
}

// runGateAttack is the shared attack driver behind LockAndAttack and
// AttackDesign: WithCyclicLock's lock of the unlocked circuit (cycle
// breaking forced on), checkpoint resume, the attack itself, and key
// verification on a completed run. The attack queries the oracle through
// the context's fault injector; the verification queries it directly, a
// bench check under good conditions rather than another noisy query.
func runGateAttack(ctx context.Context, locked *netlist.Circuit, correctKey []bool, cfg attackConfig, op string) (*AttackOutcome, error) {
	if c := cfg.cyclic; c != nil {
		var err error
		if locked, correctKey, err = netlist.LockCyclic(locked, c.cycles, c.decoys, c.seed); err != nil {
			return nil, err
		}
		cfg.opts.CycleBreak = true
		metrics.FromContext(ctx).Add("cyclock_cycles_inserted", int64(len(locked.Feedback)))
	}
	if cfg.resumePath != "" {
		cp, err := satattack.LoadCheckpoint(cfg.resumePath, cfg.opts.CheckpointKey)
		if err != nil {
			return nil, err
		}
		cfg.opts.Resume = cp
	}
	oracle := satattack.OracleFromCircuit(locked, correctKey)
	outcome := func(res *satattack.Result) *AttackOutcome {
		return &AttackOutcome{
			Iterations: res.Iterations,
			Duration:   res.Duration,
			KeyBits:    len(locked.Keys),
			GateCount:  locked.LogicGates(),
			Key:        res.Key,
		}
	}
	res, err := satattack.Attack(ctx, locked, oracle, cfg.opts)
	if err != nil {
		if res != nil {
			out := outcome(res)
			return out, interrupt.Rewrap(op, err, out)
		}
		return nil, err
	}
	if err := satattack.VerifyKey(ctx, locked, res.Key, oracle, cfg.opts.Retry); err != nil {
		return nil, err
	}
	return outcome(res), nil
}
