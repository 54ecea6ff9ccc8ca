package codesign

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"bindlock/internal/binding"
	"bindlock/internal/dfg"
	"bindlock/internal/interrupt"
	"bindlock/internal/locking"
	"bindlock/internal/mediabench"
	"bindlock/internal/metrics"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/sim"
	"errors"
)

var (
	mintermX = dfg.CanonMinterm(dfg.Add, 1, 2)
	mintermY = dfg.CanonMinterm(dfg.Add, 3, 4)
	mintermZ = dfg.CanonMinterm(dfg.Add, 5, 6)
)

// fig1 rebuilds the Sec. III motivational DFG and occurrence table.
func fig1(t *testing.T) (*dfg.Graph, *sim.KMatrix) {
	t.Helper()
	g := dfg.New("fig1")
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	d := g.AddInput("d")
	e := g.AddInput("e")
	f := g.AddInput("f")
	opA := g.AddBinary(dfg.Add, a, b)
	opB := g.AddBinary(dfg.Add, d, e)
	opC := g.AddBinary(dfg.Add, opA, c)
	opD := g.AddBinary(dfg.Add, opB, f)
	g.AddOutput("y1", opC)
	g.AddOutput("y2", opD)
	g.Ops[opA].Cycle = 1
	g.Ops[opB].Cycle = 1
	g.Ops[opC].Cycle = 2
	g.Ops[opD].Cycle = 2
	k := sim.NewKMatrix(len(g.Ops))
	k.Add(mintermX, opA, 6)
	k.Add(mintermX, opB, 1)
	k.Add(mintermX, opD, 10)
	k.Add(mintermY, opA, 9)
	k.Add(mintermY, opD, 8)
	return g, k
}

// TestCoDesignMotivationalExample reproduces Sec. III-C: free to choose the
// locked input from {x, y}, co-design locks y and achieves 17 errors —
// beating every configuration locking x.
func TestCoDesignMotivationalExample(t *testing.T) {
	g, k := fig1(t)
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 1, MintermsPerFU: 1,
		Candidates: []dfg.Minterm{mintermX, mintermY},
		Scheme:     locking.SFLLRem,
	}
	for name, run := range map[string]func(context.Context, *dfg.Graph, *sim.KMatrix, Options) (*Result, error){
		"optimal": Optimal, "heuristic": Heuristic,
	} {
		t.Run(name, func(t *testing.T) {
			r, err := run(context.Background(), g, k, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Errors != 17 {
				t.Errorf("errors = %d, want 17 (9+8 from locking y)", r.Errors)
			}
			lock := r.Cfg.Locks[0]
			if len(lock.Minterms) != 1 || lock.Minterms[0] != mintermY {
				t.Errorf("locked minterms = %v, want [y]", lock.Minterms)
			}
			if err := r.Binding.Validate(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHeuristicMatchesOptimalOnBenchmarks(t *testing.T) {
	// Tractable configurations on two real benchmarks: the heuristic must
	// land within a whisker of the optimum (paper: < 0.5% degradation).
	for _, name := range []string{"fir", "jdmerge3"} {
		b, err := mediabench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Prepare(context.Background(), 3, 300, 42)
		if err != nil {
			t.Fatal(err)
		}
		cands := p.Res.K.TopMinterms(p.G, dfg.ClassAdd, 8)
		cs := make([]dfg.Minterm, len(cands))
		for i, mc := range cands {
			cs[i] = mc.M
		}
		o := Options{
			Class: dfg.ClassAdd, NumFUs: 3, LockedFUs: 2, MintermsPerFU: 2,
			Candidates: cs, Scheme: locking.SFLLRem,
		}
		opt, err := Optimal(context.Background(), p.G, p.Res.K, o)
		if err != nil {
			t.Fatal(err)
		}
		heu, err := Heuristic(context.Background(), p.G, p.Res.K, o)
		if err != nil {
			t.Fatal(err)
		}
		if heu.Errors > opt.Errors {
			t.Fatalf("%s: heuristic %d beats optimal %d: optimal is broken", name, heu.Errors, opt.Errors)
		}
		if float64(heu.Errors) < 0.90*float64(opt.Errors) {
			t.Errorf("%s: heuristic %d more than 10%% below optimal %d", name, heu.Errors, opt.Errors)
		}
		if opt.Enumerated != 28*28 { // (8 choose 2)^2
			t.Errorf("%s: enumerated %d, want 784", name, opt.Enumerated)
		}
	}
}

func TestOptimalAgreesWithBruteForceBinder(t *testing.T) {
	// Cross-check the fast evaluator against the official binder: for every
	// enumerated combination the evaluator's cost must equal the cost of
	// the ObfuscationAware binding.
	b, err := mediabench.ByName("jdmerge1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Prepare(context.Background(), 2, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Res.K.TopMinterms(p.G, dfg.ClassMul, 5)
	cs := make([]dfg.Minterm, len(cands))
	for i, mc := range cands {
		cs[i] = mc.M
	}
	o := Options{
		Class: dfg.ClassMul, NumFUs: 2, LockedFUs: 1, MintermsPerFU: 2,
		Candidates: cs, Scheme: locking.SFLLRem,
	}
	if err := o.check(p.G, p.Res.K); err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(p.G, p.Res.K, &o)
	for _, combo := range combinations(len(cs), 2) {
		sets := make([][]int, o.NumFUs)
		sets[0] = combo
		want := ev.eval(sets)
		cfg := o.configFor(sets)
		bd, err := (binding.ObfuscationAware{}).Bind(&binding.Problem{
			G: p.G, Class: o.Class, NumFUs: o.NumFUs, K: p.Res.K, Lock: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := binding.ApplicationErrors(p.G, p.Res.K, cfg, bd)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("combo %v: evaluator %d, binder %d", combo, want, got)
		}
	}
}

func TestOptimalBudget(t *testing.T) {
	g, k := fig1(t)
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 1,
		Candidates: []dfg.Minterm{mintermX, mintermY, mintermZ},
		Scheme:     locking.SFLLRem,
		// 3^2 = 9 combinations > 4.
		MaxEnumerations: 4,
	}
	if _, err := Optimal(context.Background(), g, k, o); err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("err = %v, want budget error", err)
	}
	o.MaxEnumerations = 16
	r, err := Optimal(context.Background(), g, k, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Enumerated != 9 {
		t.Errorf("enumerated = %d, want 9", r.Enumerated)
	}
	if r.Degraded {
		t.Error("within-budget Optimal must not report Degraded")
	}
}

// TestOptimalDegradesToHeuristic: over budget with DegradeToHeuristic set,
// Optimal returns the heuristic's solution marked Degraded instead of
// failing, and bumps the degradation counter.
func TestOptimalDegradesToHeuristic(t *testing.T) {
	g, k := fig1(t)
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 1,
		Candidates:         []dfg.Minterm{mintermX, mintermY, mintermZ},
		Scheme:             locking.SFLLRem,
		MaxEnumerations:    4, // 3^2 = 9 > 4
		DegradeToHeuristic: true,
	}
	reg := metrics.New()
	ctx := metrics.NewContext(context.Background(), reg)
	r, err := Optimal(ctx, g, k, o)
	if err != nil {
		t.Fatalf("degrading Optimal: %v", err)
	}
	if !r.Degraded {
		t.Error("over-budget fallback must set Degraded")
	}
	if r.Cfg == nil || r.Binding == nil {
		t.Fatal("degraded result missing configuration or binding")
	}
	if v, _ := reg.Snapshot().Counter("codesign_degraded_total"); v != 1 {
		t.Errorf("codesign_degraded_total = %d, want 1", v)
	}
	// The fallback must agree with a direct Heuristic run.
	h, err := Heuristic(context.Background(), g, k, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors != h.Errors {
		t.Errorf("degraded errors = %d, direct heuristic = %d", r.Errors, h.Errors)
	}
}

func TestOptionValidation(t *testing.T) {
	g, k := fig1(t)
	base := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 1, MintermsPerFU: 1,
		Candidates: []dfg.Minterm{mintermX}, Scheme: locking.SFLLRem,
	}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"no locked FUs", func(o *Options) { o.LockedFUs = 0 }, "locked FU count"},
		{"too many locked FUs", func(o *Options) { o.LockedFUs = 3 }, "locked FU count"},
		{"too many minterms", func(o *Options) { o.MintermsPerFU = 2 }, "candidates"},
		{"zero minterms", func(o *Options) { o.MintermsPerFU = 0 }, "candidates"},
		{"wrong scheme", func(o *Options) { o.Scheme = locking.FullLock }, "cannot pin"},
		{"allocation too small", func(o *Options) { o.NumFUs = 1; o.LockedFUs = 1 }, "below max concurrency"},
		{"duplicate candidates", func(o *Options) {
			o.Candidates = []dfg.Minterm{mintermX, mintermX}
		}, "duplicate candidate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mut(&o)
			_, err := Heuristic(context.Background(), g, k, o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	if _, err := Heuristic(context.Background(), nil, k, base); err == nil {
		t.Error("nil graph must error")
	}
}

func TestCombinations(t *testing.T) {
	c := combinations(4, 2)
	if len(c) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(c))
	}
	if c[0][0] != 0 || c[0][1] != 1 || c[5][0] != 2 || c[5][1] != 3 {
		t.Errorf("combinations = %v", c)
	}
	if len(combinations(3, 3)) != 1 {
		t.Error("C(3,3) must be 1")
	}
}

func TestMethodology(t *testing.T) {
	b, err := mediabench.ByName("dct")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Prepare(context.Background(), 3, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	cands := p.Res.K.TopMinterms(p.G, dfg.ClassAdd, 10)
	cs := make([]dfg.Minterm, len(cands))
	total := 0
	for i, mc := range cands {
		cs[i] = mc.M
		total += mc.Count
	}
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 3, LockedFUs: 2,
		Candidates: cs, Scheme: locking.SFLLRem,
	}
	// A modest error target plus a SAT time target that minterm locking
	// alone cannot reach (λ iterations at 10ms each is far below a year).
	target := Target{
		MinErrors:  total / 20,
		MinSATTime: 365 * 24 * time.Hour,
	}
	plan, err := Methodology(context.Background(), p.G, p.Res.K, o, target)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.Errors < target.MinErrors {
		t.Errorf("plan errors %d below target %d", plan.Result.Errors, target.MinErrors)
	}
	if plan.Lambda < 1 {
		t.Errorf("lambda = %v", plan.Lambda)
	}
	if plan.FullLockKeyBits <= 0 {
		t.Error("a year-long SAT target must require a routing network")
	}
	if plan.EstSATTime < target.MinSATTime {
		t.Errorf("estimated SAT time %v below target %v", plan.EstSATTime, target.MinSATTime)
	}
	if plan.AreaOverhead <= 0 || plan.PowerOverhead <= plan.AreaOverhead {
		t.Errorf("overheads area=%v power=%v", plan.AreaOverhead, plan.PowerOverhead)
	}

	// The same error target with a trivial SAT target needs no network.
	easy := Target{MinErrors: total / 20, MinSATTime: time.Millisecond}
	plan2, err := Methodology(context.Background(), p.G, p.Res.K, o, easy)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.FullLockKeyBits != 0 {
		t.Errorf("trivial SAT target sized a %d-bit network", plan2.FullLockKeyBits)
	}
	if plan2.AreaOverhead != 0 || plan2.PowerOverhead != 0 {
		t.Error("no network must mean no overhead")
	}

	// Minimality of locked inputs: a plan with fewer minterms per FU must
	// miss the error target.
	if plan.MintermsPerFU > 1 {
		o2 := o
		o2.MintermsPerFU = plan.MintermsPerFU - 1
		r, err := Heuristic(context.Background(), p.G, p.Res.K, o2)
		if err != nil {
			t.Fatal(err)
		}
		if r.Errors >= target.MinErrors {
			t.Errorf("methodology not minimal: %d minterms already reach target", o2.MintermsPerFU)
		}
	}

	// Unreachable error target.
	if _, err := Methodology(context.Background(), p.G, p.Res.K, o, Target{MinErrors: 1 << 30}); err == nil {
		t.Error("unreachable error target must error")
	}
}

// firedDeadline is a context whose deadline expires when fire is called, not
// at a wall-clock time: from then on Err reports context.DeadlineExceeded, so
// a test can land a deadline at a chosen point of a search however fast or
// loaded the machine is.
type firedDeadline struct {
	context.Context
	done chan struct{}
	once sync.Once
	at   time.Time // when fire closed done
}

func newFiredDeadline() *firedDeadline {
	return &firedDeadline{Context: context.Background(), done: make(chan struct{})}
}

func (c *firedDeadline) Done() <-chan struct{} { return c.done }

func (c *firedDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func (c *firedDeadline) fire() {
	c.once.Do(func() {
		c.at = time.Now()
		close(c.done)
	})
}

// TestOptimalCancellationMidSearch: an intractably large exact enumeration
// under a deadline must return promptly with the best-so-far co-design
// solution attached to a typed budget error. The deadline fires from the
// search's own progress once a first FU-0 shard has completed, so a
// best-so-far exists when it lands on every run, under -race and next to
// other busy test binaries too.
func TestOptimalCancellationMidSearch(t *testing.T) {
	g, k := fig1(t)
	// 30 candidates choose 3, over 2 locked FUs: 4060^2 ≈ 16.5M evaluations
	// in 4060 FU-0 shards of 4060 leaves each, far more than the search runs
	// before the deadline.
	var cands []dfg.Minterm
	for i := 0; i < 30; i++ {
		cands = append(cands, dfg.CanonMinterm(dfg.Add, uint8(10+i), uint8(40+i)))
	}
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 3,
		Candidates: cands, Scheme: locking.SFLLRem,
		MaxEnumerations: 1 << 30,
	}
	// Each shard reserves its leaves' progress ticks when it starts. With
	// two workers, a tick past the first two shards' leaves comes from a
	// third shard, which a worker pulls only after finishing one.
	const workers, shardLeaves = 2, 4060
	deadline := newFiredDeadline()
	ctx := progress.NewContext(parallel.NewContext(deadline, workers), progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Done > workers*shardLeaves {
			deadline.fire()
		}
	}))
	res, err := Optimal(ctx, g, k, o)
	returned := time.Now()
	if err == nil {
		t.Fatal("deadline must interrupt the optimal search")
	}
	if !errors.Is(err, interrupt.ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want budget/deadline semantics", err)
	}
	if elapsed := returned.Sub(deadline.at); elapsed > 100*time.Millisecond {
		t.Errorf("optimal returned %v after the deadline; want < 100ms", elapsed)
	}
	if res == nil {
		t.Fatal("interrupted optimal search must return its best-so-far result")
	}
	if res.Enumerated < shardLeaves {
		t.Errorf("partial result reports %d evaluated combinations, want at least one whole shard of %d", res.Enumerated, shardLeaves)
	}
	if res.Cfg == nil || res.Binding == nil {
		t.Error("partial result must be bound and costed")
	}
	if p, ok := interrupt.Partial[*Result](err); !ok || p != res {
		t.Errorf("error must carry the partial result: %v %v", p, ok)
	}
	t.Logf("optimal interrupted after %d evaluations", res.Enumerated)
}

// TestHeuristicExplicitCancel: cancelling mid-heuristic returns the FUs
// frozen so far with cancellation (not budget) semantics. The cancel fires
// from the search's own first progress tick, so it lands mid-search on
// every run however fast the machine is.
func TestHeuristicExplicitCancel(t *testing.T) {
	g, k := fig1(t)
	var cands []dfg.Minterm
	for i := 0; i < 22; i++ {
		cands = append(cands, dfg.CanonMinterm(dfg.Add, uint8(10+i), uint8(40+i)))
	}
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 4,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = progress.NewContext(ctx, progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step {
			cancel()
		}
	}))
	start := time.Now()
	_, err := Heuristic(ctx, g, k, o)
	elapsed := time.Since(start)
	if !errors.Is(err, interrupt.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want cancellation semantics", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("heuristic returned after %v; want < 100ms", elapsed)
	}
}

// TestMethodologyCancellation: the Sec. V-C methodology propagates
// interruption from its inner heuristic searches.
func TestMethodologyCancellation(t *testing.T) {
	g, k := fig1(t)
	var cands []dfg.Minterm
	for i := 0; i < 22; i++ {
		cands = append(cands, dfg.CanonMinterm(dfg.Add, uint8(10+i), uint8(40+i)))
	}
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Methodology(ctx, g, k, o, Target{MinErrors: 1 << 30, MaxMintermsPerFU: 8})
	if !errors.Is(err, interrupt.ErrCancelled) {
		t.Fatalf("err = %v; want cancellation to surface through the methodology", err)
	}
}

// TestCoDesignEmitsProgress: a context-carried hook observes the codesign
// phase lifecycle.
func TestCoDesignEmitsProgress(t *testing.T) {
	g, k := fig1(t)
	var cands []dfg.Minterm
	for i := 0; i < 12; i++ {
		cands = append(cands, dfg.CanonMinterm(dfg.Add, uint8(10+i), uint8(40+i)))
	}
	o := Options{
		Class: dfg.ClassAdd, NumFUs: 2, LockedFUs: 2, MintermsPerFU: 2,
		Candidates: cands, Scheme: locking.SFLLRem,
	}
	var c progress.Counter
	ctx := progress.NewContext(context.Background(), &c)
	if _, err := Optimal(ctx, g, k, o); err != nil {
		t.Fatal(err)
	}
	// (12 choose 2)^2 = 4356 evaluations at a 256 stride: several ticks.
	if c.Starts("codesign") != 1 || c.Ends("codesign") != 1 || c.Steps("codesign") == 0 {
		t.Errorf("progress events: starts=%d steps=%d ends=%d",
			c.Starts("codesign"), c.Steps("codesign"), c.Ends("codesign"))
	}
}
