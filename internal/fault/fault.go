// Package fault is the deterministic fault-injection layer of the robustness
// stack: it models the noisy, flaky, rate-limited physical oracle (an
// activated IC on a tester) and injectable infrastructure failures (solver
// and simulator outages) that production-scale attack campaigns must survive.
//
// Every fault is drawn from a schedule keyed purely by (seed, call index):
// the Injector keeps one monotone call counter per surface and derives an
// independent RNG per call, so a fault plan is a pure function of its seed —
// replaying a prefix of calls reproduces exactly the same faults, and
// skipping a prefix (checkpoint resume) realigns by seeking the counter.
// That determinism is what makes every consumer's retry, voting and
// checkpoint behaviour testable with exact assertions.
//
// Four oracle fault families are modelled, matching how activated-IC query
// campaigns fail in practice:
//
//   - transient errors: the query fails with ErrTransient (tester glitch,
//     comms timeout) — retry usually succeeds;
//   - bit-flip noise: each output bit independently flips with a small
//     probability (marginal sampling, electrical noise) — majority voting
//     recovers the true answer;
//   - latency spikes: the query sleeps before answering (rate limiting,
//     device re-arm) — budgets and backoff absorb it;
//   - hard outages: a contiguous window of calls fails with ErrOutage (the
//     device goes away) — checkpointing preserves the DIP progress.
//
// Beyond the oracle, Hit provides named fail-points ("sat.solve", "sim.run")
// carried on a context, so infrastructure failures inject into the SAT
// solver and the workload simulator without either package knowing the plan.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bindlock/internal/metrics"
)

// ErrTransient marks a query that failed transiently; a retry may succeed.
var ErrTransient = errors.New("fault: transient error injected")

// ErrOutage marks a query inside a hard outage window; retries inside the
// window keep failing.
var ErrOutage = errors.New("fault: oracle outage injected")

// ErrInjected marks an infrastructure fail-point hit (solver, simulator).
var ErrInjected = errors.New("fault: failure injected")

// Plan is a declarative, seed-deterministic fault schedule. The zero value
// injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw. Two injectors with the same
	// plan produce the same fault schedule call for call.
	Seed int64
	// TransientRate is the per-call probability of an ErrTransient failure.
	TransientRate float64
	// BitFlipRate is the independent per-output-bit flip probability of a
	// successful query.
	BitFlipRate float64
	// LatencyRate is the per-call probability of a latency spike.
	LatencyRate float64
	// Latency is the sleep injected on a latency spike.
	Latency time.Duration
	// OutageStart/OutageLen define a hard outage: calls with 0-based index
	// in [OutageStart, OutageStart+OutageLen) fail with ErrOutage.
	OutageStart, OutageLen uint64
	// CorruptRate is the per-read probability that a disk-read fault site
	// (cache tier Get, checkpoint load) has one bit of its payload flipped
	// before the reader sees it — the at-rest corruption model the sealed
	// storage layer must detect. Which read corrupts and which bit flips are
	// both pure functions of (seed, site, per-site read index), so a
	// corruption schedule replays exactly.
	CorruptRate float64
	// FailEvery maps a fail-point site name ("sat.solve", "sim.run") to N:
	// every Nth Hit at that site (1-based) returns ErrInjected. 0 disables
	// the site.
	FailEvery map[string]uint64
}

// Zero reports whether the plan injects nothing at all.
func (p Plan) Zero() bool {
	return p.TransientRate == 0 && p.BitFlipRate == 0 && p.LatencyRate == 0 &&
		p.OutageLen == 0 && p.CorruptRate == 0 && len(p.FailEvery) == 0
}

// String renders the plan in the spec format Parse accepts.
func (p Plan) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Seed != 0 {
		add("seed=" + strconv.FormatInt(p.Seed, 10))
	}
	if p.TransientRate != 0 {
		add("transient=" + strconv.FormatFloat(p.TransientRate, 'g', -1, 64))
	}
	if p.BitFlipRate != 0 {
		add("bitflip=" + strconv.FormatFloat(p.BitFlipRate, 'g', -1, 64))
	}
	if p.LatencyRate != 0 {
		add("latency-rate=" + strconv.FormatFloat(p.LatencyRate, 'g', -1, 64))
	}
	if p.Latency != 0 {
		add("latency=" + p.Latency.String())
	}
	if p.OutageLen != 0 {
		add("outage-at=" + strconv.FormatUint(p.OutageStart, 10))
		add("outage-len=" + strconv.FormatUint(p.OutageLen, 10))
	}
	if p.CorruptRate != 0 {
		add("corrupt=" + strconv.FormatFloat(p.CorruptRate, 'g', -1, 64))
	}
	sites := make([]string, 0, len(p.FailEvery))
	for site := range p.FailEvery {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if n := p.FailEvery[site]; n != 0 {
			add("fail:" + site + "=" + strconv.FormatUint(n, 10))
		}
	}
	return strings.Join(parts, ",")
}

// Parse reads a fault-plan spec: comma-separated key=value pairs.
//
//	seed=42,transient=0.1,bitflip=0.01,latency=5ms,latency-rate=0.05,
//	outage-at=100,outage-len=20,corrupt=0.2,fail:sat.solve=50,fail:sim.run=3
//
// An empty spec is the zero plan.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: bad plan field %q (want key=value)", field)
		}
		var err error
		switch {
		case key == "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case key == "transient":
			p.TransientRate, err = parseRate(val)
		case key == "bitflip":
			p.BitFlipRate, err = parseRate(val)
		case key == "latency-rate":
			p.LatencyRate, err = parseRate(val)
		case key == "latency":
			p.Latency, err = time.ParseDuration(val)
		case key == "outage-at":
			p.OutageStart, err = strconv.ParseUint(val, 10, 64)
		case key == "outage-len":
			p.OutageLen, err = strconv.ParseUint(val, 10, 64)
		case key == "corrupt":
			p.CorruptRate, err = parseRate(val)
		case strings.HasPrefix(key, "fail:"):
			site := strings.TrimPrefix(key, "fail:")
			if site == "" {
				return Plan{}, fmt.Errorf("fault: empty fail-point site in %q", field)
			}
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			if err == nil {
				if p.FailEvery == nil {
					p.FailEvery = map[string]uint64{}
				}
				p.FailEvery[site] = n
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value in %q: %v", field, err)
		}
	}
	return p, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", r)
	}
	return r, nil
}

// Injector realises a Plan: it wraps oracles and answers fail-point hits,
// keeping the per-surface call counters that key the deterministic draws.
// It is safe for concurrent use.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	calls uint64            // oracle calls made (0-based index of the next call)
	sites map[string]uint64 // per-site Hit counts (1-based after increment)

	reg   *metrics.Registry
	sleep func(time.Duration) // latency realisation; replaceable in tests
}

// New returns an injector for the plan.
func New(p Plan) *Injector {
	return &Injector{plan: p, sites: map[string]uint64{}, sleep: time.Sleep}
}

// WithRegistry attaches a metrics registry; every injected fault is counted
// under fault_* names. It returns the injector for chaining.
func (i *Injector) WithRegistry(r *metrics.Registry) *Injector {
	i.reg = r
	return i
}

// Calls returns the number of oracle calls observed so far. Only queries
// through a WrapOracle wrapper count, so it stays where Seek left it (0 by
// default) under a plan without oracle faults.
func (i *Injector) Calls() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.calls
}

// Seek realigns the oracle call counter, as when resuming an attack from a
// checkpoint: calls before n were served in a previous process, and the
// schedule must continue from call n exactly as an uninterrupted run would.
// A plan without oracle faults has no oracle schedule, so seeking its
// counter changes nothing but Calls.
func (i *Injector) Seek(n uint64) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.calls = n
	i.mu.Unlock()
}

// callRNG derives the independent RNG of one call of a surface. splitmix64
// scrambles the index so neighbouring calls share no low-bit structure.
func (i *Injector) callRNG(surface string, n uint64) *rand.Rand {
	h := n + 0x9e3779b97f4a7c15
	for _, b := range []byte(surface) {
		h = (h ^ uint64(b)) * 0xbf58476d1ce4e5b9
	}
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return rand.New(rand.NewSource(i.plan.Seed ^ int64(h)))
}

// WrapsOracle reports whether WrapOracle interposes on queries: whether the
// injector's plan has a transient, bit-flip, latency or outage fault. A plan
// of fail-points or disk corruption alone leaves every oracle as it is.
func (i *Injector) WrapsOracle() bool {
	if i == nil {
		return false
	}
	p := i.plan
	return p.TransientRate != 0 || p.BitFlipRate != 0 || p.LatencyRate != 0 || p.OutageLen != 0
}

// WrapOracle interposes the plan on an oracle-shaped query function. The
// wrapper draws, per call and in fixed order: outage membership, transient
// failure, latency spike, then per-bit flips — so the fault seen by call n
// never depends on how many bits earlier calls returned. Without oracle
// faults (WrapsOracle false) it returns oracle unchanged and counts nothing.
func (i *Injector) WrapOracle(oracle func([]bool) ([]bool, error)) func([]bool) ([]bool, error) {
	if !i.WrapsOracle() {
		return oracle
	}
	return func(inputs []bool) ([]bool, error) {
		i.mu.Lock()
		n := i.calls
		i.calls++
		i.mu.Unlock()
		i.reg.Add("fault_oracle_calls_total", 1)

		if i.plan.OutageLen > 0 && n >= i.plan.OutageStart && n-i.plan.OutageStart < i.plan.OutageLen {
			i.reg.Add("fault_outages_total", 1)
			return nil, fmt.Errorf("%w (call %d)", ErrOutage, n)
		}
		rng := i.callRNG("oracle", n)
		if i.plan.TransientRate > 0 && rng.Float64() < i.plan.TransientRate {
			i.reg.Add("fault_transients_total", 1)
			return nil, fmt.Errorf("%w (call %d)", ErrTransient, n)
		}
		if i.plan.LatencyRate > 0 && rng.Float64() < i.plan.LatencyRate {
			i.reg.Add("fault_latency_spikes_total", 1)
			if i.plan.Latency > 0 {
				i.sleep(i.plan.Latency)
			}
		}
		outs, err := oracle(inputs)
		if err != nil || i.plan.BitFlipRate == 0 {
			return outs, err
		}
		flipped := outs
		copied := false
		for b := range outs {
			if rng.Float64() < i.plan.BitFlipRate {
				if !copied {
					flipped = append([]bool(nil), outs...)
					copied = true
				}
				flipped[b] = !flipped[b]
				i.reg.Add("fault_bitflips_total", 1)
			}
		}
		return flipped, nil
	}
}

// CorruptBytes interposes the plan's at-rest corruption model on a disk
// read: with probability CorruptRate (drawn from the per-site read index,
// so the schedule replays exactly) it returns a copy of data with one
// deterministically chosen bit flipped, counting fault_corruptions_total.
// Otherwise — and always for empty data or a zero rate — it returns data
// unchanged. The site name ("store.disk.get", "ckpt.load") keys an
// independent counter so corrupting one surface never shifts another's
// schedule.
func (i *Injector) CorruptBytes(site string, data []byte) []byte {
	if i == nil || i.plan.CorruptRate == 0 || len(data) == 0 {
		return data
	}
	i.mu.Lock()
	n := i.sites[site]
	i.sites[site]++
	i.mu.Unlock()
	rng := i.callRNG(site, n)
	if rng.Float64() >= i.plan.CorruptRate {
		return data
	}
	bit := rng.Intn(len(data) * 8)
	corrupted := append([]byte(nil), data...)
	corrupted[bit/8] ^= 1 << (bit % 8)
	i.reg.Add("fault_corruptions_total", 1)
	return corrupted
}

// CorruptAt applies the context's injector (if any) to bytes read from disk
// at a named fault site. Storage layers call it between the raw read and
// decode/authentication so chaos runs exercise the detection paths.
func CorruptAt(ctx context.Context, site string, data []byte) []byte {
	i := FromContext(ctx)
	if i == nil {
		return data
	}
	return i.CorruptBytes(site, data)
}

// Hit consults the context's injector at a named fail-point. Compute
// packages call it at operation entry; it returns nil unless the context
// carries an injector whose plan fails this site on this hit.
func Hit(ctx context.Context, site string) error {
	i := FromContext(ctx)
	if i == nil {
		return nil
	}
	return i.hit(site)
}

func (i *Injector) hit(site string) error {
	every := i.plan.FailEvery[site]
	if every == 0 {
		return nil
	}
	i.mu.Lock()
	i.sites[site]++
	n := i.sites[site]
	i.mu.Unlock()
	if n%every != 0 {
		return nil
	}
	i.reg.Add("fault_hits_total", 1)
	return fmt.Errorf("%w at %s (hit %d)", ErrInjected, site, n)
}

// IsInjected reports whether err originates from this package (any fault
// family). Consumers use it to distinguish injected chaos from genuine
// failures in tests and retry policies.
func IsInjected(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrTransient) || errors.Is(err, ErrOutage)
}

type ctxKey struct{}

// NewContext returns a context carrying the injector; Hit fail-points
// downstream consult it. A nil injector returns ctx unchanged.
func NewContext(ctx context.Context, i *Injector) context.Context {
	if i == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, i)
}

// FromContext returns the context's injector, or nil.
func FromContext(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	i, _ := ctx.Value(ctxKey{}).(*Injector)
	return i
}
