package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with tracing
// off by every workload. Each workload defines its pass and its requests;
// see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median of setupRuns set-ups
	{"wall_s", "s"},        // median wall time of one pass
	{"p50_ms", "ms"},       // median latency of one request
	{"peak_rss_mb", "MiB"}, // median over passes of the pass's peak RSS
}

// perLayer are the single-layer metrics, reported by every workload in a
// traced run; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	// paper-repro: a span around each public experiments call, one -j1 pass.
	{"experiments.prepare_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.corruption_s", "s"},
	{"experiments.scan_s", "s"},
	{"experiments.resilience_s", "s"},
	{"experiments.stability_s", "s"},
	{"experiments.eps_s", "s"},
	// paper-repro: sums of the layers' own *_seconds histograms, same pass.
	{"sim.run_s", "s"},
	{"codesign.search_s", "s"},
	{"lockedsim.run_s", "s"},
	{"satattack.iteration_s", "s"},
	// set-up of the attack workloads (spans per call); binding also from
	// the paper-repro histogram.
	{"mediabench.prepare_s", "s"},
	{"binding.bind_s", "s"},
	{"elaborate.design_s", "s"},
	{"netlist.lock_s", "s"},
	// attack passes: spans around Attack and VerifyKey, a counting sat
	// backend and a timing oracle.
	{"satattack.attack_s", "s"},
	{"satattack.attack_self_s", "s"},
	{"satattack.verify_s", "s"},
	{"satattack.dips", "count"},
	{"satattack.key_s", "s"},
	{"satattack.dips_per_s", "1/s"},
	{"sat.solve_s", "s"},
	{"sat.solve_calls", "count"},
	{"sat.terminal_unsat_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"cnf.clauses", "count"},
	{"cnf.vars", "count"},
	{"cnf.clauses_per_dip", "count"},
	{"netlist.oracle_s", "s"},
	{"netlist.oracle_queries", "count"},
	// daemon-mix: job records, /metrics counters and the load generator.
	{"daemon.cold_attack_ms_p90", "ms"},
	{"daemon.cached_ms_p50", "ms"},
	{"daemon.cached_ms_p95", "ms"},
	{"daemon.cold_design_ms_p50", "ms"},
	{"daemon.cold_design_ms_p90", "ms"},
	{"daemon.resumed_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_ms_p90", "ms"},
	{"server.service_attack_ms_p50", "ms"},
	{"server.service_design_ms_p50", "ms"},
	{"server.busy_fraction", "ratio"},
	{"store.hit_ratio", "ratio"},
	{"server.design_memo_hit_ratio", "ratio"},
	{"satattack.ckpt_writes_per_attack", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.completed_per_s", "1/s"},
	// every traced workload: pass wall outside the top-level spans, and the
	// traced pass's slowdown over the untraced one.
	{"unattributed_s", "s"},
	{"bench.trace_overhead", "ratio"},
}

// result is a run's outcome, printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// run accumulates one workload run: its output checks and its metrics.
type run struct {
	workload  string
	cfg       config
	tr        *tracer // nil when untraced
	attempted int
	failed    int
	values    map[string]sample
	peaks     []float64 // peak resident set size of each measured pass, MiB
}

func newRun(name string, cfg config) *run {
	r := &run{workload: name, cfg: cfg, values: map[string]sample{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// set records a metric value backed by n observations.
func (r *run) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

// check counts one output check, reporting a failure on standard error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) { r.check(false, format, args...) }

// defs returns the metrics this run reports.
func (r *run) defs() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

func (r *run) result() result {
	if !r.cfg.trace {
		r.set("peak_rss_mb", median(r.peaks), len(r.peaks))
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range r.defs() {
		res.Metrics[d.name] = metric{Value: r.values[d.name].value, Unit: d.unit}
	}
	return res
}

// print writes one human-readable row per metric, with its sample count.
func (r *run) print(w io.Writer, elapsed time.Duration) {
	mode := "end-to-end, tracing off"
	if r.cfg.trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g (%s): %d checks, %d failed, %.1fs\n",
		r.workload, r.cfg.seed, r.cfg.seconds, mode, r.attempted, r.failed, elapsed.Seconds())
	for _, d := range r.defs() {
		s := r.values[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d\n", d.name, s.value, d.unit, s.n)
	}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
