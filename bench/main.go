// Command bench is the repository benchmark: four workloads that drive the
// public functions of each layer directly — the paper reproduction behind
// cmd/figures, SAT-attack key recovery on SFLL and cyclic locks, and an
// in-process bindlockd under open-loop traffic — and report end-to-end
// metrics (measured with tracing off) or per-layer metrics (from a traced
// run of the same workload).
//
// Usage:
//
//	bench [-workload name[,name...]] [-seed N] [-seconds S] [-trace 0|1]
//	      [-spans spans.json] [-o report.json]
//
// With one workload the benchmark runs it in this process and prints, as its
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Without -workload (or with several) each workload runs in a fresh child
// process of this binary, once untraced and once traced, so peak_rss_mb
// belongs to one workload. Any failed output check exits 1.
//
// bench/run.sh builds the binary and forwards its arguments; see
// bench/README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// config is one run's settings, shared by every workload.
type config struct {
	seed    int64
	seconds float64 // measured-phase budget
	trace   bool
	short   bool // smoke-test sizes (bench_test.go): one kernel, a 2 s open loop
}

// workload is one benchmark workload; BENCHMARK.json and README.md give the
// reason each was chosen.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

// workloads lists the workloads in the order a full run executes them.
var workloads = []workload{
	{"paper-repro", runRepro},
	{"attack-sfll", runAttackSFLL},
	{"attack-cyclic", runAttackCyclic},
	{"daemon-mix", runDaemon},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	names := flag.String("workload", "", "comma-separated workloads to run (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 30, "measured-phase budget per workload, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "write the recorded spans to this JSON file when the run ends")
	out := flag.String("o", "", "also write the report (the result objects) to this JSON file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}

	list := strings.Split(*names, ",")
	if *names == "" {
		list = nil
		for _, w := range workloads {
			list = append(list, w.name)
		}
	}
	for _, n := range list {
		if _, ok := workloadByName(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	var err error
	if len(list) == 1 {
		err = runSingle(list[0], cfg, *spans, *out)
	} else {
		err = runChildren(list, cfg, *spans, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle runs one workload in this process, prints its report and, as the
// last stdout line, its result object. It fails when any output check failed.
func runSingle(name string, cfg config, spansFile, outFile string) error {
	w, _ := workloadByName(name)
	r := newRun(w.name, cfg)
	start := time.Now()
	werr := w.run(context.Background(), r)
	if werr != nil {
		r.fail("%s: %v", w.name, werr)
	}
	res := r.result()
	r.print(os.Stdout, time.Since(start))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if spansFile != "" && r.tr != nil {
		if err := r.tr.write(spansFile); err != nil {
			return err
		}
	}
	if outFile != "" {
		if err := writeJSON(outFile, map[string]result{w.name: res}); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d output checks failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runChildren runs each workload in a fresh child process, untraced and then
// traced, echoing the children's output. It fails when any child failed.
func runChildren(list []string, cfg config, spansFile, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	report := map[string]map[string]result{}
	failed := 0
	for _, name := range list {
		report[name] = map[string]result{}
		for _, trace := range []int{0, 1} {
			args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace)}
			if spansFile != "" && trace == 1 {
				ext := filepath.Ext(spansFile)
				args = append(args, "-spans", strings.TrimSuffix(spansFile, ext)+"."+name+ext)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", name, trace, err)
				failed++
			}
			if res, ok := lastResult(stdout); ok {
				report[name][fmt.Sprintf("trace%d", trace)] = res
			}
		}
	}
	if outFile != "" {
		if err := writeJSON(outFile, report); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed", failed)
	}
	return nil
}

// lastResult parses the result object on the last line of a child's output.
func lastResult(stdout []byte) (result, bool) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	return res, json.Unmarshal([]byte(last), &res) == nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
