package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the report must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesReport pins BENCHMARK.json to the metrics and
// workloads the benchmark reports.
func TestBenchmarkFileMatchesReport(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, list := range []struct {
		file []metricDef
		code []metricDef
	}{
		{defsOf(bf.EndToEnd), endToEnd},
		{defsOf(bf.PerLayer), perLayer},
	} {
		if len(list.file) != len(list.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(list.file), len(list.code))
		}
		for i, d := range list.file {
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q is not allowed", d.name)
			}
			if d != list.code[i] {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark reports %+v", i, d, list.code[i])
			}
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func defsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit}
	}
	return out
}

// TestWorkloadsShort runs every workload at smoke-test size, untraced and
// traced. Every output check must pass — in traced runs that includes the
// attack outcomes (DIPs, key) of traced passes matching untraced ones — and
// every metric must be reported with its unit.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				r := newRun(w.name, config{seed: 1, seconds: 0.5, trace: trace, short: true})
				if err := w.run(context.Background(), r); err != nil {
					t.Fatal(err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 {
					t.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
				}
				for _, d := range r.defs() {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s reported as %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}
