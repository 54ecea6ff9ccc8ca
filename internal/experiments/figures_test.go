package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bindlock/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens of TestFiguresGolden")

// regeneratedLine matches the per-stage wall-time lines of Regenerate.
var regeneratedLine = []byte(" regenerated in ")

// TestFiguresGolden renders the full reproduction (cmd/figures -fig all at
// its defaults) at seeds 1 and 7, at -j 1 and -j 2, and compares the output,
// without its wall-time lines, with testdata/figures_seed<N>.golden. Every
// table of the paper, including the SAT-attack transcripts behind E7, E7b
// and E12, is pinned this way. The goldens were recorded on amd64; Go may
// fuse x*y+z on other architectures, so there only the -j 1 and -j 2
// renderings are compared with each other. Run with -update (make golden)
// to re-pin after a deliberate change.
func TestFiguresGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var outs [][]byte
			for _, j := range []int{1, 2} {
				cfg := Config{Samples: 600, Seed: seed, Candidates: 10,
					MaxAssignments: 300, OptimalBudget: 20000, Parallelism: j}
				var buf bytes.Buffer
				if err := Regenerate(parallel.NewContext(context.Background(), j), &buf, cfg, "all", 6, ""); err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				outs = append(outs, dropRegeneratedLines(buf.Bytes()))
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Fatalf("-j 1 and -j 2 renderings differ:\n-j 1:\n%s\n-j 2:\n%s", outs[0], outs[1])
			}
			path := filepath.Join("testdata", fmt.Sprintf("figures_seed%d.golden", seed))
			if *update {
				if err := os.WriteFile(path, outs[0], 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if runtime.GOARCH != "amd64" {
				t.Logf("goldens are recorded on amd64; not compared on %s", runtime.GOARCH)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[0], want) {
				t.Errorf("rendering differs from %s (re-pin deliberate changes with make golden):\n%s",
					path, firstDiff(outs[0], want))
			}
		})
	}
}

// dropRegeneratedLines removes Regenerate's wall-time lines.
func dropRegeneratedLines(out []byte) []byte {
	var kept []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.Contains(line, regeneratedLine) {
			kept = append(kept, line...)
		}
	}
	return kept
}

// firstDiff reports the first line on which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}
