package bindlock

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"bindlock/internal/metrics"
	"bindlock/internal/progress"
	"bindlock/internal/satattack"
)

// resumeMaxIters bounds each attack run: SFLL-rem keyspaces make a full
// attack on an elaborated kernel take ~2^16 DIPs, so the determinism check
// compares budget-bounded partial results instead. The contract is the same:
// a run killed at iteration k and resumed must land on exactly the state an
// uninterrupted run reaches.
const (
	resumeMaxIters = 3
	resumeKillAt   = 1
)

// elaborateLockedBenchmark runs the full front-of-line flow on one kernel —
// prepare, candidate selection, SFLL-rem lock config, obfuscation-aware
// binding (plus a baseline binding for the other FU class when present) —
// and elaborates it to the gate level.
func elaborateLockedBenchmark(t *testing.T, name string) *ElaboratedDesign {
	t.Helper()
	d, err := PrepareBenchmark(context.Background(), name,
		WithMaxFUs(2), WithSamples(120), WithSeed(1))
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	class, other := ClassAdd, ClassMul
	if len(d.G.OpsOfClass(class)) == 0 {
		class, other = other, class
	}
	cands := d.Candidates(class, 1)
	if len(cands) == 0 {
		t.Fatalf("%s: no candidate minterms for class %v", name, class)
	}
	lock, err := d.NewLockConfig(class, 1, [][]Minterm{cands[:1]})
	if err != nil {
		t.Fatalf("%s: lock config: %v", name, err)
	}
	bindings := map[Class]*Binding{}
	bindings[class], err = d.BindObfuscationAware(class, lock)
	if err != nil {
		t.Fatalf("%s: obfuscation-aware binding: %v", name, err)
	}
	if len(d.G.OpsOfClass(other)) > 0 {
		bindings[other], err = d.BindBaseline(other, "area")
		if err != nil {
			t.Fatalf("%s: baseline binding: %v", name, err)
		}
	}
	ed, err := d.Elaborate(bindings, lock)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", name, err)
	}
	return ed
}

// budgetedAttack runs a budget-bounded attack on a fresh metrics registry and
// returns the partial result plus the JSON form of the deterministic metrics
// subset. The iteration budget is the expected exit: any other error fails
// the test.
func budgetedAttack(t *testing.T, ed *ElaboratedDesign, opts satattack.Options) (*satattack.Result, string) {
	t.Helper()
	reg := metrics.New()
	ctx := metrics.NewContext(context.Background(), reg)
	oracle := satattack.OracleFromCircuit(ed.Circuit, ed.CorrectKey)
	opts.MaxIterations = resumeMaxIters
	res, err := satattack.Attack(ctx, ed.Circuit, oracle, opts)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("attack: %v", err)
	}
	if res == nil {
		t.Fatal("attack returned no result")
	}
	det, jerr := json.Marshal(reg.Snapshot().Deterministic())
	if jerr != nil {
		t.Fatal(jerr)
	}
	return res, string(det)
}

// transcriptDigest hashes everything an attack run must reproduce — the
// iteration count, the key bits, the DIP transcript and the Deterministic()
// metrics JSON — into one hex sha256, so a pinned digest catches any change
// to the search, the encoding or the solver's deterministic counters.
func transcriptDigest(res *satattack.Result, det string) string {
	bits := func(v []bool) string {
		var b strings.Builder
		for _, x := range v {
			if x {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "iterations %d\nkey %s\n", res.Iterations, bits(res.Key))
	for _, d := range res.DIPs {
		fmt.Fprintf(h, "dip %s\n", bits(d))
	}
	fmt.Fprintf(h, "metrics %s\n", det)
	return hex.EncodeToString(h.Sum(nil))
}

// sfllTranscriptPins are the per-kernel transcriptDigest values of the
// budgeted SFLL attack (resumeMaxIters DIPs, default solver) on
// elaborateLockedBenchmark's designs. A deliberate change to the attack's
// encoding or search re-pins them once, with a store.CodeVersion and
// satattack.CheckpointVersion bump.
var sfllTranscriptPins = map[string]string{
	"dct":      "acbab064536d8b896368cae84b8ac12d8a978e69af8b123f9a00d15aa00923db",
	"ecb_enc4": "c7d846ee995b6309352846d2e675b0e7895a5a97ef810c257ae3c6859359247c",
	"fft":      "dae96a1850cb40f1d0d16929402e753662080795097a88f8d2b85aeef38a1fee",
	"fir":      "9508571564b138e8392ad7b17c3e14d117cc6c3346af8594538a78870e185f71",
	"jctrans2": "cdbd2dce8c89a57eeae737046fd9e02d4a08ac7ae5738687fae7f5ff4b5d4443",
	"jdmerge1": "714cfd5dc56f065a09f9f4fd598c11a86ed1ca7787a3721b11139607b3bc6ef4",
	"jdmerge3": "db355bc25852226373bdbc9ca06d796f43eaebec1ca82d2e9bbc0fec035b0ce0",
	"jdmerge4": "065a5e34c8e60abe8c845b1263590926f3505cff5dc0465b198c0de5b0cd87e7",
	"motion2":  "a181057e4dc1d123c22ad9f841a563911f205c9f5f842bec1514b02d348f9694",
	"motion3":  "0ea16115f726e7a3e3497bc88ef7c232361a5eb99d7f6d1296cb38ca479d97c4",
	"noisest2": "52fe1b2425fa16e68d02cee7306c649959ee1e70f9001896d58847c4098b9474",
}

// TestResumeDeterminismMediabench is the acceptance check for checkpoint /
// resume on the paper's evaluation set: for each of the 11 MediaBench-derived
// kernels, an attack on the elaborated locked design is killed via
// cancellation at a fixed iteration and resumed from its checkpoint; the
// resumed run must recover the exact same key bits, iteration count, DIP
// transcript and Deterministic() metrics as an uninterrupted run.
func TestResumeDeterminismMediabench(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ed := elaborateLockedBenchmark(t, b.Name)

			// Reference: uninterrupted (budget-bounded) run.
			full, fullDet := budgetedAttack(t, ed, satattack.Options{})
			if got := transcriptDigest(full, fullDet); got != sfllTranscriptPins[b.Name] {
				t.Errorf("transcript digest %s, pinned %s", got, sfllTranscriptPins[b.Name])
			}
			if full.Iterations <= resumeKillAt {
				// A kernel whose attack converges before the kill point has
				// nothing left to interrupt; the contract is vacuous there.
				t.Skipf("converged after %d iterations; cannot kill at %d",
					full.Iterations, resumeKillAt)
			}

			// Kill: checkpoint every iteration, cancel as soon as the hook
			// sees iteration resumeKillAt complete. The checkpoint is written
			// before the Step event fires, so the file holds exactly
			// resumeKillAt iterations.
			path := filepath.Join(t.TempDir(), b.Name+".ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := progress.Func(func(e progress.Event) {
				if e.Kind == progress.Step && e.Phase == "attack" && e.Done >= resumeKillAt {
					cancel()
				}
			})
			oracle := satattack.OracleFromCircuit(ed.Circuit, ed.CorrectKey)
			_, err := satattack.Attack(progress.NewContext(ctx, hook), ed.Circuit, oracle,
				satattack.Options{
					MaxIterations: resumeMaxIters, CheckpointPath: path, CheckpointEvery: 1,
				})
			if err == nil || !errors.Is(err, ErrCancelled) {
				t.Fatalf("killed attack returned %v, want cancellation", err)
			}
			cp, err := satattack.LoadCheckpoint(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Iterations != resumeKillAt {
				t.Fatalf("checkpoint holds %d iterations, want %d", cp.Iterations, resumeKillAt)
			}

			// Resume on a fresh registry and compare everything.
			res, resDet := budgetedAttack(t, ed, satattack.Options{Resume: cp})
			if len(res.Key) != len(full.Key) {
				t.Fatalf("resumed key length %d != %d", len(res.Key), len(full.Key))
			}
			for i := range res.Key {
				if res.Key[i] != full.Key[i] {
					t.Errorf("key bit %d diverged after resume", i)
				}
			}
			if res.Iterations != full.Iterations {
				t.Errorf("resumed iterations %d != uninterrupted %d", res.Iterations, full.Iterations)
			}
			if len(res.DIPs) != len(full.DIPs) {
				t.Fatalf("resumed DIP count %d != %d", len(res.DIPs), len(full.DIPs))
			}
			for i := range res.DIPs {
				for j := range res.DIPs[i] {
					if res.DIPs[i][j] != full.DIPs[i][j] {
						t.Fatalf("DIP %d bit %d diverged after resume", i, j)
					}
				}
			}
			if resDet != fullDet {
				t.Errorf("Deterministic() snapshots differ:\nresumed:       %s\nuninterrupted: %s",
					resDet, fullDet)
			}
		})
	}
}
