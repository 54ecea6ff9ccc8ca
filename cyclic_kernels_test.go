package bindlock

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
)

// elaborateUnlockedBenchmark runs prepare + baseline binding on one kernel
// and elaborates it with a nil lock config, yielding the plain (key-free)
// datapath netlist that cyclic locking is applied on top of.
func elaborateUnlockedBenchmark(t *testing.T, name string) *ElaboratedDesign {
	t.Helper()
	d, err := PrepareBenchmark(context.Background(), name,
		WithMaxFUs(2), WithSamples(120), WithSeed(1))
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	bindings := map[Class]*Binding{}
	for _, class := range []Class{ClassAdd, ClassMul} {
		if len(d.G.OpsOfClass(class)) == 0 {
			continue
		}
		bindings[class], err = d.BindBaseline(class, "area")
		if err != nil {
			t.Fatalf("%s: baseline binding %v: %v", name, class, err)
		}
	}
	ed, err := d.Elaborate(bindings, nil)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", name, err)
	}
	if len(ed.CorrectKey) != 0 {
		t.Fatalf("%s: unlocked elaboration carries %d key bits", name, len(ed.CorrectKey))
	}
	return ed
}

// cycsatTranscriptPins are the per-kernel transcriptDigest values of the
// CycSAT attack on TestCycSATKernelDifferential's cyclic locks. They are
// re-pinned together with sfllTranscriptPins, never separately.
var cycsatTranscriptPins = map[string]string{
	"dct":      "138c1120caff7a3636ba47db62d7debf6aac2e4df2fab65c3fdcfa10ae9ff682",
	"ecb_enc4": "83789492ff84c6744431b0670d77b23f957571a8bb76dbf710aa90f7488655fa",
	"fft":      "7158cfd82880dd1d7ea480cfb6283b72a0b0ccb7e76497099547ce7a4b0a5afc",
	"fir":      "23fbf1042fa77d1e520257011dbd288658fd3b19972409543161cb42a62f6c2c",
	"jctrans2": "aac9281fe9ef14d7dff8db44506505f1e367de27a821d99126a880035eb7cb7a",
	"jdmerge1": "7945599b3c182a691a2b027d0f11be2a1f50308e70f784aafbf089bf0067bf5e",
	"jdmerge3": "8b63285be5a148d22dfc9e442138caa57a7b46861328d57909efa22fa3f9f00f",
	"jdmerge4": "335aed6c8dd8673002c68ea69c8f93807ba2d9371f6c31ea90ac4e5e477ea6ca",
	"motion2":  "9e86043bab0081f641b85599ec2eb0eb32ae252ce4f0462f2dd1d9ba51217c98",
	"motion3":  "1047eb264a164857cd182a2041de9fe0ae4ec055bd4adc5c98961bb7537c2629",
	"noisest2": "f64fa47e8d42f5a7155e18f313b73e15dfac3bc49a0bd19b919e454b8b948b70",
}

// TestCycSATKernelDifferential is the acceptance differential for the cyclic
// subsystem on the paper's evaluation set: every MediaBench-derived kernel is
// cyclically locked (2 feedback cycles, 2 decoys, seed 1) and attacked with
// CycSAT constraints. The recovered key must pass functional verification
// against the oracle, and the run must reproduce its pinned transcript — same
// key, same DIP transcript, same iteration count, same Deterministic()
// metrics.
func TestCycSATKernelDifferential(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ed := elaborateUnlockedBenchmark(t, b.Name)
			locked, key, err := netlist.LockCyclic(ed.Circuit, 2, 2, 1)
			if err != nil {
				t.Fatalf("cyclic lock: %v", err)
			}
			if len(locked.Feedback) == 0 {
				t.Fatal("cyclic lock inserted no feedback edges")
			}

			reg := metrics.New()
			ctx := metrics.NewContext(context.Background(), reg)
			oracle := satattack.OracleFromCircuit(locked, key)
			res, err := satattack.Attack(ctx, locked, oracle, satattack.Options{CycleBreak: true})
			if err != nil {
				t.Fatalf("attack: %v", err)
			}
			det, err := json.Marshal(reg.Snapshot().Deterministic())
			if err != nil {
				t.Fatal(err)
			}
			if err := satattack.VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
				t.Fatalf("recovered key failed verification: %v", err)
			}
			if got := transcriptDigest(res, string(det)); got != cycsatTranscriptPins[b.Name] {
				t.Errorf("transcript digest %s, pinned %s", got, cycsatTranscriptPins[b.Name])
			}
		})
	}
}

// TestUnconstrainedAttackFailsOnCyclicKernel is the regression half of the
// differential: the same cyclic lock that CycSAT defeats must NOT fall to the
// plain acyclic-miter attack. Without cycle-breaking constraints the wrong-key
// miter copies are free to pick latch fixed points for the feedback nets, so
// the DIP loop either spins past its budget or lands on a key the oracle
// rejects. Either failure mode is the pass condition; silently recovering a
// verified key would mean the cyclic lock adds no attack resistance.
func TestUnconstrainedAttackFailsOnCyclicKernel(t *testing.T) {
	// fir is the cheapest kernel per miter solve (adder-only datapath).
	// Seed 3 places a feedback cycle whose acyclic-CNF fixed points the
	// plain attack cannot tell apart from settled behaviour: the miter
	// re-finds latch assignments and the DIP loop never converges. (Some
	// placements happen to survive the plain attack — seed 1 converges —
	// which is exactly why the seed is pinned to a demonstrating one.)
	const name, seed = "fir", 3
	ed := elaborateUnlockedBenchmark(t, name)
	locked, key, err := netlist.LockCyclic(ed.Circuit, 2, 2, seed)
	if err != nil {
		t.Fatalf("cyclic lock: %v", err)
	}
	ctx := context.Background()
	oracle := satattack.OracleFromCircuit(locked, key)
	res, err := satattack.Attack(ctx, locked, oracle, satattack.Options{MaxIterations: 8})
	switch {
	case errors.Is(err, satattack.ErrIterationBudget):
		// Diverged: the expected outcome.
		if res == nil || res.Iterations != 8 {
			t.Fatalf("budget error without a full transcript: %+v", res)
		}
	case err != nil:
		t.Fatalf("unconstrained attack failed unexpectedly: %v", err)
	default:
		// Converged without constraints — the key must then be wrong.
		if verr := satattack.VerifyKey(ctx, locked, res.Key, oracle); verr == nil {
			t.Fatalf("unconstrained attack on %s recovered a verified key in %d iterations; cyclic lock is ineffective", name, res.Iterations)
		}
	}

	// The contrast on the very same lock: with CycSAT constraints the
	// attack terminates and the recovered key is functionally correct.
	cres, err := satattack.Attack(ctx, locked, oracle, satattack.Options{CycleBreak: true})
	if err != nil {
		t.Fatalf("constrained attack on the diverging lock: %v", err)
	}
	if err := satattack.VerifyKey(ctx, locked, cres.Key, oracle); err != nil {
		t.Fatalf("constrained key failed verification: %v", err)
	}
}

// TestWithCyclicLock pins the cyclic lock option of the two facade attack
// functions. LockAndAttack, which then ignores its secret, recovers the
// same keys in the same DIP counts as the cyclic adder attacks the facade
// ran before the option existed. AttackDesign runs the CycSAT attack that
// satattack runs on the same cyclic lock of an unlocked elaboration, leaves
// the elaboration unlocked, and refuses an SFLL-locked one.
func TestWithCyclicLock(t *testing.T) {
	for _, tc := range []struct {
		bits, cycles, decoys int
		seed                 int64
		dips                 int
		key                  string
	}{
		{3, 2, 2, 1, 2, "1110"},
		{4, 2, 2, 1, 1, "0000"},
		{4, 1, 3, 5, 2, "1011"},
	} {
		reg := NewMetricsRegistry()
		out, err := LockAndAttack(WithMetricsContext(context.Background(), reg), tc.bits, 0b1011,
			WithCyclicLock(tc.cycles, tc.decoys, tc.seed))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if out.Iterations != tc.dips || bitString(out.Key) != tc.key {
			t.Errorf("%+v: %d DIPs, key %s", tc, out.Iterations, bitString(out.Key))
		}
		if n, _ := reg.Snapshot().Counter("cyclock_cycles_inserted"); n != int64(tc.cycles) {
			t.Errorf("%+v: cyclock_cycles_inserted = %d", tc, n)
		}
	}

	ctx := context.Background()
	ed := elaborateUnlockedBenchmark(t, "fir")
	out, err := AttackDesign(ctx, ed, WithCyclicLock(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ed.Circuit.Feedback) != 0 || len(ed.Circuit.Keys) != 0 {
		t.Fatal("AttackDesign locked the elaborated circuit in place")
	}
	locked, key, err := netlist.LockCyclic(ed.Circuit, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := satattack.Attack(ctx, locked, satattack.OracleFromCircuit(locked, key), satattack.Options{CycleBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != res.Iterations || bitString(out.Key) != bitString(res.Key) || out.GateCount != locked.LogicGates() {
		t.Errorf("AttackDesign: %d DIPs, key %s, %d gates; satattack: %d DIPs, key %s, %d gates",
			out.Iterations, bitString(out.Key), out.GateCount, res.Iterations, bitString(res.Key), locked.LogicGates())
	}

	sfll := elaborateLockedBenchmark(t, "fir")
	want := fmt.Sprintf("bindlock: attack design cyclic: design already carries %d key bits; elaborate with a nil lock config", len(sfll.CorrectKey))
	if _, err := AttackDesign(ctx, sfll, WithCyclicLock(2, 2, 1)); err == nil || err.Error() != want {
		t.Fatalf("AttackDesign with WithCyclicLock on an SFLL-locked design: %v, want %q", err, want)
	}
}
