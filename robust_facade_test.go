package bindlock

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"bindlock/internal/progress"
)

// TestParseFaultPlanRoundTrip pins the spec grammar: String renders exactly
// what Parse accepts.
func TestParseFaultPlanRoundTrip(t *testing.T) {
	plan := FaultPlan{
		Seed: 42, TransientRate: 0.1, BitFlipRate: 0.01,
		LatencyRate: 0.05, Latency: 5 * time.Millisecond,
		OutageStart: 100, OutageLen: 20,
		FailEvery: map[string]uint64{"sat.solve": 50, "sim.run": 3},
	}
	back, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("ParseFaultPlan(%q): %v", plan.String(), err)
	}
	if back.String() != plan.String() {
		t.Fatalf("round trip %q -> %q", plan.String(), back.String())
	}
	if _, err := ParseFaultPlan("transient=2"); err == nil {
		t.Error("rate outside [0,1] must be rejected")
	}
	zero, err := ParseFaultPlan("")
	if err != nil || !zero.Zero() {
		t.Errorf("empty spec: plan %v, err %v; want zero plan", zero, err)
	}
}

// TestLockAndAttackUnderFaultPlan drives the facade's whole robustness
// surface at once: a transient-heavy fault plan between attack and oracle,
// carried on the context and ridden out by retry and voting. Transients
// only fail queries, so the attack lands on the fault-free DIP count and
// key.
func TestLockAndAttackUnderFaultPlan(t *testing.T) {
	reg := NewMetricsRegistry()
	ctx := WithFaultPlanContext(WithMetricsContext(context.Background(), reg),
		FaultPlan{Seed: 7, TransientRate: 0.15})
	out, err := LockAndAttack(ctx, 3, 0b110101,
		WithAttackRetry(RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond, Seed: 7}),
		WithAttackVoting(3, 2),
	)
	if err != nil {
		t.Fatalf("attack under fault plan: %v", err)
	}
	if out.Iterations != 60 || bitString(out.Key) != "101011" {
		t.Fatalf("attack under fault plan: %d DIPs, key %s; want 60 and 101011", out.Iterations, bitString(out.Key))
	}
	if n, _ := reg.Snapshot().Counter("fault_transients_total"); n == 0 {
		t.Fatal("fault plan injected no transients into the attack's oracle")
	}
}

// TestLockAndAttackFaultPlanReachesOracle: without retry, the first
// injected transient exhausts the query, so the same attack fails with
// ErrOracleUnavailable.
func TestLockAndAttackFaultPlanReachesOracle(t *testing.T) {
	ctx := WithFaultPlanContext(context.Background(), FaultPlan{Seed: 7, TransientRate: 0.15})
	if _, err := LockAndAttack(ctx, 3, 0b110101); !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("attack under a transient plan without retry returned %v, want ErrOracleUnavailable", err)
	}
}

// TestLockAndAttackCheckpointResume kills a checkpointing facade attack via
// a cancelling progress hook and resumes it, requiring the same iteration
// count as an uninterrupted run.
func TestLockAndAttackCheckpointResume(t *testing.T) {
	const width, secret = 4, uint64(0xB5)
	full, err := LockAndAttack(context.Background(), width, secret)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 2 {
		t.Skipf("attack converged in %d iterations; nothing to interrupt", full.Iterations)
	}

	path := filepath.Join(t.TempDir(), "facade.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Phase == "attack" && e.Done >= 1 {
			cancel()
		}
	})
	_, err = LockAndAttack(WithProgressContext(ctx, hook), width, secret,
		WithCheckpoint(path))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("killed attack returned %v, want ErrCancelled", err)
	}
	cp, err := LoadAttackCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iterations != 1 {
		t.Fatalf("checkpoint holds %d iterations, want 1", cp.Iterations)
	}

	resumed, err := LockAndAttack(context.Background(), width, secret, WithResume(path))
	if err != nil {
		t.Fatalf("resumed attack: %v", err)
	}
	if resumed.Iterations != full.Iterations {
		t.Errorf("resumed iterations %d != uninterrupted %d", resumed.Iterations, full.Iterations)
	}
}

// TestWithResumeBadFile pins the error path: a missing checkpoint fails the
// attack up front rather than mid-run.
func TestWithResumeBadFile(t *testing.T) {
	_, err := LockAndAttack(context.Background(), 3, 1,
		WithResume(filepath.Join(t.TempDir(), "absent.ckpt")))
	if err == nil {
		t.Fatal("attack with a missing checkpoint file must fail")
	}
}

// TestWithFaultPlanContextFailPoint routes a solver fail-point through the
// facade context plumbing: every sat.solve hit fails, so LockAndAttack
// cannot get past its first miter call. (The injector rides the context the
// same way metrics and progress do.)
func TestWithFaultPlanContextFailPoint(t *testing.T) {
	ctx := WithFaultPlanContext(context.Background(),
		FaultPlan{FailEvery: map[string]uint64{"sat.solve": 1}})
	if _, err := LockAndAttack(ctx, 3, 1); err == nil {
		t.Fatal("attack with every solver call failing must error")
	}
	// A zero plan is the identity.
	base := context.Background()
	if WithFaultPlanContext(base, FaultPlan{}) != base {
		t.Error("zero plan must return the context unchanged")
	}
}
