package fault

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"bindlock/internal/metrics"
)

// echoOracle answers with its input unchanged, so bit-flips are observable.
func echoOracle(inputs []bool) ([]bool, error) {
	return append([]bool(nil), inputs...), nil
}

// schedule runs n calls through a fresh injector and records, per call,
// whether it errored and which bits flipped.
func schedule(t *testing.T, p Plan, n int) []string {
	t.Helper()
	w := New(p).WrapOracle(echoOracle)
	in := []bool{true, false, true, false, true, false, true, false}
	var out []string
	for c := 0; c < n; c++ {
		got, err := w(in)
		switch {
		case err != nil:
			out = append(out, "err:"+err.Error())
		default:
			s := ""
			for b := range got {
				if got[b] != in[b] {
					s += "f"
				} else {
					s += "."
				}
			}
			out = append(out, s)
		}
	}
	return out
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	p := Plan{Seed: 42, TransientRate: 0.2, BitFlipRate: 0.05}
	a := schedule(t, p, 200)
	b := schedule(t, p, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	p2 := p
	p2.Seed = 43
	c := schedule(t, p2, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSeekRealignsSchedule(t *testing.T) {
	// A fresh injector advanced by k calls and a seeked injector must agree
	// on every subsequent call: this is the checkpoint-resume contract.
	p := Plan{Seed: 7, TransientRate: 0.3, BitFlipRate: 0.1}
	full := schedule(t, p, 100)

	i := New(p)
	i.Seek(60)
	w := i.WrapOracle(echoOracle)
	in := []bool{true, false, true, false, true, false, true, false}
	for c := 60; c < 100; c++ {
		got, err := w(in)
		want := full[c]
		var have string
		if err != nil {
			have = "err:" + err.Error()
		} else {
			for b := range got {
				if got[b] != in[b] {
					have += "f"
				} else {
					have += "."
				}
			}
		}
		if have != want {
			t.Fatalf("call %d after Seek(60): %q, uninterrupted %q", c, have, want)
		}
	}
	if i.Calls() != 100 {
		t.Errorf("Calls() = %d, want 100", i.Calls())
	}
}

func TestRatesRoughlyHonoured(t *testing.T) {
	p := Plan{Seed: 1, TransientRate: 0.2, BitFlipRate: 0.05}
	reg := metrics.New()
	w := New(p).WithRegistry(reg).WrapOracle(echoOracle)
	in := make([]bool, 8)
	const calls = 5000
	for c := 0; c < calls; c++ {
		w(in)
	}
	s := reg.Snapshot()
	if v, _ := s.Counter("fault_oracle_calls_total"); v != calls {
		t.Errorf("fault_oracle_calls_total = %d, want %d", v, calls)
	}
	tr, _ := s.Counter("fault_transients_total")
	if float64(tr) < 0.15*calls || float64(tr) > 0.25*calls {
		t.Errorf("transients = %d over %d calls; rate 0.2 expected", tr, calls)
	}
	fl, _ := s.Counter("fault_bitflips_total")
	bits := float64((calls - tr) * 8)
	if float64(fl) < 0.03*bits || float64(fl) > 0.07*bits {
		t.Errorf("bitflips = %d over %.0f bits; rate 0.05 expected", fl, bits)
	}
}

func TestOutageWindow(t *testing.T) {
	p := Plan{Seed: 1, OutageStart: 10, OutageLen: 5}
	w := New(p).WrapOracle(echoOracle)
	in := make([]bool, 4)
	for c := 0; c < 30; c++ {
		_, err := w(in)
		inWindow := c >= 10 && c < 15
		if inWindow && !errors.Is(err, ErrOutage) {
			t.Fatalf("call %d: err = %v, want outage", c, err)
		}
		if !inWindow && err != nil {
			t.Fatalf("call %d: unexpected error %v", c, err)
		}
	}
}

func TestLatencySpikes(t *testing.T) {
	p := Plan{Seed: 3, LatencyRate: 1, Latency: 5 * time.Millisecond}
	i := New(p)
	var slept time.Duration
	i.sleep = func(d time.Duration) { slept += d }
	w := i.WrapOracle(echoOracle)
	for c := 0; c < 4; c++ {
		w(nil)
	}
	if slept != 20*time.Millisecond {
		t.Errorf("slept %v, want 20ms (4 calls at rate 1)", slept)
	}
}

func TestHitFailEvery(t *testing.T) {
	p := Plan{FailEvery: map[string]uint64{"sat.solve": 3}}
	ctx := NewContext(context.Background(), New(p))
	var errs int
	for c := 1; c <= 9; c++ {
		if err := Hit(ctx, "sat.solve"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v", c, err)
			}
			errs++
		}
		if err := Hit(ctx, "sim.run"); err != nil {
			t.Fatalf("unconfigured site must not fail: %v", err)
		}
	}
	if errs != 3 {
		t.Errorf("9 hits at every=3: %d failures, want 3", errs)
	}
	if err := Hit(context.Background(), "sat.solve"); err != nil {
		t.Errorf("no-injector context must be silent: %v", err)
	}
}

// TestZeroPlanWrapsNothing pins that only oracle faults (transient,
// bit-flip, latency, outage) make WrapOracle interpose: a zero plan, or one
// of fail-points or disk corruption alone, passes every query straight
// through and counts no oracle call.
func TestZeroPlanWrapsNothing(t *testing.T) {
	for _, p := range []Plan{
		{Seed: 99},
		{Seed: 99, FailEvery: map[string]uint64{"sim.run": 1000}},
		{Seed: 99, CorruptRate: 1},
	} {
		called := false
		oracle := func(in []bool) ([]bool, error) { called = true; return in, nil }
		i := New(p)
		w := i.WrapOracle(oracle)
		if _, err := w(nil); err != nil || !called {
			t.Fatalf("plan %q must pass through: err=%v called=%v", p, err, called)
		}
		if i.WrapsOracle() || i.Calls() != 0 {
			t.Errorf("plan %q: WrapsOracle %v after %d counted calls, want false after 0", p, i.WrapsOracle(), i.Calls())
		}
	}
	for _, p := range []Plan{
		{TransientRate: 0.1}, {BitFlipRate: 0.1}, {LatencyRate: 0.1}, {OutageLen: 1},
	} {
		if !New(p).WrapsOracle() {
			t.Errorf("plan %q has an oracle fault but WrapsOracle is false", p)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := Plan{
		Seed: 42, TransientRate: 0.1, BitFlipRate: 0.01,
		LatencyRate: 0.05, Latency: 5 * time.Millisecond,
		OutageStart: 100, OutageLen: 20, CorruptRate: 0.02,
		FailEvery: map[string]uint64{"sat.solve": 50, "sim.run": 3},
	}
	got, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", p.String(), err)
	}
	if got.String() != p.String() {
		t.Errorf("round trip: %q -> %q", p.String(), got.String())
	}
	if _, err := Parse(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
	for _, bad := range []string{"transient=2", "nope=1", "seed", "bitflip=x", "fail:=3", "corrupt=x", "corrupt=1.5"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// bitsChanged counts differing bits between two equal-length byte slices.
func bitsChanged(a, b []byte) int {
	n := 0
	for i := range a {
		for d := a[i] ^ b[i]; d != 0; d &= d - 1 {
			n++
		}
	}
	return n
}

// TestCorruptBytesDeterministic pins the corrupt= schedule contract: which
// read is damaged and which bit flips are pure functions of (seed, site,
// per-site read index), so a chaos run is exactly replayable, and the two
// disk-read sites draw independent schedules.
func TestCorruptBytesDeterministic(t *testing.T) {
	p := Plan{Seed: 11, CorruptRate: 0.5}
	payload := []byte("checkpoint or cache entry bytes")
	run := func() (a, b []string) {
		i := New(p)
		for n := 0; n < 64; n++ {
			a = append(a, string(i.CorruptBytes("store.disk.get", payload)))
			b = append(b, string(i.CorruptBytes("ckpt.load", payload)))
		}
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	damaged, sitesAgree := 0, 0
	for n := range a1 {
		if a1[n] != a2[n] || b1[n] != b2[n] {
			t.Fatalf("read %d diverged across identical injectors", n)
		}
		if a1[n] == b1[n] {
			sitesAgree++
		}
		switch d := bitsChanged([]byte(a1[n]), payload); d {
		case 0:
		case 1:
			damaged++
		default:
			t.Fatalf("read %d: %d bits flipped, want at most 1", n, d)
		}
	}
	if sitesAgree == len(a1) {
		t.Fatal("the two sites share one corruption schedule")
	}
	// Rate 0.5 over 64 reads: some damaged, some clean, whatever the seed
	// quirks (P[all-or-none] ~ 2^-63).
	if damaged == 0 || damaged == len(a1) {
		t.Fatalf("%d of %d reads damaged at rate 0.5", damaged, len(a1))
	}
}

// TestCorruptBytesRateOne pins that corrupt=1 damages every read, counts
// each one, and never mutates the caller's slice in place.
func TestCorruptBytesRateOne(t *testing.T) {
	reg := metrics.New()
	i := New(Plan{Seed: 1, CorruptRate: 1}).WithRegistry(reg)
	orig := []byte("pristine bytes")
	for n := 0; n < 20; n++ {
		data := append([]byte(nil), orig...)
		got := i.CorruptBytes("site", data)
		if bytes.Equal(got, orig) {
			t.Fatalf("read %d escaped corrupt=1", n)
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("CorruptBytes mutated the input slice")
		}
	}
	if v, _ := reg.Snapshot().Counter("fault_corruptions_total"); v != 20 {
		t.Fatalf("fault_corruptions_total = %d, want 20", v)
	}
}

func TestCorruptAtContext(t *testing.T) {
	data := []byte{0xAA, 0x55}
	if got := CorruptAt(context.Background(), "x", data); !bytes.Equal(got, data) {
		t.Fatal("no-injector context must pass bytes through")
	}
	ctx := NewContext(context.Background(), New(Plan{Seed: 2, CorruptRate: 1}))
	if got := CorruptAt(ctx, "x", data); bytes.Equal(got, data) {
		t.Fatal("corrupt=1 context left the bytes intact")
	}
}

func TestIsInjected(t *testing.T) {
	for _, err := range []error{ErrTransient, ErrOutage, ErrInjected} {
		if !IsInjected(err) {
			t.Errorf("IsInjected(%v) = false", err)
		}
	}
	if IsInjected(errors.New("other")) {
		t.Error("IsInjected(other) = true")
	}
}
