package satattack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bindlock/internal/fault"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/progress"
)

// noSleep replaces the querier's backoff sleeps so retry tests run instantly.
func noSleep(q *querier) *querier {
	q.sleep = func(time.Duration) {}
	return q
}

func TestQuerierRetryRecovers(t *testing.T) {
	// An oracle that fails twice then answers must succeed under a
	// 3-attempt policy, with the failures visible in retry_ counters.
	calls := 0
	oracle := func(in []bool) ([]bool, error) {
		calls++
		if calls <= 2 {
			return nil, errors.New("transient")
		}
		return []bool{true, false}, nil
	}
	reg := metrics.New()
	q := noSleep(newQuerier(OracleFunc(oracle), RetryPolicy{MaxAttempts: 3}, 1, 1, reg))
	out, err := q.query(context.Background(), nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !out[0] || out[1] {
		t.Errorf("out = %v, want [true false]", out)
	}
	s := reg.Snapshot()
	if v, _ := s.Counter("retry_oracle_failures_total"); v != 2 {
		t.Errorf("retry_oracle_failures_total = %d, want 2", v)
	}
	if v, _ := s.Counter("retry_oracle_retries_total"); v != 2 {
		t.Errorf("retry_oracle_retries_total = %d, want 2", v)
	}
	if q.calls != 3 {
		t.Errorf("physical calls = %d, want 3", q.calls)
	}
}

func TestQuerierRetryExhaustion(t *testing.T) {
	oracle := func(in []bool) ([]bool, error) { return nil, errors.New("dead") }
	q := noSleep(newQuerier(OracleFunc(oracle), RetryPolicy{MaxAttempts: 4}, 1, 1, nil))
	_, err := q.query(context.Background(), nil)
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want ErrOracleUnavailable", err)
	}
	if q.calls != 4 {
		t.Errorf("physical calls = %d, want 4 (exhausted attempts)", q.calls)
	}
}

func TestQuerierMajorityVoting(t *testing.T) {
	// Two of five votes corrupt bit 0; 3-of-5 majority recovers the truth.
	call := 0
	oracle := func(in []bool) ([]bool, error) {
		call++
		out := []bool{false, true}
		if call == 2 || call == 4 {
			out[0] = true
		}
		return out, nil
	}
	q := noSleep(newQuerier(OracleFunc(oracle), RetryPolicy{}, 5, 3, nil))
	out, err := q.query(context.Background(), nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if out[0] || !out[1] {
		t.Errorf("out = %v, want [false true]", out)
	}
}

func TestQuerierNoQuorum(t *testing.T) {
	// A bit that splits 2/2 can never reach a 3-vote quorum.
	call := 0
	oracle := func(in []bool) ([]bool, error) {
		call++
		return []bool{call%2 == 0}, nil
	}
	reg := metrics.New()
	q := noSleep(newQuerier(OracleFunc(oracle), RetryPolicy{}, 4, 3, reg))
	_, err := q.query(context.Background(), nil)
	if !errors.Is(err, ErrNoQuorum) || !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want ErrNoQuorum (wrapping ErrOracleUnavailable)", err)
	}
	if v, _ := reg.Snapshot().Counter("retry_quorum_failures_total"); v != 1 {
		t.Errorf("retry_quorum_failures_total = %d, want 1", v)
	}
}

func TestVerifyKeyRetriesFlakyOracle(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockXOR(base, 4, 1)
	perfect := OracleFromCircuit(locked, key)
	calls := 0
	flaky := OracleFunc(func(in []bool) ([]bool, error) {
		calls++
		if calls%3 == 0 {
			return nil, errors.New("transient")
		}
		return perfect.Query(in)
	})
	// Without a policy the first hiccup kills the sweep...
	err := VerifyKey(context.Background(), locked, key, flaky)
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("no-retry VerifyKey err = %v, want ErrOracleUnavailable", err)
	}
	// ...with one it completes.
	if err := VerifyKey(context.Background(), locked, key, flaky,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}); err != nil {
		t.Fatalf("retrying VerifyKey: %v", err)
	}
}

func TestVerifyKeyOracleUnavailable(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockXOR(base, 4, 1)
	dead := OracleFunc(func(in []bool) ([]bool, error) { return nil, errors.New("unplugged") })
	err := VerifyKey(context.Background(), locked, key, dead,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want ErrOracleUnavailable after exhaustion", err)
	}
}

// TestAttackSurvivesFaultPlan is the fixed-seed acceptance scenario: 10%
// transient failures plus 1% bit-flip noise on every oracle answer, and the
// attack with retries + 3-of-5 voting still recovers a correct key, with the
// fault and retry counters visible in the metrics snapshot.
func TestAttackSurvivesFaultPlan(t *testing.T) {
	base, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockXOR(base, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	perfect := OracleFromCircuit(locked, key)
	reg := metrics.New()
	inj := fault.New(fault.Plan{Seed: 2021, TransientRate: 0.10, BitFlipRate: 0.01}).WithRegistry(reg)
	noisy := OracleFunc(inj.WrapOracle(perfect.Query))

	ctx := metrics.NewContext(context.Background(), reg)
	res, err := Attack(ctx, locked, noisy, Options{
		Retry:  RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond, Seed: 1},
		Votes:  5,
		Quorum: 3,
	})
	if err != nil {
		t.Fatalf("attack under fault plan: %v", err)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, perfect); err != nil {
		t.Fatalf("recovered key is wrong: %v", err)
	}
	s := reg.Snapshot()
	for _, name := range []string{"fault_oracle_calls_total", "retry_oracle_attempts_total", "retry_votes_total"} {
		if v, ok := s.Counter(name); !ok || v == 0 {
			t.Errorf("counter %s = %d (present %v); want > 0", name, v, ok)
		}
	}
	if tr, _ := s.Counter("fault_transients_total"); tr == 0 {
		t.Error("fault plan injected no transients; test is vacuous")
	}
	// The environment telemetry must stay out of the deterministic subset.
	det := s.Deterministic()
	for _, c := range det.Counters {
		for _, p := range []string{"fault_", "retry_", "resume_"} {
			if strings.HasPrefix(c.Name, p) {
				t.Errorf("deterministic subset leaked %s", c.Name)
			}
		}
	}
	t.Logf("survived fault plan: %d iterations, %d physical oracle calls", res.Iterations, inj.Calls())
}

func TestAttackOracleFailurePartialResult(t *testing.T) {
	// An oracle that dies permanently mid-attack: the attack surfaces
	// ErrOracleUnavailable together with the partial result.
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockSFLLHD0(base, []uint64{5})
	perfect := OracleFromCircuit(locked, key)
	calls := 0
	dying := OracleFunc(func(in []bool) ([]bool, error) {
		calls++
		if calls > 2 {
			return nil, errors.New("oracle power lost")
		}
		return perfect.Query(in)
	})
	res, err := Attack(context.Background(), locked, dying, Options{
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
	})
	if !errors.Is(err, ErrOracleUnavailable) {
		t.Fatalf("err = %v, want ErrOracleUnavailable", err)
	}
	if res == nil || res.Iterations == 0 || len(res.Key) != len(locked.Keys) {
		t.Fatalf("oracle failure must leave a partial result with best-guess key: %+v", res)
	}
}

// testCheckpoint is a hand-built three-DIP transcript for the format tests.
func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version: CheckpointVersion, Circuit: "adder4", InputBits: 8, KeyBits: 8,
		Iterations: 3, OracleCalls: 17,
		DIPs:    []string{"01010101", "10000001", "11110000"},
		Answers: []string{"00110", "11001", "10101"},
		Calls:   []uint64{5, 11, 17},
		Solver:  "cdcl", CycleBreak: true,
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	cp := testCheckpoint()
	if err := cp.Save(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, cp)
	}

	bad := *cp
	bad.Version = 99
	if err := bad.Save(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("wrong version: err = %v, want ErrCheckpointMismatch", err)
	}
	// The iteration count is the record count, so a checkpoint whose count
	// disagrees with its transcript cannot be written at all.
	bad = *cp
	bad.Iterations = 4
	if err := bad.Save(path, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("truncated transcript: err = %v, want ErrCheckpointMismatch", err)
	}
	bad = *cp
	bad.OracleCalls = 18
	if err := bad.Save(path, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("oracle calls off the last record: err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent"), nil); err == nil {
		t.Error("missing file must error")
	}
}

// journalLines saves cp and returns the file's newline-terminated lines.
func journalLines(t *testing.T, cp *Checkpoint, key []byte) [][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	if err := cp.Save(path, key); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if n := len(lines); n != cp.Iterations+2 || len(lines[n-1]) != 0 {
		t.Fatalf("journal has %d lines, want a header, %d records and a final newline", n, cp.Iterations)
	}
	return lines[:len(lines)-1]
}

// TestCheckpointTamperDetected pins the v4 integrity chain: a journal
// whose bytes changed on disk after Save — bit rot, hand editing, or
// records deleted or reordered — fails to load with ErrCheckpointMismatch
// rather than resuming a silently divergent transcript.
func TestCheckpointTamperDetected(t *testing.T) {
	cp := testCheckpoint()
	lines := journalLines(t, cp, nil)
	decode := func(ls ...[]byte) (*Checkpoint, error) {
		return DecodeCheckpoint(bytes.Join(ls, nil), nil)
	}
	// Edit one covered field without breaking the JSON: the last record now
	// claims 97 oracle calls instead of 17.
	edited := bytes.Replace(lines[3], []byte(`"oracle_calls":17`), []byte(`"oracle_calls":97`), 1)
	if bytes.Equal(edited, lines[3]) {
		t.Fatal("fixture drifted: oracle_calls field not found")
	}
	if _, err := decode(lines[0], lines[1], lines[2], edited); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("tampered field: err = %v, want ErrCheckpointMismatch", err)
	}
	// The chain binds every record to its predecessors: a deleted middle
	// record or two swapped records fail even though each line is intact.
	if _, err := decode(lines[0], lines[1], lines[3]); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("deleted middle record: err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := decode(lines[0], lines[2], lines[1], lines[3]); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("swapped records: err = %v, want ErrCheckpointMismatch", err)
	}
	// Reformatting a record (whitespace) is not tamper: the digest covers
	// the canonical compact encoding, not the file bytes.
	loose := append([]byte("  "), bytes.ReplaceAll(bytes.ReplaceAll(lines[2],
		[]byte(`":`), []byte(`": `)), []byte(`,"`), []byte(`, "`))...)
	got, err := decode(lines[0], lines[1], loose, lines[3])
	if err != nil {
		t.Fatalf("reformatted record rejected: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("reformatted journal decoded to %+v, want %+v", got, cp)
	}
	// Unparseable bytes are the same mismatch, not a different failure mode.
	for _, garbage := range []string{`{"version": 4, "torn`, "garbage\n", ""} {
		if _, err := DecodeCheckpoint([]byte(garbage), nil); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("garbage %q: err = %v, want ErrCheckpointMismatch", garbage, err)
		}
	}
	// A version-3 document, indented or compact, is rejected.
	v3 := map[string]any{
		"version": 3, "circuit": cp.Circuit, "input_bits": cp.InputBits, "key_bits": cp.KeyBits,
		"iterations": cp.Iterations, "oracle_calls": cp.OracleCalls,
		"dips": cp.DIPs, "answers": cp.Answers, "digest": "sha256:00",
	}
	indented, err := json.MarshalIndent(v3, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(v3)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{indented, compact} {
		if _, err := DecodeCheckpoint(append(doc, '\n'), nil); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("v3 document: err = %v, want ErrCheckpointMismatch", err)
		}
	}
}

// TestCheckpointMACKeying pins keyed-mode semantics: a node key at load time
// REQUIRES the MAC chain — unkeyed files and wrong-key MACs are tamper —
// while a keyed file still loads digest-only where no key is configured.
func TestCheckpointMACKeying(t *testing.T) {
	key := bytes.Repeat([]byte{0x5c}, 32)
	cp := testCheckpoint()
	lines := journalLines(t, cp, key)
	keyed := bytes.Join(lines, nil)
	if got, err := DecodeCheckpoint(keyed, key); err != nil || !reflect.DeepEqual(got, cp) {
		t.Fatalf("keyed round trip: %+v, %v", got, err)
	}
	if _, err := DecodeCheckpoint(keyed, nil); err != nil {
		t.Fatalf("keyed file under an unkeyed load (digest-only): %v", err)
	}
	if _, err := DecodeCheckpoint(keyed, bytes.Repeat([]byte{0x11}, 32)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong key: err = %v, want ErrCheckpointMismatch", err)
	}
	// Every line carries a MAC, and one flipped hex digit in any of them
	// voids the chain.
	for n, line := range lines {
		i := bytes.Index(line, []byte("hmac-sha256:"))
		if i < 0 {
			t.Fatalf("keyed save wrote no MAC on line %d", n+1)
		}
		raw := bytes.Clone(keyed)
		raw[len(bytes.Join(lines[:n], nil))+i+len("hmac-sha256:")] ^= 0x01
		if _, err := DecodeCheckpoint(raw, key); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("flipped MAC digit on line %d: err = %v, want ErrCheckpointMismatch", n+1, err)
		}
	}
	// An unkeyed file cannot satisfy a keyed load: stripping the MACs and
	// recomputing the digests is not a downgrade an attacker gets for free.
	unkeyed := bytes.Join(journalLines(t, cp, nil), nil)
	if _, err := DecodeCheckpoint(unkeyed, key); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("MAC-less file under a keyed load: err = %v, want ErrCheckpointMismatch", err)
	}
}

// FuzzDecodeCheckpoint: decoding arbitrary bytes never panics, every
// failure is a checkpoint mismatch, and every accepted input re-saved with
// Save decodes to the same Checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	key := bytes.Repeat([]byte{0x5c}, 32)
	dir := f.TempDir()
	for i, k := range [][]byte{nil, key} {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.ckpt", i))
		if err := testCheckpoint().Save(path, k); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-7]) // torn tail
	}
	f.Add([]byte(`{"version": 3, "torn`))
	f.Add([]byte("{\n  \"version\": 3\n}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range [][]byte{nil, key} {
			cp, err := DecodeCheckpoint(data, k)
			if err != nil {
				if !errors.Is(err, ErrCheckpointMismatch) {
					t.Fatalf("decode error %v does not wrap ErrCheckpointMismatch", err)
				}
				continue
			}
			path := filepath.Join(t.TempDir(), "resaved.ckpt")
			if err := cp.Save(path, k); err != nil {
				t.Fatalf("accepted checkpoint does not re-save: %v", err)
			}
			again, err := LoadCheckpoint(path, k)
			if err != nil {
				t.Fatalf("re-saved checkpoint does not load: %v", err)
			}
			if !reflect.DeepEqual(again, cp) {
				t.Fatalf("re-saved checkpoint decodes differently:\n%+v\n%+v", again, cp)
			}
		}
	})
}

func TestCheckpointRejectsWrongCircuit(t *testing.T) {
	base, _ := netlist.NewAdder(3)
	locked, key, _ := netlist.LockXOR(base, 4, 1)
	cp := &Checkpoint{
		Version: CheckpointVersion, Circuit: "someone-else",
		InputBits: len(locked.Inputs), KeyBits: len(locked.Keys),
	}
	_, err := Attack(context.Background(), locked, OracleFromCircuit(locked, key), Options{Resume: cp})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// attackToCompletion runs an uninterrupted attack on a fresh registry and
// returns the result plus the deterministic metrics subset, serialised.
func attackToCompletion(t *testing.T, locked *netlist.Circuit, oracle Oracle, opts Options) (*Result, string) {
	t.Helper()
	reg := metrics.New()
	ctx := metrics.NewContext(context.Background(), reg)
	res, err := Attack(ctx, locked, oracle, opts)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	det, err := json.Marshal(reg.Snapshot().Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return res, string(det)
}

// TestAttackCheckpointResume kills an attack at a fixed iteration via a
// cancelling progress hook, resumes from the checkpoint it left behind, and
// requires the recovered key, iteration count, DIP transcript, and
// deterministic metrics to be byte-identical to an uninterrupted run.
func TestAttackCheckpointResume(t *testing.T) {
	base, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockXOR(base, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleFromCircuit(locked, key)

	full, fullDet := attackToCompletion(t, locked, oracle, Options{})
	if full.Iterations < 2 {
		t.Skipf("attack converged in %d iterations; nothing to interrupt", full.Iterations)
	}
	killAt := full.Iterations - 1

	// Phase 1: run with checkpointing, cancel as soon as iteration killAt
	// completes. The checkpoint is written before the Step event fires, so
	// the file holds exactly killAt iterations.
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Phase == "attack" && e.Done >= killAt {
			cancel()
		}
	})
	_, err = Attack(progress.NewContext(ctx, hook), locked, oracle,
		Options{CheckpointPath: path})
	if err == nil {
		t.Fatal("cancelled attack must not complete")
	}
	cp, err := LoadCheckpoint(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iterations != killAt {
		t.Fatalf("checkpoint holds %d iterations, want %d", cp.Iterations, killAt)
	}

	// Phase 2: resume on a fresh registry and compare everything.
	res, resDet := attackToCompletion(t, locked, oracle, Options{Resume: cp})
	if !equalBits(res.Key, full.Key) {
		t.Errorf("resumed key %v != uninterrupted key %v", res.Key, full.Key)
	}
	if res.Iterations != full.Iterations {
		t.Errorf("resumed iterations %d != uninterrupted %d", res.Iterations, full.Iterations)
	}
	if len(res.DIPs) != len(full.DIPs) {
		t.Fatalf("resumed DIP count %d != %d", len(res.DIPs), len(full.DIPs))
	}
	for i := range res.DIPs {
		if !equalBits(res.DIPs[i], full.DIPs[i]) {
			t.Errorf("DIP %d diverged: %s vs %s", i, bitsToString(res.DIPs[i]), bitsToString(full.DIPs[i]))
		}
	}
	if resDet != fullDet {
		t.Errorf("Deterministic() snapshots differ:\nresumed:       %s\nuninterrupted: %s", resDet, fullDet)
	}
	if err := VerifyKey(context.Background(), locked, res.Key, oracle); err != nil {
		t.Errorf("resumed key wrong: %v", err)
	}
}

// TestAttackCheckpointMismatchOnDivergence feeds a checkpoint whose recorded
// DIP cannot match what the solver re-derives.
func TestAttackCheckpointMismatchOnDivergence(t *testing.T) {
	base, _ := netlist.NewAdder(4)
	locked, key, _ := netlist.LockXOR(base, 8, 3)
	oracle := OracleFromCircuit(locked, key)
	full, _ := attackToCompletion(t, locked, oracle, Options{})
	if full.Iterations == 0 {
		t.Skip("attack needed no DIPs")
	}
	flipped := append([]bool(nil), full.DIPs[0]...)
	flipped[0] = !flipped[0]
	cp := &Checkpoint{
		Version: CheckpointVersion, Circuit: locked.Name,
		InputBits: len(locked.Inputs), KeyBits: len(locked.Keys),
		Iterations: 1,
		DIPs:       []string{bitsToString(flipped)},
		Answers:    []string{bitsToString(make([]bool, len(locked.Outputs)))},
	}
	_, err := Attack(context.Background(), locked, oracle, Options{Resume: cp})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// sfllAdder4 is the width-4 adder under SFLL-HD(0) on secret 5: an attack
// of well over 20 DIPs that finishes in milliseconds.
func sfllAdder4(t *testing.T) (*netlist.Circuit, Oracle) {
	t.Helper()
	base, err := netlist.NewAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	locked, key, err := netlist.LockSFLLHD0(base, []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	return locked, OracleFromCircuit(locked, key)
}

// cancelAt runs a checkpointing attack on path and cancels it once DIP k
// is done, returning the checkpoint the run left behind.
func cancelAt(t *testing.T, k int, locked *netlist.Circuit, oracle Oracle, opts Options) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Phase == "attack" && e.Done >= k {
			cancel()
		}
	})
	if _, err := Attack(progress.NewContext(ctx, hook), locked, oracle, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("attack cancelled at DIP %d returned %v", k, err)
	}
	cp, err := LoadCheckpoint(opts.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// requireSameAttack compares a resumed run with an uninterrupted one.
func requireSameAttack(t *testing.T, got, want *Result) {
	t.Helper()
	if !equalBits(got.Key, want.Key) || got.Iterations != want.Iterations || len(got.DIPs) != len(want.DIPs) {
		t.Fatalf("resumed run: %d DIPs, key %v; uninterrupted: %d DIPs, key %v",
			got.Iterations, got.Key, want.Iterations, want.Key)
	}
	for i := range got.DIPs {
		if !equalBits(got.DIPs[i], want.DIPs[i]) {
			t.Fatalf("DIP %d diverged after resume", i+1)
		}
	}
}

// TestResumeKeepsReplayedTranscript: a resumed run cancelled during its
// replay must leave the whole recorded transcript on disk — every paid-for
// answer and the oracle-call count that goes with it — not the prefix it
// had replayed so far.
func TestResumeKeepsReplayedTranscript(t *testing.T) {
	locked, oracle := sfllAdder4(t)
	full, _ := attackToCompletion(t, locked, oracle, Options{})
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	cp := cancelAt(t, 20, locked, oracle, Options{CheckpointPath: path})
	if cp.Iterations != 20 {
		t.Fatalf("first run left %d DIPs, want 20", cp.Iterations)
	}
	again := cancelAt(t, 3, locked, oracle, Options{CheckpointPath: path, Resume: cp})
	if again.Iterations != 20 || again.OracleCalls != cp.OracleCalls {
		t.Fatalf("resume cancelled at replayed DIP 3 left %d DIPs and %d oracle calls, want 20 and %d",
			again.Iterations, again.OracleCalls, cp.OracleCalls)
	}
	res, _ := attackToCompletion(t, locked, oracle, Options{CheckpointPath: path, Resume: again})
	requireSameAttack(t, res, full)
}

// TestCheckpointTornTailResumes: a journal cut mid-line by a crash during
// an append loads as its complete prefix, carrying that prefix's oracle-call
// count, and resumes to the uninterrupted result.
func TestCheckpointTornTailResumes(t *testing.T) {
	locked, oracle := sfllAdder4(t)
	opts := Options{Votes: 3} // three oracle calls per DIP
	full, _ := attackToCompletion(t, locked, oracle, opts)
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	opts.CheckpointPath = path
	cp := cancelAt(t, 20, locked, oracle, opts)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := LoadCheckpoint(path, nil)
	if err != nil {
		t.Fatalf("torn journal: %v", err)
	}
	if torn.Iterations != 19 || torn.OracleCalls != 57 || torn.OracleCalls != cp.Calls[18] {
		t.Fatalf("torn journal loads %d DIPs and %d oracle calls, want 19 and 57 (recorded %d)",
			torn.Iterations, torn.OracleCalls, cp.Calls[18])
	}
	if !reflect.DeepEqual(torn.DIPs, cp.DIPs[:19]) || !reflect.DeepEqual(torn.Answers, cp.Answers[:19]) {
		t.Fatal("torn journal is not the recorded prefix")
	}
	opts.CheckpointPath, opts.Resume = "", torn
	res, _ := attackToCompletion(t, locked, oracle, opts)
	requireSameAttack(t, res, full)
}

// TestResumeRealignsContextFaultSchedule runs a checkpointing attack under a
// fault plan carried on the context, kills it after k DIPs and resumes it
// under a fresh injector of the same plan. Attack seeks that injector to the
// checkpoint's oracle-call count, so the resumed run draws the faults an
// uninterrupted run draws: the same DIPs and key, and the same oracle-call
// count, retries included, after every DIP.
func TestResumeRealignsContextFaultSchedule(t *testing.T) {
	locked, oracle := sfllAdder4(t)
	plan := fault.Plan{Seed: 11, TransientRate: 0.2}
	faulted := func(ctx context.Context, reg *metrics.Registry) context.Context {
		return fault.NewContext(metrics.NewContext(ctx, reg), fault.New(plan).WithRegistry(reg))
	}
	dir := t.TempDir()
	opts := Options{
		Retry:          RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond, Seed: 1},
		CheckpointPath: filepath.Join(dir, "full.ckpt"),
	}
	reg := metrics.New()
	full, err := Attack(faulted(context.Background(), reg), locked, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := reg.Snapshot().Counter("fault_transients_total"); n == 0 {
		t.Fatal("fault plan injected no transients; the test is vacuous")
	}
	fullCP, err := LoadCheckpoint(opts.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}

	const k = 10
	opts.CheckpointPath = filepath.Join(dir, "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := progress.Func(func(e progress.Event) {
		if e.Kind == progress.Step && e.Phase == "attack" && e.Done >= k {
			cancel()
		}
	})
	if _, err := Attack(progress.NewContext(faulted(ctx, metrics.New()), hook), locked, oracle, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("attack cancelled at DIP %d returned %v", k, err)
	}
	cp, err := LoadCheckpoint(opts.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iterations != k || cp.OracleCalls != fullCP.Calls[k-1] {
		t.Fatalf("killed run left %d DIPs and %d oracle calls, want %d and %d",
			cp.Iterations, cp.OracleCalls, k, fullCP.Calls[k-1])
	}

	opts.Resume = cp
	res, err := Attack(faulted(context.Background(), metrics.New()), locked, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAttack(t, res, full)
	final, err := LoadCheckpoint(opts.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.OracleCalls != fullCP.OracleCalls || !reflect.DeepEqual(final.Calls, fullCP.Calls) {
		t.Fatalf("resumed run ended at %d oracle calls, uninterrupted at %d; per-DIP counts\n%v\n%v",
			final.OracleCalls, fullCP.OracleCalls, final.Calls, fullCP.Calls)
	}
}

// TestAttackCheckpointAnswerWidth: a recorded answer narrower than the
// circuit's outputs is a checkpoint mismatch, not an index panic mid-replay.
func TestAttackCheckpointAnswerWidth(t *testing.T) {
	locked, oracle := sfllAdder4(t)
	full, _ := attackToCompletion(t, locked, oracle, Options{})
	cp := &Checkpoint{
		Version: CheckpointVersion, Circuit: locked.Name,
		InputBits: len(locked.Inputs), KeyBits: len(locked.Keys),
		Iterations: 1, OracleCalls: 1, Calls: []uint64{1},
		DIPs:    []string{bitsToString(full.DIPs[0])},
		Answers: []string{"0"},
	}
	if _, err := Attack(context.Background(), locked, oracle, Options{Resume: cp}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointJournalAppendsInPlace pins the write path's cost: after the
// first write creates the file, every DIP appends one record to the same
// inode, a number of bytes that does not grow with the transcript.
func TestCheckpointJournalAppendsInPlace(t *testing.T) {
	locked, oracle := sfllAdder4(t)
	path := filepath.Join(t.TempDir(), "attack.ckpt")
	// One record: the JSON keys and seal prefixes, the bit strings, a
	// 20-digit call count and a 64-digit digest.
	bound := int64(128 + 20 + 64 + len(locked.Inputs) + len(locked.Outputs))
	var first os.FileInfo
	var size int64
	hook := progress.Func(func(e progress.Event) {
		if e.Kind != progress.Step || e.Phase != "attack" {
			return
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("DIP %d: %v", e.Done, err)
		}
		if first == nil {
			first, size = fi, fi.Size()
			return
		}
		if !os.SameFile(first, fi) {
			t.Fatalf("DIP %d: checkpoint replaced after the first write", e.Done)
		}
		if d := fi.Size() - size; d <= 0 || d > bound {
			t.Fatalf("DIP %d appended %d bytes, want 1..%d", e.Done, d, bound)
		}
		size = fi.Size()
	})
	res, err := Attack(progress.NewContext(context.Background(), hook), locked, oracle,
		Options{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 64 {
		t.Fatalf("attack took %d DIPs; too short to tell appends from rewrites", res.Iterations)
	}
	cp, err := LoadCheckpoint(path, nil)
	if err != nil || cp.Iterations != res.Iterations {
		t.Fatalf("final journal: %v, %+v", err, cp)
	}
}

// TestApproxAttackWithVoting: the approximate attack shares the resilient
// querier, so a noisy oracle still yields a usable low-error key.
func TestApproxAttackWithVoting(t *testing.T) {
	base, _ := netlist.NewAdder(4)
	locked, key, _ := netlist.LockXOR(base, 8, 3)
	perfect := OracleFromCircuit(locked, key)
	inj := fault.New(fault.Plan{Seed: 7, TransientRate: 0.1, BitFlipRate: 0.005})
	noisy := OracleFunc(inj.WrapOracle(perfect.Query))
	res, err := ApproxAttack(context.Background(), locked, noisy, ApproxOptions{
		MaxIterations: 64, ErrorSamples: 200, Seed: 3,
		Retry: RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond},
		Votes: 5, Quorum: 3,
	})
	if err != nil {
		t.Fatalf("approx attack under noise: %v", err)
	}
	if res.EstErrorRate > 0.05 {
		t.Errorf("estimated error rate %.3f; voting should have recovered a near-exact key", res.EstErrorRate)
	}
}
