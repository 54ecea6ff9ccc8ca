package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bindlock/internal/metrics"
	"bindlock/internal/store"
)

const testKernel = `
kernel demo;
input a, b, c, d;
output y, z;
t0 = a * b;
t1 = c * d;
t2 = t0 + t1;
t3 = t2 + a;
t4 = t3 + c;
y = t4;
z = t2 - d;
`

// fastPrepare keeps the workload small so prepare-family jobs run in
// milliseconds.
func fastPrepare(kind string) Request {
	return Request{Kind: kind, Source: testKernel, Samples: 100, Seed: 7}
}

// fastAttack is a width-3 attack: a handful of DIPs, a few milliseconds.
func fastAttack() Request {
	return Request{Kind: KindAttack, OperandBits: 3, Secret: 0b101101}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

// waitTerminal polls until the job reaches a terminal state. The deadline is
// sized for the width-5 attack jobs under -race on a loaded single-core box
// (~70-90s); fast jobs return as soon as they finish.
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(240 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func submitWait(t *testing.T, m *Manager, req Request) Job {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatalf("submit %s: %v", req.Kind, err)
	}
	j = waitTerminal(t, m, j.ID)
	if j.State != StateDone {
		t.Fatalf("%s job %s: state %s, error %q", req.Kind, j.ID, j.State, j.Error)
	}
	return j
}

func TestManagerRunsEveryKind(t *testing.T) {
	m := newManager(t, Config{Workers: 2})

	prep := submitWait(t, m, fastPrepare(KindPrepare))
	var pr PrepareResult
	if err := json.Unmarshal(prep.Result, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Adds == 0 || pr.Muls == 0 || pr.NumFUs == 0 {
		t.Fatalf("empty prepare result: %+v", pr)
	}
	if prep.ProgressTotal == 0 {
		t.Fatal("prepare job recorded no progress events")
	}

	lock := submitWait(t, m, fastPrepare(KindLock))
	var lr LockResult
	if err := json.Unmarshal(lock.Result, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Locks) != 1 || lr.Lambda <= 0 {
		t.Fatalf("lock result %+v", lr)
	}

	bind := submitWait(t, m, fastPrepare(KindBind))
	var br BindResult
	if err := json.Unmarshal(bind.Result, &br); err != nil {
		t.Fatal(err)
	}
	if br.Binder != "obfuscation-aware" || len(br.Assign) == 0 {
		t.Fatalf("bind result %+v", br)
	}

	cod := submitWait(t, m, fastPrepare(KindCodesign))
	var cr CodesignResult
	if err := json.Unmarshal(cod.Result, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Locks) == 0 || cr.Enumerated == 0 {
		t.Fatalf("codesign result %+v", cr)
	}
	// Co-design picks minterms at least as good as the frequency-top default.
	if cr.Errors < br.Errors {
		t.Fatalf("codesign errors %d below fixed-lock bind errors %d", cr.Errors, br.Errors)
	}

	atk := submitWait(t, m, fastAttack())
	var ar AttackResult
	if err := json.Unmarshal(atk.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Iterations == 0 || len(ar.Key) != ar.KeyBits || strings.Trim(ar.Key, "01") != "" {
		t.Fatalf("attack result %+v", ar)
	}
}

// TestBaselineBindersServed pins that the bind kind serves every binder.
func TestBaselineBindersServed(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	for _, binder := range []string{"area", "power", "random"} {
		req := fastPrepare(KindBind)
		req.Binder = binder
		j := submitWait(t, m, req)
		var br BindResult
		if err := json.Unmarshal(j.Result, &br); err != nil {
			t.Fatal(err)
		}
		if br.Binder != binder || len(br.Assign) == 0 {
			t.Fatalf("binder %s: result %+v", binder, br)
		}
	}
}

// TestCacheHitIsByteIdentical is the store determinism contract end to end:
// a repeated identical request is served from the cache (no recompute),
// increments the hit counters, and returns the cold run's exact bytes.
func TestCacheHitIsByteIdentical(t *testing.T) {
	reg := metrics.New()
	m := newManager(t, Config{Workers: 2, Registry: reg})

	cold := submitWait(t, m, fastAttack())
	if cold.Cached {
		t.Fatal("first run must not be cached")
	}

	warm, err := m.Submit(fastAttack())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.State != StateDone {
		t.Fatalf("second run: cached=%v state=%s", warm.Cached, warm.State)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("cache hit diverged from cold run:\ncold: %s\nwarm: %s", cold.Result, warm.Result)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("server_jobs_cached_total"); v != 1 {
		t.Fatalf("server_jobs_cached_total = %d, want 1", v)
	}
	if v, _ := snap.Counter("store_hit_total"); v == 0 {
		t.Fatal("store_hit_total did not increment")
	}

	// A delta in any request field reaches the fingerprint: different secret,
	// different job.
	other := fastAttack()
	other.Secret = 0b101100
	j := submitWait(t, m, other)
	if j.Cached {
		t.Fatal("different secret must not hit the cache")
	}
}

// TestDesignMemoSharesPrepares pins that a burst of jobs over one kernel
// prepares it once.
func TestDesignMemoSharesPrepares(t *testing.T) {
	reg := metrics.New()
	m := newManager(t, Config{Workers: 1, Registry: reg})
	submitWait(t, m, fastPrepare(KindPrepare))
	submitWait(t, m, fastPrepare(KindLock))
	submitWait(t, m, fastPrepare(KindBind))
	snap := reg.Snapshot()
	if v, _ := snap.Counter("server_design_memo_miss_total"); v != 1 {
		t.Fatalf("design memo misses = %d, want 1", v)
	}
	if v, _ := snap.Counter("server_design_memo_hit_total"); v != 2 {
		t.Fatalf("design memo hits = %d, want 2", v)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	bad := []Request{
		{},
		{Kind: "unknown"},
		{Kind: KindPrepare},
		{Kind: KindPrepare, Source: testKernel, Bench: "fir"},
		{Kind: KindPrepare, Source: testKernel, Workload: "nope"},
		{Kind: KindAttack, Source: testKernel},
		{Kind: KindAttack, OperandBits: 99},
		{Kind: KindAttack, OperandBits: 3, Secret: 1 << 20},
		{Kind: KindBind, Source: testKernel, Binder: "nope"},
		{Kind: KindLock, Source: testKernel, LockedFUs: 5},
	}
	for i, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
}

// TestCancelRunningJobSurfacesPartial cancels an in-flight attack and checks
// the partial result and checkpoint land on the job record.
func TestCancelRunningJobSurfacesPartial(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, Config{Workers: 1, CheckpointDir: dir})
	// Width 5 runs for roughly a second: long enough to catch mid-flight.
	j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 5, Secret: 0x2A5})
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, m, j.ID, 3)
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	var p AttackPartial
	if err := json.Unmarshal(got.Partial, &p); err != nil {
		t.Fatalf("partial %q: %v", got.Partial, err)
	}
	if p.Iterations == 0 {
		t.Fatal("partial shows no iterations")
	}
	if got.Checkpoint == "" {
		t.Fatal("no checkpoint recorded for interrupted attack")
	}
	if _, err := os.Stat(got.Checkpoint); err != nil {
		t.Fatalf("checkpoint missing on disk: %v", err)
	}
}

// waitProgress polls until the job has recorded at least n progress events.
func waitProgress(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.ProgressTotal >= n {
			return
		}
		if j.State.Terminal() {
			t.Fatalf("job %s finished (%s) before %d progress events", id, j.State, n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %d progress events", id, n)
}

// TestJobTimeoutFailsWithPartial pins the per-job deadline path: the job
// fails (not cancelled) and surfaces its partial work.
func TestJobTimeoutFailsWithPartial(t *testing.T) {
	m := newManager(t, Config{Workers: 1, JobTimeout: 80 * time.Millisecond})
	j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 6, Secret: 0xAB5})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Error == "" || got.Partial == nil {
		t.Fatalf("timeout job: error %q, partial %q", got.Error, got.Partial)
	}
}

// TestDrainCheckpointsAndResumeIsByteIdentical is the graceful-shutdown
// contract: a drain cuts an in-flight attack short but its transcript is on
// disk, and a restarted manager resumes it to the exact result a never-
// interrupted run produces.
func TestDrainCheckpointsAndResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// 255 DIPs, the most any width-4 lock needs: the drain after 3 progress
	// events always lands mid-attack, yet the resumed and the cold run each
	// take well under a second.
	req := Request{Kind: KindAttack, OperandBits: 4, Secret: 0x66}

	m1, err := New(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	j1, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, m1, j1.ID, 3)

	// SIGTERM path: drain with an expired grace period cancels the attack.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Drain(expired)
	got1, _ := m1.Get(j1.ID)
	if got1.State != StateCancelled {
		t.Fatalf("drained job state %s, want cancelled", got1.State)
	}
	if got1.Checkpoint == "" {
		t.Fatal("drained attack left no checkpoint")
	}

	// Restarted daemon, same checkpoint dir: the job resumes and completes.
	m2 := newManager(t, Config{Workers: 1, CheckpointDir: dir})
	j2 := submitWait(t, m2, req)
	if !j2.Resumed {
		t.Fatal("restarted run did not resume from the checkpoint")
	}

	// Reference: the same request cold, no checkpoints anywhere.
	m3 := newManager(t, Config{Workers: 1})
	j3 := submitWait(t, m3, req)
	if j3.Resumed {
		t.Fatal("reference run unexpectedly resumed")
	}

	if !bytes.Equal(j2.Result, j3.Result) {
		t.Fatalf("resumed result diverged from cold run:\nresumed: %s\ncold:    %s", j2.Result, j3.Result)
	}
	var resumed, cold AttackResult
	json.Unmarshal(j2.Result, &resumed)
	json.Unmarshal(j3.Result, &cold)
	if resumed.Key == "" || resumed.Key != cold.Key {
		t.Fatalf("recovered keys diverged: resumed %q, cold %q", resumed.Key, cold.Key)
	}
	// The served transcript is consumed on success.
	if _, err := os.Stat(got1.Checkpoint); err == nil {
		t.Fatal("checkpoint not removed after successful resume")
	}
}

// TestDrainRejectsNewWork pins the intake side of draining.
func TestDrainRejectsNewWork(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Drain(ctx)
	if _, err := m.Submit(fastAttack()); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

func TestQueueBound(t *testing.T) {
	m := newManager(t, Config{Workers: 1, MaxQueue: 1})
	// Keep submitting slow attacks until the single worker plus the single
	// queue slot are full and a submission bounces.
	var accepted []Job
	var rejected bool
	for i := 0; i < 50 && !rejected; i++ {
		j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 5, Secret: uint64(0x20 + i)})
		switch {
		case err == nil:
			accepted = append(accepted, j)
		case errors.Is(err, ErrQueueFull):
			rejected = true
		default:
			t.Fatalf("submit: %v, want ErrQueueFull", err)
		}
	}
	if !rejected {
		t.Fatal("bounded queue never rejected")
	}
	for _, j := range accepted {
		m.Cancel(j.ID)
	}
}

// TestQueueFullLeavesNoRecord: a submission the full queue refuses leaves
// no record, no id and no in-flight entry behind.
func TestQueueFullLeavesNoRecord(t *testing.T) {
	m := newManager(t, Config{Workers: 1, MaxQueue: 1})
	var accepted []Job
	var bounced Request
	for i := 0; i < 50; i++ {
		req := Request{Kind: KindAttack, OperandBits: 5, Secret: uint64(0x20 + i)}
		j, err := m.Submit(req)
		if errors.Is(err, ErrQueueFull) {
			bounced = req
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, j)
	}
	if bounced.Kind == "" {
		t.Fatal("bounded queue never rejected")
	}
	if n := len(m.List()); n != len(accepted) {
		t.Fatalf("%d records after a rejection, want the %d accepted", n, len(accepted))
	}
	m.mu.Lock()
	inflight := len(m.inflight)
	m.mu.Unlock()
	if inflight != len(accepted) {
		t.Fatalf("%d in-flight entries after a rejection, want %d", inflight, len(accepted))
	}
	for _, j := range accepted {
		m.Cancel(j.ID)
	}
	// The cancelled jobs leave the queue as the worker drains it.
	j, err := m.Submit(bounced)
	for deadline := time.Now().Add(60 * time.Second); errors.Is(err, ErrQueueFull) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		j, err = m.Submit(bounced)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(j.ID)
	if want := fmt.Sprintf("j%d", len(accepted)+1); j.ID != want || j.AttachedTo != "" {
		t.Fatalf("resubmitted job: id %s, attached to %q; want %s, unattached", j.ID, j.AttachedTo, want)
	}
}

// TestSubmitReturnsQueuedRecord: Submit registers and snapshots a fresh
// job before any worker can take it, so it reports the job queued, with
// its id, however fast the job runs. The designs are memoised, so each
// bind job takes microseconds, and the growing record list widens the
// window a snapshot taken after the enqueue would lose.
func TestSubmitReturnsQueuedRecord(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	for seed := int64(1); seed <= 5; seed++ {
		warm := fastPrepare(KindPrepare)
		warm.Seed = seed
		submitWait(t, m, warm) // memoise the design
		for _, class := range []string{"adder", "multiplier"} {
			for _, binder := range []string{"obfuscation-aware", "area", "power", "random"} {
				for lf := 1; lf <= 2; lf++ {
					for mt := 1; mt <= 6; mt++ {
						req := fastPrepare(KindBind)
						req.Seed, req.Class, req.Binder = seed, class, binder
						req.LockedFUs, req.MintermsPerFU = lf, mt
						j, err := m.Submit(req)
						if err != nil {
							t.Fatal(err)
						}
						if j.State != StateQueued || j.ID == "" {
							t.Fatalf("fresh bind job (seed %d, %s, %s, %d×%d): Submit returned state %s, id %q; want queued",
								seed, class, binder, lf, mt, j.State, j.ID)
						}
						waitTerminal(t, m, j.ID)
					}
				}
			}
		}
	}
}

// TestConcurrentSubmitCancelHammer exercises the manager under the race
// detector: concurrent submits, cancels, polls and listings.
func TestConcurrentSubmitCancelHammer(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open("", 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 4, MaxQueue: 256, CheckpointDir: dir, Store: st})

	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	ids := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var req Request
				switch i % 3 {
				case 0:
					req = Request{Kind: KindAttack, OperandBits: 3, Secret: uint64(g*perG+i) % 63}
				case 1:
					req = Request{Kind: KindAttack, OperandBits: 4, Secret: uint64(g*perG+i) % 255}
				default:
					req = fastPrepare(KindLock)
					req.Seed = int64(g + 1)
				}
				j, err := m.Submit(req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- j.ID
				if i%2 == 0 {
					m.Cancel(j.ID)
				}
				m.Get(j.ID)
				m.List()
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		j := waitTerminal(t, m, id)
		if j.State == StateFailed {
			t.Errorf("job %s failed: %s", id, j.Error)
		}
	}
}

// --- HTTP end-to-end ---

func postJob(t *testing.T, ts *httptest.Server, req Request) (int, Job) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, Job) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

// TestHTTPSubmitPollResult drives every job kind through the HTTP API:
// submit (202), poll until done, read the result payload.
func TestHTTPSubmitPollResult(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	reqs := []Request{
		fastPrepare(KindPrepare),
		fastPrepare(KindBind),
		fastPrepare(KindLock),
		fastPrepare(KindCodesign),
		fastAttack(),
	}
	for _, req := range reqs {
		status, j := postJob(t, ts, req)
		if status != http.StatusAccepted {
			t.Fatalf("%s: POST status %d, want 202", req.Kind, status)
		}
		deadline := time.Now().Add(60 * time.Second)
		for !j.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("%s job %s never finished", req.Kind, j.ID)
			}
			time.Sleep(2 * time.Millisecond)
			_, j = getJob(t, ts, j.ID)
		}
		if j.State != StateDone || len(j.Result) == 0 {
			t.Fatalf("%s job: state %s, error %q", req.Kind, j.State, j.Error)
		}
	}

	// The repeated request completes inline with a 200 and the cached bytes.
	status, warm := postJob(t, ts, fastAttack())
	if status != http.StatusOK || !warm.Cached {
		t.Fatalf("cache hit: status %d, cached %v", status, warm.Cached)
	}
}

func TestHTTPErrorsAndHealth(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	if status, _ := postJob(t, ts, Request{Kind: "nope"}); status != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d, want 400", status)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind": "prepare", "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if status, _ := getJob(t, ts, "j999"); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}

	submitWait(t, m, fastAttack())
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{"bindlock_server_jobs_submitted_total", "bindlock_server_jobs_done_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, buf.String())
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	_, j := postJob(t, ts, Request{Kind: KindAttack, OperandBits: 5, Secret: 0x3C1})
	waitProgress(t, m, j.ID, 2)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
}

// TestHTTPDrainingHealth pins /healthz flipping to 503 once draining.
func TestHTTPDrainingHealth(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Drain(ctx)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	status, _ := postJob(t, ts, fastAttack())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", status)
	}
}

// TestProgressRingBounded pins that a long attack cannot grow the job record
// without bound. Width 4, secret 0x55 needs 185 DIPs, one progress step
// each: more than five times progressRingCap.
func TestProgressRingBounded(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	j := submitWait(t, m, Request{Kind: KindAttack, OperandBits: 4, Secret: 0x55})
	if len(j.Progress) > progressRingCap {
		t.Fatalf("progress ring holds %d entries, cap %d", len(j.Progress), progressRingCap)
	}
	if j.ProgressTotal <= len(j.Progress) {
		t.Fatalf("total %d should exceed retained %d for a long attack", j.ProgressTotal, len(j.Progress))
	}
}

// TestBenchRequestServed runs one benchmark-sourced job to cover the bench
// path of resolve and the design memo.
func TestBenchRequestServed(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	j := submitWait(t, m, Request{Kind: KindPrepare, Bench: "fir", Samples: 50})
	var pr PrepareResult
	if err := json.Unmarshal(j.Result, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Workload == "" || pr.NumFUs == 0 {
		t.Fatalf("bench prepare result %+v", pr)
	}
	if j.Req.Workload == "" {
		t.Fatal("resolved workload not echoed in the job record")
	}
}

func TestListOrdersJobs(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	var want []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 3, Secret: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}
	list := m.List()
	if len(list) != len(want) {
		t.Fatalf("List returned %d jobs, want %d", len(list), len(want))
	}
	for i, j := range list {
		if j.ID != want[i] {
			t.Fatalf("List[%d] = %s, want %s", i, j.ID, want[i])
		}
	}
	for _, id := range want {
		waitTerminal(t, m, id)
	}
}

func TestManyJobsAllLand(t *testing.T) {
	m := newManager(t, Config{Workers: 4, MaxQueue: 128})
	var ids []string
	for i := 0; i < 20; i++ {
		j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 4, Secret: uint64(i * 11 % 255)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		j := waitTerminal(t, m, id)
		if j.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}
}
