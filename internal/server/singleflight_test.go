package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bindlock/internal/metrics"
	"bindlock/internal/store"
)

// TestSingleFlightHammer is the checkpoint-clobbering regression: N
// concurrent identical attack submissions must coalesce onto one execution —
// one checkpoint file on disk at any point during the run (zero after
// success), exactly one completed execution in the metrics, and the same
// byte-identical result on every record.
func TestSingleFlightHammer(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	m := newManager(t, Config{Workers: 4, MaxQueue: 64, CheckpointDir: dir, Registry: reg})

	// Watch the checkpoint directory for the duration: two executions of
	// the same fingerprint would still share one path, but pre-single-flight
	// they deleted each other's transcript mid-run; with more than one file
	// something leaked a foreign key's checkpoint.
	stopWatch := make(chan struct{})
	watchErr := make(chan error, 1)
	go func() {
		defer close(watchErr)
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				continue
			}
			n := 0
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".ckpt") {
					n++
				}
			}
			if n > 1 {
				watchErr <- errors.New("more than one checkpoint file on disk mid-run")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const dups = 8
	req := Request{Kind: KindAttack, OperandBits: 5, Secret: 0x2F1}
	var wg sync.WaitGroup
	start := make(chan struct{})
	ids := make([]string, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			j, err := m.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = j.ID
		}(i)
	}
	close(start)
	wg.Wait()

	var results [][]byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission did not land")
		}
		j := waitTerminal(t, m, id)
		if j.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, j.State, j.Error)
		}
		if len(j.Result) == 0 {
			t.Fatalf("job %s landed without result bytes", id)
		}
		results = append(results, j.Result)
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("result %d diverged from result 0:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}

	close(stopWatch)
	if err := <-watchErr; err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("%d checkpoint files left after success", len(entries))
	}

	snap := reg.Snapshot()
	done, _ := snap.Counter("server_jobs_done_total")
	deduped, _ := snap.Counter("server_jobs_deduped_total")
	cached, _ := snap.Counter("server_jobs_cached_total")
	if done != 1 {
		t.Fatalf("server_jobs_done_total = %d, want exactly 1 execution", done)
	}
	if deduped+cached != dups-1 {
		t.Fatalf("deduped %d + cached %d = %d, want %d duplicates", deduped, cached, deduped+cached, dups-1)
	}
	if deduped == 0 {
		t.Log("warning: every duplicate hit the cache; dedup window not exercised on this run")
	}
}

// TestSingleFlightRecordFields pins the attached_to / duplicates wiring and
// the shared progress stream.
func TestSingleFlightRecordFields(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	req := Request{Kind: KindAttack, OperandBits: 5, Secret: 0x19D}
	primary, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, m, primary.ID, 2)
	dup, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup.AttachedTo != primary.ID {
		t.Fatalf("duplicate attached_to %q, want %q", dup.AttachedTo, primary.ID)
	}
	if dup.State != StateRunning {
		t.Fatalf("duplicate of a running job reports state %s", dup.State)
	}
	p, _ := m.Get(primary.ID)
	found := false
	for _, id := range p.Duplicates {
		if id == dup.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("primary duplicates %v missing %s", p.Duplicates, dup.ID)
	}
	got := waitTerminal(t, m, dup.ID)
	want := waitTerminal(t, m, primary.ID)
	if got.State != StateDone || want.State != StateDone {
		t.Fatalf("states: dup %s primary %s", got.State, want.State)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatal("attached record result diverged from primary")
	}
	if got.ProgressTotal == 0 {
		t.Fatal("attached record saw no progress from the shared ring")
	}
}

// TestCancelAttachedDetaches pins that cancelling a duplicate record only
// detaches that record: the shared execution still completes for the
// primary.
func TestCancelAttachedDetaches(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	// 254 DIPs: after the second progress event the primary is still
	// hundreds of DIPs from done, so the duplicate always attaches.
	req := Request{Kind: KindAttack, OperandBits: 4, Secret: 0x75}
	primary, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, m, primary.ID, 2)
	dup, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup.AttachedTo == "" {
		t.Skip("execution finished before the duplicate attached")
	}
	if _, err := m.Cancel(dup.ID); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, dup.ID)
	if got.State != StateCancelled {
		t.Fatalf("cancelled duplicate state %s", got.State)
	}
	p := waitTerminal(t, m, primary.ID)
	if p.State != StateDone {
		t.Fatalf("primary state %s after duplicate cancel, want done (error %q)", p.State, p.Error)
	}
	// The detached record keeps its cancelled state; the fan-out must not
	// overwrite it.
	if got, _ := m.Get(dup.ID); got.State != StateCancelled || got.Result != nil {
		t.Fatalf("detached record rewritten by fan-out: state %s result %q", got.State, got.Result)
	}
}

// TestDrainServesCacheHits is the draining-order regression: a cache hit
// needs no worker, so it must be served (200, cached) even while draining,
// while uncached submissions still bounce with ErrDraining.
func TestDrainServesCacheHits(t *testing.T) {
	m, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	warm := submitWait(t, m, fastAttack())

	// Drain under load: a slow job is mid-flight when the drain begins.
	slow, err := m.Submit(Request{Kind: KindAttack, OperandBits: 5, Secret: 0x111})
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, m, slow.ID, 2)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, _, draining := m.Stats(); draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	hit, err := m.Submit(fastAttack())
	if err != nil {
		t.Fatalf("cached submission rejected while draining: %v", err)
	}
	if !hit.Cached || hit.State != StateDone {
		t.Fatalf("draining cache hit: cached=%v state=%s", hit.Cached, hit.State)
	}
	if !bytes.Equal(hit.Result, warm.Result) {
		t.Fatal("draining cache hit diverged from the stored bytes")
	}
	if _, err := m.Submit(Request{Kind: KindAttack, OperandBits: 4, Secret: 0x22}); !errors.Is(err, ErrDraining) {
		t.Fatalf("uncached submission while draining: %v, want ErrDraining", err)
	}
	waitTerminal(t, m, slow.ID)
}

// TestJobRetentionBounded pins the terminal-record GC: a sustained
// submission loop holds the retained record count at the configured bound
// instead of growing forever.
func TestJobRetentionBounded(t *testing.T) {
	reg := metrics.New()
	const bound = 64
	m := newManager(t, Config{Workers: 2, RetainJobs: bound, Registry: reg})
	submitWait(t, m, fastAttack()) // cold run populates the cache

	for i := 0; i < 10000; i++ {
		if _, err := m.Submit(fastAttack()); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if got := len(m.List()); got != bound {
		t.Fatalf("retained %d records, want the %d bound", got, bound)
	}
	snap := reg.Snapshot()
	if v, ok := snap.Gauge("server_jobs_retained"); !ok || v != bound {
		t.Fatalf("server_jobs_retained = %v (ok=%v), want %d", v, ok, bound)
	}
	if v, _ := snap.Counter("server_jobs_gced_total"); v == 0 {
		t.Fatal("GC counter never moved over a 10k-submission loop")
	}
}

// TestJobRetentionAge pins the age bound: terminal records older than
// RetainAge vanish on the next submission whatever the count bound.
func TestJobRetentionAge(t *testing.T) {
	m := newManager(t, Config{Workers: 2, RetainAge: time.Nanosecond})
	submitWait(t, m, fastAttack())
	time.Sleep(5 * time.Millisecond)
	if _, err := m.Submit(fastAttack()); err != nil {
		t.Fatal(err)
	}
	if got := len(m.List()); got != 1 {
		t.Fatalf("retained %d records, want only the newest", got)
	}
}

// TestRetentionSparesLiveJobs pins that the GC never drops queued or
// running records, however tight the bound.
func TestRetentionSparesLiveJobs(t *testing.T) {
	m := newManager(t, Config{Workers: 1, MaxQueue: 16, RetainJobs: 1})
	var live []string
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 4, Secret: uint64(0x30 + i)})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, j.ID)
	}
	for _, id := range live {
		j := waitTerminal(t, m, id)
		if j.State != StateDone {
			t.Fatalf("live job %s was lost to GC: %s (%s)", id, j.State, j.Error)
		}
	}
}

// TestPeerCacheSharesResults is the fleet contract end to end: daemon A runs
// an attack; daemon B, pointed at A through an HTTPTier, serves the same
// request as a cold cache hit without running anything.
func TestPeerCacheSharesResults(t *testing.T) {
	regA := metrics.New()
	storeA, err := store.Open(filepath.Join(t.TempDir(), "a"), 0, regA)
	if err != nil {
		t.Fatal(err)
	}
	a := newManager(t, Config{Workers: 2, Store: storeA, Registry: regA})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	req := Request{Kind: KindAttack, OperandBits: 4, Secret: 0xA7}
	cold := submitWait(t, a, req)

	regB := metrics.New()
	storeB, err := store.Open(filepath.Join(t.TempDir(), "b"), 0, regB)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := store.NewHTTPTier(tsA.URL, 0, regB)
	if err != nil {
		t.Fatal(err)
	}
	storeB.AttachRemote(remote)
	b := newManager(t, Config{Workers: 2, Store: storeB, Registry: regB})

	warm, err := b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.State != StateDone {
		t.Fatalf("peer B cold hit: cached=%v state=%s", warm.Cached, warm.State)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("peer-shared result diverged:\nA: %s\nB: %s", cold.Result, warm.Result)
	}
	snapB := regB.Snapshot()
	if v, _ := snapB.Counter("store_remote_hit_total"); v != 1 {
		t.Fatalf("store_remote_hit_total on B = %d, want 1", v)
	}
	if v, _ := snapB.Counter("server_jobs_done_total"); v != 0 {
		t.Fatalf("peer B executed %d jobs, want 0", v)
	}
	// The hit was promoted into B's local tiers: a second lookup stays local.
	if _, ok := storeB.Local().Get(cold.Key); !ok {
		t.Fatal("peer hit was not promoted into B's local tiers")
	}
}

// TestHTTPPeerCacheEndpoints drives the /v1/cache API directly.
func TestHTTPPeerCacheEndpoints(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	key := strings.Repeat("ab", 32)
	url := ts.URL + "/v1/cache/" + key

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status %d, want 404", resp.StatusCode)
	}

	put, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(`{"v":1}`))
	resp, err = http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put status %d, want 204", resp.StatusCode)
	}

	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || buf.String() != `{"v":1}` {
		t.Fatalf("get status %d body %q", resp.StatusCode, buf.String())
	}

	del, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}

	// Keys that are not 64-char hex are rejected before touching the store.
	resp, err = http.Get(ts.URL + "/v1/cache/..%2fnope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad key status %d, want 400/404", resp.StatusCode)
	}
}

// TestHTTPLongPoll pins the streaming-progress contract: a long-poll with
// since returns as soon as new progress lands (well before the job ends),
// and a poll on a terminal job returns immediately.
func TestHTTPLongPoll(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	// 253 DIPs, one progress step each: many events to stream, and the
	// first poll always finds the job running.
	j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 4, Secret: 0xDE})
	if err != nil {
		t.Fatal(err)
	}

	// Stream: each poll waits for progress past what we saw last.
	since := 0
	polls := 0
	var last Job
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "?wait=30s&since=" + strconv.Itoa(since))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("long poll status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		polls++
		if last.State.Terminal() {
			break
		}
		if last.ProgressTotal <= since {
			t.Fatalf("long poll returned without new progress: total %d, since %d, state %s",
				last.ProgressTotal, since, last.State)
		}
		since = last.ProgressTotal
	}
	if last.State != StateDone {
		t.Fatalf("streamed job ended %s (%s)", last.State, last.Error)
	}
	if polls < 2 {
		t.Fatalf("streaming made only %d polls; progress events never woke a waiter", polls)
	}

	// A terminal job answers a long-poll immediately.
	begin := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("terminal long-poll blocked %v", elapsed)
	}

	// Malformed parameters are rejected.
	for _, q := range []string{"?wait=bogus", "?wait=5s&since=-2", "?wait=5s&since=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHTTPBatchSubmit pins the batch endpoint: per-item outcomes, the batch
// cap, and admission control with Retry-After.
func TestHTTPBatchSubmit(t *testing.T) {
	m := newManager(t, Config{Workers: 2, MaxBatch: 4})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	body := `{"jobs": [
		{"kind": "attack", "operand_bits": 3, "secret": 5},
		{"kind": "attack", "operand_bits": 3, "secret": 6},
		{"kind": "nope"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Jobs []BatchItem `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(out.Jobs))
	}
	for i := 0; i < 2; i++ {
		if out.Jobs[i].Job == nil || out.Jobs[i].Error != "" {
			t.Fatalf("item %d: %+v", i, out.Jobs[i])
		}
		waitTerminal(t, m, out.Jobs[i].Job.ID)
	}
	if out.Jobs[2].Job != nil || out.Jobs[2].Error == "" {
		t.Fatalf("invalid item accepted: %+v", out.Jobs[2])
	}

	// Over the cap: rejected outright.
	over := `{"jobs": [{}, {}, {}, {}, {}]}`
	resp, err = http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPAdmissionControl pins the token bucket: beyond the burst the
// submit endpoints answer 429 with a Retry-After hint, and the bucket
// refills over time.
func TestHTTPAdmissionControl(t *testing.T) {
	m := newManager(t, Config{Workers: 2, RatePerSec: 5, Burst: 2})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	okN, limited := 0, 0
	var retryAfter string
	for i := 0; i < 4; i++ {
		status, _ := postJob(t, ts, Request{Kind: KindAttack, OperandBits: 3, Secret: uint64(10 + i)})
		switch status {
		case http.StatusAccepted, http.StatusOK:
			okN++
		case http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	if okN != 2 || limited != 2 {
		t.Fatalf("admitted %d, limited %d; want 2/2", okN, limited)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind": "attack", "operand_bits": 3, "secret": 60}`))
	if err != nil {
		t.Fatal(err)
	}
	retryAfter = resp.Header.Get("Retry-After")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || retryAfter == "" {
		t.Fatalf("status %d Retry-After %q, want 429 with a hint", resp.StatusCode, retryAfter)
	}

	// The bucket refills at 5/s: shortly, a submission is admitted again.
	deadline := time.Now().Add(5 * time.Second)
	admitted := false
	for time.Now().Before(deadline) && !admitted {
		time.Sleep(250 * time.Millisecond)
		status, _ := postJob(t, ts, Request{Kind: KindAttack, OperandBits: 3, Secret: 61})
		admitted = status == http.StatusAccepted || status == http.StatusOK
	}
	if !admitted {
		t.Fatal("bucket never refilled")
	}
}

// TestQueueDepthGauge pins the atomic queue-depth accounting: after every
// submitted job has drained, the published depth is exactly zero, and cached
// submissions never move it.
func TestQueueDepthGauge(t *testing.T) {
	reg := metrics.New()
	m := newManager(t, Config{Workers: 2, MaxQueue: 32, Registry: reg})
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := m.Submit(Request{Kind: KindAttack, OperandBits: 3, Secret: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	if n := m.queueN.Load(); n != 0 {
		t.Fatalf("queue depth counter = %d after drain, want 0", n)
	}
	snap := reg.Snapshot()
	depth, _ := snap.Gauge("server_queue_depth")
	if depth != 0 {
		t.Fatalf("server_queue_depth = %v after all jobs ran, want 0", depth)
	}

	// A cached submission never touches the queue, so the gauge must not
	// move even transiently: overwrite it with a sentinel and re-submit.
	reg.Set("server_queue_depth", -1)
	if _, err := m.Submit(Request{Kind: KindAttack, OperandBits: 3, Secret: 0}); err != nil {
		t.Fatal(err)
	}
	if depth, _ := reg.Snapshot().Gauge("server_queue_depth"); depth != -1 {
		t.Fatalf("cached submission rewrote server_queue_depth to %v", depth)
	}
}
