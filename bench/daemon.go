package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
	"bindlock/internal/server"
	"bindlock/internal/store"
)

// The daemon-mix traffic. Phase 1 is an open loop of Poisson arrivals over
// daemonSpan of the run's seconds: half of them repeats of warm-pool
// requests (cache hits), a quarter cold design jobs and a quarter cold
// width-4 SFLL attacks. Phase 2 cancels and resumes long attacks, one at a
// time.
//
// The rate keeps the two worker slots about a quarter busy. At 20/s (about
// half busy) the median cold-attack latency moved between 154 and 392 ms
// across seeds, because it was mostly time spent queued behind whichever
// long attacks the seed happened to bunch together.
const (
	daemonRate      = 10.0 // phase-1 arrivals per second
	daemonSpan      = 0.5  // share of the run's seconds phase 1 lasts
	warmPoolSize    = 32
	resumeDIPEvents = 32 // DIP progress events seen before the cancel
	senders         = 2  // goroutines issuing requests, one HTTP connection each
)

// resumeSecrets are the phase-2 attack secrets, one scenario each. They are
// odd, so never a cold secret, and each needs about 200 DIPs
// (196–216 at the time of writing), so the cancel after 32 DIPs always
// lands mid-attack and every resume has similar work left.
var resumeSecrets = []uint64{5, 15, 35, 37, 47, 65, 69, 79, 91, 143, 155, 185, 213, 237, 255}

// coldSecrets are the width-4 secrets the cold attacks draw on: the even
// ones whose attack needs 80–180 DIPs (20–110 ms from the CLI at the time of
// writing). The set is fixed, not drawn from the seed, because an attack's
// time varies 500-fold over all 256 secrets: a seeded draw of a few dozen
// would move the latency percentiles by about 15% between seeds. Leaving
// out the few very long attacks also keeps two of them from meeting in the
// worker slots by chance, which made the median depend on the seeded order.
var coldSecrets = []uint64{6, 10, 12, 16, 20, 30, 34, 36, 38, 40, 52, 58, 62, 66, 74, 76, 80,
	82, 90, 92, 106, 112, 120, 124, 128, 138, 150, 152, 154, 156, 160, 162, 170, 172, 174,
	190, 194, 200, 202, 204, 206, 210, 216, 218, 220, 236, 238, 240, 244, 254}

// coldAttackSecrets returns n of coldSecrets, evenly spaced.
func coldAttackSecrets(n int) []uint64 {
	s := make([]uint64, n)
	for k := range s {
		s[k] = coldSecrets[k*len(coldSecrets)/n]
	}
	return s
}

var designKinds = []string{server.KindPrepare, server.KindBind, server.KindLock, server.KindCodesign}

// daemon is an in-process bindlockd: the manager bindlockd -cache-dir builds
// (disk tier plus checkpoint directory, unsealed, one worker slot per CPU,
// job parallelism 1) served by httptest on loopback.
type daemon struct {
	dir    string
	mgr    *server.Manager
	srv    *httptest.Server
	client *http.Client
	warm   []warmJob
}

// warmJob is a warm-pool request and the result bytes its cold run returned.
type warmJob struct {
	req    server.Request
	result []byte
}

// startDaemon starts a daemon in a fresh directory under .bench_build and
// completes its warm pool.
func startDaemon(ctx context.Context, r *run, rng *rand.Rand, tr *tracer, parent int) (*daemon, error) {
	d := &daemon{}
	err := tr.timed(parent, "server.start", "", func() error {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_build", "daemon-")
		if err != nil {
			return err
		}
		d.dir = dir
		reg := metrics.New()
		st, err := store.OpenWith(store.Options{Dir: dir, MaxBytes: 256 << 20}, reg)
		if err != nil {
			return err
		}
		ckpt := filepath.Join(dir, "checkpoints")
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return err
		}
		d.mgr, err = server.New(server.Config{
			Workers: runtime.NumCPU(), JobParallelism: 1,
			CheckpointDir: ckpt, Store: st, Registry: reg,
		})
		if err != nil {
			return err
		}
		d.mgr.Start()
		d.srv = httptest.NewServer(d.mgr.Handler())
		d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}
		return nil
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	err = tr.timed(parent, "server.warm_pool", "", func() error { return d.warmUp(ctx, r, rng) })
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// warmUp submits the warm pool — design jobs and width-3 attacks, cheap
// enough to keep set-up short — and waits for every result.
func (d *daemon) warmUp(ctx context.Context, r *run, rng *rand.Rand) error {
	kernels := kernelNames()
	secrets := rng.Perm(64)
	var reqs []server.Request
	for i := range warmPoolSize {
		if i%2 == 0 {
			reqs = append(reqs, server.Request{Kind: designKinds[i/2%4],
				Bench: kernels[rng.Intn(len(kernels))], Seed: freshSeed(rng)})
		} else {
			reqs = append(reqs, server.Request{Kind: server.KindAttack, OperandBits: 3, Secret: uint64(secrets[i/2])})
		}
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		j, _, err := d.submit(req)
		if err != nil {
			return err
		}
		ids[i] = j.ID
	}
	for i, id := range ids {
		j, err := d.waitTerminal(id)
		if err != nil {
			return err
		}
		if j.State != server.StateDone {
			return fmt.Errorf("warm-pool job %s ended %s: %s", id, j.State, j.Error)
		}
		if reqs[i].Kind == server.KindAttack {
			r.check(verifyAttackResult(ctx, reqs[i], j.Result) == nil, "warm-pool attack %s: key fails VerifyKey", id)
		}
		d.warm = append(d.warm, warmJob{req: reqs[i], result: j.Result})
	}
	return nil
}

func (d *daemon) stop() {
	if d.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.mgr.Drain(ctx)
		cancel()
	}
	if d.srv != nil {
		d.client.CloseIdleConnections()
		d.srv.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// freshSeed draws a workload seed no other request of the run uses (with
// overwhelming probability), so the job's fingerprint is new: a cache miss.
func freshSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<40) + 1 }

// submit posts one job and returns the record with the HTTP status.
func (d *daemon) submit(req server.Request) (server.Job, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Job{}, 0, err
	}
	return d.do(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
}

// poll long-polls a job until it is terminal or has more than since
// progress events.
func (d *daemon) poll(id string, since int) (server.Job, error) {
	j, _, err := d.do(http.MethodGet, fmt.Sprintf("/v1/jobs/%s?wait=30s&since=%d", id, since), nil)
	return j, err
}

func (d *daemon) waitTerminal(id string) (server.Job, error) {
	for {
		j, _, err := d.do(http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil)
		if err != nil || j.State.Terminal() {
			return j, err
		}
	}
}

func (d *daemon) do(method, path string, body io.Reader) (server.Job, int, error) {
	req, err := http.NewRequest(method, d.srv.URL+path, body)
	if err != nil {
		return server.Job{}, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return server.Job{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Job{}, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return server.Job{}, resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var j server.Job
	return j, resp.StatusCode, json.Unmarshal(data, &j)
}

// counters reads the server's counters from GET /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "bindlock_"), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// verifyAttackResult checks a served attack result's key against a lock the
// benchmark rebuilds from the request.
func verifyAttackResult(ctx context.Context, req server.Request, payload []byte) error {
	var res server.AttackResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return err
	}
	base, err := netlist.NewAdder(req.OperandBits)
	if err != nil {
		return err
	}
	locked, correct, err := netlist.LockSFLLHD0(base, []uint64{req.Secret})
	if err != nil {
		return err
	}
	key := make([]bool, len(res.Key))
	for i, c := range res.Key {
		key[i] = c == '1'
	}
	return satattack.VerifyKey(ctx, locked, key, satattack.OracleFromCircuit(locked, correct))
}

// arrival is one phase-1 request: when it is due and what it asks for.
type arrival struct {
	due   time.Duration // from the phase start
	class string        // "cached", "design" or "attack"
	req   server.Request
	warm  int // warm-pool index of a cached repeat

	sent, answered time.Time // filled by the sender
	job            server.Job
	err            error
}

// schedule draws n phase-1 arrivals over span: a seeded shuffle of the
// class mix at times drawn uniformly from the span and sorted — a Poisson
// process conditioned on its count, so every seed offers the same load for
// the same time.
func (d *daemon) schedule(rng *rand.Rand, n int, span time.Duration) []*arrival {
	classes := make([]string, n)
	for i := range classes {
		switch {
		case i < n/2:
			classes[i] = "cached"
		case i < 3*n/4:
			classes[i] = "design"
		default:
			classes[i] = "attack"
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	secrets := coldAttackSecrets(n - 3*n/4)
	rng.Shuffle(len(secrets), func(i, j int) { secrets[i], secrets[j] = secrets[j], secrets[i] })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(span))
	}
	slices.Sort(due)
	kernels := kernelNames()
	var out []*arrival
	for i, c := range classes {
		a := &arrival{due: due[i], class: c}
		switch c {
		case "cached":
			a.warm = rng.Intn(len(d.warm))
			a.req = d.warm[a.warm].req
		case "design":
			a.req = server.Request{Kind: designKinds[rng.Intn(len(designKinds))],
				Bench: kernels[rng.Intn(len(kernels))], Seed: freshSeed(rng)}
		case "attack":
			a.req = server.Request{Kind: server.KindAttack, OperandBits: 4, Secret: secrets[0]}
			secrets = secrets[1:]
		}
		out = append(out, a)
	}
	return out
}

// openLoop sends every arrival at its due time from `senders` goroutines,
// whatever the server's backlog, and returns when all have been sent.
func (d *daemon) openLoop(start time.Time, arrivals []*arrival) {
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(arrivals); i += senders {
				a := arrivals[i]
				time.Sleep(time.Until(start.Add(a.due)))
				a.sent = time.Now()
				a.job, _, a.err = d.submit(a.req)
				a.answered = time.Now()
			}
		}()
	}
	wg.Wait()
}

func runDaemon(ctx context.Context, r *run) error {
	// The worker slots keep one CPU each busy. The load generator stands in
	// for clients in other processes, so it gets one more P: otherwise a
	// due request waits for Go's 10 ms preemption tick behind the slots.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	// Each set-up draws the same warm pool, and the traffic has its own
	// stream, so the inputs do not depend on how many set-ups ran.
	d, _, err := setUp(r, func(tr *tracer, parent int) (*daemon, error) {
		return startDaemon(ctx, r, rand.New(rand.NewSource(r.cfg.seed)), tr, parent)
	}, (*daemon).stop)
	if err != nil {
		return err
	}
	defer d.stop()

	span, resumes := daemonSpan*r.cfg.seconds, len(resumeSecrets)
	if r.cfg.short {
		span, resumes = 2, 2
	}
	n := int(daemonRate*span) / 4 * 4
	rng := rand.New(rand.NewSource(r.cfg.seed + 1))
	arrivals := d.schedule(rng, n, time.Duration(span*float64(time.Second)))
	before, err := d.counters()
	if err != nil {
		return err
	}
	stopRSS := sampleRSS()
	start := time.Now()
	d.openLoop(start, arrivals)

	var cachedMS, designMS, attackMS, submitMS, lateMS, queueMS, svcAttack, svcDesign []float64
	busy := 0.0
	end := start
	for _, a := range arrivals {
		if a.err != nil {
			r.fail("%s request: %v", a.class, a.err)
			continue
		}
		lateMS = append(lateMS, ms(a.sent.Sub(start.Add(a.due))))
		submitMS = append(submitMS, ms(a.answered.Sub(a.sent)))
		j := a.job
		if !j.State.Terminal() {
			if j, err = d.waitTerminal(j.ID); err != nil {
				r.fail("%s job %s: %v", a.class, a.job.ID, err)
				continue
			}
		}
		due := start.Add(a.due)
		finished := a.answered
		if j.Finished != nil && !j.Cached {
			finished = *j.Finished
		}
		if finished.After(end) {
			end = finished
		}
		r.check(j.State == server.StateDone, "%s job %s ended %s: %s", a.class, j.ID, j.State, j.Error)
		if j.State != server.StateDone {
			continue
		}
		if a.class == "cached" {
			r.check(j.Cached && bytes.Equal(j.Result, d.warm[a.warm].result),
				"repeat job %s: cached=%v, result identical to its cold run=%v", j.ID, j.Cached, bytes.Equal(j.Result, d.warm[a.warm].result))
			cachedMS = append(cachedMS, ms(finished.Sub(due)))
			continue
		}
		r.check(!j.Cached, "%s job %s was served from the cache", a.class, j.ID)
		if j.Started != nil {
			svc := j.Finished.Sub(*j.Started)
			busy += svc.Seconds()
			queueMS = append(queueMS, ms(j.Started.Sub(j.Created)))
			if a.class == "attack" {
				svcAttack = append(svcAttack, ms(svc))
			} else {
				svcDesign = append(svcDesign, ms(svc))
			}
		}
		if a.class == "attack" {
			r.check(verifyAttackResult(ctx, a.req, j.Result) == nil, "attack job %s: key fails VerifyKey", j.ID)
			attackMS = append(attackMS, ms(finished.Sub(due)))
		} else {
			designMS = append(designMS, ms(finished.Sub(due)))
		}
	}
	phase1 := end.Sub(start).Seconds()
	after, err := d.counters()
	if err != nil {
		return err
	}

	phase2 := time.Now()
	var resumedMS []float64
	for _, k := range rng.Perm(len(resumeSecrets))[:resumes] {
		lat, err := d.resumeScenario(ctx, r, server.Request{Kind: server.KindAttack, OperandBits: 4, Secret: resumeSecrets[k]})
		if err != nil {
			r.fail("resume of secret %d: %v", resumeSecrets[k], err)
			continue
		}
		resumedMS = append(resumedMS, lat)
	}
	wall := phase1 + time.Since(phase2).Seconds()
	r.peaks = append(r.peaks, stopRSS())

	if late := percentile(lateMS, 99); late > 5 {
		fmt.Fprintf(os.Stderr, "bench: daemon-mix: load generator ran late (p99 %.1f ms > 5 ms); latencies are still timed from the due time\n", late)
	}
	if !r.cfg.trace {
		r.set("wall_s", wall, 1)
		r.set("p50_ms", median(attackMS), len(attackMS))
		return nil
	}
	r.set("daemon.cold_attack_ms_p90", percentile(attackMS, 90), len(attackMS))
	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("daemon.cached_ms_p50", median(cachedMS), len(cachedMS))
	r.set("daemon.cached_ms_p95", percentile(cachedMS, 95), len(cachedMS))
	r.set("daemon.cold_design_ms_p50", median(designMS), len(designMS))
	r.set("daemon.cold_design_ms_p90", percentile(designMS, 90), len(designMS))
	r.set("daemon.resumed_ms_p50", median(resumedMS), len(resumedMS))
	r.set("server.submit_ms_p50", median(submitMS), len(submitMS))
	r.set("server.queue_ms_p90", percentile(queueMS, 90), len(queueMS))
	r.set("server.service_attack_ms_p50", median(svcAttack), len(svcAttack))
	r.set("server.service_design_ms_p50", median(svcDesign), len(svcDesign))
	r.set("server.busy_fraction", ratio(busy, float64(runtime.NumCPU())*phase1), len(queueMS))
	r.set("store.hit_ratio", ratio(delta("store_hit_total"), delta("store_hit_total")+delta("store_miss_total")), len(arrivals))
	r.set("server.design_memo_hit_ratio", ratio(delta("server_design_memo_hit_total"),
		delta("server_design_memo_hit_total")+delta("server_design_memo_miss_total")), len(designMS))
	r.set("satattack.ckpt_writes_per_attack", ratio(delta("resume_checkpoints_written_total"), float64(len(svcAttack))), len(svcAttack))
	r.set("loadgen.late_ms_p99", percentile(lateMS, 99), len(lateMS))
	r.set("loadgen.completed_per_s", ratio(float64(len(cachedMS)+len(designMS)+len(attackMS)), phase1), len(arrivals))
	return nil
}

// resumeScenario submits a long attack, cancels it after resumeDIPEvents DIP
// progress events, resubmits the identical request and times the resumed
// job from the resubmission to its result.
func (d *daemon) resumeScenario(ctx context.Context, r *run, req server.Request) (float64, error) {
	j, _, err := d.submit(req)
	if err != nil {
		return 0, err
	}
	for j.ProgressTotal <= resumeDIPEvents { // one start event, then one per DIP
		if j, err = d.poll(j.ID, j.ProgressTotal); err != nil {
			return 0, err
		}
		if j.State.Terminal() {
			return 0, fmt.Errorf("job %s ended %s before %d DIPs", j.ID, j.State, resumeDIPEvents)
		}
	}
	if _, _, err := d.do(http.MethodDelete, "/v1/jobs/"+j.ID, nil); err != nil {
		return 0, err
	}
	if j, err = d.waitTerminal(j.ID); err != nil {
		return 0, err
	}
	r.check(j.State == server.StateCancelled && j.Checkpoint != "",
		"cancelled job %s: state %s, checkpoint %q", j.ID, j.State, j.Checkpoint)
	start := time.Now()
	j, _, err = d.submit(req)
	if err != nil {
		return 0, err
	}
	if j, err = d.waitTerminal(j.ID); err != nil {
		return 0, err
	}
	r.check(j.State == server.StateDone && j.Resumed, "resubmitted job %s: state %s, resumed %v", j.ID, j.State, j.Resumed)
	if j.State != server.StateDone || j.Finished == nil {
		return 0, fmt.Errorf("resubmitted job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	r.check(verifyAttackResult(ctx, req, j.Result) == nil, "resumed job %s: key fails VerifyKey", j.ID)
	return ms(j.Finished.Sub(start)), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
