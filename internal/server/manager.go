package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bindlock"
	"bindlock/internal/interrupt"
	"bindlock/internal/metrics"
	"bindlock/internal/parallel"
	"bindlock/internal/progress"
	"bindlock/internal/store"
)

// Submission errors, distinguished so the HTTP layer can map them onto
// status codes (400 / 429 / 503).
var (
	// ErrBadRequest wraps request validation failures.
	ErrBadRequest = errors.New("server: bad request")
	// ErrQueueFull reports a submission bouncing off the bounded queue.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining reports a submission during graceful shutdown.
	ErrDraining = errors.New("server: draining")
	// ErrUnknownJob reports an id no job was registered under.
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrRateLimited reports a submission bouncing off the admission
	// limiter; the HTTP layer maps it onto 429 with Retry-After.
	ErrRateLimited = errors.New("server: rate limited")
)

// errDrained is the cancellation cause handed to running jobs when the drain
// grace period expires.
var errDrained = errors.New("server: drained")

// Config tunes a Manager.
type Config struct {
	// Workers is the number of job slots — jobs executing concurrently
	// (default GOMAXPROCS). The slots run on the internal/parallel pool.
	Workers int
	// MaxQueue bounds the submit queue (default 64); submissions beyond it
	// fail with ErrQueueFull rather than blocking the API.
	MaxQueue int
	// JobTimeout is the per-job context deadline (0: none). A job over its
	// deadline fails with the interrupt budget error, partial results
	// attached.
	JobTimeout time.Duration
	// JobParallelism bounds the compute-stack worker count inside each job
	// (default 1, so Workers jobs use about Workers cores; results are
	// bit-identical at any setting).
	JobParallelism int
	// CheckpointDir, when set, makes attack jobs journal their oracle
	// transcript there (appended after every DIP) and resume from it when
	// an identical request is resubmitted after a drain or crash.
	CheckpointDir string
	// CheckpointKey, when non-nil, MACs every checkpoint write with this
	// node secret and requires a valid MAC at load: a tampered or foreign
	// .ckpt is rejected (resume_checkpoints_rejected_total) and the attack
	// cold-restarts deterministically. nil writes digest-only checkpoints.
	CheckpointKey []byte
	// CheckpointRetainAge bounds how long an orphaned .ckpt (a job that
	// never resumed) may linger in CheckpointDir before the sweep removes
	// it: on Start and periodically alongside record GC. 0 defaults to
	// RetainAge when that is set, else 7 days; negative disables sweeping.
	CheckpointRetainAge time.Duration
	// DesignMemo bounds the in-memory memo of prepared designs (default 32).
	DesignMemo int
	// Store is the content-addressed result cache; nil gets a memory-only
	// store.
	Store *store.Store
	// Registry is the server-owned metrics registry served at /metrics;
	// nil gets a fresh one.
	Registry *metrics.Registry
	// RetainJobs bounds the terminal job records kept for polling (default
	// 4096, negative: unbounded). Live records never count against it.
	RetainJobs int
	// RetainAge, when positive, additionally drops terminal records older
	// than it, whatever the count.
	RetainAge time.Duration
	// MaxBatch caps the job count of one POST /v1/jobs:batch request
	// (default 64).
	MaxBatch int
	// RatePerSec enables token-bucket admission control on the HTTP submit
	// endpoints at this sustained rate (0: disabled); Burst is the bucket
	// size (default ceil(RatePerSec)). Rejected submissions get 429 with
	// Retry-After.
	RatePerSec float64
	Burst      int
	// BaseContext, when non-nil, is the root of every job's context chain —
	// the seam the chaos harness uses to carry a fault-injection plan into
	// job execution (fault.NewContext), and daemons use to carry telemetry.
	BaseContext context.Context
}

// Manager runs jobs: a bounded submit queue feeding worker slots, each job
// executing under its own cancellable, deadline-bounded context with the
// server's metrics registry, its progress ring and the configured compute
// parallelism attached. Completed results are stored in the
// content-addressed cache; identical future submissions are served from it
// byte-identically.
type Manager struct {
	cfg     Config
	reg     *metrics.Registry
	store   *store.Store
	designs *store.Memo[*bindlock.Design]

	queue       chan *job
	baseCtx     context.Context
	stopWorkers context.CancelFunc
	workersDone chan struct{}
	runningN    atomic.Int64
	// queueN mirrors the submit queue's depth: incremented under m.mu on
	// enqueue, decremented at dequeue. The gauge is published from it, so
	// interleaved updates can never go backwards past a stale len() read.
	queueN  atomic.Int64
	limiter *tokenBucket
	// lastCkptSweep is the unix-nano time of the last orphan-checkpoint
	// sweep, CAS-guarded so concurrent submitters elect one sweeper.
	lastCkptSweep atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]*job // fingerprint key → queued/running primary
	draining bool
	nextID   int64
}

// New builds a manager; call Start before submitting.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.JobParallelism <= 0 {
		cfg.JobParallelism = 1
	}
	if cfg.CheckpointRetainAge == 0 {
		if cfg.RetainAge > 0 {
			cfg.CheckpointRetainAge = cfg.RetainAge
		} else {
			cfg.CheckpointRetainAge = 7 * 24 * time.Hour
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.New()
	}
	if cfg.Store == nil {
		s, err := store.Open("", 0, cfg.Registry)
		if err != nil {
			return nil, err
		}
		cfg.Store = s
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	return &Manager{
		cfg:         cfg,
		reg:         cfg.Registry,
		store:       cfg.Store,
		designs:     store.NewMemo[*bindlock.Design](cfg.DesignMemo),
		queue:       make(chan *job, cfg.MaxQueue),
		baseCtx:     ctx,
		stopWorkers: cancel,
		workersDone: make(chan struct{}),
		jobs:        map[string]*job{},
		inflight:    map[string]*job{},
		limiter:     newTokenBucket(cfg.RatePerSec, cfg.Burst),
	}, nil
}

// Registry returns the server-owned metrics registry.
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Store returns the result cache.
func (m *Manager) Store() *store.Store { return m.store }

// Start launches the worker slots on the internal/parallel pool, after
// sweeping checkpoints orphaned by jobs that never came back to resume.
func (m *Manager) Start() {
	m.sweepCheckpoints(time.Now())
	m.reg.Set("server_worker_slots", float64(m.cfg.Workers))
	go func() {
		defer close(m.workersDone)
		// One long-lived loop per slot; the pool gives us the bounded
		// fan-out and context plumbing every other subsystem uses.
		parallel.ForEach(m.baseCtx, m.cfg.Workers, m.cfg.Workers,
			func(ctx context.Context, i int) error {
				m.workerLoop(ctx)
				return nil
			})
	}()
}

func (m *Manager) workerLoop(ctx context.Context) {
	for {
		select {
		case j, ok := <-m.queue:
			if !ok {
				return
			}
			m.reg.Set("server_queue_depth", float64(m.queueN.Add(-1)))
			m.exec(ctx, j)
		case <-ctx.Done():
			return
		}
	}
}

// Submit validates, fingerprints and enqueues a job. A request whose
// fingerprint is already in the result cache completes immediately (State
// done, Cached true) with the stored bytes — by the cache's determinism
// contract, exactly what running it again would produce; a cache hit needs
// no worker, so it is served even while draining. A request whose
// fingerprint is already queued or running attaches to that execution
// (single flight): the new record carries attached_to, shares the primary's
// progress ring, and lands the primary's byte-identical result — one
// execution, one checkpoint file, however many identical submissions arrive.
func (m *Manager) Submit(req Request) (Job, error) {
	r, err := resolve(req)
	if err != nil {
		// Both wraps survive: Is(ErrBadRequest) for the status mapping, and
		// As(*BadFieldError) for the structured 400 body.
		return Job{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	m.reg.Add("server_jobs_submitted_total", 1)
	key := r.fingerprint().Key()
	now := time.Now()
	m.maybeSweepCheckpoints(now)

	// The cache lookup may touch disk or a peer, so it runs outside m.mu.
	// A same-key job finishing in between only costs one recompute — the
	// in-flight check below is what keeps concurrent executions single.
	cachedBytes, cached := m.store.Get(key)

	m.mu.Lock()
	if cached {
		j := newJob(r, key, now)
		j.state = StateDone
		j.cached = true
		j.result = cachedBytes
		j.finished = now
		m.registerLocked(j, now)
		m.mu.Unlock()
		m.reg.Add("server_jobs_cached_total", 1)
		return j.snapshot(), nil
	}
	if primary, ok := m.inflight[key]; ok {
		if j, attached := m.attachLocked(primary, r, key, now); attached {
			m.mu.Unlock()
			m.reg.Add("server_jobs_deduped_total", 1)
			return j.snapshot(), nil
		}
	}
	if m.draining {
		m.mu.Unlock()
		return Job{}, ErrDraining
	}
	// Register and snapshot before the send: once a worker holds the job
	// it may finish it, and the submitter must still answer "queued".
	j := newJob(r, key, now)
	m.inflight[key] = j
	m.registerLocked(j, now)
	snap := j.snapshot()
	select {
	case m.queue <- j:
	default:
		m.unregisterLocked(j)
		m.mu.Unlock()
		m.reg.Add("server_queue_rejected_total", 1)
		return Job{}, ErrQueueFull
	}
	depth := m.queueN.Add(1)
	m.mu.Unlock()
	m.reg.Set("server_queue_depth", float64(depth))
	return snap, nil
}

// attachLocked rides a new record on the in-flight primary; callers hold
// m.mu. It reports false when the primary went terminal in the meantime
// (a queued-job cancellation races the inflight cleanup) — the caller then
// falls through to a fresh enqueue.
func (m *Manager) attachLocked(primary *job, r *resolved, key string, now time.Time) (*job, bool) {
	primary.mu.Lock()
	if primary.state.Terminal() {
		primary.mu.Unlock()
		return nil, false
	}
	j := newJob(r, key, now)
	j.attachedTo = primary.id
	j.prog = primary.prog // one execution, one progress stream
	j.state = primary.state
	j.started = primary.started
	m.nextID++
	j.id = fmt.Sprintf("j%d", m.nextID)
	primary.attached = append(primary.attached, j)
	primary.duplicates = append(primary.duplicates, j.id)
	primary.mu.Unlock()
	// Land the record after releasing primary.mu: the retention GC takes
	// every record's lock, so it must never run under one.
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.gcLocked(now)
	return j, true
}

// registerLocked assigns the next id, lands the record, and trims terminal
// records past the retention bounds; callers hold m.mu.
func (m *Manager) registerLocked(j *job, now time.Time) {
	m.nextID++
	j.id = fmt.Sprintf("j%d", m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.gcLocked(now)
}

// unregisterLocked undoes registerLocked and the in-flight entry for a job
// the queue refused; callers hold m.mu.
func (m *Manager) unregisterLocked(j *job) {
	delete(m.inflight, j.key)
	delete(m.jobs, j.id)
	m.order = m.order[:len(m.order)-1]
	m.nextID--
	m.reg.Set("server_jobs_retained", float64(len(m.jobs)))
}

// gcLocked drops the oldest terminal records beyond the RetainJobs count
// bound and any terminal record older than RetainAge, then publishes the
// retained count. Live records (queued, running, attached-live) are never
// touched, so nothing a worker or waiter still holds can vanish mid-flight.
func (m *Manager) gcLocked(now time.Time) {
	overCount := 0
	if m.cfg.RetainJobs > 0 {
		terminal := 0
		for _, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			if j.state.Terminal() {
				terminal++
			}
			j.mu.Unlock()
		}
		overCount = terminal - m.cfg.RetainJobs
	}
	if overCount > 0 || m.cfg.RetainAge > 0 {
		kept := m.order[:0]
		dropped := 0
		for _, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			terminal := j.state.Terminal()
			finished := j.finished
			j.mu.Unlock()
			aged := m.cfg.RetainAge > 0 && terminal && now.Sub(finished) > m.cfg.RetainAge
			if terminal && (overCount > 0 || aged) {
				if overCount > 0 {
					overCount--
				}
				delete(m.jobs, id)
				dropped++
				continue
			}
			kept = append(kept, id)
		}
		m.order = kept
		if dropped > 0 {
			m.reg.Add("server_jobs_gced_total", int64(dropped))
		}
	}
	m.reg.Set("server_jobs_retained", float64(len(m.jobs)))
}

// checkpointSweepInterval throttles the submit-path checkpoint sweep; the
// sweep also runs once, synchronously, at Start.
const checkpointSweepInterval = time.Minute

// maybeSweepCheckpoints kicks an asynchronous orphan sweep at most once per
// checkpointSweepInterval; the CAS makes concurrent submitters elect one
// sweeper.
func (m *Manager) maybeSweepCheckpoints(now time.Time) {
	if m.cfg.CheckpointDir == "" || m.cfg.CheckpointRetainAge <= 0 {
		return
	}
	last := m.lastCkptSweep.Load()
	if now.UnixNano()-last < int64(checkpointSweepInterval) {
		return
	}
	if !m.lastCkptSweep.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	go m.sweepCheckpoints(now)
}

// sweepCheckpoints removes .ckpt files in CheckpointDir older than
// CheckpointRetainAge whose fingerprint key is not in flight — transcripts
// of jobs that never came back to resume. Age is judged by mtime, which
// every checkpoint write refreshes, so an attack slowly making progress is
// never swept out from under its next drain.
func (m *Manager) sweepCheckpoints(now time.Time) {
	dir := m.cfg.CheckpointDir
	if dir == "" || m.cfg.CheckpointRetainAge <= 0 {
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	m.mu.Lock()
	inflight := make(map[string]bool, len(m.inflight))
	for key := range m.inflight {
		inflight[key] = true
	}
	m.mu.Unlock()
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		if inflight[strings.TrimSuffix(name, ".ckpt")] {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil || now.Sub(info.ModTime()) <= m.cfg.CheckpointRetainAge {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	if removed > 0 {
		m.reg.Add("server_ckpt_gced_total", int64(removed))
	}
}

// Wait blocks until job id has recorded progress past since (ProgressTotal
// > since), reached a terminal state, or wait elapsed — whichever comes
// first — and returns the snapshot at that moment. since < 0 waits for a
// terminal state only. It reports false when the id is unknown (possibly
// GC'd under the retention bound).
func (m *Manager) Wait(ctx context.Context, id string, since int, wait time.Duration) (Job, bool) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		m.mu.Lock()
		j, ok := m.jobs[id]
		m.mu.Unlock()
		if !ok {
			return Job{}, false
		}
		ch := j.waitChan() // captured before the snapshot, so no lost wakeups
		snap := j.snapshot()
		if snap.State.Terminal() || (since >= 0 && snap.ProgressTotal > since) {
			return snap, true
		}
		select {
		case <-ch:
		case <-timer.C:
			return snap, true
		case <-ctx.Done():
			return snap, true
		}
	}
}

// Get returns the job record for id.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// List returns every job record in submission order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// Cancel requests cancellation of a job: a queued job is cancelled on the
// spot, a running one has its context cancelled and finishes with its
// partial results surfaced. Terminal jobs are left as they are.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	m.cancelJob(j, "cancelled by request")
	return j.snapshot(), nil
}

// cancelJob cancels one job whatever its stage; safe against the
// queued-to-running transition because both hold j.mu. Cancelling an
// attached record detaches just that record — the shared execution keeps
// running for the primary and any other duplicates. Cancelling a queued
// primary settles its attached records too.
func (m *Manager) cancelJob(j *job, reason string) {
	now := time.Now()
	j.mu.Lock()
	if j.attachedTo != "" && !j.state.Terminal() {
		j.state = StateCancelled
		j.errMsg = reason
		j.finished = now
		j.wakeLocked()
		j.mu.Unlock()
		m.reg.Add("server_jobs_cancelled_total", 1)
		return
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = reason
		j.finished = now
		j.wakeLocked()
		attached := append([]*job(nil), j.attached...)
		j.mu.Unlock()
		m.dropInflight(j)
		n := 1 + m.settleAttached(attached, StateCancelled, nil, nil, reason, now)
		m.reg.Add("server_jobs_cancelled_total", int64(n))
		return
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(context.Canceled)
		}
		return
	}
	j.mu.Unlock()
}

// dropInflight clears j's single-flight registration, so the next identical
// submission starts a fresh execution. Callers must not hold j.mu (lock
// order is m.mu before job locks).
func (m *Manager) dropInflight(j *job) {
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()
}

// settleAttached lands the primary's outcome on every record still riding
// on it, returning how many it settled. Records already terminal (detached
// by an earlier cancel) are left alone.
func (m *Manager) settleAttached(attached []*job, st State, result, partial []byte, errMsg string, now time.Time) int {
	n := 0
	for _, a := range attached {
		a.mu.Lock()
		if !a.state.Terminal() {
			a.state = st
			a.result = result
			a.partial = partial
			a.errMsg = errMsg
			a.finished = now
			a.wakeLocked()
			n++
		}
		a.mu.Unlock()
	}
	return n
}

// Stats reports the live job counts.
func (m *Manager) Stats() (queued, running, total int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running, len(m.jobs), m.draining
}

// Drain gracefully shuts the manager down: intake closes (Submit returns
// ErrDraining), queued jobs are cancelled, and running jobs are given until
// ctx expires to finish — after which they are cancelled, in-flight attacks
// having checkpointed their oracle transcript along the way so a restarted
// manager resumes them bit-identically. Drain returns once every worker slot
// has exited; it is idempotent.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	var live []*job
	for _, j := range m.jobs {
		live = append(live, j)
	}
	cancelled := 0
	if first {
		// Queued jobs are cancelled before the queue closes, so no job can
		// start once draining has begun; workers then run the queue dry
		// (skipping the cancelled records) and exit. No Submit can be
		// mid-send: sends happen under m.mu with draining false.
		for _, j := range live {
			j.mu.Lock()
			if j.state == StateQueued {
				j.state = StateCancelled
				j.errMsg = "server draining"
				j.finished = time.Now()
				j.wakeLocked()
				cancelled++
			}
			j.mu.Unlock()
		}
		// Queued single-flight primaries just went terminal; drop their
		// registrations so nothing attaches to a cancelled record.
		for key, j := range m.inflight {
			j.mu.Lock()
			if j.state.Terminal() {
				delete(m.inflight, key)
			}
			j.mu.Unlock()
		}
		close(m.queue)
	}
	m.mu.Unlock()
	if cancelled > 0 {
		m.reg.Add("server_jobs_cancelled_total", int64(cancelled))
	}

	select {
	case <-m.workersDone:
	case <-ctx.Done():
		// Grace expired: cancel what is still running and wait it out.
		for _, j := range live {
			m.cancelJob(j, "server draining")
		}
		<-m.workersDone
	}
	m.stopWorkers()
}

// exec runs one dequeued job through its kind's executor under the job
// context: cancellation cause, deadline, metrics registry, progress ring and
// compute parallelism.
func (m *Manager) exec(workerCtx context.Context, j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(workerCtx)
	now := time.Now()
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.wakeLocked()
	attached := append([]*job(nil), j.attached...)
	j.mu.Unlock()
	defer cancel(nil)

	// Records that attached while this job was queued follow it into the
	// running state; later attachments copy the state at attach time.
	for _, a := range attached {
		a.mu.Lock()
		if a.state == StateQueued {
			a.state = StateRunning
			a.started = now
			a.wakeLocked()
		}
		a.mu.Unlock()
	}

	m.reg.Set("server_jobs_running", float64(m.runningN.Add(1)))
	defer func() { m.reg.Set("server_jobs_running", float64(m.runningN.Add(-1))) }()

	runCtx := ctx
	if m.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(runCtx, m.cfg.JobTimeout)
		defer tcancel()
	}
	runCtx = metrics.NewContext(runCtx, m.reg)
	runCtx = progress.NewContext(runCtx, j.prog)
	runCtx = parallel.NewContext(runCtx, m.cfg.JobParallelism)

	stop := m.reg.Timer("server_job_seconds")
	payload, err := m.run(runCtx, j)
	stop()
	m.finish(j, payload, err)
}

// finish lands the executor's outcome in the job record, in every record
// attached to it (byte-identical result bytes), and, on success, in the
// result cache.
func (m *Manager) finish(j *job, payload any, err error) {
	var resultBytes []byte
	if err == nil {
		b, merr := json.Marshal(payload)
		if merr != nil {
			err = fmt.Errorf("server: encode result: %w", merr)
		} else {
			resultBytes = b
		}
	}
	now := time.Now()
	j.mu.Lock()
	j.finished = now
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = resultBytes
	case errors.Is(err, interrupt.ErrCancelled) || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	if err != nil && payload != nil {
		// Partial results extracted from the typed interrupt errors stay
		// visible in the job record.
		if b, merr := json.Marshal(payload); merr == nil {
			j.partial = b
		}
	}
	state := j.state
	key := j.key
	partial := j.partial
	errMsg := j.errMsg
	attached := append([]*job(nil), j.attached...)
	j.wakeLocked()
	j.mu.Unlock()

	switch state {
	case StateDone:
		m.reg.Add("server_jobs_done_total", 1)
		if perr := m.store.Put(key, resultBytes); perr != nil {
			m.reg.Add("server_store_errors_total", 1)
		}
	case StateCancelled:
		m.reg.Add("server_jobs_cancelled_total", 1)
	case StateFailed:
		m.reg.Add("server_jobs_failed_total", 1)
	}
	// Cache first, single-flight cleanup second: an identical submission
	// arriving in between sees either the live entry or the cached bytes,
	// never a gap that starts a second execution mid-checkpoint.
	m.dropInflight(j)
	m.settleAttached(attached, state, resultBytes, partial, errMsg, now)
}
