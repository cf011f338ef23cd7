// Package server implements the analysis service behind cmd/serve: an
// HTTP/JSON front end over the analysis stack (core.Analyze, eval.AnalyzeSet
// and the empirical campaigns) hardened for unattended operation.
//
// Every request runs under its own guard scope — a wall-clock deadline and a
// step budget, both clamped by server-wide maxima — so no client can pin a
// worker forever. Long-running campaigns are asynchronous: the submit
// endpoint returns a job ID immediately and clients poll /v1/jobs/{id}.
// Admission control is explicit and immediate: a full campaign queue, a
// saturated analyze concurrency limit or a draining server answers 429 with
// a Retry-After header instead of queueing unboundedly (guard.ErrOverload;
// the request was never started, so retrying is always sound).
//
// Lifecycle: Start binds the listener only after the worker pool is up;
// /readyz flips to 503 the moment Shutdown begins. Shutdown drains — stop
// admitting, let in-flight campaigns finish (or, past the drain deadline,
// cancel them; journaled campaigns keep their per-point checkpoints and a
// -resume replays byte-identically) — then closes the HTTP side. Handler
// panics are contained per request (500 with code "panic"); the process
// stays up. Error mapping and the lifecycle state machine are documented in
// DESIGN.md §12.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/fsfault"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
)

// Defaults for the zero-value Config fields.
const (
	DefaultDrainTimeout   = 10 * time.Second
	DefaultMaxTimeout     = 30 * time.Second
	DefaultAnalyzeBudget  = 5_000_000
	DefaultCampaignBudget = 500_000_000
	DefaultQueueCap       = 8
	DefaultWorkers        = 2
	DefaultJobTTL         = time.Hour
	DefaultMaxJobs        = 1024
)

// Config configures the service. The zero value of every field selects a
// sensible default; Addr ":0" binds an ephemeral port (tests).
type Config struct {
	// Addr is the listen address.
	Addr string
	// DrainTimeout bounds Shutdown: campaigns still running when it expires
	// are canceled (their journals keep the completed checkpoints), and
	// in-flight HTTP requests are cut off.
	DrainTimeout time.Duration
	// MaxTimeout caps the per-request wall-clock deadline. Requests may ask
	// for less via ?timeout=, never for more.
	MaxTimeout time.Duration
	// MaxBudget caps the per-request step budget (?budget=); 0 means the
	// per-endpoint defaults are the caps.
	MaxBudget int64
	// AnalyzeBudget is the default step budget of the synchronous analysis
	// endpoints; CampaignBudget of the asynchronous campaign jobs.
	AnalyzeBudget  int64
	CampaignBudget int64
	// QueueCap bounds the campaign queue; a submit finding it full is
	// rejected immediately with 429.
	QueueCap int
	// Workers is the campaign worker pool size.
	Workers int
	// AnalyzeConcurrency caps concurrently running synchronous analyses;
	// <= 0 selects 2×GOMAXPROCS.
	AnalyzeConcurrency int
	// JournalDir, when non-empty, lets acceptance-campaign requests name a
	// checkpoint journal (resolved inside this directory) and resume from
	// it. Empty disables journaled campaigns.
	JournalDir string
	// DataDir, when non-empty, enables the durable job store: every
	// campaign submission and state transition is recorded in a WAL-style
	// manifest under this directory (fsynced per record), acceptance jobs
	// without a client-named journal get one assigned under
	// DataDir/journals, and on startup the server re-registers finished
	// jobs and auto-resumes interrupted ones from their checkpoints. Empty
	// keeps the registry purely in-memory (pre-store behavior).
	DataDir string
	// SyncEvery is the campaign checkpoint journals' sync policy: 0 syncs
	// on close only, 1 fsyncs every record, N every Nth record. The job
	// manifest itself always fsyncs per record regardless. See
	// cli.ParseSyncPolicy for the flag syntax.
	SyncEvery int
	// JobTTL bounds how long finished jobs stay in the registry before
	// eviction (0 selects DefaultJobTTL; negative disables TTL eviction).
	// MaxJobs caps the registry size, evicting the oldest finished jobs
	// first (0 selects DefaultMaxJobs; negative disables the cap). Evicted
	// jobs answer 404 and are tombstoned in the manifest so a restart does
	// not resurrect them.
	JobTTL  time.Duration
	MaxJobs int
	// FS, when non-nil, intercepts all job-store and checkpoint-journal
	// file I/O — the disk-fault injection seam (internal/fsfault). Nil
	// selects the real filesystem.
	FS fsfault.FS
	// CacheEntries, when positive, enables the content-addressed result
	// cache (internal/memo) with that entry bound: /v1/analyze answers
	// repeated identical requests from memory, and /v1/analyzeset requests
	// with "delta": true reuse unchanged per-task terms across calls.
	// Negative selects memo.DefaultMaxEntries; zero disables caching.
	CacheEntries int
	// Registry receives the server's metrics; nil means obs.Default().
	Registry *obs.Registry
	// WrapDelay, when non-nil, wraps every delay function built for
	// /v1/analyze — the chaos-injection seam of the fault tests. It
	// receives the request's guard scope and cancel func so faults can
	// burn its budget or cancel it.
	WrapDelay func(f delay.Function, g *guard.Ctx, cancel context.CancelFunc) delay.Function
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "localhost:0"
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = DefaultMaxTimeout
	}
	if c.AnalyzeBudget <= 0 {
		c.AnalyzeBudget = DefaultAnalyzeBudget
	}
	if c.CampaignBudget <= 0 {
		c.CampaignBudget = DefaultCampaignBudget
	}
	if c.MaxBudget > 0 {
		if c.AnalyzeBudget > c.MaxBudget {
			c.AnalyzeBudget = c.MaxBudget
		}
		if c.CampaignBudget > c.MaxBudget {
			c.CampaignBudget = c.MaxBudget
		}
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.AnalyzeConcurrency <= 0 {
		c.AnalyzeConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if c.JobTTL == 0 {
		c.JobTTL = DefaultJobTTL
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	return c
}

// Server is one service instance. Create with New, run with Start, stop with
// Shutdown (drain) or Close (abort).
type Server struct {
	cfg Config
	sc  *obs.Scope

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	// ready gates /readyz and admission; draining latches once Shutdown
	// begins (state machine: starting → ready → draining → stopped).
	ready    atomic.Bool
	draining atomic.Bool

	// mu guards the job registry, the idempotency index, the durable store
	// handle and the queue's closed flag (submit must never race
	// close(queue)).
	mu      sync.Mutex
	qclosed bool
	jobs    map[string]*job
	jobSeq  int64
	// idem maps Idempotency-Key header values to job IDs so a retried
	// submission (e.g. after a crash inside the ack window) returns the
	// existing job instead of starting a duplicate campaign.
	idem map[string]string
	// store is the durable job manifest (nil without -data-dir).
	store *store

	queue      chan *job
	workers    sync.WaitGroup
	jobCtx     context.Context
	jobStop    context.CancelFunc
	analyzeSem chan struct{}

	// memo is the content-addressed result cache shared by the synchronous
	// analysis endpoints (nil unless Config.CacheEntries enables it).
	memo *memo.Cache
}

// New builds a server from cfg. Nothing runs until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		sc:         obs.NewScope(cfg.Registry),
		jobs:       map[string]*job{},
		idem:       map[string]string{},
		queue:      make(chan *job, cfg.QueueCap),
		analyzeSem: make(chan struct{}, cfg.AnalyzeConcurrency),
	}
	if cfg.CacheEntries != 0 {
		entries := cfg.CacheEntries
		if entries < 0 {
			entries = 0 // memo.DefaultMaxEntries
		}
		s.memo = core.NewResultCache(memo.Options{MaxEntries: entries, Obs: s.sc})
	}
	s.jobCtx, s.jobStop = context.WithCancel(context.Background())
	s.mux = s.routes()
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Start brings the service up in dependency order — metrics, durable job
// store (recovering persisted jobs), worker pool, then the listener, so the
// first accepted request finds everything behind it running and every
// recovered job already registered — and returns once the listener is bound.
// The server runs until Shutdown or Close.
func (s *Server) Start() error {
	obs.Enable()
	s.sc.Gauge("server.queue.capacity").Set(float64(s.cfg.QueueCap))
	s.sc.Gauge("server.workers").Set(float64(s.cfg.Workers))
	if err := s.recoverStore(); err != nil {
		return err
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.mu.Lock()
		s.qclosed = true
		s.mu.Unlock()
		s.jobStop()
		close(s.queue)
		s.workers.Wait()
		s.store.Close()
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.ready.Store(true)
	go s.http.Serve(ln)
	return nil
}

// Addr returns the bound listen address (with the real port when the config
// asked for :0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the service: /readyz flips to 503 and every admission path
// answers 429 immediately; queued and running campaigns get until the drain
// deadline to finish, then are canceled (journaled campaigns keep their
// checkpoints — the cancel travels through the guard scope, between points);
// finally the HTTP side shuts down gracefully within the same deadline. A
// drain that had to cancel campaigns is still a clean exit (nil): the work
// is checkpointed, not lost.
func (s *Server) Shutdown() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ready.Store(false)
	deadline := time.Now().Add(s.cfg.DrainTimeout)

	s.mu.Lock()
	s.qclosed = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		// Hard deadline: abort in-flight campaigns through their guard
		// scopes and wait for the workers to observe it.
		s.jobStop()
		<-done
	}

	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			s.store.Close()
			return err
		}
	}
	s.jobStop()
	// The workers are done, so every terminal transition has been recorded;
	// close the manifest cleanly (it was fsynced per record all along —
	// this only releases the descriptor).
	return s.store.Close()
}

// Close aborts the service without draining: campaigns are canceled and the
// listener closed. Shutdown is the graceful path; Close is for tests and
// fatal teardown.
func (s *Server) Close() error {
	s.ready.Store(false)
	if s.draining.CompareAndSwap(false, true) {
		s.mu.Lock()
		s.qclosed = true
		close(s.queue)
		s.mu.Unlock()
	}
	s.jobStop()
	err := s.http.Close()
	s.workers.Wait()
	s.store.Close()
	return err
}

// submit runs admission control for a campaign job: a draining server or a
// full queue refuses immediately with guard.ErrOverload (HTTP 429 +
// Retry-After) — the job is never started, so the client can simply retry.
//
// Admission order matters for durability: the queue-full check runs BEFORE
// the manifest append so a rejected submission never pollutes the store, and
// the manifest append runs BEFORE the enqueue so an acked job is on disk
// first (durable-then-queue — a crash right after the append is recovered as
// an interrupted job). The send after a successful length check cannot
// block: every sender holds mu and the workers only drain.
//
// On success the job has its ID and is queued — or, when an Idempotency-Key
// matched a previous submission with the same fingerprint, j.existing points
// at that job and nothing new was started.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.qclosed || s.draining.Load() {
		s.sc.Counter("server.shed").Inc()
		return guard.Overloadf("server: draining, not admitting campaigns")
	}
	if j.idemKey != "" {
		if id, ok := s.idem[j.idemKey]; ok {
			prev, ok := s.jobs[id]
			if ok && j.fingerprint != "" && prev.fingerprint != j.fingerprint {
				return guard.Invalidf("server: Idempotency-Key already used by job %s with different parameters", id)
			}
			if ok {
				s.sc.Counter("server.jobs.deduplicated").Inc()
				j.existing = prev
				return nil
			}
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.sc.Counter("server.rejected").Inc()
		return guard.Overloadf("server: campaign queue full (%d queued)", s.cfg.QueueCap)
	}
	s.evictLocked(time.Now())
	s.jobSeq++
	j.id = fmt.Sprintf("job-%06d", s.jobSeq)
	j.done = make(chan struct{})
	j.state = jobQueued
	if s.store != nil && j.journalPath == "" && j.kind == "acceptance" {
		// Auto-assign a checkpoint journal under the data dir so every
		// durable acceptance job can resume after a crash even when the
		// client named none.
		j.journalPath = s.store.journalPath(j.id)
	}
	if s.store != nil {
		if err := s.store.record(j.rec()); err != nil {
			s.sc.Counter("server.store.errors").Inc()
			return err
		}
	}
	s.queue <- j
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.idem[j.idemKey] = j.id
	}
	s.sc.Counter("server.admitted").Inc()
	s.sc.Gauge("server.queue.depth").Add(1)
	return nil
}

// evictLocked trims the job registry under mu: finished jobs older than
// JobTTL go first, then — if the registry is still at MaxJobs — the oldest
// finished jobs until it is below the cap. Running and queued jobs are never
// evicted. Each eviction tombstones the manifest so a restart does not
// resurrect the job.
func (s *Server) evictLocked(now time.Time) {
	if s.cfg.JobTTL < 0 && s.cfg.MaxJobs < 0 {
		return
	}
	type cand struct {
		j   *job
		fin time.Time
	}
	var finished []cand
	for _, j := range s.jobs {
		if done, fin := j.terminal(); done {
			finished = append(finished, cand{j, fin})
		}
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].fin.Before(finished[k].fin) })
	evict := func(c cand) {
		delete(s.jobs, c.j.id)
		if c.j.idemKey != "" && s.idem[c.j.idemKey] == c.j.id {
			delete(s.idem, c.j.idemKey)
		}
		s.sc.Counter("server.jobs.evicted").Inc()
		if s.store != nil {
			if err := s.store.record(jobRecord{
				ID: c.j.id, Kind: c.j.kind, State: jobEvicted, Fingerprint: c.j.fingerprint,
			}); err != nil {
				s.sc.Counter("server.store.errors").Inc()
			}
		}
	}
	i := 0
	if s.cfg.JobTTL > 0 {
		for ; i < len(finished) && now.Sub(finished[i].fin) > s.cfg.JobTTL; i++ {
			evict(finished[i])
		}
	}
	if s.cfg.MaxJobs > 0 {
		// +1: make room for the job being admitted.
		for ; i < len(finished) && len(s.jobs)+1 > s.cfg.MaxJobs; i++ {
			evict(finished[i])
		}
	}
}

// jobByID looks a job up in the registry.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker is one campaign worker: it drains the queue until the queue closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.sc.Gauge("server.queue.depth").Add(-1)
		s.runJob(j)
	}
}

// runJob executes one campaign under its own guard scope (derived from the
// server's job context so a forced stop cancels it), with panic isolation
// via guard.Run and, for journaled acceptance campaigns, the checkpoint
// journal opened for the duration of the run. guard.Run covers only this
// goroutine; the campaign's shards run on eval's worker pool, which
// recovers each shard's panic into the same guard.ErrPanic error, so a
// panicking trial fails the job (counted by server.panics_recovered) at
// every worker count instead of crashing the process. With a durable store
// the running and terminal transitions are appended to the manifest; a
// persist failure is counted (server.store.errors), never silent, and does
// not take the in-memory job down with it.
func (s *Server) runJob(j *job) {
	running := s.sc.Gauge("server.jobs.running")
	running.Add(1)
	defer running.Add(-1)
	j.setState(jobRunning)
	s.persist(j)

	ctx, cancel := context.WithCancel(s.jobCtx)
	defer cancel()
	g := guard.New(ctx).WithTimeout(j.timeout).WithBudget(j.budget).WithObs(s.sc)

	camp := j.camp
	var jr *journal.Journal
	if j.journalPath != "" {
		var err error
		var resume map[string]json.RawMessage
		jr, resume, err = openJobJournal(j.journalPath, j.resume,
			journal.Options{SyncEvery: s.cfg.SyncEvery, FS: s.cfg.FS})
		if err != nil {
			j.finish(nil, err)
			s.persist(j)
			return
		}
		if ap, ok := camp.(eval.AcceptanceParams); ok {
			ap.Journal = jr
			ap.Resume = resume
			camp = ap
		}
		g.WithCheckpoint(func(int64) { jr.Sync() })
	}

	res, err := guard.Run(g, "job "+j.id, func() (any, error) { return camp.Run(g) })
	if jr != nil {
		if cerr := jr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if errors.Is(err, guard.ErrPanic) {
		s.sc.Counter("server.panics_recovered").Inc()
	}
	j.finish(sanitizeResult(res), err)
	s.persist(j)
}

// persist appends the job's current state to the manifest (no-op without a
// store). Failures increment server.store.errors; the in-memory job stays
// authoritative for this process's lifetime.
func (s *Server) persist(j *job) {
	if s.store == nil {
		return
	}
	if err := s.store.record(j.rec()); err != nil {
		s.sc.Counter("server.store.errors").Inc()
	}
}
