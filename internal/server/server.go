// Package server is the rskipd service daemon: the RSkip pipeline —
// compile, protect, execute, inject — exposed as a long-running HTTP
// JSON service, the way the paper frames RSkip as a compilation
// service that "accepts unprotected source code" and returns a
// protected, profiled binary. One process serves many clients from a
// single warm build cache (identical submissions compile once, via
// the core cache's singleflight) and a bounded campaign worker pool
// with queue-depth backpressure.
//
// Endpoints:
//
//	POST   /v1/compile              MiniC → per-scheme .rir + static stats
//	POST   /v1/run                  execute a kernel under a scheme (wall-clock bounded)
//	POST   /v1/campaigns            submit an async fault-injection job (202)
//	GET    /v1/campaigns            list jobs
//	GET    /v1/campaigns/{id}       job status / terminal result
//	GET    /v1/campaigns/{id}/stream  JSONL progress (application/x-ndjson)
//	DELETE /v1/campaigns/{id}       cancel (partial results retained)
//	GET    /healthz                 liveness + queue depths
//	GET    /metrics                 the obs metrics registry as JSON
//	GET    /debug/pprof/...         standard pprof handlers
//
// Production plumbing: request bodies are size-limited, synchronous
// endpoints carry per-request timeouts and concurrency limits (429
// when saturated), the campaign queue is bounded (429 when full), and
// Drain stops the world gracefully — in-flight campaigns checkpoint
// to disk and a new daemon on the same checkpoint dir resumes them to
// bit-identical results.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/obs"
	"rskip/internal/result"
)

// Config parameterizes a daemon instance.
type Config struct {
	// Workers is the campaign worker pool size (default 2).
	Workers int
	// QueueDepth bounds pending campaign jobs; submissions beyond it
	// get 429 (default 16).
	QueueDepth int
	// SyncLimit bounds concurrent synchronous compile/run requests;
	// excess requests get 429 (default 2×Workers).
	SyncLimit int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CompileTimeout bounds one /v1/compile build (default 30s).
	CompileTimeout time.Duration
	// DefaultRunTimeout applies to /v1/run requests that set no
	// timeout_ms (default 30s).
	DefaultRunTimeout time.Duration
	// MaxRunTimeout caps the timeout_ms a /v1/run request may ask for
	// (default 2m). Campaign runs have no wall-clock deadline: the
	// instruction budget bounds them.
	MaxRunTimeout time.Duration
	// CheckpointDir persists job specs, campaign checkpoints and
	// terminal results, making jobs resumable across restarts. Empty
	// disables persistence (jobs die with the process).
	CheckpointDir string
	// ResultCacheDir backs incremental campaigns with a content-
	// addressed per-region result cache. Empty rejects incremental
	// submissions (code incremental_unavailable).
	ResultCacheDir string
	// LeaseTTL is how long a distributed campaign's shard lease lives
	// without a heartbeat before the shard is reassigned to another
	// worker (default 10s).
	LeaseTTL time.Duration
	// Obs is the daemon's telemetry handle. Nil gets a metrics-only
	// registry: a Tracer retains every span for tree rendering, which
	// a long-running daemon must opt into deliberately.
	Obs *obs.Obs
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SyncLimit <= 0 {
		c.SyncLimit = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.CompileTimeout <= 0 {
		c.CompileTimeout = 30 * time.Second
	}
	if c.DefaultRunTimeout <= 0 {
		c.DefaultRunTimeout = 30 * time.Second
	}
	if c.MaxRunTimeout <= 0 {
		c.MaxRunTimeout = 2 * time.Minute
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Obs == nil {
		c.Obs = &obs.Obs{Metrics: obs.NewMetrics()}
	}
}

// serverMetrics are the server_* instruments, resolved once.
type serverMetrics struct {
	requests        *obs.Counter
	rejected        *obs.Counter
	errors5xx       *obs.Counter
	errors4xx       *obs.Counter
	inflight        *obs.Gauge
	reqSeconds      *obs.Histogram
	jobsSubmitted   *obs.Counter
	jobsStarted     *obs.Counter
	jobsDone        *obs.Counter
	jobsFailed      *obs.Counter
	jobsCancelled   *obs.Counter
	jobsInterrupted *obs.Counter
	jobsResumed     *obs.Counter
	orphansSwept    *obs.Counter
}

func newServerMetrics(m *obs.Metrics) serverMetrics {
	return serverMetrics{
		requests:        m.Counter("server_requests_total", "HTTP requests received"),
		rejected:        m.Counter("server_rejected_total", "requests rejected with 429 (queue full or sync limit)"),
		errors5xx:       m.Counter("server_errors_5xx_total", "responses with a 5xx status"),
		errors4xx:       m.Counter("server_errors_4xx_total", "responses with a 4xx status"),
		inflight:        m.Gauge("server_inflight_requests", "requests currently being served"),
		reqSeconds:      m.Histogram("server_request_seconds", "request wall time", obs.ExpBuckets(0.001, 4, 8)),
		jobsSubmitted:   m.Counter("server_campaign_jobs_submitted_total", "campaign jobs accepted"),
		jobsStarted:     m.Counter("server_campaign_jobs_started_total", "campaign jobs started on a worker"),
		jobsDone:        m.Counter("server_campaign_jobs_done_total", "campaign jobs completed"),
		jobsFailed:      m.Counter("server_campaign_jobs_failed_total", "campaign jobs failed"),
		jobsCancelled:   m.Counter("server_campaign_jobs_cancelled_total", "campaign jobs cancelled by clients"),
		jobsInterrupted: m.Counter("server_campaign_jobs_interrupted_total", "campaign jobs interrupted by drain (resumable)"),
		jobsResumed:     m.Counter("server_campaign_jobs_resumed_total", "campaign jobs re-enqueued from a previous daemon's checkpoints"),
		orphansSwept:    m.Counter("server_orphan_files_swept_total", "dead checkpoint-dir files removed at startup"),
	}
}

// Server is one rskipd instance. Create with New, mount Handler on an
// http.Server, stop with Drain.
type Server struct {
	cfg         Config
	obs         *obs.Obs
	met         serverMetrics
	mux         *http.ServeMux
	store       *jobStore
	resultCache *result.Cache
	fabric      *fabricHub
	fmet        fabricMetrics

	queue   chan *job
	syncSem chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   chan struct{}
	drainOnce  sync.Once
	workerWG   sync.WaitGroup
	inflightN  atomic.Int64
	started    time.Time

	// progressGate, when set, runs after each progress snapshot a job
	// publishes, under the job's context: tests hold a campaign at a
	// shard boundary with it.
	progressGate func(ctx context.Context, pr fault.Progress)
}

// New builds a Server: it creates the checkpoint dir, re-enqueues any
// unfinished jobs a previous daemon left there, and starts the worker
// pool.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		met:      newServerMetrics(cfg.Obs.M()),
		fmet:     newFabricMetrics(cfg.Obs.M()),
		store:    newJobStore(cfg.CheckpointDir),
		fabric:   newFabricHub(),
		syncSem:  make(chan struct{}, cfg.SyncLimit),
		draining: make(chan struct{}),
		started:  time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.ResultCacheDir != "" {
		cache, err := result.Open(cfg.ResultCacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: result cache dir: %w", err)
		}
		s.resultCache = cache
	}

	if swept, err := s.store.sweepOrphans(); err != nil {
		return nil, fmt.Errorf("server: sweeping orphaned files: %w", err)
	} else if swept > 0 {
		s.met.orphansSwept.Add(uint64(swept))
		fmt.Fprintf(os.Stderr, "server: swept %d orphaned checkpoint-dir file(s)\n", swept)
	}
	resumable, err := s.store.loadPersisted()
	if err != nil {
		return nil, fmt.Errorf("server: loading persisted jobs: %w", err)
	}
	// The queue must hold every resumed job plus the configured depth,
	// so resumption never blocks construction.
	s.queue = make(chan *job, cfg.QueueDepth+len(resumable))
	for _, j := range resumable {
		s.queue <- j
		s.met.jobsResumed.Inc()
	}

	for w := 0; w < cfg.Workers; w++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for {
				select {
				case <-s.draining:
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}

	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain stops the daemon gracefully: new submissions are refused,
// workers stop picking up queued jobs, and running campaigns are
// interrupted — their latest shard checkpoint is already durable, so
// a new daemon on the same checkpoint dir resumes them. Drain returns
// once the workers have exited or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.baseCancel()
	})
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("POST /v1/compile", "compile", s.handleCompile)
	s.handle("POST /v1/run", "run", s.handleRun)
	s.handle("POST /v1/campaigns", "campaign_submit", s.handleCampaignSubmit)
	s.handle("GET /v1/campaigns", "campaign_list", s.handleCampaignList)
	s.handle("GET /v1/campaigns/{id}", "campaign_status", s.handleCampaignStatus)
	s.handle("GET /v1/campaigns/{id}/stream", "campaign_stream", s.handleCampaignStream)
	s.handle("DELETE /v1/campaigns/{id}", "campaign_cancel", s.handleCampaignCancel)
	s.handle("POST /v1/fabric/lease", "fabric_lease", s.handleFabricLease)
	s.handle("POST /v1/fabric/heartbeat", "fabric_heartbeat", s.handleFabricHeartbeat)
	s.handle("POST /v1/fabric/complete", "fabric_complete", s.handleFabricComplete)
	obs.RegisterPprof(s.mux)
}

// handle mounts a handler wrapped with the per-request plumbing every
// endpoint shares: a span named after the route, request counters and
// wall-time histogram, an inflight gauge, and the body size limit.
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	reqs := s.obs.M().Counter("server_requests_"+name+"_total", "requests to "+name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.requests.Inc()
		reqs.Inc()
		s.met.inflight.Set(float64(s.inflightN.Add(1)))
		defer func() {
			s.met.inflight.Set(float64(s.inflightN.Add(-1)))
			s.met.reqSeconds.Observe(time.Since(start).Seconds())
		}()

		ctx := obs.Into(r.Context(), s.obs)
		ctx, sp := obs.Start(ctx, "server/"+name)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		defer sp.End()

		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		sp.SetAttr("status", sw.status())
		switch {
		case sw.status() == http.StatusTooManyRequests:
			s.met.rejected.Inc()
			s.met.errors4xx.Inc()
		case sw.status() >= 500:
			s.met.errors5xx.Inc()
		case sw.status() >= 400:
			s.met.errors4xx.Inc()
		}
	})
}

// statusWriter records the response status for metrics and spans.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming endpoints work
// through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// decodeJSON parses a request body, translating oversized bodies to
// 413 and malformed JSON to 400. It reports whether decoding
// succeeded; on failure the response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds the %d-byte limit", tooBig.Limit)
		return false
	}
	writeErr(w, http.StatusBadRequest, "bad_request", "malformed JSON body: %v", err)
	return false
}

// acquireSync claims a synchronous-work slot, or writes 429.
func (s *Server) acquireSync(w http.ResponseWriter) bool {
	select {
	case s.syncSem <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "saturated",
			"all %d synchronous work slots are busy; retry shortly", s.cfg.SyncLimit)
		return false
	}
}

func (s *Server) releaseSync() { <-s.syncSem }

// capRunTimeout clamps a client-requested timeout into (0, MaxRunTimeout].
func (s *Server) capRunTimeout(d time.Duration) time.Duration {
	if d <= 0 || d > s.cfg.MaxRunTimeout {
		return s.cfg.MaxRunTimeout
	}
	return d
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.store.counts()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.started).Milliseconds(),
		Queued:   queued, Running: running,
		FabricJobs: s.fabric.count(),
		Draining:   s.isDraining(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.obs.M().WriteJSON(w)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var b bench.Benchmark
	switch {
	case req.Bench != "":
		var err error
		b, err = bench.ByName(req.Bench)
		if err != nil {
			writeErr(w, http.StatusNotFound, "unknown_bench", "%v", err)
			return
		}
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "input.mc"
		}
		kernel := req.Kernel
		if kernel == "" {
			kernel = "main"
		}
		b = bench.Benchmark{Name: name, Kernel: kernel, Source: req.Source}
	default:
		writeErr(w, http.StatusBadRequest, "missing_source",
			"the request must carry MiniC \"source\" or a built-in \"bench\" name")
		return
	}
	schemes, err := resolveSchemes(req.Schemes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_scheme", "%v", err)
		return
	}
	if !s.acquireSync(w) {
		return
	}
	defer s.releaseSync()

	cfg, err := req.Config.Core()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_backend", "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	defer cancel()
	p, cached, err := core.BuildContextCached(ctx, b, cfg)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			writeErr(w, http.StatusGatewayTimeout, "compile_timeout",
				"build exceeded the %v compile timeout", s.cfg.CompileTimeout)
		case strings.Contains(err.Error(), "no kernel function"):
			writeErr(w, http.StatusBadRequest, "unknown_kernel", "%v", err)
		default:
			writeErr(w, http.StatusBadRequest, "compile_error", "%v", err)
		}
		return
	}

	resp := compileResponse{
		Name: b.Name, Kernel: b.Kernel, Cached: cached,
		Candidates: []candidateJSON{},
		Schemes:    map[string]schemeStatsJSON{},
	}
	mod := p.Module(core.Unsafe)
	for i := range p.Candidates {
		c := &p.Candidates[i]
		resp.Candidates = append(resp.Candidates, candidateJSON{
			Name: c.Name(mod), Header: c.Header, Latch: c.Latch,
			Cost: c.Cost, ValueFloat: c.ValueFloat, HasCall: c.HasCall,
			Invariants: len(c.Invariants),
		})
	}
	for _, sc := range schemes {
		m := p.Module(sc)
		st := schemeStatsJSON{PPLoops: len(m.Loops)}
		for fi := range m.Funcs {
			st.Functions++
			for bi := range m.Funcs[fi].Blocks {
				st.Instructions += len(m.Funcs[fi].Blocks[bi].Instrs)
			}
		}
		if req.IncludeRIR {
			var sb strings.Builder
			if err := m.MarshalText(&sb); err != nil {
				writeErr(w, http.StatusInternalServerError, "serialize_error", "%v", err)
				return
			}
			st.RIR = sb.String()
		}
		resp.Schemes[sc.String()] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveSchemes parses the requested scheme list (default: the
// paper's four variants; swiftrhard is reported only on request).
func resolveSchemes(names []string) ([]core.Scheme, error) {
	if len(names) == 0 {
		return []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip}, nil
	}
	out := make([]core.Scheme, 0, len(names))
	for _, n := range names {
		sc, err := core.ParseScheme(n)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Bench == "" {
		writeErr(w, http.StatusBadRequest, "missing_bench", "the request must name a built-in \"bench\"")
		return
	}
	b, err := bench.ByName(req.Bench)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_bench", "%v", err)
		return
	}
	scheme, err := core.ParseScheme(req.Scheme)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_scheme", "%v", err)
		return
	}
	scale, err := bench.ParseScale(req.Scale)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_scale", "%v", err)
		return
	}
	if req.Train > maxTrainInputs {
		writeErr(w, http.StatusBadRequest, "bad_request", "\"train\" = %d exceeds the limit of %d training inputs", req.Train, maxTrainInputs)
		return
	}
	if !s.acquireSync(w) {
		return
	}
	defer s.releaseSync()

	cfg, err := req.Config.Core()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_backend", "%v", err)
		return
	}
	// The build is bounded by the compile budget; the client's run
	// timeout only starts ticking once execution begins, so a cold
	// cache never converts a short run budget into a compile failure.
	buildCtx, buildCancel := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	p, cached, err := core.BuildContextCached(buildCtx, b, cfg)
	buildCancel()
	if err != nil {
		if buildCtx.Err() != nil {
			writeErr(w, http.StatusGatewayTimeout, "compile_timeout",
				"build exceeded the %v budget", s.cfg.CompileTimeout)
			return
		}
		writeErr(w, http.StatusBadRequest, "compile_error", "%v", err)
		return
	}

	timeout := s.cfg.DefaultRunTimeout
	if req.TimeoutMS > 0 {
		timeout = s.capRunTimeout(time.Duration(req.TimeoutMS) * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if scheme == core.RSkip {
		if err := p.Train(bench.TrainSeeds(trainInputs(req.Train)), scale); err != nil {
			writeErr(w, http.StatusInternalServerError, "train_error", "%v", err)
			return
		}
	}
	inst := b.Gen(bench.TestSeed(req.Seed), scale)
	golden := p.Run(core.Unsafe, inst, core.RunOpts{Cancel: ctx.Done()})
	if golden.Err != nil {
		s.writeRunErr(w, ctx, timeout, "golden run", golden.Err)
		return
	}
	o := p.Run(scheme, inst, core.RunOpts{Cancel: ctx.Done()})
	if o.Err != nil {
		s.writeRunErr(w, ctx, timeout, scheme.String()+" run", o.Err)
		return
	}
	matches := len(o.Output) == len(golden.Output)
	if matches {
		for i := range o.Output {
			if o.Output[i] != golden.Output[i] {
				matches = false
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, runResponse{
		Bench: b.Name, Scheme: scheme.String(), Cached: cached,
		Instrs: o.Result.Instrs, Cycles: o.Result.Cycles, IPC: o.Result.IPC(),
		GoldenInstrs: golden.Result.Instrs, GoldenCycles: golden.Result.Cycles,
		Overhead:      float64(o.Result.Cycles) / float64(golden.Result.Cycles),
		OutputMatches: matches,
		SkipRate:      o.SkipRate(), DISkipRate: o.DISkipRate(),
	})
}

// writeRunErr distinguishes a wall-clock timeout (504) from an
// abnormal simulated execution (422: the program, not the server,
// misbehaved).
func (s *Server) writeRunErr(w http.ResponseWriter, ctx context.Context, timeout time.Duration, what string, err error) {
	if ctx.Err() != nil {
		writeErr(w, http.StatusGatewayTimeout, "run_timeout",
			"%s exceeded the %v wall-clock timeout", what, timeout)
		return
	}
	writeErr(w, http.StatusUnprocessableEntity, "run_error", "%s failed: %v", what, err)
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "the server is draining; resubmit to its successor")
		return
	}
	var req campaignRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := validateCampaignRequest(&req, s.resultCache != nil); err != nil {
		status, code := http.StatusBadRequest, "bad_campaign"
		var unknownModel *fault.UnknownModelError
		var conflict *fault.ConfigConflictError
		var unknownBackend *machine.UnknownBackendError
		var retired *retiredFieldError
		if strings.Contains(err.Error(), "unknown benchmark") {
			status, code = http.StatusNotFound, "unknown_bench"
		} else if errors.As(err, &unknownModel) {
			code = "unknown_fault_model"
		} else if errors.As(err, &unknownBackend) {
			code = "unknown_backend"
		} else if errors.As(err, &conflict) {
			code = "config_conflict"
		} else if errors.As(err, &retired) {
			code = "retired_field"
		} else if errors.Is(err, errIncrementalUnavailable) {
			code = "incremental_unavailable"
		}
		writeErr(w, status, code, "%v", err)
		return
	}
	j := &job{
		spec: jobSpec{
			ID: newJobID(), Request: req,
			SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano),
		},
		state:  jobQueued,
		doneCh: make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests, "queue_full",
			"the campaign queue is full (%d pending); retry later", cap(s.queue))
		return
	}
	if err := s.store.persistSpec(j); err != nil {
		// The job is already queued; it will run, but won't survive a
		// restart. Surface the degraded durability as a 500 would be a
		// lie (the work is accepted) — log-through-metrics instead.
		s.obs.M().Counter("server_persist_errors_total", "job specs that failed to persist").Inc()
	}
	s.store.add(j)
	s.met.jobsSubmitted.Inc()
	writeJSON(w, http.StatusAccepted, campaignSubmitResponse{
		ID: j.spec.ID, State: jobQueued,
		StatusURL: "/v1/campaigns/" + j.spec.ID,
		StreamURL: "/v1/campaigns/" + j.spec.ID + "/stream",
	})
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.list())
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown_job", "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown_job", "no campaign %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	switch {
	case terminalState(j.state):
		// Idempotent: cancelling a finished job reports its state.
		j.mu.Unlock()
	case j.state == jobRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	default: // queued: cancel in place; the worker will skip it
		j.userCancel = true
		j.state = jobCancelled
		j.errMsg = "cancelled by client"
		ev := j.eventLocked()
		for ch := range j.subs {
			select {
			case ch <- ev:
			default:
			}
		}
		close(j.doneCh)
		j.mu.Unlock()
		s.met.jobsCancelled.Inc()
		s.store.persistOutcome(j)
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleCampaignStream serves application/x-ndjson: one JSON line per
// progress snapshot, ending with a terminal snapshot that carries the
// result. The stream also ends (without a terminal line) when the
// client disconnects or the server drains.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown_job", "no campaign %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "no_flush", "response writer cannot stream")
		return
	}
	ch := j.subscribe()
	defer j.unsubscribe(ch)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	writeEv := func(ev progressEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	first := j.event()
	if !writeEv(first) || terminalState(first.State) {
		return
	}
	for {
		select {
		case ev := <-ch:
			if !writeEv(ev) {
				return
			}
			if terminalState(ev.State) {
				return
			}
		case <-j.doneCh:
			writeEv(j.event())
			return
		case <-s.draining:
			writeEv(j.event())
			return
		case <-r.Context().Done():
			return
		}
	}
}
