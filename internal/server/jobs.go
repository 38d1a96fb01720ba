package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rskip/internal/bench"
	"rskip/internal/campaign"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/result"
)

// Job states. queued → running → {done, failed, cancelled}. A drain
// interrupts running jobs back to queued-on-disk: the job file stays,
// no result file is written, and the next daemon on the same
// checkpoint dir re-enqueues it — the campaign ledger's checkpoint
// makes the re-run bit-identical to an uninterrupted campaign,
// distributed or not.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// jobSpec is the durable identity of one campaign job: everything
// needed to (re)start it. Persisted as <id>.job.json at submit time.
type jobSpec struct {
	ID          string          `json:"id"`
	Request     campaignRequest `json:"request"`
	SubmittedAt string          `json:"submitted_at"`
}

// jobOutcome is the durable terminal state, persisted as
// <id>.result.json. Its absence marks a job as resumable.
type jobOutcome struct {
	State      string           `json:"state"`
	Done       int              `json:"done"`
	Result     *campaign.Result `json:"result,omitempty"`
	Error      string           `json:"error,omitempty"`
	FinishedAt string           `json:"finished_at"`
}

// job is the in-memory state of one campaign.
type job struct {
	mu    sync.Mutex
	spec  jobSpec
	state string
	done  int
	// n is the resolved run count. Exhaustive jobs submit with N = 0
	// (the enumerator derives the count from the region), so the first
	// progress snapshot fills this in; sampled jobs echo the request.
	n      int
	result *campaign.Result
	errMsg string
	// cancel interrupts the running campaign; userCancel distinguishes
	// a client DELETE (terminal: cancelled) from a server drain
	// (non-terminal: resumable on restart).
	cancel     context.CancelFunc
	userCancel bool
	// doneCh closes when the job reaches a terminal state.
	doneCh chan struct{}
	subs   map[chan progressEvent]struct{}
}

func (j *job) status() campaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return campaignStatus{
		ID: j.spec.ID, State: j.state, Bench: j.spec.Request.Bench,
		Done: j.done, N: j.nLocked(),
		Result: j.result, Error: j.errMsg,
	}
}

func (j *job) nLocked() int {
	if j.n > 0 {
		return j.n
	}
	return j.spec.Request.N
}

// event renders the current state as one stream line.
func (j *job) event() progressEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked()
}

func (j *job) eventLocked() progressEvent {
	ev := progressEvent{
		ID: j.spec.ID, State: j.state, Done: j.done, N: j.nLocked(),
		Error: j.errMsg,
	}
	if j.result != nil {
		ev.Protection = j.result.Protection
	}
	if terminalState(j.state) {
		ev.Result = j.result
	}
	return ev
}

func terminalState(s string) bool {
	return s == jobDone || s == jobFailed || s == jobCancelled
}

// subscribe registers a progress listener. The channel is buffered;
// intermediate events may be dropped for slow readers, but the
// terminal snapshot is always delivered via doneCh.
func (j *job) subscribe() chan progressEvent {
	ch := make(chan progressEvent, 32)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan progressEvent]struct{}{}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan progressEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publishProgress folds a campaign progress snapshot into the job and
// fans it out to stream subscribers.
func (j *job) publishProgress(pr fault.Progress) {
	j.mu.Lock()
	j.done = pr.Done
	j.n = pr.N
	j.result = j.spec.Request.Result(pr.Result.Scheme.String(), pr.Result)
	ev := j.eventLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow reader: drop; the final snapshot is authoritative
		}
	}
	j.mu.Unlock()
}

// jobStore indexes jobs by ID and owns their on-disk mirror.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job
	dir  string // "" = no persistence
}

func newJobStore(dir string) *jobStore {
	return &jobStore{jobs: map[string]*job{}, dir: dir}
}

func (st *jobStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

func (st *jobStore) add(j *job) {
	st.mu.Lock()
	st.jobs[j.spec.ID] = j
	st.mu.Unlock()
}

// list returns every job's status, newest submission first.
func (st *jobStore) list() []campaignStatus {
	st.mu.Lock()
	jobs := make([]*job, 0, len(st.jobs))
	for _, j := range st.jobs {
		jobs = append(jobs, j)
	}
	st.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].spec.SubmittedAt != jobs[b].spec.SubmittedAt {
			return jobs[a].spec.SubmittedAt > jobs[b].spec.SubmittedAt
		}
		return jobs[a].spec.ID > jobs[b].spec.ID
	})
	out := make([]campaignStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

func (st *jobStore) counts() (queued, running int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range st.jobs {
		j.mu.Lock()
		switch j.state {
		case jobQueued:
			queued++
		case jobRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}

func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: time-derived; collisions are rejected at add time.
		return fmt.Sprintf("c-%012x", time.Now().UnixNano())
	}
	return "c-" + hex.EncodeToString(b[:])
}

// Persistence file layout under the checkpoint dir:
//
//	<id>.job.json     the job spec (written at submit)
//	<id>.ck.json      the campaign ledger's checkpoint
//	<id>.result.json  the terminal outcome (written at completion)
//
// Every file is written through fault.WriteFileAtomic, so a crash
// leaves an intact file or none, plus at most a temp file the startup
// sweep removes.

func (st *jobStore) specPath(id string) string   { return filepath.Join(st.dir, id+".job.json") }
func (st *jobStore) ckPath(id string) string     { return filepath.Join(st.dir, id+".ck.json") }
func (st *jobStore) resultPath(id string) string { return filepath.Join(st.dir, id+".result.json") }

// persistSpec writes the job spec; a failure is returned so submit can
// refuse jobs it could not make durable (they would silently vanish on
// restart otherwise).
func (st *jobStore) persistSpec(j *job) error {
	if st.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(&j.spec, "", "  ")
	if err == nil {
		err = fault.WriteFileAtomic(st.specPath(j.spec.ID), data)
	}
	if err != nil {
		return fmt.Errorf("persisting job spec: %w", err)
	}
	return nil
}

// persistOutcome mirrors a terminal state to disk (best effort: the
// in-memory state is already authoritative for this process).
func (st *jobStore) persistOutcome(j *job) {
	if st.dir == "" {
		return
	}
	j.mu.Lock()
	oc := jobOutcome{State: j.state, Done: j.done, Result: j.result, Error: j.errMsg,
		FinishedAt: time.Now().UTC().Format(time.RFC3339)}
	id := j.spec.ID
	j.mu.Unlock()
	if data, err := json.MarshalIndent(&oc, "", "  "); err == nil {
		_ = fault.WriteFileAtomic(st.resultPath(id), data)
	}
	// A terminal job never resumes, so its campaign checkpoint is dead
	// weight from here on; the startup sweep catches the ones a crash
	// leaves behind.
	if terminalState(oc.State) {
		_ = os.Remove(st.ckPath(id))
	}
}

// sweepOrphans removes checkpoint-dir files no future daemon will
// ever read again:
//
//   - temp files of an atomic write a crash cut short between the
//     temp write and the rename (fault.TempPattern; .ck-*.json from
//     daemons that wrote checkpoints under their own pattern)
//   - <id>.job.json (+ result) of jobs cancelled before their first
//     checkpoint — the record holds no runs and nothing resumable, so
//     it only accumulates across restarts
//   - <id>.ck.json of jobs already terminal — the campaign will never
//     resume, so the checkpoint is dead weight
//   - <id>.ck.json / <id>.result.json whose job spec is gone
//
// It runs before loadPersisted so restored state never references a
// removed file. Returns the number of files removed.
func (st *jobStore) sweepOrphans() (int, error) {
	if st.dir == "" {
		return 0, nil
	}
	swept := 0
	remove := func(path string) {
		if err := os.Remove(path); err == nil {
			swept++
		}
	}
	for _, pat := range []string{fault.TempPattern("*"), ".ck-*.json"} {
		tmps, _ := filepath.Glob(filepath.Join(st.dir, pat))
		for _, t := range tmps {
			remove(t)
		}
	}
	specs, err := filepath.Glob(filepath.Join(st.dir, "*.job.json"))
	if err != nil {
		return swept, err
	}
	live := map[string]bool{}
	for _, name := range specs {
		id := strings.TrimSuffix(filepath.Base(name), ".job.json")
		live[id] = true
		ocData, err := os.ReadFile(st.resultPath(id))
		if err != nil {
			continue // no outcome: queued or drained, resumable — keep
		}
		var oc jobOutcome
		if err := json.Unmarshal(ocData, &oc); err != nil || !terminalState(oc.State) {
			continue
		}
		_, ckErr := os.Stat(st.ckPath(id))
		switch {
		case oc.State == jobCancelled && oc.Done == 0 && ckErr != nil:
			// Spec first: a leftover result without a spec is caught by
			// the unmatched-file pass below, while a leftover spec
			// without a result would re-enqueue a cancelled job.
			remove(st.specPath(id))
			remove(st.resultPath(id))
			live[id] = false
		case ckErr == nil:
			remove(st.ckPath(id))
		}
	}
	for _, suffix := range []string{".ck.json", ".result.json"} {
		names, _ := filepath.Glob(filepath.Join(st.dir, "*"+suffix))
		for _, name := range names {
			if !live[strings.TrimSuffix(filepath.Base(name), suffix)] {
				remove(name)
			}
		}
	}
	return swept, nil
}

// loadPersisted scans the checkpoint dir: jobs with a result file are
// restored as terminal records (so clients can still GET them after a
// restart); jobs without one are returned for re-enqueueing — their
// campaign checkpoints resume where the previous daemon drained.
func (st *jobStore) loadPersisted() (resumable []*job, err error) {
	if st.dir == "" {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(st.dir, "*.job.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var spec jobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("corrupt job file %s: %w", name, err)
		}
		if spec.ID == "" || spec.ID != strings.TrimSuffix(filepath.Base(name), ".job.json") {
			return nil, fmt.Errorf("job file %s does not match its ID %q", name, spec.ID)
		}
		if _, err := core.ParseScheme(spec.Request.Scheme); err != nil {
			return nil, fmt.Errorf("job file %s: %w", name, err)
		}
		j := &job{spec: spec, state: jobQueued, doneCh: make(chan struct{})}
		if ocData, err := os.ReadFile(st.resultPath(spec.ID)); err == nil {
			var oc jobOutcome
			if err := json.Unmarshal(ocData, &oc); err == nil && terminalState(oc.State) {
				if oc.Result != nil {
					oc.Result.Derive() // an older daemon persisted no rates
				}
				j.state, j.done, j.result, j.errMsg = oc.State, oc.Done, oc.Result, oc.Error
				close(j.doneCh)
				st.add(j)
				continue
			}
		}
		st.add(j)
		resumable = append(resumable, j)
	}
	return resumable, nil
}

// runJob executes one campaign job to a terminal state (or back to a
// resumable one if the server is draining). It runs on a pool worker.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != jobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = jobRunning
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	s.met.jobsStarted.Inc()

	res, rep, err := s.executeCampaign(ctx, j)
	// An incremental analysis reports through its composed Report; the
	// monolithic path reports the raw campaign result.
	render := func() *campaign.Result {
		if rep != nil {
			return j.spec.Request.IncrementalResult(rep.Scheme.String(), rep)
		}
		return j.spec.Request.Result(res.Scheme.String(), res)
	}
	if rep != nil {
		res = rep.Composed
	}

	j.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = jobDone
		j.result = render()
		j.done = res.N
		s.met.jobsDone.Inc()
	case ctx.Err() != nil && !j.userCancel && s.isDraining():
		// Drain interruption: leave the job resumable. The ledger saved
		// its checkpoint after every merged shard; a restarted daemon on
		// the same checkpoint dir completes the campaign bit-identically.
		j.state = jobQueued
		j.result = render()
		j.done = res.N
		j.mu.Unlock()
		s.met.jobsInterrupted.Inc()
		return
	case j.userCancel:
		j.state = jobCancelled
		j.result = render()
		j.done = res.N
		j.errMsg = "cancelled by client"
		s.met.jobsCancelled.Inc()
	default:
		j.state = jobFailed
		j.errMsg = err.Error()
		if res.N > 0 {
			j.result = render()
			j.done = res.N
		}
		s.met.jobsFailed.Inc()
	}
	ev := j.eventLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	close(j.doneCh)
	j.mu.Unlock()
	s.store.persistOutcome(j)
}

// setup resolves the request through its spec, with the daemon's
// default number of training inputs. The job runner and a remote
// fabric worker both go through it, so they derive the same campaign
// key by construction; the limits and the retired field are checked
// first (faultConfig), so a persisted job that carries one fails
// instead of running.
func (req *campaignRequest) setup(ctx context.Context) (*campaign.Setup, error) {
	if _, err := req.faultConfig(); err != nil {
		return nil, err
	}
	spec := req.Spec
	spec.Train = trainInputs(spec.Train)
	return spec.Setup(ctx)
}

// defaultTrain is the daemon's number of training inputs for a request
// that names none.
const defaultTrain = 2

func trainInputs(n int) int {
	if n <= 0 {
		return defaultTrain
	}
	return n
}

// executeCampaign sets the job's campaign up and injects.
func (s *Server) executeCampaign(ctx context.Context, j *job) (fault.Result, *result.Report, error) {
	req := j.spec.Request
	ctx = obs.Into(ctx, s.obs)
	ctx, sp := obs.Start(ctx, "server/job")
	sp.SetAttr("id", j.spec.ID)
	defer sp.End()

	c, err := req.setup(ctx)
	if err != nil {
		return fault.Result{}, nil, err
	}
	if req.Incremental {
		// Region granularity replaces checkpoint/progress streaming for
		// compositional analyses.
		rep, err := c.Analyze(ctx, s.resultCache)
		if err != nil {
			return fault.Result{}, nil, err
		}
		return rep.Composed, rep, nil
	}
	c.Fault.OnProgress = j.publishProgress
	if gate := s.progressGate; gate != nil {
		c.Fault.OnProgress = func(pr fault.Progress) {
			j.publishProgress(pr)
			gate(ctx, pr)
		}
	}
	if s.store.dir != "" {
		c.Fault.CheckpointPath = s.store.ckPath(j.spec.ID)
	}
	res, err := s.runCampaign(ctx, j, c)
	return res, nil, err
}

// errIncrementalUnavailable rejects incremental submissions on a
// server that has no result cache to back them.
var errIncrementalUnavailable = fmt.Errorf("incremental campaigns require the server to run with -result-cache-dir")

// validateCampaignRequest normalizes and rejects bad submissions
// before they consume a queue slot.
func validateCampaignRequest(req *campaignRequest, hasResultCache bool) error {
	if req.Bench == "" {
		return fmt.Errorf("missing \"bench\"")
	}
	if _, err := bench.ByName(req.Bench); err != nil {
		return err
	}
	if req.Scheme == "" {
		return fmt.Errorf("missing \"scheme\"")
	}
	if _, err := core.ParseScheme(req.Scheme); err != nil {
		return err
	}
	if req.Incremental && !hasResultCache {
		return errIncrementalUnavailable
	}
	if err := req.CheckConflicts(req.Distributed, false); err != nil {
		return err
	}
	if req.N == 0 && !req.Exhaustive {
		req.N = campaign.DefaultN
	}
	if req.Seed == 0 {
		req.Seed = campaign.DefaultSeed
	}
	fcfg, err := req.faultConfig()
	if err != nil {
		return err
	}
	if err := fcfg.Validate(); err != nil {
		return err
	}
	// Reject an unknown backend at submit time, not when the queued
	// job finally builds.
	_, err = req.Config.Core()
	return err
}

// The largest "n" (1000× the paper's) and "train" a request may ask
// for: a job allocates n plans and records and one training run per
// input up front, so an unbounded value could exhaust the daemon.
const maxCampaignN, maxTrainInputs = 1_000_000, 64

// faultConfig maps the wire request to the engine config. ModelMix
// rejection surfaces as *fault.UnknownModelError so the HTTP layer can
// give it a dedicated error code, and a retired field as
// *retiredFieldError. Submit, resume and remote workers all pass
// through here, so a job file persisted with a retired field fails
// instead of running as some other campaign, and one with an
// oversized n or train fails instead of exhausting memory.
func (req *campaignRequest) faultConfig() (fault.Config, error) {
	if req.RunTimeoutMS > 0 {
		return fault.Config{}, errRunTimeoutRetired
	}
	if req.N > maxCampaignN {
		return fault.Config{}, fmt.Errorf("\"n\" = %d exceeds the limit of %d replicas", req.N, maxCampaignN)
	}
	if req.Train > maxTrainInputs {
		return fault.Config{}, fmt.Errorf("\"train\" = %d exceeds the limit of %d training inputs", req.Train, maxTrainInputs)
	}
	return req.FaultConfig()
}

// retiredFieldError rejects a campaign field the daemon no longer
// honours. Unknown JSON fields are ignored, so without it a client
// relying on a dropped field would silently get a different campaign.
type retiredFieldError struct{ Field, Reason string }

func (e *retiredFieldError) Error() string {
	return fmt.Sprintf("%q is no longer supported: %s", e.Field, e.Reason)
}

var errRunTimeoutRetired = &retiredFieldError{Field: "run_timeout_ms",
	Reason: "a wall-clock deadline made outcomes depend on host speed; every run is bounded by its deterministic instruction budget"}
