package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/httpx"
	"rskip/internal/obs"
)

// WorkerConfig parameterizes one fabric worker daemon (rskipd -worker).
type WorkerConfig struct {
	// Join is the coordinator daemon's base URL (e.g. http://host:8321).
	Join string
	// Name is the worker's stable identity across leases (default
	// "<hostname>-<pid>").
	Name string
	// Poll is the idle re-poll interval when the coordinator has no
	// work (default 2s).
	Poll time.Duration
	// Workers overrides the within-shard injection parallelism
	// (default: the spec's value, then GOMAXPROCS).
	Workers int
	// Obs is the worker's telemetry handle (nil = metrics-only).
	Obs *obs.Obs
	// Log receives human progress lines (default os.Stderr).
	Log func(format string, args ...any)
}

// Worker is a fabric worker: it pulls shard leases from a coordinator
// daemon, executes them on locally built executors, and streams
// heartbeats and completed payloads back. It runs one lease at a time
// and keeps the executor of the last lease's plan, so consecutive
// shards of a campaign — including shards stolen back after this
// worker was presumed dead — share one build, one profile run and one
// record array; a lease of another plan drops it.
type Worker struct {
	cfg  WorkerConfig
	ctx  context.Context
	name string
	cli  *httpx.Client

	mu   sync.Mutex
	key  string          // the plan key exec was built for
	exec *fault.Executor // nil before the first lease and after a failed build
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Join == "" {
		return nil, fmt.Errorf("worker: -join must name the coordinator's base URL")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = &obs.Obs{Metrics: obs.NewMetrics()}
	}
	if cfg.Log == nil {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rskipd worker: "+format+"\n", args...)
		}
	}
	return &Worker{cfg: cfg, name: cfg.Name, cli: &httpx.Client{}}, nil
}

// Run is the worker loop: lease, execute, complete, repeat until ctx
// is cancelled. Transient coordinator failures back off through the
// retrying client and never kill the loop — the coordinator's lease
// TTL already treats a silent worker as dead, so the worker's only
// job is to keep trying.
func (w *Worker) Run(ctx context.Context) error {
	w.ctx = obs.Into(ctx, w.cfg.Obs)
	w.cfg.Log("%s joining %s", w.name, w.cfg.Join)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.cfg.Log("lease: %v (retrying in %v)", err, w.cfg.Poll)
			ok = false
		}
		if !ok {
			if serr := w.sleep(ctx); serr != nil {
				return serr
			}
			continue
		}
		if err := w.runLease(ctx, lease); err != nil && ctx.Err() == nil {
			w.cfg.Log("shard %d of %s: %v", lease.Shard.ID, lease.JobID, err)
		}
	}
}

func (w *Worker) sleep(ctx context.Context) error {
	t := time.NewTimer(w.cfg.Poll)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *Worker) lease(ctx context.Context) (fabric.WireLease, bool, error) {
	var lease fabric.WireLease
	status, body, err := w.cli.PostJSON(ctx, w.cfg.Join+"/v1/fabric/lease",
		fabric.WireLeaseRequest{Worker: w.name}, &lease)
	switch {
	case err != nil:
		return lease, false, err
	case status == http.StatusNoContent:
		return lease, false, nil
	case status != http.StatusOK:
		return lease, false, fmt.Errorf("coordinator returned %d: %s", status, body)
	}
	return lease, true, nil
}

// runLease executes one leased shard: resolve (or build) the plan's
// executor, cross-check the plan key, run sub-batches with heartbeats
// between them, and deliver the payload.
func (w *Worker) runLease(ctx context.Context, lease fabric.WireLease) error {
	x, err := w.executor(lease)
	if err != nil {
		return err
	}
	hb := func() error {
		return w.post("/v1/fabric/heartbeat", fabric.WireHeartbeat{
			Worker: w.name, JobID: lease.JobID, Shard: lease.Shard.ID,
		})
	}
	payload, err := x.RunShard(ctx, lease.Shard, hb)
	if err != nil {
		return err
	}
	return w.post("/v1/fabric/complete", fabric.WireComplete{
		Worker: w.name, JobID: lease.JobID, Shard: lease.Shard.ID, Payload: payload,
	})
}

// errLeaseLost and errJobGone map the protocol's 409/410 onto errors
// the shard loop treats as "drop this shard and lease again".
var (
	errLeaseLost = fmt.Errorf("worker: lease lost (shard reassigned)")
	errJobGone   = fmt.Errorf("worker: job gone (finished or cancelled)")
)

func (w *Worker) post(path string, body any) error {
	status, respBody, err := w.cli.PostJSON(w.ctx, w.cfg.Join+path, body, nil)
	switch {
	case err != nil:
		return err
	case status == http.StatusConflict:
		return errLeaseLost
	case status == http.StatusGone:
		return errJobGone
	case status != http.StatusOK:
		return fmt.Errorf("worker: coordinator returned %d for %s: %s", status, path, respBody)
	}
	return nil
}

// executor resolves the lease's plan to the worker's executor. A lease
// of another plan than the last one's drops that plan's executor,
// releasing its pooled machines, and builds one from the spec. The
// locally derived campaign key must equal the coordinator's plan key —
// a mismatch means the two processes disagree about the build or the
// fault model, and running anyway would merge wrong records into a
// right-looking result.
func (w *Worker) executor(lease fabric.WireLease) (*fault.Executor, error) {
	w.mu.Lock()
	x := w.exec
	if x != nil && w.key == lease.PlanKey {
		w.mu.Unlock()
		return x, nil
	}
	w.exec, w.key = nil, ""
	w.mu.Unlock()
	if x != nil {
		x.Release()
	}
	var req campaignRequest
	if err := json.Unmarshal(lease.Spec, &req); err != nil {
		return nil, fmt.Errorf("worker: decoding job spec: %w", err)
	}
	x, err := w.buildExecutor(&req)
	if err != nil {
		return nil, err
	}
	if x.Key() != lease.PlanKey {
		return nil, fmt.Errorf("worker: plan key mismatch (configuration drift; refusing the shard):\n  local %s\n  coord %s", x.Key(), lease.PlanKey)
	}
	w.mu.Lock()
	w.exec, w.key = x, lease.PlanKey
	w.mu.Unlock()
	w.cfg.Log("prepared %s n=%d for %s", req.Bench, x.N(), lease.JobID)
	return x, nil
}

// buildExecutor prepares the lease's campaign through the same setup
// the coordinating daemon ran, with this worker's replica
// parallelism.
func (w *Worker) buildExecutor(req *campaignRequest) (*fault.Executor, error) {
	c, err := req.setup(w.ctx)
	if err != nil {
		return nil, err
	}
	if w.cfg.Workers > 0 {
		c.Fault.Workers = w.cfg.Workers
	}
	return fault.NewExecutor(w.ctx, c.Program, c.Scheme, c.Inst, c.Fault)
}
