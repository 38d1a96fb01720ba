package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fabric/campaign"
	"rskip/internal/fault"
	"rskip/internal/obs"
)

// The coordinator side of distributed campaigns: jobs submitted with
// "distributed": true run through a fabric.Coordinator instead of the
// monolithic fault.Campaign loop. Shard leases are served to remote
// workers over /v1/fabric/* (wire types in internal/fabric/wire.go)
// and to the in-process pool via fabric.RunLocal — the same
// Coordinator methods either way, so the two paths cannot diverge.

// fabricJob is one distributed campaign's lease surface.
type fabricJob struct {
	id    string
	coord *fabric.Coordinator
	key   string
	n     int
	spec  json.RawMessage // the campaignRequest, verbatim
	ttl   time.Duration
}

// fabricHub indexes the distributed jobs currently leasing shards.
type fabricHub struct {
	mu    sync.Mutex
	jobs  map[string]*fabricJob
	order []string // lease-scan order: oldest job first
}

func newFabricHub() *fabricHub {
	return &fabricHub{jobs: map[string]*fabricJob{}}
}

func (h *fabricHub) add(fj *fabricJob) {
	h.mu.Lock()
	h.jobs[fj.id] = fj
	h.order = append(h.order, fj.id)
	h.mu.Unlock()
}

func (h *fabricHub) remove(id string) {
	h.mu.Lock()
	delete(h.jobs, id)
	for i, o := range h.order {
		if o == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

func (h *fabricHub) get(id string) *fabricJob {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jobs[id]
}

// snapshot returns the active jobs in lease-scan order.
func (h *fabricHub) snapshot() []*fabricJob {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*fabricJob, 0, len(h.order))
	for _, id := range h.order {
		if fj := h.jobs[id]; fj != nil {
			out = append(out, fj)
		}
	}
	return out
}

func (h *fabricHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.jobs)
}

// fabricMetrics are the fabric_* instruments.
type fabricMetrics struct {
	granted    *obs.Counter
	reassigned *obs.Counter
	completed  *obs.Counter
	jobs       *obs.Gauge
	shard      *obs.Histogram
}

func newFabricMetrics(m *obs.Metrics) fabricMetrics {
	return fabricMetrics{
		granted:    m.Counter("fabric_leases_granted_total", "shard leases granted to workers"),
		reassigned: m.Counter("fabric_leases_reassigned_total", "leases reclaimed from dead or straggling workers"),
		completed:  m.Counter("fabric_shards_completed_total", "shards completed and merged"),
		jobs:       m.Gauge("fabric_jobs_active", "distributed campaigns currently leasing shards"),
		shard:      m.Histogram("fabric_shard_seconds", "distributed-shard wall time (first lease to completion)", obs.ExpBuckets(0.001, 4, 8)),
	}
}

// executeDistributed runs one campaign through the fabric: an
// executor for the plan identity (and local execution), a merger for
// the exact reassembly, a coordinator for the lease lifecycle, and —
// unless the client opted out — an in-process lease loop so the
// coordinator node contributes cycles alongside remote workers.
func (s *Server) executeDistributed(ctx context.Context, j *job, p *core.Program, inst bench.Instance, fcfg fault.Config) (fault.Result, error) {
	req := j.spec.Request
	ctx, sp := obs.Start(ctx, "server/fabric_job")
	sp.SetAttr("id", j.spec.ID)
	defer sp.End()

	x, err := fault.NewExecutor(ctx, p, j.scheme, inst, fcfg)
	if err != nil {
		return fault.Result{}, err
	}
	merger := campaign.NewMerger(x)
	shardSize := req.ShardSize
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	coord := fabric.NewCoordinator(
		fabric.Plan{Key: x.Key(), N: x.N(), ShardSize: shardSize},
		fabric.Options{
			LeaseTTL:   s.cfg.LeaseTTL,
			OnComplete: merger.Add,
			OnShardDone: func(_ fabric.Shard, _ string, leased time.Duration) {
				s.fmet.shard.Observe(leased.Seconds())
			},
			OnProgress: func(pr fabric.Progress) {
				// Progress streams the merged prefix: exact counts for
				// completed shards (heartbeat-estimated Done for leased
				// ones comes from pr, not from the records).
				partial, err := merger.Partial()
				if err != nil {
					return
				}
				j.publishProgress(fault.Progress{Done: pr.Done, N: pr.N, Result: partial})
			},
		})

	spec, err := json.Marshal(&req)
	if err != nil {
		return fault.Result{}, fmt.Errorf("encoding fabric spec: %w", err)
	}
	fj := &fabricJob{id: j.spec.ID, coord: coord, key: x.Key(), n: x.N(),
		spec: spec, ttl: s.cfg.LeaseTTL}
	s.fabric.add(fj)
	s.fmet.jobs.Set(float64(s.fabric.count()))
	defer func() {
		s.fabric.remove(j.spec.ID)
		s.fmet.jobs.Set(float64(s.fabric.count()))
		st := coord.Stats()
		s.fmet.granted.Add(uint64(st.LeasesGranted))
		s.fmet.reassigned.Add(uint64(st.LeasesExpired))
		s.fmet.completed.Add(uint64(st.ShardsCompleted))
	}()

	// The in-process pool: one lease loop per local worker slot, all
	// over this job's executor (RunRange parallelizes internally via
	// Config.Workers). LocalWorkers < 0 makes this node a pure
	// coordinator that only serves remote leases.
	if req.LocalWorkers >= 0 {
		loops := req.LocalWorkers
		if loops == 0 {
			loops = 1
		}
		runner := campaign.NewRunner(x, fcfg.Batch)
		go func() {
			// RunLocal returns when the plan completes or aborts; its
			// error surfaces through coord.Wait below.
			_ = fabric.RunLocal(ctx, coord, loops, "local", runner)
		}()
	}

	if err := coord.Wait(ctx); err != nil {
		if ctx.Err() != nil {
			// Cancelled (client DELETE or drain): report the merged
			// partial result, like the single-node path does.
			partial, perr := merger.Partial()
			if perr != nil {
				return fault.Result{}, err
			}
			return partial, fmt.Errorf("fault: campaign interrupted after %d/%d runs: %w", partial.N, x.N(), ctx.Err())
		}
		return fault.Result{}, err
	}
	return merger.Result()
}

// defaultShardSize balances lease-protocol overhead against work-
// stealing granularity: a dead worker forfeits at most this many runs
// per held lease.
const defaultShardSize = 250

// handleFabricLease grants the next available shard of any active
// distributed job: 200 with a WireLease, or 204 when nothing needs a
// worker right now (the worker polls again later).
func (s *Server) handleFabricLease(w http.ResponseWriter, r *http.Request) {
	var req fabric.WireLeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "missing_worker", "the lease request must carry a stable \"worker\" identity")
		return
	}
	for _, fj := range s.fabric.snapshot() {
		sh, ok := fj.coord.Lease(req.Worker)
		if !ok {
			continue
		}
		writeJSON(w, http.StatusOK, fabric.WireLease{
			JobID: fj.id, PlanKey: fj.key, N: fj.n, Shard: sh,
			LeaseTTLMS: fj.ttl.Milliseconds(), Spec: fj.spec,
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fabricCall resolves the job and maps coordinator errors onto the
// wire: 409 lease_lost tells the worker to abandon the shard, 410
// gone tells it the whole job has finished or vanished.
func (s *Server) fabricCall(w http.ResponseWriter, jobID string, call func(fj *fabricJob) error) {
	fj := s.fabric.get(jobID)
	if fj == nil {
		writeErr(w, http.StatusGone, "gone", "no active distributed campaign %q (finished, cancelled, or the daemon restarted)", jobID)
		return
	}
	if err := call(fj); err != nil {
		if errors.Is(err, fabric.ErrLeaseLost) || errors.Is(err, fabric.ErrUnknownShard) {
			writeErr(w, http.StatusConflict, "lease_lost", "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "fabric_error", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb fabric.WireHeartbeat
	if !decodeJSON(w, r, &hb) {
		return
	}
	s.fabricCall(w, hb.JobID, func(fj *fabricJob) error {
		return fj.coord.Heartbeat(hb.Worker, hb.Shard, hb.Done)
	})
}

func (s *Server) handleFabricComplete(w http.ResponseWriter, r *http.Request) {
	var cp fabric.WireComplete
	if !decodeJSON(w, r, &cp) {
		return
	}
	s.fabricCall(w, cp.JobID, func(fj *fabricJob) error {
		return fj.coord.Complete(cp.Worker, cp.Shard, cp.Payload)
	})
}
