package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rskip/internal/campaign"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/obs"
)

// Every campaign job runs through a fabric.Coordinator merged by a
// fault.Ledger (runCampaign). "distributed": true only registers the
// coordinator in the hub, so its shards are also leased to remote
// workers over /v1/fabric/* (wire types in internal/fabric/wire.go);
// the in-process pool calls the same Coordinator methods through
// fabric.RunLocal, so the two paths cannot diverge.

// fabricJob is one distributed campaign's lease surface.
type fabricJob struct {
	id    string
	coord *fabric.Coordinator
	spec  json.RawMessage // the campaignRequest, verbatim
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

// runCampaign runs one campaign job to its end: an executor for the
// plan identity and local execution, a ledger for the exact merge,
// checkpoints, progress and early stop, and a coordinator for the
// lease lifecycle. A plain job leases shards of Batch runs to one
// in-process lease loop. A distributed job leases shards of ShardSize
// runs to LocalWorkers loops (0: one, < 0: none) and, through the hub,
// to any remote worker.
func (s *Server) runCampaign(ctx context.Context, j *job, c *campaign.Setup) (fault.Result, error) {
	req := j.spec.Request
	x, err := fault.NewExecutor(ctx, c.Program, c.Scheme, c.Inst, c.Fault)
	if err != nil {
		return fault.Result{}, err
	}
	shardSize, loops := 0, 1
	opt := fabric.Options{LeaseTTL: s.cfg.LeaseTTL}
	if req.Distributed {
		shardSize = req.ShardSize
		if shardSize <= 0 {
			shardSize = defaultShardSize
		}
		if req.LocalWorkers != 0 {
			loops = max(req.LocalWorkers, 0)
		}
		opt.OnShardDone = func(_ fabric.Shard, _ string, leased time.Duration) {
			s.fmet.shard.Observe(leased.Seconds())
		}
	}
	l, err := fault.NewLedger(x, shardSize)
	if err != nil {
		return fault.Result{}, err
	}
	coord := l.Coordinator(opt)
	if req.Distributed {
		spec, err := json.Marshal(&req)
		if err != nil {
			return fault.Result{}, fmt.Errorf("encoding fabric spec: %w", err)
		}
		s.fabric.add(&fabricJob{id: j.spec.ID, coord: coord, spec: spec})
		s.fmet.jobs.Set(float64(s.fabric.count()))
		defer func() {
			s.fabric.remove(j.spec.ID)
			s.fmet.jobs.Set(float64(s.fabric.count()))
			st := coord.Stats()
			s.fmet.granted.Add(uint64(st.LeasesGranted))
			s.fmet.reassigned.Add(uint64(st.LeasesExpired))
			s.fmet.completed.Add(uint64(st.ShardsCompleted))
		}()
	}
	local := make([]fabric.ShardRunner, loops)
	for i := range local {
		local[i] = x
	}
	return l.Drive(ctx, coord, local...)
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
			JobID: fj.id, PlanKey: fj.coord.Plan().Key, N: fj.coord.Plan().N, Shard: sh,
			LeaseTTLMS: s.cfg.LeaseTTL.Milliseconds(), Spec: fj.spec,
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
		if errors.Is(err, fabric.ErrPayloadRefused) {
			writeErr(w, http.StatusConflict, "payload_refused", "%v", err)
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
		return fj.coord.Heartbeat(hb.Worker, hb.Shard)
	})
}

func (s *Server) handleFabricComplete(w http.ResponseWriter, r *http.Request) {
	var cp fabric.WireComplete
	if !decodeJSON(w, r, &cp) {
		return
	}
	// An empty payload is how the ledger's own lease loop completes a
	// shard in process; taken from the wire, it would make the ledger
	// read records that loop may still be writing.
	if len(cp.Payload) == 0 {
		writeErr(w, http.StatusBadRequest, "missing_payload", "a completion must carry the shard's payload")
		return
	}
	s.fabricCall(w, cp.JobID, func(fj *fabricJob) error {
		return fj.coord.Complete(cp.Worker, cp.Shard, cp.Payload)
	})
}
