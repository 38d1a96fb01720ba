package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/server"
)

// conv1dFI builds conv1d with the daemon's defaults and its FI-scale
// test instance: the inputs of every conv1d campaign job.
func conv1dFI(t *testing.T) (*core.Program, bench.Instance) {
	t.Helper()
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, b.Gen(bench.TestSeed(0), bench.ScaleFI)
}

func countsOf(r fault.Result) map[string]int {
	m := map[string]int{}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		m[c.String()] = r.Counts[c]
	}
	return m
}

// startWorker runs a fabric worker against ts until the test ends.
func startWorker(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	wk, err := server.NewWorker(server.WorkerConfig{
		Join: ts.URL, Name: name, Poll: 25 * time.Millisecond,
		Log: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = wk.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
}

func drain(t *testing.T, s *server.Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
}

// TestDistributedTargetCI runs adaptive sampling as a distributed
// campaign whose shards (35 runs) straddle the early-stop boundaries
// (every 20 runs). The ledger's prefix stop must land where the
// single-process campaign stops: same N, same EarlyStopped, same
// counts.
func TestDistributedTargetCI(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, LeaseTTL: 2 * time.Second})
	const n, seed, target = 300, 99, 15.0
	id := submitCampaign(t, ts, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": n, "seed": seed, "batch": 20,
		"target_ci": target, "distributed": true, "shard_size": 35, "local_workers": 2,
	})
	startWorker(t, ts, "ci-worker")
	st := waitFor(t, ts, id, 120*time.Second, terminal)
	if st.State != "done" {
		t.Fatalf("job ended %q (%s), want done", st.State, st.Error)
	}
	p, inst := conv1dFI(t)
	want, err := fault.Campaign(context.Background(), p, core.Unsafe, inst,
		fault.Config{N: n, Seed: seed, Batch: 20, TargetCI: target})
	if err != nil {
		t.Fatal(err)
	}
	if !want.EarlyStopped {
		t.Fatalf("reference campaign ran all %d runs; the test needs an early stop", n)
	}
	if st.Result.N != want.N || st.Result.EarlyStopped != want.EarlyStopped || st.Result.Requested != n ||
		!countsEqual(st.Result.Counts, countsOf(want)) {
		t.Errorf("distributed TargetCI result %+v, want N=%d early=%v counts %v",
			st.Result, want.N, want.EarlyStopped, countsOf(want))
	}
}

// TestRunTimeoutFieldRetired: the per-injection wall-clock deadline is
// gone. A submission still carrying it is refused with a typed 400,
// and a job file a previous daemon persisted with it ends failed after
// a restart, never running as some other campaign.
func TestRunTimeoutFieldRetired(t *testing.T) {
	dir := t.TempDir()
	const id = "c-00000000cafe"
	spec := `{"id":"` + id + `","request":{"bench":"conv1d","scheme":"unsafe","n":20,"seed":5,` +
		`"run_timeout_ms":100},"submitted_at":"2020-02-22T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, id+".job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{CheckpointDir: dir})

	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/campaigns", map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": 20, "run_timeout_ms": 100,
	}, &raw)
	if code != http.StatusBadRequest {
		t.Fatalf("submit with run_timeout_ms: status %d, want 400", code)
	}
	if got := errCode(t, raw); got != "retired_field" {
		t.Errorf("submit with run_timeout_ms: code %q, want retired_field", got)
	}

	st := waitFor(t, ts, id, 60*time.Second, terminal)
	if st.State != "failed" || !strings.Contains(st.Error, "run_timeout_ms") {
		t.Fatalf("resumed job ended %q (%s), want failed naming run_timeout_ms", st.State, st.Error)
	}
	if st.Result != nil && st.Result.N != 0 {
		t.Errorf("resumed job ran %d replicas; want none", st.Result.N)
	}
}

// TestJobStoreTempSwept: a crash inside an atomic job-store write
// leaves a temp file beside the intact spec. The restarted daemon
// sweeps the temp, starts, and runs the job to its exact counts.
func TestJobStoreTempSwept(t *testing.T) {
	dir := t.TempDir()
	const id, n, seed = "c-0000000000aa", 40, 17
	spec := fmt.Sprintf(`{"id":%q,"request":{"bench":"conv1d","scheme":"unsafe","n":%d,"seed":%d},"submitted_at":"2020-02-22T00:00:00Z"}`, id, n, seed)
	if err := os.WriteFile(filepath.Join(dir, id+".job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, strings.Replace(fault.TempPattern(id+".job.json"), "*", "12345", 1))
	if err := os.WriteFile(torn, []byte(spec[:len(spec)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{CheckpointDir: dir})
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn temp %s survived the startup sweep (stat err: %v)", torn, err)
	}
	st := waitFor(t, ts, id, 60*time.Second, terminal)
	if st.State != "done" {
		t.Fatalf("job ended %q (%s), want done", st.State, st.Error)
	}
	p, inst := conv1dFI(t)
	want, err := fault.Campaign(context.Background(), p, core.Unsafe, inst, fault.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !countsEqual(st.Result.Counts, countsOf(want)) {
		t.Errorf("counts %v, want %v", st.Result.Counts, countsOf(want))
	}
}

// TestDistributedDrainResumes drains a daemon mid-way through a
// distributed campaign and restarts it on the same checkpoint dir. The
// ledger's checkpoint resumes the job — the merged shards are not run
// again — to counts equal to the single-node campaign.
func TestDistributedDrainResumes(t *testing.T) {
	dir := t.TempDir()
	const n, seed = 1500, 4243
	s1, err := server.New(server.Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := submitCampaign(t, ts1, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": n, "seed": seed, "batch": 25, "workers": 2,
		"distributed": true, "shard_size": 50,
	})
	waitFor(t, ts1, id, 120*time.Second, func(st statusResp) bool { return st.Done >= 50 })
	drain(t, s1, ts1)
	if st := getStatusDir(t, dir, id); st != "" {
		t.Fatalf("drained job persisted outcome %q, want none (resumable)", st)
	}

	o := &obs.Obs{Metrics: obs.NewMetrics()}
	_, ts2 := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir, Obs: o})
	final := waitFor(t, ts2, id, 180*time.Second, terminal)
	if final.State != "done" || final.Result == nil || final.Result.N != n {
		t.Fatalf("resumed job finished %+v, want done with %d runs", final, n)
	}
	p, inst := conv1dFI(t)
	want, err := fault.Campaign(context.Background(), p, core.Unsafe, inst, fault.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !countsEqual(final.Result.Counts, countsOf(want)) {
		t.Errorf("resumed counts %v, want %v", final.Result.Counts, countsOf(want))
	}
	if skipped := o.M().Snapshot()["fault_injections_skipped_total"]; skipped <= 0 {
		t.Errorf("fault_injections_skipped_total = %v after resume, want > 0", skipped)
	}
}

// getStatusDir reads the persisted terminal state of a job ("" when
// the job has no outcome file, i.e. is resumable).
func getStatusDir(t *testing.T, dir, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".result.json"))
	if os.IsNotExist(err) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	var oc struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &oc); err != nil {
		t.Fatal(err)
	}
	return oc.State
}

// leaseShard leases one shard of the daemon's only distributed job as
// worker "manual", polling while the job is still preparing.
func leaseShard(t *testing.T, ts *httptest.Server) fabric.WireLease {
	t.Helper()
	body, err := json.Marshal(fabric.WireLeaseRequest{Worker: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/fabric/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var lease fabric.WireLease
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&lease)
		}
		resp.Body.Close()
		switch {
		case err != nil:
			t.Fatal(err)
		case resp.StatusCode == http.StatusOK:
			return lease
		case resp.StatusCode != http.StatusNoContent || time.Now().After(deadline):
			t.Fatalf("lease status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// deliverShard runs the leased shard on x and completes the lease.
func deliverShard(t *testing.T, ts *httptest.Server, x *fault.Executor, lease fabric.WireLease) {
	t.Helper()
	if lease.PlanKey != x.Key() {
		t.Fatalf("plan key %q, want %q", lease.PlanKey, x.Key())
	}
	payload, err := x.RunShard(context.Background(), lease.Shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/fabric/complete", fabric.WireComplete{
		Worker: "manual", JobID: lease.JobID, Shard: lease.Shard.ID, Payload: payload,
	}, nil); code != http.StatusOK {
		t.Fatalf("complete status %d", code)
	}
}

// TestDistributedLedgerCrashConsistency kills an rskipd distributed
// job at every persistence step of its ledger. The test is the only
// worker until the cut, so the cut is exact: after the k-th merged
// shard the daemon drains, and a restarted daemon with a real worker
// must finish the job to the single-node counts; or the checkpoint
// write of the (k+1)-th shard fails, and the job must end failed with
// the write error instead of a count.
func TestDistributedLedgerCrashConsistency(t *testing.T) {
	const n, seed, shard = 60, 31, 15
	p, inst := conv1dFI(t)
	cfg := fault.Config{N: n, Seed: seed}
	want, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := fault.NewExecutor(context.Background(), p, core.SWIFTR, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"bench": "conv1d", "scheme": "swiftr", "n": n, "seed": seed,
		"distributed": true, "shard_size": shard, "local_workers": -1}
	for k := 0; k <= n/shard; k++ {
		t.Run(fmt.Sprintf("drain-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s1, err := server.New(server.Config{Workers: 1, CheckpointDir: dir, LeaseTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			id := submitCampaign(t, ts1, req)
			for i := 0; i < k; i++ {
				deliverShard(t, ts1, x, leaseShard(t, ts1))
			}
			if st := getStatus(t, ts1, id); st.Done != k*shard {
				t.Fatalf("after %d shards the job reports %d runs done, want %d", k, st.Done, k*shard)
			}
			drain(t, s1, ts1)

			_, ts2 := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir})
			startWorker(t, ts2, "finisher")
			final := waitFor(t, ts2, id, 120*time.Second, terminal)
			if final.State != "done" || !countsEqual(final.Result.Counts, countsOf(want)) {
				t.Fatalf("restarted job ended %+v, want done with counts %v", final, countsOf(want))
			}
		})
	}
	for k := 0; k < n/shard; k++ {
		t.Run(fmt.Sprintf("save-%d-fails", k+1), func(t *testing.T) {
			dir := t.TempDir()
			_, ts := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir, LeaseTTL: time.Minute})
			id := submitCampaign(t, ts, req)
			for i := 0; i < k; i++ {
				deliverShard(t, ts, x, leaseShard(t, ts))
			}
			// A directory where the checkpoint goes: the rename that
			// publishes the next save fails. The lease comes first, so
			// the ledger has already read its (absent) checkpoint.
			lease := leaseShard(t, ts)
			ck := filepath.Join(dir, id+".ck.json")
			if err := os.Remove(ck); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(ck, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
			deliverShard(t, ts, x, lease)
			final := waitFor(t, ts, id, 60*time.Second, terminal)
			if final.State != "failed" || !strings.Contains(final.Error, "writing checkpoint") {
				t.Fatalf("job ended %q (%s), want failed with the checkpoint write error", final.State, final.Error)
			}
		})
	}
}
