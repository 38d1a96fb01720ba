package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/server"
)

// newTestServer boots a daemon with test-friendly limits and an
// httptest listener, and tears both down (drain first, so streams and
// jobs end before the listener closes).
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// postJSON posts a JSON body and decodes the JSON response into out
// (when out is non-nil), returning the status code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body, out)
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response (status %d): %v\n%s", method, url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode
}

// errCode extracts the structured error code of a non-2xx response.
func errCode(t *testing.T, raw map[string]any) string {
	t.Helper()
	e, ok := raw["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no structured error body: %v", raw)
	}
	code, _ := e["code"].(string)
	if msg, _ := e["message"].(string); msg == "" {
		t.Errorf("error body has empty message: %v", raw)
	}
	return code
}

const testKernelSource = `
void kernel(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int acc = 0;
		for (int j = 0; j < 4; j = j + 1) {
			acc = acc + a[i + j] * 3;
		}
		out[i] = acc;
	}
}
`

func TestHealthzMetricsPprof(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Draining {
		t.Errorf("healthz = %+v, want ok and not draining", health)
	}

	var metrics map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if _, ok := metrics["server_requests_total"]; !ok {
		t.Errorf("metrics registry lacks server_requests_total: have %d metrics", len(metrics))
	}

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}
}

func TestCompileSourceHappyPath(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	req := map[string]any{
		"name": "e2e.mc", "source": testKernelSource, "kernel": "kernel",
		"include_rir": true,
	}
	var resp struct {
		Name       string `json:"name"`
		Kernel     string `json:"kernel"`
		Cached     bool   `json:"cached"`
		Candidates []any  `json:"candidates"`
		Schemes    map[string]struct {
			Functions    int    `json:"functions"`
			Instructions int    `json:"instructions"`
			PPLoops      int    `json:"pp_loops"`
			RIR          string `json:"rir"`
		} `json:"schemes"`
	}
	if code := postJSON(t, ts.URL+"/v1/compile", req, &resp); code != 200 {
		t.Fatalf("compile status %d", code)
	}
	if resp.Cached {
		t.Error("first compile reported cached")
	}
	if len(resp.Candidates) == 0 {
		t.Error("no candidate loops reported")
	}
	if len(resp.Schemes) != 4 {
		t.Fatalf("got %d scheme variants, want 4: %v", len(resp.Schemes), resp.Schemes)
	}
	unsafe, swift := resp.Schemes["UNSAFE"], resp.Schemes["SWIFT"]
	if unsafe.Instructions == 0 || swift.Instructions <= unsafe.Instructions {
		t.Errorf("static sizes look wrong: UNSAFE=%d SWIFT=%d", unsafe.Instructions, swift.Instructions)
	}
	if rskip := resp.Schemes["RSkip"]; rskip.PPLoops == 0 {
		t.Error("RSkip variant has no PP loops")
	}
	for name, sc := range resp.Schemes {
		if sc.RIR == "" {
			t.Errorf("scheme %s: include_rir requested but RIR empty", name)
		} else if !strings.Contains(sc.RIR, "func") {
			t.Errorf("scheme %s: RIR does not look like a module", name)
		}
	}

	// An identical second submission must be served from the shared
	// build cache.
	if code := postJSON(t, ts.URL+"/v1/compile", req, &resp); code != 200 {
		t.Fatalf("second compile status %d", code)
	}
	if !resp.Cached {
		t.Error("identical recompile was not served from the build cache")
	}
}

func TestCompileBuiltinBench(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var resp struct {
		Kernel  string         `json:"kernel"`
		Schemes map[string]any `json:"schemes"`
	}
	code := postJSON(t, ts.URL+"/v1/compile",
		map[string]any{"bench": "conv1d", "schemes": []string{"unsafe", "rskip"}}, &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Kernel != "kernel" {
		t.Errorf("kernel = %q", resp.Kernel)
	}
	if len(resp.Schemes) != 2 {
		t.Errorf("got %d schemes, want the 2 requested", len(resp.Schemes))
	}
}

// Malformed submissions must produce structured 4xx error bodies, not
// 500s or empty responses.
func TestCompileErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name     string
		body     any
		wantCode int
		wantSlug string
	}{
		{"malformed MiniC", map[string]any{"source": "void kernel( {"}, 400, "compile_error"},
		{"lexer garbage", map[string]any{"source": "\x01\x02???"}, 400, "compile_error"},
		{"missing kernel fn", map[string]any{"source": testKernelSource, "kernel": "nope"}, 400, "unknown_kernel"},
		{"no source or bench", map[string]any{"name": "x.mc"}, 400, "missing_source"},
		{"unknown bench", map[string]any{"bench": "definitely-not-a-bench"}, 404, "unknown_bench"},
		{"unknown scheme", map[string]any{"source": testKernelSource, "kernel": "kernel", "schemes": []string{"tmr9"}}, 400, "unknown_scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var raw map[string]any
			code := postJSON(t, ts.URL+"/v1/compile", tc.body, &raw)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (%v)", code, tc.wantCode, raw)
			}
			if got := errCode(t, raw); got != tc.wantSlug {
				t.Errorf("error code %q, want %q", got, tc.wantSlug)
			}
		})
	}

	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || errCode(t, raw) != "bad_request" {
		t.Errorf("non-JSON body: status %d code %v", resp.StatusCode, raw)
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxBodyBytes: 256})
	big := map[string]any{"source": strings.Repeat("// padding\n", 200) + testKernelSource, "kernel": "kernel"}
	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/compile", big, &raw)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%v)", code, raw)
	}
	if got := errCode(t, raw); got != "body_too_large" {
		t.Errorf("error code %q, want body_too_large", got)
	}
}

func TestRunHappyPath(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var resp struct {
		Scheme        string  `json:"scheme"`
		Instrs        uint64  `json:"instrs"`
		GoldenInstrs  uint64  `json:"golden_instrs"`
		Overhead      float64 `json:"overhead"`
		OutputMatches bool    `json:"output_matches"`
		SkipRate      float64 `json:"skip_rate"`
	}
	code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"bench": "conv1d", "scheme": "rskip", "scale": "tiny", "train": 1}, &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.OutputMatches {
		t.Error("fault-free RSkip output does not match the unprotected run")
	}
	if resp.Instrs <= resp.GoldenInstrs {
		t.Errorf("protected run executed %d instrs, golden %d — protection overhead missing", resp.Instrs, resp.GoldenInstrs)
	}
	if resp.SkipRate <= 0 {
		t.Errorf("skip rate %v, want > 0 for rskip", resp.SkipRate)
	}

	var raw map[string]any
	if code := postJSON(t, ts.URL+"/v1/run", map[string]any{"bench": "conv1d", "scheme": "rskip", "scale": "huge"}, &raw); code != 400 {
		t.Fatalf("unknown scale: status %d", code)
	} else if errCode(t, raw) != "unknown_scale" {
		t.Errorf("unknown scale: code %v", raw)
	}

	// Training seeds are allocated up front, so "train" is bounded.
	raw = nil
	if code := postJSON(t, ts.URL+"/v1/run", map[string]any{"bench": "conv1d", "scheme": "rskip", "train": 1000000000}, &raw); code != 400 {
		t.Fatalf("oversized train: status %d", code)
	} else if errCode(t, raw) != "bad_request" {
		t.Errorf("oversized train: code %v", raw)
	}
}

// A run that exceeds its wall-clock budget must come back as a
// structured 504, not hang the handler.
func TestRunTimeout(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"bench": "sgemm", "scheme": "unsafe", "scale": "perf", "timeout_ms": 1}, &raw)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", code, raw)
	}
	if got := errCode(t, raw); got != "run_timeout" {
		t.Errorf("error code %q, want run_timeout", got)
	}
}

// submitCampaign posts a campaign and returns the job ID.
func submitCampaign(t *testing.T, ts *httptest.Server, body map[string]any) string {
	t.Helper()
	var resp struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if code := postJSON(t, ts.URL+"/v1/campaigns", body, &resp); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if resp.ID == "" || resp.State != "queued" {
		t.Fatalf("submit response %+v", resp)
	}
	return resp.ID
}

type statusResp struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	N      int    `json:"n"`
	Error  string `json:"error"`
	Result *struct {
		N            int            `json:"n"`
		Requested    int            `json:"requested"`
		EarlyStopped bool           `json:"early_stopped"`
		Counts       map[string]int `json:"counts"`
		Exhaustive   bool           `json:"exhaustive"`
		Protection   float64        `json:"protection_rate"`
		Incremental  bool           `json:"incremental"`
		Regions      int            `json:"regions"`
		CacheHits    int            `json:"cache_hits"`
		CacheMisses  int            `json:"cache_misses"`
	} `json:"result"`
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResp {
	t.Helper()
	var st statusResp
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+id, nil, &st); code != 200 {
		t.Fatalf("status endpoint returned %d", code)
	}
	return st
}

// waitFor polls the job status until pred is satisfied or the
// deadline passes.
func waitFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(statusResp) bool) statusResp {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for job %s; last status %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func terminal(st statusResp) bool {
	return st.State == "done" || st.State == "failed" || st.State == "cancelled"
}

// TestCampaignLifecycle submits a campaign, waits for completion, and
// checks the outcome distribution is bit-identical to running the
// same campaign directly through the fault engine.
func TestCampaignLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const n, seed = 120, 777
	id := submitCampaign(t, ts, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": n, "seed": seed, "batch": 30,
	})
	st := waitFor(t, ts, id, 120*time.Second, terminal)
	if st.State != "done" {
		t.Fatalf("job finished %q (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || st.Result.N != n || st.Done != n {
		t.Fatalf("result %+v done=%d, want %d completed runs", st.Result, st.Done, n)
	}
	sum := 0
	for _, c := range st.Result.Counts {
		sum += c
	}
	if sum != n {
		t.Errorf("class counts sum to %d, want %d", sum, n)
	}

	// Reference: the same campaign, run directly.
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fault.Campaign(context.Background(), p, core.Unsafe,
		b.Gen(bench.TestSeed(0), bench.ScaleFI), fault.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		if st.Result.Counts[c.String()] != ref.Counts[c] {
			t.Errorf("class %s: server %d, direct %d — server campaign not bit-identical",
				c, st.Result.Counts[c.String()], ref.Counts[c])
		}
	}

	// The listing includes the finished job.
	var list []statusResp
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns", nil, &list); code != 200 {
		t.Fatalf("list status %d", code)
	}
	found := false
	for _, item := range list {
		found = found || item.ID == id
	}
	if !found {
		t.Errorf("job %s missing from the listing", id)
	}

	// Unknown IDs are structured 404s.
	var raw map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/nope", nil, &raw); code != 404 {
		t.Errorf("unknown job status %d, want 404", code)
	} else if errCode(t, raw) != "unknown_job" {
		t.Errorf("unknown job code %v", raw)
	}
}

// TestCampaignStreamAndCancel follows the JSONL progress stream of a
// long campaign, cancels it mid-run, and checks the partial result
// survives.
func TestCampaignStreamAndCancel(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	id := submitCampaign(t, ts, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": 200000, "batch": 25, "workers": 1,
	})

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	type ev struct {
		State string `json:"state"`
		Done  int    `json:"done"`
		N     int    `json:"n"`
	}
	var events []ev
	cancelled := false
	for sc.Scan() {
		var e ev
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
		if e.Done > 0 && !cancelled {
			cancelled = true
			if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil, nil); code != http.StatusAccepted {
				t.Fatalf("cancel status %d", code)
			}
		}
		if e.State == "cancelled" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("stream produced no events")
	}
	last := events[len(events)-1]
	if last.State != "cancelled" {
		t.Fatalf("final stream state %q, want cancelled (events: %d)", last.State, len(events))
	}
	if last.Done <= 0 || last.Done >= 200000 {
		t.Errorf("cancelled campaign completed %d runs, want a mid-run partial", last.Done)
	}
	prev := 0
	for i, e := range events {
		if e.Done < prev {
			t.Errorf("event %d: done regressed %d -> %d", i, prev, e.Done)
		}
		prev = e.Done
	}

	st := waitFor(t, ts, id, 30*time.Second, terminal)
	if st.State != "cancelled" {
		t.Fatalf("status after cancel %q", st.State)
	}
	if st.Result == nil || st.Result.N != st.Done || st.Done == 0 {
		t.Errorf("cancelled job lost its partial result: %+v", st)
	}

	// Cancelling again is idempotent.
	var again statusResp
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil, &again); code != http.StatusAccepted {
		t.Errorf("re-cancel status %d", code)
	}
	if again.State != "cancelled" {
		t.Errorf("re-cancel state %q", again.State)
	}

	// Streaming a finished job yields exactly one terminal line.
	resp2, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(bytes.TrimSpace(lines), []byte("\n")) + 1; n != 1 {
		t.Errorf("stream of a finished job wrote %d lines, want 1", n)
	}
}

// TestQueueBackpressure saturates a 1-worker, 1-slot queue and checks
// the structured 429.
func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	long := map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 500000, "batch": 25, "workers": 1}

	idA := submitCampaign(t, ts, long)
	waitFor(t, ts, idA, 60*time.Second, func(st statusResp) bool { return st.State == "running" })
	idB := submitCampaign(t, ts, long) // fills the queue slot

	var raw map[string]any
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(mustJSON(t, long)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d, want 429 (%v)", resp.StatusCode, raw)
	}
	if got := errCode(t, raw); got != "queue_full" {
		t.Errorf("error code %q, want queue_full", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}

	// Cancel both; the queued job must cancel without ever running.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+idB, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel queued job: status %d", code)
	}
	stB := getStatus(t, ts, idB)
	if stB.State != "cancelled" {
		t.Errorf("queued job state %q after cancel, want cancelled", stB.State)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+idA, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel running job: status %d", code)
	}
	waitFor(t, ts, idA, 30*time.Second, terminal)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSyncSaturation429 exhausts the synchronous work slots.
func TestSyncSaturation429(t *testing.T) {
	s, ts := newTestServer(t, server.Config{SyncLimit: 1})
	_ = s
	// Hold the only slot with a slow perf run in the background. The
	// polling compiles below contend for the same slot, so the run
	// itself may be refused with 429 before it gets in; it retries
	// until it holds the slot, or the poll loop would wait on nothing.
	started := make(chan struct{})
	done := make(chan int)
	go func() {
		close(started)
		for {
			code := postJSON(t, ts.URL+"/v1/run",
				map[string]any{"bench": "sgemm", "scheme": "unsafe", "scale": "perf", "timeout_ms": 5000}, nil)
			if code != http.StatusTooManyRequests {
				done <- code
				return
			}
		}
	}()
	<-started
	// Poll until the slot is actually held, then expect 429.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var raw map[string]any
		code := postJSON(t, ts.URL+"/v1/compile", map[string]any{"bench": "conv1d"}, &raw)
		if code == http.StatusTooManyRequests {
			if got := errCode(t, raw); got != "saturated" {
				t.Errorf("error code %q, want saturated", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed a 429 while the only sync slot was busy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := <-done; code != 200 && code != http.StatusGatewayTimeout {
		t.Errorf("background run finished with status %d", code)
	}
}

// TestDrainRejectsSubmissions checks the drain path refuses new work
// with a structured 503 while still serving reads.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/campaigns", map[string]any{"bench": "conv1d", "scheme": "unsafe"}, &raw)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	if got := errCode(t, raw); got != "draining" {
		t.Errorf("error code %q, want draining", got)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != 200 || !health.Draining {
		t.Errorf("healthz during drain: status %d draining %v", code, health.Draining)
	}
}

// campaignCounts compares two count maps.
func countsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDrainAndResume is the acceptance scenario: SIGTERM-style drain
// interrupts a running campaign mid-flight, the checkpoint it left is
// resumable, and a fresh daemon on the same checkpoint dir completes
// the job to counts bit-identical to an uninterrupted campaign. A
// progress gate holds the campaign at its first merged shard until
// the drain cancels it, so the drain always lands mid-campaign.
func TestDrainAndResume(t *testing.T) {
	dir := t.TempDir()
	const n, seed = 400, 4242

	s1, err := server.New(server.Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	var once sync.Once
	server.SetProgressGate(s1, func(ctx context.Context, pr fault.Progress) {
		if pr.Done > 0 && pr.Done < pr.N {
			once.Do(func() { close(reached) })
			<-ctx.Done()
		}
	})
	ts1 := httptest.NewServer(s1.Handler())
	id := submitCampaign(t, ts1, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": n, "seed": seed, "batch": 25, "workers": 2,
	})
	// Let it make real progress, then drain mid-campaign.
	select {
	case <-reached:
	case <-time.After(120 * time.Second):
		t.Fatal("the campaign merged no shard within 120s")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := getStatus(t, ts1, id)
	if st.State != "queued" {
		t.Fatalf("drained job state %q, want queued (resumable)", st.State)
	}
	if st.Done == 0 || st.Done >= n {
		t.Fatalf("drained job done=%d, want a mid-campaign partial", st.Done)
	}
	interrupted := st.Done
	ts1.Close()

	// A new daemon on the same dir resumes and completes the job.
	s2, ts2 := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir})
	_ = s2
	final := waitFor(t, ts2, id, 180*time.Second, terminal)
	if final.State != "done" {
		t.Fatalf("resumed job finished %q (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.N != n {
		t.Fatalf("resumed job result %+v, want %d runs", final.Result, n)
	}
	t.Logf("drained at %d/%d completed runs, resumed to completion", interrupted, n)

	// Bit-identity with an uninterrupted campaign.
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fault.Campaign(context.Background(), p, core.Unsafe,
		b.Gen(bench.TestSeed(0), bench.ScaleFI), fault.Config{N: n, Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		want[c.String()] = ref.Counts[c]
	}
	if !countsEqual(final.Result.Counts, want) {
		t.Errorf("resumed counts %v != uninterrupted counts %v", final.Result.Counts, want)
	}
}

// TestRestartServesFinishedJobs checks terminal results survive a
// daemon restart.
func TestRestartServesFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := server.New(server.Config{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := submitCampaign(t, ts1, map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 60, "seed": 9})
	first := waitFor(t, ts1, id, 120*time.Second, terminal)
	if first.State != "done" {
		t.Fatalf("job finished %q", first.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, server.Config{CheckpointDir: dir})
	st := getStatus(t, ts2, id)
	if st.State != "done" || st.Result == nil || !countsEqual(st.Result.Counts, firstCounts(first)) {
		t.Errorf("restarted daemon serves %+v, want the original done result", st)
	}
}

func firstCounts(st statusResp) map[string]int {
	if st.Result == nil {
		return nil
	}
	return st.Result.Counts
}

// TestCampaignFaultModels exercises the fault_model field end to end:
// structured 400s for unknown models and bad exhaustive requests, a
// sampled skip campaign bit-identical to the direct engine, and an
// exhaustive skip job on a micro-kernel proving the hardened scheme.
func TestCampaignFaultModels(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// Unknown model: structured 400 with a dedicated code.
	var raw map[string]any
	code := postJSON(t, ts.URL+"/v1/campaigns", map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "fault_model": "cosmic-ray",
	}, &raw)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown fault model status %d, want 400", code)
	}
	if got := errCode(t, raw); got != "unknown_fault_model" {
		t.Errorf("unknown fault model code %q, want unknown_fault_model", got)
	}

	// Exhaustive with an explicit n: rejected at validation, before a
	// queue slot is consumed.
	raw = nil
	code = postJSON(t, ts.URL+"/v1/campaigns", map[string]any{
		"bench": "musum", "scheme": "swiftrhard", "fault_model": "skip",
		"exhaustive": true, "n": 50,
	}, &raw)
	if code != http.StatusBadRequest {
		t.Fatalf("exhaustive+n status %d, want 400", code)
	}
	if got := errCode(t, raw); got != "bad_campaign" {
		t.Errorf("exhaustive+n code %q, want bad_campaign", got)
	}

	// Sampled skip campaign: bit-identical to the direct engine with
	// the same seed and mix.
	const n, seed = 80, 4242
	id := submitCampaign(t, ts, map[string]any{
		"bench": "conv1d", "scheme": "swiftr", "fault_model": "skip",
		"n": n, "seed": seed,
	})
	st := waitFor(t, ts, id, 120*time.Second, terminal)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("skip job finished %q (%s)", st.State, st.Error)
	}
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fault.Campaign(context.Background(), p, core.SWIFTR,
		b.Gen(bench.TestSeed(0), bench.ScaleFI),
		fault.Config{N: n, Seed: seed, Mix: fault.Mix{Skip: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		if st.Result.Counts[c.String()] != ref.Counts[c] {
			t.Errorf("class %s: server %d, direct %d — skip campaign not bit-identical",
				c, st.Result.Counts[c.String()], ref.Counts[c])
		}
	}

	// Exhaustive skip enumeration on a micro-kernel under the hardened
	// scheme: the run count is derived from the region, surfaces in the
	// status, and the protection rate is exactly 100%.
	id = submitCampaign(t, ts, map[string]any{
		"bench": "musum", "scheme": "swiftrhard", "fault_model": "skip",
		"exhaustive": true,
	})
	st = waitFor(t, ts, id, 300*time.Second, terminal)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("exhaustive job finished %q (%s)", st.State, st.Error)
	}
	if !st.Result.Exhaustive || st.Result.N == 0 {
		t.Fatalf("exhaustive result %+v, want exhaustive with a derived run count", st.Result)
	}
	if st.N != st.Result.N || st.Done != st.Result.N {
		t.Errorf("status n=%d done=%d, want both equal to the derived count %d", st.N, st.Done, st.Result.N)
	}
	if st.Result.Protection != 100 {
		t.Errorf("swiftrhard protection %.2f%% under exhaustive single skips, want exactly 100%%", st.Result.Protection)
	}
}

// TestRunBackendField exercises the wire backend selector: both
// backends, and the absent field, must produce identical simulated
// counters for the same request (they are bit-identical engines), and
// an unknown name — including the retired "fast" and "auto" — is a
// structured 400 unknown_backend at submit time on /v1/run and on
// /v1/campaigns.
func TestRunBackendField(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	type counts struct {
		Instrs uint64 `json:"instrs"`
		Cycles uint64 `json:"cycles"`
	}
	var ref counts
	for i, be := range []string{"reference", "compiled", ""} {
		var resp counts
		code := postJSON(t, ts.URL+"/v1/run", map[string]any{
			"bench": "conv1d", "scheme": "swiftr", "scale": "tiny",
			"config": map[string]any{"backend": be},
		}, &resp)
		if code != 200 {
			t.Fatalf("backend %q: status %d", be, code)
		}
		if i == 0 {
			ref = resp
			continue
		}
		if resp != ref {
			t.Errorf("backend %q: instrs/cycles %+v, reference %+v", be, resp, ref)
		}
	}

	for _, be := range []string{"turbo", "fast", "auto"} {
		var raw map[string]any
		if code := postJSON(t, ts.URL+"/v1/run", map[string]any{
			"bench": "conv1d", "scheme": "swiftr", "scale": "tiny",
			"config": map[string]any{"backend": be},
		}, &raw); code != 400 {
			t.Errorf("run backend %q: status %d, want 400", be, code)
		} else if got := errCode(t, raw); got != "unknown_backend" {
			t.Errorf("run backend %q: code %q, want unknown_backend", be, got)
		}

		// Campaign submissions reject bad backends before queueing.
		raw = nil
		if code := postJSON(t, ts.URL+"/v1/campaigns", map[string]any{
			"bench": "conv1d", "scheme": "unsafe", "n": 1,
			"config": map[string]any{"backend": be},
		}, &raw); code != 400 {
			t.Errorf("campaign backend %q: status %d, want 400", be, code)
		} else if got := errCode(t, raw); got != "unknown_backend" {
			t.Errorf("campaign backend %q: code %q, want unknown_backend", be, got)
		}
	}
}

// TestPersistedRetiredBackendFails restarts a daemon over a job spec
// that a previous version persisted with the retired "fast" backend.
// The spec passed submit-time validation back then, so it reaches the
// resume path unvalidated; it must end as a failed job carrying the
// unknown-backend error — never a panic, and never a silent run on
// some other engine.
func TestPersistedRetiredBackendFails(t *testing.T) {
	dir := t.TempDir()
	const id = "c-0123456789ab"
	spec := `{"id":"` + id + `","request":{"bench":"conv1d","scheme":"unsafe","n":20,"seed":5,` +
		`"config":{"backend":"fast"}},"submitted_at":"2020-02-22T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, id+".job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{CheckpointDir: dir})
	st := waitFor(t, ts, id, 60*time.Second, terminal)
	if st.State != "failed" {
		t.Fatalf("resumed job ended %q (%+v), want failed", st.State, st)
	}
	if !strings.Contains(st.Error, `unknown backend "fast"`) {
		t.Errorf("resumed job error %q, want the unknown-backend error", st.Error)
	}
	if st.Result != nil && st.Result.N != 0 {
		t.Errorf("resumed job ran %d replicas on some engine; want none", st.Result.N)
	}
}

// TestCampaignSizeLimits rejects an "n" or "train" too large to
// allocate as a 400 bad_campaign before a queue slot is consumed, and
// fails a persisted job that carries one on resume instead of running
// it.
func TestCampaignSizeLimits(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheDir: t.TempDir()})
	for _, body := range []map[string]any{
		{"bench": "conv1d", "scheme": "unsafe", "n": 4000000000},
		{"bench": "conv1d", "scheme": "unsafe", "n": 1000001},
		{"bench": "conv1d", "scheme": "unsafe", "incremental": true, "n": 4000000000},
		{"bench": "conv1d", "scheme": "rskip", "train": 1000000},
		{"bench": "conv1d", "scheme": "rskip", "train": 65},
	} {
		var raw map[string]any
		if code := postJSON(t, ts.URL+"/v1/campaigns", body, &raw); code != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400", body, code)
			continue
		}
		if got := errCode(t, raw); got != "bad_campaign" {
			t.Errorf("%v: code %q, want bad_campaign", body, got)
		}
	}

	dir := t.TempDir()
	const id = "c-0123456789ac"
	spec := `{"id":"` + id + `","request":{"bench":"conv1d","scheme":"unsafe","n":4000000000,"seed":5},` +
		`"submitted_at":"2020-02-22T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, id+".job.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, resumed := newTestServer(t, server.Config{CheckpointDir: dir})
	st := waitFor(t, resumed, id, 60*time.Second, terminal)
	if st.State != "failed" || !strings.Contains(st.Error, "exceeds the limit") {
		t.Errorf("resumed oversized job ended %q (%q), want failed on the limit", st.State, st.Error)
	}
}

// TestIncrementalCampaignValidation covers the submit-time rejections
// for incremental and stratified campaigns: without a result cache the
// server refuses incremental jobs with a dedicated code, and option
// conflicts are structured 400s before a queue slot is consumed.
func TestIncrementalCampaignValidation(t *testing.T) {
	// No -result-cache-dir: incremental submissions are refused.
	_, bare := newTestServer(t, server.Config{})
	var raw map[string]any
	code := postJSON(t, bare.URL+"/v1/campaigns", map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "incremental": true,
	}, &raw)
	if code != http.StatusBadRequest {
		t.Fatalf("incremental without cache dir: status %d, want 400", code)
	}
	if got := errCode(t, raw); got != "incremental_unavailable" {
		t.Errorf("incremental without cache dir: code %q, want incremental_unavailable", got)
	}

	// With a cache dir, conflicting options are config_conflict.
	_, ts := newTestServer(t, server.Config{ResultCacheDir: t.TempDir()})
	conflicts := []map[string]any{
		{"bench": "musum", "scheme": "swift", "fault_model": "skip",
			"incremental": true, "exhaustive": true},
		{"bench": "conv1d", "scheme": "swift", "incremental": true, "target_ci": 0.05},
		{"bench": "conv1d", "scheme": "swift", "incremental": true, "stratify": true},
		{"bench": "musum", "scheme": "swift", "fault_model": "skip",
			"stratify": true, "exhaustive": true},
		{"bench": "conv1d", "scheme": "swift", "stratify": true, "target_ci": 0.05},
	}
	for _, body := range conflicts {
		raw = nil
		if code := postJSON(t, ts.URL+"/v1/campaigns", body, &raw); code != http.StatusBadRequest {
			t.Fatalf("conflict %v: status %d, want 400", body, code)
		}
		if got := errCode(t, raw); got != "config_conflict" {
			t.Errorf("conflict %v: code %q, want config_conflict", body, got)
		}
	}
}

// TestIncrementalCampaignCacheHit submits the same incremental
// campaign twice against one result cache: the first run populates it
// (all misses), the second is served entirely from it (all hits) with
// figures identical to the cold run.
func TestIncrementalCampaignCacheHit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheDir: t.TempDir()})
	body := map[string]any{
		"bench": "conv1d", "scheme": "swift", "n": 60, "seed": 99,
		"incremental": true,
	}

	cold := waitFor(t, ts, submitCampaign(t, ts, body), 120*time.Second, terminal)
	if cold.State != "done" || cold.Result == nil {
		t.Fatalf("cold job finished %q (%s)", cold.State, cold.Error)
	}
	if !cold.Result.Incremental || cold.Result.Regions < 1 {
		t.Fatalf("cold result not incremental: %+v", cold.Result)
	}
	if cold.Result.CacheMisses != cold.Result.Regions || cold.Result.CacheHits != 0 {
		t.Errorf("cold cache traffic hits=%d misses=%d, want 0/%d",
			cold.Result.CacheHits, cold.Result.CacheMisses, cold.Result.Regions)
	}

	warm := waitFor(t, ts, submitCampaign(t, ts, body), 120*time.Second, terminal)
	if warm.State != "done" || warm.Result == nil {
		t.Fatalf("warm job finished %q (%s)", warm.State, warm.Error)
	}
	if warm.Result.CacheHits != warm.Result.Regions || warm.Result.CacheMisses != 0 {
		t.Errorf("warm cache traffic hits=%d misses=%d, want %d/0",
			warm.Result.CacheHits, warm.Result.CacheMisses, warm.Result.Regions)
	}

	// The served-from-cache figures are bit-identical to the cold run.
	if warm.Result.N != cold.Result.N || warm.Result.Regions != cold.Result.Regions {
		t.Errorf("warm n=%d regions=%d, cold n=%d regions=%d",
			warm.Result.N, warm.Result.Regions, cold.Result.N, cold.Result.Regions)
	}
	for class, n := range cold.Result.Counts {
		if warm.Result.Counts[class] != n {
			t.Errorf("class %s: warm %d, cold %d", class, warm.Result.Counts[class], n)
		}
	}
	if warm.Result.Protection != cold.Result.Protection {
		t.Errorf("warm protection %.4f, cold %.4f", warm.Result.Protection, cold.Result.Protection)
	}
}

// TestStratifiedCampaign runs a stratified campaign end to end and
// checks the per-class strata surface on the wire result.
func TestStratifiedCampaign(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	id := submitCampaign(t, ts, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": 80, "seed": 7, "stratify": true,
	})
	st := waitFor(t, ts, id, 120*time.Second, terminal)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("stratified job finished %q (%s)", st.State, st.Error)
	}
	var full struct {
		Result struct {
			Strata []struct {
				Class  string  `json:"class"`
				Weight float64 `json:"weight"`
				N      int     `json:"n"`
			} `json:"strata"`
		} `json:"result"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+id, nil, &full); code != 200 {
		t.Fatalf("status endpoint returned %d", code)
	}
	if len(full.Result.Strata) == 0 {
		t.Fatal("stratified result carries no strata")
	}
	total, weight := 0, 0.0
	for _, s := range full.Result.Strata {
		if s.Class == "" {
			t.Error("stratum with empty class name")
		}
		total += s.N
		weight += s.Weight
	}
	if total != st.Result.N {
		t.Errorf("strata replica counts sum to %d, want %d", total, st.Result.N)
	}
	if weight < 0.999 || weight > 1.001 {
		t.Errorf("strata weights sum to %.4f, want 1", weight)
	}
}

// TestOrphanSweepOnRestart: a campaign cancelled before its first
// checkpoint used to leave its <id>.job.json and <id>.result.json in
// the checkpoint dir forever. A restarted daemon now sweeps those —
// along with stray checkpoint temp files and checkpoint/result files
// whose job spec is gone — while leaving resumable jobs untouched.
func TestOrphanSweepOnRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := server.New(server.Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// Occupy the single worker so the victim stays queued: a queued
	// job is by construction cancelled before its first checkpoint.
	blocker := submitCampaign(t, ts1, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": 400, "seed": 1, "batch": 25, "workers": 2,
	})
	victim := submitCampaign(t, ts1, map[string]any{
		"bench": "conv1d", "scheme": "unsafe", "n": 200, "seed": 2,
	})
	if code := doJSON(t, http.MethodDelete, ts1.URL+"/v1/campaigns/"+victim, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel status %d", code)
	}
	if st := getStatus(t, ts1, victim); st.State != "cancelled" || st.Done != 0 {
		t.Fatalf("victim state %q done=%d, want cancelled with no runs", st.State, st.Done)
	}
	for _, f := range []string{victim + ".job.json", victim + ".result.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("cancelled job should persist %s until the sweep: %v", f, err)
		}
	}
	// Simulate crash debris: a checkpoint temp from a torn atomic save,
	// and checkpoint/result files whose job spec no longer exists.
	for _, f := range []string{".ck-123abc.json", "c-deadbeef0000.ck.json", "c-deadbeef0000.result.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Drain mid-campaign so the blocker is left resumable (job spec +
	// campaign checkpoint, no result) — the sweep must not touch it.
	waitFor(t, ts1, blocker, 120*time.Second, func(st statusResp) bool { return st.Done >= 25 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir})
	orphans := []string{
		victim + ".job.json", victim + ".result.json",
		".ck-123abc.json", "c-deadbeef0000.ck.json", "c-deadbeef0000.result.json",
	}
	for _, f := range orphans {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the startup sweep (stat err: %v)", f, err)
		}
	}
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/campaigns/"+victim, nil, nil); code != http.StatusNotFound {
		t.Errorf("swept job still served: GET returned %d, want 404", code)
	}
	// The resumable blocker survived the sweep and runs to completion.
	final := waitFor(t, ts2, blocker, 180*time.Second, terminal)
	if final.State != "done" || final.Result == nil || final.Result.N != 400 {
		t.Fatalf("resumed blocker finished %+v, want done with 400 runs", final)
	}
}

// TestDistributedCampaignOverHTTP runs a distributed campaign end to
// end over the real wire: the daemon is a pure coordinator
// (local_workers: -1) and every shard is pulled, executed and
// delivered by a Worker speaking the HTTP fabric protocol. The merged
// counts must be bit-identical to a plain single-node submission of
// the same campaign.
func TestDistributedCampaignOverHTTP(t *testing.T) {
	o := &obs.Obs{Metrics: obs.NewMetrics()}
	_, ts := newTestServer(t, server.Config{Workers: 2, LeaseTTL: 2 * time.Second, Obs: o})
	const n, seed = 120, 321
	spec := map[string]any{"bench": "conv1d", "scheme": "swiftr", "n": n, "seed": seed}
	ref := submitCampaign(t, ts, spec)

	dist := map[string]any{"distributed": true, "shard_size": 30, "local_workers": -1}
	for k, v := range spec {
		dist[k] = v
	}
	distID := submitCampaign(t, ts, dist)

	wk, err := server.NewWorker(server.WorkerConfig{
		Join: ts.URL, Name: "test-worker", Poll: 25 * time.Millisecond,
		Log: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = wk.Run(wctx) }()
	defer func() { wcancel(); <-workerDone }()

	refSt := waitFor(t, ts, ref, 120*time.Second, terminal)
	distSt := waitFor(t, ts, distID, 120*time.Second, terminal)
	if refSt.State != "done" || distSt.State != "done" {
		t.Fatalf("states ref=%q dist=%q (%s / %s), want done/done",
			refSt.State, distSt.State, refSt.Error, distSt.Error)
	}
	if distSt.Result == nil || distSt.Result.N != n {
		t.Fatalf("distributed result %+v, want %d runs", distSt.Result, n)
	}
	if !countsEqual(distSt.Result.Counts, refSt.Result.Counts) {
		t.Errorf("distributed counts %v != single-node counts %v",
			distSt.Result.Counts, refSt.Result.Counts)
	}
	// Every completed shard feeds exactly one shard-time observation.
	snap := o.M().Snapshot()
	if got, want := snap["fabric_shard_seconds_count"], snap["fabric_shards_completed_total"]; got != want || want != n/30 {
		t.Errorf("fabric_shard_seconds count %v, shards completed %v, want both %d", got, want, n/30)
	}
}

// TestWorkerKeepsOneExecutor: a worker that serves two distributed
// campaigns in turn ends holding only the second one's executor — a
// lease of another plan drops the last plan's executor instead of
// caching every campaign the worker ever served.
func TestWorkerKeepsOneExecutor(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, LeaseTTL: 2 * time.Second})
	wk, err := server.NewWorker(server.WorkerConfig{
		Join: ts.URL, Name: "test-worker", Poll: 25 * time.Millisecond, Workers: 2,
		Log: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = wk.Run(wctx) }()
	defer func() { wcancel(); <-workerDone }()

	var held []string
	for _, seed := range []int{5, 6} {
		id := submitCampaign(t, ts, map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 40, "seed": seed,
			"distributed": true, "shard_size": 20, "local_workers": -1})
		if st := waitFor(t, ts, id, 120*time.Second, terminal); st.State != "done" {
			t.Fatalf("seed %d: campaign finished %q (%s), want done", seed, st.State, st.Error)
		}
		held = append(held, server.WorkerPlanKey(wk))
	}
	if held[0] == "" || held[1] == "" || held[0] == held[1] {
		t.Errorf("the worker held the executor of plan %q after the first campaign and of %q after the second, want one each, the second a new plan", held[0], held[1])
	}
}

// TestDistributedRejectsConflictingOptions: a distributed campaign
// cannot also be incremental — the compositional analyzer shards by
// region, the fabric by index. TargetCI is no longer a conflict (see
// TestDistributedTargetCI).
func TestDistributedRejectsConflictingOptions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, extra := range []map[string]any{
		{"incremental": true},
	} {
		body := map[string]any{"bench": "conv1d", "scheme": "unsafe", "n": 50, "distributed": true}
		for k, v := range extra {
			body[k] = v
		}
		var raw map[string]any
		code := postJSON(t, ts.URL+"/v1/campaigns", body, &raw)
		if code != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400", extra, code)
			continue
		}
		if got := errCode(t, raw); got != "config_conflict" && got != "incremental_unavailable" {
			t.Errorf("%v: error code %q", extra, got)
		}
	}
}
