package httpx

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSleeper records requested delays instead of waiting — the fake
// clock that makes the retry schedule assertable.
type fakeSleeper struct {
	delays []time.Duration
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	return ctx.Err()
}

// noJitter pins the jitter draw to the distribution center so delays
// are exact.
func noJitter() float64 { return 0.5 }

// The fixed policy: 100ms doubling per attempt, capped at 5s.
func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second,
	}
	for attempt, w := range want {
		if got := delay(attempt, noJitter); got != w {
			t.Errorf("delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	lo := delay(0, func() float64 { return 0 })
	hi := delay(0, func() float64 { return 0.999999 })
	if lo >= hi {
		t.Fatalf("jitter produced no spread: lo %v, hi %v", lo, hi)
	}
	if lo < 90*time.Millisecond || hi > 110*time.Millisecond {
		t.Fatalf("jitter outside ±10%%: lo %v, hi %v", lo, hi)
	}
}

func TestPostJSONRetriesTransientStatuses(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	fs := &fakeSleeper{}
	c := &Client{Sleep: fs.sleep, Rand: noJitter}
	var out struct {
		OK bool `json:"ok"`
	}
	status, _, err := c.PostJSON(context.Background(), srv.URL, map[string]int{"x": 1}, &out)
	if err != nil || status != 200 || !out.OK {
		t.Fatalf("PostJSON = %d, %+v, %v", status, out, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// The two retries backed off exponentially from the fake clock's
	// point of view.
	if len(fs.delays) != 2 || fs.delays[0] != 100*time.Millisecond || fs.delays[1] != 200*time.Millisecond {
		t.Fatalf("delays = %v, want [100ms 200ms]", fs.delays)
	}
}

func TestPostJSONHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	fs := &fakeSleeper{}
	c := &Client{Sleep: fs.sleep, Rand: noJitter}
	status, _, err := c.PostJSON(context.Background(), srv.URL, nil, nil)
	if err != nil || status != 200 {
		t.Fatalf("PostJSON = %d, %v", status, err)
	}
	// Retry-After overrides the computed backoff.
	if len(fs.delays) != 1 || fs.delays[0] != 3*time.Second {
		t.Fatalf("delays = %v, want [3s]", fs.delays)
	}
}

func TestPostJSONDoesNotRetryCallerErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":{"code":"lease_lost"}}`))
	}))
	defer srv.Close()

	fs := &fakeSleeper{}
	c := &Client{Sleep: fs.sleep, Rand: noJitter}
	status, body, err := c.PostJSON(context.Background(), srv.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict || !strings.Contains(string(body), "lease_lost") {
		t.Fatalf("status %d body %q", status, body)
	}
	if calls.Load() != 1 || len(fs.delays) != 0 {
		t.Fatalf("409 was retried: %d calls, delays %v", calls.Load(), fs.delays)
	}
}

func TestPostJSONGivesUpAfterRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()

	fs := &fakeSleeper{}
	c := &Client{Sleep: fs.sleep, Rand: noJitter}
	status, _, err := c.PostJSON(context.Background(), srv.URL, nil, nil)
	// Exhausting retries on a retryable status surfaces the status, so
	// protocol-aware callers still see what the server last said.
	if err != nil || status != http.StatusBadGateway {
		t.Fatalf("PostJSON = %d, %v; want 502, nil", status, err)
	}
	if calls.Load() != 5 {
		t.Fatalf("server saw %d calls, want 5 (1 + 4 retries)", calls.Load())
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if !reflect.DeepEqual(fs.delays, want) {
		t.Fatalf("delays = %v, want %v", fs.delays, want)
	}
}

func TestPostJSONRetriesTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // every dial now fails

	fs := &fakeSleeper{}
	c := &Client{Sleep: fs.sleep, Rand: noJitter}
	if _, _, err := c.PostJSON(context.Background(), srv.URL, nil, nil); err == nil {
		t.Fatal("PostJSON succeeded against a closed server")
	}
	if len(fs.delays) != 4 {
		t.Fatalf("delays = %v, want 4 transport-error retries", fs.delays)
	}
}
