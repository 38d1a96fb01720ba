// Package httpx is the shared HTTP client plumbing for talking to an
// rskipd daemon: JSON POSTs with bounded retries, exponential backoff
// with jitter, and Retry-After awareness. Both the fabric worker loop
// and scripts' curl-replacement paths go through one implementation
// so retry behavior cannot drift between callers.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// The retry policy: up to retries re-attempts after the first try,
// delayed backoffBase·2^attempt capped at backoffMax, with a ±jitter/2
// fraction of randomization so a fleet of workers retrying against one
// coordinator does not thunder in step. A Retry-After header on a
// retryable response overrides the computed delay.
const (
	retries     = 4
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
	jitter      = 0.2
)

// delay computes the delay before retry attempt (0-based), using rnd
// in [0, 1) for jitter. The jitter is centered: delay·(1 ± jitter/2).
func delay(attempt int, rnd func() float64) time.Duration {
	d := float64(backoffBase)
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= float64(backoffMax) {
			d = float64(backoffMax)
			break
		}
	}
	d *= 1 + jitter*(rnd()-0.5)
	if d > float64(backoffMax) {
		d = float64(backoffMax)
	}
	return time.Duration(d)
}

// Client posts JSON with retries: only transport errors and
// 429/502/503/504 retry; other statuses are the server speaking, not
// the network failing. The zero value is the client every caller uses;
// the two fields are seams for tests.
type Client struct {
	// Sleep waits between attempts (default: timer + ctx). Injectable
	// so tests drive the retry loop with a fake clock.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand supplies jitter in [0, 1) (default math/rand).
	Rand func() float64
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableStatus reports statuses that signal transient server or
// proxy pressure rather than a caller error.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfter parses a Retry-After header: delta-seconds or an
// HTTP-date. ok is false when absent or unparseable.
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// PostJSON posts in as JSON and decodes a 2xx response body into out
// (skipped when out is nil). It returns the final attempt's status
// code; non-2xx statuses are not errors here — protocol handlers
// (409 lease_lost, 410 gone) inspect the code. The body of a non-2xx
// response is returned so callers can surface the server's error.
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) (status int, body []byte, err error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return 0, nil, fmt.Errorf("httpx: encoding request: %w", err)
	}
	rnd := c.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, fmt.Errorf("httpx: building request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			lastErr = err
			wait = delay(attempt, rnd)
		case retryableStatus(resp.StatusCode):
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			lastErr = fmt.Errorf("httpx: %s returned %d", url, resp.StatusCode)
			if ra, ok := retryAfter(resp.Header); ok {
				wait = ra
			} else {
				wait = delay(attempt, rnd)
			}
			if attempt >= retries {
				return resp.StatusCode, b, nil
			}
		default:
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
			resp.Body.Close()
			if rerr != nil {
				return resp.StatusCode, nil, fmt.Errorf("httpx: reading response: %w", rerr)
			}
			if resp.StatusCode/100 == 2 && out != nil && len(b) > 0 {
				if err := json.Unmarshal(b, out); err != nil {
					return resp.StatusCode, b, fmt.Errorf("httpx: decoding response: %w", err)
				}
			}
			return resp.StatusCode, b, nil
		}
		if attempt >= retries {
			return 0, nil, fmt.Errorf("httpx: %s failed after %d attempts: %w", url, attempt+1, lastErr)
		}
		if err := c.sleep(ctx, wait); err != nil {
			return 0, nil, err
		}
	}
}
