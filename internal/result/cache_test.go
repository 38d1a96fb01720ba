package result

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rskip/internal/fault"
)

func testResult(n int) fault.Result {
	r := fault.Result{N: n, Requested: n, Fired: n}
	r.Counts[fault.Correct] = n
	return r
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get("k1"); got != nil || err != nil {
		t.Fatalf("empty cache returned (%v, %v)", got, err)
	}
	want := testResult(7)
	if err := c.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.N != want.N || got.Counts != want.Counts {
		t.Errorf("round trip returned %+v, want %+v", got, want)
	}
	// Distinct keys address distinct entries.
	if got, _ := c.Get("k2"); got != nil {
		t.Error("k2 served k1's entry")
	}
}

// Every damage mode surfaces as *CorruptEntryError from Get — and
// GetOrRun transparently falls back to a live run that overwrites the
// damaged entry.
func TestCorruptEntryTypedErrorAndFallback(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, c *Cache, key string)
	}{
		{"truncated JSON", func(t *testing.T, c *Cache, key string) {
			if err := os.WriteFile(c.path(key), []byte(`{"version":1,"key`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong version", func(t *testing.T, c *Cache, key string) {
			data, _ := json.Marshal(Entry{Version: 99, Key: key, Result: testResult(1)})
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"key mismatch", func(t *testing.T, c *Cache, key string) {
			data, _ := json.Marshal(Entry{Version: entryVersion, Key: "other", Result: testResult(1)})
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// Entries that decode but hold counts no campaign could produce.
	for name, edit := range map[string]func(r *fault.Result){
		"negative count":     func(r *fault.Result) { r.Counts[fault.SDC] = -1; r.Counts[fault.Correct]++ },
		"counts short of N":  func(r *fault.Result) { r.Counts[fault.Correct]-- },
		"counts beyond N":    func(r *fault.Result) { r.Counts[fault.Hang] = 2 },
		"N above requested":  func(r *fault.Result) { r.Requested-- },
		"negative N":         func(r *fault.Result) { *r = fault.Result{N: -1} },
		"fired beyond N":     func(r *fault.Result) { r.Fired++ },
		"negative false neg": func(r *fault.Result) { r.FalseNeg = -1 },
		"recovered beyond N": func(r *fault.Result) { r.Recovered = r.N + 1 },
	} {
		cases = append(cases, struct {
			name   string
			damage func(t *testing.T, c *Cache, key string)
		}{name, func(t *testing.T, c *Cache, key string) {
			r := testResult(4)
			edit(&r)
			data, _ := json.Marshal(Entry{Version: entryVersion, Key: key, Result: r})
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}})
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = "campaign-key"
			tt.damage(t, c, key)

			_, gerr := c.Get(key)
			var ce *CorruptEntryError
			if !errors.As(gerr, &ce) {
				t.Fatalf("Get returned %v, want *CorruptEntryError", gerr)
			}
			if ce.Path != c.path(key) {
				t.Errorf("error names path %q, want %q", ce.Path, c.path(key))
			}

			// The fallback: GetOrRun runs live, reports a miss, and
			// heals the entry.
			ran := false
			res, cached, err := c.GetOrRun(key, func() (fault.Result, error) {
				ran = true
				return testResult(5), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !ran || cached {
				t.Errorf("corrupt entry did not fall back to a live run (ran=%v cached=%v)", ran, cached)
			}
			if res.N != 5 {
				t.Errorf("fallback returned %+v", res)
			}
			if got, err := c.Get(key); err != nil || got == nil || got.N != 5 {
				t.Errorf("entry not healed: (%+v, %v)", got, err)
			}
		})
	}
}

func TestGetOrRunCountsAndCoalesces(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	run := func() (fault.Result, error) {
		runs.Add(1)
		return testResult(3), nil
	}
	if _, cached, err := c.GetOrRun("k", run); err != nil || cached {
		t.Fatalf("first lookup: cached=%v err=%v", cached, err)
	}
	if _, cached, err := c.GetOrRun("k", run); err != nil || !cached {
		t.Fatalf("second lookup: cached=%v err=%v", cached, err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("run executed %d times, want 1", n)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("counters: %d hits / %d misses, want 1 / 1", c.Hits(), c.Misses())
	}

	// Concurrent identical keys coalesce onto one computation.
	c2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var c2runs atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c2.GetOrRun("shared", func() (fault.Result, error) {
				c2runs.Add(1)
				<-gate
				return testResult(1), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := c2runs.Load(); n != 1 {
		t.Errorf("concurrent lookups ran the computation %d times, want 1", n)
	}
	if c2.Hits()+c2.Misses() != 8 {
		t.Errorf("counters cover %d of 8 lookups", c2.Hits()+c2.Misses())
	}
	if c2.Misses() != 1 {
		t.Errorf("%d misses for one computation", c2.Misses())
	}
}

func TestGetOrRunPropagatesRunError(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("campaign failed")
	_, _, err = c.GetOrRun("k", func() (fault.Result, error) {
		return fault.Result{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want %v", err, boom)
	}
	// A failed run must not poison the cache: the next lookup runs.
	res, cached, err := c.GetOrRun("k", func() (fault.Result, error) {
		return testResult(2), nil
	})
	if err != nil || cached || res.N != 2 {
		t.Errorf("retry after failure: (%+v, %v, %v)", res, cached, err)
	}
}

// TestGetOrRunWaiterOutlivesFailedLeader pins that a failed
// computation fails only its own caller: a caller coalesced onto a run
// that returns context.Canceled, or that panics, runs the campaign
// itself and gets its result, as a concurrent rskipd job sharing a
// region key with a cancelled one must.
func TestGetOrRunWaiterOutlivesFailedLeader(t *testing.T) {
	for _, panics := range []bool{false, true} {
		t.Run(map[bool]string{false: "cancelled", true: "panicked"}[panics], func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res    fault.Result
				cached bool
				err    error
			}
			waiter := make(chan outcome)
			var waiterRuns atomic.Int32
			leader := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, _, err = c.GetOrRun("shared", func() (fault.Result, error) {
					arrived := make(chan struct{})
					go func() {
						close(arrived)
						res, cached, err := c.GetOrRun("shared", func() (fault.Result, error) {
							waiterRuns.Add(1)
							return testResult(5), nil
						})
						waiter <- outcome{res, cached, err}
					}()
					<-arrived
					// Give the second caller time to find this flight and
					// wait on it.
					time.Sleep(50 * time.Millisecond)
					if panics {
						panic("campaign panicked")
					}
					return fault.Result{}, context.Canceled
				})
				return err
			}
			if err := leader(); err == nil {
				t.Fatal("leader: no error")
			}
			got := <-waiter
			if got.err != nil || got.cached || got.res.N != 5 {
				t.Errorf("waiter: (%+v, cached %v, %v), want its own run's result", got.res, got.cached, got.err)
			}
			if n := waiterRuns.Load(); n != 1 {
				t.Errorf("waiter ran the campaign %d times, want 1", n)
			}
			again := func() (fault.Result, error) { return fault.Result{}, errors.New("ran again") }
			if res, cached, err := c.GetOrRun("shared", again); err != nil || !cached || res.N != 5 {
				t.Errorf("after the waiter's run: (%+v, cached %v, %v), want its result from the cache", res, cached, err)
			}
		})
	}
}

func TestNilCacheIsValid(t *testing.T) {
	var c *Cache
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("nil cache reports traffic")
	}
	if got, err := c.Get("k"); got != nil || err != nil {
		t.Errorf("nil cache Get returned (%v, %v)", got, err)
	}
	if err := c.Put("k", testResult(1)); err != nil {
		t.Errorf("nil cache Put errored: %v", err)
	}
	res, cached, err := c.GetOrRun("k", func() (fault.Result, error) {
		return testResult(4), nil
	})
	if err != nil || cached || res.N != 4 {
		t.Errorf("nil cache GetOrRun returned (%+v, %v, %v)", res, cached, err)
	}
}
