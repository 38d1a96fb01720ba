// Package result composes program-level fault-injection figures from
// per-region campaigns and caches those campaigns content-addressed on
// disk, so a source edit only re-runs the campaigns of the regions it
// touched (FastFlip's compose-per-section model mapped onto candidate
// loop regions; see DESIGN.md).
//
// The unit of caching is one region's campaign outcome, keyed by
// everything that determines it: the region's code fingerprint (the
// owning function's call closure under the scheme's pipeline), the
// scheme pipeline signature and build config, the trained profile, the
// instance identity, the fault model, and the sampling plan. The unit
// of composition is the partition-sum identity the fault engine
// guarantees — a RunRecord is a pure function of (program, scheme,
// instance, plan, budget) — which the differential tests in this
// package pin bit-for-bit against monolithic campaigns.
package result

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rskip/internal/fault"
)

// entryVersion guards the on-disk entry format.
const entryVersion = 1

// Entry is the JSON-persisted outcome of one per-region campaign. Key
// holds the full uncompressed spec the filename was hashed from, so a
// hash collision (or a mis-addressed file) is detected on load instead
// of silently serving another campaign's counts.
type Entry struct {
	Version int          `json:"version"`
	Key     string       `json:"key"`
	Result  fault.Result `json:"result"`
}

// CorruptEntryError reports a result-cache entry that exists but
// cannot be used — truncated, undecodable, the wrong version,
// addressed by a key it does not hold, or holding counts no campaign
// could produce. Callers fall back to a live
// campaign run and overwrite the entry (mirroring the fault package's
// CorruptCheckpointError discipline, except that a result entry is
// always safely reproducible, so the fallback is automatic).
type CorruptEntryError struct {
	Path string
	Err  error
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("result: cache entry %s is corrupt or mismatched (a live run will replace it): %v", e.Path, e.Err)
}

func (e *CorruptEntryError) Unwrap() error { return e.Err }

// Cache is a content-addressed store of per-region campaign results.
// Entries live as one JSON file per key under the cache directory;
// concurrent computations of the same key within a process are
// coalesced singleflight-style. A nil *Cache is valid and never hits.
type Cache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64

	mu       sync.Mutex
	inflight map[string]*flight
}

type flight struct {
	done chan struct{}
	res  fault.Result
	err  error
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result: opening cache: %w", err)
	}
	return &Cache{dir: dir, inflight: map[string]*flight{}}, nil
}

// Hits and Misses report cumulative lookup counters (hits include
// singleflight coalescing onto a concurrent identical computation).
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// path addresses a key's entry file: the filename is the key's hash,
// the key itself travels inside the entry for verification.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%x.json", sum))
}

// Get loads the entry for key. A missing entry returns (nil, nil); a
// damaged or mismatched one returns a *CorruptEntryError.
func (c *Cache) Get(key string) (*fault.Result, error) {
	if c == nil {
		return nil, nil
	}
	path := c.path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, &CorruptEntryError{Path: path, Err: err}
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, &CorruptEntryError{Path: path, Err: err}
	}
	if e.Version != entryVersion {
		return nil, &CorruptEntryError{Path: path,
			Err: fmt.Errorf("entry version %d, want %d", e.Version, entryVersion)}
	}
	if e.Key != key {
		return nil, &CorruptEntryError{Path: path,
			Err: fmt.Errorf("entry holds key %q", e.Key)}
	}
	if err := plausible(&e.Result); err != nil {
		return nil, &CorruptEntryError{Path: path, Err: err}
	}
	return &e.Result, nil
}

// plausible rejects a decoded result no campaign could produce: a
// damaged entry that still parses is recomputed instead of served.
func plausible(r *fault.Result) error {
	if r.N < 0 || r.N > r.Requested {
		return fmt.Errorf("entry holds %d runs of %d requested", r.N, r.Requested)
	}
	sum := 0
	for c, n := range r.Counts {
		if n < 0 || n > r.N-sum {
			return fmt.Errorf("entry's %v count %d does not fit %d runs", fault.Class(c), n, r.N)
		}
		sum += n
	}
	if sum != r.N {
		return fmt.Errorf("entry's class counts sum to %d, not its %d runs", sum, r.N)
	}
	for _, f := range []struct {
		name string
		n    int
	}{{"fired", r.Fired}, {"false-negative", r.FalseNeg}, {"recovered", r.Recovered}} {
		if f.n < 0 || f.n > r.N {
			return fmt.Errorf("entry's %s count %d is outside [0, %d]", f.name, f.n, r.N)
		}
	}
	return nil
}

// Put persists the result for key atomically (fault.WriteFileAtomic).
func (c *Cache) Put(key string, res fault.Result) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(Entry{Version: entryVersion, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("result: encoding cache entry: %w", err)
	}
	if err := fault.WriteFileAtomic(c.path(key), data); err != nil {
		return fmt.Errorf("result: writing cache entry: %w", err)
	}
	return nil
}

// GetOrRun returns the cached result for key, or computes it with run
// and persists it. Concurrent callers with the same key coalesce onto
// one computation. A caller waiting on a computation that fails or
// panics (its caller cancelled, say) tries again, running the
// computation itself unless another waiter already does. A corrupt
// entry is replaced by a live run, never surfaced as a failure. cached
// reports whether the result came from the cache (disk or coalesced)
// rather than this call's run.
func (c *Cache) GetOrRun(key string, run func() (fault.Result, error)) (res fault.Result, cached bool, err error) {
	if c == nil {
		res, err = run()
		return res, false, err
	}
	if got, gerr := c.Get(key); got != nil && gerr == nil {
		c.hits.Add(1)
		return *got, true, nil
	}
	// A CorruptEntryError from Get is deliberately swallowed here: the
	// live run below recomputes the same pure function and overwrites
	// the damaged file.

	var f *flight
	for f == nil {
		c.mu.Lock()
		if w, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-w.done
			if w.err != nil {
				continue
			}
			c.hits.Add(1)
			return w.res, true, nil
		}
		// A leader may have stored the entry and retired its flight
		// between the lookup above and taking the lock; it stores before
		// it retires, so a second lookup under the lock sees the entry
		// and does not run the computation again.
		if got, gerr := c.Get(key); got != nil && gerr == nil {
			c.mu.Unlock()
			c.hits.Add(1)
			return *got, true, nil
		}
		f = &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()
	}

	defer func() {
		f.res, f.err = res, err
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()

	c.misses.Add(1)
	err = errNoResult // what the waiters see if run panics
	res, err = run()
	if err != nil {
		return fault.Result{}, false, err
	}
	if perr := c.Put(key, res); perr != nil {
		return fault.Result{}, false, perr
	}
	return res, false, nil
}

// errNoResult is a flight's outcome when its computation panicked.
var errNoResult = errors.New("result: computation ended without a result")
