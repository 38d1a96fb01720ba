package fault

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rskip/internal/core"
	"rskip/internal/obs"
)

// A campaign's pool streams across batch boundaries: while the last
// run of batch 0 is held, the other worker starts batch 1. A pool that
// waits for every run of a batch before starting the next never
// starts run 20 while run 19 is held, and the hook gives up after a
// timeout instead of hanging.
func TestRunAheadEngaged(t *testing.T) {
	p, inst := sharedConv1d(t)
	cfg := Config{N: 40, Seed: 3, Workers: 2, Batch: 20}
	started := make(chan struct{})
	var waited atomic.Int64
	var timedOut atomic.Bool
	cfg.runHook = func(i int) {
		switch i {
		case 19:
			t0 := time.Now()
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				timedOut.Store(true)
			}
			waited.Store(int64(time.Since(t0)))
		case 20:
			close(started) // each run starts once
		}
	}
	got, err := Campaign(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("run 20 did not start while run 19 was held: the pool waited at the batch boundary")
	}
	t.Logf("run 19 held %v until run 20 of the next batch started", time.Duration(waited.Load()))
	cfg.runHook, cfg.Workers = nil, 1
	want, err := Campaign(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run-ahead campaign diverged from Workers: 1:\n got %+v\nwant %+v", got, want)
	}
}

// Concurrent callers share one executor's pool over overlapping
// ranges: every run executes exactly once, and the records are a
// Workers: 1 campaign's. A caller cancelled midway releases the run it
// interrupts to the others, which execute it again.
func TestExecutorOverlappingRanges(t *testing.T) {
	p, inst := sharedConv1d(t)
	const n = 60
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := Campaign(context.Background(), p, core.SWIFTR, inst, Config{N: n, Seed: 4, Workers: 1, CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	want, err := LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelled := range []bool{false, true} {
		o := &obs.Obs{Metrics: obs.NewMetrics()}
		ctx := obs.Into(context.Background(), o)
		cctx, cancel := context.WithCancel(ctx)
		// The first range's caller starts alone, so its runs are claimed
		// under its ctx; the others join once its first run started.
		first := make(chan struct{})
		var once sync.Once
		var held atomic.Int64 // calls of the hook for run 25
		cfg := Config{N: n, Seed: 4, Workers: 2, runHook: func(i int) {
			once.Do(func() { close(first) })
			// Slow replicas keep both workers' claims in flight together.
			time.Sleep(200 * time.Microsecond)
			if i == 25 {
				held.Add(1)
				if cancelled {
					cancel()
				}
			}
		}}
		x, err := NewExecutor(ctx, p, core.SWIFTR, inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ranges := []struct {
			ctx    context.Context
			lo, hi int
		}{{cctx, 10, 50}, {ctx, 0, 40}, {ctx, 20, n}}
		errs := make([]error, len(ranges))
		var wg sync.WaitGroup
		for k, r := range ranges {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = x.RunRange(r.ctx, r.lo, r.hi)
			}()
			if k == 0 {
				<-first
			}
		}
		wg.Wait()
		cancel()
		x.Release()
		for k, err := range errs {
			if k == 0 && cancelled {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled caller: RunRange = %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Errorf("cancelled=%v: RunRange(%d, %d) = %v", cancelled, ranges[k].lo, ranges[k].hi, err)
			}
		}
		if want := map[bool]int64{false: 1, true: 2}[cancelled]; held.Load() != want {
			t.Errorf("cancelled=%v: run 25 started %d times, want %d", cancelled, held.Load(), want)
		}
		if got := o.M().Snapshot()["fault_injections_total"]; got != n {
			t.Errorf("cancelled=%v: fault_injections_total = %v, want each of the %d runs once", cancelled, got, n)
		}
		if got := x.records(0, n); !reflect.DeepEqual(got, want.Records) {
			t.Errorf("cancelled=%v: records diverged from a Workers: 1 campaign's", cancelled)
		}
	}
}

// Once Campaign returns, early-stopped or cancelled, no replica of it
// runs: the hook is not called again and the injection counter stays.
func TestCampaignEndStopsPool(t *testing.T) {
	p, inst := sharedConv1d(t)
	for _, tc := range []struct {
		name     string
		cfg      Config
		cancelAt int
	}{
		{"early-stop", Config{N: 400, Seed: 21, Batch: 50, Workers: 2, TargetCI: 30}, -1},
		{"cancel", Config{N: 400, Seed: 21, Batch: 50, Workers: 2}, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := &obs.Obs{Metrics: obs.NewMetrics()}
			ctx, cancel := context.WithCancel(obs.Into(context.Background(), o))
			defer cancel()
			var calls atomic.Int64
			cfg := tc.cfg
			cfg.runHook = func(i int) {
				calls.Add(1)
				if i == tc.cancelAt {
					cancel()
				}
				// Slow replicas keep some in flight when the campaign ends.
				time.Sleep(time.Millisecond)
			}
			r, err := Campaign(ctx, p, core.Unsafe, inst, cfg)
			hooked, injected := calls.Load(), o.M().Snapshot()["fault_injections_total"]
			switch {
			case tc.cancelAt >= 0 && !errors.Is(err, context.Canceled):
				t.Fatalf("Campaign = %v, want context.Canceled", err)
			case tc.cancelAt < 0 && (err != nil || !r.EarlyStopped):
				t.Fatalf("Campaign = %+v, %v; want an early stop", r, err)
			}
			time.Sleep(50 * time.Millisecond)
			if got := calls.Load(); got != hooked {
				t.Errorf("%d replicas started after Campaign returned", got-hooked)
			}
			if got := o.M().Snapshot()["fault_injections_total"]; got != injected {
				t.Errorf("fault_injections_total moved from %v to %v after Campaign returned", injected, got)
			}
			if injected < float64(r.N) {
				t.Errorf("fault_injections_total = %v below the %d merged runs", injected, r.N)
			}
		})
	}
}
