package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/result"
)

var (
	progMu sync.Mutex
	progs  = map[string]*core.Program{}
	insts  = map[string]bench.Instance{}
)

func program(t *testing.T, name string) (*core.Program, bench.Instance) {
	t.Helper()
	progMu.Lock()
	defer progMu.Unlock()
	if p, ok := progs[name]; ok {
		return p, insts[name]
	}
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	progs[name] = p
	insts[name] = b.Gen(bench.TestSeed(0), bench.ScaleTiny)
	return p, insts[name]
}

// crashingRunner runs shards on the inner runner until its fuse runs
// out, then simulates a SIGKILL mid-shard: it executes part of the
// shard's range (so the executor holds half-done records), cancels
// its node's context and never completes or releases the lease. The
// coordinator must recover via TTL expiry and work stealing. crashed
// closes once the node has died holding a lease.
type crashingRunner struct {
	inner   *Runner
	x       *fault.Executor
	cancel  context.CancelFunc
	fuse    int32
	crashed chan struct{}
	once    sync.Once
}

func (c *crashingRunner) RunShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat) ([]byte, error) {
	if atomic.AddInt32(&c.fuse, -1) >= 0 {
		return c.inner.RunShard(ctx, sh, hb)
	}
	half := sh.Lo + sh.Size()/2
	if err := c.x.RunRange(ctx, sh.Lo, half); err != nil {
		return nil, err
	}
	c.cancel()
	c.once.Do(func() { close(c.crashed) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// The tentpole acceptance test: N in-process workers across M
// simulated nodes — each node with its own independently prepared
// Executor — plus an injected worker death mid-shard must produce a
// Result bit-identical to the single-node fault.Campaign, across
// three kernels and three schemes.
func TestDistributedMatchesSingleNode(t *testing.T) {
	kernels := []string{"musum", "mudot", "mumax"}
	schemes := []core.Scheme{core.Unsafe, core.SWIFTR, core.RSkip}
	for _, kernel := range kernels {
		for _, s := range schemes {
			t.Run(kernel+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				p, inst := program(t, kernel)
				cfg := fault.Config{N: 60, Seed: 11, Workers: 2, Batch: 16}

				want, err := fault.Campaign(context.Background(), p, s, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Coordinator side: its own executor derives the plan
				// key and owns the merge.
				xc, err := fault.NewExecutor(context.Background(), p, s, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				merger := NewMerger(xc)
				coord := fabric.NewCoordinator(
					fabric.Plan{Key: xc.Key(), N: xc.N(), ShardSize: 7},
					fabric.Options{LeaseTTL: 30 * time.Millisecond, OnComplete: merger.Add},
				)

				// Node A crashes mid-shard after one clean shard; node
				// B survives and must steal A's abandoned lease.
				xa, err := fault.NewExecutor(context.Background(), p, s, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				xb, err := fault.NewExecutor(context.Background(), p, s, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if xa.Key() != xc.Key() || xb.Key() != xc.Key() {
					t.Fatalf("independently prepared executors disagree on the plan key")
				}
				ctxA, cancelA := context.WithCancel(context.Background())
				defer cancelA()
				ra := &crashingRunner{inner: NewRunner(xa, 5), x: xa, cancel: cancelA, fuse: 1,
					crashed: make(chan struct{})}

				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					// The crash surfaces as ctx.Err() from node A.
					if err := fabric.RunLocal(ctxA, coord, 2, "nodeA", ra); !errors.Is(err, context.Canceled) {
						t.Errorf("node A exited %v, want context.Canceled", err)
					}
				}()
				go func() {
					defer wg.Done()
					// Node B joins once A has died holding a lease.
					// Joining earlier races A for the shards: when B
					// takes every shard A has not leased yet, A never
					// reaches its crash and no lease is stolen.
					select {
					case <-ra.crashed:
					case <-time.After(10 * time.Second):
						t.Error("node A never crashed")
						return
					}
					if err := fabric.RunLocal(context.Background(), coord, 2, "nodeB", NewRunner(xb, 5)); err != nil {
						t.Errorf("node B: %v", err)
					}
				}()
				wg.Wait()

				if st := coord.Stats(); st.LeasesExpired < 1 {
					t.Fatalf("stats = %+v, want at least one stolen lease from the crashed node", st)
				}
				got, err := merger.Result()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("distributed result diverged from single-node:\n got %+v\nwant %+v", got, want)
				}

				// Cross-check: per-shard aggregates composed through the
				// partition-sum identity match the merged counts.
				var parts []fault.Result
				for _, sh := range coord.Plan().Shards() {
					recs := make([]fault.RunRecord, xc.N())
					copy(recs[sh.Lo:sh.Hi], merger.recs[sh.Lo:sh.Hi])
					part, err := xc.Aggregate(recs)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part)
				}
				comp := result.ComposeCounts(s, parts)
				if comp.N != want.N || comp.Counts != want.Counts || comp.Fired != want.Fired {
					t.Fatalf("composed shard counts diverged:\n got %+v\nwant %+v", comp, want)
				}
			})
		}
	}
}

// A payload whose key embeds a different configuration must be
// refused at merge time — configuration drift fails loudly.
func TestMergerRejectsDriftAndDamage(t *testing.T) {
	p, inst := program(t, "musum")
	cfg := fault.Config{N: 20, Seed: 3, Workers: 1}
	x, err := fault.NewExecutor(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.RunRange(context.Background(), 0, 10); err != nil {
		t.Fatal(err)
	}
	recs, err := x.Records(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	sh := fabric.Shard{ID: 0, Lo: 0, Hi: 10}
	good := ShardPayload{Key: sh.Key(x.Key()), Lo: 0, Hi: 10, Records: recs}

	cases := []struct {
		name   string
		mut    func(p *ShardPayload)
		errHas string
	}{
		{"drifted key", func(p *ShardPayload) { p.Key = "bench=other|" + p.Key }, "key mismatch"},
		// The key embeds the range, so a mislabelled range with an
		// honest key is caught by the key check; the Lo/Hi check below
		// catches a payload whose key was copied from the lease but
		// whose range fields disagree.
		{"wrong range", func(p *ShardPayload) { p.Lo, p.Hi = 5, 15 }, "lease covers"},
		{"short records", func(p *ShardPayload) { p.Records = p.Records[:5] }, "holds 5 records"},
		{"unfinished record", func(p *ShardPayload) {
			rs := make([]fault.RunRecord, len(p.Records))
			copy(rs, p.Records)
			rs[3] = fault.RunRecord{}
			p.Records = rs
		}, "unfinished record"},
	}
	// A record whose class lies outside the outcome table would crash
	// aggregation; the merger refuses the payload instead.
	for _, class := range []fault.Class{99, fault.NumClasses, -1} {
		class := class
		cases = append(cases, struct {
			name   string
			mut    func(p *ShardPayload)
			errHas string
		}{fmt.Sprintf("class %d", class), func(p *ShardPayload) {
			rs := make([]fault.RunRecord, len(p.Records))
			copy(rs, p.Records)
			rs[4].Class = class
			p.Records = rs
		}, fmt.Sprintf("outcome class %d", class)})
	}
	for _, tc := range cases {
		m := NewMerger(x)
		bad := good
		tc.mut(&bad)
		b, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Add(sh, b); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: Add = %v, want error containing %q", tc.name, err, tc.errHas)
		}
	}

	// Double merge of the same shard is a coordinator bug — refuse.
	m := NewMerger(x)
	b, _ := json.Marshal(good)
	if err := m.Add(sh, b); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(sh, b); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double Add = %v, want 'merged twice'", err)
	}
	if _, err := m.Result(); err == nil {
		t.Error("Result succeeded with half the campaign merged")
	}
	partial, err := m.Partial()
	if err != nil {
		t.Fatal(err)
	}
	if partial.N != 10 {
		t.Errorf("partial N = %d, want 10", partial.N)
	}
}
