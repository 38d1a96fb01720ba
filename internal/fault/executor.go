package fault

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/machine"
	"rskip/internal/obs"
)

// Executor executes a prepared campaign shard by shard. It is the one
// runner every campaign uses: Campaign drives a single Executor through
// an in-process lease loop, rskipd serves its shards to remote worker
// daemons as well, and every worker runs the leases it takes on an
// Executor of its own. Because prepare() pre-draws the full plan list
// deterministically, two Executors built from the same (program,
// scheme, instance, config) on different nodes execute identical
// plans for identical indexes; their records can be interleaved
// freely and merged (Ledger) to the exact single-process Result.
//
// Executors are long-lived: a worker daemon keeps the one of its last
// lease's campaign and serves every further shard of that campaign
// (including re-leased shards stolen from a dead peer) from it.
// Records persist across calls, so re-running a range an executor
// already holds is a cheap no-op: the pool skips Done records.
//
// One worker pool serves every range of the executor. Workers start
// on demand, up to Config.Workers, and exit when they find nothing to
// run, so an idle executor holds no goroutines; an exited worker's
// pooled injector waits for the next worker, so every range reuses the
// same at most Workers machines. A worker claims each run it takes
// until the run is recorded or interrupted, so concurrent and
// overlapping ranges share the pool and no run executes twice.
type Executor struct {
	e *engine
	// mu guards the record array and the pool: the claims, the ranges
	// callers wait on, the worker count and the idle injectors. It is
	// held only to claim, record and release a run, never while one
	// executes, so ranges do not serialize: any number of callers share
	// the workers, and records are deterministic whoever runs them.
	mu sync.Mutex
	// changed is broadcast when a run finishes or is released, when a
	// worker exits and when a waiting caller's ctx is cancelled.
	changed sync.Cond
	claimed []bool      // by run index: a worker is executing it
	ranges  []*waitSpan // the ranges callers wait on, in call order
	workers int
	idle    []*core.Injector // the injectors of exited workers
}

// waitSpan is one RunRange call: the runs of [next, hi) still to
// finish, executed under ctx, and its run-ahead window [ahead, end),
// empty unless the range may run ahead (ownRunner).
type waitSpan struct {
	ctx        context.Context
	next, hi   int
	ahead, end int
}

func newExecutor(e *engine) *Executor {
	x := &Executor{e: e, claimed: make([]bool, len(e.records))}
	x.changed.L = &x.mu
	return x
}

// NewExecutor prepares a campaign for shard-at-a-time execution: the
// fault-free profile run, the plan list and the campaign key. The
// options the ledger owns — TargetCI, CheckpointPath, OnProgress —
// take effect in NewLedger; an executor that only serves leases
// ignores them.
func NewExecutor(ctx context.Context, p *core.Program, s core.Scheme, inst bench.Instance, cfg Config) (*Executor, error) {
	ctx, sp := obs.Start(ctx, "fault/executor_prepare")
	sp.SetAttr("scheme", s.String())
	sp.SetAttr("bench", p.Bench.Name)
	defer sp.End()
	prof, err := NewProfile(ctx, p, s, inst, traceFor(cfg))
	if err != nil {
		return nil, err
	}
	e, err := prepare(ctx, prof, cfg)
	if err != nil {
		return nil, err
	}
	return newExecutor(e), nil
}

// traceFor is the region trace a campaign's own profile records: one
// if and only if the campaign is stratified, whose allocation derives
// from the layout.
func traceFor(cfg Config) *machine.RegionTrace {
	if cfg.Stratify {
		return &machine.RegionTrace{}
	}
	return nil
}

// Key is the campaign identity — identical to the checkpoint key and,
// by construction, to the fabric plan key the coordinator advertises.
// A worker cross-checks its locally derived Key against the lease's
// PlanKey to catch configuration drift before executing anything.
func (x *Executor) Key() string { return x.e.key }

// N is the total run count of the prepared plan list (after
// exhaustive enumeration or defaulting).
func (x *Executor) N() int { return x.e.cfg.N }

// RunRange executes every not-yet-done run in [lo, hi) on the
// executor's worker pool and returns once each of them is Done. Runs
// another caller's range holds are waited for, not repeated.
// Cancelling ctx returns ctx.Err(): runs in flight under ctx are
// interrupted and released, and records completed before the
// cancellation are kept and will not re-execute on a later call.
func (x *Executor) RunRange(ctx context.Context, lo, hi int) error {
	if err := x.checkRange(lo, hi); err != nil {
		return err
	}
	return x.runRange(ctx, lo, hi, false)
}

// runRange is RunRange on a checked range. With ahead set, a worker
// that finds no run of the range left to claim while its last runs
// are still going takes the next runs in plan order, up to one Batch
// past hi, so the pool does not idle at the range's end. Only a range
// whose next one in plan order comes to this executor may do that; on
// any other, the runs ahead would duplicate another runner's shard.
func (x *Executor) runRange(ctx context.Context, lo, hi int, ahead bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.Start(ctx, "campaign/batch")
	sp.SetAttr("lo", lo)
	sp.SetAttr("hi", hi)
	defer sp.End()
	s := &waitSpan{ctx: ctx, next: lo, hi: hi, ahead: hi, end: hi}
	if ahead {
		s.end = min(hi+x.e.cfg.Batch, x.e.cfg.N)
	}
	stop := context.AfterFunc(ctx, func() {
		x.mu.Lock()
		x.changed.Broadcast()
		x.mu.Unlock()
	})
	defer stop()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ranges = append(x.ranges, s)
	defer func() { x.ranges = slices.DeleteFunc(x.ranges, func(r *waitSpan) bool { return r == s }) }()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		free := x.firstFree(&s.next, s.hi)
		if s.next == s.hi {
			return nil
		}
		if free >= 0 {
			x.spawn(s.hi - s.next)
		}
		x.changed.Wait()
	}
}

// spawn starts up to n more workers within Config.Workers. The caller
// holds x.mu.
func (x *Executor) spawn(n int) {
	for ; n > 0 && x.workers < x.e.cfg.Workers; n-- {
		var inj *core.Injector
		if k := len(x.idle); k > 0 {
			inj, x.idle = x.idle[k-1], x.idle[:k-1]
		} else {
			// One pooled machine per worker: replicas reuse the decoded
			// and compiled code, memory and register slabs through
			// machine.Reset instead of paying construction per injection.
			inj = x.e.prof.Program.NewInjector(x.e.prof.Scheme)
		}
		x.workers++
		go x.work(inj)
	}
}

// work is one pool worker: claim a run, execute it, record it, until
// no range has a run left to claim.
func (x *Executor) work(inj *core.Injector) {
	x.mu.Lock()
	for {
		i, ctx := x.claim()
		if i < 0 {
			break
		}
		x.claimed[i] = true
		x.mu.Unlock()
		rec, ok := x.e.runOne(ctx, inj, i)
		if ok {
			x.e.met.record(&rec, x.e.plans[i].Kind)
		}
		x.mu.Lock()
		x.claimed[i] = false
		if ok {
			x.e.records[i] = rec
		}
		x.changed.Broadcast()
	}
	x.workers--
	x.idle = append(x.idle, inj)
	x.changed.Broadcast()
	x.mu.Unlock()
}

// claim picks the next run for a worker and the ctx to run it under:
// the first free run of the earliest waiting range, or of its run-ahead
// window while its last runs are still going; -1 when there is none.
// The caller holds x.mu.
func (x *Executor) claim() (int, context.Context) {
	for _, s := range x.ranges {
		if s.ctx.Err() != nil {
			continue
		}
		if i := x.firstFree(&s.next, s.hi); i >= 0 {
			return i, s.ctx
		}
		if s.next < s.hi {
			if i := x.firstFree(&s.ahead, s.end); i >= 0 {
				return i, s.ctx
			}
		}
	}
	return -1, nil
}

// firstFree advances *next past the Done runs of [*next, hi) and
// returns the first run left that no worker holds, or -1.
func (x *Executor) firstFree(next *int, hi int) int {
	recs := x.e.records
	for *next < hi && recs[*next].Done {
		*next++
	}
	for i := *next; i < hi; i++ {
		if !recs[i].Done && !x.claimed[i] {
			return i
		}
	}
	return -1
}

// Release blocks until every worker has exited, then releases the
// pooled machines; a later range builds new ones. Drive calls it once
// its lease loops have returned, so no replica of the campaign runs
// after Drive returns, and a worker daemon calls it on an executor it
// drops.
func (x *Executor) Release() {
	x.mu.Lock()
	for x.workers > 0 {
		x.changed.Wait()
	}
	idle := x.idle
	x.idle = nil
	x.mu.Unlock()
	for _, inj := range idle {
		inj.Close()
	}
}

func (x *Executor) checkRange(lo, hi int) error {
	if lo < 0 || hi > x.e.cfg.N || lo > hi {
		return fmt.Errorf("fault: executor range [%d, %d) outside plan [0, %d)", lo, hi, x.e.cfg.N)
	}
	return nil
}

// RunShard implements fabric.ShardRunner. It executes the shard in
// sub-batches of Config.Batch runs, heartbeating after each, and
// returns the finished shard's records as a JSON ShardPayload. A
// heartbeat error (lease lost, job gone) abandons the shard at once:
// the records already executed stay in the executor, so if the shard
// comes back it completes almost for free.
func (x *Executor) RunShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat) ([]byte, error) {
	if err := x.runShard(ctx, sh, hb, false); err != nil {
		return nil, err
	}
	p := ShardPayload{Key: sh.Key(x.e.key), Lo: sh.Lo, Hi: sh.Hi, Records: x.records(sh.Lo, sh.Hi)}
	b, err := json.Marshal(&p)
	if err != nil {
		return nil, fmt.Errorf("fault: encoding shard payload: %w", err)
	}
	return b, nil
}

func (x *Executor) runShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat, ahead bool) error {
	if err := x.checkRange(sh.Lo, sh.Hi); err != nil {
		return err
	}
	for _, sub := range sh.Split(x.e.cfg.Batch) {
		if err := x.runRange(ctx, sub.Lo, sub.Hi, ahead); err != nil {
			return err
		}
		if hb != nil {
			if err := hb(); err != nil {
				return err
			}
		}
	}
	return nil
}

// records copies out the records of [lo, hi), a checked range.
func (x *Executor) records(lo, hi int) []RunRecord {
	out := make([]RunRecord, hi-lo)
	x.mu.Lock()
	copy(out, x.e.records[lo:hi])
	x.mu.Unlock()
	return out
}

// ShardPayload is the wire form of one completed shard: the records
// for [Lo, Hi), tagged with the shard key so a ledger can refuse a
// payload from a drifted configuration or a mislabelled range.
type ShardPayload struct {
	// Key is fabric.Shard.Key(planKey) — the campaign key plus the
	// index range, derived independently by the worker.
	Key     string      `json:"key"`
	Lo      int         `json:"lo"`
	Hi      int         `json:"hi"`
	Records []RunRecord `json:"records"`
}
