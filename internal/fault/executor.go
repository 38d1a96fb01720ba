package fault

import (
	"context"
	"encoding/json"
	"fmt"
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
// Executors are long-lived: a worker daemon keeps one per campaign
// key and serves every shard of that campaign (including re-leased
// shards stolen from a dead peer) from it. Records persist across
// calls, so re-running a range an executor already holds is a cheap
// no-op — the engine skips Done records.
type Executor struct {
	e *engine
	// mu serializes range execution (and guards the record array
	// against a concurrent range). Within-range parallelism comes from
	// Config.Workers; two lease loops sharing one executor — or a
	// stolen lease landing back on the node still running it — must
	// not race on the record array, and with deterministic records,
	// waiting is always correct.
	mu sync.Mutex
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
	return &Executor{e: e}, nil
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
// engine's worker pool. Cancelling ctx returns ctx.Err(); records
// completed before the cancellation are kept and will not re-execute
// on a later call.
func (x *Executor) RunRange(ctx context.Context, lo, hi int) error {
	if err := x.checkRange(lo, hi); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.Start(ctx, "campaign/batch")
	sp.SetAttr("lo", lo)
	sp.SetAttr("hi", hi)
	defer sp.End()
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.e.runRange(ctx, lo, hi)
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
	if err := x.runShard(ctx, sh, hb); err != nil {
		return nil, err
	}
	p := ShardPayload{Key: sh.Key(x.e.key), Lo: sh.Lo, Hi: sh.Hi, Records: x.records(sh.Lo, sh.Hi)}
	b, err := json.Marshal(&p)
	if err != nil {
		return nil, fmt.Errorf("fault: encoding shard payload: %w", err)
	}
	return b, nil
}

func (x *Executor) runShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat) error {
	if err := x.checkRange(sh.Lo, sh.Hi); err != nil {
		return err
	}
	for _, sub := range sh.Split(x.e.cfg.Batch) {
		if err := x.RunRange(ctx, sub.Lo, sub.Hi); err != nil {
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
