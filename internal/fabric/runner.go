package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Heartbeat extends the runner's lease. A non-nil error — usually
// ErrLeaseLost — tells the runner to abandon the shard: someone else
// owns it now.
type Heartbeat func() error

// ShardRunner executes one shard of a plan and returns its serialized
// result payload. Implementations must be deterministic in the shard
// range — the coordinator freely re-runs shards on other workers
// after a lease expires, and exactness relies on every execution of a
// range producing identical records. The runner should call hb after
// each sub-batch; hb may be nil.
type ShardRunner interface {
	RunShard(ctx context.Context, sh Shard, hb Heartbeat) ([]byte, error)
}

// RunnerFunc adapts a function to ShardRunner.
type RunnerFunc func(ctx context.Context, sh Shard, hb Heartbeat) ([]byte, error)

// RunShard implements ShardRunner.
func (f RunnerFunc) RunShard(ctx context.Context, sh Shard, hb Heartbeat) ([]byte, error) {
	return f(ctx, sh, hb)
}

// localPollInterval is how often an idle local worker re-polls the
// coordinator while other workers hold every remaining shard — short
// enough that an expired straggler lease is stolen promptly.
const localPollInterval = 10 * time.Millisecond

// RunLocal drives workers goroutines that pull leases from c and
// execute them on r until the plan completes or ctx is cancelled —
// the in-process worker pool, rebuilt on the same lease contract the
// remote worker daemons use. Worker IDs are name-0 … name-(n-1).
//
// Cancellation models a crash, deliberately: a cancelled worker
// abandons its lease without releasing it, and the shard comes back
// only when the TTL expires — exactly what the coordinator sees when
// a remote worker is SIGKILLed. A runner error other than
// cancellation releases the lease for immediate reassignment and the
// worker keeps going (the shard may succeed elsewhere, or here,
// later).
func RunLocal(ctx context.Context, c *Coordinator, workers int, name string, r ShardRunner) error {
	if workers <= 0 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("%s-%d", name, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorkerLoop(ctx, c, id, r)
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		return err
	}
	return ctx.Err()
}

// runWorkerLoop is one local worker: lease, run, complete, repeat.
func runWorkerLoop(ctx context.Context, c *Coordinator, id string, r ShardRunner) {
	lastFailed, failures := -1, 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.Done():
			return
		default:
		}
		sh, ok := c.Lease(id)
		if !ok {
			// Nothing available right now: either done (the next loop
			// iteration exits) or every remaining shard is leased out —
			// wait for a completion or an expiry to steal.
			select {
			case <-ctx.Done():
				return
			case <-c.Done():
				return
			case <-time.After(localPollInterval):
			}
			continue
		}
		payload, err := r.RunShard(ctx, sh, func() error {
			return c.Heartbeat(id, sh.ID)
		})
		switch {
		case err == nil:
			_ = c.Complete(id, sh.ID, payload)
			lastFailed, failures = -1, 0
		case ctx.Err() != nil:
			// Crash semantics: abandon without releasing; the TTL
			// reclaims the lease.
			return
		case errors.Is(err, ErrLeaseLost):
			// Stolen mid-run: drop the work and move on.
		default:
			// Deterministic runner failures (a broken build) would
			// otherwise cycle lease→fail→release forever; give the shard
			// a few chances on this worker, then fail the plan.
			if sh.ID == lastFailed {
				failures++
			} else {
				lastFailed, failures = sh.ID, 1
			}
			c.Release(id, sh.ID)
			if failures >= 3 {
				c.Abort(fmt.Errorf("fabric: shard %d failed %d times on %s: %w", sh.ID, failures, id, err))
				return
			}
		}
	}
}
