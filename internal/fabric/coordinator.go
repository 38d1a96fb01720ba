package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLeaseLost reports that the worker no longer holds the lease it
// is heartbeating or completing under — the coordinator expired it
// and reassigned (or will reassign) the shard. The worker's correct
// response is to abandon the shard and lease a fresh one; because
// records are pure functions of their indexes, abandoned work is
// never a correctness hazard, only wasted cycles.
var ErrLeaseLost = errors.New("fabric: lease lost (expired and reassigned)")

// ErrUnknownShard reports a shard ID outside the plan.
var ErrUnknownShard = errors.New("fabric: unknown shard")

// ErrPayloadRefused classifies an OnComplete error that refused the
// payload before the sink changed any state (a campaign ledger's
// PayloadError matches it). Refused from a worker that does not hold
// the shard's lease, the payload is that worker's fault alone: the
// shard goes back as it was and Complete returns the error. Refused
// from the lease holder, it ends the plan like any sink error.
var ErrPayloadRefused = errors.New("fabric: shard payload refused")

// shard lifecycle: pending → leased → done. An expired lease moves
// the shard back to pending (work stealing); completion is terminal.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// lease is one worker's claim on one shard.
type lease struct {
	worker  string
	expires time.Time
}

// Stats are the coordinator's lifetime counters, for metrics and the
// straggler-reassignment assertions in tests.
type Stats struct {
	LeasesGranted   int
	LeasesExpired   int // leases reclaimed from dead or straggling workers
	ShardsCompleted int
	Workers         int // distinct worker IDs seen
}

// Options parameterize a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease lives without a heartbeat before
	// the shard is stolen back (default 10s).
	LeaseTTL time.Duration
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
	// OnComplete, when set, receives each shard's payload exactly once,
	// in completion order; the coordinator keeps no payload. A
	// returned error ends the plan (Wait returns it, wrapped): the
	// payload was undecodable or inconsistent, which re-running cannot
	// fix, the sink could not persist it, or the sink has seen enough
	// (a campaign's early stop).
	// The callback runs without the coordinator lock held and must not
	// call back into the Coordinator.
	OnComplete func(Shard, []byte) error
	// Completed, when set, reports shards an earlier run already
	// finished — a resumed campaign's ledger. They count as done from
	// construction on and are never leased.
	Completed func(Shard) bool
	// OnShardDone, when set, observes each successful first completion:
	// the shard, the completing worker, and the wall-clock time from
	// the shard's first lease to its completion. Purely observational —
	// coordination decisions (leasing, stealing, retirement) never
	// depend on it; rskipd feeds it to its shard-time histogram. Same
	// re-entrancy rule as OnComplete.
	OnShardDone func(sh Shard, worker string, leased time.Duration)
}

// Coordinator owns one plan's shard lifecycle: it leases shards to
// workers, tracks heartbeats, steals expired leases back for
// reassignment, and hands completed payloads to its sink. It is
// transport-agnostic — rskipd exposes its three methods (Lease,
// Heartbeat, Complete) over HTTP JSON, and the in-process pool
// (RunLocal) calls them directly.
type Coordinator struct {
	plan   Plan
	shards []Shard
	opt    Options

	mu          sync.Mutex
	state       []shardState
	leases      map[int]*lease // by shard ID, leased shards only
	firstLeased []time.Time    // by shard ID; zero until first leased
	sunk        int            // shards whose OnComplete finished
	stats       Stats
	workers     map[string]bool
	abortErr    error
	done        chan struct{}
	closeOnce   sync.Once
}

// NewCoordinator builds a coordinator over the plan's shard table.
func NewCoordinator(plan Plan, opt Options) *Coordinator {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 10 * time.Second
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	shards := plan.Shards()
	c := &Coordinator{
		plan:        plan,
		shards:      shards,
		opt:         opt,
		state:       make([]shardState, len(shards)),
		leases:      map[int]*lease{},
		firstLeased: make([]time.Time, len(shards)),
		workers:     map[string]bool{},
		done:        make(chan struct{}),
	}
	for id, sh := range shards {
		if opt.Completed != nil && opt.Completed(sh) {
			c.state[id] = shardDone
			c.sunk++
		}
	}
	if c.sunk == len(shards) {
		c.closeOnce.Do(func() { close(c.done) })
	}
	return c
}

// Plan returns the plan the coordinator distributes.
func (c *Coordinator) Plan() Plan { return c.plan }

// Lease claims the next available shard for the worker: a pending
// shard, or a shard whose previous lease expired without a heartbeat
// (work stealing from stragglers and dead workers). ok is false when
// nothing is currently available — either every remaining shard is
// leased and healthy (poll again later) or the plan is complete
// (check Done).
func (c *Coordinator) Lease(worker string) (sh Shard, ok bool) {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = true
	c.stats.Workers = len(c.workers)
	c.expireLocked(now)
	for id, st := range c.state {
		if st != shardPending {
			continue
		}
		c.state[id] = shardLeased
		c.leases[id] = &lease{worker: worker, expires: now.Add(c.opt.LeaseTTL)}
		if c.firstLeased[id].IsZero() {
			c.firstLeased[id] = now
		}
		c.stats.LeasesGranted++
		return c.shards[id], true
	}
	return Shard{}, false
}

// Heartbeat extends the worker's lease on the shard. It returns ErrLeaseLost when the lease expired and the shard was (or
// is about to be) handed to someone else, and ErrUnknownShard for IDs
// outside the plan.
func (c *Coordinator) Heartbeat(worker string, shardID int) error {
	now := c.opt.Now()
	c.mu.Lock()
	if shardID < 0 || shardID >= len(c.shards) {
		c.mu.Unlock()
		return ErrUnknownShard
	}
	c.expireLocked(now)
	l := c.leases[shardID]
	if c.state[shardID] != shardLeased || l == nil || l.worker != worker {
		c.mu.Unlock()
		return ErrLeaseLost
	}
	l.expires = now.Add(c.opt.LeaseTTL)
	c.mu.Unlock()
	return nil
}

// Complete records the shard's payload and retires it. The first
// completion wins: because shard results are deterministic, a
// completion from a worker whose lease was stolen is accepted as long
// as the shard is still open (the work is identical by construction),
// and once a shard is done later completions get ErrLeaseLost and
// their payloads are discarded. A payload the sink refuses
// (ErrPayloadRefused) from a worker that does not hold the lease
// leaves the shard as it was.
func (c *Coordinator) Complete(worker string, shardID int, payload []byte) error {
	c.mu.Lock()
	if shardID < 0 || shardID >= len(c.shards) {
		c.mu.Unlock()
		return ErrUnknownShard
	}
	if c.state[shardID] == shardDone {
		c.mu.Unlock()
		return ErrLeaseLost
	}
	prev, prevLease := c.state[shardID], c.leases[shardID]
	holder := prev == shardLeased && prevLease != nil && prevLease.worker == worker
	c.state[shardID] = shardDone
	delete(c.leases, shardID)
	sh := c.shards[shardID]
	sink := c.opt.OnComplete
	observe := c.opt.OnShardDone
	c.mu.Unlock()

	var sinkErr error
	if sink != nil {
		sinkErr = sink(sh, payload)
	}

	c.mu.Lock()
	if sinkErr != nil && !holder && errors.Is(sinkErr, ErrPayloadRefused) {
		c.state[shardID] = prev
		if prevLease != nil {
			c.leases[shardID] = prevLease
		}
		c.mu.Unlock()
		return fmt.Errorf("fabric: completing shard %d: %w", shardID, sinkErr)
	}
	c.stats.ShardsCompleted++
	var leased time.Duration
	if first := c.firstLeased[shardID]; !first.IsZero() {
		leased = c.opt.Now().Sub(first)
	}
	if sinkErr != nil && c.abortErr == nil {
		c.abortErr = fmt.Errorf("fabric: merging shard %d: %w", shardID, sinkErr)
	}
	c.sunk++
	finished := c.sunk == len(c.shards) || c.abortErr != nil
	c.mu.Unlock()

	if observe != nil {
		observe(sh, worker, leased)
	}
	if finished {
		c.closeOnce.Do(func() { close(c.done) })
	}
	return nil
}

// Release voluntarily returns a leased shard to the pending pool — a
// worker that fails mid-shard (build error, cancellation) calls it so
// the shard is reassigned immediately instead of after the TTL.
func (c *Coordinator) Release(worker string, shardID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shardID < 0 || shardID >= len(c.shards) {
		return
	}
	if l := c.leases[shardID]; c.state[shardID] == shardLeased && l != nil && l.worker == worker {
		delete(c.leases, shardID)
		c.state[shardID] = shardPending
	}
}

// expireLocked reclaims leases whose TTL lapsed without a heartbeat.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expires) {
			delete(c.leases, id)
			c.state[id] = shardPending
			c.stats.LeasesExpired++
		}
	}
}

// Abort fails the plan: Wait/Err surface err, Done closes, and
// workers observing Done stop leasing. The first abort wins.
func (c *Coordinator) Abort(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.abortErr == nil {
		c.abortErr = err
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.done) })
}

// Wait blocks until the plan completes, aborts, or ctx expires.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats reports the coordinator's lifetime counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Done is closed once every shard's payload has been accepted (and
// sunk through OnComplete), or the plan aborted.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the abort error, if any (nil while running or after a
// clean completion).
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abortErr
}
