package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// payloadSink is an OnComplete that keeps every payload by shard ID.
type payloadSink struct {
	mu  sync.Mutex
	got map[int]string
}

func (s *payloadSink) add(sh Shard, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.got == nil {
		s.got = map[int]string{}
	}
	s.got[sh.ID] = string(payload)
	return nil
}

func newTestCoordinator(n, shardSize int, clk *fakeClock, opt Options) *Coordinator {
	opt.Now = clk.now
	if opt.LeaseTTL == 0 {
		opt.LeaseTTL = time.Second
	}
	return NewCoordinator(Plan{Key: "k", N: n, ShardSize: shardSize}, opt)
}

func TestLeaseLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var sink payloadSink
	c := newTestCoordinator(10, 5, clk, Options{OnComplete: sink.add})

	sh1, ok := c.Lease("w1")
	if !ok || sh1.Lo != 0 || sh1.Hi != 5 {
		t.Fatalf("first lease = %+v, %v", sh1, ok)
	}
	sh2, ok := c.Lease("w2")
	if !ok || sh2.Lo != 5 || sh2.Hi != 10 {
		t.Fatalf("second lease = %+v, %v", sh2, ok)
	}
	if _, ok := c.Lease("w3"); ok {
		t.Fatal("third lease granted with every shard out")
	}
	if err := c.Complete("w1", sh1.ID, []byte("a")); err != nil {
		t.Fatalf("complete sh1: %v", err)
	}
	if err := c.Complete("w2", sh2.ID, []byte("b")); err != nil {
		t.Fatalf("complete sh2: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("plan not done after all completions")
	}
	if sink.got[0] != "a" || sink.got[1] != "b" {
		t.Fatalf("payloads = %q", sink.got)
	}
	if st := c.Stats(); st.LeasesGranted != 2 || st.ShardsCompleted != 2 || st.Workers != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExpiredLeaseIsStolen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var sink payloadSink
	c := newTestCoordinator(4, 4, clk, Options{LeaseTTL: time.Second, OnComplete: sink.add})

	sh, ok := c.Lease("dead")
	if !ok {
		t.Fatal("no lease")
	}
	// Healthy heartbeats keep the lease alive past the nominal TTL.
	clk.advance(900 * time.Millisecond)
	if err := c.Heartbeat("dead", sh.ID); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clk.advance(900 * time.Millisecond)
	if _, ok := c.Lease("thief"); ok {
		t.Fatal("lease stolen while heartbeats were current")
	}
	// Silence past the TTL hands the shard to the next caller.
	clk.advance(200 * time.Millisecond)
	stolen, ok := c.Lease("thief")
	if !ok || stolen.ID != sh.ID {
		t.Fatalf("steal = %+v, %v", stolen, ok)
	}
	if err := c.Heartbeat("dead", sh.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead worker heartbeat = %v, want ErrLeaseLost", err)
	}
	if st := c.Stats(); st.LeasesExpired != 1 {
		t.Fatalf("stats = %+v, want 1 expired lease", st)
	}
	// First completion wins; the loser's payload is discarded.
	if err := c.Complete("dead", sh.ID, []byte("late-but-first")); err != nil {
		t.Fatalf("deterministic completion from a stolen lease must be accepted: %v", err)
	}
	if err := c.Complete("thief", sh.ID, []byte("second")); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("second completion = %v, want ErrLeaseLost", err)
	}
	if sink.got[0] != "late-but-first" {
		t.Fatalf("payload = %q, want first completion", sink.got[0])
	}
}

func TestReleaseReassignsImmediately(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := newTestCoordinator(4, 4, clk, Options{})
	sh, _ := c.Lease("w1")
	c.Release("w1", sh.ID)
	if got, ok := c.Lease("w2"); !ok || got.ID != sh.ID {
		t.Fatalf("released shard not reassigned: %+v, %v", got, ok)
	}
	// Releasing someone else's lease is a no-op.
	c.Release("w1", sh.ID)
	if err := c.Heartbeat("w2", sh.ID); err != nil {
		t.Fatalf("w2's lease damaged by stale release: %v", err)
	}
}

// OnComplete receives each shard once, after heartbeats kept its
// lease alive, and the plan is done once every shard has been sunk.
func TestOnCompleteSinksEachShardOnce(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var mu sync.Mutex
	var sunk []int
	c := newTestCoordinator(10, 5, clk, Options{
		OnComplete: func(sh Shard, payload []byte) error {
			mu.Lock()
			sunk = append(sunk, sh.ID)
			mu.Unlock()
			return nil
		},
	})
	sh, _ := c.Lease("w")
	if err := c.Heartbeat("w", sh.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w", sh.ID, nil); err != nil {
		t.Fatal(err)
	}
	sh2, _ := c.Lease("w")
	if err := c.Complete("w", sh2.ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w", sh2.ID, nil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("second completion = %v, want ErrLeaseLost", err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sunk) != 2 {
		t.Fatalf("OnComplete saw shards %v, want 2", sunk)
	}
}

func TestOnCompleteErrorAbortsPlan(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := newTestCoordinator(10, 5, clk, Options{
		OnComplete: func(Shard, []byte) error { return errors.New("corrupt payload") },
	})
	sh, _ := c.Lease("w")
	_ = c.Complete("w", sh.ID, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Wait(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("Wait = %v, want abort error", err)
	}
}

func TestRunLocalCompletesPlan(t *testing.T) {
	var sink payloadSink
	c := NewCoordinator(Plan{Key: "k", N: 100, ShardSize: 7}, Options{OnComplete: sink.add})
	runner := RunnerFunc(func(ctx context.Context, sh Shard, hb Heartbeat) ([]byte, error) {
		if hb != nil {
			if err := hb(); err != nil {
				return nil, err
			}
		}
		return []byte(fmt.Sprintf("%d-%d", sh.Lo, sh.Hi)), nil
	})
	if err := RunLocal(context.Background(), c, 4, "local", runner); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	for i, sh := range c.Plan().Shards() {
		if want := fmt.Sprintf("%d-%d", sh.Lo, sh.Hi); sink.got[i] != want {
			t.Fatalf("payload[%d] = %q, want %q", i, sink.got[i], want)
		}
	}
}

func TestRunLocalAbortsOnPersistentFailure(t *testing.T) {
	c := NewCoordinator(Plan{Key: "k", N: 10, ShardSize: 5}, Options{})
	runner := RunnerFunc(func(ctx context.Context, sh Shard, hb Heartbeat) ([]byte, error) {
		if sh.ID == 1 {
			return nil, errors.New("broken build")
		}
		return []byte("ok"), nil
	})
	err := RunLocal(context.Background(), c, 2, "local", runner)
	if err == nil {
		t.Fatal("RunLocal succeeded with a permanently failing shard")
	}
}

// OnShardDone observes every first completion with the wall time from
// the shard's FIRST lease — a steal does not reset the clock — and is
// never invoked for duplicate completions.
func TestOnShardDoneObservesFirstLeaseToCompletion(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	type obs struct {
		shard  int
		worker string
		leased time.Duration
	}
	var seen []obs
	c := newTestCoordinator(10, 5, clk, Options{
		OnShardDone: func(sh Shard, worker string, leased time.Duration) {
			seen = append(seen, obs{sh.ID, worker, leased})
		},
	})

	sh1, _ := c.Lease("w1")
	clk.advance(300 * time.Millisecond)
	if err := c.Complete("w1", sh1.ID, []byte("a")); err != nil {
		t.Fatal(err)
	}

	// Second shard: w2 leases, dies; w3 steals after expiry and
	// finishes. The observed duration spans from w2's lease.
	sh2, _ := c.Lease("w2")
	clk.advance(2 * time.Second) // past the 1s test TTL
	sh2b, ok := c.Lease("w3")
	if !ok || sh2b.ID != sh2.ID {
		t.Fatalf("steal: got %+v ok=%v, want shard %d", sh2b, ok, sh2.ID)
	}
	clk.advance(500 * time.Millisecond)
	if err := c.Complete("w3", sh2.ID, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// A late duplicate from the dead worker is rejected and unobserved.
	if err := c.Complete("w2", sh2.ID, []byte("stale")); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("duplicate completion: %v", err)
	}

	want := []obs{
		{sh1.ID, "w1", 300 * time.Millisecond},
		{sh2.ID, "w3", 2500 * time.Millisecond},
	}
	if len(seen) != len(want) {
		t.Fatalf("observed %d completions, want %d: %+v", len(seen), len(want), seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("observation %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

// Shards an earlier run completed (a resumed ledger) are done from
// construction on: never leased, and a plan whose shards are all done
// is complete before any worker arrives.
func TestCompletedShardsAreNeverLeased(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := newTestCoordinator(30, 10, clk, Options{
		Completed:  func(sh Shard) bool { return sh.ID != 1 },
		OnComplete: func(Shard, []byte) error { return nil },
	})
	sh, ok := c.Lease("w")
	if !ok || sh.ID != 1 {
		t.Fatalf("lease = %+v, %v; want only shard 1", sh, ok)
	}
	if _, ok := c.Lease("w"); ok {
		t.Fatal("a completed shard was leased")
	}
	if err := c.Complete("w", sh.ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ShardsCompleted != 1 {
		t.Errorf("stats %+v, want the one shard completed here", st)
	}

	all := newTestCoordinator(30, 10, clk, Options{Completed: func(Shard) bool { return true }})
	select {
	case <-all.Done():
	default:
		t.Fatal("a plan with every shard completed is not done")
	}
}

// A payload the sink refuses before changing any state is the sender's
// fault alone when the sender does not hold the shard's lease: the
// shard stays leased to its holder, whose completion then goes
// through. The same refusal from the holder ends the plan.
func TestRefusedPayloadFromNonHolderLeavesShard(t *testing.T) {
	refuse := func(sh Shard, payload []byte) error {
		if string(payload) == "bad" {
			return fmt.Errorf("shard %d: %w", sh.ID, ErrPayloadRefused)
		}
		return nil
	}
	c := NewCoordinator(Plan{Key: "k", N: 2, ShardSize: 1}, Options{OnComplete: refuse})
	sh, ok := c.Lease("holder")
	if !ok {
		t.Fatal("no lease")
	}
	if err := c.Complete("stray", sh.ID, []byte("bad")); !errors.Is(err, ErrPayloadRefused) {
		t.Fatalf("stray refused completion returned %v, want ErrPayloadRefused", err)
	}
	if err := c.Heartbeat("holder", sh.ID); err != nil {
		t.Fatalf("holder lost its lease to a refused stray completion: %v", err)
	}
	if err := c.Complete("stray", 1, []byte("bad")); !errors.Is(err, ErrPayloadRefused) {
		t.Fatalf("refused completion of a pending shard returned %v", err)
	}
	if other, ok := c.Lease("holder"); !ok || other.ID != 1 {
		t.Fatalf("pending shard not leasable after a refused completion: %+v %v", other, ok)
	}
	if err := c.Complete("holder", sh.ID, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("plan aborted: %v", err)
	}
	if err := c.Complete("holder", 1, []byte("bad")); err != nil {
		t.Fatalf("holder's refused completion returned %v, want the plan aborted instead", err)
	}
	if err := c.Wait(context.Background()); !errors.Is(err, ErrPayloadRefused) {
		t.Fatalf("plan ended with %v, want the holder's refusal", err)
	}
	if st := c.Stats(); st.ShardsCompleted != 2 {
		t.Errorf("ShardsCompleted = %d, want 2", st.ShardsCompleted)
	}
}
