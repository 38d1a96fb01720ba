package fault

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"rskip/internal/fabric"
)

// errTargetReached is the ledger's stop signal: the merged prefix met
// Config.TargetCI, so the coordinator ends the plan without failing it.
var errTargetReached = errors.New("fault: target confidence interval reached")

// PayloadError reports a shard payload the ledger refused: undecodable,
// keyed for another campaign, labelled with another range, short, or
// holding a record no run could have produced. Each is a symptom of a
// worker bug or configuration drift that must fail loudly rather than
// skew counts. The ledger raises it before changing any state, so it
// matches fabric.ErrPayloadRefused: the coordinator bounces it back to
// a sender that does not hold the shard's lease.
type PayloadError struct {
	Shard int
	Err   error
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("fault: shard %d payload rejected: %v", e.Shard, e.Err)
}

func (e *PayloadError) Unwrap() error { return e.Err }

// Is reports that a PayloadError is a fabric.ErrPayloadRefused.
func (e *PayloadError) Is(target error) bool { return target == fabric.ErrPayloadRefused }

// Ledger is a campaign's merge sink and its persistent state: the full
// record array, filled shard by shard from payloads in any completion
// order. It is the one place a campaign checkpoints, reports progress
// and decides an early stop, so every execution — one process or many
// nodes — gets all three:
//
//   - With Config.CheckpointPath set, it loads the checkpoint on
//     creation (shards whose records are all Done count as complete
//     before the first lease) and saves it after every merged shard,
//     in the Checkpoint format.
//   - Config.OnProgress receives a snapshot after every merge, after
//     its save.
//   - With Config.TargetCI set, it walks the contiguous merged prefix
//     and checks the Wilson width at every Batch boundary, in order;
//     the first boundary that meets the target is the stop. Records
//     past it are never aggregated, so the stop is the one a
//     single-process batch loop would reach, whatever the shard size
//     and completion order.
type Ledger struct {
	// x is the executor the ledger was built for; e is its engine.
	x    *Executor
	e    *engine
	plan fabric.Plan
	// solo is set for a single process's shard size (NewLedger's
	// shardSize <= 0), whose plan no remote worker leases.
	solo   bool
	shards []fabric.Shard
	// bounds are the early-stop boundaries: the ends of the Batch
	// ranges, in order.
	bounds []int

	mu sync.Mutex
	// progressMu orders OnProgress deliveries: Add takes it before
	// releasing mu, so snapshots arrive in merge order while the
	// callback runs without mu held.
	progressMu sync.Mutex
	recs       []RunRecord
	merged     []bool // by shard ID
	// chunks holds each shard's records JSON-encoded, the elements of
	// the checkpoint's records array. A merge re-encodes only its own
	// shard, so a save copies the array instead of re-encoding every
	// record (nil without a CheckpointPath).
	chunks [][]byte
	// prefix is the length of the contiguous Done prefix of recs, next
	// the first bound not yet checked against TargetCI, and stop the
	// early-stop bound (-1 while running).
	prefix, next, stop int
	// closed is set once Drive returns; late remote completions are
	// refused instead of rewriting a finished campaign's checkpoint.
	closed bool
}

// NewLedger builds the ledger of the executor's campaign over shards
// of shardSize runs (<= 0: Config.Batch, a single process's shard
// size), resuming Config.CheckpointPath when it holds this campaign's
// checkpoint. The executor is seeded with the restored records, so a
// partly done shard it is leased skips its done indexes. A plan of a
// single process's shard size must not be leased to remote workers:
// Drive lets its own executor run ahead into shards it has not leased.
func NewLedger(x *Executor, shardSize int) (*Ledger, error) {
	e := x.e
	size := shardSize
	if size <= 0 {
		size = e.cfg.Batch
	}
	plan := fabric.Plan{Key: e.key, N: e.cfg.N, ShardSize: size}
	l := &Ledger{x: x, e: e, plan: plan, shards: plan.Shards(), solo: shardSize <= 0,
		recs: make([]RunRecord, e.cfg.N), stop: -1}
	l.merged = make([]bool, len(l.shards))
	for _, r := range fabric.Ranges(e.cfg.N, e.cfg.Batch) {
		l.bounds = append(l.bounds, r.Hi)
	}
	if path := e.cfg.CheckpointPath; path != "" {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			if err := ck.validateFor(e.key, e.cfg.N); err != nil {
				return nil, err
			}
			copy(l.recs, ck.Records)
			x.mu.Lock()
			copy(e.records, ck.Records)
			x.mu.Unlock()
			e.met.skipped.Add(uint64(countDone(l.recs)))
		}
	}
	for id, sh := range l.shards {
		l.merged[id] = countDone(l.recs[sh.Lo:sh.Hi]) == sh.Size()
	}
	if e.cfg.CheckpointPath != "" {
		l.chunks = make([][]byte, len(l.shards))
		for id, sh := range l.shards {
			l.chunks[id] = encodeRecords(l.recs[sh.Lo:sh.Hi])
		}
	}
	l.advance()
	return l, nil
}

// Plan is the fabric plan the ledger merges: the campaign key, N and
// the shard size it was built with.
func (l *Ledger) Plan() fabric.Plan { return l.plan }

// Coordinator builds the campaign's coordinator: opt with the ledger
// as its merge sink and its restored shards pre-completed.
func (l *Ledger) Coordinator(opt fabric.Options) *fabric.Coordinator {
	opt.OnComplete = l.Add
	opt.Completed = func(sh fabric.Shard) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.merged[sh.ID]
	}
	return fabric.NewCoordinator(l.plan, opt)
}

// Add validates and merges one completed shard's payload, saves the
// checkpoint and reports progress. It returns a *PayloadError for a
// payload it refuses, the save error when the checkpoint could not be
// written, and errTargetReached once the merged prefix met TargetCI.
//
// An empty payload names the records the ledger's own executor holds
// for the shard: Drive's lease loops on that executor complete this
// way, skipping the JSON round trip a remote payload needs. The
// records are checked like any payload's, and an executor's finished
// records are correct whoever names them.
func (l *Ledger) Add(sh fabric.Shard, payload []byte) error {
	if sh.ID < 0 || sh.ID >= len(l.shards) || l.shards[sh.ID] != sh {
		return &PayloadError{Shard: sh.ID, Err: fmt.Errorf("range [%d, %d) is not a shard of the plan", sh.Lo, sh.Hi)}
	}
	recs, err := l.decode(sh, payload)
	if err != nil {
		return &PayloadError{Shard: sh.ID, Err: err}
	}
	pr, stopped, err := l.merge(sh, recs)
	if err != nil {
		return err
	}
	if pr != nil {
		l.e.cfg.OnProgress(*pr)
		l.progressMu.Unlock()
	}
	if stopped {
		return errTargetReached
	}
	return nil
}

// merge records a decoded shard and saves the checkpoint. With
// OnProgress set it returns the snapshot to deliver with progressMu
// held, taken before mu is released.
func (l *Ledger) merge(sh fabric.Shard, recs []RunRecord) (*Progress, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return nil, false, &PayloadError{Shard: sh.ID, Err: errors.New("the campaign has ended")}
	case l.merged[sh.ID]:
		return nil, false, &PayloadError{Shard: sh.ID, Err: errors.New("merged twice")}
	}
	l.merged[sh.ID] = true
	copy(l.recs[sh.Lo:sh.Hi], recs)
	cfg := &l.e.cfg
	if cfg.CheckpointPath != "" {
		l.chunks[sh.ID] = encodeRecords(recs)
		if err := WriteFileAtomic(cfg.CheckpointPath, l.checkpointJSON()); err != nil {
			return nil, false, fmt.Errorf("fault: writing checkpoint: %w", err)
		}
		l.e.met.ckWrites.Inc()
	}
	var pr *Progress
	if cfg.OnProgress != nil {
		agg := l.e.aggregateRecords(l.recs, cfg.N)
		pr = &Progress{Done: agg.N, N: cfg.N, Result: agg}
		l.progressMu.Lock()
	}
	return pr, l.advance(), nil
}

// checkpointJSON renders the ledger in the Checkpoint format.
func (l *Ledger) checkpointJSON() []byte {
	key, _ := json.Marshal(l.e.key) // a string always encodes
	b := fmt.Appendf(nil, `{"version":%d,"key":%s,"n":%d,"done":%d,"records":[`,
		checkpointVersion, key, l.e.cfg.N, countDone(l.recs))
	for i, c := range l.chunks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(b, "]}"...)
}

// encodeRecords is the JSON array of recs without its brackets.
func encodeRecords(recs []RunRecord) []byte {
	b, _ := json.Marshal(recs) // plain structs always encode
	return b[1 : len(b)-1]
}

// decode checks a payload against the shard it arrived for.
func (l *Ledger) decode(sh fabric.Shard, payload []byte) ([]RunRecord, error) {
	var recs []RunRecord
	if len(payload) == 0 {
		recs = l.x.records(sh.Lo, sh.Hi)
	} else {
		var p ShardPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, fmt.Errorf("decoding: %w", err)
		}
		if want := sh.Key(l.e.key); p.Key != want {
			return nil, fmt.Errorf("key mismatch (configuration drift):\n  have %s\n  want %s", p.Key, want)
		}
		if p.Lo != sh.Lo || p.Hi != sh.Hi {
			return nil, fmt.Errorf("payload covers [%d, %d), lease covers [%d, %d)", p.Lo, p.Hi, sh.Lo, sh.Hi)
		}
		if len(p.Records) != sh.Size() {
			return nil, fmt.Errorf("payload holds %d records for %d runs", len(p.Records), sh.Size())
		}
		recs = p.Records
	}
	for i := range recs {
		if !recs[i].Done {
			return nil, fmt.Errorf("unfinished record at index %d", sh.Lo+i)
		}
		if err := recs[i].Validate(); err != nil {
			return nil, fmt.Errorf("record at index %d: %w", sh.Lo+i, err)
		}
	}
	return recs, nil
}

// ownRunner runs shards on the ledger's own executor and completes
// them with an empty payload (see Add). With ahead set, the executor
// runs ahead into the next shard while a shard's last runs finish:
// the runner is the plan's only one, so the next shard in plan order
// is its own.
type ownRunner struct {
	x     *Executor
	ahead bool
}

func (r ownRunner) RunShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat) ([]byte, error) {
	return nil, r.x.runShard(ctx, sh, hb, r.ahead)
}

// advance extends the contiguous Done prefix and checks TargetCI at
// each Batch boundary it passed, in order. It reports whether the
// campaign has reached its stop. The caller holds l.mu (or owns l).
func (l *Ledger) advance() bool {
	target := l.e.cfg.TargetCI
	if target <= 0 || l.stop >= 0 {
		return l.stop >= 0
	}
	for l.prefix < len(l.recs) && l.recs[l.prefix].Done {
		l.prefix++
	}
	for ; l.next < len(l.bounds) && l.bounds[l.next] <= l.prefix; l.next++ {
		b := l.bounds[l.next]
		agg := l.e.aggregateRecords(l.recs, b)
		if lo, hi := agg.ProtectionCI(); hi-lo <= target {
			l.stop = b
			return true
		}
	}
	return false
}

// Result aggregates what the ledger holds: every merged record, or the
// records before the early stop once TargetCI met its target.
func (l *Ledger) Result() Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	stop := l.e.cfg.N
	if l.stop >= 0 {
		stop = l.stop
	}
	res := l.e.aggregateRecords(l.recs, stop)
	res.EarlyStopped = stop < l.e.cfg.N
	res.Exhaustive = l.e.cfg.Exhaustive
	return res
}

// Drive runs the campaign to its end through coord, a coordinator
// from l.Coordinator: one in-process lease loop per local runner (a
// runner may repeat), plus whatever remote workers lease from coord
// meanwhile. When the ledger has a single process's shard size and
// its own executor is the only local runner, no other runner takes
// its shards, so the executor runs ahead into the next shard while a
// shard's last runs finish (Executor.runRange). Drive returns the
// ledger's Result once the plan has ended, every local loop has
// returned and every local executor's workers have exited; a loop
// still running a shard when an early stop ends the plan finishes that
// shard first. Cancelling ctx abandons the shards in flight — their
// runs re-execute on resume — and returns the merged partial Result
// with an error wrapping ctx.Err().
func (l *Ledger) Drive(ctx context.Context, coord *fabric.Coordinator, local ...fabric.ShardRunner) (Result, error) {
	l.mu.Lock()
	stopped := l.stop >= 0
	l.mu.Unlock()
	var err error
	if !stopped {
		// The loops share ctx rather than a context Drive could cancel
		// at the plan's end: replicas poll a cancellable context's Done
		// channel, which an uncancellable one spares them.
		var wg sync.WaitGroup
		for i, r := range local {
			if x, ok := r.(*Executor); ok && x == l.x {
				r = ownRunner{x: x, ahead: l.solo && len(local) == 1}
			}
			wg.Add(1)
			go func(i int, r fabric.ShardRunner) {
				defer wg.Done()
				// RunLocal returns when the plan ends; its error surfaces
				// through coord.Wait.
				_ = fabric.RunLocal(ctx, coord, 1, fmt.Sprintf("local%d", i), r)
			}(i, r)
		}
		err = coord.Wait(ctx)
		wg.Wait()
		for _, r := range local {
			if x, ok := r.(*Executor); ok {
				x.Release()
			}
		}
		// A plan that ended as ctx was cancelled reports its own outcome.
		select {
		case <-coord.Done():
			err = coord.Err()
		default:
		}
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	res := l.Result()
	if err != nil && !errors.Is(err, errTargetReached) {
		return res, fmt.Errorf("fault: campaign interrupted after %d/%d runs: %w", res.N, l.e.cfg.N, err)
	}
	return res, nil
}
