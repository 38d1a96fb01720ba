// Package fabric is the transport-agnostic campaign execution fabric:
// a deterministic decomposition of one campaign's run indexes into
// shards (Plan), a lease-based Coordinator that hands shards to
// workers and steals them back from stragglers, and the ShardRunner
// contract both the in-process worker pool and remote worker daemons
// implement.
//
// The fabric's exactness argument rests on one invariant inherited
// from the fault engine: a run record is a pure function of its run
// index (every fault plan is pre-drawn from the campaign seed by
// index). A shard is therefore just a half-open index range — it does
// not matter which worker executes it, how often it is re-executed
// after a lease expires, or in what order shards complete: merging
// the per-shard records by index reproduces the single-node record
// array bit for bit, and every aggregate (outcome counts, protection
// CIs) follows.
//
// The package is deliberately dependency-free (stdlib only) so the
// fault engine can run every campaign on it without an import cycle:
// fault.Executor is a ShardRunner, and fault.Ledger is the merge sink
// a campaign's Coordinator feeds.
package fabric

import "fmt"

// Shard is one contiguous half-open index range [Lo, Hi) of a
// campaign plan. IDs are dense and ordered: shard i covers the i-th
// range of the plan's split, so a payload array indexed by shard ID
// reassembles in run-index order.
type Shard struct {
	ID int `json:"id"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Size is the number of runs the shard covers.
func (s Shard) Size() int { return s.Hi - s.Lo }

// Key fingerprints the shard inside a plan: the plan key (the same
// fingerprint campaign checkpoints use) plus the index range. Two
// workers that derive the same shard key are provably executing the
// same runs of the same campaign, which is what makes reassignment
// and resume-anywhere free.
func (s Shard) Key(planKey string) string {
	return fmt.Sprintf("%s|shard=%d-%d", planKey, s.Lo, s.Hi)
}

// Split decomposes the shard into consecutive sub-ranges of at most
// size runs — the granularity at which a worker heartbeats its lease
// and checks for cancellation mid-shard.
func (s Shard) Split(size int) []Shard {
	sub := Ranges(s.Size(), size)
	for i := range sub {
		sub[i].Lo += s.Lo
		sub[i].Hi += s.Lo
	}
	return sub
}

// Plan is the deterministic decomposition of a campaign's N runs into
// shards of at most ShardSize runs. Identical (Key, N, ShardSize)
// triples decompose identically everywhere — the coordinator and
// every worker derive the same shard table independently.
type Plan struct {
	// Key is the campaign identity, fingerprinted the same way the
	// fault engine keys its checkpoints (fault.CampaignKey): benchmark,
	// build config, scheme, N, seed, mix, hang factor. A worker
	// cross-checks its locally derived key against the coordinator's
	// before running a shard, so configuration drift is an error, not
	// a silent divergence.
	Key string `json:"key"`
	// N is the total run count.
	N int `json:"n"`
	// ShardSize caps runs per shard; <= 0 means one shard.
	ShardSize int `json:"shard_size"`
}

// Shards returns the plan's shard table.
func (p Plan) Shards() []Shard { return Ranges(p.N, p.ShardSize) }

// Ranges splits [0, n) into consecutive half-open ranges of at most
// size, in order. It is the one range-split in the codebase: the
// coordinator's shard table, a shard's heartbeat sub-batches and the
// ledger's early-stop boundaries all derive from it, so "batch",
// "shard" and "checkpoint interval" can never disagree about boundary
// arithmetic. size <= 0 yields a single range covering everything;
// n <= 0 yields none.
func Ranges(n, size int) []Shard {
	if n <= 0 {
		return nil
	}
	if size <= 0 || size > n {
		return []Shard{{ID: 0, Lo: 0, Hi: n}}
	}
	out := make([]Shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Shard{ID: len(out), Lo: lo, Hi: hi})
	}
	return out
}
