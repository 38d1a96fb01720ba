package campaign

import (
	"encoding/json"
	"fmt"
	"sync"

	"rskip/internal/fabric"
	"rskip/internal/fault"
)

// ShardPayload is the wire form of one completed shard: the records
// for [Lo, Hi), tagged with the shard key so a merger can refuse a
// payload from a drifted configuration or a mislabelled range.
type ShardPayload struct {
	// Key is fabric.Shard.Key(planKey) — the campaign key plus the
	// index range, derived independently by the worker.
	Key     string            `json:"key"`
	Lo      int               `json:"lo"`
	Hi      int               `json:"hi"`
	Records []fault.RunRecord `json:"records"`
}

// Merger reassembles shard payloads into the full record array and
// aggregates it through the executor's own fold — the same
// aggregation the single-node path runs, so the merged Result is
// bit-identical to an undistributed campaign by construction. Safe
// for concurrent Add calls.
type Merger struct {
	x  *fault.Executor
	mu sync.Mutex
	// recs is the full-length record array, filled shard by shard.
	recs []fault.RunRecord
	// merged marks shards already accepted, by shard key.
	merged map[string]bool
	done   int
}

// NewMerger builds a merger over the coordinator-side executor (the
// coordinator prepares one anyway to derive the plan key; the merger
// reuses it for aggregation, including stratification tables).
func NewMerger(x *fault.Executor) *Merger {
	return &Merger{
		x:      x,
		recs:   make([]fault.RunRecord, x.N()),
		merged: map[string]bool{},
	}
}

// Add validates and merges one completed shard's payload. It rejects
// payloads whose key does not match the shard slot they arrived for,
// whose range disagrees with the shard, whose record count is wrong,
// or that contain unfinished records — each a symptom of a worker
// bug that must fail loudly rather than skew counts.
func (m *Merger) Add(sh fabric.Shard, payload []byte) error {
	var p ShardPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return fmt.Errorf("campaign: decoding shard %d payload: %w", sh.ID, err)
	}
	if want := sh.Key(m.x.Key()); p.Key != want {
		return fmt.Errorf("campaign: shard %d payload key mismatch (configuration drift):\n  have %s\n  want %s", sh.ID, p.Key, want)
	}
	if p.Lo != sh.Lo || p.Hi != sh.Hi {
		return fmt.Errorf("campaign: shard %d payload covers [%d, %d), lease covers [%d, %d)", sh.ID, p.Lo, p.Hi, sh.Lo, sh.Hi)
	}
	if len(p.Records) != sh.Size() {
		return fmt.Errorf("campaign: shard %d payload holds %d records for %d runs", sh.ID, len(p.Records), sh.Size())
	}
	for i := range p.Records {
		if !p.Records[i].Done {
			return fmt.Errorf("campaign: shard %d payload has unfinished record at index %d", sh.ID, p.Lo+i)
		}
		if err := p.Records[i].Validate(); err != nil {
			return fmt.Errorf("campaign: shard %d payload record at index %d: %w", sh.ID, p.Lo+i, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.merged[p.Key] {
		return fmt.Errorf("campaign: shard %d merged twice", sh.ID)
	}
	m.merged[p.Key] = true
	copy(m.recs[p.Lo:p.Hi], p.Records)
	m.done += len(p.Records)
	return nil
}

// Done reports how many runs have been merged.
func (m *Merger) Done() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

// Partial aggregates whatever has been merged so far — the progress
// view. Unmerged indexes are not-Done records, which the fold skips.
func (m *Merger) Partial() (fault.Result, error) {
	m.mu.Lock()
	recs := make([]fault.RunRecord, len(m.recs))
	copy(recs, m.recs)
	m.mu.Unlock()
	return m.x.Aggregate(recs)
}

// Result aggregates the complete campaign. It is an error to call it
// before every index has been merged — a partial final result would
// silently report a smaller campaign.
func (m *Merger) Result() (fault.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done != len(m.recs) {
		return fault.Result{}, fmt.Errorf("campaign: result requested with %d/%d runs merged", m.done, len(m.recs))
	}
	return m.x.Aggregate(m.recs)
}
