package fabric

import "encoding/json"

// The fabric wire protocol: three JSON POST endpoints a coordinator
// daemon exposes and a worker daemon calls. The types live here —
// next to the coordinator whose methods they mirror 1:1 — so the two
// rskipd roles cannot drift apart.
//
//	POST /v1/fabric/lease      WireLeaseRequest  → 200 WireLease | 204 (no work)
//	POST /v1/fabric/heartbeat  WireHeartbeat     → 200 | 409 lease_lost | 410 gone
//	POST /v1/fabric/complete   WireComplete      → 200 | 409 lease_lost | 409 payload_refused | 410 gone
//
// 409 means the coordinator stole the lease, or refused the payload of
// a worker that does not hold it (either way the worker abandons the
// shard and leases again); 410 means the job is gone (finished,
// cancelled, or the daemon restarted) and the worker drops any state
// for it. Payload contents are opaque to the protocol — campaigns put
// a fault.ShardPayload there.

// WireLeaseRequest asks for the next available shard of any job the
// coordinator is running.
type WireLeaseRequest struct {
	// Worker is the caller's stable identity across calls — lease
	// ownership, heartbeats and completions are checked against it.
	Worker string `json:"worker"`
}

// WireLease is one granted lease.
type WireLease struct {
	// JobID routes heartbeats and completions back to the campaign.
	JobID string `json:"job_id"`
	// PlanKey is the coordinator's campaign fingerprint. The worker
	// derives the same key from Spec independently and refuses the
	// shard on mismatch — configuration drift must fail loudly.
	PlanKey string `json:"plan_key"`
	// N is the plan's total run count (for progress display).
	N int `json:"n"`
	// Shard is the granted index range.
	Shard Shard `json:"shard"`
	// LeaseTTLMS tells the worker how often it must heartbeat.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// Spec is the job's build/run specification, opaque to the fabric
	// (for campaigns: the campaign request JSON). Identical specs are
	// content-addressed into the worker's build cache, so every shard
	// of a campaign — and every campaign over the same benchmark and
	// config — reuses one build.
	Spec json.RawMessage `json:"spec"`
}

// WireHeartbeat extends a lease.
type WireHeartbeat struct {
	Worker string `json:"worker"`
	JobID  string `json:"job_id"`
	Shard  int    `json:"shard"`
}

// WireComplete delivers a finished shard's payload.
type WireComplete struct {
	Worker  string          `json:"worker"`
	JobID   string          `json:"job_id"`
	Shard   int             `json:"shard"`
	Payload json.RawMessage `json:"payload"`
}
