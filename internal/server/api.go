package server

import "rskip/internal/campaign"

// Wire types of the rskipd JSON API (version v1). Field names are the
// contract clients build against; changing one is a breaking change.

// apiError is the structured error body every non-2xx response
// carries: {"error":{"code":"...","message":"..."}}. Codes are stable
// machine-readable slugs; messages are human diagnostics.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// compileRequest is the body of POST /v1/compile. Exactly one of
// Source (arbitrary MiniC, with Kernel naming the entry function) or
// Bench (a built-in benchmark) must be set.
type compileRequest struct {
	// Name labels the compilation unit in diagnostics (default "input.mc").
	Name string `json:"name,omitempty"`
	// Source is MiniC source text.
	Source string `json:"source,omitempty"`
	// Kernel is the entry function protected and profiled (default "main").
	Kernel string `json:"kernel,omitempty"`
	// Bench selects a built-in benchmark instead of Source.
	Bench string `json:"bench,omitempty"`
	// Schemes restricts the reported variants (default: all four).
	Schemes []string `json:"schemes,omitempty"`
	// Config tunes the build (acceptable range, CFC, ...).
	Config *campaign.BuildConfig `json:"config,omitempty"`
	// IncludeRIR embeds each variant's .rir text in the response.
	IncludeRIR bool `json:"include_rir,omitempty"`
}

// candidateJSON is one detected prediction-eligible loop.
type candidateJSON struct {
	Name       string `json:"name"`
	Header     int    `json:"header"`
	Latch      int    `json:"latch"`
	Cost       int    `json:"cost"`
	ValueFloat bool   `json:"value_float"`
	HasCall    bool   `json:"has_call"`
	Invariants int    `json:"invariants"`
}

// schemeStatsJSON is the static shape of one protected variant.
type schemeStatsJSON struct {
	Functions    int `json:"functions"`
	Instructions int `json:"instructions"` // static instruction count
	PPLoops      int `json:"pp_loops"`
	// RIR is the serialized module (include_rir only).
	RIR string `json:"rir,omitempty"`
}

type compileResponse struct {
	Name   string `json:"name"`
	Kernel string `json:"kernel"`
	// Cached reports whether the build was served from the shared
	// content-addressed build cache (or coalesced onto a concurrent
	// identical build) instead of compiled for this request.
	Cached     bool                       `json:"cached"`
	Candidates []candidateJSON            `json:"candidates"`
	Schemes    map[string]schemeStatsJSON `json:"schemes"`
}

// runRequest is the body of POST /v1/run: execute one built-in
// benchmark kernel under a scheme, bounded by a wall-clock timeout.
type runRequest struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// Seed indexes the test input (default 0).
	Seed int `json:"seed,omitempty"`
	// Scale is the input scale: "tiny", "fi" (default) or "perf".
	Scale string `json:"scale,omitempty"`
	// Train is the number of training inputs for the rskip scheme
	// (default 2, at most 64; ignored for other schemes).
	Train  int                   `json:"train,omitempty"`
	Config *campaign.BuildConfig `json:"config,omitempty"`
	// TimeoutMS bounds the execution (capped by the server's
	// max-run-timeout; 0 = the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type runResponse struct {
	Bench         string  `json:"bench"`
	Scheme        string  `json:"scheme"`
	Cached        bool    `json:"cached"`
	Instrs        uint64  `json:"instrs"`
	Cycles        uint64  `json:"cycles"`
	IPC           float64 `json:"ipc"`
	GoldenInstrs  uint64  `json:"golden_instrs"`
	GoldenCycles  uint64  `json:"golden_cycles"`
	Overhead      float64 `json:"overhead"` // cycles / golden cycles
	OutputMatches bool    `json:"output_matches"`
	SkipRate      float64 `json:"skip_rate,omitempty"`
	DISkipRate    float64 `json:"di_skip_rate,omitempty"`
}

// campaignRequest is the body of POST /v1/campaigns: an asynchronous
// fault-injection job over a built-in benchmark. The embedded spec
// holds what the campaign means (internal/campaign); the daemon fills
// its defaults — n 1000 (at most 1,000,000; per region when
// incremental), seed 20200222, train 2 (at most 64) — and refuses
// incremental jobs without a result cache (code
// incremental_unavailable) and conflicting options (code
// config_conflict). The remaining fields are the daemon's own.
type campaignRequest struct {
	campaign.Spec
	// RunTimeoutMS is retired: a wall-clock deadline made outcomes
	// depend on host speed. A positive value is rejected (code
	// retired_field) rather than silently ignored.
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// Distributed also leases the campaign's shards to remote workers
	// (rskipd -worker -join) over /v1/fabric/*, beside the in-process
	// pool. Every campaign runs through the same coordinator and ledger,
	// so the result — early stop and resume included — is bit-identical
	// to the single-node campaign. Conflicts with Incremental.
	Distributed bool `json:"distributed,omitempty"`
	// ShardSize is the runs-per-lease granularity of a distributed
	// campaign (default 250).
	ShardSize int `json:"shard_size,omitempty"`
	// LocalWorkers is the number of in-process lease loops the
	// coordinator node contributes to its own distributed campaign:
	// 0 = one loop (default), < 0 = none (pure coordinator, remote
	// workers do all the work).
	LocalWorkers int `json:"local_workers,omitempty"`
}

// campaignSubmitResponse acknowledges an accepted job (202).
type campaignSubmitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// campaignStatus is the body of GET /v1/campaigns/{id}, and the
// per-job element of GET /v1/campaigns.
type campaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Bench string `json:"bench"`
	// Done/N track progress: completed runs out of requested.
	Done int `json:"done"`
	N    int `json:"n"`
	// Result is present once the job reaches a terminal state (for
	// cancelled jobs it holds the partial outcome distribution).
	Result *campaign.Result `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// progressEvent is one line of the application/x-ndjson stream served
// by GET /v1/campaigns/{id}/stream.
type progressEvent struct {
	ID         string           `json:"id"`
	State      string           `json:"state"`
	Done       int              `json:"done"`
	N          int              `json:"n"`
	Protection float64          `json:"protection_rate"`
	Result     *campaign.Result `json:"result,omitempty"`
	Error      string           `json:"error,omitempty"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
	Queued   int    `json:"jobs_queued"`
	Running  int    `json:"jobs_running"`
	// FabricJobs counts distributed campaigns currently leasing shards
	// to workers.
	FabricJobs int  `json:"fabric_jobs,omitempty"`
	Draining   bool `json:"draining"`
}
