package server

import (
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/result"
)

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

// configJSON mirrors core.Config on the wire. AR is a pointer so an
// absent field means "the paper's AR20 default" while an explicit 0
// means a zero acceptable range.
type configJSON struct {
	AR            *float64 `json:"ar,omitempty"`
	CostThreshold int      `json:"cost_threshold,omitempty"`
	Window        int      `json:"window,omitempty"`
	MemoBits      int      `json:"memo_bits,omitempty"`
	DisableMemo   bool     `json:"disable_memo,omitempty"`
	DisableDI     bool     `json:"disable_di,omitempty"`
	ForceCP       bool     `json:"force_cp,omitempty"`
	MemoUniform   bool     `json:"memo_uniform,omitempty"`
	FixedStride   int      `json:"fixed_stride,omitempty"`
	IssueWidth    int      `json:"issue_width,omitempty"`
	EnableCFC     bool     `json:"enable_cfc,omitempty"`
	// Backend selects the execution engine ("compiled", the default
	// when absent, or "reference"). Both backends are bit-identical, so
	// it never affects the build cache.
	Backend string `json:"backend,omitempty"`
}

// toCoreConfig overlays the request config on the default deployment.
func (c *configJSON) toCoreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	if c == nil {
		return cfg, nil
	}
	if c.AR != nil {
		cfg.AR = *c.AR
	}
	cfg.CostThreshold = c.CostThreshold
	cfg.Window = c.Window
	cfg.MemoBits = c.MemoBits
	cfg.DisableMemo = c.DisableMemo
	cfg.DisableDI = c.DisableDI
	cfg.ForceCP = c.ForceCP
	cfg.MemoUniform = c.MemoUniform
	cfg.FixedStride = c.FixedStride
	cfg.IssueWidth = c.IssueWidth
	cfg.EnableCFC = c.EnableCFC
	var err error
	if cfg.Backend, err = machine.ParseBackend(c.Backend); err != nil {
		return cfg, err
	}
	return cfg, nil
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
	Config *configJSON `json:"config,omitempty"`
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
	Train  int         `json:"train,omitempty"`
	Config *configJSON `json:"config,omitempty"`
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
// fault-injection job over a built-in benchmark.
type campaignRequest struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// N is the injection count (default 1000, at most 1,000,000).
	N int `json:"n,omitempty"`
	// Seed drives fault-plan sampling (default 20200222, rskipfi's).
	Seed int64 `json:"seed,omitempty"`
	// Train is the number of training inputs for rskip (default 2,
	// at most 64).
	Train   int         `json:"train,omitempty"`
	Config  *configJSON `json:"config,omitempty"`
	Workers int         `json:"workers,omitempty"`
	Batch   int         `json:"batch,omitempty"`
	// TargetCI enables adaptive sampling (percentage points).
	TargetCI float64 `json:"target_ci,omitempty"`
	// RunTimeoutMS is retired: a wall-clock deadline made outcomes
	// depend on host speed. A positive value is rejected (code
	// retired_field) rather than silently ignored.
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// FaultModel selects the threat model: "seu" (default), "skip"
	// (instruction-skip bursts) or "multibit" (adjacent-bit upsets).
	// Unknown models are rejected with code unknown_fault_model.
	FaultModel string `json:"fault_model,omitempty"`
	// SkipWidth is the skip burst length (default 1).
	SkipWidth int `json:"skip_width,omitempty"`
	// BitWidth is the adjacent-bit flip width (default 2).
	BitWidth int `json:"bit_width,omitempty"`
	// Exhaustive enumerates every fault site of the model instead of
	// sampling N faults; N must be omitted (the region derives it).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Stratify allocates the N replicas across instruction-class
	// strata in proportion to the profiled stream; conflicts with
	// Exhaustive and TargetCI (code config_conflict).
	Stratify bool `json:"stratify,omitempty"`
	// Incremental runs the compositional per-region analyzer instead
	// of one monolithic campaign: N replicas per candidate-loop
	// region, served from the server's result cache when the region is
	// unchanged. Requires the server to run with -result-cache-dir;
	// conflicts with Exhaustive, TargetCI and Stratify.
	Incremental bool `json:"incremental,omitempty"`
	// Distributed also leases the campaign's shards to remote workers
	// (rskipd -worker -join) over /v1/fabric/*, beside the in-process
	// pool. Every campaign runs through the same coordinator and ledger,
	// so the result — early stop and resume included — is bit-identical
	// to the single-node campaign. Conflicts with Incremental (code
	// config_conflict).
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

// campaignResultJSON is the terminal (or partial, for cancelled jobs)
// outcome distribution of one campaign.
type campaignResultJSON struct {
	Scheme       string         `json:"scheme"`
	N            int            `json:"n"`
	Requested    int            `json:"requested"`
	EarlyStopped bool           `json:"early_stopped,omitempty"`
	Exhaustive   bool           `json:"exhaustive,omitempty"`
	Counts       map[string]int `json:"counts"`
	Protection   float64        `json:"protection_rate"`
	ProtectionCI [2]float64     `json:"protection_ci95"`
	Fired        int            `json:"fired"`
	FalseNeg     int            `json:"false_neg"`
	Recovered    int            `json:"recovered"`
	// Strata is the per-instruction-class breakdown of a stratified
	// campaign.
	Strata []stratumJSON `json:"strata,omitempty"`
	// Incremental marks a compositional per-region analysis; Regions
	// counts its campaign units and CacheHits/CacheMisses its result-
	// cache traffic (a fully warm re-submission hits every region).
	Incremental bool `json:"incremental,omitempty"`
	Regions     int  `json:"regions,omitempty"`
	CacheHits   int  `json:"cache_hits,omitempty"`
	CacheMisses int  `json:"cache_misses,omitempty"`
}

// stratumJSON is one instruction-class stratum.
type stratumJSON struct {
	Class     string  `json:"class"`
	Weight    float64 `json:"weight"`
	N         int     `json:"n"`
	Protected int     `json:"protected"`
}

func toCampaignResult(r fault.Result) *campaignResultJSON {
	j := &campaignResultJSON{
		Scheme: r.Scheme.String(), N: r.N, Requested: r.Requested,
		EarlyStopped: r.EarlyStopped, Exhaustive: r.Exhaustive,
		Counts:     map[string]int{},
		Protection: r.ProtectionRate(),
		Fired:      r.Fired, FalseNeg: r.FalseNeg, Recovered: r.Recovered,
	}
	lo, hi := r.ProtectionCI()
	j.ProtectionCI = [2]float64{lo, hi}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		j.Counts[c.String()] = r.Counts[c]
	}
	for _, st := range r.Strata {
		j.Strata = append(j.Strata, stratumJSON{
			Class: st.Class.String(), Weight: st.Weight,
			N: st.N, Protected: st.Protected,
		})
	}
	return j
}

// toIncrementalResult renders a compositional analysis: pooled counts
// from the composed result, weighted program-level protection, and
// the cache traffic that proves (or disproves) incrementality.
func toIncrementalResult(rep *result.Report) *campaignResultJSON {
	j := toCampaignResult(rep.Composed)
	j.Scheme = rep.Scheme.String()
	j.Protection = rep.Protection
	j.ProtectionCI = rep.ProtectionCI
	j.Incremental = true
	j.Regions = len(rep.Regions)
	j.CacheHits, j.CacheMisses = rep.CacheHits, rep.CacheMisses
	return j
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
	Result *campaignResultJSON `json:"result,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// progressEvent is one line of the application/x-ndjson stream served
// by GET /v1/campaigns/{id}/stream.
type progressEvent struct {
	ID         string              `json:"id"`
	State      string              `json:"state"`
	Done       int                 `json:"done"`
	N          int                 `json:"n"`
	Protection float64             `json:"protection_rate"`
	Result     *campaignResultJSON `json:"result,omitempty"`
	Error      string              `json:"error,omitempty"`
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
