// Package campaign holds what one fault-injection campaign request
// means, for both front ends that serve the §7.2 campaigns: rskipfi
// fills one Spec per scheme from its flags, and rskipd's campaign
// request embeds a Spec beside its wire-only fields. A Spec carries
// the request's fields and their conflicts; Setup builds, trains and
// instantiates it; Analyze runs its incremental form; Result renders
// the outcome as JSON. Where the campaign then runs — fault.Campaign
// or a fabric of executors in rskipfi, the daemon's ledger in rskipd —
// stays with each front end.
package campaign

import (
	"context"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
	"rskip/internal/result"
)

// The campaign defaults both front ends share: the paper's 1,000
// injections and rskipfi's historical sampling seed.
const (
	DefaultN    = 1000
	DefaultSeed = 20200222
)

// BuildConfig mirrors core.Config on the wire. AR is a pointer so an
// absent field means "the paper's AR20 default" while an explicit 0
// means a zero acceptable range.
type BuildConfig struct {
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

// Core overlays the config on the default deployment.
func (c *BuildConfig) Core() (core.Config, error) {
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
	cfg.Backend, err = machine.ParseBackend(c.Backend)
	return cfg, err
}

// Spec is one fault-injection campaign over a built-in benchmark. Its
// JSON form is the body of rskipd's POST /v1/campaigns (beside the
// daemon's own fields) and the request a persisted job spec holds.
type Spec struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// N is the injection count (per region for Incremental).
	N int `json:"n,omitempty"`
	// Seed drives fault-plan sampling.
	Seed int64 `json:"seed,omitempty"`
	// Train is the number of training inputs for rskip.
	Train   int          `json:"train,omitempty"`
	Config  *BuildConfig `json:"config,omitempty"`
	Workers int          `json:"workers,omitempty"`
	Batch   int          `json:"batch,omitempty"`
	// TargetCI enables adaptive sampling (percentage points).
	TargetCI float64 `json:"target_ci,omitempty"`
	// FaultModel selects the threat model: "seu" (default), "skip"
	// (instruction-skip bursts) or "multibit" (adjacent-bit upsets).
	// Unknown models are rejected with a *fault.UnknownModelError.
	FaultModel string `json:"fault_model,omitempty"`
	// SkipWidth is the skip burst length (default 1).
	SkipWidth int `json:"skip_width,omitempty"`
	// BitWidth is the adjacent-bit flip width (default 2).
	BitWidth int `json:"bit_width,omitempty"`
	// Exhaustive enumerates every fault site of the model instead of
	// sampling N faults; N must be 0 (the region derives it).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Stratify allocates the N replicas across instruction-class
	// strata in proportion to the profiled stream; fault.Config.Validate
	// rejects it with Exhaustive or TargetCI.
	Stratify bool `json:"stratify,omitempty"`
	// Incremental runs the compositional per-region analyzer instead
	// of one monolithic campaign: N replicas per candidate-loop region,
	// served from a result cache when the region is unchanged.
	// CheckConflicts lists what it cannot be combined with.
	Incremental bool `json:"incremental,omitempty"`
}

// CheckConflicts decides every option that conflicts with an
// incremental analysis. The analyzer owns its sampling discipline —
// a fixed replica count per region, region-keyed seeds, the result
// cache as its persistence — so the options that reshape or persist a
// monolithic campaign's plan list conflict with it. sharded reports a
// campaign leased to fabric executors (rskipfi -fabric, rskipd
// "distributed") and checkpointed one that writes its own checkpoint
// (rskipfi -checkpoint); neither belongs to the spec itself.
func (s *Spec) CheckConflicts(sharded, checkpointed bool) error {
	if !s.Incremental {
		return nil
	}
	for _, c := range []struct {
		set            bool
		option, reason string
	}{
		{s.Exhaustive, "exhaustive", "exhaustive enumeration is already per-site; there is nothing to compose or cache"},
		{s.TargetCI > 0, "target_ci", "early stopping would make cached per-region counts depend on when a previous run stopped"},
		{s.Stratify, "stratify", "the incremental analyzer already stratifies by region; per-class strata inside a region are not cacheable yet"},
		{checkpointed, "checkpoint", "the result cache is the incremental analyzer's persistence"},
		{sharded, "fabric", "the incremental analyzer shards by region through the result cache; fabric sharding by index would nest the two decompositions"},
	} {
		if c.set {
			return &fault.ConfigConflictError{Options: "incremental and " + c.option, Reason: c.reason}
		}
	}
	return nil
}

// FaultConfig maps the spec to the engine config. An unknown fault
// model surfaces as *fault.UnknownModelError.
func (s *Spec) FaultConfig() (fault.Config, error) {
	mix, err := fault.ModelMix(s.FaultModel)
	if err != nil {
		return fault.Config{}, err
	}
	return fault.Config{
		N: s.N, Seed: s.Seed, Workers: s.Workers, Batch: s.Batch,
		TargetCI: s.TargetCI,
		Mix:      mix, SkipWidth: s.SkipWidth, BitWidth: s.BitWidth,
		Exhaustive: s.Exhaustive, Stratify: s.Stratify,
	}, nil
}

// Setup is everything a spec resolves to before it runs: every input
// to its campaign key.
type Setup struct {
	Program *core.Program
	Scheme  core.Scheme
	// Inst is the fault-injection instance: test input 0 at FI scale,
	// named instKey in result-cache keys.
	Inst  bench.Instance
	Fault fault.Config
}

const instKey = "test0/fi"

// Setup builds the spec's benchmark (through the shared
// content-addressed build cache, so campaigns over one benchmark ×
// config compile once per process), trains RSkip's predictors on
// Train inputs, generates the fault-injection instance and maps the
// engine config. Every process that runs a shard of the campaign goes
// through it, so they derive the same campaign key by construction.
func (s *Spec) Setup(ctx context.Context) (*Setup, error) {
	scheme, err := core.ParseScheme(s.Scheme)
	if err != nil {
		return nil, err
	}
	b, err := bench.ByName(s.Bench)
	if err != nil {
		return nil, err
	}
	cfg, err := s.Config.Core()
	if err != nil {
		return nil, err
	}
	fcfg, err := s.FaultConfig()
	if err != nil {
		return nil, err
	}
	p, err := core.BuildContext(ctx, b, cfg)
	if err != nil {
		return nil, err
	}
	if scheme == core.RSkip {
		if err := p.Train(bench.TrainSeeds(s.Train), bench.ScaleFI); err != nil {
			return nil, err
		}
	}
	return &Setup{Program: p, Scheme: scheme, Inst: b.Gen(bench.TestSeed(0), bench.ScaleFI), Fault: fcfg}, nil
}

// Analyze runs the incremental form of the campaign: one campaign of
// Fault.N replicas per candidate-loop region, served from cache where
// a region is unchanged (nil runs every region live), composed into
// program-level figures.
func (c *Setup) Analyze(ctx context.Context, cache *result.Cache) (*result.Report, error) {
	return result.Analyze(ctx, c.Program, c.Scheme, c.Inst, result.Options{
		Cache: cache, PerRegionN: c.Fault.N, Seed: c.Fault.Seed,
		InstKey: instKey, Mix: c.Fault.Mix,
		SkipWidth: c.Fault.SkipWidth, BitWidth: c.Fault.BitWidth,
		Workers: c.Fault.Workers,
	})
}
