// Package core is RSkip's public pipeline facade: compile MiniC source
// once, derive the protected module variants (UNSAFE, SWIFT, SWIFT-R,
// prediction-based), run the offline training phase, and execute
// instances under any scheme with full measurement — dynamic
// instructions, simulated cycles/IPC, skip rates, and optional fault
// injection. Everything the command-line tools, examples, tests and
// benchmark harness do goes through this package.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"rskip/internal/analysis"
	"rskip/internal/bench"
	"rskip/internal/ir"
	"rskip/internal/lower"
	"rskip/internal/machine"
	"rskip/internal/obs"
	"rskip/internal/pass"
	"rskip/internal/rtm"
	"rskip/internal/train"
)

// Scheme names a protection configuration.
type Scheme int

// Schemes.
const (
	Unsafe     Scheme = iota // no protection
	SWIFT                    // detection-only duplication
	SWIFTR                   // TMR duplication (baseline)
	RSkip                    // prediction-based protection
	SWIFTRHard               // skip-hardened TMR + control-flow checking
)

func (s Scheme) String() string {
	switch s {
	case Unsafe:
		return "UNSAFE"
	case SWIFT:
		return "SWIFT"
	case SWIFTR:
		return "SWIFT-R"
	case RSkip:
		return "RSkip"
	case SWIFTRHard:
		return "SWIFT-R-HARD"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme maps a scheme name, as the CLIs and the daemon accept it
// (case and surrounding space ignored), to the enum.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "unsafe":
		return Unsafe, nil
	case "swift":
		return SWIFT, nil
	case "swiftr", "swift-r":
		return SWIFTR, nil
	case "rskip":
		return RSkip, nil
	case "swiftrhard", "swift-r-hard":
		return SWIFTRHard, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want unsafe, swift, swiftr, rskip or swiftrhard)", name)
}

// Config parameterizes a build.
type Config struct {
	// AR is the acceptable range as a fraction (0.2 = the paper's
	// AR20).
	AR float64
	// CostThreshold gates candidate loops (0 = default).
	CostThreshold int
	// Window is the run-time observe/adjust period.
	Window int
	// MemoBits is the memo-table address width.
	MemoBits int
	// DisableMemo turns off the second-level predictor (Fig. 8a's
	// DI-only configuration).
	DisableMemo bool
	// DisableDI routes everything to the second-level predictor.
	DisableDI bool
	// ForceCP runs every PP loop under emulated conventional
	// protection.
	ForceCP bool
	// MemoUniform selects prior work's uniform quantization.
	MemoUniform bool
	// FixedStride replaces dynamic phase slicing with fixed-length
	// phases (ablation).
	FixedStride int
	// IssueWidth overrides the simulated core's issue width.
	IssueWidth int
	// EnableCFC adds control-flow checking (block signatures) to the
	// SWIFT, SWIFT-R and RSkip variants — the companion technique that
	// fail-stops illegal control transfers.
	EnableCFC bool
	// Backend selects the execution engine for this program's runs:
	// compiled closure-threaded code (the zero value) or the seed
	// reference interpreter; RunOpts.Reference forces the latter per
	// run. It is a run-time choice only — both backends execute the
	// same build artifacts bit-identically — so it is deliberately
	// excluded from Key and never affects the build cache or the build
	// goldens.
	Backend machine.Backend
}

// DefaultConfig returns the paper's AR20 deployment.
func DefaultConfig() Config { return Config{AR: 0.2} }

// Key returns a string identifying every build-affecting field, for
// caching compiled programs.
func (c Config) Key() string {
	return fmt.Sprintf("ar=%g|ct=%d|w=%d|mb=%d|dm=%v|dd=%v|cp=%v|mu=%v|fs=%d|iw=%d|cfc=%v",
		c.AR, c.CostThreshold, c.Window, c.MemoBits, c.DisableMemo,
		c.DisableDI, c.ForceCP, c.MemoUniform, c.FixedStride, c.IssueWidth, c.EnableCFC)
}

// Program is one benchmark compiled under every registered scheme.
type Program struct {
	Bench  bench.Benchmark
	Cfg    Config
	Kernel int // kernel function index (identical across variants)

	// Candidates are the detected loops (computed on the unprotected
	// module; block indexes are stable across variants).
	Candidates []analysis.Candidate
	// RegionBlocks marks the detected-loop blocks per function for
	// fault-injection targeting.
	RegionBlocks map[int]map[int]bool
	// RegionFuncs marks the outlined recompute slices of the RSkip
	// variant, which execute in-region wherever they are called from.
	RegionFuncs map[int]bool
	// RegionOwner maps each outlined recompute slice back to the
	// function its loop lives in, so region traces attribute the
	// slice's execution to the owning region.
	RegionOwner map[int]int

	Trained *train.Result

	// variants maps each scheme to its transformed module and the
	// pre-decoded code compiled at Build time, so concurrent campaign
	// workers share it instead of re-decoding on every Run. The map is
	// immutable after Build and may be shared between Programs through
	// the build cache.
	variants map[Scheme]*Variant

	// obs is the observability handle every Run and Train feeds; nil
	// (the default for plain Build) disables all telemetry. Set it at
	// build time by passing an obs-carrying context to BuildContext,
	// or later with Observe.
	obs *obs.Obs
	// met caches the run-time-management instrument handles.
	met *rtmMetrics
}

// schemeOrder is the canonical variant list a build derives.
var schemeOrder = []Scheme{Unsafe, SWIFT, SWIFTR, RSkip, SWIFTRHard}

// pipelineName maps the scheme enum to its registered pass pipeline.
func (s Scheme) pipelineName() string {
	switch s {
	case SWIFT:
		return "swift"
	case SWIFTR:
		return "swiftr"
	case RSkip:
		return "rskip"
	case SWIFTRHard:
		return "swiftrhard"
	}
	return "unsafe"
}

// schemeExtras returns the config-dependent passes appended to a
// scheme's registered pipeline: CFC protects the protected variants
// only (the unprotected baseline must stay untouched, and the
// hardened pipeline already ends in cfc).
func schemeExtras(s Scheme, cfg Config) []string {
	if cfg.EnableCFC && s != Unsafe && s != SWIFTRHard {
		return []string{"cfc"}
	}
	return nil
}

// PipelineSig is the content signature of the pass pipeline that
// produces scheme s under cfg — the same signature the build cache
// keys on. The campaign-result cache includes it so results computed
// under one pipeline implementation never masquerade as another's.
func PipelineSig(s Scheme, cfg Config) string {
	return pass.PipelineSignature(s.pipelineName(), schemeExtras(s, cfg)...)
}

// rtmMetrics are the prediction counters fed after every RSkip run.
type rtmMetrics struct {
	observed, skippedDI, skippedAM *obs.Counter
	recomputed, mispredicted       *obs.Counter
	detected, recovered            *obs.Counter
	mispredictRate                 *obs.Gauge
}

// Observe attaches an observability handle: spans for train phases
// and metrics fed from every subsequent Run. A nil handle (or nil
// argument) turns telemetry back off.
func (p *Program) Observe(o *obs.Obs) {
	p.obs = o
	p.met = nil
	if m := o.M(); m != nil {
		p.met = &rtmMetrics{
			observed:     m.Counter("rtm_observed_total", "loop elements subject to validation"),
			skippedDI:    m.Counter("rtm_skipped_di_total", "elements accepted by dynamic interpolation"),
			skippedAM:    m.Counter("rtm_skipped_am_total", "elements accepted by approximate memoization"),
			recomputed:   m.Counter("rtm_recomputed_total", "elements exactly validated by re-computation"),
			mispredicted: m.Counter("rtm_mispredicted_total", "recomputations that matched the original (no fault)"),
			detected:     m.Counter("rtm_detected_total", "recomputation mismatches (possible faults)"),
			recovered:    m.Counter("rtm_recovered_total", "elements repaired by majority vote"),
			mispredictRate: m.Gauge("rtm_mispredict_rate",
				"cumulative mispredicted/observed across instrumented runs"),
		}
	}
}

// Build compiles the benchmark and derives all protected variants,
// without telemetry. It is BuildContext on a background context.
func Build(b bench.Benchmark, cfg Config) (*Program, error) {
	return BuildContext(context.Background(), b, cfg)
}

// BuildContext compiles the benchmark and derives all protected
// variants by running each scheme's registered pass pipeline, with
// ir.Verify after every pass and per-scheme derivation parallelized
// across goroutines. Results are served from the content-addressed
// build cache when an identical (source, config, pipelines) build
// already ran in this process. An obs.Obs carried by ctx traces the
// build phases (compile, candidate detection, per-scheme pipeline)
// and becomes the Program's telemetry handle for later Train and Run
// calls; a plain context builds silently.
func BuildContext(ctx context.Context, b bench.Benchmark, cfg Config) (*Program, error) {
	p, _, err := BuildContextCached(ctx, b, cfg)
	return p, err
}

// BuildContextCached is BuildContext plus a report of whether the
// artifacts were served from the build cache (including coalescing
// onto another goroutine's identical in-flight build) rather than
// compiled by this call — the bit rskipd returns to clients so build
// deduplication is observable per request.
func BuildContextCached(ctx context.Context, b bench.Benchmark, cfg Config) (*Program, bool, error) {
	ctx, sp := obs.Start(ctx, "core/build")
	sp.SetAttr("bench", b.Name)
	defer sp.End()
	o := obs.From(ctx)
	o.M().Counter("core_builds_total", "programs built").Inc()

	key := buildCacheKey(b, cfg)
	art, cached, err := buildCache.getOrBuild(key, func() (*artifacts, error) {
		return buildArtifacts(ctx, b, cfg)
	})
	if cached {
		o.M().Counter("core_build_cache_hits_total", "builds served from the build cache").Inc()
		sp.SetAttr("cache", "hit")
	} else {
		o.M().Counter("core_build_cache_misses_total", "builds compiled from source").Inc()
		sp.SetAttr("cache", "miss")
	}
	if err != nil {
		return nil, false, err
	}
	p := newProgram(b, cfg, art)
	p.Observe(o)
	return p, cached, nil
}

// newProgram wraps (possibly shared) build artifacts as a Program.
// Mutable per-use state — the trained profile, telemetry — is fresh.
func newProgram(b bench.Benchmark, cfg Config, art *artifacts) *Program {
	return &Program{
		Bench: b, Cfg: cfg, Kernel: art.kernel,
		Candidates:   art.candidates,
		RegionBlocks: art.regionBlocks,
		RegionFuncs:  art.regionFuncs,
		RegionOwner:  art.regionOwner,
		variants:     art.variants,
	}
}

// buildArtifacts compiles the benchmark once and derives every
// registered scheme variant through its pass pipeline.
func buildArtifacts(ctx context.Context, b bench.Benchmark, cfg Config) (*artifacts, error) {
	_, spc := obs.Start(ctx, "build/compile")
	mod, err := lower.Compile(b.Name, b.Source)
	spc.End()
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s: %w", b.Name, err)
	}
	kernel := mod.FuncByName(b.Kernel)
	if kernel < 0 {
		return nil, fmt.Errorf("core: %s has no kernel function %q", b.Name, b.Kernel)
	}
	opt := analysis.Options{CostThreshold: cfg.CostThreshold}
	baseAM := analysis.NewManager(mod)
	_, spa := obs.Start(ctx, "build/candidates")
	cands := baseAM.Candidates(opt)
	spa.SetAttr("candidates", len(cands))
	spa.End()

	// Every variant pipeline is independent once candidates are known:
	// each goroutine clones the base module (cloning a shared module
	// concurrently is safe — it only reads the source) and runs its
	// scheme's registered passes, then pre-decodes the result.
	ctx, spt := obs.Start(ctx, "build/transform")
	variants := make([]*Variant, len(schemeOrder))
	errs := make([]error, len(schemeOrder))
	var wg sync.WaitGroup
	for i, s := range schemeOrder {
		wg.Add(1)
		go func(i int, s Scheme) {
			defer wg.Done()
			variants[i], errs[i] = buildVariant(ctx, b.Name, mod, s, cfg, opt, cands)
		}(i, s)
	}
	wg.Wait()
	spt.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	art := &artifacts{
		kernel:       kernel,
		candidates:   cands,
		regionBlocks: map[int]map[int]bool{},
		regionFuncs:  map[int]bool{},
		variants:     map[Scheme]*Variant{},
	}
	for i, s := range schemeOrder {
		art.variants[s] = variants[i]
	}
	for _, c := range cands {
		rb := art.regionBlocks[c.Func]
		if rb == nil {
			rb = map[int]bool{}
			art.regionBlocks[c.Func] = rb
		}
		rb[c.Header] = true
		rb[c.Latch] = true
		for blk := range c.Region {
			rb[blk] = true
		}
	}
	art.regionOwner = map[int]int{}
	for _, li := range art.variants[RSkip].Mod.Loops {
		art.regionFuncs[li.RecomputeFn] = true
		art.regionOwner[li.RecomputeFn] = li.Func
	}
	return art, nil
}

// buildVariant runs one scheme's pass pipeline over a clone of the
// base module and pre-decodes the result. Candidates already detected
// on the base module are seeded into the clone's analysis manager —
// a clone shares block and register indexes with its source, so the
// RSkip fixpoint's first iteration reuses them instead of rescanning.
func buildVariant(ctx context.Context, name string, base *ir.Module, s Scheme,
	cfg Config, opt analysis.Options, cands []analysis.Candidate) (*Variant, error) {

	ctx, sp := obs.Start(ctx, "build/variant")
	sp.SetAttr("scheme", s.String())
	defer sp.End()

	passes, err := pass.SchemePipeline(s.pipelineName(), schemeExtras(s, cfg)...)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	m := base
	if s != Unsafe {
		m = base.Clone()
	}
	am := analysis.NewManager(m)
	am.SeedCandidates(opt, cands)
	pm := &pass.Manager{Passes: passes, VerifyEach: true}
	if err := pm.RunWith(ctx, m, opt, am); err != nil {
		return nil, fmt.Errorf("core: %s pipeline for %s: %w", s, name, err)
	}
	st := am.Stats()
	mm := obs.From(ctx).M()
	mm.Counter("core_analysis_cache_hits_total", "analysis-manager cache hits during builds").Add(st.Hits)
	mm.Counter("core_analysis_cache_misses_total", "analysis-manager cache misses during builds").Add(st.Misses)
	return &Variant{Mod: m, Code: machine.CompileCode(m)}, nil
}

// Code returns the pre-decoded form of a scheme's module variant,
// compiled at Build time.
func (p *Program) Code(s Scheme) *machine.Code {
	if v, ok := p.variants[s]; ok {
		return v.Code
	}
	return p.variants[Unsafe].Code
}

// Module returns the IR variant for a scheme; unknown schemes fall
// back to the unprotected module.
func (p *Program) Module(s Scheme) *ir.Module {
	if v, ok := p.variants[s]; ok {
		return v.Mod
	}
	return p.variants[Unsafe].Mod
}

// Train runs the offline training phase over the given training
// seeds. When the program carries an observability handle (built via
// BuildContext or attached with Observe), the phase is traced as
// core/train with per-instance and per-loop child spans.
func (p *Program) Train(seeds []int64, scale bench.Scale) error {
	ctx := obs.Into(context.Background(), p.obs)
	ctx, sp := obs.Start(ctx, "core/train")
	sp.SetAttr("bench", p.Bench.Name)
	sp.SetAttr("seeds", len(seeds))
	defer sp.End()
	var setups []func(mem *machine.Memory) []uint64
	for _, s := range seeds {
		inst := p.Bench.Gen(s, scale)
		setups = append(setups, inst.Setup)
	}
	tr, err := train.RunContext(ctx, p.Module(RSkip), p.Kernel, setups, train.Config{
		AR:          p.Cfg.AR,
		Window:      p.Cfg.Window,
		MemoBits:    p.Cfg.MemoBits,
		MemoUniform: p.Cfg.MemoUniform,
	})
	if err != nil {
		return err
	}
	p.Trained = tr
	return nil
}

// SaveProfile persists the trained deployment profile (QoS model and
// memo tables) as JSON.
func (p *Program) SaveProfile(path string) error {
	if p.Trained == nil {
		return fmt.Errorf("core: %s has no trained profile to save", p.Bench.Name)
	}
	return p.Trained.SaveFile(path)
}

// LoadProfile replaces the trained deployment profile with one read
// from disk, skipping re-training.
func (p *Program) LoadProfile(path string) error {
	tr, err := train.LoadFile(path)
	if err != nil {
		return err
	}
	p.Trained = tr
	return nil
}

// RunOpts tune one execution.
type RunOpts struct {
	Fault     *machine.FaultPlan
	MaxInstrs uint64
	// Cancel, when non-nil, stops the execution with a
	// *machine.CancelError once the channel closes — pass a
	// context.Done() to bound a run by wall-clock time or cancel a
	// whole campaign.
	Cancel <-chan struct{}
	// Trace/TraceLimit dump executed instructions (debugging).
	Trace      io.Writer
	TraceLimit uint64
	// Reference runs this execution on the seed per-instruction
	// interpreter whatever the program's Config.Backend says; used by
	// the golden-counters differential test and speedup benchmarks.
	Reference bool
	// RegionTrace, when non-nil, records the owner/class layout of the
	// in-region instruction stream. Both backends record it, and
	// identically.
	RegionTrace *machine.RegionTrace
}

// Outcome reports one execution.
type Outcome struct {
	Result machine.RunResult
	// Output is the instance's output, read from memory only when the
	// run ended without error; an erroring run (Segfault, Trap, Hang,
	// Detect) leaves it nil on every engine. A Hang's memory is thus
	// never observed, which lets a replica's hang proof skip its
	// runaway loop's stores (machine.Config.Converge).
	Output []uint64
	// Stats holds per-loop run-time management statistics (RSkip runs
	// only).
	Stats map[int]*rtm.LoopStats
	// Err is the abnormal-termination error, if any (Segfault, Trap,
	// Hang, Detect).
	Err error
	// FaultFired reports whether an armed fault was actually injected.
	FaultFired bool
	// FaultTag is the protection tag of the instruction (or register)
	// the fault hit.
	FaultTag ir.InstrTag
	// FaultOp is that instruction's opcode.
	FaultOp ir.Op
	// FaultInValueSlice reports whether the fault landed in
	// prediction-covered code: a TagValue site or an unprotected
	// value-slice callee.
	FaultInValueSlice bool
	// Work is what a resumed or replayed replica's shortcuts spared it
	// (machine.Work); every other field is what the full run would
	// report. Run and Injector.Run report a zero Work.
	Work machine.Work
}

// SkipRate aggregates the skip rate over all PP loops of the run.
func (o *Outcome) SkipRate() float64 {
	tot, skip := 0, 0
	for _, s := range o.Stats {
		tot += s.Observed
		skip += s.SkippedDI + s.SkippedAM
	}
	if tot == 0 {
		return 0
	}
	return float64(skip) / float64(tot)
}

// DISkipRate aggregates the first-level predictor's skip contribution.
func (o *Outcome) DISkipRate() float64 {
	tot, skip := 0, 0
	for _, s := range o.Stats {
		tot += s.Observed
		skip += s.SkippedDI
	}
	if tot == 0 {
		return 0
	}
	return float64(skip) / float64(tot)
}

// machineConfig assembles the machine configuration (and, for RSkip,
// the per-run rtm manager) for one execution of scheme s.
func (p *Program) machineConfig(s Scheme, mod *ir.Module, opts RunOpts) (machine.Config, *rtm.Manager) {
	backend := p.Cfg.Backend
	if opts.Reference {
		backend = machine.BackendReference
	}
	mcfg := machine.Config{
		MaxInstrs:    opts.MaxInstrs,
		Fault:        opts.Fault,
		Cancel:       opts.Cancel,
		RegionBlocks: p.RegionBlocks,
		IssueWidth:   p.Cfg.IssueWidth,
		TraceFn:      -1,
		Code:         p.Code(s),
		Backend:      backend,
		Metrics:      p.obs.M(),
	}
	if opts.RegionTrace != nil {
		mcfg.RegionTrace = opts.RegionTrace
		mcfg.RegionOwner = p.RegionOwner
	}
	if opts.Trace != nil && opts.TraceLimit > 0 {
		mcfg.Trace = opts.Trace
		mcfg.TraceLimit = opts.TraceLimit
	}
	var mgr *rtm.Manager
	if s == RSkip {
		mcfg.RegionFuncs = p.RegionFuncs
		rcfg := rtm.DefaultConfig(p.Cfg.AR)
		rcfg.Window = p.Cfg.Window
		if rcfg.Window == 0 {
			rcfg.Window = 32
		}
		rcfg.DisableMemo = p.Cfg.DisableMemo
		rcfg.DisableDI = p.Cfg.DisableDI
		rcfg.FixedStride = p.Cfg.FixedStride
		if p.Cfg.ForceCP {
			rcfg.ForceCP = map[int]bool{}
			for _, li := range mod.Loops {
				rcfg.ForceCP[li.ID] = true
			}
		}
		if p.Trained != nil {
			rcfg.QoS = p.Trained.QoS
			rcfg.Memo = p.Trained.Memo
		}
		mgr = rtm.NewManager(mod, rcfg)
		mcfg = mgr.MachineConfig(mcfg)
	}
	return mcfg, mgr
}

// runOn executes one instance on an already-configured machine and
// assembles the outcome. Shared by Run (one machine per call) and
// Injector.Resume (one pooled machine across many replicas). A non-nil
// snap resumes the run from that snapshot after Setup, so the
// instance's Output reads the layout Setup created.
func (p *Program) runOn(m *machine.Machine, mod *ir.Module, mgr *rtm.Manager, inst bench.Instance, snap *machine.Snapshot) Outcome {
	args := inst.Setup(m.Mem)
	var res machine.RunResult
	var err error
	if snap != nil {
		res, err = m.Resume(snap)
	} else {
		res, err = m.Run(p.Kernel, args)
	}
	out := Outcome{Result: res, Err: err, FaultFired: m.FaultFired(), Work: m.Work()}
	var faultFn int
	out.FaultTag, out.FaultOp, faultFn = m.FaultSite()
	if out.FaultFired {
		out.FaultInValueSlice = out.FaultTag == ir.TagValue ||
			(faultFn >= 0 && faultFn < len(mod.Funcs) && mod.Funcs[faultFn].Internal)
	}
	if mgr != nil {
		out.Stats = mgr.Stats
		if p.met != nil {
			p.feedRTM(out.Stats)
		}
	}
	if err == nil {
		out.Output = inst.Output(m.Mem)
	}
	return out
}

// Run executes one instance under the scheme. The returned outcome
// always carries counters, even for abnormal terminations.
func (p *Program) Run(s Scheme, inst bench.Instance, opts RunOpts) Outcome {
	return p.RunCapture(s, inst, opts, nil)
}

// RunCapture is Run that also records snapshots of the execution into
// c (machine.Capture; nil records none), for campaign replicas to
// resume from through Injector.Resume. The run itself — timed, with
// every counter and the outcome — is exactly Run's.
func (p *Program) RunCapture(s Scheme, inst bench.Instance, opts RunOpts, c *machine.Capture) Outcome {
	mod := p.Module(s)
	mcfg, mgr := p.machineConfig(s, mod, opts)
	mcfg.Capture = c
	m := machine.New(mod, mcfg)
	defer m.Release()
	return p.runOn(m, mod, mgr, inst, nil)
}

// Injector executes many runs of one scheme through a single pooled
// machine: the decoded (and, under the compiled backend, closure-
// threaded) code object, the memory and the frame register
// slabs are all reused across replicas via machine.Reset, so a fault
// campaign pays construction cost once per worker instead of once per
// injection.
//
// Injector runs are campaign replicas, whose outcomes never read
// cycles, so they run untimed (machine.Config.Untimed):
// Outcome.Result.Cycles is 0, and every other field — counters,
// output, error, fault attribution — equals what Run returns for the
// same options. The golden-counters differential in internal/bench
// proves that on every backend; the replica-equality test in core
// proves pooling changes nothing.
//
// An Injector is single-goroutine (campaign workers own one each);
// Close releases the pooled memory.
type Injector struct {
	p   *Program
	s   Scheme
	mod *ir.Module
	m   *machine.Machine
}

// NewInjector returns a pooled runner for one scheme's replicas.
func (p *Program) NewInjector(s Scheme) *Injector {
	return &Injector{p: p, s: s, mod: p.Module(s)}
}

// Run executes one replica from instruction 0, reusing the pooled
// machine. Every RunOpts field is honored per call except that
// opts.Reference must not change between calls (the engine is fixed at
// the first Run; a changed engine needs a fresh Injector).
func (in *Injector) Run(inst bench.Instance, opts RunOpts) Outcome {
	return in.Resume(inst, opts, nil)
}

// Resume executes one replica from snap — a snapshot RunCapture took
// of this scheme's fault-free run of the same instance — instead of
// from instruction 0; nil snap is Run. The outcome equals Run's in
// every field but Work, whose Resumed is the snapshot's instructions:
// the replica's fault-free prefix is the clean run's, so
// starting at a snapshot before the fault target and within the budget
// (machine.Capture.Latest picks one) skips work without changing it.
func (in *Injector) Resume(inst bench.Instance, opts RunOpts, snap *machine.Snapshot) Outcome {
	return in.run(inst, opts, snap, nil)
}

// run executes one untimed replica on the pooled machine, from snap
// (nil: instruction 0), checking for convergence against c when
// non-nil.
func (in *Injector) run(inst bench.Instance, opts RunOpts, snap *machine.Snapshot, c *machine.Capture) Outcome {
	mcfg, mgr := in.p.machineConfig(in.s, in.mod, opts)
	mcfg.Untimed = true
	mcfg.Converge = c
	if in.m == nil {
		in.m = machine.New(in.mod, mcfg)
	} else {
		in.m.Reset(mcfg)
	}
	return in.p.runOn(in.m, in.mod, mgr, inst, snap)
}

// Replay executes one replica against c, a capture RunCapture took of
// this scheme's fault-free run of the same instance: it resumes from
// the latest snapshot the fault target and budget allow (from
// instruction 0 when there is none) and, once the fault has fired,
// stops as soon as its state rejoins the clean run's, taking the clean
// run's end (machine.Config.Converge); a compiled replica that hangs
// skips the runaway-loop iterations a hang proof shows spend the
// budget. The outcome equals Run's in every field but Work, which
// reports the instructions each of the three shortcuts spared.
func (in *Injector) Replay(inst bench.Instance, opts RunOpts, c *machine.Capture) Outcome {
	target, budget := ^uint64(0), opts.MaxInstrs
	if opts.Fault != nil {
		target = opts.Fault.Target
	}
	if budget == 0 {
		budget = machine.DefaultMaxInstrs
	}
	return in.run(inst, opts, c.Latest(target, budget), c)
}

// Discard drops the pooled machine without releasing its memory back
// to the pool — the contained-panic path, where per-run state may be
// arbitrarily corrupt. The next Run builds a fresh machine.
func (in *Injector) Discard() { in.m = nil }

// Close releases the pooled machine's memory. The Injector must not be
// used afterwards.
func (in *Injector) Close() {
	if in.m != nil {
		in.m.Release()
		in.m = nil
	}
}

// feedRTM folds one RSkip run's loop statistics into the prediction
// counters and refreshes the cumulative mispredict-rate gauge.
func (p *Program) feedRTM(stats map[int]*rtm.LoopStats) {
	for _, st := range stats {
		p.met.observed.Add(uint64(st.Observed))
		p.met.skippedDI.Add(uint64(st.SkippedDI))
		p.met.skippedAM.Add(uint64(st.SkippedAM))
		p.met.recomputed.Add(uint64(st.Recomputed))
		p.met.mispredicted.Add(uint64(st.Mispredicted))
		p.met.detected.Add(uint64(st.Detected))
		p.met.recovered.Add(uint64(st.Recovered))
	}
	if obsTotal := p.met.observed.Value(); obsTotal > 0 {
		p.met.mispredictRate.Set(float64(p.met.mispredicted.Value()) / float64(obsTotal))
	}
}

// Golden runs the unprotected module without faults and returns the
// reference output.
func (p *Program) Golden(inst bench.Instance) ([]uint64, machine.RunResult, error) {
	o := p.Run(Unsafe, inst, RunOpts{})
	return o.Output, o.Result, o.Err
}
