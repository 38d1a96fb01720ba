package fault

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/machine"
	"rskip/internal/obs"
)

// defaultBatch is the number of runs between early-stop checks and
// checkpoint saves.
const defaultBatch = 100

// prefixSnapshots is the number of snapshots (at least, up to twice
// as many) a campaign takes of its fault-free profile run. Each
// replica resumes from the latest one before its fault target, so on
// average it re-executes about 1/(2×prefixSnapshots) of the run
// instead of the whole fault-free prefix (machine.Capture). The same
// snapshots are the replicas' convergence check points, so the spacing
// also sets how soon a replica whose state rejoined the clean run's
// notices and stops.
const prefixSnapshots = 32

// Campaign runs up to cfg.N fault injections of the scheme on the
// instance: it profiles the clean run (NewProfile, region-traced if
// and only if the campaign is stratified, whose allocation derives
// from the layout) and injects against it as CampaignOn does. Every
// campaign runs the one loop every execution mode shares: an Executor
// leasing shards of Batch runs from a fabric coordinator through one
// in-process lease loop, merged by a Ledger. It is resilient by
// construction:
//
//   - Cancelling ctx stops the campaign promptly (in-flight runs are
//     interrupted through the machine's cancellation channel); the
//     partial Result — N reports how many runs the ledger merged — is
//     returned alongside an error wrapping ctx.Err().
//   - A panic inside a worker's interpreter run is contained and
//     classified CoreDump, with the panic value recorded in
//     Result.Errors; the campaign keeps going.
//   - With cfg.CheckpointPath set, progress persists after every
//     batch, and an interrupted campaign resumes from its checkpoint
//     to bit-identical final counts.
//   - With cfg.TargetCI set, the campaign stops early once the 95%
//     Wilson interval on the protection rate is tight enough.
func Campaign(ctx context.Context, p *core.Program, s core.Scheme, inst bench.Instance, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := startCampaign(ctx, p, s)
	defer sp.End()
	prof, err := NewProfile(ctx, p, s, inst, traceFor(cfg))
	if err != nil {
		return Result{}, err
	}
	return campaignOn(ctx, sp, prof, cfg)
}

// CampaignOn runs a campaign against prof, a clean run or a view of one
// (Profile.Within), with every guarantee of Campaign. A profile is
// read-only, so any number of campaigns may share it: compositional
// analysis (internal/result) runs one campaign per region view of a
// single traced profile.
func CampaignOn(ctx context.Context, prof *Profile, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := startCampaign(ctx, prof.Program, prof.Scheme)
	defer sp.End()
	return campaignOn(ctx, sp, prof, cfg)
}

func startCampaign(ctx context.Context, p *core.Program, s core.Scheme) (context.Context, *obs.Span) {
	ctx, sp := obs.Start(ctx, "fault/campaign")
	sp.SetAttr("scheme", s.String())
	sp.SetAttr("bench", p.Bench.Name)
	return ctx, sp
}

func campaignOn(ctx context.Context, sp *obs.Span, prof *Profile, cfg Config) (Result, error) {
	e, err := prepare(ctx, prof, cfg)
	if err != nil {
		return Result{}, err
	}
	sp.SetAttr("n", e.cfg.N)
	return newExecutor(e).run(ctx)
}

// run completes the executor's campaign in this process: a
// coordinator over shards of Batch runs, one lease loop, one ledger.
func (x *Executor) run(ctx context.Context) (Result, error) {
	l, err := NewLedger(x, 0)
	if err != nil {
		return Result{}, err
	}
	return l.Drive(ctx, l.Coordinator(fabric.Options{}), x)
}

// Profile is the fault-free run of one scheme on one instance that
// campaigns inject against: the golden output replicas are classified
// by, the counters their budget and plans derive from, the snapshots
// they resume from and converge to (Capture), and, when traced, the
// region layout whose populations stratified sampling and views
// (Within) draw from. It is read-only once built, so one Profile
// serves any number of campaigns.
type Profile struct {
	Program *core.Program
	Scheme  core.Scheme
	Inst    bench.Instance
	Output  []uint64
	Result  machine.RunResult
	Capture *machine.Capture
	Trace   *machine.RegionTrace // nil for an untraced profile or a view
	// within confines a view's fault targets to one population; nil
	// for the whole clean run.
	within *machine.Population
}

// Within returns a view of the clean run whose campaigns draw or
// enumerate fault targets only among pop's instructions: a population
// of this profile's region trace (ByOwner, ByClass). A campaign on the
// view samples pop's local index space and maps every target through
// pop.Pick into the run's in-region stream, so its records are the
// records the whole profile gives those plans. The view has no region
// trace of its own, so it cannot be stratified, and its campaign key
// names pop, so no checkpoint of the whole run or another view resumes
// it.
func (p *Profile) Within(pop machine.Population) *Profile {
	v := *p
	v.Trace = nil
	v.within = &pop
	return &v
}

// population is the size of the index space the profile's campaigns
// draw targets from.
func (p *Profile) population() uint64 {
	if p.within != nil {
		return p.within.Count
	}
	return p.Result.Region
}

// key is the identity of a campaign of cfg on the profile.
func (p *Profile) key(cfg Config) string {
	key := CampaignKey(p.Program, p.Scheme, cfg)
	if p.within != nil {
		key += fmt.Sprintf("|within=%d/%d", p.within.Key, p.within.Count)
	}
	return key
}

// NewProfile executes the scheme's fault-free run on the instance,
// snapshotting it and, with a non-nil trace, recording its region
// layout. The run gets the panic containment injected runs get: a
// scheme whose clean run crashes the interpreter surfaces as an
// error, not a dead process.
func NewProfile(ctx context.Context, p *core.Program, s core.Scheme, inst bench.Instance, trace *machine.RegionTrace) (prof *Profile, err error) {
	pctx, spp := obs.Start(ctx, "campaign/profile")
	_, sps := obs.Start(pctx, "campaign/snapshots")
	capture := machine.NewCapture(prefixSnapshots)
	defer func() {
		if v := recover(); v != nil {
			prof, err = nil, fmt.Errorf("fault: fault-free %s run panicked: %v", s, v)
		}
		sps.SetAttr("snapshots", capture.Len())
		sps.SetAttr("words", capture.Words())
		sps.SetAttr("record_words", capture.RecordWords())
		sps.SetAttr("capture_us", capture.Elapsed().Microseconds())
		sps.End()
		spp.End()
	}()
	o := p.RunCapture(s, inst, core.RunOpts{RegionTrace: trace}, capture)
	switch {
	case o.Err != nil:
		return nil, fmt.Errorf("fault: fault-free %s run failed: %w", s, o.Err)
	case o.Result.Region == 0:
		return nil, fmt.Errorf("fault: no detected-loop region executed under %s", s)
	case trace != nil && trace.Err() != nil:
		return nil, trace.Err()
	}
	return &Profile{Program: p, Scheme: s, Inst: inst, Output: o.Output, Result: o.Result, Capture: capture, Trace: trace}, nil
}

// prepare builds the campaign engine every execution mode shares —
// Campaign, CampaignOn and the executors of a distributed campaign:
// config defaults, the deterministic plan list (drawn or enumerated
// over the profile's population, then mapped into the run's in-region
// stream), the record array and the campaign key. Because every
// downstream consumer starts from this one function, every shard of
// every campaign is provably executing the plans a single process
// would.
func prepare(ctx context.Context, prof *Profile, cfg Config) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stratify && prof.Trace == nil {
		return nil, fmt.Errorf("fault: config: Stratify needs a region-traced profile; this one (or view) has no trace")
	}
	if prof.population() == 0 {
		return nil, fmt.Errorf("fault: the profile's fault population is empty")
	}
	if cfg.N == 0 && !cfg.Exhaustive {
		cfg.N = 1000
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	if cfg.Batch == 0 {
		cfg.Batch = defaultBatch
	}
	met := newCampaignMetrics(obs.From(ctx).M())
	met.campaigns.Inc()

	// Pre-draw (or enumerate) all fault plans so the campaign is
	// deterministic regardless of worker scheduling — and resumable by
	// index.
	e := &engine{prof: prof, budget: runBudget(cfg, prof.Result.Instrs), met: met}
	switch {
	case cfg.Exhaustive:
		var err error
		if e.plans, err = enumeratePlans(cfg, prof.population()); err != nil {
			return nil, err
		}
		cfg.N = len(e.plans)
	case cfg.Stratify:
		e.plans, e.strataOf, e.strata = stratifiedPlans(cfg, prof.Trace)
	default:
		e.plans = DrawPlans(cfg.Seed, cfg.N, cfg, prof.population())
	}
	if prof.within != nil {
		pickWithin(prof.within, e.plans)
	}
	e.cfg = cfg
	e.records = make([]RunRecord, cfg.N)
	e.key = prof.key(cfg)
	return e, nil
}

// HangFactor is the default per-run instruction budget as a multiple
// of the scheme's fault-free run. Compositional analysis
// (internal/result) applies it to a power-of-two bucket of that run.
const HangFactor = 50

// runBudget resolves the per-run instruction budget: an explicit
// Config.Budget wins, otherwise HangFactor times the fault-free run.
func runBudget(cfg Config, faultFreeInstrs uint64) uint64 {
	if cfg.Budget > 0 {
		return cfg.Budget
	}
	return faultFreeInstrs * HangFactor
}

// DrawPlans pre-draws n fault plans of cfg's mix from the seed, with
// targets uniform over a population of count in-region indexes. A
// campaign's uniform sampler is DrawPlans over the whole region or, on
// a view, over the view's population, whose local targets pickWithin
// then maps into the global stream; a stratified campaign does the
// same once per class. The draw sequence is part of the checkpoint
// contract: a given (seed, cfg, count) always yields the same plans.
func DrawPlans(seed int64, n int, cfg Config, count uint64) []machine.FaultPlan {
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	rng := rand.New(rand.NewSource(seed))
	plans := make([]machine.FaultPlan, n)
	for i := range plans {
		plans[i] = machine.FaultPlan{
			Kind:   drawKind(rng, cfg.Mix),
			Target: uint64(rng.Int63n(int64(count))),
			Bit:    uint(rng.Intn(64)),
			Pick:   rng.Intn(1 << 20),
		}
		plans[i].Width = planWidth(plans[i].Kind, cfg)
	}
	return plans
}

// pickWithin maps plans drawn or enumerated over pop's local index
// space into the global in-region stream, in place.
func pickWithin(pop *machine.Population, plans []machine.FaultPlan) []machine.FaultPlan {
	for i := range plans {
		plans[i].Target = pop.Pick(plans[i].Target)
	}
	return plans
}

// campaignMetrics are the injection counters a campaign feeds. The
// handles are resolved once per campaign; workers update them with
// atomic adds. On a nil registry every handle is nil and every update
// a no-op.
type campaignMetrics struct {
	campaigns  *obs.Counter
	injections *obs.Counter
	skipped    *obs.Counter
	fired      *obs.Counter
	panics     *obs.Counter
	ckWrites   *obs.Counter
	work       []*obs.Counter // one per workRows row
	classes    [NumClasses]*obs.Counter
	kinds      [machine.NumFaultKinds]*obs.Counter
}

func newCampaignMetrics(m *obs.Metrics) *campaignMetrics {
	cm := &campaignMetrics{
		campaigns:  m.Counter("fault_campaigns_total", "campaigns started"),
		injections: m.Counter("fault_injections_total", "injection runs executed"),
		skipped:    m.Counter("fault_injections_skipped_total", "injection runs resumed from a checkpoint instead of re-executed"),
		fired:      m.Counter("fault_fired_total", "injections whose fault actually struck"),
		panics:     m.Counter("fault_panics_contained_total", "worker panics contained as CoreDump"),
		ckWrites:   m.Counter("fault_checkpoint_writes_total", "checkpoint files written"),
	}
	for _, r := range workRows {
		cm.work = append(cm.work, m.Counter(r.name, r.help))
	}
	for c := Correct; c < NumClasses; c++ {
		cm.classes[c] = m.Counter("fault_class_"+c.slug()+"_total", "runs classified "+c.String())
	}
	for k := range cm.kinds {
		kind := machine.FaultKind(k)
		slug := strings.ReplaceAll(kind.String(), "-", "_")
		cm.kinds[k] = m.Counter("fault_kind_"+slug+"_total", "injections of the "+kind.String()+" fault kind")
	}
	return cm
}

// record notes one completed injection run of the planned kind.
func (cm *campaignMetrics) record(rec *RunRecord, kind machine.FaultKind) {
	cm.injections.Inc()
	cm.classes[rec.Class].Inc()
	if int(kind) < len(cm.kinds) {
		cm.kinds[kind].Inc()
	}
	if rec.Fired {
		cm.fired.Inc()
	}
}

// engine holds the immutable campaign state shared by workers.
type engine struct {
	// prof is the clean run replicas resume from and are classified
	// against; other campaigns may share it.
	prof    *Profile
	cfg     Config
	budget  uint64
	plans   []machine.FaultPlan
	records []RunRecord
	met     *campaignMetrics
	// key is the campaign identity (CampaignKey, plus the population
	// of a view) — the checkpoint key and the fabric plan key are the
	// same string by construction.
	key string
	// strataOf/strata describe a stratified campaign: plan i belongs
	// to stratum strataOf[i], whose class and weight are in strata.
	// Both are nil for unstratified campaigns.
	strataOf []int
	strata   []StratumResult
}

// runOne executes and classifies injection i on the worker's pooled
// injector. The recover barrier turns an interpreter panic into a
// CoreDump record — the simulated machine's own failure modes are part
// of the fault model, not a tooling hazard — and discards the pooled
// machine, whose state a panic may have left arbitrarily corrupt.
// ok=false means the run did not complete (campaign cancelled) and
// must not be recorded.
func (e *engine) runOne(ctx context.Context, inj *core.Injector, i int) (rec RunRecord, ok bool) {
	defer func() {
		if v := recover(); v != nil {
			inj.Discard()
			rec = RunRecord{Done: true, Class: CoreDump, Err: fmt.Sprintf("panic: %v", v)}
			ok = true
			e.met.panics.Inc()
		}
	}()
	if ctx.Err() != nil {
		return RunRecord{}, false
	}
	if e.cfg.runHook != nil {
		e.cfg.runHook(i)
	}
	plan := e.plans[i]
	o := inj.Replay(e.prof.Inst, core.RunOpts{Fault: &plan, MaxInstrs: e.budget, Cancel: ctx.Done()}, e.prof.Capture)
	if _, cancelled := o.Err.(*machine.CancelError); cancelled {
		// Campaign-level cancellation: the run is incomplete.
		return RunRecord{}, false
	}
	cls, fn, recov := classify(&o, e.prof.Output)
	// Only non-zero values: a replica that took no shortcut moves its
	// class's executed counter alone.
	for k, row := range workRows {
		if v := row.value(&o, cls); v != 0 {
			e.met.work[k].Add(v)
		}
	}
	r := RunRecord{Done: true, Class: cls, Fired: o.FaultFired, FalseNeg: fn, Recovered: recov}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	return r, true
}

// aggregateRecords folds recs[:stop] into a Result using the
// engine's stratification tables. It is the one aggregation in the
// package: the ledger feeds it the records it merged from shards.
// Because each record is a pure function of its index, the aggregate
// is independent of worker count, shard size, completion order,
// interruption and resume history.
func (e *engine) aggregateRecords(recs []RunRecord, stop int) Result {
	res := Result{Scheme: e.prof.Scheme, Requested: e.cfg.N}
	if e.strata != nil {
		// Fresh copies: aggregate runs repeatedly (per batch, final)
		// and must not accumulate into shared skeletons.
		res.Strata = make([]StratumResult, len(e.strata))
		copy(res.Strata, e.strata)
	}
	for i := 0; i < stop; i++ {
		rec := &recs[i]
		if !rec.Done {
			continue
		}
		if e.strataOf != nil {
			st := &res.Strata[e.strataOf[i]]
			st.N++
			st.Counts[rec.Class]++
			if rec.Class == Correct || rec.Class == Detected {
				st.Protected++
			}
		}
		res.N++
		res.Counts[rec.Class]++
		if rec.Fired {
			res.Fired++
		}
		if rec.FalseNeg {
			res.FalseNeg++
		}
		if rec.Recovered {
			res.Recovered++
		}
		if rec.Err != "" {
			if res.Errors == nil {
				res.Errors = map[Class]map[string]int{}
			}
			byMsg := res.Errors[rec.Class]
			if byMsg == nil {
				byMsg = map[string]int{}
				res.Errors[rec.Class] = byMsg
			}
			byMsg[rec.Err]++
		}
	}
	return res
}

func countDone(recs []RunRecord) int {
	n := 0
	for i := range recs {
		if recs[i].Done {
			n++
		}
	}
	return n
}
