package fault

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

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
// instance. It runs the one campaign loop every execution mode shares:
// an Executor leasing shards of Batch runs from a fabric coordinator
// through one in-process lease loop, merged by a Ledger. It is
// resilient by construction:
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
	ctx, sp := obs.Start(ctx, "fault/campaign")
	sp.SetAttr("scheme", s.String())
	sp.SetAttr("bench", p.Bench.Name)
	defer sp.End()

	x, err := newExecutor(ctx, p, s, inst, cfg)
	if err != nil {
		return Result{}, err
	}
	sp.SetAttr("n", x.N())
	return x.run(ctx)
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
// region layout stratified and compositional (internal/result)
// sampling draw from. It is read-only once built, so one Profile
// serves any number of campaigns.
type Profile struct {
	Program *core.Program
	Scheme  core.Scheme
	Inst    bench.Instance
	Output  []uint64
	Result  machine.RunResult
	Capture *machine.Capture
	Trace   *machine.RegionTrace // nil for an untraced profile
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
// the single-process Campaign, the explicit-plan compositional entry
// point, and the executors of a distributed campaign: config
// defaults, the deterministic plan list (drawn, enumerated or
// caller-supplied) over the profile, the record array and the campaign
// key. Because every downstream consumer starts from this one
// function, every shard of every campaign is provably executing the
// plans a single process would.
func prepare(ctx context.Context, prof *Profile, cfg Config, plans []machine.FaultPlan) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N == 0 && !cfg.Exhaustive && plans == nil {
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
	case plans != nil:
		e.plans = plans
	case cfg.Exhaustive:
		var err error
		if e.plans, err = enumeratePlans(cfg, prof.Result.Region); err != nil {
			return nil, err
		}
		cfg.N = len(e.plans)
	case cfg.Stratify:
		e.plans, e.strataOf, e.strata = stratifiedPlans(cfg, prof.Trace)
	default:
		e.plans = DrawPlans(cfg.Seed, cfg.N, cfg, prof.Result.Region)
	}
	e.cfg = cfg
	e.records = make([]RunRecord, cfg.N)
	e.key = CampaignKey(prof.Program, prof.Scheme, cfg)
	if plans != nil {
		// Explicit plans are not recoverable from the config, so the
		// campaign identity must cover their content.
		e.key += "|ph=" + plansHash(plans)
	}
	return e, nil
}

// CampaignWithPlans runs a campaign over an explicit, caller-supplied
// plan list against prof instead of drawing plans from Config.Seed. It
// is the substrate of compositional analysis (internal/result), which
// hands every region's campaign the one profile it analysed: because a
// RunRecord is a pure function of (program, scheme, instance, plan,
// budget), partitioning one campaign's plan list and running each part
// through this entry point yields per-part counts that sum exactly to
// the undivided campaign's — the bit-identity the differential tests
// pin. N, sampling (Seed is ignored for drawing), Exhaustive, Stratify
// and TargetCI do not apply; the first is derived and the rest are
// rejected so a partition can never silently diverge from its whole.
func CampaignWithPlans(ctx context.Context, prof *Profile, cfg Config, plans []machine.FaultPlan) (Result, error) {
	if cfg.Exhaustive || cfg.Stratify {
		return Result{}, &ConfigConflictError{Options: "explicit plans and Exhaustive/Stratify",
			Reason: "the caller supplies the plan list; there is no sampling or enumeration to configure"}
	}
	if cfg.TargetCI > 0 {
		return Result{}, &ConfigConflictError{Options: "explicit plans and TargetCI",
			Reason: "early stopping would run a prefix of the supplied plans, breaking the partition-sum identity compositional analysis relies on"}
	}
	if cfg.N != 0 && cfg.N != len(plans) {
		return Result{}, fmt.Errorf("fault: config: N = %d does not match %d supplied plans; leave N = 0", cfg.N, len(plans))
	}
	cfg.N = len(plans)
	if plans == nil {
		// A nil list means "zero plans", not "draw for me" — keep the
		// distinction prepare uses for the sampling modes.
		plans = []machine.FaultPlan{}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ctx, sp := obs.Start(ctx, "fault/campaign_plans")
	sp.SetAttr("scheme", prof.Scheme.String())
	sp.SetAttr("bench", prof.Program.Bench.Name)
	sp.SetAttr("n", cfg.N)
	defer sp.End()

	e, err := prepare(ctx, prof, cfg, plans)
	if err != nil {
		return Result{}, err
	}
	return (&Executor{e: e}).run(ctx)
}

// hangFactor is the default per-run instruction budget as a multiple
// of the scheme's fault-free run.
const hangFactor = 50

// runBudget resolves the per-run instruction budget: an explicit
// Config.Budget wins, otherwise hangFactor times the fault-free run.
func runBudget(cfg Config, faultFreeInstrs uint64) uint64 {
	if cfg.Budget > 0 {
		return cfg.Budget
	}
	return faultFreeInstrs * hangFactor
}

// DrawPlans pre-draws n fault plans of cfg's mix from the seed, with
// targets uniform over a population of count in-region indexes. A
// campaign's uniform sampler is DrawPlans over the whole region;
// compositional analysis (internal/result) draws each region's plans
// from a region-keyed seed over the region's own population and maps
// the local targets into the global stream. The draw sequence is part
// of the checkpoint contract: a given (seed, cfg, count) always yields
// the same plans.
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
	prefix     *obs.Counter
	converged  *obs.Counter
	// convergedSkipped counts the clean-run remainder converged
	// replicas did not execute.
	convergedSkipped *obs.Counter
	// hangProofs and hangSkipped count replicas that proved their
	// runaway loop exhausts the budget, and the iterations' instructions
	// they skipped.
	hangProofs  *obs.Counter
	hangSkipped *obs.Counter
	classes     [NumClasses]*obs.Counter
	kinds       [machine.NumFaultKinds]*obs.Counter
}

func newCampaignMetrics(m *obs.Metrics) *campaignMetrics {
	cm := &campaignMetrics{
		campaigns:  m.Counter("fault_campaigns_total", "campaigns started"),
		injections: m.Counter("fault_injections_total", "injection runs executed"),
		skipped:    m.Counter("fault_injections_skipped_total", "injection runs resumed from a checkpoint instead of re-executed"),
		fired:      m.Counter("fault_fired_total", "injections whose fault actually struck"),
		panics:     m.Counter("fault_panics_contained_total", "worker panics contained as CoreDump"),
		ckWrites:   m.Counter("fault_checkpoint_writes_total", "checkpoint files written"),
		prefix:     m.Counter("fault_prefix_instrs_skipped_total", "fault-free prefix instructions replicas resumed from snapshots instead of executing"),
		converged:  m.Counter("fault_converged_total", "replicas stopped early because their state rejoined the clean run's"),
		convergedSkipped: m.Counter("fault_converged_instrs_skipped_total",
			"clean-run instructions converged replicas took from the clean run's end instead of executing"),
		hangProofs: m.Counter("fault_hang_proofs_total", "replicas that proved their runaway loop exhausts the budget and skipped to the iteration that does"),
		hangSkipped: m.Counter("fault_hang_instrs_skipped_total",
			"runaway-loop instructions hang-proved replicas skipped instead of executing"),
	}
	for c := Correct; c < NumClasses; c++ {
		slug := strings.ReplaceAll(strings.ToLower(c.String()), " ", "_")
		cm.classes[c] = m.Counter("fault_class_"+slug+"_total", "runs classified "+c.String())
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
	// key is the campaign identity (CampaignKey, plus the plan hash
	// for explicit-plan campaigns) — the checkpoint key and the fabric
	// plan key are the same string by construction.
	key string
	// strataOf/strata describe a stratified campaign: plan i belongs
	// to stratum strataOf[i], whose class and weight are in strata.
	// Both are nil for unstratified campaigns.
	strataOf []int
	strata   []StratumResult
}

// runRange executes every not-yet-done run in [lo, hi) on a worker
// pool. It returns ctx.Err() if cancelled; records written by
// in-flight workers before the cancellation are kept (they are valid
// completed runs and will not be re-executed on resume).
func (e *engine) runRange(ctx context.Context, lo, hi int) error {
	workers := e.cfg.Workers
	if n := hi - lo; workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled machine per worker: replicas reuse the decoded
			// and compiled code, memory arena and register slabs through
			// machine.Reset instead of paying construction per injection.
			inj := e.prof.Program.NewInjector(e.prof.Scheme)
			defer inj.Close()
			for i := range idx {
				if rec, ok := e.runOne(ctx, inj, i); ok {
					e.records[i] = rec
					e.met.record(&rec, e.plans[i].Kind)
				}
			}
		}()
	}
feed:
	for i := lo; i < hi; i++ {
		if e.records[i].Done {
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
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
	if snap := e.prof.Capture.Latest(plan.Target, e.budget); snap != nil {
		e.met.prefix.Add(snap.Instrs())
	}
	o := inj.Replay(e.prof.Inst, core.RunOpts{Fault: &plan, MaxInstrs: e.budget, Cancel: ctx.Done()}, e.prof.Capture)
	if o.Converged {
		e.met.converged.Inc()
		e.met.convergedSkipped.Add(o.ConvergedSkipped)
	}
	if o.HangProved {
		e.met.hangProofs.Inc()
		e.met.hangSkipped.Add(o.HangSkipped)
	}
	if _, cancelled := o.Err.(*machine.CancelError); cancelled {
		// Campaign-level cancellation: the run is incomplete.
		return RunRecord{}, false
	}
	cls, fn, recov := classify(&o, e.prof.Output)
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
