// Package fault runs the paper's statistical fault-injection
// experiments (§7.2): for each benchmark and protection scheme it
// executes N runs, each with one single-event upset injected at a
// uniformly random dynamic instruction inside the detected loops, and
// classifies the outcome into the paper's five classes plus the
// detection-only scheme's "Detected". It also measures false
// negatives — faults on prediction-covered value slices that fuzzy
// validation accepted.
//
// Campaigns are built to survive their own experiment: they honor
// context cancellation, bound each run by a deterministic instruction
// budget, contain interpreter panics as CoreDump outcomes instead of
// killing the process, persist progress as JSON checkpoints that
// resume bit-identically, and can stop early once the protection-rate
// confidence interval is tight enough (adaptive sampling). Every
// campaign runs one loop: Executors execute shards leased from a
// fabric coordinator, and a Ledger merges them (see ledger.go).
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"rskip/internal/core"
	"rskip/internal/machine"
	"rskip/internal/stats"
)

// Class is a fault-injection outcome.
type Class int

// Outcome classes (§7.2).
const (
	Correct  Class = iota // output bitwise equal to the fault-free run
	SDC                   // silent data corruption
	Segfault              // illegal memory access
	CoreDump              // trap / abnormal termination (including contained interpreter panics)
	Hang                  // exceeded the instruction budget
	Detected              // SWIFT-only: detection signaled (no recovery)
	NumClasses
)

var classNames = [...]string{"Correct", "SDC", "Segfault", "Core dump", "Hang", "Detected"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		// Out-of-range values (NumClasses, corrupted checkpoints) must
		// format, not panic — String is called from error paths.
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Config parameterizes a campaign.
type Config struct {
	// N is the number of injected faults (the paper uses 1,000). With
	// TargetCI set it is the cap on adaptive sampling.
	N int
	// Seed drives the fault-plan sampling.
	Seed int64
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// Budget, when positive, is the per-run instruction budget
	// directly, overriding the default of HangFactor times the
	// scheme's fault-free run. Compositional analysis
	// (internal/result) pins it to a stable bucket so cached per-region
	// results stay comparable across source edits that perturb the
	// fault-free instruction count slightly.
	Budget uint64
	// Mix sets the sampling weights of the fault kinds; zero uses
	// DefaultMix.
	Mix Mix
	// SkipWidth is the number of consecutive instructions a FaultSkip
	// suppresses (default 1; Moro et al.'s multi-skip bursts use more).
	SkipWidth int
	// BitWidth is the number of adjacent bits a FaultMultiBit flips
	// (default 2).
	BitWidth int
	// Exhaustive switches from statistical sampling to exhaustive
	// enumeration: one run per fault site instead of N random draws.
	// It requires a pure single-kind Mix (only Skip or only MultiBit
	// weighted), N = 0 (the count is derived from the region), and no
	// TargetCI. Skip mode enumerates every in-region dynamic
	// instruction; multibit mode enumerates every (instruction,
	// starting bit) pair. Enumerated campaigns stay deterministic,
	// checkpointable by index and parallel like sampled ones.
	Exhaustive bool
	// ExhaustiveBudget caps the enumerated run count (default 200000);
	// a region too large to enumerate under the budget is an error, not
	// a silent truncation.
	ExhaustiveBudget int
	// Stratify allocates the N replicas across instruction-class
	// strata (ALU, float, memory, branch, ...) in proportion to each
	// class's share of the in-region dynamic instruction stream,
	// drawing targets uniformly within each class. Rare classes get
	// dedicated replicas instead of relying on uniform sampling to hit
	// them, and the protection CI becomes the merged stratified
	// interval (stats.StratifiedWilson) — typically tighter at equal N
	// when classes differ in vulnerability. Incompatible with
	// Exhaustive (which already visits every site exactly once) and
	// with TargetCI (early stop would truncate the class-major plan
	// order and silently unbalance the allocation); Validate rejects
	// both combinations with a ConfigConflictError.
	Stratify bool
	// TargetCI, when positive, enables adaptive sampling: the campaign
	// stops at the first Batch boundary, in run order, where the width
	// of the 95% Wilson confidence interval on the protection rate of
	// the runs before it is TargetCI percentage points or below (capped
	// at N runs). The ledger decides the stop on the merged prefix, so
	// a distributed campaign stops exactly where a single process does.
	TargetCI float64
	// Batch is the number of runs between early-stop checks (default
	// 100). A single-process campaign leases shards of Batch runs, so
	// it is also the checkpoint interval; every executor heartbeats its
	// lease after each Batch runs.
	Batch int
	// CheckpointPath, when non-empty, persists campaign progress to
	// this file after every merged shard. If the file already holds a
	// checkpoint of the same campaign (same benchmark, scheme, N,
	// seed, mix and hang factor), completed runs are not re-executed —
	// the campaign resumes where it left off and produces final counts
	// bit-identical to an uninterrupted run.
	CheckpointPath string
	// OnProgress, when set, receives a snapshot after every merged
	// shard (after its checkpoint save, so a consumer that observes a
	// snapshot knows the matching checkpoint is durable). Calls are
	// serialized, in merge order — keep it fast; slow consumers belong
	// behind a channel. rskipd's streaming progress
	// endpoint feeds from this hook.
	OnProgress func(Progress)

	// runHook, when set, runs at the start of each injection with the
	// run index — test instrumentation for forcing panics and
	// cancelling campaigns mid-flight.
	runHook func(i int)
}

// Validate rejects configurations that would otherwise degenerate
// silently (negative counts, meaningless mixes). Campaign calls it;
// it is exported so tools can fail fast before building programs.
func (cfg *Config) Validate() error {
	if cfg.N < 0 {
		return fmt.Errorf("fault: config: N = %d, want >= 0", cfg.N)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("fault: config: Workers = %d, want >= 0", cfg.Workers)
	}
	if cfg.Batch < 0 {
		return fmt.Errorf("fault: config: Batch = %d, want >= 0", cfg.Batch)
	}
	if cfg.TargetCI < 0 || math.IsNaN(cfg.TargetCI) {
		return fmt.Errorf("fault: config: TargetCI = %v, want >= 0", cfg.TargetCI)
	}
	if cfg.SkipWidth < 0 {
		return fmt.Errorf("fault: config: SkipWidth = %d, want >= 0", cfg.SkipWidth)
	}
	if cfg.BitWidth < 0 {
		return fmt.Errorf("fault: config: BitWidth = %d, want >= 0", cfg.BitWidth)
	}
	if cfg.ExhaustiveBudget < 0 {
		return fmt.Errorf("fault: config: ExhaustiveBudget = %d, want >= 0", cfg.ExhaustiveBudget)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{
		{"RegFile", cfg.Mix.RegFile},
		{"Result", cfg.Mix.Result},
		{"Source", cfg.Mix.Source},
		{"Opcode", cfg.Mix.Opcode},
		{"Skip", cfg.Mix.Skip},
		{"MultiBit", cfg.Mix.MultiBit},
	} {
		if w.v < 0 || math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return fmt.Errorf("fault: config: Mix.%s = %v, want a finite weight >= 0", w.name, w.v)
		}
	}
	if cfg.Mix != (Mix{}) && cfg.Mix.sum() == 0 {
		return fmt.Errorf("fault: config: Mix weights sum to zero; leave Mix zero for DefaultMix or give at least one positive weight")
	}
	if cfg.Stratify && cfg.Exhaustive {
		return &ConfigConflictError{Options: "Stratify and Exhaustive",
			Reason: "exhaustive enumeration visits every fault site exactly once; a sampling allocation has nothing to decide"}
	}
	if cfg.Stratify && cfg.TargetCI > 0 {
		return &ConfigConflictError{Options: "Stratify and TargetCI",
			Reason: "early stopping truncates the class-major plan order and silently unbalances the per-class allocation"}
	}
	if cfg.Exhaustive {
		seu := cfg.Mix.RegFile + cfg.Mix.Result + cfg.Mix.Source + cfg.Mix.Opcode
		skipOnly := cfg.Mix.Skip > 0 && cfg.Mix.MultiBit == 0 && seu == 0
		mbOnly := cfg.Mix.MultiBit > 0 && cfg.Mix.Skip == 0 && seu == 0
		if !skipOnly && !mbOnly {
			return fmt.Errorf("fault: config: Exhaustive requires a pure single-kind Mix (only Skip or only MultiBit weighted), got %+v", cfg.Mix)
		}
		if cfg.N != 0 {
			return fmt.Errorf("fault: config: Exhaustive derives the run count from the region; leave N = 0 (got %d)", cfg.N)
		}
		if cfg.TargetCI > 0 {
			return fmt.Errorf("fault: config: Exhaustive enumerates every site; adaptive sampling (TargetCI = %v) does not apply", cfg.TargetCI)
		}
	}
	return nil
}

// Progress is one campaign progress snapshot, delivered to
// Config.OnProgress after each merged shard.
type Progress struct {
	// Done is the number of completed (classified) runs so far,
	// including runs restored from a checkpoint.
	Done int
	// N is the requested injection count (the cap).
	N int
	// Result aggregates every completed run so far; its rates and
	// confidence intervals are valid running estimates.
	Result Result
}

// Mix weights the fault kinds. Register-file strikes dominate real
// SEU profiles (and provide the masking of dead registers); strikes on
// in-flight results/operands and opcode-field flips are the residual
// classes software-only schemes struggle with (§7.2). Skip and
// MultiBit select the adversarial threat models beyond the paper's
// SEU setup: instruction-skip bursts (Moro et al.) and multi-bit
// upsets; both default to zero weight.
type Mix struct {
	RegFile, Result, Source, Opcode float64
	Skip, MultiBit                  float64
}

func (m Mix) sum() float64 {
	return m.RegFile + m.Result + m.Source + m.Opcode + m.Skip + m.MultiBit
}

// DefaultMix follows the register-file-dominated SEU model of the
// paper's gem5 setup.
var DefaultMix = Mix{RegFile: 0.80, Result: 0.10, Source: 0.05, Opcode: 0.05}

// ConfigConflictError reports two Config options that are
// individually valid but meaningless together. It is a distinct type
// so CLIs and the server can map it to a usage error instead of a
// campaign failure.
type ConfigConflictError struct {
	Options string // the conflicting option pair, e.g. "Stratify and Exhaustive"
	Reason  string
}

func (e *ConfigConflictError) Error() string {
	return fmt.Sprintf("fault: config: %s cannot be combined: %s", e.Options, e.Reason)
}

// UnknownModelError reports a fault-model name ModelMix does not know.
type UnknownModelError struct{ Model string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("fault: unknown fault model %q (want seu, skip or multibit)", e.Model)
}

// ModelMix resolves a named threat model to its sampling mix: "seu"
// (or empty) is the paper's single-event-upset DefaultMix, "skip" is a
// pure instruction-skip campaign, "multibit" a pure multi-bit-upset
// campaign. The names are the wire/CLI vocabulary of rskipfi's
// -fault-kind flag and rskipd's fault_model field.
func ModelMix(model string) (Mix, error) {
	switch model {
	case "", "seu":
		return DefaultMix, nil
	case "skip":
		return Mix{Skip: 1}, nil
	case "multibit":
		return Mix{MultiBit: 1}, nil
	}
	return Mix{}, &UnknownModelError{Model: model}
}

// Result summarizes one campaign.
type Result struct {
	Scheme core.Scheme
	// N is the number of completed (classified) runs. It equals
	// Requested unless the campaign was cancelled mid-flight or
	// adaptive sampling stopped early.
	N int
	// Requested is the configured injection count (the cap).
	Requested int
	Counts    [NumClasses]int
	// Fired counts runs where the fault actually struck (the region
	// was reached); unfired faults are masked by construction.
	Fired int
	// FalseNeg counts SDC runs whose fault hit a prediction-covered
	// value-slice instruction and slipped through fuzzy validation
	// (RSkip schemes only).
	FalseNeg int
	// Recovered counts runs where the run-time management repaired an
	// element (RSkip) — diagnostics beyond the paper's figures.
	Recovered int
	// EarlyStopped reports that TargetCI adaptive sampling reached its
	// precision target before Requested runs.
	EarlyStopped bool
	// Exhaustive reports that the campaign enumerated every fault site
	// instead of sampling: the rates are exact population values, not
	// estimates (the Wilson CIs still describe the finite run set).
	Exhaustive bool
	// Errors is the per-class error taxonomy of abnormal runs: for
	// each class, how many runs terminated with each distinct error
	// string. Contained worker panics appear under CoreDump with a
	// "panic: ..." message.
	Errors map[Class]map[string]int
	// Strata is the per-instruction-class breakdown of a stratified
	// campaign (Config.Stratify), in class order; empty otherwise.
	// When present, ProtectionRate and ProtectionCI use the weighted
	// stratified estimator instead of pooling runs.
	Strata []StratumResult
}

// StratumResult is one instruction-class stratum of a stratified
// campaign.
type StratumResult struct {
	// Class is the instruction class the stratum samples.
	Class machine.OpClass
	// Weight is the class's share of the in-region dynamic
	// instruction stream (weights sum to 1 across Strata).
	Weight float64
	// N is the number of completed runs in the stratum; Protected of
	// them were Correct or Detected.
	N         int
	Protected int
	Counts    [NumClasses]int
}

// Rate returns the percentage of completed runs in the class.
func (r *Result) Rate(c Class) float64 {
	if r.N == 0 {
		return 0
	}
	return 100 * float64(r.Counts[c]) / float64(r.N)
}

// CI returns the 95% Wilson confidence interval (in percent) for the
// class's underlying outcome probability.
func (r *Result) CI(c Class) (lo, hi float64) {
	wl, wh := stats.Wilson(r.Counts[c], r.N, stats.Z95)
	return 100 * wl, 100 * wh
}

// protectionStrata views Strata as stats strata over the protection
// event (Correct or Detected).
func (r *Result) protectionStrata() []stats.Stratum {
	s := make([]stats.Stratum, len(r.Strata))
	for i, st := range r.Strata {
		s[i] = stats.Stratum{W: st.Weight, K: st.Protected, N: st.N}
	}
	return s
}

// ProtectionRate is the paper's headline reliability metric: the
// fraction of injected faults that did not corrupt the program
// (Correct plus, for detection-only schemes, Detected). A stratified
// campaign reports the weighted estimate — each class's observed rate
// scaled by the class's true population share — rather than the
// pooled run count, which would bias toward over-sampled classes.
func (r *Result) ProtectionRate() float64 {
	if len(r.Strata) > 0 {
		p, _, _ := stats.StratifiedWilson(r.protectionStrata(), stats.Z95)
		return 100 * p
	}
	return r.Rate(Correct) + r.Rate(Detected)
}

// ProtectionCI returns the 95% Wilson confidence interval (in
// percent) on the protection rate; for stratified campaigns it is the
// merged interval across class strata.
func (r *Result) ProtectionCI() (lo, hi float64) {
	if len(r.Strata) > 0 {
		_, wl, wh := stats.StratifiedWilson(r.protectionStrata(), stats.Z95)
		return 100 * wl, 100 * wh
	}
	wl, wh := stats.Wilson(r.Counts[Correct]+r.Counts[Detected], r.N, stats.Z95)
	return 100 * wl, 100 * wh
}

// FalseNegRate returns false negatives as a percentage of runs.
func (r *Result) FalseNegRate() float64 {
	if r.N == 0 {
		return 0
	}
	return 100 * float64(r.FalseNeg) / float64(r.N)
}

func drawKind(rng *rand.Rand, m Mix) machine.FaultKind {
	// The thresholds accumulate in declaration order with the same
	// additions the pre-extension code used, so legacy mixes (Skip =
	// MultiBit = 0) draw bit-identical kinds from a given seed and old
	// checkpoints stay resumable.
	t := rng.Float64() * m.sum()
	switch {
	case t < m.RegFile:
		return machine.FaultRegFile
	case t < m.RegFile+m.Result:
		return machine.FaultResultBit
	case t < m.RegFile+m.Result+m.Source:
		return machine.FaultSourceBit
	case t < m.RegFile+m.Result+m.Source+m.Opcode:
		return machine.FaultOpcode
	case t < m.RegFile+m.Result+m.Source+m.Opcode+m.Skip:
		return machine.FaultSkip
	case m.MultiBit > 0:
		return machine.FaultMultiBit
	}
	// Rounding pushed t past every accumulated threshold (the float
	// sums above can land just below t even though their exact values
	// equal m.sum()). Fall back to the last positively weighted kind in
	// declaration order, so a pure-skip mix draws FaultSkip — never a
	// kind whose weight is zero. For the legacy SEU mixes (Opcode
	// weighted, Skip = MultiBit = 0) this is the pre-fix FaultOpcode
	// fallback, so seeded draws and old checkpoints are unchanged.
	switch {
	case m.Skip > 0:
		return machine.FaultSkip
	case m.Opcode > 0:
		return machine.FaultOpcode
	case m.Source > 0:
		return machine.FaultSourceBit
	case m.Result > 0:
		return machine.FaultResultBit
	default:
		return machine.FaultRegFile
	}
}

// classify maps one run outcome to a class, plus false-negative and
// recovery flags.
func classify(o *core.Outcome, golden []uint64) (Class, bool, bool) {
	recovered := false
	detections := 0
	for _, st := range o.Stats {
		recovered = recovered || st.Recovered > 0
		detections += st.Detected
	}
	if o.Err != nil {
		switch o.Err.(type) {
		case *machine.SegfaultError:
			return Segfault, false, recovered
		case *machine.TrapError:
			return CoreDump, false, recovered
		case *machine.HangError:
			return Hang, false, recovered
		case *machine.DetectError:
			return Detected, false, recovered
		}
		return CoreDump, false, recovered
	}
	// A fault that changes the output's length is corruption, not a
	// reason to crash the campaign.
	if len(o.Output) != len(golden) {
		fn := o.FaultFired && o.FaultInValueSlice && detections == 0
		return SDC, fn, recovered
	}
	for i := range golden {
		if o.Output[i] != golden[i] {
			// Corrupted output: a false negative when the fault hit the
			// prediction-covered value slice and detection never fired.
			fn := o.FaultFired && o.FaultInValueSlice && detections == 0
			return SDC, fn, recovered
		}
	}
	return Correct, false, recovered
}
