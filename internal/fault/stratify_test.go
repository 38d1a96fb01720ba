package fault

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/core"
	"rskip/internal/machine"
)

// Stratify conflicts with exhaustive enumeration and adaptive
// sampling; both rejections must be the typed config error so callers
// can map them to usage errors.
func TestStratifyConfigConflicts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"stratify x exhaustive", Config{Stratify: true, Exhaustive: true, Mix: Mix{Skip: 1}}},
		{"stratify x target ci", Config{Stratify: true, TargetCI: 2}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			var ce *ConfigConflictError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v (%T), want *ConfigConflictError", err, err)
			}
			if ce.Reason == "" || ce.Options == "" {
				t.Errorf("conflict error lacks options/reason: %+v", ce)
			}
		})
	}
	good := Config{Stratify: true, N: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("plain stratified config rejected: %v", err)
	}
	withCk := Config{Stratify: true, N: 100, CheckpointPath: "x.json"}
	if err := withCk.Validate(); err != nil {
		t.Errorf("stratified config with checkpointing rejected: %v", err)
	}
}

// Largest-remainder allocation must hand out exactly n replicas, only
// to populated classes, proportionally to population.
func TestStratifiedAllocation(t *testing.T) {
	var counts [machine.NumOpClasses]uint64
	counts[machine.ClassALU] = 700
	counts[machine.ClassMem] = 200
	counts[machine.ClassBranch] = 99
	counts[machine.ClassFloat] = 1
	var byClass []machine.Population
	for c, n := range counts {
		byClass = append(byClass, machine.Population{Key: c, Count: n})
	}
	total := uint64(1000)
	for _, n := range []int{1, 7, 100, 997, 5000} {
		alloc := allocate(byClass, total, n)
		sum := 0
		for c, k := range alloc {
			sum += k
			if counts[c] == 0 && k != 0 {
				t.Errorf("n=%d: empty class %v allocated %d replicas", n, machine.OpClass(c), k)
			}
		}
		if sum != n {
			t.Errorf("n=%d: allocation sums to %d", n, sum)
		}
	}
	// Proportionality at a round count.
	alloc := allocate(byClass, total, 1000)
	if alloc[machine.ClassALU] != 700 || alloc[machine.ClassMem] != 200 {
		t.Errorf("n=1000 allocation %v, want exact population proportions", alloc)
	}
	// A one-instruction class still gets sampled at large n.
	if alloc[machine.ClassFloat] == 0 {
		t.Error("rare class starved at n=1000")
	}
}

// Every stratified plan must target an instruction of its stratum's
// class — the draw maps class-local indexes through the trace layout.
func TestStratifiedPlansLandInClass(t *testing.T) {
	p, inst := sharedConv1d(t)
	trace := &machine.RegionTrace{}
	profile, err := NewProfile(context.Background(), p, core.SWIFT, inst, trace)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Total() != profile.Result.Region {
		t.Fatalf("trace total %d != region %d", trace.Total(), profile.Result.Region)
	}

	// Flat position -> class lookup from the spans.
	classAt := make([]machine.OpClass, trace.Total())
	pos := 0
	for _, sp := range trace.Spans() {
		for i := uint64(0); i < sp.N; i++ {
			classAt[pos] = sp.Class
			pos++
		}
	}

	cfg := Config{N: 300, Seed: 7, Stratify: true, Mix: DefaultMix}
	plans, strataOf, strata := stratifiedPlans(cfg, trace)
	if len(plans) != cfg.N || len(strataOf) != cfg.N {
		t.Fatalf("got %d plans / %d strata indexes, want %d", len(plans), len(strataOf), cfg.N)
	}
	if len(strata) < 2 {
		t.Fatalf("conv1d produced %d strata; expected several instruction classes", len(strata))
	}
	wsum := 0.0
	for _, st := range strata {
		wsum += st.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("stratum weights sum to %g, want 1", wsum)
	}
	for i, pl := range plans {
		st := strata[strataOf[i]]
		if pl.Target >= trace.Total() {
			t.Fatalf("plan %d targets %d beyond the region (%d)", i, pl.Target, trace.Total())
		}
		if got := classAt[pl.Target]; got != st.Class {
			t.Fatalf("plan %d targets a %v instruction but belongs to the %v stratum", i, got, st.Class)
		}
	}

	// Determinism: the same seed and layout draw the same plans.
	again, _, _ := stratifiedPlans(cfg, trace)
	if !reflect.DeepEqual(plans, again) {
		t.Error("stratified plan generation is not deterministic")
	}
	// A different seed draws different plans.
	cfg.Seed = 8
	other, _, _ := stratifiedPlans(cfg, trace)
	if reflect.DeepEqual(plans, other) {
		t.Error("seed change did not change the stratified plans")
	}
}

// A stratified campaign must report per-stratum counts that partition
// the pooled counts, and its weighted protection estimate must stay
// inside its own merged CI.
func TestStratifiedCampaignResult(t *testing.T) {
	p, inst := sharedConv1d(t)
	res, err := Campaign(context.Background(), p, core.SWIFT, inst,
		Config{N: 200, Seed: 11, Stratify: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strata) == 0 {
		t.Fatal("stratified campaign reported no strata")
	}
	var n, protected int
	var counts [NumClasses]int
	for _, st := range res.Strata {
		n += st.N
		protected += st.Protected
		for c, k := range st.Counts {
			counts[c] += k
		}
		if st.Protected != st.Counts[Correct]+st.Counts[Detected] {
			t.Errorf("stratum %v: Protected %d != Correct+Detected %d",
				st.Class, st.Protected, st.Counts[Correct]+st.Counts[Detected])
		}
	}
	if n != res.N || counts != res.Counts {
		t.Errorf("strata partition (%d runs, %v) != pooled (%d, %v)", n, counts, res.N, res.Counts)
	}
	rate := res.ProtectionRate()
	lo, hi := res.ProtectionCI()
	if !(0 <= lo && lo <= rate && rate <= hi && hi <= 100) {
		t.Errorf("stratified CI [%g, %g] does not bracket rate %g", lo, hi, rate)
	}
}

// A stratified campaign interrupted mid-flight and resumed from its
// checkpoint must aggregate bit-identically to an uninterrupted one —
// the regression pinning Stratify x CheckpointPath interoperation.
func TestStratifiedResumeBitIdentical(t *testing.T) {
	p, inst := sharedConv1d(t)
	cfg := Config{N: 200, Seed: 5, Stratify: true, Batch: 40, Workers: 2}

	uncut, err := Campaign(context.Background(), p, core.SWIFTR, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cut := cfg
	cut.CheckpointPath = filepath.Join(t.TempDir(), "strat.ck.json")
	cut.runHook = func(i int) {
		if i == 90 {
			cancel()
		}
	}
	partial, err := Campaign(ctx, p, core.SWIFTR, inst, cut)
	if err == nil {
		t.Fatal("interrupted campaign reported no error")
	}
	if partial.N >= uncut.N {
		t.Fatalf("interruption did not interrupt: %d of %d runs completed", partial.N, uncut.N)
	}

	cut.runHook = nil
	resumed, err := Campaign(context.Background(), p, core.SWIFTR, inst, cut)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(resumed, uncut) {
		t.Errorf("resumed stratified result diverged:\nresumed %+v\nuncut   %+v", resumed, uncut)
	}
}

// A stratified campaign must never resume a uniform campaign's
// checkpoint (the same seed draws a different plan list).
func TestStratifiedCheckpointKeyDistinct(t *testing.T) {
	p, inst := sharedConv1d(t)
	ckPath := filepath.Join(t.TempDir(), "cross.ck.json")
	uniform := Config{N: 60, Seed: 3, Batch: 30, CheckpointPath: ckPath}
	if _, err := Campaign(context.Background(), p, core.Unsafe, inst, uniform); err != nil {
		t.Fatal(err)
	}
	strat := uniform
	strat.Stratify = true
	_, err := Campaign(context.Background(), p, core.Unsafe, inst, strat)
	if err == nil {
		t.Fatal("stratified campaign resumed a uniform checkpoint")
	}
	if !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("cross-resume error %q does not identify the key mismatch", err)
	}
}

// The partition-sum identity at the fault layer: running a plan list
// whole or split into parts must produce counts that sum exactly.
func TestCampaignWithPlansPartitionIdentity(t *testing.T) {
	p, inst := sharedConv1d(t)
	prof, err := NewProfile(context.Background(), p, core.SWIFT, inst, &machine.RegionTrace{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 90, Seed: 17, Stratify: true}
	plans, _, _ := stratifiedPlans(cfg, prof.Trace)

	whole, err := CampaignWithPlans(context.Background(), prof, Config{Workers: 2}, plans)
	if err != nil {
		t.Fatal(err)
	}
	if whole.N != len(plans) {
		t.Fatalf("whole campaign completed %d/%d runs", whole.N, len(plans))
	}
	var sum [NumClasses]int
	var fired, falseNeg, recovered int
	for _, part := range [][]machine.FaultPlan{plans[:31], plans[31:70], plans[70:]} {
		res, err := CampaignWithPlans(context.Background(), prof, Config{Workers: 2}, part)
		if err != nil {
			t.Fatal(err)
		}
		for c, k := range res.Counts {
			sum[c] += k
		}
		fired += res.Fired
		falseNeg += res.FalseNeg
		recovered += res.Recovered
	}
	if sum != whole.Counts || fired != whole.Fired || falseNeg != whole.FalseNeg || recovered != whole.Recovered {
		t.Errorf("partition sums diverge from whole:\nparts %v fired=%d fn=%d rec=%d\nwhole %v fired=%d fn=%d rec=%d",
			sum, fired, falseNeg, recovered, whole.Counts, whole.Fired, whole.FalseNeg, whole.Recovered)
	}
}

// CampaignWithPlans is a partition primitive, not a sampler: sampling
// and early-stop options must be rejected, and the checkpoint identity
// must distinguish different plan lists.
func TestCampaignWithPlansRejections(t *testing.T) {
	p, inst := sharedConv1d(t)
	prof, err := NewProfile(context.Background(), p, core.Unsafe, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	plans := []machine.FaultPlan{{Kind: machine.FaultRegFile, Target: 0, Bit: 1, Pick: 2}}
	for name, cfg := range map[string]Config{
		"target ci":  {TargetCI: 1},
		"exhaustive": {Exhaustive: true, Mix: Mix{Skip: 1}},
		"stratify":   {Stratify: true},
	} {
		_, err := CampaignWithPlans(context.Background(), prof, cfg, plans)
		var ce *ConfigConflictError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v (%T), want *ConfigConflictError", name, err, err)
		}
	}
	if _, err := CampaignWithPlans(context.Background(), prof, Config{N: 5}, plans); err == nil {
		t.Error("N mismatching the plan count was accepted")
	}

	// Distinct plan lists of equal length must not share a checkpoint.
	ckPath := filepath.Join(t.TempDir(), "plans.ck.json")
	first := []machine.FaultPlan{{Kind: machine.FaultRegFile, Target: 1, Bit: 3, Pick: 9}}
	if _, err := CampaignWithPlans(context.Background(), prof, Config{CheckpointPath: ckPath}, first); err != nil {
		t.Fatal(err)
	}
	second := []machine.FaultPlan{{Kind: machine.FaultRegFile, Target: 2, Bit: 3, Pick: 9}}
	_, err = CampaignWithPlans(context.Background(), prof, Config{CheckpointPath: ckPath}, second)
	if err == nil {
		t.Fatal("a different plan list resumed the first list's checkpoint")
	}
	if !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("cross-plan resume error %q does not identify the key mismatch", err)
	}
}
