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

// The partition-sum identity at the fault layer, over views: conv1d's
// RSkip instruction-class populations (five at ScaleTiny) partition its in-region stream, so a
// plan list split by population and run part by part sums exactly to
// the whole run, and a campaign on each class view runs plans of that
// class only, with the records the whole profile gives those plans.
func TestViewPartitionIdentity(t *testing.T) {
	p, inst := sharedConv1d(t)
	ctx := context.Background()
	prof, err := NewProfile(ctx, p, core.RSkip, inst, &machine.RegionTrace{})
	if err != nil {
		t.Fatal(err)
	}
	pops := prof.Trace.ByClass()
	if len(pops) != 5 {
		t.Fatalf("conv1d has %d RSkip class populations, want 5", len(pops))
	}
	cfg := Config{Workers: 2, Mix: Mix{RegFile: 0.5, Result: 0.2, Source: 0.1, Opcode: 0.1, Skip: 0.1}}
	plans := DrawPlans(17, 120, cfg, prof.Result.Region)
	whole, err := RunPlans(ctx, prof, cfg, plans)
	if err != nil {
		t.Fatal(err)
	}
	if whole.N != len(plans) {
		t.Fatalf("whole campaign completed %d/%d runs", whole.N, len(plans))
	}
	var parts []Result
	seen := 0
	for i := range pops {
		var part []machine.FaultPlan
		for _, pl := range plans {
			if pops[i].Contains(pl.Target) {
				part = append(part, pl)
			}
		}
		seen += len(part)
		res, err := RunPlans(ctx, prof, cfg, part)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, res)
	}
	if seen != len(plans) {
		t.Fatalf("class populations cover %d of %d plans", seen, len(plans))
	}
	if sum := sumResults(parts); !sameCounts(sum, whole) {
		t.Errorf("partition sums diverge from whole:\nparts %+v\nwhole %+v", sum, whole)
	}

	for i := range pops {
		view := prof.Within(pops[i])
		vcfg := cfg
		vcfg.N, vcfg.Seed = 15, int64(40+i)
		e, err := prepare(ctx, view, vcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range e.plans {
			if !pops[i].Contains(pl.Target) {
				t.Fatalf("class %v view drew target %d outside its population", machine.OpClass(pops[i].Key), pl.Target)
			}
		}
		got, err := CampaignOn(ctx, view, vcfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunPlans(ctx, prof, cfg, e.plans)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("class %v view campaign diverges from its plans on the whole profile:\n view %+v\nwhole %+v",
				machine.OpClass(pops[i].Key), got, want)
		}
	}
}

func sumResults(parts []Result) Result {
	var sum Result
	for _, r := range parts {
		sum.N += r.N
		for c, k := range r.Counts {
			sum.Counts[c] += k
		}
		sum.Fired += r.Fired
		sum.FalseNeg += r.FalseNeg
		sum.Recovered += r.Recovered
		for class, byMsg := range r.Errors {
			if sum.Errors == nil {
				sum.Errors = map[Class]map[string]int{}
			}
			if sum.Errors[class] == nil {
				sum.Errors[class] = map[string]int{}
			}
			for msg, n := range byMsg {
				sum.Errors[class][msg] += n
			}
		}
	}
	return sum
}

func sameCounts(a, b Result) bool {
	return a.N == b.N && a.Counts == b.Counts && a.Fired == b.Fired &&
		a.FalseNeg == b.FalseNeg && a.Recovered == b.Recovered &&
		(len(a.Errors) == 0 && len(b.Errors) == 0 || reflect.DeepEqual(a.Errors, b.Errors))
}

// A view has no region trace, so stratifying it (or any untraced
// profile) is refused, and its campaign key names its population, so a
// checkpoint taken on one view resumes neither another view nor the
// whole profile.
func TestViewRejections(t *testing.T) {
	p, inst := sharedConv1d(t)
	ctx := context.Background()
	prof, err := NewProfile(ctx, p, core.Unsafe, inst, &machine.RegionTrace{})
	if err != nil {
		t.Fatal(err)
	}
	pops := prof.Trace.ByClass()
	for name, pr := range map[string]*Profile{
		"view":     prof.Within(pops[0]),
		"untraced": {Program: prof.Program, Scheme: prof.Scheme, Inst: prof.Inst, Output: prof.Output, Result: prof.Result, Capture: prof.Capture},
		"another":  prof.Within(pops[1]),
	} {
		if _, err := CampaignOn(ctx, pr, Config{N: 10, Stratify: true}); err == nil || !strings.Contains(err.Error(), "Stratify") {
			t.Errorf("%s: stratified campaign got %v, want a refusal naming Stratify", name, err)
		}
	}
	if _, err := CampaignOn(ctx, prof.Within(machine.Population{}), Config{N: 10}); err == nil {
		t.Error("a view of an empty population ran")
	}

	ckPath := filepath.Join(t.TempDir(), "view.ck.json")
	cfg := Config{N: 12, Seed: 5, CheckpointPath: ckPath}
	if _, err := CampaignOn(ctx, prof.Within(pops[0]), cfg); err != nil {
		t.Fatal(err)
	}
	for name, pr := range map[string]*Profile{"another view": prof.Within(pops[1]), "whole profile": prof} {
		_, err := CampaignOn(ctx, pr, cfg)
		if err == nil {
			t.Fatalf("%s resumed a view's checkpoint", name)
		}
		if !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("%s: cross-resume error %q does not identify the key mismatch", name, err)
		}
	}
	if _, err := CampaignOn(ctx, prof.Within(pops[0]), cfg); err != nil {
		t.Errorf("the view's own checkpoint did not resume: %v", err)
	}
}
