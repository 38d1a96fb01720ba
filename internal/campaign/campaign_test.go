package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/machine"
)

// Every incremental conflict is decided here, for both front ends: each
// one alone is refused with the option it conflicts with named, and
// none of them conflicts without Incremental.
func TestCheckConflicts(t *testing.T) {
	base := Spec{Bench: "conv1d", Scheme: "unsafe", Incremental: true}
	if err := base.CheckConflicts(false, false); err != nil {
		t.Fatalf("a plain incremental spec conflicts: %v", err)
	}
	for _, tc := range []struct {
		option                string
		spec                  Spec
		sharded, checkpointed bool
	}{
		{"exhaustive", Spec{Exhaustive: true}, false, false},
		{"target_ci", Spec{TargetCI: 2}, false, false},
		{"stratify", Spec{Stratify: true}, false, false},
		{"checkpoint", Spec{}, false, true},
		{"fabric", Spec{}, true, false},
	} {
		s := tc.spec
		if err := s.CheckConflicts(tc.sharded, tc.checkpointed); err != nil {
			t.Errorf("%s without incremental conflicts: %v", tc.option, err)
		}
		s.Incremental = true
		err := s.CheckConflicts(tc.sharded, tc.checkpointed)
		var conflict *fault.ConfigConflictError
		if !errors.As(err, &conflict) || conflict.Options != "incremental and "+tc.option {
			t.Errorf("incremental + %s: %v, want a conflict naming both", tc.option, err)
		}
	}
}

func TestBuildConfigCore(t *testing.T) {
	var none *BuildConfig
	if got, err := none.Core(); err != nil || got != core.DefaultConfig() {
		t.Fatalf("nil config = %+v, %v; want the default", got, err)
	}
	ar := 0.0
	got, err := (&BuildConfig{AR: &ar, Window: 16, EnableCFC: true, Backend: "reference"}).Core()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	want.AR, want.Window, want.EnableCFC, want.Backend = 0, 16, true, machine.BackendReference
	if got != want {
		t.Fatalf("config = %+v, want %+v", got, want)
	}
	var unknown *machine.UnknownBackendError
	if _, err := (&BuildConfig{Backend: "fast"}).Core(); !errors.As(err, &unknown) {
		t.Fatalf("unknown backend: %v", err)
	}
}

func TestSetup(t *testing.T) {
	ctx := context.Background()
	ar := 0.3
	spec := Spec{Bench: "conv1d", Scheme: "rskip", N: 12, Seed: 5, Train: 1, Config: &BuildConfig{AR: &ar},
		Workers: 2, Batch: 4, FaultModel: "skip", SkipWidth: 2}
	c, err := spec.Setup(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme != core.RSkip || c.Program.Cfg.AR != 0.3 || c.Program.Trained == nil {
		t.Fatalf("setup = scheme %v, AR %v, trained %v", c.Scheme, c.Program.Cfg.AR, c.Program.Trained != nil)
	}
	mix, _ := fault.ModelMix("skip")
	if want := (fault.Config{N: 12, Seed: 5, Workers: 2, Batch: 4, Mix: mix, SkipWidth: 2}); !reflect.DeepEqual(c.Fault, want) {
		t.Fatalf("fault config %+v, want %+v", c.Fault, want)
	}
	spec.Scheme = "unsafe"
	if c, err := spec.Setup(ctx); err != nil || c.Program.Trained != nil {
		t.Fatalf("an unsafe setup trained (%v)", err)
	}

	var unknownModel *fault.UnknownModelError
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Bench: "conv1d", Scheme: "nope"}, "scheme"},
		{Spec{Bench: "nope", Scheme: "unsafe"}, "unknown benchmark"},
		{Spec{Bench: "conv1d", Scheme: "unsafe", Config: &BuildConfig{Backend: "fast"}}, "backend"},
		{Spec{Bench: "conv1d", Scheme: "unsafe", FaultModel: "cosmic-ray"}, "unknown fault model"},
	} {
		if _, err := tc.spec.Setup(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: %v, want an error about %s", tc.spec, err, tc.want)
		}
	}
	if _, err := (&Spec{FaultModel: "cosmic-ray"}).FaultConfig(); !errors.As(err, &unknownModel) {
		t.Errorf("unknown model: %v", err)
	}
}

func TestAnalyze(t *testing.T) {
	c, err := (&Spec{Bench: "conv1d", Scheme: "unsafe", N: 6, Seed: 1, Incremental: true}).Setup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analyze(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regions) == 0 || rep.Composed.N != 6*len(rep.Regions) || rep.CacheMisses != len(rep.Regions) {
		t.Fatalf("analysis of %d regions ran %d replicas (%d misses)", len(rep.Regions), rep.Composed.N, rep.CacheMisses)
	}
	j := (&Spec{Bench: "conv1d"}).IncrementalResult("UNSAFE", rep)
	if !j.Incremental || j.Regions != len(rep.Regions) || j.Protection != rep.Protection || j.ProtectionCI != rep.ProtectionCI {
		t.Fatalf("incremental result %+v does not carry the report", j)
	}
}

// The JSON result reports what fault.Result computes, and a result read
// back without its derived keys gets them again from its counts.
func TestResult(t *testing.T) {
	r := fault.Result{N: 40, Requested: 50, EarlyStopped: true, Fired: 38, FalseNeg: 3, Recovered: 2,
		Counts: [fault.NumClasses]int{30, 5, 3, 1, 1, 0},
		Errors: map[fault.Class]map[string]int{fault.Segfault: {"load": 3}},
		Strata: []fault.StratumResult{{Class: machine.ClassALU, Weight: 1, N: 40, Protected: 30}}}
	j := (&Spec{Bench: "conv1d", FaultModel: "seu"}).Result("SWIFT", r)
	if j.Bench != "conv1d" || j.Scheme != "SWIFT" || j.FaultModel != "seu" || !j.EarlyStopped ||
		j.Errors["Segfault"]["load"] != 3 || len(j.Strata) != 1 || j.Strata[0].Class != machine.ClassALU.String() {
		t.Fatalf("result %+v", j)
	}
	if j.Protection != r.ProtectionRate() || j.FalseNegRate != r.FalseNegRate() {
		t.Fatalf("protection %v / false-neg rate %v, want %v / %v", j.Protection, j.FalseNegRate, r.ProtectionRate(), r.FalseNegRate())
	}
	for c := fault.Correct; c < fault.NumClasses; c++ {
		lo, hi := r.CI(c)
		if j.Counts[c.String()] != r.Counts[c] || j.Rates[c.String()] != r.Rate(c) || j.CI95[c.String()] != [2]float64{lo, hi} {
			t.Errorf("%s: count %d rate %v ci %v", c, j.Counts[c.String()], j.Rates[c.String()], j.CI95[c.String()])
		}
	}

	old := *j
	old.Rates, old.CI95, old.FalseNegRate = nil, nil, 0
	data, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.Derive()
	if !reflect.DeepEqual(back.Rates, j.Rates) || !reflect.DeepEqual(back.CI95, j.CI95) || back.FalseNegRate != j.FalseNegRate {
		t.Fatalf("derived %v %v %v, want %v %v %v", back.Rates, back.CI95, back.FalseNegRate, j.Rates, j.CI95, j.FalseNegRate)
	}
}
