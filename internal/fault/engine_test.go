package fault

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
)

// sharedProgram caches one trained conv1d build for the engine tests,
// which only exercise campaign mechanics and don't need per-test
// configurations.
var (
	sharedOnce sync.Once
	sharedP    *core.Program
	sharedInst bench.Instance
)

func sharedConv1d(t *testing.T) (*core.Program, bench.Instance) {
	t.Helper()
	sharedOnce.Do(func() {
		b, err := bench.ByName("conv1d")
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(b, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
			t.Fatal(err)
		}
		sharedP, sharedInst = p, b.Gen(bench.TestSeed(0), bench.ScaleTiny)
	})
	if sharedP == nil {
		t.Fatal("shared program failed to build")
	}
	return sharedP, sharedInst
}

// Regression: a fault that truncates or lengthens the output must
// classify as SDC, not crash the classifier with an index panic.
func TestClassifyLengthMismatch(t *testing.T) {
	golden := []uint64{1, 2, 3, 4}
	short := &core.Outcome{Output: []uint64{1, 2}}
	if cls, _, _ := classify(short, golden); cls != SDC {
		t.Errorf("truncated output classified %v, want SDC", cls)
	}
	long := &core.Outcome{Output: []uint64{1, 2, 3, 4, 5}}
	if cls, _, _ := classify(long, golden); cls != SDC {
		t.Errorf("lengthened output classified %v, want SDC", cls)
	}
	// Matching prefix must not mask the mismatch, and an equal slice
	// still classifies Correct.
	equal := &core.Outcome{Output: []uint64{1, 2, 3, 4}}
	if cls, _, _ := classify(equal, golden); cls != Correct {
		t.Errorf("equal output classified %v, want Correct", cls)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative N", Config{N: -5}, "N = -5"},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative batch", Config{Batch: -2}, "Batch"},
		{"negative target CI", Config{TargetCI: -1}, "TargetCI"},
		{"negative mix weight", Config{Mix: Mix{RegFile: 0.5, Result: -0.1}}, "Mix.Result"},
		{"cancelling mix weights", Config{Mix: Mix{RegFile: 1, Result: -1}}, "Mix.Result"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if err == nil {
				t.Fatalf("config %+v validated", tt.cfg)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	good := Config{N: 10, Mix: Mix{Opcode: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCampaignRejectsInvalidConfig(t *testing.T) {
	p, inst := sharedConv1d(t)
	_, err := Campaign(context.Background(), p, core.Unsafe, inst, Config{N: -1})
	if err == nil {
		t.Fatal("campaign accepted N = -1")
	}
}

// A panic inside a worker run must be contained and classified
// CoreDump with the panic value in the taxonomy; the campaign reports
// all N runs.
func TestPanicIsolation(t *testing.T) {
	p, inst := sharedConv1d(t)
	cfg := Config{N: 60, Seed: 11, runHook: func(i int) {
		if i%10 == 3 {
			panic("synthetic interpreter fault")
		}
	}}
	r, err := Campaign(context.Background(), p, core.Unsafe, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 60 {
		t.Errorf("campaign completed %d/60 runs", r.N)
	}
	if r.Counts[CoreDump] < 6 {
		t.Errorf("CoreDump = %d, want >= 6 contained panics", r.Counts[CoreDump])
	}
	msgs := r.Errors[CoreDump]
	found := false
	for msg, n := range msgs {
		if strings.Contains(msg, "panic: synthetic interpreter fault") && n == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("panic value not recorded in taxonomy: %v", msgs)
	}
	total := 0
	for c := Correct; c < NumClasses; c++ {
		total += r.Counts[c]
	}
	if total != r.N {
		t.Errorf("classes sum to %d, want %d", total, r.N)
	}
}

// Same seed, different worker counts — identical results (and the
// taxonomy, which is aggregated from per-index records, matches too).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	p, inst := sharedConv1d(t)
	run := func(workers int) Result {
		r, err := Campaign(context.Background(), p, core.SWIFTR, inst,
			Config{N: 90, Seed: 77, Workers: workers, Batch: 32})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged:\n%+v\n%+v", w, got, ref)
		}
	}
}

// Kill a campaign mid-flight, resume it from the checkpoint, and
// require bit-identical final counts versus an uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	p, inst := sharedConv1d(t)
	ckPath := filepath.Join(t.TempDir(), "campaign.ck.json")
	base := Config{N: 120, Seed: 5, Batch: 25, CheckpointPath: ckPath}

	// Uninterrupted reference (no checkpoint involved).
	want, err := Campaign(context.Background(), p, core.SWIFTR, inst,
		Config{N: base.N, Seed: base.Seed, Batch: base.Batch})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: cancel once run 60 starts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.runHook = func(i int) {
		if i == 60 {
			cancel()
		}
	}
	partial, err := Campaign(ctx, p, core.SWIFTR, inst, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if partial.N == 0 || partial.N >= base.N {
		t.Fatalf("partial campaign completed %d runs, want a strict subset", partial.N)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if ck.Done != partial.N {
		t.Errorf("checkpoint records %d done, partial result says %d", ck.Done, partial.N)
	}

	// Resume with a fresh context.
	got, err := Campaign(context.Background(), p, core.SWIFTR, inst, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed campaign diverged from uninterrupted run:\n%+v\n%+v", got, want)
	}

	// Resuming a complete checkpoint re-executes nothing and still
	// reproduces the result.
	again, err := Campaign(context.Background(), p, core.SWIFTR, inst, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("re-resumed campaign diverged:\n%+v\n%+v", again, want)
	}
}

func TestCheckpointRejectsForeignCampaign(t *testing.T) {
	p, inst := sharedConv1d(t)
	ckPath := filepath.Join(t.TempDir(), "campaign.ck.json")
	cfg := Config{N: 30, Seed: 1, CheckpointPath: ckPath}
	if _, err := Campaign(context.Background(), p, core.Unsafe, inst, cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 2
	_, err := Campaign(context.Background(), p, core.Unsafe, inst, other)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("checkpoint from another seed accepted: %v", err)
	}
}

// TargetCI stops the campaign at a batch boundary once the
// protection-rate interval is tight enough.
func TestAdaptiveSamplingEarlyStop(t *testing.T) {
	p, inst := sharedConv1d(t)
	r, err := Campaign(context.Background(), p, core.Unsafe, inst,
		Config{N: 400, Seed: 21, Batch: 50, TargetCI: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !r.EarlyStopped {
		t.Fatalf("campaign ran all %d runs despite a 30-point target: %+v", r.N, r)
	}
	if r.N >= 400 || r.N%50 != 0 {
		t.Errorf("early stop at %d runs, want a batch multiple < 400", r.N)
	}
	if r.Requested != 400 {
		t.Errorf("Requested = %d, want 400", r.Requested)
	}
	lo, hi := r.ProtectionCI()
	if hi-lo > 30 {
		t.Errorf("stopped with CI width %.1f > target 30", hi-lo)
	}
	// Oracle: plans are drawn in index order, so a campaign of b runs
	// aggregates the first b runs of the capped one. The stop is the
	// first batch boundary whose prefix meets the target.
	for b := 50; b <= 400; b += 50 {
		prefix, err := Campaign(context.Background(), p, core.Unsafe, inst, Config{N: b, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := prefix.ProtectionCI(); hi-lo <= 30 {
			if r.N != b || r.Counts != prefix.Counts {
				t.Errorf("stopped at %d runs %v, want the first qualifying prefix: %d runs %v", r.N, r.Counts, b, prefix.Counts)
			}
			break
		}
	}
	// A tight target the cap cannot reach runs to completion.
	full, err := Campaign(context.Background(), p, core.Unsafe, inst,
		Config{N: 100, Seed: 21, Batch: 50, TargetCI: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if full.EarlyStopped || full.N != 100 {
		t.Errorf("unreachable target should cap at N: %+v", full)
	}
}

// Cancelling before any work yields an empty partial result, not a
// crash or a hang.
func TestCancelledBeforeStart(t *testing.T) {
	p, inst := sharedConv1d(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Campaign(ctx, p, core.Unsafe, inst, Config{N: 40, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r.N != 0 {
		t.Errorf("cancelled-at-start campaign completed %d runs", r.N)
	}
	if r.Requested != 40 {
		t.Errorf("Requested = %d, want 40", r.Requested)
	}
}
