package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// The skip-verification harness: exhaustive enumeration over the
// micro-kernels, proving the hardened scheme's single-skip claim and
// the enumerator's own correctness against a brute-force oracle.

var (
	microMu    sync.Mutex
	microProgs = map[string]*core.Program{}
	microInsts = map[string]bench.Instance{}
)

func microProgram(t *testing.T, name string) (*core.Program, bench.Instance) {
	t.Helper()
	microMu.Lock()
	defer microMu.Unlock()
	if p, ok := microProgs[name]; ok {
		return p, microInsts[name]
	}
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	microProgs[name] = p
	microInsts[name] = b.Gen(bench.TestSeed(0), bench.ScaleTiny)
	return p, microInsts[name]
}

func microNames() []string {
	var names []string
	for _, b := range bench.Micros() {
		names = append(names, b.Name)
	}
	return names
}

// The tentpole acceptance check: over every micro-kernel, exhaustive
// single-skip enumeration shows the hardened scheme detecting or
// masking 100% of skips while plain SWIFT demonstrably misses some.
func TestExhaustiveSingleSkipHardening(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is not short")
	}
	swiftMisses := 0
	for _, name := range microNames() {
		p, inst := microProgram(t, name)
		cfg := Config{Mix: Mix{Skip: 1}, Exhaustive: true}

		hard, err := Campaign(context.Background(), p, core.SWIFTRHard, inst, cfg)
		if err != nil {
			t.Fatalf("%s/SWIFT-R-HARD: %v", name, err)
		}
		if hard.N == 0 || !hard.Exhaustive {
			t.Fatalf("%s/SWIFT-R-HARD: degenerate exhaustive result %+v", name, hard)
		}
		if got := hard.Counts[Correct] + hard.Counts[Detected]; got != hard.N {
			t.Errorf("%s/SWIFT-R-HARD: %d/%d skips masked or detected; counts %v errors %v",
				name, got, hard.N, hard.Counts, hard.Errors)
		}
		if hard.Fired != hard.N {
			t.Errorf("%s/SWIFT-R-HARD: only %d/%d enumerated skips fired", name, hard.Fired, hard.N)
		}

		plain, err := Campaign(context.Background(), p, core.SWIFT, inst, cfg)
		if err != nil {
			t.Fatalf("%s/SWIFT: %v", name, err)
		}
		swiftMisses += plain.N - plain.Counts[Correct] - plain.Counts[Detected]
	}
	if swiftMisses == 0 {
		t.Error("plain SWIFT survived every enumerated skip; the hardened variant is not being tested against anything")
	}
}

// The enumerator against a brute-force oracle: running every
// single-skip plan by hand, one at a time, must classify identically
// to the parallel exhaustive campaign.
func TestExhaustiveSkipMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force oracle is not short")
	}
	name := microNames()[0]
	p, inst := microProgram(t, name)
	scheme := core.SWIFT

	res, err := Campaign(context.Background(), p, scheme, inst, Config{
		Mix: Mix{Skip: 1}, Exhaustive: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	profile, err := NewProfile(context.Background(), p, scheme, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	region := profile.Result.Region
	if res.N != int(region) {
		t.Fatalf("exhaustive campaign ran %d injections for a region of %d", res.N, region)
	}
	budget := profile.Result.Instrs * 50
	var counts [NumClasses]int
	for target := uint64(0); target < region; target++ {
		plan := machine.FaultPlan{Kind: machine.FaultSkip, Target: target, Width: 1}
		o := p.Run(scheme, inst, core.RunOpts{Fault: &plan, MaxInstrs: budget})
		if !o.FaultFired {
			t.Fatalf("oracle plan at target %d did not fire", target)
		}
		cls, _, _ := classify(&o, profile.Output)
		counts[cls]++
	}
	if counts != res.Counts {
		t.Errorf("oracle classified %v, exhaustive campaign %v", counts, res.Counts)
	}
}

// An exhaustive campaign interrupted mid-enumeration and resumed from
// its checkpoint must aggregate bit-identically to an uninterrupted
// one.
func TestExhaustiveResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is not short")
	}
	name := microNames()[0]
	p, inst := microProgram(t, name)
	ckPath := filepath.Join(t.TempDir(), "micro.ck.json")
	cfg := Config{Mix: Mix{Skip: 1}, Exhaustive: true, Batch: 50, Workers: 2}

	uncut, err := Campaign(context.Background(), p, core.SWIFTRHard, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cut := cfg
	cut.CheckpointPath = ckPath
	cut.runHook = func(i int) {
		if i == 120 {
			cancel()
		}
	}
	partial, err := Campaign(ctx, p, core.SWIFTRHard, inst, cut)
	if err == nil {
		t.Fatal("interrupted campaign reported no error")
	}
	if partial.N >= uncut.N {
		t.Fatalf("interruption did not interrupt: %d of %d runs completed", partial.N, uncut.N)
	}

	cut.runHook = nil
	resumed, err := Campaign(context.Background(), p, core.SWIFTRHard, inst, cut)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(resumed, uncut) {
		t.Errorf("resumed result diverged from uninterrupted run:\nresumed  %+v\nuncut    %+v", resumed, uncut)
	}
}

// A corrupt or truncated checkpoint file must surface as a typed error
// naming the offending path — both from LoadCheckpoint directly and
// through Campaign.
func TestCorruptCheckpointTypedError(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data string
	}{
		{"truncated json", `{"version":1,"key":"k","n":100,"done":40,"records":[{"done":tru`},
		{"record count mismatch", `{"version":1,"key":"k","n":100,"done":2,"records":[{"done":true},{"done":true}]}`},
		{"binary garbage", "\x00\x01\x02\xff not json"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tt.name, " ", "_")+".ck.json")
			if err := os.WriteFile(path, []byte(tt.data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadCheckpoint(path)
			var ce *CorruptCheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("LoadCheckpoint returned %v (%T), want CorruptCheckpointError", err, err)
			}
			if ce.Path != path {
				t.Errorf("error names path %q, want %q", ce.Path, path)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error text %q omits the offending path", err)
			}
		})
	}

	// End to end: a campaign pointed at the corrupt file refuses to
	// run rather than silently restarting over it.
	p, inst := sharedConv1d(t)
	path := filepath.Join(dir, "campaign.ck.json")
	if err := os.WriteFile(path, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Campaign(context.Background(), p, core.Unsafe, inst, Config{N: 10, CheckpointPath: path})
	var ce *CorruptCheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("Campaign returned %v (%T), want CorruptCheckpointError", err, err)
	}
	// A missing file stays a clean fresh start, not an error.
	if ck, err := LoadCheckpoint(filepath.Join(dir, "nope.ck.json")); ck != nil || err != nil {
		t.Errorf("missing checkpoint returned (%v, %v), want (nil, nil)", ck, err)
	}
}

// A checkpoint record with an outcome class outside the table is
// corruption: LoadCheckpoint must refuse it with the typed error
// instead of letting aggregation index past the per-class counts.
func TestCheckpointRejectsOutOfRangeClass(t *testing.T) {
	dir := t.TempDir()
	for _, class := range []int{99, int(NumClasses), -1} {
		t.Run(fmt.Sprint(class), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("class%d.ck.json", class))
			data := fmt.Sprintf(`{"version":1,"key":"k","n":2,"done":2,"records":[{"done":true},{"done":true,"class":%d}]}`, class)
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadCheckpoint(path)
			var ce *CorruptCheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("LoadCheckpoint returned %v (%T), want CorruptCheckpointError", err, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("class %d", class)) {
				t.Errorf("error %q does not name class %d", err, class)
			}
		})
	}
}

// Validation of the extended mix and the exhaustive-mode constraints.
func TestConfigValidationExtensions(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"NaN mix weight", Config{Mix: Mix{Skip: math.NaN()}}, "Mix.Skip"},
		{"infinite mix weight", Config{Mix: Mix{MultiBit: math.Inf(1)}}, "Mix.MultiBit"},
		{"negative skip weight", Config{Mix: Mix{Skip: -1, RegFile: 2}}, "Mix.Skip"},
		{"zero-sum mix", Config{Mix: Mix{Skip: 0, MultiBit: 0, RegFile: 0}, N: 1, SkipWidth: 1}, ""},
		{"negative skip width", Config{SkipWidth: -1}, "SkipWidth"},
		{"negative bit width", Config{BitWidth: -3}, "BitWidth"},
		{"negative budget", Config{ExhaustiveBudget: -1}, "ExhaustiveBudget"},
		{"exhaustive mixed kinds", Config{Exhaustive: true, Mix: Mix{Skip: 1, RegFile: 1}}, "pure single-kind"},
		{"exhaustive default mix", Config{Exhaustive: true}, "pure single-kind"},
		{"exhaustive with N", Config{Exhaustive: true, Mix: Mix{Skip: 1}, N: 50}, "leave N = 0"},
		{"exhaustive with CI", Config{Exhaustive: true, Mix: Mix{MultiBit: 1}, TargetCI: 2}, "TargetCI"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.want == "" {
				return // reserved row: all-zero Mix means DefaultMix, checked below
			}
			if err == nil {
				t.Fatalf("config %+v validated", tt.cfg)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	good := Config{Mix: Mix{Skip: 1}, Exhaustive: true}
	if err := good.Validate(); err != nil {
		t.Errorf("valid exhaustive config rejected: %v", err)
	}
	explicit := Config{Mix: Mix{RegFile: 0, Skip: 0}}
	if err := explicit.Validate(); err != nil {
		t.Errorf("zero Mix (= DefaultMix) rejected: %v", err)
	}
}

func TestModelMix(t *testing.T) {
	for _, tt := range []struct {
		model string
		want  Mix
	}{
		{"", DefaultMix},
		{"seu", DefaultMix},
		{"skip", Mix{Skip: 1}},
		{"multibit", Mix{MultiBit: 1}},
	} {
		got, err := ModelMix(tt.model)
		if err != nil || got != tt.want {
			t.Errorf("ModelMix(%q) = (%v, %v), want (%v, nil)", tt.model, got, err, tt.want)
		}
	}
	_, err := ModelMix("cosmic-ray")
	var ue *UnknownModelError
	if !errors.As(err, &ue) || ue.Model != "cosmic-ray" {
		t.Errorf("ModelMix(cosmic-ray) = %v (%T), want UnknownModelError", err, err)
	}
}

// Enumeration shape and budget enforcement, without running anything.
func TestEnumeratePlans(t *testing.T) {
	skips, err := enumeratePlans(Config{Mix: Mix{Skip: 1}, Exhaustive: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 7 {
		t.Fatalf("skip enumeration of region 7 produced %d plans", len(skips))
	}
	for i, pl := range skips {
		if pl.Kind != machine.FaultSkip || pl.Target != uint64(i) || pl.Width != 1 {
			t.Errorf("plan %d = %+v, want single-width skip at target %d", i, pl, i)
		}
	}

	mb, err := enumeratePlans(Config{Mix: Mix{MultiBit: 1}, Exhaustive: true, BitWidth: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != 4*32 {
		t.Fatalf("multibit enumeration of region 4 produced %d plans, want %d", len(mb), 4*32)
	}
	for i, pl := range mb {
		wantTarget, wantBit := uint64(i/32), uint(i%32)
		if pl.Kind != machine.FaultMultiBit || pl.Target != wantTarget || pl.Bit != wantBit || pl.Width != 3 {
			t.Errorf("plan %d = %+v, want width-3 multibit at (%d, %d)", i, pl, wantTarget, wantBit)
		}
	}

	if _, err := enumeratePlans(Config{Mix: Mix{Skip: 1}, Exhaustive: true, ExhaustiveBudget: 5}, 6); err == nil {
		t.Error("over-budget enumeration was not rejected")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget error %q does not mention the budget", err)
	}
}
