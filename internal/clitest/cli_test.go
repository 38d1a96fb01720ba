package clitest

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	Cleanup()
	os.Exit(code)
}

// TestRskipcCandidates pins the candidate-loop report of the
// prediction analysis on a built-in benchmark.
func TestRskipcCandidates(t *testing.T) {
	bin := Binary(t, "rskipc")
	res := Run(t, bin, "-bench", "conv1d", "-candidates")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipc_conv1d_candidates", res.Stdout, *update)
}

// TestRskipcSchemeSummaries pins the static summary line of every
// scheme pipeline — the instruction-count deltas between UNSAFE,
// SWIFT, SWIFT-R and RSkip are the compile-side paper story.
func TestRskipcSchemeSummaries(t *testing.T) {
	bin := Binary(t, "rskipc")
	var sb strings.Builder
	for _, scheme := range []string{"unsafe", "swift", "swiftr", "rskip"} {
		res := Run(t, bin, "-bench", "conv1d", "-scheme", scheme)
		if res.Code != 0 {
			t.Fatalf("scheme %s: exit %d\n%s", scheme, res.Code, res.Stderr)
		}
		sb.WriteString(res.Stdout)
	}
	Golden(t, "rskipc_conv1d_schemes", sb.String(), *update)
}

// TestRskipcFormat pins the MiniC pretty-printer round trip.
func TestRskipcFormat(t *testing.T) {
	bin := Binary(t, "rskipc")
	src := filepath.Join(t.TempDir(), "fmt.mc")
	err := os.WriteFile(src, []byte(
		"void kernel(int a[],int out[],int n){for(int i=0;i<n;i=i+1){out[i]=a[i]*2+1;}}\n"), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(t, bin, "-fmt", src)
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipc_fmt", res.Stdout, *update)
}

// TestRskipcBadSource checks the compiler front door fails loudly and
// with a diagnostic, not a zero exit.
func TestRskipcBadSource(t *testing.T) {
	bin := Binary(t, "rskipc")
	src := filepath.Join(t.TempDir(), "bad.mc")
	if err := os.WriteFile(src, []byte("void kernel( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := Run(t, bin, src)
	if res.Code == 0 {
		t.Fatalf("malformed source exited 0\nstdout: %s", res.Stdout)
	}
	if !strings.Contains(res.Stderr, "rskipc:") {
		t.Errorf("stderr lacks the rskipc: prefix: %q", res.Stderr)
	}
}

// TestRskiprunGolden pins the full execution report — instruction
// counts, mix table, skip rates and per-loop management stats — and
// checks it is reproducible run over run (the mix and per-loop
// sections are sorted with full tie-breaks, so two invocations must
// be byte-identical).
func TestRskiprunGolden(t *testing.T) {
	bin := Binary(t, "rskiprun")
	args := []string{"-bench", "conv1d", "-scale", "tiny", "-scheme", "rskip", "-train", "2"}
	first := Run(t, bin, args...)
	if first.Code != 0 {
		t.Fatalf("exit %d\n%s", first.Code, first.Stderr)
	}
	second := Run(t, bin, args...)
	if second.Code != 0 {
		t.Fatalf("second run: exit %d\n%s", second.Code, second.Stderr)
	}
	if first.Stdout != second.Stdout {
		t.Errorf("two identical invocations differ:\n%s", diffLines(first.Stdout, second.Stdout))
	}
	Golden(t, "rskiprun_conv1d_tiny_rskip", first.Stdout, *update)
}

// TestRskiprunUnsafe pins the baseline (no protection) report shape.
func TestRskiprunUnsafe(t *testing.T) {
	bin := Binary(t, "rskiprun")
	res := Run(t, bin, "-bench", "conv1d", "-scale", "tiny", "-scheme", "unsafe")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskiprun_conv1d_tiny_unsafe", res.Stdout, *update)
}

// TestRskipfiTable pins a small deterministic fault-injection sweep:
// the outcome table plus the per-campaign metrics summary. The
// campaign draws its fault plans from -seed, the simulator is
// instruction-counted, and no wall-clock timeout is set, so the whole
// report is a pure function of the flags.
func TestRskipfiTable(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "conv1d", "-n", "40", "-seed", "123",
		"-schemes", "unsafe,rskip", "-train", "2", "-workers", "2")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipfi_conv1d_table", res.Stdout, *update)
}

// TestRskipfiSkipTable pins a sampled instruction-skip campaign — the
// -fault-kind knob end to end, including the per-kind metrics counters
// in the summary lines.
func TestRskipfiSkipTable(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "conv1d", "-n", "30", "-seed", "123",
		"-fault-kind", "skip", "-schemes", "unsafe,swiftr,swiftrhard",
		"-train", "2", "-workers", "2")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipfi_conv1d_skip_table", res.Stdout, *update)
}

// TestRskipfiExhaustiveMicro pins the exhaustive skip-verification
// story on a micro-kernel: every single-skip site enumerated, the
// hardened scheme at 100% protection, plain SWIFT below it.
func TestRskipfiExhaustiveMicro(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "musum", "-fault-kind", "skip", "-exhaustive",
		"-schemes", "swift,swiftrhard", "-train", "2", "-workers", "2")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipfi_musum_skip_exhaustive", res.Stdout, *update)
}

// TestRskipfiUnknownFaultKind checks the threat-model front door fails
// loudly with the model vocabulary in the diagnostic.
func TestRskipfiUnknownFaultKind(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "conv1d", "-fault-kind", "cosmic-ray")
	if res.Code == 0 {
		t.Fatal("unknown fault model exited 0")
	}
	if !strings.Contains(res.Stderr, "unknown fault model") || !strings.Contains(res.Stderr, "multibit") {
		t.Errorf("stderr %q does not explain the fault-model vocabulary", res.Stderr)
	}
}

// TestRskipfiJSON checks the machine-readable form agrees with the
// table on the headline numbers without pinning the whole document
// (the metrics block is environment-stable but verbose).
func TestRskipfiJSON(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "conv1d", "-n", "40", "-seed", "123",
		"-schemes", "rskip", "-train", "2", "-workers", "2", "-json")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	out := res.Stdout
	for _, want := range []string{`"bench": "conv1d"`, `"scheme": "RSkip AR20"`, `"n": 40`, `"protection_rate"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output lacks %s\n%s", want, out)
		}
	}
}

// TestRskipfiIncrementalColdWarm pins the incremental analysis report
// across a cold and a warm run against the same result cache. The two
// tables must carry identical figures — the warm run differs only in
// its cached column and in the metrics block, which shrinks to the
// single profile run that fingerprints the regions.
func TestRskipfiIncrementalColdWarm(t *testing.T) {
	bin := Binary(t, "rskipfi")
	cache := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "conv1d", "-n", "40", "-seed", "123",
		"-schemes", "unsafe,rskip", "-train", "2", "-workers", "2",
		"-incremental", "-result-cache-dir", cache}
	cold := Run(t, bin, args...)
	if cold.Code != 0 {
		t.Fatalf("cold run: exit %d\n%s", cold.Code, cold.Stderr)
	}
	warm := Run(t, bin, args...)
	if warm.Code != 0 {
		t.Fatalf("warm run: exit %d\n%s", warm.Code, warm.Stderr)
	}
	Golden(t, "rskipfi_conv1d_incremental",
		cold.Stdout+"=== warm re-run against the same cache ===\n"+warm.Stdout, *update)
}

// TestRskipfiIncrementalJSON checks the machine-readable incremental
// report exposes the cache traffic that proves incrementality.
func TestRskipfiIncrementalJSON(t *testing.T) {
	bin := Binary(t, "rskipfi")
	cache := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "conv1d", "-n", "40", "-seed", "123",
		"-schemes", "rskip", "-train", "2", "-workers", "2", "-json",
		"-incremental", "-result-cache-dir", cache}
	cold := Run(t, bin, args...)
	if cold.Code != 0 {
		t.Fatalf("cold run: exit %d\n%s", cold.Code, cold.Stderr)
	}
	for _, want := range []string{`"incremental": true`, `"regions": 1`, `"cache_misses": 1`} {
		if !strings.Contains(cold.Stdout, want) {
			t.Errorf("cold JSON lacks %s\n%s", want, cold.Stdout)
		}
	}
	warm := Run(t, bin, args...)
	if warm.Code != 0 {
		t.Fatalf("warm run: exit %d\n%s", warm.Code, warm.Stderr)
	}
	if !strings.Contains(warm.Stdout, `"cache_hits": 1`) {
		t.Errorf("warm JSON lacks \"cache_hits\": 1\n%s", warm.Stdout)
	}
	if strings.Contains(warm.Stdout, `"cache_misses"`) {
		t.Errorf("warm JSON still reports cache misses\n%s", warm.Stdout)
	}
}

// TestRskipfiStratifyTable pins a stratified sweep: allocation by
// instruction class changes which replicas run, so the table differs
// from the plain sampled golden under the same seed.
func TestRskipfiStratifyTable(t *testing.T) {
	bin := Binary(t, "rskipfi")
	res := Run(t, bin, "-bench", "conv1d", "-n", "60", "-seed", "123",
		"-schemes", "unsafe,swift", "-train", "2", "-workers", "2", "-stratify")
	if res.Code != 0 {
		t.Fatalf("exit %d\n%s", res.Code, res.Stderr)
	}
	Golden(t, "rskipfi_conv1d_stratify_table", res.Stdout, *update)
}

// TestRskipfiIncrementalFlagConflicts checks the option-conflict front
// door: each rejected combination exits nonzero with a diagnostic that
// names both options, in the wording rskipd's config_conflict uses.
func TestRskipfiIncrementalFlagConflicts(t *testing.T) {
	bin := Binary(t, "rskipfi")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"incremental+exhaustive",
			[]string{"-bench", "musum", "-fault-kind", "skip", "-incremental", "-exhaustive"},
			"incremental and exhaustive"},
		{"incremental+target-ci",
			[]string{"-bench", "conv1d", "-incremental", "-target-ci", "0.05"},
			"incremental and target_ci"},
		{"incremental+stratify",
			[]string{"-bench", "conv1d", "-incremental", "-stratify"},
			"incremental and stratify"},
		{"incremental+checkpoint",
			[]string{"-bench", "conv1d", "-incremental", "-checkpoint", "ck.json"},
			"incremental and checkpoint"},
		{"incremental+fabric",
			[]string{"-bench", "conv1d", "-incremental", "-fabric", "2"},
			"incremental and fabric"},
		{"cache dir without incremental",
			[]string{"-bench", "conv1d", "-result-cache-dir", "results"},
			"-result-cache-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(t, bin, tc.args...)
			if res.Code == 0 {
				t.Fatalf("conflicting flags exited 0\nstdout: %s", res.Stdout)
			}
			if !strings.Contains(res.Stderr, tc.want) {
				t.Errorf("stderr %q does not name the conflict %q", res.Stderr, tc.want)
			}
		})
	}
}
