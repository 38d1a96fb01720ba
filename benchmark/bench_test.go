package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test pins.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny size and checks the output
// against BENCHMARK.json: each end-to-end metric is reported with its
// unit, nothing fails, and results.json round-trips. One traced run
// checks the per-layer metrics the same way.
func TestSmoke(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res := results{Host: hostInfo()}
	for _, w := range sp.Workloads {
		o := options{workload: w.Name, seed: defaultSeed, seconds: 0.05, size: "tiny", out: out}
		rep, err := runWorkload(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || rep.FailShare != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Failures)
		}
		for _, m := range sp.EndToEnd {
			st, ok := rep.Metrics[m.Name]
			if !ok || st.Unit != m.Unit || st.Median <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.Name, m.Name, st, m.Unit)
			}
		}
		if _, err := resultLine(rep); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		res.Runs = append(res.Runs, rep)
	}

	o := options{workload: "sweep", seed: defaultSeed, seconds: 0.05, size: "tiny", out: out, trace: true}
	rep, err := runWorkload(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("traced sweep: %d operations failed: %v", rep.Failed, rep.Failures)
	}
	for _, m := range sp.PerLayer {
		if st, ok := rep.Layers[m.Name]; !ok || st.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v, want one in %s", m.Name, st, m.Unit)
		}
	}
	if len(rep.Layers) != len(sp.PerLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json lists %d", len(rep.Layers), len(sp.PerLayer))
	}
	res.Runs = append(res.Runs, rep)

	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, &res); err != nil {
		t.Fatal(err)
	}
	var back results
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(&res)
	got, _ := json.Marshal(&back)
	if string(got) != string(want) {
		t.Errorf("results.json does not round-trip:\n got %s\nwant %s", got, want)
	}
}

// TestRunAllChildFailure makes every workload's child exit non-zero and
// checks that the invocation fails: whether the child leaves no report
// (a report from an earlier invocation must not be read in its place)
// or a clean one.
func TestRunAllChildFailure(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the fake children are shell scripts")
	}
	clean := filepath.Join(t.TempDir(), "clean.json")
	if err := writeJSON(clean, &report{Attempted: 1, Metrics: map[string]stat{}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		script func(out string) string // run as: script -workload <name> ...
		runs   int                     // reports results.json should hold
	}{
		{"no report", func(string) string { return "exit 1" }, 0},
		{"clean report", func(out string) string {
			return fmt.Sprintf("cp %q %q/\"$2\".json\nexit 1", clean, out)
		}, len(workloads)},
	} {
		out := t.TempDir()
		for _, w := range workloads {
			if err := os.WriteFile(filepath.Join(out, w.name+".json"), []byte(`{"workload":"stale","attempted":1}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		exe := filepath.Join(t.TempDir(), "child.sh")
		if err := os.WriteFile(exe, []byte("#!/bin/sh\n"+tc.script(out)+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		o := options{seed: defaultSeed, seconds: 1, size: "tiny", out: out}
		if code := runAll(o, exe, io.Discard, io.Discard); code == 0 {
			t.Errorf("%s: runAll exited 0 although every child exited 1", tc.name)
		}
		var res results
		if err := readJSON(filepath.Join(out, "results.json"), &res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Runs) != tc.runs {
			t.Errorf("%s: results.json holds %d reports, want %d", tc.name, len(res.Runs), tc.runs)
		}
		for _, rep := range res.Runs {
			if rep.Workload == "stale" {
				t.Errorf("%s: results.json holds a report left by an earlier invocation", tc.name)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"leaf", nil, 100},
		{"nested", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"parallel overlap", []span{{Start: 110, End: 150}, {Start: 120, End: 170}}, 40},
		{"contained", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped", []span{{Start: 50, End: 120}, {Start: 180, End: 260}}, 60},
		{"outside", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
		{"touching", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	// The layer table charges each module its spans' self time.
	spans := []span{
		{Name: "fault.Campaign", ID: 1, Start: 0, End: 100},
		{Name: "core.Build", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "core.Train", ID: 3, Parent: 1, Start: 30, End: 60},
	}
	got := map[string]int64{}
	for _, row := range layerTable(spans) {
		got[row.Module] = row.SelfNS
	}
	if want := map[string]int64{"fault": 50, "core": 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("layer table %v, want %v", got, want)
	}
}

// The quartiles must match Python's statistics.quantiles(n=4), which
// the spread check of repeated runs uses.
func TestSummarize(t *testing.T) {
	st := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, "ms")
	if st.Q1 != 2.75 || st.Median != 5.5 || st.Q3 != 8.25 || st.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75, median 5.5, q3 8.25", st)
	}
	// With two values the exclusive method extrapolates.
	st = summarize([]float64{3, 1}, "ms")
	if st.Q1 != 0.5 || st.Median != 2 || st.Q3 != 3.5 {
		t.Errorf("summarize(1, 3) = %+v, want q1 0.5, median 2, q3 3.5", st)
	}
}

func TestVerdict(t *testing.T) {
	base := stat{Median: 100, Q1: 98, Q3: 102}
	for _, tc := range []struct {
		next   stat
		higher bool
		want   string
	}{
		{stat{Median: 101, Q1: 99, Q3: 103}, false, "flat"},
		{stat{Median: 120, Q1: 118, Q3: 122}, false, "worse"},
		{stat{Median: 90, Q1: 88, Q3: 92}, false, "better"},
		{stat{Median: 85, Q1: 83, Q3: 87}, true, "worse"},
		{stat{Median: 100, Q1: 70, Q3: 130}, false, "unresolved"},
	} {
		if _, got := verdict(base, tc.next, tc.higher, 0.1); got != tc.want {
			t.Errorf("verdict(%+v, higher=%v) = %s, want %s", tc.next, tc.higher, got, tc.want)
		}
	}
}

// TestCompareKinds checks that -compare judges every request kind on
// its own, so a regression in one kind shows however little it moves
// the folded latency.
func TestCompareKinds(t *testing.T) {
	dir := t.TempDir()
	ms := func(median float64) stat {
		return stat{Median: median, Q1: 0.99 * median, Q3: 1.01 * median, N: 10, Unit: "ms"}
	}
	write := func(name string, warm float64) string {
		rep := &report{Workload: "incremental",
			Metrics:  map[string]stat{"request_p50_ms": ms(100)},
			Requests: map[string]stat{"cold": ms(1000), "warm": ms(warm), "edit": ms(300)}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &results{Runs: []*report{rep}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	if err := compareFiles(&out, write("base.json", 50), write("new.json", 70)); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			verdicts[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{"request_p50_ms": "flat", "request:cold": "flat", "request:edit": "flat", "request:warm": "worse"}
	for metric, v := range want {
		if verdicts[metric] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, verdicts[metric], v, out.String())
		}
	}
}
