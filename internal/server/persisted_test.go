package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/server"
)

// TestResumesPersistedJobSpecs restarts a daemon over job specs (and
// beside them, the outcomes) that an earlier rskipd wrote to its
// checkpoint dir: a stratified rskip campaign with a build config, a
// distributed skip-model campaign and an incremental multibit one.
// Each spec must resume to a done job whose result — served and
// persisted — keeps every key of the earlier outcome with its value,
// and whose counts equal fault.Campaign's on the same inputs.
func TestResumesPersistedJobSpecs(t *testing.T) {
	skip, err := fault.ModelMix("skip")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id     string
		ar     float64
		scheme core.Scheme
		fcfg   *fault.Config // nil: incremental, compared to the outcome only
	}{
		{"c-c66b51827344", 0.3, core.RSkip, &fault.Config{N: 60, Seed: 7, Workers: 2, Batch: 20, Stratify: true}},
		{"c-93b981a1be93", 0.2, core.SWIFTR, &fault.Config{N: 50, Seed: 11, Mix: skip, SkipWidth: 2}},
		{"c-e8b000506d41", 0.2, core.Unsafe, nil},
	} {
		t.Run(tc.id, func(t *testing.T) {
			dir := t.TempDir()
			spec, err := os.ReadFile(filepath.Join("testdata", tc.id+".job.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.id+".job.json"), spec, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, server.Config{Workers: 1, CheckpointDir: dir, ResultCacheDir: t.TempDir()})
			if st := waitFor(t, ts, tc.id, 120*time.Second, terminal); st.State != "done" {
				t.Fatalf("resumed job ended %q: %s", st.State, st.Error)
			}

			var earlier map[string]any
			readJSON(t, filepath.Join("testdata", tc.id+".result.json"), &earlier)
			var status map[string]any
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+tc.id, nil, &status); code != http.StatusOK {
				t.Fatalf("status endpoint returned %d", code)
			}
			keepsKeys(t, "served result", earlier["result"], status["result"])
			var persisted map[string]any
			path := filepath.Join(dir, tc.id+".result.json")
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				if _, err := os.Stat(path); err == nil || time.Now().After(deadline) {
					break
				}
			}
			readJSON(t, path, &persisted)
			for k := range earlier {
				if _, ok := persisted[k]; !ok {
					t.Errorf("persisted outcome lost key %q", k)
				}
			}
			keepsKeys(t, "persisted result", earlier["result"], persisted["result"])

			if tc.fcfg == nil {
				return
			}
			b, err := bench.ByName("conv1d")
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.AR = tc.ar
			p, err := core.Build(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.scheme == core.RSkip {
				if err := p.Train(bench.TrainSeeds(2), bench.ScaleFI); err != nil {
					t.Fatal(err)
				}
			}
			want, err := fault.Campaign(context.Background(), p, tc.scheme, b.Gen(bench.TestSeed(0), bench.ScaleFI), *tc.fcfg)
			if err != nil {
				t.Fatal(err)
			}
			res := status["result"].(map[string]any)
			counts := res["counts"].(map[string]any)
			for c := fault.Correct; c < fault.NumClasses; c++ {
				if got := int(counts[c.String()].(float64)); got != want.Counts[c] {
					t.Errorf("%s: resumed job counted %d, fault.Campaign %d", c, got, want.Counts[c])
				}
			}
			if int(res["n"].(float64)) != want.N || int(res["fired"].(float64)) != want.Fired ||
				int(res["false_neg"].(float64)) != want.FalseNeg || int(res["recovered"].(float64)) != want.Recovered {
				t.Errorf("resumed job %v != fault.Campaign %+v", res, want)
			}
		})
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// keepsKeys requires every key of the earlier JSON object in got, with
// an equal value; got may hold more keys.
func keepsKeys(t *testing.T, what string, earlier, got any) {
	t.Helper()
	e, ok := earlier.(map[string]any)
	if !ok {
		t.Fatalf("%s: earlier outcome holds no result object", what)
	}
	g, ok := got.(map[string]any)
	if !ok {
		t.Fatalf("%s: no result object", what)
	}
	for k, v := range e {
		if !reflect.DeepEqual(g[k], v) {
			t.Errorf("%s: %q = %v, earlier %v", what, k, g[k], v)
		}
	}
}

// TestRestoresPersistedOutcomes serves a terminal outcome an earlier
// rskipd persisted, before results carried per-class rates: the
// restored result keeps every earlier key and value, and its derived
// rates follow from its counts.
func TestRestoresPersistedOutcomes(t *testing.T) {
	const id = "c-c66b51827344"
	dir := t.TempDir()
	for _, suffix := range []string{".job.json", ".result.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", id+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, server.Config{CheckpointDir: dir})
	var earlier, status map[string]any
	readJSON(t, filepath.Join("testdata", id+".result.json"), &earlier)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+id, nil, &status); code != http.StatusOK {
		t.Fatalf("status endpoint returned %d", code)
	}
	if status["state"] != "done" {
		t.Fatalf("restored job is %v", status["state"])
	}
	keepsKeys(t, "restored result", earlier["result"], status["result"])
	res := status["result"].(map[string]any)
	n, fn := res["n"].(float64), res["false_neg"].(float64)
	if got, want := res["false_neg_rate"], 100*fn/n; got != want {
		t.Errorf("false_neg_rate = %v, want %v", got, want)
	}
	rates := res["rates"].(map[string]any)
	if got, want := rates["Correct"], 100*res["counts"].(map[string]any)["Correct"].(float64)/n; got != want {
		t.Errorf("Correct rate = %v, want %v", got, want)
	}
}
