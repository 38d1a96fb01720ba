package result

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rskip/internal/core"
	"rskip/internal/fault"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned from this tree's analyses")

// pinnedCases are the analyses whose cache and reports are checked in
// under testdata/pinned: the shared multi-region substrate kernel
// under two schemes and two fault models.
var pinnedCases = []struct {
	name   string
	scheme core.Scheme
	model  string
}{
	{"swiftr-seu", core.SWIFTR, "seu"},
	{"swiftr-skip", core.SWIFTR, "skip"},
	{"rskip-seu", core.RSkip, "seu"},
	{"rskip-skip", core.RSkip, "skip"},
}

func pinnedOpts(t *testing.T, model string, cache *Cache) Options {
	t.Helper()
	mix, err := fault.ModelMix(model)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Cache: cache, PerRegionN: 40, Seed: 20200222, InstKey: "test0/tiny", Mix: mix, Workers: 2}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// A result cache and the cold reports of the analyses that filled it
// are checked in: an analysis must read the entries an earlier version
// wrote, hit every region, and report the figures that version
// reported; a cold analysis must reproduce its report byte for byte.
// The pinned files change only when a figure is meant to change; then
// regenerate them with -update-pinned and say why.
func TestAnalyzeMatchesPinnedCache(t *testing.T) {
	_, p, inst := sharedSub(t)
	pinned := filepath.Join("testdata", "pinned")
	if *updatePinned {
		if err := os.RemoveAll(pinned); err != nil {
			t.Fatal(err)
		}
		cache, err := Open(filepath.Join(pinned, "cache"))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range pinnedCases {
			rep, err := Analyze(context.Background(), p, tc.scheme, inst, pinnedOpts(t, tc.model, cache))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pinned, tc.name+".report.json"), reportJSON(t, rep), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(pinned, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(pinned, "cache", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pinnedCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(pinned, tc.name+".report.json"))
			if err != nil {
				t.Fatal(err)
			}
			var pin Report
			if err := json.Unmarshal(want, &pin); err != nil {
				t.Fatal(err)
			}
			if len(pin.Regions) < 2 {
				t.Fatalf("pinned report has %d regions, want a multi-region kernel", len(pin.Regions))
			}

			warm, err := Analyze(context.Background(), p, tc.scheme, inst, pinnedOpts(t, tc.model, cache))
			if err != nil {
				t.Fatal(err)
			}
			if warm.CacheHits != len(pin.Regions) || warm.CacheMisses != 0 {
				t.Errorf("warm analysis: %d hits / %d misses, want %d / 0",
					warm.CacheHits, warm.CacheMisses, len(pin.Regions))
			}
			if !reflect.DeepEqual(figures(warm), figures(&pin)) {
				t.Errorf("warm figures diverge from the pinned report:\n  warm   %+v\n  pinned %+v", figures(warm), figures(&pin))
			}

			cold, err := Analyze(context.Background(), p, tc.scheme, inst, pinnedOpts(t, tc.model, nil))
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, cold); !bytes.Equal(got, want) {
				t.Errorf("cold report diverges from the pinned one:\n got %s\nwant %s", got, want)
			}
		})
	}
}
