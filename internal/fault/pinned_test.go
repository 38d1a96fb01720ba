package fault_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rskip/internal/core"
	"rskip/internal/fault"
	"rskip/internal/obs"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned_* from this tree's campaigns")

// pinnedDone is how many leading records the pinned partial checkpoint
// keeps.
const pinnedDone = 70

var pinnedStrata = []struct {
	name   string
	scheme core.Scheme
	cfg    fault.Config
}{
	{"swiftr-mixed", core.SWIFTR, fault.Config{N: 150, Seed: 20200222, Stratify: true, SkipWidth: 2,
		Mix: fault.Mix{RegFile: 0.4, Result: 0.2, Source: 0.1, Opcode: 0.1, Skip: 0.1, MultiBit: 0.1}}},
	{"unsafe-multibit", core.Unsafe, fault.Config{N: 150, Seed: 7, Stratify: true, BitWidth: 3,
		Mix: fault.Mix{MultiBit: 1}}},
}

func resultJSON(t *testing.T, res fault.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// A stratified campaign's Result and a partial checkpoint of it are
// checked in: a fresh campaign must draw the plans an earlier version
// drew and report its Result byte for byte, and resuming the earlier
// version's checkpoint must run only the missing records and reach the
// same Result. Regenerate with -update-pinned only when a plan or an
// outcome is meant to change, and say why.
func TestStratifiedMatchesPinned(t *testing.T) {
	p, inst := program(t, "conv1d")
	for _, tc := range pinnedStrata {
		t.Run(tc.name, func(t *testing.T) {
			resPath := filepath.Join("testdata", "pinned_"+tc.name+".result.json")
			ckPath := filepath.Join("testdata", "pinned_"+tc.name+".ck.json")
			cfg := tc.cfg
			cfg.Workers = 2
			if *updatePinned {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
				res, err := fault.Campaign(context.Background(), p, tc.scheme, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ck, err := fault.LoadCheckpoint(cfg.CheckpointPath)
				if err != nil || ck == nil {
					t.Fatalf("loading the full checkpoint: %v", err)
				}
				for i := pinnedDone; i < ck.N; i++ {
					ck.Records[i] = fault.RunRecord{}
				}
				ck.Done = pinnedDone
				data, err := json.Marshal(ck)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ckPath, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resPath, resultJSON(t, res), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			want, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := fault.Campaign(context.Background(), p, tc.scheme, inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, fresh); !bytes.Equal(got, want) {
				t.Errorf("fresh stratified campaign diverges from the pinned Result:\n got %s\nwant %s", got, want)
			}

			data, err := os.ReadFile(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			o := &obs.Obs{Metrics: obs.NewMetrics()}
			resumed, err := fault.Campaign(obs.Into(context.Background(), o), p, tc.scheme, inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("campaign resumed from the pinned checkpoint diverges:\n got %s\nwant %s", got, want)
			}
			snap := o.M().Snapshot()
			if snap["fault_injections_skipped_total"] != pinnedDone || snap["fault_injections_total"] != float64(cfg.N-pinnedDone) {
				t.Errorf("resume skipped %v and ran %v runs, want %d and %d",
					snap["fault_injections_skipped_total"], snap["fault_injections_total"], pinnedDone, cfg.N-pinnedDone)
			}
		})
	}
}
