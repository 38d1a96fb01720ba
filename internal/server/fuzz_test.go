package server

import (
	"encoding/json"
	"testing"
)

// FuzzCampaignRequest feeds arbitrary bytes to the campaign-request
// decoder and validator. Neither may panic, and every request they
// accept must map to a fault.Config that passes Validate and stays
// within the size limits the daemon allocates by.
func FuzzCampaignRequest(f *testing.F) {
	for _, body := range []string{
		`{"bench":"conv1d","scheme":"unsafe","n":120,"seed":7,"batch":30,"workers":2}`,
		`{"bench":"conv1d","scheme":"unsafe","n":500000,"batch":25,"workers":1}`,
		`{"bench":"conv1d","scheme":"unsafe","n":4000000000}`,
		`{"bench":"conv1d","scheme":"rskip","train":65}`,
		`{"bench":"conv1d","scheme":"unsafe","fault_model":"cosmic-ray"}`,
		`{"bench":"musum","scheme":"swiftrhard","fault_model":"skip","exhaustive":true,"n":50}`,
		`{"bench":"musum","scheme":"swiftrhard","fault_model":"skip","exhaustive":true}`,
		`{"bench":"conv1d","scheme":"swiftr","fault_model":"skip","n":80,"seed":4242}`,
		`{"bench":"conv1d","scheme":"unsafe","n":1,"config":{"backend":"fast"}}`,
		`{"bench":"conv1d","scheme":"swift","incremental":true,"target_ci":0.05}`,
		`{"bench":"conv1d","scheme":"swift","stratify":true,"target_ci":0.05}`,
		`{"bench":"conv1d","scheme":"unsafe","n":80,"seed":7,"stratify":true}`,
		`{"bench":"conv1d","scheme":"unsafe","n":50,"distributed":true,"incremental":true}`,
		`{"bench":"conv1d","scheme":"unsafe","n":20,"run_timeout_ms":5}`,
		`{"bench":"conv1d","scheme":"swiftr","n":-3,"skip_width":-1,"target_ci":-2}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req campaignRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		if err := validateCampaignRequest(&req, true); err != nil {
			return
		}
		cfg, err := req.faultConfig()
		if err != nil {
			t.Fatalf("accepted request %s does not map to a config: %v", data, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted request %s maps to an invalid config: %v", data, err)
		}
		if cfg.N > maxCampaignN || req.Train > maxTrainInputs {
			t.Fatalf("accepted request %s exceeds the limits: n=%d train=%d", data, cfg.N, req.Train)
		}
	})
}
