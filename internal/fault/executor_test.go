package fault

import (
	"context"
	"reflect"
	"testing"

	"rskip/internal/core"
	"rskip/internal/fabric"
)

// The executor exactness contract: executing a campaign's shards out
// of order (and redundantly) through an Executor, then merging their
// payloads in yet another order, must equal fault.Campaign over the
// same config bit-for-bit.
func TestExecutorMatchesCampaign(t *testing.T) {
	p, inst := sharedConv1d(t)
	cfg := Config{N: 60, Seed: 7, Workers: 2, Batch: 16}

	want, err := Campaign(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}

	x, err := NewExecutor(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if x.N() != cfg.N {
		t.Fatalf("N = %d, want %d", x.N(), cfg.N)
	}
	l, err := NewLedger(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	shards := l.Plan().Shards()
	// Out-of-order shards, with a re-run of shard 1 to prove re-leased
	// shards are harmless.
	payloads := map[int][]byte{}
	for _, id := range []int{2, 1, 0, 1} {
		b, err := x.RunShard(context.Background(), shards[id], nil)
		if err != nil {
			t.Fatalf("RunShard(%v): %v", shards[id], err)
		}
		payloads[id] = b
	}
	for _, id := range []int{1, 2, 0} {
		if err := l.Add(shards[id], payloads[id]); err != nil {
			t.Fatalf("Add(%v): %v", shards[id], err)
		}
	}
	if got := l.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged shards diverged from campaign:\n got %+v\nwant %+v", got, want)
	}
}

// Executor keys must equal the single-node checkpoint key: that
// equality is what lets a worker cross-check a coordinator's plan key
// against its own config, and what guarantees both modes draw the
// same plans.
func TestExecutorKeyMatchesCampaignKey(t *testing.T) {
	p, inst := sharedConv1d(t)
	cfg := Config{N: 10, Seed: 3}
	x, err := NewExecutor(context.Background(), p, core.RSkip, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CampaignKey of the defaulted config (prepare fills Mix, Workers,
	// Batch; only Mix is key-relevant).
	dcfg := cfg
	dcfg.Mix = DefaultMix
	if want := CampaignKey(p, core.RSkip, dcfg); x.Key() != want {
		t.Fatalf("executor key %q\nwant campaign key %q", x.Key(), want)
	}
}

// The options the ledger owns are plain inputs to an executor: a
// worker building one from a spec that carries them must not refuse
// the shard.
func TestExecutorAcceptsCampaignOptions(t *testing.T) {
	p, inst := sharedConv1d(t)
	for name, cfg := range map[string]Config{
		"TargetCI":       {N: 10, TargetCI: 0.05},
		"CheckpointPath": {N: 10, CheckpointPath: t.TempDir() + "/ck.json"},
	} {
		if _, err := NewExecutor(context.Background(), p, core.RSkip, inst, cfg); err != nil {
			t.Errorf("%s: NewExecutor = %v, want accepted", name, err)
		}
	}
}

func TestExecutorRangeValidation(t *testing.T) {
	p, inst := sharedConv1d(t)
	x, err := NewExecutor(context.Background(), p, core.RSkip, inst, Config{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
		if err := x.RunRange(context.Background(), r[0], r[1]); err == nil {
			t.Errorf("RunRange(%v) accepted an out-of-plan range", r)
		}
		if _, err := x.RunShard(context.Background(), fabric.Shard{Lo: r[0], Hi: r[1]}, nil); err == nil {
			t.Errorf("RunShard(%v) accepted an out-of-plan range", r)
		}
	}
}
