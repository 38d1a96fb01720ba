package fault_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/result"
)

var (
	progMu sync.Mutex
	progs  = map[string]*core.Program{}
	insts  = map[string]bench.Instance{}
)

// program builds (once) an untrained benchmark at the tiny scale.
func program(t *testing.T, name string) (*core.Program, bench.Instance) {
	t.Helper()
	progMu.Lock()
	defer progMu.Unlock()
	if p, ok := progs[name]; ok {
		return p, insts[name]
	}
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	progs[name] = p
	insts[name] = b.Gen(bench.TestSeed(0), bench.ScaleTiny)
	return p, insts[name]
}

func newExecutor(t *testing.T, p *core.Program, s core.Scheme, inst bench.Instance, cfg fault.Config) *fault.Executor {
	t.Helper()
	x, err := fault.NewExecutor(context.Background(), p, s, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func newLedger(t *testing.T, x *fault.Executor, shardSize int) *fault.Ledger {
	t.Helper()
	l, err := fault.NewLedger(x, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// crashingRunner runs shards on its executor until its fuse runs out,
// then simulates a SIGKILL mid-shard: it executes part of the shard's
// range (so the executor holds half-done records), cancels its node's
// context and never completes or releases the lease. The coordinator
// must recover via TTL expiry and work stealing. crashed closes once
// the node has died holding a lease.
type crashingRunner struct {
	x       *fault.Executor
	cancel  context.CancelFunc
	fuse    int32
	crashed chan struct{}
	once    sync.Once
}

func (c *crashingRunner) RunShard(ctx context.Context, sh fabric.Shard, hb fabric.Heartbeat) ([]byte, error) {
	if atomic.AddInt32(&c.fuse, -1) >= 0 {
		return c.x.RunShard(ctx, sh, hb)
	}
	half := sh.Lo + sh.Size()/2
	if err := c.x.RunRange(ctx, sh.Lo, half); err != nil {
		return nil, err
	}
	c.cancel()
	c.once.Do(func() { close(c.crashed) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// shuffledMerge runs every shard of the ledger's plan on x and adds the
// payloads to l in an order drawn from seed. Adds past an early stop
// keep arriving, as they do from remote workers; only a refused
// payload fails the test.
func shuffledMerge(t *testing.T, x *fault.Executor, l *fault.Ledger, seed int64, limit int) {
	t.Helper()
	shards := l.Plan().Shards()
	for i, id := range rand.New(rand.NewSource(seed)).Perm(len(shards)) {
		if i == limit {
			return
		}
		payload, err := x.RunShard(context.Background(), shards[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		var refused *fault.PayloadError
		if err := l.Add(shards[id], payload); errors.As(err, &refused) {
			t.Fatalf("shard %v refused: %v", shards[id], err)
		}
	}
}

// The tentpole acceptance test: every way a campaign can be driven —
// N in-process workers across M simulated nodes, each with its own
// independently prepared Executor, with an injected worker death
// mid-shard; TargetCI early stop merged in shuffled completion order
// over two shard sizes; resume from a checkpoint another shard size
// wrote — must produce a Result bit-identical to the single-process
// fault.Campaign, across three kernels and three schemes.
func TestDistributedMatchesSingleNode(t *testing.T) {
	kernels := []string{"musum", "mudot", "mumax"}
	schemes := []core.Scheme{core.Unsafe, core.SWIFTR, core.RSkip}
	for _, kernel := range kernels {
		for _, s := range schemes {
			t.Run(kernel+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				p, inst := program(t, kernel)
				cfg := fault.Config{N: 60, Seed: 11, Workers: 2, Batch: 16}

				want, err := fault.Campaign(context.Background(), p, s, inst, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Coordinator side: its own executor derives the plan key,
				// and its ledger owns the merge.
				xc := newExecutor(t, p, s, inst, cfg)
				ledger := newLedger(t, xc, 7)
				coord := ledger.Coordinator(fabric.Options{LeaseTTL: 30 * time.Millisecond})

				// Node A crashes mid-shard after one clean shard; node
				// B survives and must steal A's abandoned lease.
				xa := newExecutor(t, p, s, inst, cfg)
				xb := newExecutor(t, p, s, inst, cfg)
				if xa.Key() != xc.Key() || xb.Key() != xc.Key() {
					t.Fatalf("independently prepared executors disagree on the plan key")
				}
				ctxA, cancelA := context.WithCancel(context.Background())
				defer cancelA()
				ra := &crashingRunner{x: xa, cancel: cancelA, fuse: 1, crashed: make(chan struct{})}

				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					// The crash surfaces as ctx.Err() from node A.
					if err := fabric.RunLocal(ctxA, coord, 2, "nodeA", ra); !errors.Is(err, context.Canceled) {
						t.Errorf("node A exited %v, want context.Canceled", err)
					}
				}()
				go func() {
					defer wg.Done()
					// Node B joins once A has died holding a lease.
					// Joining earlier races A for the shards: when B
					// takes every shard A has not leased yet, A never
					// reaches its crash and no lease is stolen.
					select {
					case <-ra.crashed:
					case <-time.After(10 * time.Second):
						t.Error("node A never crashed")
						return
					}
					if err := fabric.RunLocal(context.Background(), coord, 2, "nodeB", xb); err != nil {
						t.Errorf("node B: %v", err)
					}
				}()
				wg.Wait()

				if st := coord.Stats(); st.LeasesExpired < 1 {
					t.Fatalf("stats = %+v, want at least one stolen lease from the crashed node", st)
				}
				if got := ledger.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("distributed result diverged from single-node:\n got %+v\nwant %+v", got, want)
				}

				// Cross-check: per-shard aggregates composed through the
				// partition-sum identity match the merged counts.
				var parts []fault.Result
				for _, sh := range coord.Plan().Shards() {
					part := newLedger(t, xb, 7)
					payload, err := xb.RunShard(context.Background(), sh, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := part.Add(sh, payload); err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part.Result())
				}
				comp := result.ComposeCounts(s, parts)
				if comp.N != want.N || comp.Counts != want.Counts || comp.Fired != want.Fired {
					t.Fatalf("composed shard counts diverged:\n got %+v\nwant %+v", comp, want)
				}

				// TargetCI: the ledger's prefix stop equals the
				// single-process stop for every shard size and order.
				ci := cfg
				ci.TargetCI = 30
				wantCI, err := fault.Campaign(context.Background(), p, s, inst, ci)
				if err != nil {
					t.Fatal(err)
				}
				xci := newExecutor(t, p, s, inst, ci)
				for _, size := range []int{7, 23} {
					for seed := int64(0); seed < 3; seed++ {
						l := newLedger(t, xci, size)
						shuffledMerge(t, xci, l, seed, -1)
						if got := l.Result(); !reflect.DeepEqual(got, wantCI) {
							t.Fatalf("TargetCI shard size %d order %d diverged:\n got %+v\nwant %+v", size, seed, got, wantCI)
						}
					}
				}

				// Resume: a checkpoint written by a ledger of one shard
				// size resumes under the other, and under Campaign.
				for _, sizes := range [][2]int{{7, 23}, {23, 0}} {
					for _, c := range []fault.Config{cfg, ci} {
						c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
						w := want
						if c.TargetCI > 0 {
							w = wantCI
						}
						x1 := newExecutor(t, p, s, inst, c)
						shuffledMerge(t, x1, newLedger(t, x1, sizes[0]), 5, 2)
						var got fault.Result
						if sizes[1] == 0 {
							got, err = fault.Campaign(context.Background(), p, s, inst, c)
						} else {
							x2 := newExecutor(t, p, s, inst, c)
							l2 := newLedger(t, x2, sizes[1])
							got, err = l2.Drive(context.Background(), l2.Coordinator(fabric.Options{}), x2, x2)
						}
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, w) {
							t.Fatalf("resume %d→%d (TargetCI %v) diverged:\n got %+v\nwant %+v", sizes[0], sizes[1], c.TargetCI, got, w)
						}
					}
				}
			})
		}
	}
}

// A payload the ledger cannot trust — drifted configuration, damaged
// or mislabelled — must be refused with a *PayloadError before it can
// skew counts.
func TestLedgerRejectsDriftAndDamage(t *testing.T) {
	p, inst := program(t, "musum")
	cfg := fault.Config{N: 20, Seed: 3, Workers: 1}
	x := newExecutor(t, p, core.RSkip, inst, cfg)
	sh := fabric.Shard{ID: 0, Lo: 0, Hi: 10}
	payload, err := x.RunShard(context.Background(), sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	var good fault.ShardPayload
	if err := json.Unmarshal(payload, &good); err != nil {
		t.Fatal(err)
	}

	type tc struct {
		name   string
		sh     fabric.Shard
		mut    func(p *fault.ShardPayload)
		errHas string
	}
	edit := func(i int, f func(*fault.RunRecord)) func(p *fault.ShardPayload) {
		return func(p *fault.ShardPayload) {
			rs := make([]fault.RunRecord, len(p.Records))
			copy(rs, p.Records)
			f(&rs[i])
			p.Records = rs
		}
	}
	cases := []tc{
		{"drifted key", sh, func(p *fault.ShardPayload) { p.Key = "bench=other|" + p.Key }, "key mismatch"},
		// The key embeds the range, so a mislabelled range with an
		// honest key is caught by the key check; the Lo/Hi check below
		// catches a payload whose key was copied from the lease but
		// whose range fields disagree.
		{"wrong range", sh, func(p *fault.ShardPayload) { p.Lo, p.Hi = 5, 15 }, "lease covers"},
		{"short records", sh, func(p *fault.ShardPayload) { p.Records = p.Records[:5] }, "holds 5 records"},
		{"unfinished record", sh, edit(3, func(r *fault.RunRecord) { *r = fault.RunRecord{} }), "unfinished record"},
		{"not a shard", fabric.Shard{ID: 0, Lo: 0, Hi: 9}, func(*fault.ShardPayload) {}, "not a shard of the plan"},
		{"shard ID out of plan", fabric.Shard{ID: 7, Lo: 0, Hi: 10}, func(*fault.ShardPayload) {}, "not a shard of the plan"},
		{"not JSON", sh, nil, "decoding"},
		// An empty payload names the records the ledger's own executor
		// holds; it has not run [10, 20).
		{"empty payload for unexecuted shard", fabric.Shard{ID: 1, Lo: 10, Hi: 20}, nil, "unfinished record at index 10"},
	}
	// A record whose class lies outside the outcome table would crash
	// aggregation; the ledger refuses the payload instead.
	for _, class := range []fault.Class{99, fault.NumClasses, -1} {
		class := class
		cases = append(cases, tc{fmt.Sprintf("class %d", class), sh,
			edit(4, func(r *fault.RunRecord) { r.Class = class }), fmt.Sprintf("outcome class %d", class)})
	}
	for _, tc := range cases {
		l := newLedger(t, x, 10)
		b := []byte("{not json")
		if tc.sh.ID == 1 {
			b = nil
		}
		if tc.mut != nil {
			bad := good
			tc.mut(&bad)
			if b, err = json.Marshal(bad); err != nil {
				t.Fatal(err)
			}
		}
		err := l.Add(tc.sh, b)
		var refused *fault.PayloadError
		if !errors.As(err, &refused) || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: Add = %v, want a *PayloadError containing %q", tc.name, err, tc.errHas)
		}
		if got := l.Result(); got.N != 0 {
			t.Errorf("%s: refused payload merged %d runs", tc.name, got.N)
		}
	}

	// Double merge of the same shard is a coordinator bug — refuse. The
	// first merge names the executor's own records, as Drive's lease
	// loops do.
	l := newLedger(t, x, 10)
	if err := l.Add(sh, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(sh, payload); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double Add = %v, want 'merged twice'", err)
	}
	if partial := l.Result(); partial.N != 10 {
		t.Errorf("partial N = %d, want 10", partial.N)
	}
}

// Crash consistency of a single-process campaign's ledger. For every
// k, the campaign is cancelled after its k-th merge, or its (k+1)-th
// checkpoint save fails (the checkpoint's parent directory has become
// a regular file). Either first attempt ends in an exact prefix or a
// typed error, and the restart on the same path reproduces the
// uninterrupted counts.
func TestCampaignCrashConsistency(t *testing.T) {
	p, inst := program(t, "musum")
	cfg := fault.Config{N: 60, Seed: 8, Workers: 2, Batch: 15}
	full := cfg
	full.CheckpointPath = filepath.Join(t.TempDir(), "full.json")
	want, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, full)
	if err != nil {
		t.Fatal(err)
	}
	fullCk, err := fault.LoadCheckpoint(full.CheckpointPath)
	if err != nil || fullCk.Done != cfg.N {
		t.Fatalf("uninterrupted checkpoint = %+v, %v; want all %d runs", fullCk, err, cfg.N)
	}
	const shards = 4
	for k := 0; k <= shards; k++ {
		t.Run(fmt.Sprintf("cancel-after-%d", k), func(t *testing.T) {
			c := cfg
			c.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if k == 0 {
				cancel()
			}
			merges := 0
			c.OnProgress = func(fault.Progress) {
				if merges++; merges == k {
					cancel()
				}
			}
			first, err := fault.Campaign(ctx, p, core.SWIFTR, inst, c)
			if k < shards && !errors.Is(err, context.Canceled) {
				t.Fatalf("first attempt: %v, want context.Canceled", err)
			}
			if first.N != 15*k {
				t.Fatalf("first attempt merged %d runs, want %d", first.N, 15*k)
			}
			// The file holds exactly the merged runs, each as the
			// uninterrupted campaign recorded it.
			ck, err := fault.LoadCheckpoint(c.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			for i := 0; ck != nil && i < len(ck.Records); i++ {
				if r := ck.Records[i]; r.Done {
					done++
					if r != fullCk.Records[i] {
						t.Errorf("checkpoint record %d = %+v, uninterrupted %+v", i, r, fullCk.Records[i])
					}
				}
			}
			if done != 15*k || (ck != nil && ck.Done != done) {
				t.Fatalf("checkpoint holds %d done records (header %+v), want %d", done, ck, 15*k)
			}
			c.OnProgress = nil
			got, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restart diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	for k := 0; k < shards; k++ {
		t.Run(fmt.Sprintf("save-%d-fails", k+1), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ck")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.CheckpointPath = filepath.Join(dir, "campaign.json")
			breakDir := func() {
				if err := os.Rename(dir, dir+".moved"); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if k == 0 {
				breakDir()
			}
			merges := 0
			c.OnProgress = func(fault.Progress) {
				if merges++; merges == k {
					breakDir()
				}
			}
			_, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, c)
			var pathErr *fs.PathError
			if !errors.As(err, &pathErr) {
				t.Fatalf("first attempt: %v, want a *fs.PathError", err)
			}
			if err := os.Remove(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(dir+".moved", dir); err != nil {
				t.Fatal(err)
			}
			c.OnProgress = nil
			got, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restart diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// A ledger file cut short at any byte is a *CorruptCheckpointError,
// never a checkpoint with fewer records.
func TestCheckpointTruncationIsCorrupt(t *testing.T) {
	p, inst := program(t, "musum")
	path := filepath.Join(t.TempDir(), "ck.json")
	cfg := fault.Config{N: 30, Seed: 4, Batch: 10, CheckpointPath: path}
	if _, err := fault.Campaign(context.Background(), p, core.Unsafe, inst, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.json")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := fault.LoadCheckpoint(cut)
		var corrupt *fault.CorruptCheckpointError
		if !errors.As(err, &corrupt) {
			t.Fatalf("truncated at %d/%d bytes: LoadCheckpoint = %v, %v; want *CorruptCheckpointError", n, len(data), ck, err)
		}
	}
}

// The campaign key still prints the hang factor 50 that every
// checkpoint so far was written under, so the legacy checkpoint's key
// is exactly the key a campaign of its config derives today.
func TestCampaignKeyKeepsLegacyHangFactor(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ck struct{ Key string }
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	p, _ := program(t, "conv1d")
	got := fault.CampaignKey(p, core.SWIFTR, fault.Config{N: 90, Seed: 2020, Mix: fault.DefaultMix})
	if got != ck.Key || !strings.HasSuffix(got, "|hang=50") {
		t.Fatalf("campaign key %q\nlegacy key   %q", got, ck.Key)
	}
}

// A checkpoint the batch-loop engine wrote before campaigns ran
// through the ledger — interrupted mid-batch, so one of its batches is
// partly done with a hole — resumes to the counts an uninterrupted
// campaign gives, re-executing only the missing runs.
func TestLegacyCheckpointResumes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, inst := program(t, "conv1d")
	cfg := fault.Config{N: 90, Seed: 2020, Batch: 20, Workers: 2}
	want, err := fault.Campaign(context.Background(), p, core.SWIFTR, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The uninterrupted counts the writing engine reported.
	if want.Counts != [fault.NumClasses]int{85, 1, 3, 1, 0, 0} || want.Fired != 90 {
		t.Fatalf("uninterrupted campaign = %+v, want the writing engine's counts", want)
	}
	o := &obs.Obs{Metrics: obs.NewMetrics()}
	cfg.CheckpointPath = path
	got, err := fault.Campaign(obs.Into(context.Background(), o), p, core.SWIFTR, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed legacy checkpoint diverged:\n got %+v\nwant %+v", got, want)
	}
	snap := o.M().Snapshot()
	if snap["fault_injections_skipped_total"] != 49 || snap["fault_injections_total"] != 41 {
		t.Errorf("resume skipped %v and ran %v runs, want 49 and 41",
			snap["fault_injections_skipped_total"], snap["fault_injections_total"])
	}
}
