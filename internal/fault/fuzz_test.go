package fault

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rskip/internal/fabric"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the on-disk codec. It
// must never panic, must answer every damaged file with a
// *CorruptCheckpointError, and must never accept a checkpoint whose
// records do not cover its N or hold a class outside the outcome table.
func FuzzLoadCheckpoint(f *testing.F) {
	good, err := json.Marshal(&Checkpoint{Version: checkpointVersion, Key: "k", N: 2, Done: 1,
		Records: []RunRecord{{Done: true, Class: SDC, Fired: true}, {}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"version":1,"key":"k","n":1,"done":1,"records":[{"done":true,"class":6}]}`))
	f.Add([]byte(`{"version":1,"key":"k","n":3,"done":0,"records":[]}`))
	f.Add([]byte(`{"version":2,"key":"k","n":0,"done":0,"records":[]}`))
	f.Add([]byte(`{"version":1,"n":-1,"records":null}`))
	f.Add(good[:len(good)/2])
	path := filepath.Join(f.TempDir(), "ck.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			var corrupt *CorruptCheckpointError
			if !errors.As(err, &corrupt) {
				t.Fatalf("LoadCheckpoint = %v, want a *CorruptCheckpointError", err)
			}
			return
		}
		if ck.Version != checkpointVersion || len(ck.Records) != ck.N {
			t.Fatalf("accepted version %d with %d records for n = %d", ck.Version, len(ck.Records), ck.N)
		}
		for i := range ck.Records {
			if c := ck.Records[i].Class; c < 0 || c >= NumClasses {
				t.Fatalf("accepted record %d with class %d", i, c)
			}
		}
	})
}

// fuzzLedger is a ledger over a 20-run plan of two shards with no
// program behind it: Add never executes anything.
func fuzzLedger(t testing.TB) *Ledger {
	e := &engine{prof: &Profile{}, cfg: Config{N: 20, Batch: 5, TargetCI: 40}, key: "k",
		met: newCampaignMetrics(nil), records: make([]RunRecord, 20)}
	l, err := NewLedger(&Executor{e: e}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// FuzzLedgerAdd feeds arbitrary shard labels and payloads to the
// ledger, as a hostile or broken worker could over the wire. Add must
// never panic; a refused payload is a *PayloadError and merges
// nothing; an accepted one was labelled with its lease's range and
// holds only finished records of valid classes.
func FuzzLedgerAdd(f *testing.F) {
	recs := make([]RunRecord, 10)
	for i := range recs {
		recs[i] = RunRecord{Done: true, Class: Class(i % int(NumClasses)), Fired: i%2 == 0}
	}
	for _, p := range []ShardPayload{
		{Key: "k|shard=0-10", Lo: 0, Hi: 10, Records: recs},
		{Key: "k|shard=10-20", Lo: 10, Hi: 20, Records: recs},
		{Key: "k|shard=0-10", Lo: 10, Hi: 20, Records: recs},
		{Key: "k|shard=0-10", Lo: 0, Hi: 10, Records: recs[:3]},
	} {
		b, err := json.Marshal(&p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(0, 0, 10, b)
		f.Add(1, 10, 20, b)
	}
	f.Add(0, 0, 10, []byte(`{"key":"k|shard=0-10","lo":0,"hi":10,"records":[{"done":true,"class":99}]}`))
	f.Add(-1, -5, 3, []byte(`null`))
	f.Add(1, 10, 20, []byte{})
	f.Fuzz(func(t *testing.T, id, lo, hi int, payload []byte) {
		l := fuzzLedger(t)
		sh := fabric.Shard{ID: id, Lo: lo, Hi: hi}
		err := l.Add(sh, payload)
		res := l.Result()
		if err != nil && !errors.Is(err, errTargetReached) {
			var refused *PayloadError
			if !errors.As(err, &refused) {
				t.Fatalf("Add = %v, want a *PayloadError", err)
			}
			if res.N != 0 {
				t.Fatalf("refused payload merged %d runs", res.N)
			}
			return
		}
		if sh != l.shards[sh.ID] {
			t.Fatalf("accepted a payload for %+v, which is not a shard of the plan", sh)
		}
		var p ShardPayload
		if json.Unmarshal(payload, &p) != nil || p.Lo != sh.Lo || p.Hi != sh.Hi {
			t.Fatalf("accepted a payload labelled with another range than %+v", sh)
		}
		for i := sh.Lo; i < sh.Hi; i++ {
			r := l.recs[i]
			if !r.Done || r.Class < 0 || r.Class >= NumClasses {
				t.Fatalf("accepted record %d = %+v", i, r)
			}
		}
	})
}
