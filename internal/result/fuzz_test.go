package result

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"rskip/internal/fault"
)

// FuzzCacheGet feeds arbitrary bytes to Get as a cache entry. Get must
// never panic, and must either reject the entry as a
// *CorruptEntryError or return a result that passes the same
// plausibility checks a campaign's own result does; GetOrRun must then
// serve it or heal it with a live run.
func FuzzCacheGet(f *testing.F) {
	const key = "fuzz-key"
	valid, _ := json.Marshal(Entry{Version: entryVersion, Key: key, Result: testResult(3)})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"key":"fuzz-key","result":{"N":2,"Requested":2,"Counts":[1,0,0,0,0,0]}}`))
	f.Add([]byte(`{"version":1,"key":"fuzz-key","result":{"N":1,"Requested":1,"Counts":[-1,2,0,0,0,0]}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, gerr := c.Get(key)
		var ce *CorruptEntryError
		switch {
		case gerr != nil && !errors.As(gerr, &ce):
			t.Fatalf("Get returned untyped error %v", gerr)
		case gerr == nil && got == nil:
			t.Fatal("Get reported an existing entry missing")
		case gerr == nil:
			if err := plausible(got); err != nil {
				t.Fatalf("Get served an implausible result: %v", err)
			}
		}
		res, cached, err := c.GetOrRun(key, func() (fault.Result, error) { return testResult(5), nil })
		if err != nil {
			t.Fatalf("GetOrRun: %v", err)
		}
		if cached != (gerr == nil) || (!cached && res.N != 5) {
			t.Fatalf("GetOrRun cached=%v N=%d after Get error %v", cached, res.N, gerr)
		}
	})
}
