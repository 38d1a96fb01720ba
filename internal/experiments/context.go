// Package experiments regenerates every table and figure of the
// paper's evaluation (§7): benchmark characteristics (Table 1),
// predictability coverage (Fig. 2), the performance study (Fig. 7),
// the blackscholes and lud deep dives (Fig. 8), the fault-injection
// reliability study (Fig. 9), and the supporting measurements (the §2
// cost ratio, the §4.2 quantization comparison, the §7.3
// protection/performance frontier) plus ablations of RSkip's design
// choices. The cmd/rskipbench tool and bench_test.go are thin wrappers
// over this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/obs"
)

// Context caches built and trained programs across experiments.
type Context struct {
	// Quick shrinks inputs and injection counts for smoke runs.
	Quick bool
	// TrainSeeds is the number of training inputs per benchmark.
	TrainSeeds int
	// FaultN is the number of injections per campaign (Fig. 9).
	FaultN int
	// Seed drives fault sampling.
	Seed int64
	// Out receives progress notes (nil discards them).
	Out io.Writer
	// Obs, when non-nil, traces builds/training/campaigns and collects
	// pipeline metrics across every experiment (rskipbench's
	// -trace/-metrics/-pprof flags).
	Obs *obs.Obs

	mu    sync.Mutex
	cache map[string]*core.Program
}

// Ctx returns a background context carrying the experiment-suite
// observability handle, for campaign and build calls.
func (c *Context) Ctx() context.Context {
	return obs.Into(context.Background(), c.Obs)
}

// New returns a context with the paper's defaults.
func New() *Context {
	return &Context{TrainSeeds: 3, FaultN: 1000, Seed: 20200222}
}

// logf writes a progress note.
func (c *Context) logf(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// PerfScale returns the input scale for performance experiments.
func (c *Context) PerfScale() bench.Scale {
	if c.Quick {
		return bench.ScaleFI
	}
	return bench.ScalePerf
}

// faultN returns the injection count per campaign.
func (c *Context) faultN() int {
	n := c.FaultN
	if c.Quick && n > 200 {
		n = 200
	}
	if n == 0 {
		n = 1000
	}
	return n
}

// Program builds (or retrieves) the benchmark compiled and trained
// under the configuration. The cache key covers every field that
// changes the build or the training result.
func (c *Context) Program(b bench.Benchmark, cfg core.Config) (*core.Program, error) {
	key := fmt.Sprintf("%s|%s|q=%v", b.Name, cfg.Key(), c.Quick)
	c.mu.Lock()
	if c.cache == nil {
		c.cache = map[string]*core.Program{}
	}
	if p, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	p, err := core.BuildContext(c.Ctx(), b, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Train(bench.TrainSeeds(c.TrainSeeds), c.PerfScale()); err != nil {
		return nil, fmt.Errorf("training %s: %w", b.Name, err)
	}
	c.mu.Lock()
	c.cache[key] = p
	c.mu.Unlock()
	return p, nil
}

// ARs are the acceptable ranges the paper evaluates.
var ARs = []float64{0.2, 0.5, 0.8, 1.0}

// ARLabel formats an acceptable range the paper's way.
func ARLabel(ar float64) string { return fmt.Sprintf("AR%.0f", ar*100) }
