// Package bench defines the nine evaluation benchmarks of the paper's
// Table 1, re-written in MiniC so the whole RSkip pipeline — frontend,
// candidate detection, protection transforms, training, run-time
// management, fault injection — exercises them end to end. Input sizes
// are scaled to the simulated machine (documented in DESIGN.md); the
// computation patterns (reduction loops, nested reductions with
// conditionals, function-call values, varying trip counts) match the
// paper.
package bench

import (
	"fmt"
	"math"
	"strings"

	"rskip/internal/machine"
)

// Scale selects input sizes: perf runs want enough work for stable
// timing shapes; fault-injection campaigns run thousands of times and
// use small inputs.
type Scale int

// Scales.
const (
	ScaleFI Scale = iota
	ScalePerf
	ScaleTiny // unit tests
)

// ParseScale maps a scale name (case ignored; empty means fi) to the
// enum.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "", "fi":
		return ScaleFI, nil
	case "perf":
		return ScalePerf, nil
	case "tiny":
		return ScaleTiny, nil
	}
	return ScaleFI, fmt.Errorf("unknown scale %q (want tiny, fi or perf)", name)
}

// Instance is one concrete input set for a benchmark.
type Instance struct {
	// Setup copies the input data into a fresh machine memory and
	// returns the kernel's argument list (raw bits). A campaign replica
	// resumed from a snapshot runs it too, and the resume then replaces
	// what it stored with the snapshot's memory.
	Setup func(mem *machine.Memory) []uint64
	// Output reads the program's output words after a run; runs are
	// compared bitwise against a fault-free reference (the paper
	// counts any corruption as bad quality).
	Output func(mem *machine.Memory) []uint64
	// Elements is the expected number of hot-store observations per
	// kernel run (for sanity checks).
	Elements int
}

// Benchmark bundles one Table 1 entry.
type Benchmark struct {
	Name        string
	Domain      string
	Description string
	Pattern     string // computation type of the prediction target
	Location    string // location of detected loops
	Kernel      string // kernel function name
	// MemoEligible marks blackscholes: the only benchmark whose strict
	// requirements (§4.2) admit approximate memoization.
	MemoEligible bool
	Source       string
	// Gen builds a deterministic input instance for a seed.
	Gen func(seed int64, scale Scale) Instance
}

// All returns the nine benchmarks in the paper's Table 1 order.
func All() []Benchmark {
	return []Benchmark{
		Conv1D(), Conv2D(), SGEMM(), KDE(), Blackscholes(),
		LUD(), ForwardProp(), BackProp(), YOLO(),
	}
}

// ByName returns the named benchmark — a Table 1 entry or one of the
// skip-verification micro-kernels (Micros).
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	for _, b := range Micros() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

func fbits(v float64) uint64 { return math.Float64bits(v) }

// readWords pulls n raw words starting at base.
func readWords(mem *machine.Memory, base int64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		w, err := mem.LoadWord(base + int64(i))
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}

func allocFloats(mem *machine.Memory, vs []float64) int64 {
	base := mem.Alloc(int64(len(vs)))
	mem.CopyFloats(base, vs)
	return base
}

func allocInts(mem *machine.Memory, vs []int64) int64 {
	base := mem.Alloc(int64(len(vs)))
	mem.CopyInts(base, vs)
	return base
}
