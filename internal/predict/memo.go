package predict

import (
	"fmt"
)

// MemoTable is the approximate-memoization predictor: a lookup table
// indexed by the quantized inputs of a pure function. Construction
// (§4.2) distributes a fixed address-bit budget across the inputs by
// measured output impact (bit tuning) and quantizes each input with
// either the histogram method (this paper) or the uniform method
// (prior work).
type MemoTable struct {
	Bits   []int        // address bits assigned to each input
	Quants []*Quantizer // one per input
	Values []float64    // 1<<totalBits entries
	Filled []bool
}

// MemoConfig parameterizes table construction.
type MemoConfig struct {
	// AddressBits is the total address width (the paper uses 15).
	AddressBits int
	// FineBins is the initial histogram resolution per input.
	FineBins int
	// Uniform selects the prior work's equal-width quantization for
	// the §4.2 comparison.
	Uniform bool
	// TuneRounds caps greedy bit-tuning passes; 0 means AddressBits.
	TuneRounds int
}

// BuildMemo constructs a table from training pairs. inputs[k] is the
// k-th sample's input vector; outputs[k] its result. The bit budget is
// assigned greedily: each round adds one bit to whichever input most
// reduces the training prediction error — the "bit tuning process"
// that lets high-impact inputs differentiate their values.
func BuildMemo(inputs [][]float64, outputs []float64, cfg MemoConfig) (*MemoTable, error) {
	if len(inputs) == 0 || len(inputs) != len(outputs) {
		return nil, fmt.Errorf("predict: memo training needs matching input/output samples")
	}
	nin := len(inputs[0])
	if nin == 0 {
		return nil, fmt.Errorf("predict: memo function has no inputs")
	}
	if cfg.AddressBits <= 0 {
		cfg.AddressBits = 15
	}
	if cfg.FineBins == 0 {
		cfg.FineBins = 256
	}
	cols := make([][]float64, nin)
	for i := range cols {
		cols[i] = make([]float64, len(inputs))
		for k := range inputs {
			cols[i][k] = inputs[k][i]
		}
	}
	bits := make([]int, nin)
	build := func(bits []int) *MemoTable {
		t := &MemoTable{Bits: append([]int(nil), bits...)}
		t.Quants = make([]*Quantizer, nin)
		for i := range t.Quants {
			levels := 1 << bits[i]
			if cfg.Uniform {
				t.Quants[i] = UniformQuantizer(cols[i], levels)
			} else {
				t.Quants[i] = HistogramQuantizer(cols[i], levels, cfg.FineBins)
			}
		}
		t.fill(inputs, outputs)
		return t
	}
	rounds := cfg.TuneRounds
	if rounds == 0 {
		rounds = cfg.AddressBits
	}
	// Greedy bit tuning, scored on a held-out tuning slice so that
	// over-splitting (cold cells the training data cannot fill) is
	// penalized. Tuning stops early once no input's extra bit helps.
	tuneCut := len(inputs) * 4 / 5
	if tuneCut == len(inputs) {
		tuneCut = len(inputs) - 1
	}
	buildIn, buildOut := inputs[:tuneCut], outputs[:tuneCut]
	tuneIn, tuneOut := inputs[tuneCut:], outputs[tuneCut:]
	tuneBuild := func(bits []int) *MemoTable {
		t := &MemoTable{Bits: append([]int(nil), bits...), Quants: make([]*Quantizer, nin)}
		for i := range t.Quants {
			levels := 1 << bits[i]
			if cfg.Uniform {
				t.Quants[i] = UniformQuantizer(cols[i], levels)
			} else {
				t.Quants[i] = HistogramQuantizer(cols[i], levels, cfg.FineBins)
			}
		}
		t.fill(buildIn, buildOut)
		return t
	}
	curErr := tuneBuild(bits).trainError(tuneIn, tuneOut)
	for round := 0; round < rounds && sum(bits) < cfg.AddressBits; round++ {
		bestInput, bestErr := -1, curErr
		for i := 0; i < nin; i++ {
			trial := append([]int(nil), bits...)
			trial[i]++
			e := tuneBuild(trial).trainError(tuneIn, tuneOut)
			if e < bestErr {
				bestInput, bestErr = i, e
			}
		}
		if bestInput == -1 {
			break // no extra bit improves held-out accuracy
		}
		bits[bestInput]++
		curErr = bestErr
	}
	return build(bits), nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// fill populates table cells with the mean training output per cell.
func (t *MemoTable) fill(inputs [][]float64, outputs []float64) {
	size := 1 << sum(t.Bits)
	t.Values = make([]float64, size)
	t.Filled = make([]bool, size)
	counts := make([]int, size)
	for k := range inputs {
		idx := t.Index(inputs[k])
		t.Values[idx] += outputs[k]
		counts[idx]++
	}
	for i := range t.Values {
		if counts[i] > 0 {
			t.Values[i] /= float64(counts[i])
			t.Filled[i] = true
		}
	}
}

// trainError is the mean relative prediction error over the training
// set (misses count as full error), the objective bit tuning descends.
func (t *MemoTable) trainError(inputs [][]float64, outputs []float64) float64 {
	var e float64
	for k := range inputs {
		v, ok := t.Lookup(inputs[k])
		if !ok {
			e += 1
			continue
		}
		e += RelDiff(outputs[k], v)
	}
	return e / float64(len(inputs))
}

// Index computes the table index for an input vector by concatenating
// per-input quantization levels into the address bits.
func (t *MemoTable) Index(in []float64) int {
	idx := 0
	for i, q := range t.Quants {
		idx = idx<<t.Bits[i] | q.Level(in[i])
	}
	return idx
}

// Lookup predicts the function output for the inputs; ok is false on a
// cold cell.
func (t *MemoTable) Lookup(in []float64) (v float64, ok bool) {
	idx := t.Index(in)
	if !t.Filled[idx] {
		return 0, false
	}
	return t.Values[idx], true
}

// Accuracy measures the fraction of test samples predicted within the
// acceptable range (the metric behind the paper's 96.5% → >99%
// improvement claim).
func (t *MemoTable) Accuracy(inputs [][]float64, outputs []float64, ar float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	good := 0
	for k := range inputs {
		if v, ok := t.Lookup(inputs[k]); ok && RelDiff(outputs[k], v) <= ar {
			good++
		}
	}
	return float64(good) / float64(len(inputs))
}

// EncodedInputs reports how many inputs received at least one address
// bit (the paper contrasts 3/6 uniform vs 6/6 histogram on
// blackscholes' 15-bit address).
func (t *MemoTable) EncodedInputs() int {
	n := 0
	for _, b := range t.Bits {
		if b > 0 {
			n++
		}
	}
	return n
}
