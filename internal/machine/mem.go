// Package machine executes RSkip IR directly: a word-addressable
// segmented memory, a register-file interpreter, an in-order
// superscalar timing model that yields cycles and IPC, exact dynamic
// instruction counting, a runtime bridge that services the
// prediction-based-protection hooks, and single-event-upset fault
// injection. It is this repository's stand-in for the paper's native
// x86 execution (performance) and gem5/ARMv7 simulation (reliability).
package machine

import (
	"fmt"
	"math"
	"sync"
)

// Memory is a flat word-addressable memory (one 64-bit word per
// address). The heap grows upward from zero via Alloc; the stack
// segment for local arrays grows downward from the top of the dense
// arena. Addresses beyond the dense arena but below MappedLimit model
// the large mapped-but-unrelated address space of a real process
// (lazily paged): corrupted pointers usually land there and read
// zeros or scribble harmlessly instead of faulting, matching the low
// Segfault rates of the paper's gem5/ARMv7 campaigns. Only accesses
// past MappedLimit (or negative) raise a segmentation fault.
// Memory contents are assumed ECC-protected (faults are never injected
// here), matching the paper's fault model.
type Memory struct {
	words []uint64
	// log, non-nil only while a capture run executes, lists the run's
	// accesses since the capture last noted them in its record
	// (memRecord, snapshot.go): a load's address, or a store's with
	// logWrite set. Appending keeps LoadWord within the inlining budget.
	log      []int64
	pages    map[int64][]uint64
	heapEnd  int64 // heap occupies [0, heapEnd)
	stackPtr int64 // stack occupies [stackPtr, len(words))

	// Write watermarks for cheap arena recycling: every dense-arena
	// store lands in [0, dirtyLoEnd) or [dirtyHiStart, len(words)) —
	// the heap grows up from zero and the stack down from the top, so
	// tracking the two halves separately keeps the union tight. reset
	// clears only those spans instead of the whole arena (the default
	// arena is 32 MiB; campaign runs touch a few KiB), which is what
	// makes pooling memories across millions of runs worthwhile.
	dirtyLoEnd   int64
	dirtyHiStart int64
	// stale marks words a rewind left in place for a restore to
	// overwrite: until then the spans hold a previous run's contents.
	stale bool
}

// logWrite marks a store in Memory.log.
const logWrite = int64(1) << 62

// MappedLimit bounds the simulated process's mapped address space in
// words; accesses at or beyond it fault.
const MappedLimit = int64(1) << 28

// pageSize is the sparse-page granule in words.
const pageSize = int64(4096)

// SegfaultError reports an out-of-segment memory access.
type SegfaultError struct {
	Addr int64
	Op   string
}

func (e *SegfaultError) Error() string {
	return fmt.Sprintf("machine: segmentation fault: %s at address %d", e.Op, e.Addr)
}

// NewMemory returns a memory of the given size in words.
func NewMemory(words int64) *Memory {
	m := &Memory{words: make([]uint64, words)}
	m.stackPtr = words
	m.dirtyHiStart = words
	return m
}

// defaultMemWords is Config.MemWords' default; only arenas of exactly
// this size are pooled.
const defaultMemWords = int64(1) << 22

// memPool recycles default-sized memories between machines (campaign
// runs build one machine per injection). Pooled memories are fully
// reset — a Get behaves exactly like NewMemory(defaultMemWords).
var memPool = sync.Pool{}

func newPooledMemory(words int64) (mem *Memory, pooled bool) {
	if words == defaultMemWords {
		if v := memPool.Get(); v != nil {
			return v.(*Memory), true
		}
	}
	return NewMemory(words), false
}

func releaseMemory(m *Memory) {
	if m == nil || int64(len(m.words)) != defaultMemWords {
		return
	}
	m.reset()
	memPool.Put(m)
}

// reset restores the memory to its freshly-allocated state, zeroing
// only the spans the watermarks prove were written.
func (m *Memory) reset() {
	clear(m.words[:m.dirtyLoEnd])
	clear(m.words[m.dirtyHiStart:])
	m.dirtyLoEnd = 0
	m.dirtyHiStart = int64(len(m.words))
	m.rewind()
	m.stale = false
}

// rewind resets the segment pointers and drops the sparse pages but
// leaves the written words, and the watermarks that cover them, for a
// restore to overwrite or clear (snapshot.go): a resumed run's memory
// is cleared once, by the restore, instead of by a reset as well.
func (m *Memory) rewind() {
	m.pages = nil
	m.heapEnd = 0
	m.stackPtr = int64(len(m.words))
	m.stale = true
}

// Alloc reserves n words on the heap and returns the base address.
func (m *Memory) Alloc(n int64) int64 {
	if n < 0 || m.heapEnd+n > m.stackPtr {
		panic(fmt.Sprintf("machine: heap allocation of %d words exceeds memory", n))
	}
	base := m.heapEnd
	m.heapEnd += n
	return base
}

// LoadWord reads the raw word at addr.
func (m *Memory) LoadWord(addr int64) (uint64, error) {
	if m.log != nil {
		m.log = append(m.log, addr)
	}
	if addr >= 0 && addr < int64(len(m.words)) {
		return m.words[addr], nil
	}
	if addr < 0 || addr >= MappedLimit {
		return 0, &SegfaultError{Addr: addr, Op: "load"}
	}
	if pg, ok := m.pages[addr/pageSize]; ok {
		return pg[addr%pageSize], nil
	}
	return 0, nil
}

// StoreWord writes the raw word at addr.
func (m *Memory) StoreWord(addr int64, v uint64) error {
	if m.log != nil {
		m.log = append(m.log, addr|logWrite)
	}
	if addr >= 0 && addr < int64(len(m.words)) {
		// Watermarks move before the write so a panicking run still
		// leaves them covering every written word.
		if addr < int64(len(m.words))/2 {
			if addr >= m.dirtyLoEnd {
				m.dirtyLoEnd = addr + 1
			}
		} else if addr < m.dirtyHiStart {
			m.dirtyHiStart = addr
		}
		m.words[addr] = v
		return nil
	}
	if addr < 0 || addr >= MappedLimit {
		return &SegfaultError{Addr: addr, Op: "store"}
	}
	if m.pages == nil {
		m.pages = make(map[int64][]uint64)
	}
	pg, ok := m.pages[addr/pageSize]
	if !ok {
		pg = make([]uint64, pageSize)
		m.pages[addr/pageSize] = pg
	}
	pg[addr%pageSize] = v
	return nil
}

// pushStack reserves n words of stack and returns the new base; used
// by alloca. Returns an error when the stack would collide with the
// heap.
func (m *Memory) pushStack(n int64) (int64, error) {
	if m.stackPtr-n < m.heapEnd {
		return 0, &SegfaultError{Addr: m.stackPtr - n, Op: "stack-alloc"}
	}
	m.stackPtr -= n
	return m.stackPtr, nil
}

// popStackTo restores the stack pointer to a previously saved mark.
func (m *Memory) popStackTo(mark int64) { m.stackPtr = mark }

// StackMark returns the current stack pointer for later restoration.
func (m *Memory) StackMark() int64 { return m.stackPtr }

// Convenience typed accessors for hosts (input generators, checkers).

// SetFloat stores a float at addr.
func (m *Memory) SetFloat(addr int64, v float64) {
	if err := m.StoreWord(addr, math.Float64bits(v)); err != nil {
		panic(err)
	}
}

// GetFloat loads a float from addr.
func (m *Memory) GetFloat(addr int64) float64 {
	w, err := m.LoadWord(addr)
	if err != nil {
		panic(err)
	}
	return math.Float64frombits(w)
}

// SetInt stores an integer at addr.
func (m *Memory) SetInt(addr int64, v int64) {
	if err := m.StoreWord(addr, uint64(v)); err != nil {
		panic(err)
	}
}

// GetInt loads an integer from addr.
func (m *Memory) GetInt(addr int64) int64 {
	w, err := m.LoadWord(addr)
	if err != nil {
		panic(err)
	}
	return int64(w)
}

// CopyFloats bulk-stores a float slice starting at base.
func (m *Memory) CopyFloats(base int64, vs []float64) {
	for i, v := range vs {
		m.SetFloat(base+int64(i), v)
	}
}

// CopyInts bulk-stores an int slice starting at base.
func (m *Memory) CopyInts(base int64, vs []int64) {
	for i, v := range vs {
		m.SetInt(base+int64(i), v)
	}
}

// ReadFloats bulk-loads n floats starting at base.
func (m *Memory) ReadFloats(base int64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.GetFloat(base + int64(i))
	}
	return out
}

// ReadInts bulk-loads n ints starting at base.
func (m *Memory) ReadInts(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.GetInt(base + int64(i))
	}
	return out
}
