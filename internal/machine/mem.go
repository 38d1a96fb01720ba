// Package machine executes RSkip IR directly: a word-addressable
// paged memory, a register-file interpreter, an in-order
// superscalar timing model that yields cycles and IPC, exact dynamic
// instruction counting, a runtime bridge that services the
// prediction-based-protection hooks, and single-event-upset fault
// injection. It is this repository's stand-in for the paper's native
// x86 execution (performance) and gem5/ARMv7 simulation (reliability).
package machine

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Memory is a flat word-addressable memory (one 64-bit word per
// address) over the simulated process's whole mapped space
// [0, MappedLimit). The heap grows upward from zero via Alloc; the
// stack segment for local arrays grows downward from stackTop. The
// rest of the space models the large mapped-but-unrelated address
// space of a real process: corrupted pointers usually land there and
// read zeros or scribble harmlessly instead of faulting, matching the
// low Segfault rates of the paper's gem5/ARMv7 campaigns. Only
// accesses past MappedLimit (or negative) raise a segmentation fault.
// Memory contents are assumed ECC-protected (faults are never injected
// here), matching the paper's fault model.
//
// Storage is paged: a table maps each page number to its slot in the
// slab, slot 0 being a page of zeros that no store reaches, so a page
// never stored to reads as zeros. The first store to a page takes a
// fresh slot and clears it, so resetting a memory only unmaps the
// pages in use, however far apart they lie; that is what makes pooling
// memories across millions of runs worthwhile. Neither the table nor
// the slab holds a pointer, so the garbage collector never scans them.
type Memory struct {
	table *[MappedLimit / pageSize]int32 // page number -> slab slot; 0: never stored to
	slab  []page
	used  []int32 // the page numbers whose slot is not 0, ascending
	// log, non-nil only while a capture run executes, lists the run's
	// accesses since the capture last noted them in its record
	// (memRecord, snapshot.go): a load's address, or a store's with
	// logWrite set. Appending keeps LoadWord within the inlining budget.
	log      []int64
	heapEnd  int64 // heap occupies [0, heapEnd)
	stackPtr int64 // stack occupies [stackPtr, stackTop)
}

// page is one page of words.
type page [pageSize]uint64

// logWrite marks a store in Memory.log.
const logWrite = int64(1) << 62

// MappedLimit bounds the simulated process's mapped address space in
// words; accesses at or beyond it fault.
const MappedLimit = int64(1) << 28

// pageSize is the page granule in words.
const pageSize = 512

// stackTop is the address just above the stack segment.
const stackTop = int64(1) << 22

// SegfaultError reports an out-of-segment memory access.
type SegfaultError struct {
	Addr int64
	Op   string
}

func (e *SegfaultError) Error() string {
	return fmt.Sprintf("machine: segmentation fault: %s at address %d", e.Op, e.Addr)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		table:    new([MappedLimit / pageSize]int32),
		slab:     make([]page, 1),
		stackPtr: stackTop,
	}
}

// poolCap bounds the memories memPool keeps.
const poolCap = 64

// memPool recycles memories between machines (campaign runs build one
// machine per injection). It is a free list rather than a sync.Pool
// because a sync.Pool drops its contents at every garbage collection,
// and a memory's table and slab are worth keeping across them. Pooled
// memories are fully reset: a pooled memory behaves exactly like a new
// one.
var memPool struct {
	sync.Mutex
	free []*Memory
}

func newPooledMemory() (mem *Memory, pooled bool) {
	memPool.Lock()
	if n := len(memPool.free); n > 0 {
		mem = memPool.free[n-1]
		memPool.free = memPool.free[:n-1]
	}
	memPool.Unlock()
	if mem != nil {
		return mem, true
	}
	return NewMemory(), false
}

func releaseMemory(m *Memory) {
	if m == nil {
		return
	}
	m.reset()
	memPool.Lock()
	if len(memPool.free) < poolCap {
		memPool.free = append(memPool.free, m)
	}
	memPool.Unlock()
}

// reset restores the memory to its freshly-allocated state by
// unmapping the pages in use.
func (m *Memory) reset() {
	for _, n := range m.used {
		m.table[n] = 0
	}
	m.used = m.used[:0]
	m.slab = m.slab[:1]
	m.heapEnd = 0
	m.stackPtr = stackTop
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
	a := uint64(addr)
	if a >= uint64(MappedLimit) {
		return 0, &SegfaultError{Addr: addr, Op: "load"}
	}
	return m.slab[m.table[a/pageSize]][a%pageSize], nil
}

// StoreWord writes the raw word at addr.
func (m *Memory) StoreWord(addr int64, v uint64) error {
	if m.log != nil {
		m.log = append(m.log, addr|logWrite)
	}
	a := uint64(addr)
	if a >= uint64(MappedLimit) {
		return &SegfaultError{Addr: addr, Op: "store"}
	}
	s := m.table[a/pageSize]
	if s == 0 {
		s = m.take(int32(a / pageSize))
	}
	m.slab[s][a%pageSize] = v
	return nil
}

// take maps page n, not yet in use, to a cleared slot and returns the
// slot.
func (m *Memory) take(n int32) int32 {
	s := int32(len(m.slab))
	m.slab = append(m.slab, page{})
	m.table[n] = s
	i, _ := slices.BinarySearch(m.used, n)
	m.used = slices.Insert(m.used, i, n)
	return s
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
