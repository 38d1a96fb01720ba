package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"

	"rskip/internal/ir"
)

// Fingerprint returns a deterministic content hash of the pre-decoded
// tables: every dinstr field that affects execution (opcode, tag, μop
// weight, latency, operands, immediates, resolved branch targets,
// callee) plus block μop totals, in function/block/instruction order.
// The src back-pointer is deliberately excluded — it is an address,
// not content. Two Codes with equal fingerprints execute identically,
// which is what the differential build test relies on to prove a
// rebuilt pipeline is bit-identical to a reference build.
func (c *Code) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(c.fns)))
	for i := range c.fns {
		c.hashFunc(h, i)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashFunc writes the execution-affecting content of one decoded
// function into h, in block/instruction order.
func (c *Code) hashFunc(h hash.Hash, fi int) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fn := &c.fns[fi]
	put(uint64(len(fn.blocks)))
	for bi := range fn.blocks {
		blk := &fn.blocks[bi]
		put(blk.uops)
		put(uint64(len(blk.ins)))
		for k := range blk.ins {
			d := &blk.ins[k]
			put(uint64(d.op))
			put(uint64(d.tag))
			put(uint64(d.n))
			put(uint64(d.lat))
			put(uint64(d.nargs))
			if d.brk {
				put(1)
			} else {
				put(0)
			}
			put(uint64(int64(d.dst)))
			put(uint64(int64(d.a0)))
			put(uint64(int64(d.a1)))
			put(uint64(int64(d.a2)))
			put(uint64(d.imm))
			put(math.Float64bits(d.fimm))
			put(uint64(int64(d.b0)))
			put(uint64(int64(d.b1)))
			put(uint64(int64(d.callee)))
		}
	}
}

// callees returns the static callee set of one decoded function.
func (c *Code) callees(fi int) []int {
	seen := map[int]bool{}
	fn := &c.fns[fi]
	for bi := range fn.blocks {
		blk := &fn.blocks[bi]
		for k := range blk.ins {
			d := &blk.ins[k]
			if d.op == ir.OpCall && d.callee >= 0 {
				seen[int(d.callee)] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// RegionFingerprint hashes the full call closure of one function: the
// function itself plus every function statically reachable from it
// through calls, each keyed by index. This is the identity of a
// candidate-loop region for result caching — any edit that can change
// the region's dynamic behavior (its own body or any helper it calls,
// directly or transitively) changes the fingerprint, while edits to
// unrelated functions leave it untouched.
func (c *Code) RegionFingerprint(fi int) string {
	closure := []int{fi}
	seen := map[int]bool{fi: true}
	for i := 0; i < len(closure); i++ {
		for _, ce := range c.callees(closure[i]) {
			if !seen[ce] {
				seen[ce] = true
				closure = append(closure, ce)
			}
		}
	}
	sort.Ints(closure)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(closure)))
	for _, f := range closure {
		put(uint64(f))
		c.hashFunc(h, f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
