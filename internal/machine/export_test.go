package machine

import (
	"crypto/sha256"
	"fmt"

	"rskip/internal/ir"
)

// Snapshots returns the resumable snapshots a capture holds.
func Snapshots(c *Capture) []*Snapshot { return c.snaps }

// FlipDead returns a copy of s in which bit is flipped in every
// register the liveness solution of code calls dead — in each frame at
// its (block, ip), and in a caller frame also the callee's retDst,
// which the return overwrites — and the number of registers flipped.
func FlipDead(code *Code, s *Snapshot, bit uint) (*Snapshot, int) {
	c := *s
	c.frames = make([]frameState, len(s.frames))
	flipped := 0
	for i, sf := range s.frames {
		f := sf
		f.regs = append([]uint64(nil), sf.regs...)
		set := code.liveAt(f.fi, f.block, f.ip)
		for r := range f.regs {
			ret := i+1 < len(s.frames) && int(s.frames[i+1].retDst) == r
			if ret || !isLive(set, ir.Reg(r)) {
				f.regs[r] ^= 1 << (bit % 64)
				flipped++
			}
		}
		c.frames[i] = f
	}
	return &c, flipped
}

// FuncFingerprint hashes one function's decoded content in isolation.
func (c *Code) FuncFingerprint(fi int) string {
	h := sha256.New()
	c.hashFunc(h, fi)
	return fmt.Sprintf("%x", h.Sum(nil))
}
