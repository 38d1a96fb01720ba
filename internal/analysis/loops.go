package analysis

import "sort"

// Loop is a natural loop: a back edge latch->header plus every block
// that can reach the latch without passing through the header.
type Loop struct {
	Header int
	Latch  int
	Blocks map[int]bool
	// Exits are blocks outside the loop that are successors of loop
	// blocks.
	Exits []int
	// Parent indexes the innermost enclosing loop in the FindLoops
	// result, or -1.
	Parent int
	Depth  int
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return l.Blocks[b] }

// FindLoops detects all natural loops, computing nesting relations.
// Loops sharing a header are merged (irrelevant for MiniC lowering,
// which gives each loop a unique header).
func FindLoops(c *CFG, idom []int) []Loop {
	byHeader := map[int]*Loop{}
	for b := range c.Succs {
		for _, s := range c.Succs[b] {
			if Dominates(idom, s, b) { // back edge b -> s
				l, ok := byHeader[s]
				if !ok {
					l = &Loop{Header: s, Latch: b, Blocks: map[int]bool{s: true}, Parent: -1}
					byHeader[s] = l
				}
				l.Latch = b
				collectLoopBody(c, l, b)
			}
		}
	}
	loops := make([]Loop, 0, len(byHeader))
	var headers []int
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	for _, h := range headers {
		loops = append(loops, *byHeader[h])
	}
	// Exits.
	for i := range loops {
		l := &loops[i]
		seen := map[int]bool{}
		for b := range l.Blocks {
			for _, s := range c.Succs[b] {
				if !l.Blocks[s] && !seen[s] {
					seen[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
		sort.Ints(l.Exits)
	}
	// Nesting: parent = smallest strictly-enclosing loop.
	for i := range loops {
		best := -1
		for j := range loops {
			if i == j {
				continue
			}
			if loops[j].Blocks[loops[i].Header] && len(loops[j].Blocks) > len(loops[i].Blocks) {
				if best == -1 || len(loops[j].Blocks) < len(loops[best].Blocks) {
					best = j
				}
			}
		}
		loops[i].Parent = best
	}
	for i := range loops {
		d := 0
		for p := loops[i].Parent; p != -1; p = loops[p].Parent {
			d++
		}
		loops[i].Depth = d
	}
	return loops
}

func collectLoopBody(c *CFG, l *Loop, from int) {
	if l.Blocks[from] {
		return
	}
	l.Blocks[from] = true
	for _, p := range c.Preds[from] {
		collectLoopBody(c, l, p)
	}
}

// InnermostLoop maps each block to the index of its innermost
// containing loop in loops, or -1.
func InnermostLoop(nblocks int, loops []Loop) []int {
	inner := make([]int, nblocks)
	for i := range inner {
		inner[i] = -1
	}
	for b := 0; b < nblocks; b++ {
		for i := range loops {
			if !loops[i].Blocks[b] {
				continue
			}
			if inner[b] == -1 || len(loops[i].Blocks) < len(loops[inner[b]].Blocks) {
				inner[b] = i
			}
		}
	}
	return inner
}
