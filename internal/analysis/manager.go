package analysis

import "rskip/internal/ir"

// FuncAnalyses bundles the per-function structural analyses the
// compile pipeline keeps re-deriving: the control-flow graph, the
// immediate-dominator array, the natural-loop forest, and the
// block→innermost-loop map. A bundle is valid for as long as the
// function's block structure is unchanged; instruction insertions that
// leave terminators alone (the protection transforms' only mutation
// inside a fixpoint step) do not invalidate it.
type FuncAnalyses struct {
	CFG   *CFG
	Idom  []int
	Loops []Loop
	Inner []int
}

// Manager caches analyses for one module across the passes of a
// compile pipeline. Per-function bundles, the module-level function
// cost memo, and candidate-detection results are computed on first
// use and served from the cache until a pass reports a mutation
// through Invalidate/InvalidateAll, which bumps the generation
// counter. A Manager is not safe for concurrent use; each pipeline
// (goroutine) owns its own.
type Manager struct {
	mod *ir.Module
	gen uint64

	fns   map[int]*FuncAnalyses
	cost  map[int]int         // shared FuncCost memo
	cands map[int][]Candidate // keyed by normalized cost threshold

	hits, misses uint64
}

// NewManager returns an empty cache bound to the module.
func NewManager(m *ir.Module) *Manager {
	return &Manager{
		mod:   m,
		fns:   map[int]*FuncAnalyses{},
		cost:  map[int]int{},
		cands: map[int][]Candidate{},
	}
}

// Module returns the module the manager is bound to.
func (am *Manager) Module() *ir.Module { return am.mod }

// ManagerStats reports cache effectiveness.
type ManagerStats struct {
	Hits, Misses uint64
}

// Stats returns the cumulative hit/miss counts across all cached
// analysis kinds.
func (am *Manager) Stats() ManagerStats {
	return ManagerStats{Hits: am.hits, Misses: am.misses}
}

// Func returns the cached analysis bundle for function fi, computing
// it on first use.
func (am *Manager) Func(fi int) *FuncAnalyses {
	if fa, ok := am.fns[fi]; ok {
		am.hits++
		return fa
	}
	am.misses++
	f := am.mod.Funcs[fi]
	cfg := BuildCFG(f)
	idom := Dominators(cfg)
	loops := FindLoops(cfg, idom)
	fa := &FuncAnalyses{
		CFG:   cfg,
		Idom:  idom,
		Loops: loops,
		Inner: InnermostLoop(len(f.Blocks), loops),
	}
	am.fns[fi] = fa
	return fa
}

// FuncCost returns the memoized static cost of one call to function
// fi. The memo is shared across the whole pipeline and cleared on any
// invalidation (costs are transitive through call chains).
func (am *Manager) FuncCost(fi int) int {
	if c, ok := am.cost[fi]; ok {
		am.hits++
		return c
	}
	am.misses++
	return funcCost(am.mod, fi, am.cost, map[int]bool{})
}

// Candidates returns the candidate loops for the module at the given
// options, served from the cache when the module is unchanged since
// the last detection at the same threshold.
func (am *Manager) Candidates(opt Options) []Candidate {
	key := normalizeThreshold(opt)
	if cs, ok := am.cands[key]; ok {
		am.hits++
		return cs
	}
	am.misses++
	opt.CostThreshold = key
	var out []Candidate
	for fi, f := range am.mod.Funcs {
		if f.Internal {
			continue
		}
		fa := am.Func(fi)
		for li := range fa.Loops {
			if c, ok := examineLoop(am, fi, f, fa.CFG, fa.Idom, fa.Loops, fa.Inner, li, opt); ok {
				out = append(out, c)
			}
		}
	}
	am.cands[key] = out
	return out
}

// SeedCandidates pre-populates the candidate cache with results
// computed on a structurally identical module — a Clone shares block
// and register indexes with its source, so candidates found on one
// are valid on the other. The build pipeline uses this to fold the
// detection pass it already ran on the unprotected module into the
// RSkip clone's fixpoint instead of recomputing it.
func (am *Manager) SeedCandidates(opt Options, cands []Candidate) {
	am.cands[normalizeThreshold(opt)] = cands
}

func normalizeThreshold(opt Options) int {
	if opt.CostThreshold == 0 {
		return DefaultCostThreshold
	}
	return opt.CostThreshold
}

// Invalidate drops everything that may depend on function fi: its
// analysis bundle, the whole cost memo (callers embed callee costs),
// and all cached candidate sets. Newly appended functions need no
// invalidation — they simply miss on first use.
func (am *Manager) Invalidate(fi int) {
	delete(am.fns, fi)
	am.dropModuleLevel()
}

// InvalidateAll drops every cached result; a pass that mutates
// arbitrary functions (duplication, CFC, optimization) must call it.
func (am *Manager) InvalidateAll() {
	am.fns = map[int]*FuncAnalyses{}
	am.dropModuleLevel()
}

func (am *Manager) dropModuleLevel() {
	am.cost = map[int]int{}
	am.cands = map[int][]Candidate{}
	am.gen++
}
