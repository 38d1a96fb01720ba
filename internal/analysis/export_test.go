package analysis

// Generation counts invalidations; it distinguishes analysis results
// computed before and after a mutating pass.
func (am *Manager) Generation() uint64 { return am.gen }
