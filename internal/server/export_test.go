package server

import (
	"context"

	"rskip/internal/fault"
)

// SetProgressGate makes every campaign job of s call gate after each
// progress snapshot it publishes, with the job's context, so a test
// can hold a campaign at a shard boundary until the job is cancelled
// or drained. Set it before the first submission.
func SetProgressGate(s *Server, gate func(ctx context.Context, pr fault.Progress)) {
	s.progressGate = gate
}

// WorkerPlanKey returns the plan key of the executor the worker
// holds, "" for none.
func WorkerPlanKey(w *Worker) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.key
}
