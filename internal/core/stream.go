package core

import (
	"context"
	"iter"

	"repro/internal/snapshot"
)

// Solutions takes ownership of root and explores the guest's search space,
// yielding each solution as it surfaces — the pull-based streaming form of
// Run. A caller that wants only the first answer breaks out of the loop;
// the break cancels the underlying run, drains the strategy queues, and
// releases every retained snapshot before the iterator returns, so there
// is no MaxSolutions guesswork and no leaked frames.
//
// When the run ends abnormally — ctx cancelled, deadline expired, or an
// infrastructure failure — the final yield carries the zero Solution and a
// non-nil error. Solutions configures the engine's OnSolution hook and
// solution buffering for streaming (chaining any hook the caller already
// installed), so an Engine drives at most one Solutions or Run call over
// its lifetime.
//
// Snapshot ownership under KeepExitSnapshots: a yielded Solution's Final
// belongs to the consumer, who must Release it; solutions abandoned by an
// early break are released by the iterator. A chained caller hook must
// not release Final itself — the iterator manages ownership even when the
// hook returns Stop.
func (e *Engine) Solutions(ctx context.Context, root *snapshot.Context) iter.Seq2[Solution, error] {
	return func(yield func(Solution, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()

		sols := make(chan Solution)
		user := e.cfg.OnSolution
		e.cfg.OnSolution = func(s Solution) Decision {
			if user != nil && user(s) == Stop {
				if s.Final != nil {
					s.Final.Release()
				}
				return Stop
			}
			select {
			case sols <- s:
				return Continue
			case <-runCtx.Done():
				// The consumer broke out of the loop; this in-flight
				// solution is abandoned, so its snapshot is ours to drop.
				if s.Final != nil {
					s.Final.Release()
				}
				return Stop
			}
		}
		e.discard = true

		done := make(chan error, 1)
		go func() {
			_, err := e.Run(runCtx, root)
			done <- err
		}()
		for {
			select {
			case s := <-sols:
				if !yield(s, nil) {
					cancel()
					<-done // workers finished, queues drained, frames released
					return
				}
			case err := <-done:
				// Every hook send happens before Run returns, so no
				// solutions can be lost here.
				if err != nil {
					yield(Solution{}, err)
				}
				return
			}
		}
	}
}
