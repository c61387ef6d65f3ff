package search

import (
	"context"
	"time"
)

// ProgressEvent is one streaming progress sample from a running
// optimizer. Every algorithm in this package reports through the same
// event shape so consumers (the CLI's -progress mode, the facade's
// OnEvent callback) need no per-algorithm handling.
//
// Events are emitted from the optimizer's worker goroutines as they
// happen, so a callback must be safe for concurrent use and must not
// block for long: the emitting chain stalls while the callback runs.
// Event *ordering across chains* is scheduling-dependent; the search
// result itself stays deterministic regardless of what the callback
// observes.
type ProgressEvent struct {
	// Algorithm names the emitter ("mcmc", "exhaustive", "optcnn",
	// "reinforce", "polish").
	Algorithm string
	// Chain identifies the emitting unit of parallelism: the MCMC chain
	// index, the exhaustive DFS prefix index, the REINFORCE batch
	// index, or the polish round.
	Chain int
	// Iter counts proposals (episodes, leaves, rounds) completed by the
	// emitting chain when the event fired.
	Iter int
	// BestCost is the best simulated iteration time known to the
	// emitting chain.
	BestCost time.Duration
	// Elapsed is the chain's elapsed virtual search time where the
	// algorithm keeps a virtual clock (MCMC — proposals are priced by
	// the installed cost profile, or the built-in defaults when none is
	// installed; see internal/calib), and wall clock otherwise.
	Elapsed time.Duration
	// Final marks the last event a chain emits before returning.
	Final bool
}

// emit invokes cb(ev) if a callback is installed.
func emit(cb func(ProgressEvent), ev ProgressEvent) {
	if cb != nil {
		cb(ev)
	}
}

// cancelled reports whether ctx has been cancelled, without blocking.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
