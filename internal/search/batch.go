package search

import (
	"time"

	"flexflow/internal/config"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// Proposal is one candidate configuration change: replace the
// parallelization config of op OpID with Cfg, leaving every other op at
// the plan's base strategy.
type Proposal struct {
	OpID int
	Cfg  *config.Config
}

// EvaluateBatch prices N single-op proposals against one plan, each
// relative to the plan's base strategy, and returns the predicted
// makespan of every proposal in order. It allocates one Plan.Instance
// and one State clone for the whole batch instead of one per proposal —
// the amortization behind the Neighborhood sweep and any caller that
// evaluates many candidates against the same starting point.
//
// Consecutive proposals for the same op chain directly: replacing an
// op's config again already prices the new candidate against the base
// strategy, so no revert is needed in between (the property the
// Neighborhood candidate walk has always relied on). A revert delta is
// inserted only when the batch moves to a different op. Grouping a
// batch by op is therefore the efficient layout; any order is correct.
//
// Each returned cost equals a from-scratch full simulation of the
// batch instance's graph at that point (the differential contract of
// internal/sim). Exact ready-time ties break by task ID, so a cost can
// differ on ties from one computed on an independently built graph —
// the same caveat every delta-evaluating search loop has; for a fixed
// proposal list the results are bit-identical across calls.
//
// base must be the simulated timeline of plan's base graph (or a clone
// of it). Neither is written: the batch works on private copies.
func EvaluateBatch(plan *taskgraph.Plan, base *sim.State, props []Proposal) []time.Duration {
	if len(props) == 0 {
		return make([]time.Duration, 0)
	}
	tg := plan.Instance()
	st := base.CloneFor(tg)
	// The shared base strat is only read; reverts clone its configs so
	// the private instance never aliases the frozen storage.
	baseStrat := plan.Base().Strat
	costs := make([]time.Duration, len(props))
	curOp := -1
	for i, p := range props {
		if curOp >= 0 && p.OpID != curOp {
			st.ApplyDelta(tg.ReplaceConfig(curOp, baseStrat.Config(curOp).Clone()))
		}
		curOp = p.OpID
		costs[i] = st.ApplyDelta(tg.ReplaceConfig(p.OpID, p.Cfg))
	}
	return costs
}
