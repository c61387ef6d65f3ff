// Package search implements the execution optimizer of Section 6 — a
// Markov Chain Monte Carlo search over the SOAP space using the
// execution simulator as its cost oracle — together with the baselines
// the paper evaluates against: exhaustive DFS with admissible pruning
// (Section 8.4), a local-optimality checker, the OptCNN dynamic program,
// and a REINFORCE-style device-placement learner.
//
// Every optimizer takes a context.Context and stops promptly when it is
// cancelled, returning the best strategy found so far; streaming
// progress is reported through an OnEvent callback (see ProgressEvent).
//
// # Concurrency and determinism
//
// Every fan-out in this package — MCMC chains, exhaustive DFS
// subtrees, REINFORCE episode rollouts, Neighborhood candidate sweeps
// — runs on the single process-wide worker pool (internal/par), sized
// once with par.SetWorkers. Nested fan-out (a Neighborhood sweep
// inside a Polish round inside an experiments cell) composes under
// that one bound via caller-runs scheduling instead of multiplying
// pools; the per-search Workers fields cap one search's share of the
// pool. The full repo-wide contract is written down in
// docs/CONCURRENCY.md.
//
// MCMC runs its independent chains (one per initial strategy, Section
// 8.1) across that pool. Each chain is the paper's single-proposal
// walk: mutate one op, delta-simulate, then accept by the Metropolis
// rule or revert. The structure is compiled once per distinct initial
// strategy into an immutable taskgraph.Plan whose base timeline is
// simulated once; each chain then
// owns a private Plan.Instance and a sim.State cloned from the base —
// mutable simulator state is never shared between goroutines, only the
// frozen plan is — and draws from a private RNG whose seed is derived
// up front from Options.Seed and the chain index, so the random walk of
// chain i is one fixed sequence no matter how many workers execute the
// pool or in which order chains are scheduled.
//
// Budgets are charged in virtual time: every proposal costs a
// deterministic amount that depends only on the model name, the
// task-graph size and the simulation algorithm, priced by the installed
// calibration profile (calib.Active) or, when none is installed, the
// built-in order-of-magnitude constants (calib.Default). So Budget > 0
// bounds a fixed proposal count per chain and the paper's
// "no improvement for half the search time" criterion is evaluated
// against the chain's virtual clock. The determinism contract is
// therefore unconditional: for a fixed Seed and a fixed profile the
// result (Best, BestCost, Iters, Accepted, Trace, SimStats —
// everything except the wall-clock SearchTime) is bit-identical for
// every Workers value, budgeted or not, run to run. Wall-clock limits
// belong to the context (use context.WithTimeout), which trades that
// reproducibility for a hard deadline.
//
// Exhaustive fans its pruned DFS out over the same pool; BestCost stays
// deterministic (the shared bound only ever prunes subtrees that cannot
// beat it) while Explored/Pruned become scheduling-dependent.
package search

import (
	"context"
	"math"
	"math/rand"
	"time"

	"flexflow/internal/calib"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/memory"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
	"flexflow/internal/tensor"
)

// Space restricts which output-dimension kinds proposals may partition —
// the search-space ablation (the "ablation-space" experiment,
// docs/EXPERIMENTS.md).
type Space uint8

const (
	// SpaceSOAP is the full search space (the paper's contribution).
	SpaceSOAP Space = iota
	// SpaceSample only partitions the sample dimension (the space data
	// parallelism lives in, plus device placement).
	SpaceSample
	// SpaceSampleParam adds parameter-dimension partitioning (OptCNN's
	// space minus attribute dimensions, roughly).
	SpaceSampleParam
)

func (s Space) allowed() map[tensor.DimKind]bool {
	switch s {
	case SpaceSample:
		return map[tensor.DimKind]bool{tensor.Sample: true}
	case SpaceSampleParam:
		return map[tensor.DimKind]bool{tensor.Sample: true, tensor.Parameter: true}
	default:
		return nil
	}
}

// Options configure the MCMC optimizer.
type Options struct {
	// Beta is the Metropolis-Hastings temperature constant of Eq. (1).
	// The acceptance probability for a worse strategy is
	// exp(-Beta * (cost* - cost)/cost), i.e. Beta is expressed in units
	// of relative slowdown so one default works across models.
	Beta float64
	// MaxIters caps the number of proposals per initial strategy.
	MaxIters int
	// Budget caps the *virtual* search time per initial strategy
	// (0 = unlimited; MaxIters still applies). Proposals are charged a
	// deterministic cost by the installed calibration profile (see the
	// package comment), so a budgeted run executes a fixed proposal
	// count and replays exactly.
	// Bound wall-clock time through the context instead.
	Budget time.Duration
	// Seed makes the search reproducible.
	Seed int64
	// FullSim makes every proposal run the full simulation algorithm of
	// Section 5.2 — Algorithm 1 rebuilds the task graph from scratch
	// (BUILDTASKGRAPH) and re-times every task — instead of the delta
	// algorithm's incremental update. This is the Table 4 comparison.
	FullSim bool
	// Space restricts proposals (ablation).
	Space Space
	// TaskOpts are forwarded to the task-graph builder.
	TaskOpts taskgraph.Options
	// MemoryCheck rejects proposals whose per-device footprint (under
	// MemoryModel) exceeds device capacity, mirroring the memory
	// constraint the production FlexFlow runtime enforces.
	MemoryCheck bool
	// MemoryModel configures the footprint accounting when MemoryCheck
	// is set (zero value = plain SGD training).
	MemoryModel memory.Model
	// Locality selects how a chain picks the op each proposal mutates:
	// "" or LocalityUniform is the paper's uniform walk; LocalityMeasured
	// steers toward ops whose measured delta-simulation suffix is small
	// (see locality.go), using only the chain's private RNG stream and
	// per-chain state, so for a fixed (Seed, Locality, profile) the
	// Result is bit-identical across Workers values and pool sizes.
	// Ignored in FullSim mode, which rebuilds from scratch per proposal
	// and has no standing timeline to measure. See docs/ARCHITECTURE.md,
	// "Proposal locality".
	Locality Locality
	// Workers caps this search's share of the process-wide worker pool
	// (0 = the pool's full bound; see par.SetWorkers) — the per-request
	// cap flexflowd's options.workers sets. Results are identical for
	// every value and every pool size; see the package comment for the
	// determinism contract.
	Workers int
	// OnEvent, when non-nil, receives streaming progress events: one
	// per chain-best improvement plus a final event per chain. It is
	// called from the chain goroutines concurrently and must be safe
	// for concurrent use.
	OnEvent func(ProgressEvent)
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{Beta: 15, MaxIters: 2000, Seed: 1}
}

// TracePoint records search progress for Figure 12. Elapsed is the
// chain's virtual search time (deterministic), not wall clock.
type TracePoint struct {
	Iter     int
	Elapsed  time.Duration
	BestCost time.Duration
}

// Result is the outcome of a search.
type Result struct {
	Best     *config.Strategy
	BestCost time.Duration
	// Iters and Accepted count proposals and accepted proposals.
	Iters, Accepted int
	// SearchTime is the wall-clock time the optimizer ran for (the only
	// field of a Result that is not deterministic).
	SearchTime time.Duration
	Trace      []TracePoint
	SimStats   sim.Stats
}

// chainSeed derives the RNG seed of chain i from the master seed with a
// splitmix64 finalizer, giving every chain a decorrelated stream that
// depends only on (Seed, i) — never on how many chains ran before it or
// on the worker count.
func chainSeed(master int64, chain int) int64 {
	z := uint64(master) + (uint64(chain)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// MCMC explores the SOAP space from each initial strategy — one chain
// per initial, fanned out over the shared worker pool — and returns the
// best strategy discovered overall. Each chain ends when its iteration
// or virtual-time budget is exhausted, when ctx is cancelled, or when it
// has not improved its best for half of its elapsed virtual search time
// (the paper's stopping criterion on the deterministic clock). On
// cancellation the best strategy found so far is returned; inspect
// ctx.Err() to distinguish a cancelled run from a completed one.
func MCMC(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, initials []*config.Strategy, opts Options) Result {
	if opts.Beta == 0 {
		opts.Beta = DefaultOptions().Beta
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = DefaultOptions().MaxIters
	}
	// Normalize the locality policy once, before the fan-out; an unknown
	// value is a programmer error (API boundaries validate with
	// ParseLocality and return the error to the caller).
	loc, err := ParseLocality(string(opts.Locality))
	if err != nil {
		panic(err.Error())
	}
	opts.Locality = loc
	// Read the cost profile once, before the fan-out: every chain
	// prices proposals identically even if calib.Install is called
	// while the search runs.
	prof := calib.Active()
	if prof == nil {
		prof = calib.Default()
	}
	start := time.Now()
	if len(initials) == 0 {
		return Result{SearchTime: time.Since(start)}
	}
	// Force the lazy route-table build before fanning out so chains only
	// ever read the topology.
	if topo.NumDevices() > 0 {
		topo.Route(0, 0)
	}
	// Compile one immutable Plan (plus its simulated base timeline) per
	// distinct initial strategy, up front and sequentially: chains that
	// start from the same strategy share the compiled structure and the
	// base timeline read-only, and per-chain setup drops to a structural
	// clone + state copy (Plan.Instance + State.CloneFor) instead of a
	// full Build + Simulate.
	compiled := make([]chainStart, len(initials))
	for i, init := range initials {
		shared := -1
		for j := 0; j < i; j++ {
			if initials[j].Equal(init) {
				shared = j
				break
			}
		}
		if shared >= 0 {
			compiled[i] = compiled[shared]
			continue
		}
		plan := taskgraph.Compile(g, topo, init.Clone(), est, opts.TaskOpts)
		base := sim.NewState(plan.Base())
		base.Simulate()
		compiled[i] = chainStart{plan: plan, base: base}
	}
	results := make([]Result, len(initials))
	par.ForEach(opts.Workers, len(initials), func(i int) {
		rng := rand.New(rand.NewSource(chainSeed(opts.Seed, i)))
		results[i] = runChain(ctx, g, topo, est, initials[i], compiled[i], i, opts, prof, rng)
	})
	// Merge in chain-index order, so ties between chains resolve the
	// same way no matter which worker finished first.
	best := results[0]
	for _, r := range results[1:] {
		best.Trace = append(best.Trace, r.Trace...)
		best.Iters += r.Iters
		best.Accepted += r.Accepted
		best.SimStats.Pops += r.SimStats.Pops
		best.SimStats.FullSims += r.SimStats.FullSims
		best.SimStats.DeltaSims += r.SimStats.DeltaSims
		best.SimStats.SuffixTasks += r.SimStats.SuffixTasks
		best.SimStats.Fallbacks += r.SimStats.Fallbacks
		if r.BestCost < best.BestCost {
			best.Best, best.BestCost = r.Best, r.BestCost
		}
	}
	best.SearchTime = time.Since(start)
	return best
}

// chainStart is the shared, read-only starting point of a chain: the
// compiled plan of its initial strategy and the simulated base
// timeline. Chains with equal initials point at the same values.
type chainStart struct {
	plan *taskgraph.Plan
	base *sim.State
}

func runChain(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, init *config.Strategy, start0 chainStart, chain int, opts Options, prof *calib.Profile, rng *rand.Rand) Result {
	wallStart := time.Now()
	cur := init.Clone()
	// Delta mode keeps one task graph + timeline alive across proposals;
	// full mode rebuilds per proposal, exactly as Algorithm 1 does
	// (BUILDTASKGRAPH is its first step). Either way the chain starts
	// from a private instance of the shared plan: the clone preserves
	// task IDs, so the timeline (and every delta after it) is
	// bit-identical to one the chain would have built itself. CloneFor
	// copies the base state's Stats too, so the shared initial Simulate
	// is accounted once per chain, exactly as before.
	tg := start0.plan.Instance()
	st := start0.base.CloneFor(tg)
	cost := st.Makespan

	// The chain's deterministic clock: every proposal advances it by an
	// amount the profile derives only from (model, task-graph size,
	// simulation mode), so the budget and the half-time stopping
	// criterion replay exactly for a fixed profile.
	perProposal := prof.ProposalCost(g.Name, len(tg.Tasks), opts.FullSim)
	virtual := func(it int) time.Duration { return time.Duration(it) * perProposal }

	res := Result{
		Best:     cur.Clone(),
		BestCost: cost,
		Trace:    []TracePoint{{Iter: 0, Elapsed: 0, BestCost: cost}},
	}
	emit(opts.OnEvent, ProgressEvent{Algorithm: "mcmc", Chain: chain, Iter: 0, BestCost: cost})
	ops := g.ComputeOps()
	allowed := opts.Space.allowed()
	// The measured picker, or nil for the uniform walk and in FullSim
	// mode (no standing timeline to measure suffixes against — proposals
	// rebuild from scratch). It is per-chain and consumes only this
	// chain's RNG, preserving the determinism contract for every pool
	// size.
	var picker *localityPicker
	if opts.Locality == LocalityMeasured && !opts.FullSim {
		picker = newLocalityPicker(ops, st)
	}
	lastImprove := time.Duration(0) // virtual time of the last chain-best improvement

	// Incremental memory accounting: running per-device totals plus
	// per-op contributions, updated as proposals are accepted.
	var memUsage []int64
	var memCaps []int64
	opMem := map[int]map[int]int64{}
	if opts.MemoryCheck {
		memUsage = make([]int64, topo.NumDevices())
		memCaps = make([]int64, topo.NumDevices())
		for id := 0; id < topo.NumDevices(); id++ {
			if gb := topo.Device(id).MemGB; gb > 0 {
				memCaps[id] = int64(gb * 1e9)
			}
		}
		for _, op := range ops {
			fp := memory.OpFootprint(op, cur.Config(op.ID), opts.MemoryModel)
			opMem[op.ID] = fp
			for dev, b := range fp {
				memUsage[dev] += b
			}
		}
	}
	memFeasible := func(op *graph.Op, newFP map[int]int64) bool {
		old := opMem[op.ID]
		for dev, b := range newFP {
			total := memUsage[dev] - old[dev] + b
			if memCaps[dev] > 0 && total > memCaps[dev] {
				return false
			}
		}
		return true
	}
	memCommit := func(op *graph.Op, newFP map[int]int64) {
		old := opMem[op.ID]
		for dev, b := range old {
			memUsage[dev] -= b
		}
		for dev, b := range newFP {
			memUsage[dev] += b
		}
		opMem[op.ID] = newFP
	}

	for it := 1; it <= opts.MaxIters; it++ {
		if cancelled(ctx) {
			break
		}
		elapsed := virtual(it)
		if opts.Budget > 0 && elapsed > opts.Budget {
			break
		}
		// Criterion 2 of Section 6.2: stop when the best strategy has not
		// improved for half of the search time — on the chain's virtual
		// clock, so budgeted runs stop at the same proposal count every
		// run. The criterion is defined relative to the time budget, so it
		// only applies when one is set; iteration-budgeted runs (e.g. the
		// Table 4 timing comparison) execute their full proposal count.
		if opts.Budget > 0 && elapsed > 100*time.Millisecond && elapsed-lastImprove > elapsed/2 {
			break
		}
		// The uniform walk draws one Intn per proposal; the measured
		// picker draws from its weighted sampler (its own deterministic
		// sequence).
		pos := -1
		var op *graph.Op
		if picker == nil {
			op = ops[rng.Intn(len(ops))]
		} else {
			pos = picker.pick(rng)
			op = ops[pos]
		}
		// Configs are immutable once built (Strategy.Set swaps pointers,
		// never writes in place), so cur can be restored from the old
		// pointer; the instance's revert gets a private clone, so it
		// never aliases cur's storage.
		oldCfg := cur.Config(op.ID)
		newCfg := config.RandomConfigRestricted(op, topo, rng, allowed)
		if newCfg.Equal(oldCfg) {
			continue
		}
		var newFP map[int]int64
		if opts.MemoryCheck {
			newFP = memory.OpFootprint(op, newCfg, opts.MemoryModel)
			if !memFeasible(op, newFP) {
				continue // infeasible proposal: rejected outright
			}
		}

		// Price the proposal. Delta mode mutates the chain's live
		// instance and re-times only the affected suffix; full mode
		// rebuilds and re-times the whole graph, as Algorithm 1 does.
		var newCost time.Duration
		if opts.FullSim {
			cur.Set(op.ID, newCfg)
			full := taskgraph.Build(g, topo, cur.Clone(), est, opts.TaskOpts)
			fullState := sim.NewState(full)
			newCost = fullState.Simulate()
			st.Stats.FullSims++
			st.Stats.Pops += fullState.Stats.Pops
			cur.Set(op.ID, oldCfg)
		} else {
			pre := st.Stats.SuffixTasks
			newCost = st.ApplyDelta(tg.ReplaceConfig(op.ID, newCfg))
			if picker != nil {
				picker.observe(pos, float64(st.Stats.SuffixTasks-pre))
			}
		}
		res.Iters++

		if !accept(cost, newCost, opts.Beta, rng) {
			if !opts.FullSim {
				st.ApplyDelta(tg.ReplaceConfig(op.ID, oldCfg.Clone()))
			}
			continue
		}
		cur.Set(op.ID, newCfg)
		cost = newCost
		res.Accepted++
		if opts.MemoryCheck {
			memCommit(op, newFP)
		}
		if cost < res.BestCost {
			res.BestCost = cost
			res.Best = cur.Clone()
			res.Trace = append(res.Trace, TracePoint{Iter: it, Elapsed: elapsed, BestCost: cost})
			lastImprove = elapsed
			emit(opts.OnEvent, ProgressEvent{
				Algorithm: "mcmc", Chain: chain, Iter: it, BestCost: cost, Elapsed: elapsed,
			})
		}
	}
	res.SimStats = st.Stats
	res.SearchTime = time.Since(wallStart)
	emit(opts.OnEvent, ProgressEvent{
		Algorithm: "mcmc", Chain: chain, Iter: res.Iters,
		BestCost: res.BestCost, Elapsed: virtual(res.Iters), Final: true,
	})
	return res
}

// accept implements the Metropolis-Hastings criterion of Eq. (2) with a
// relative cost difference: always accept improvements; accept a
// regression of fraction f with probability exp(-beta*f).
func accept(cur, proposed time.Duration, beta float64, rng *rand.Rand) bool {
	if proposed <= cur {
		return true
	}
	if cur <= 0 {
		return false
	}
	f := float64(proposed-cur) / float64(cur)
	return rng.Float64() < math.Exp(-beta*f)
}

// Initials returns the paper's default initial candidates: data
// parallelism plus a randomly generated strategy (Section 8.1), and the
// expert-designed strategy when includeExpert is set.
func Initials(g *graph.Graph, topo *device.Topology, seed int64, includeExpert bool) []*config.Strategy {
	rng := rand.New(rand.NewSource(seed))
	out := []*config.Strategy{
		config.DataParallel(g, topo),
		config.Random(g, topo, rng),
	}
	if includeExpert {
		out = append(out, config.Expert(g, topo))
	}
	return out
}

// Evaluate simulates a strategy and returns its predicted per-iteration
// time plus the task-graph metrics.
func Evaluate(g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, s *config.Strategy, opts taskgraph.Options) (time.Duration, taskgraph.Metrics) {
	tg := taskgraph.Build(g, topo, s, est, opts)
	st := sim.NewState(tg)
	d := st.Simulate()
	return d, tg.Metrics()
}
