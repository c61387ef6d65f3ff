package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flexflow"
	"flexflow/internal/config"
	"flexflow/internal/perfmodel"
	"flexflow/internal/search"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// Seed streams: each consumer of the workload seed draws from its own.
const (
	streamSearch = iota
	streamProbe
	streamMix
)

// probeProposals is how many proposals the layer probe replays per
// cell; deltaChecks of them are also simulated in full, and the delta
// result must equal the full one bit for bit.
const (
	probeProposals = 8
	deltaChecks    = 2
)

// cell is one (graph, topology, starting strategy) problem the layer
// probe runs through the facade, taskgraph and sim layers.
type cell struct {
	name string
	g    *flexflow.Graph
	topo *flexflow.Topology
	init *flexflow.Strategy
}

// probeCounts are the machine-independent counters of one probe.
type probeCounts struct {
	tasks, props, pops, suffix, changes, fallbacks, estCalls int64
}

// probeLayers runs the probe twice: the first run, on a scratch
// tracer, warms the caches; the second is measured. Their counters must
// be identical.
func probeLayers(b *bench, tr *tracer, cells []cell) {
	warm := probeOnce(b, newTracer(), cells)
	if got := probeOnce(b, tr, cells); got != warm {
		b.failf("probe counters differ between two runs of seed %d: %+v, then %+v", b.seed, warm, got)
	}
}

// probeOnce times each layer call on every cell as its own span:
// Fingerprint, ImportGraph, Build, Compile, Simulate, Instance+CloneFor,
// then a seeded replay of ReplaceConfig -> ApplyDelta -> revert
// proposals. It sets the flexflow.fingerprint/import, taskgraph.*,
// sim.* and perfmodel.* metrics.
func probeOnce(b *bench, tr *tracer, cells []cell) probeCounts {
	est := newCountingEstimator()
	rng := rand.New(rand.NewSource(subSeed(b.seed, streamProbe)))
	var (
		tasks                     int
		props, pops, suffix, chgs int64
		shares                    float64
		fallbacks                 int
	)
	for _, c := range cells {
		root := tr.begin("probe "+c.name, -1)
		tr.do("flexflow.Fingerprint", root, func() {
			_, err := flexflow.Fingerprint(flexflow.Problem{Graph: c.g, Topology: c.topo}, "mcmc", flexflow.OptimizeOptions{Seed: b.seed})
			if err != nil {
				b.failf("probe %s: fingerprint: %v", c.name, err)
			}
		})
		data, err := flexflow.ExportGraph(c.g)
		if err != nil {
			b.failf("probe %s: export graph: %v", c.name, err)
		}
		tr.do("flexflow.ImportGraph", root, func() {
			g, err := flexflow.ImportGraph(data)
			if err != nil || g.NumOps() != c.g.NumOps() {
				b.failf("probe %s: import graph: %v", c.name, err)
			}
		})
		tr.do("taskgraph.Build", root, func() { taskgraph.Build(c.g, c.topo, c.init, est, taskgraph.Options{}) })
		var plan *taskgraph.Plan
		tr.do("taskgraph.Compile", root, func() { plan = taskgraph.Compile(c.g, c.topo, c.init.Clone(), est, taskgraph.Options{}) })
		tasks += plan.NumTasks()
		base := sim.NewState(plan.Base())
		tr.do("sim.Simulate", root, func() { base.Simulate() })
		var tg *taskgraph.TaskGraph
		var st *sim.State
		for k := 0; k < 4; k++ {
			tr.do("sim.CloneFor", root, func() { tg = plan.Instance(); st = base.CloneFor(tg) })
		}

		strat := c.init.Clone()
		ops := c.g.ComputeOps()
		before := st.Stats
		for i, draws := 0, 0; i < probeProposals && draws < 10*probeProposals; draws++ {
			op := ops[rng.Intn(len(ops))]
			old := strat.Config(op.ID)
			cfg := config.RandomConfig(op, c.topo, rng)
			if cfg.Equal(old) {
				continue
			}
			pre := st.Stats
			var cs taskgraph.ChangeSet
			tr.do("taskgraph.ReplaceConfig", root, func() { cs = tg.ReplaceConfig(op.ID, cfg) })
			chgs += int64(len(cs.Removed) + len(cs.Added) + len(cs.Touched))
			var cost time.Duration
			tr.do("sim.ApplyDelta", root, func() { cost = st.ApplyDelta(cs) })
			props++
			pops += st.Stats.Pops - pre.Pops
			suffix += st.Stats.SuffixTasks - pre.SuffixTasks
			shares += float64(st.Stats.SuffixTasks-pre.SuffixTasks) / float64(tg.Alive())
			if i < deltaChecks {
				if full := sim.NewState(tg).Simulate(); full != cost {
					b.failf("probe %s: delta simulation %v != full simulation %v", c.name, cost, full)
				}
			}
			tr.do("taskgraph.ReplaceConfig.revert", root, func() { cs = tg.ReplaceConfig(op.ID, old.Clone()) })
			tr.do("sim.ApplyDelta.revert", root, func() { st.ApplyDelta(cs) })
			i++
		}
		fallbacks += st.Stats.Fallbacks - before.Fallbacks
		tr.end(root)
	}

	total := func(name string) float64 { d, _ := tr.total(name); return secs(d) }
	b.set("flexflow.fingerprint_us", usec(tr.mean("flexflow.Fingerprint")))
	b.set("flexflow.import_graph_us", usec(tr.mean("flexflow.ImportGraph")))
	b.set("taskgraph.build_s", total("taskgraph.Build"))
	b.set("taskgraph.compile_s", total("taskgraph.Compile"))
	b.set("taskgraph.tasks", float64(tasks))
	b.set("taskgraph.replace_config_us", usec(tr.mean("taskgraph.ReplaceConfig")))
	b.set("taskgraph.changeset_tasks", ratio(float64(chgs), float64(props)))
	b.set("sim.simulate_s", total("sim.Simulate"))
	b.set("sim.clone_us", usec(tr.mean("sim.CloneFor")))
	b.set("sim.apply_delta_us", usec(tr.mean("sim.ApplyDelta")))
	b.set("sim.revert_us", usec(tr.mean("sim.ApplyDelta.revert")))
	b.set("sim.pops_per_proposal", ratio(float64(pops), float64(props)))
	b.set("sim.suffix_tasks_per_proposal", ratio(float64(suffix), float64(props)))
	b.set("sim.suffix_share", ratio(shares, float64(props)))
	b.set("sim.fallbacks", float64(fallbacks))
	est.report(b)
	return probeCounts{int64(tasks), props, pops, suffix, chgs, int64(fallbacks), est.calls.Load()}
}

// searchCell is one search the traced run makes three times: through
// the facade (flexflow.Optimize), and directly through search.MCMC with
// the initials and options the facade would use, once with a plain
// estimator (the untraced reference) and once with a counting one.
type searchCell struct {
	name string
	g    *flexflow.Graph
	topo *flexflow.Topology
	opts flexflow.OptimizeOptions
}

// directOptions mirrors how the facade's "mcmc" optimizer turns
// OptimizeOptions into search.Options.
func directOptions(o flexflow.OptimizeOptions) search.Options {
	opts := search.DefaultOptions()
	if o.MaxIters > 0 {
		opts.MaxIters = o.MaxIters
	}
	if o.Budget > 0 {
		opts.Budget = o.Budget
	}
	if o.Beta > 0 {
		opts.Beta = o.Beta
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	return opts
}

// probeSearches runs every search cell three ways and checks that
// tracing does not feed back: the traced search's BestCost, Iters,
// Accepted, SimStats and estimator counters equal the plain run's, whose
// BestCost and Iters equal the facade's. It sets the search.* and
// flexflow.optimize_s metrics and trace.overhead_s (the traced search's
// wall clock minus the plain one's). search.best_cost_resim_gap is the
// mean absolute BestCost - Simulate(Best): its sign varies from search
// to search, and signed gaps would cancel.
func probeSearches(b *bench, tr *tracer, cells []searchCell) {
	ctx := context.Background()
	var (
		iters, accepted, chains int
		pops                    int64
		gapUS, overhead         float64
	)
	for _, c := range cells {
		root := tr.begin("search "+c.name, -1)
		opt, err := flexflow.GetOptimizer("mcmc")
		if err != nil {
			b.fail(err)
			tr.end(root)
			continue
		}
		var fres flexflow.Result
		tr.do("flexflow.Optimize", root, func() {
			fres, err = opt.Optimize(ctx, flexflow.Problem{Graph: c.g, Topology: c.topo}, c.opts)
		})
		b.op(err)

		opts := directOptions(c.opts)
		plainEst := newMeasuringEstimator()
		t0 := time.Now()
		plain := search.MCMC(ctx, c.g, c.topo, plainEst, search.Initials(c.g, c.topo, opts.Seed, c.opts.IncludeExpert), opts)
		plainWall := time.Since(t0)

		est := newCountingEstimator()
		initials := search.Initials(c.g, c.topo, opts.Seed, c.opts.IncludeExpert)
		var traced search.Result
		tracedWall := tr.do("search.MCMC", root, func() {
			traced = search.MCMC(ctx, c.g, c.topo, est, initials, opts)
		})
		b.op(sameSearch(c.name, plain, traced, plainEst, est))
		if fres.BestCost != plain.BestCost || fres.Iters != plain.Iters {
			b.failf("search %s: facade found %v in %d proposals, search.MCMC %v in %d",
				c.name, fres.BestCost, fres.Iters, plain.BestCost, plain.Iters)
		}

		resim, _ := flexflow.Simulate(c.g, c.topo, traced.Best)
		gapUS += math.Abs(usec(traced.BestCost - resim))
		iters += traced.Iters
		accepted += traced.Accepted
		chains += len(initials)
		pops += traced.SimStats.Pops
		overhead += secs(tracedWall - plainWall)
		tr.end(root)
	}
	mcmc, _ := tr.total("search.MCMC")
	optimize, _ := tr.total("flexflow.Optimize")
	b.set("search.proposals", float64(iters))
	b.set("search.accept_ratio", ratio(float64(accepted), float64(iters)))
	b.set("search.chains", float64(chains))
	b.set("search.mcmc_s", secs(mcmc))
	b.set("search.pops_per_proposal", ratio(float64(pops), float64(iters)))
	b.set("search.best_cost_resim_gap", ratio(gapUS, float64(len(cells))))
	b.set("flexflow.optimize_s", secs(optimize))
	b.set("trace.overhead_s", overhead)
}

// sameSearch reports whether the traced search reproduced the plain one
// in every deterministic output. Of the estimator's counters it compares
// the call count and the distinct signatures measured: the hit/miss
// split is not deterministic when chains run in parallel, because two
// chains that miss on one signature at the same time both measure it.
func sameSearch(name string, plain, traced search.Result, plainEst *perfmodel.MeasuringEstimator, est *countingEstimator) error {
	ph, pm := plainEst.Stats()
	th, tm := est.inner.Stats()
	ps, ts := plainEst.DistinctSignatures(), est.inner.DistinctSignatures()
	if plain.BestCost != traced.BestCost || plain.Iters != traced.Iters || plain.Accepted != traced.Accepted ||
		plain.SimStats != traced.SimStats || ph+pm != th+tm || ps != ts {
		return fmt.Errorf("search %s: tracing fed back: plain {cost %v iters %d accepted %d sim %+v estimator calls %d signatures %d} traced {cost %v iters %d accepted %d sim %+v estimator calls %d signatures %d}",
			name, plain.BestCost, plain.Iters, plain.Accepted, plain.SimStats, ph+pm, ps,
			traced.BestCost, traced.Iters, traced.Accepted, traced.SimStats, th+tm, ts)
	}
	return nil
}
