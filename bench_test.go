// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact; see docs/EXPERIMENTS.md's registry map) plus substrate
// micro-benchmarks for the components the paper's claims rest on: task
// graph construction, the full vs delta simulation algorithms (Table 4's
// subject), and the search loop.
//
// Run everything:
//
//	go test -bench=. -benchmem
package flexflow

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/experiments"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/runtime"
	"flexflow/internal/search"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// benchScale keeps benchmark iterations fast while exercising the same
// code paths as the paper-scale runs.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name:         "bench",
		ModelFactor:  8,
		DeviceCounts: []int{1, 4},
		SearchIters:  60,
		SearchBudget: 5 * time.Second,
		Seed:         1,
	}
}

func benchGraph(b *testing.B, name string, factor int) *graph.Graph {
	b.Helper()
	spec, err := models.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.BuildScaled(factor)
}

func newEstimator() perfmodel.Estimator {
	return perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
}

// --- Per-figure / per-table benchmarks -------------------------------

func BenchmarkTable1ParallelizableDims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(); len(t.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig7 measures one Figure 7 cell: baselines + search for one
// model on one cluster size.
func BenchmarkFig7(b *testing.B) {
	for _, model := range []string{"alexnet", "inception-v3", "resnet-101", "rnntc", "rnnlm", "nmt"} {
		b.Run(model, func(b *testing.B) {
			s := benchScale()
			for i := 0; i < b.N; i++ {
				experiments.Fig7(context.Background(), s, []string{model}, []string{"P100"})
			}
		})
	}
}

func BenchmarkFig8NMT(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(context.Background(), s, 4)
	}
}

func BenchmarkFig9EndToEnd(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(context.Background(), s, 4)
	}
}

func BenchmarkFig10aVsReinforce(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig10a(context.Background(), s)
	}
}

func BenchmarkFig10bVsOptCNN(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig10b(context.Background(), s, 4)
	}
}

func BenchmarkFig11SimulatorAccuracy(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(s, 3)
	}
}

func BenchmarkFig12SearchCurves(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig12(context.Background(), s, 4)
	}
}

// BenchmarkTable4 is the paper's headline simulator ablation: the same
// search with the full vs the delta simulation algorithm.
func BenchmarkTable4(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"full-sim", true}, {"delta-sim", false}} {
		b.Run(mode.name, func(b *testing.B) {
			g := benchGraph(b, "rnnlm", 8)
			topo := device.ClusterFor("P100", 4)
			for i := 0; i < b.N; i++ {
				est := newEstimator()
				opts := search.DefaultOptions()
				opts.MaxIters = 60
				opts.FullSim = mode.full
				search.MCMC(context.Background(), g, topo, est, []*config.Strategy{config.DataParallel(g, topo)}, opts)
			}
		})
	}
}

func BenchmarkFig13CaseInception(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.CaseStudy(context.Background(), s, "inception-v3")
	}
}

func BenchmarkFig14CaseNMT(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.CaseStudy(context.Background(), s, "nmt")
	}
}

// --- Concurrent runtime benchmarks ------------------------------------

// mcmcBenchInitials builds an 8-chain initial set (data parallelism plus
// seeded random strategies) so the chain pool has enough independent
// work to spread across cores.
func mcmcBenchInitials(g *graph.Graph, topo *device.Topology) []*config.Strategy {
	rng := rand.New(rand.NewSource(1))
	initials := []*config.Strategy{config.DataParallel(g, topo)}
	for len(initials) < 8 {
		initials = append(initials, config.Random(g, topo, rng))
	}
	return initials
}

func benchMCMC(b *testing.B, workers int) {
	g := benchGraph(b, "rnnlm", 8)
	topo := device.NewSingleNode(4, "P100")
	initials := mcmcBenchInitials(g, topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := newEstimator()
		opts := search.DefaultOptions()
		opts.MaxIters = 60
		opts.Workers = workers
		search.MCMC(context.Background(), g, topo, est, initials, opts)
	}
}

// BenchmarkMCMCSerial and BenchmarkMCMCParallel run the identical
// 8-chain search with one worker vs all CPUs; the parallel run returns
// bit-identical results (see search's determinism contract), so the
// ratio of these two is pure speedup.
func BenchmarkMCMCSerial(b *testing.B)   { benchMCMC(b, 1) }
func BenchmarkMCMCParallel(b *testing.B) { benchMCMC(b, 0) }

// BenchmarkExperimentsSuite runs a representative slice of the registry
// (the per-data-point sweeps the harness fans out) on a pool of one vs
// the full worker pool (SetWorkers), tracking the suite-level speedup in the bench
// trajectory. The optimality and case-study runners are excluded — their
// cost is dominated by one exhaustive DFS and an 8x-budget search, which
// BenchmarkMCMC* and the search package's own tests already cover.
func BenchmarkExperimentsSuite(b *testing.B) {
	ids := []string{"table1", "fig7", "fig8", "fig9", "fig11", "table4", "profiling"}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.workers > 0 {
				defer SetWorkers(WorkerBound())
				SetWorkers(mode.workers)
			}
			s := benchScale()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					if _, err := experiments.Run(context.Background(), id, s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchNeighborhood sweeps the full one-op neighbour set of data
// parallelism on rnnlm — the Polish inner loop — with a fixed worker
// count. Serial and parallel return bit-identical results (see
// TestNeighborhoodParallelMatchesSerial), so the ratio of the two
// benchmarks below is pure speedup.
func benchNeighborhood(b *testing.B, workers int) {
	g := benchGraph(b, "rnnlm", 8)
	topo := device.NewSingleNode(4, "P100")
	est := newEstimator()
	s := config.DataParallel(g, topo)
	enum := config.EnumOptions{MaxDegree: 4}
	// Warm the estimator cache so both variants measure the sweep, not
	// first-touch profiling.
	search.Neighborhood(g, topo, est, s, enum, taskgraph.Options{}, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.Neighborhood(g, topo, est, s, enum, taskgraph.Options{}, workers)
	}
}

func BenchmarkNeighborhoodSerial(b *testing.B)   { benchNeighborhood(b, 1) }
func BenchmarkNeighborhoodParallel(b *testing.B) { benchNeighborhood(b, 0) }

// BenchmarkChainSetup measures what it costs to stand up one MCMC chain
// (task graph + simulated timeline), the per-chain setup the Plan/State
// split exists to shrink: "build-per-chain" is the old path (every
// chain runs Build + Simulate itself), "shared-plan" is the new one
// (chains clone a structural Instance and a base-timeline State from a
// Plan compiled once). Run with -benchmem: the allocs/op gap is the
// acceptance criterion.
func BenchmarkChainSetup(b *testing.B) {
	g := benchGraph(b, "nmt", 8)
	topo := device.NewSingleNode(4, "P100")
	est := newEstimator()
	s := config.DataParallel(g, topo)
	b.Run("build-per-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tg := taskgraph.Build(g, topo, s.Clone(), est, taskgraph.Options{})
			sim.NewState(tg).Simulate()
		}
	})
	b.Run("shared-plan", func(b *testing.B) {
		plan := taskgraph.Compile(g, topo, s.Clone(), est, taskgraph.Options{})
		base := sim.NewState(plan.Base())
		base.Simulate()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := plan.Instance()
			st := base.CloneFor(inst)
			_ = st.Makespan // the chain's starting cost, no Simulate needed
		}
	})
}

// BenchmarkChainSetupSynth100k is BenchmarkChainSetup at the synthetic
// 100k-task roofline (see internal/models/synth.go): with copy-on-write
// instances the shared-plan cost is dominated by the timeline clone and
// stays far under the per-chain Build+Simulate, no matter the scale.
func BenchmarkChainSetupSynth100k(b *testing.B) {
	g := benchGraph(b, "synth-100k", 1)
	topo := device.NewSingleNode(4, "P100")
	est := newEstimator()
	s := config.DataParallel(g, topo)
	b.Run("build-per-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tg := taskgraph.Build(g, topo, s.Clone(), est, taskgraph.Options{})
			sim.NewState(tg).Simulate()
		}
	})
	b.Run("shared-plan", func(b *testing.B) {
		plan := taskgraph.Compile(g, topo, s.Clone(), est, taskgraph.Options{})
		base := sim.NewState(plan.Base())
		base.Simulate()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := plan.Instance()
			st := base.CloneFor(inst)
			_ = st.Makespan
		}
	})
}

// --- Substrate micro-benchmarks ---------------------------------------

// BenchmarkTaskGraphBuild measures BUILDTASKGRAPH (Algorithm 1 line 2).
func BenchmarkTaskGraphBuild(b *testing.B) {
	for _, model := range []string{"inception-v3", "nmt"} {
		b.Run(model, func(b *testing.B) {
			g := benchGraph(b, model, 8)
			topo := device.NewSingleNode(4, "P100")
			s := config.DataParallel(g, topo)
			est := newEstimator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				taskgraph.Build(g, topo, s, est, taskgraph.Options{})
			}
		})
	}
}

// BenchmarkFullSimulation measures Algorithm 1's timeline construction.
func BenchmarkFullSimulation(b *testing.B) {
	for _, model := range []string{"inception-v3", "nmt"} {
		b.Run(model, func(b *testing.B) {
			g := benchGraph(b, model, 8)
			topo := device.NewSingleNode(4, "P100")
			tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), newEstimator(), taskgraph.Options{})
			st := sim.NewState(tg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Simulate()
			}
		})
	}
}

// BenchmarkDeltaSimulation measures Algorithm 2: one config change,
// incremental re-simulation, and the revert. The proposal sequence
// (random op, random candidate, the original config to revert to) is
// generated before the timer starts, so ns/op and allocs/op measure
// ReplaceConfig+ApplyDelta only — not the RNG or config cloning of the
// harness.
func BenchmarkDeltaSimulation(b *testing.B) {
	for _, c := range []struct {
		model  string
		factor int
	}{
		{"inception-v3", 8},
		{"nmt", 8},
		// The synthetic 50k-task class (factor 1 = full size): the delta
		// algorithm's per-proposal cost must stay local to the mutated op
		// even when the surrounding graph is two orders of magnitude
		// bigger than the paper's models.
		{"synth-50k", 1},
	} {
		model, factor := c.model, c.factor
		b.Run(model, func(b *testing.B) {
			g := benchGraph(b, model, factor)
			topo := device.NewSingleNode(4, "P100")
			tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), newEstimator(), taskgraph.Options{})
			st := sim.NewState(tg)
			st.Simulate()
			rng := rand.New(rand.NewSource(1))
			ops := g.ComputeOps()
			type proposal struct {
				opID     int
				cfg, old *config.Config
			}
			// Every iteration reverts, so each proposal's "old" config is
			// the op's original one regardless of cycling order.
			props := make([]proposal, 256)
			for i := range props {
				op := ops[rng.Intn(len(ops))]
				props[i] = proposal{
					opID: op.ID,
					cfg:  config.RandomConfig(op, topo, rng),
					old:  tg.Strat.Config(op.ID).Clone(),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := props[i%len(props)]
				st.ApplyDelta(tg.ReplaceConfig(p.opID, p.cfg))
				st.ApplyDelta(tg.ReplaceConfig(p.opID, p.old))
			}
		})
	}
}

// BenchmarkProposalThroughput is the tracked search-throughput artifact
// (see docs/EXPERIMENTS.md's BENCH_*.json trajectory): it prices a
// pre-generated, op-grouped proposal batch through search.EvaluateBatch
// against one shared plan and base timeline — the delta-simulator hot
// path as the MCMC/Neighborhood inner loops drive it — and reports
// proposals/sec/core as a custom metric. The batch runs on one
// goroutine, so proposals per wall-second here are proposals per
// core-second.
func BenchmarkProposalThroughput(b *testing.B) { benchProposalThroughput(b, "nmt", 8) }

// BenchmarkProposalThroughputSynth50k is the same artifact at the
// synthetic 50k-task class: steady-state proposal pricing against a
// graph far past the paper's model sizes, where the copy-on-write
// instance and the delta simulator carry the whole load.
func BenchmarkProposalThroughputSynth50k(b *testing.B) { benchProposalThroughput(b, "synth-50k", 1) }

func benchProposalThroughput(b *testing.B, model string, factor int) {
	g := benchGraph(b, model, factor)
	topo := device.NewSingleNode(4, "P100")
	est := newEstimator()
	plan := taskgraph.Compile(g, topo, config.DataParallel(g, topo), est, taskgraph.Options{})
	base := sim.NewState(plan.Base())
	base.Simulate()

	rng := rand.New(rand.NewSource(1))
	ops := g.ComputeOps()
	const batch = 64
	props := make([]search.Proposal, 0, batch)
	for len(props) < batch {
		// Four candidates per op (grouped, so same-op proposals chain
		// without reverts), skipping candidates equal to the original.
		op := ops[(len(props)/4)%len(ops)]
		cand := config.RandomConfig(op, topo, rng)
		if cand.Equal(plan.Base().Strat.Config(op.ID)) {
			continue
		}
		props = append(props, search.Proposal{OpID: op.ID, Cfg: cand})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.EvaluateBatch(plan, base, props)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*batch)/secs, "proposals/sec/core")
	}
}

// BenchmarkMCMCLocality is the proposal-locality sweep behind
// Options.Locality (the PR 10 trajectory artifact, gated by
// TestBenchPR10LocalityImproves): one single-chain delta-mode MCMC walk
// per policy on the synthetic 50k- and 100k-task classes, every policy
// at the same iteration budget from the same data-parallel start. Each
// run reports two custom metrics next to ns/op: best-makespan-us (the
// search quality the walk reached) and suffix-tasks/proposal (the mean
// evaluated-suffix size the delta simulator paid per proposal — the
// quantity locality-aware sampling exists to shrink). The acceptance
// comparison is within-file across policies: a non-uniform policy must
// either beat uniform's makespan >=1.3x at the equal budget, or match
// its quality while re-evaluating >=1.3x fewer suffix tasks.
func BenchmarkMCMCLocality(b *testing.B) {
	for _, c := range []struct {
		model string
		iters int
	}{
		{"synth-50k", 240},
		{"synth-100k", 240},
	} {
		g := benchGraph(b, c.model, 1)
		topo := device.NewSingleNode(4, "P100")
		initials := []*config.Strategy{config.DataParallel(g, topo)}
		for _, loc := range search.Localities() {
			b.Run(fmt.Sprintf("%s/locality=%s", c.model, loc), func(b *testing.B) {
				var best time.Duration
				var suffix, iters int64
				for i := 0; i < b.N; i++ {
					est := newEstimator()
					opts := search.DefaultOptions()
					opts.MaxIters = c.iters
					opts.Locality = loc
					res := search.MCMC(context.Background(), g, topo, est, initials, opts)
					if res.Best == nil || res.Iters == 0 {
						b.Fatalf("locality=%s: degenerate search: %+v", loc, res)
					}
					best = res.BestCost
					suffix += res.SimStats.SuffixTasks
					iters += int64(res.Iters)
				}
				b.ReportMetric(float64(best.Microseconds()), "best-makespan-us")
				b.ReportMetric(float64(suffix)/float64(iters), "suffix-tasks/proposal")
			})
		}
	}
}

// BenchmarkRuntimeEmulation measures one "real" iteration of the
// distributed-runtime emulator.
func BenchmarkRuntimeEmulation(b *testing.B) {
	g := benchGraph(b, "inception-v3", 8)
	topo := device.NewSingleNode(4, "P100")
	tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), newEstimator(), taskgraph.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.Execute(tg, runtime.DefaultOptions(int64(i)))
	}
}

// BenchmarkMeasuringEstimator shows the signature cache collapsing
// repeated queries (the "tens of milliseconds" profiling claim).
func BenchmarkMeasuringEstimator(b *testing.B) {
	g := benchGraph(b, "nmt", 8)
	topo := device.NewSingleNode(4, "P100")
	analytic := perfmodel.NewAnalyticModel()
	est := perfmodel.NewMeasuringEstimator(analytic.ExecTime, 1)
	dev := topo.Device(0)
	ops := g.ComputeOps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		est.ExecTime(op, op.Out.FullRegion(), dev, perfmodel.Forward)
	}
}
