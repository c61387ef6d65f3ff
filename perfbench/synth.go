package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"flexflow"
	"flexflow/internal/search"
)

// search-synth50k: one mcmc Optimize call on the ~50k-task synthetic
// model over a 4-GPU node, from the default initial candidates (data
// parallel plus one seeded random strategy: two chains), uniform
// locality and a fixed proposal count. Delta simulation dominates its
// CPU; the estimator and server do almost nothing.
const (
	synthModel = "synth-50k"
	synthGPUs  = 4
	// synthIters is MaxIters per chain: about 197 proposals in all.
	synthIters = 100
	// synthWorkers is the worker bound the searches run under. The two
	// chains run one after the other, so a search needs one core, and
	// a neighbour taking one of the machine's cores for a while does
	// not stretch its wall clock (with both chains in parallel it did,
	// by a third under one busy neighbour thread). Results are the same
	// for every bound.
	synthWorkers = 1
)

type synthProblem struct {
	g    *flexflow.Graph
	topo *flexflow.Topology
	dp   time.Duration // simulated data-parallel iteration time
}

// synthSetup builds the model and topology and simulates data
// parallelism, the baseline speedup_vs_dp is measured against.
func synthSetup() (synthProblem, error) {
	g, err := flexflow.Model(synthModel)
	if err != nil {
		return synthProblem{}, err
	}
	topo := flexflow.NewSingleNode(synthGPUs, "P100")
	dp, _ := flexflow.Simulate(g, topo, flexflow.DataParallel(g, topo))
	return synthProblem{g: g, topo: topo, dp: dp}, nil
}

// synthOptions returns the options of search k of a run: each draws
// its seed, and so its random initial strategy and chain streams, from
// the workload seed.
func synthOptions(seed int64, k int) flexflow.OptimizeOptions {
	return flexflow.OptimizeOptions{MaxIters: synthIters, Seed: subSeed(subSeed(seed, streamSearch), uint64(k))}
}

// synthSeeds is how many distinct searches a run cycles through until
// the measured phase is over. Taking the median over several random
// initial strategies keeps the figures of one workload seed close to
// those of another, and every repeat of a search is checked against
// its first run (the determinism self-check).
const synthSeeds = 3

// measureSynth times Optimize calls and round-trips every returned
// strategy through ExportStrategy/ImportStrategy.
func measureSynth(b *bench) {
	flexflow.SetWorkers(synthWorkers)
	var p synthProblem
	var err error
	b.set("setup_s", setupMedian(func() { p, err = synthSetup() }))
	if err != nil {
		b.op(err)
		return
	}
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		b.op(err)
		return
	}

	type firstRun struct {
		res  flexflow.Result
		data []byte
	}
	var firsts [synthSeeds]*firstRun
	var walls, cpus, rates []float64
	ok := 0
	heap := watchHeap()
	start := time.Now()
	for rep := 0; rep <= synthSeeds || fits(start, b.seconds, walls); rep++ {
		k := rep % synthSeeds
		c0, t0 := cpuTime(), time.Now()
		res, err := opt.Optimize(context.Background(), flexflow.Problem{Graph: p.g, Topology: p.topo}, synthOptions(b.seed, k))
		wall, cpu := time.Since(t0), cpuTime()-c0
		heap.window()
		walls, cpus = append(walls, secs(wall)), append(cpus, secs(cpu))
		rates = append(rates, float64(res.Iters)/secs(wall))
		fmt.Fprintf(os.Stderr, "perfbench: optimize %d: %d proposals, wall %.3fs, cpu %.3fs\n", rep, res.Iters, secs(wall), secs(cpu))
		if err == nil {
			var data []byte
			data, err = checkStrategy(p.g, p.topo, res.Best)
			switch f := firsts[k]; {
			case err != nil:
			case f == nil:
				firsts[k] = &firstRun{res, data}
			case res.BestCost != f.res.BestCost || res.Iters != f.res.Iters || !bytes.Equal(data, f.data):
				err = fmt.Errorf("search %d of seed %d found %v in %d proposals on repeat, %v in %d on its first run",
					k, b.seed, res.BestCost, res.Iters, f.res.BestCost, f.res.Iters)
			}
		}
		b.op(err)
		if err == nil {
			ok++
		}
	}
	b.set("peak_heap_mb", heap.medianPeakMB())

	var speedups []float64
	for _, f := range firsts {
		if f != nil {
			resim, _ := flexflow.Simulate(p.g, p.topo, f.res.Best)
			speedups = append(speedups, ratio(float64(p.dp), float64(resim)))
		}
	}
	b.set("wall_s", median(walls))
	b.set("cpu_s", median(cpus))
	setLatency(b, median(walls)*1e3)
	b.set("goodput_rps", float64(ok)/floatSum(walls))
	b.set("proposals_per_s", median(rates))
	b.set("speedup_vs_dp", geomean(speedups))
}

// checkStrategy round-trips a returned strategy through
// ExportStrategy/ImportStrategy (which validates it against the graph and
// topology) and returns the exported form.
func checkStrategy(g *flexflow.Graph, topo *flexflow.Topology, s *flexflow.Strategy) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("no strategy returned")
	}
	data, err := flexflow.ExportStrategy(g, s)
	if err != nil {
		return nil, fmt.Errorf("export strategy: %w", err)
	}
	back, err := flexflow.ImportStrategy(data, g, topo)
	if err != nil {
		return nil, fmt.Errorf("import strategy: %w", err)
	}
	if !back.Equal(s) {
		return nil, fmt.Errorf("strategy changed in an export/import round trip")
	}
	return data, nil
}

// traceSynth runs the search through the facade and through
// search.MCMC plain and traced under the CPU profiler, then probes the
// layers from the search's two initial strategies.
func traceSynth(b *bench) {
	flexflow.SetWorkers(synthWorkers)
	p, err := synthSetup()
	if err != nil {
		b.op(err)
		return
	}
	tr := newTracer()
	cells := []searchCell{{name: synthModel, g: p.g, topo: p.topo, opts: synthOptions(b.seed, 0)}}
	profileShares(b, func() { probeSearches(b, tr, cells) })
	// The layer probe starts from the search's two initial strategies.
	inits := search.Initials(p.g, p.topo, cells[0].opts.Seed, false)
	probeLayers(b, tr, []cell{
		{name: synthModel + "/dp", g: p.g, topo: p.topo, init: inits[0]},
		{name: synthModel + "/random", g: p.g, topo: p.topo, init: inits[1]},
	})
	b.bypassed("server.", "experiments.", "loadgen.")
	finishTrace(b, tr)
}
