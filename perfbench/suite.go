package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"flexflow"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/experiments"
	"flexflow/internal/models"
)

// paper-suite: experiments.Run over a fixed slice of the registry at
// experiments.Quick(): many small searches over the paper's six models
// at 1-8 GPUs, Table 4's full-simulation legs included. Task-graph
// building and allocation take a far larger share of its CPU than in
// search-synth50k.
var suiteIDs = []string{"table1", "fig7", "fig8", "fig9", "fig10b", "fig11", "table4", "profiling"}

// suiteRows is the row count each experiment's table has at Quick scale.
var suiteRows = map[string]int{
	"table1": 4, "fig7": 36, "fig8": 3, "fig9": 6, "fig10b": 4, "fig11": 8, "table4": 12, "profiling": 10,
}

// wallClockCols lists the columns that report wall-clock measurements;
// every other cell of the slice is deterministic for a seed.
var wallClockCols = map[string][]int{"table4": {2, 3, 4}}

// suiteGPUs are the device counts the suite's searches share, and the
// ones the probe compiles plans for.
var suiteGPUs = []int{4, 8}

// suiteScale is experiments.Quick() as the repository defines it, seed
// included: the suite reproduces the paper's tables at their fixed
// seed, so its work does not change with the workload seed (which
// drives the traced run's probe). A workload seed that changed the
// searches would change how long their half-time stopping rule lets
// them run, and with it the suite's cost by a third.
func suiteScale() experiments.Scale { return experiments.Quick() }

type suiteCell struct {
	name string
	g    *flexflow.Graph
	topo *flexflow.Topology
}

// suiteSetup builds the six benchmark models at the scale's size on the
// P100 topologies the suite searches and simulates their data-parallel
// baselines. It stands in for the suite's set-up in setup_s: the
// measured passes do not use what it builds, because experiments.Run
// builds its own models; the traced run's probe does.
func suiteSetup(scale experiments.Scale) []suiteCell {
	var cells []suiteCell
	for _, spec := range models.Benchmarks() {
		g := spec.BuildScaled(scale.ModelFactor)
		for _, n := range suiteGPUs {
			topo := device.ClusterFor("P100", n)
			flexflow.Simulate(g, topo, flexflow.DataParallel(g, topo))
			cells = append(cells, suiteCell{name: fmt.Sprintf("%s/%d", spec.Name, n), g: g, topo: topo})
		}
	}
	return cells
}

// suiteRun runs one experiment of the slice and checks its table: the
// expected row count, full rows, and (when ref holds an earlier pass of
// the same seed) deterministic cells identical to that pass.
func suiteRun(ctx context.Context, id string, scale experiments.Scale, ref map[string][][]string) (*experiments.Table, error) {
	tabs, err := experiments.Run(ctx, id, scale)
	if err != nil {
		return nil, err
	}
	if len(tabs) != 1 {
		return nil, fmt.Errorf("%s: %d tables, want 1", id, len(tabs))
	}
	t := tabs[0]
	if len(t.Rows) != suiteRows[id] {
		return t, fmt.Errorf("%s: %d rows, want %d", id, len(t.Rows), suiteRows[id])
	}
	var cells [][]string
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return t, fmt.Errorf("%s: row %v has %d cells, want %d", id, row, len(row), len(t.Header))
		}
		det := make([]string, 0, len(row))
		for i, c := range row {
			if !slices.Contains(wallClockCols[id], i) {
				det = append(det, c)
			}
		}
		cells = append(cells, det)
	}
	if prev, ok := ref[id]; !ok {
		ref[id] = cells
	} else if !slices.EqualFunc(prev, cells, slices.Equal) {
		return t, fmt.Errorf("%s: deterministic cells differ between passes of one seed", id)
	}
	return t, nil
}

// column parses one numeric column of a table.
func column(t *experiments.Table, col int) ([]float64, error) {
	var out []float64
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return nil, fmt.Errorf("%s column %q: %w", t.ID, t.Header[col], err)
		}
		out = append(out, v)
	}
	return out, nil
}

// measureSuite runs the slice pass after pass until the measured phase
// is over (at least two passes, so every pass after the first is checked
// against it).
func measureSuite(b *bench) {
	scale := suiteScale()
	b.set("setup_s", setupMedian(func() { suiteSetup(scale) }))
	ctx := context.Background()
	ref := map[string][][]string{}
	var passWalls, passCPUs, lat, speedups, pps []float64
	ok := 0
	heap := watchHeap()
	start := time.Now()
	for pass := 0; pass < 2 || fits(start, b.seconds, passWalls); pass++ {
		c0, t0 := cpuTime(), time.Now()
		for _, id := range suiteIDs {
			t1 := time.Now()
			t, err := suiteRun(ctx, id, scale, ref)
			lat = append(lat, secs(time.Since(t1)))
			if err == nil && pass == 0 && id == "fig7" {
				speedups, err = column(t, 6)
			}
			if err == nil && id == "table4" {
				var delta []float64
				if delta, err = column(t, 3); err == nil {
					pps = append(pps, float64(scale.SearchIters*len(delta))/floatSum(delta))
				}
			}
			b.op(err)
			if err == nil {
				ok++
			}
		}
		passWalls = append(passWalls, secs(time.Since(t0)))
		passCPUs = append(passCPUs, secs(cpuTime()-c0))
		heap.window()
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs, cpu %.3fs, experiments %s\n",
			pass, passWalls[pass], passCPUs[pass], fmtSecs(lat[len(lat)-len(suiteIDs):]))
	}
	b.set("peak_heap_mb", heap.medianPeakMB())
	b.set("wall_s", median(passWalls))
	b.set("cpu_s", median(passCPUs))
	setLatency(b, median(passWalls)*1e3)
	b.set("goodput_rps", float64(ok)/floatSum(passWalls))
	b.set("proposals_per_s", median(pps))
	b.set("speedup_vs_dp", geomean(speedups))
}

func fmtSecs(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, strconv.FormatFloat(x, 'f', 2, 64))
	}
	return strings.Join(parts, " ")
}

// traceSuite runs one pass of the slice under the CPU profiler with a
// span per experiment, then probes the layers on the suite's (model,
// GPU count) cells from data parallelism and a seeded random strategy,
// and repeats each model's 4-GPU search the way Figure 7 runs it.
func traceSuite(b *bench) {
	scale := suiteScale()
	cells := suiteSetup(scale)
	tr := newTracer()
	ref := map[string][][]string{}
	profileShares(b, func() {
		for _, id := range suiteIDs {
			var err error
			d := tr.do("experiments."+id, -1, func() { _, err = suiteRun(context.Background(), id, scale, ref) })
			b.op(err)
			b.set("experiments."+id+"_s", secs(d))
		}
	})

	rng := rand.New(rand.NewSource(subSeed(b.seed, streamProbe)))
	var probe []cell
	var searches []searchCell
	for _, c := range cells {
		probe = append(probe,
			cell{name: c.name + "/dp", g: c.g, topo: c.topo, init: flexflow.DataParallel(c.g, c.topo)},
			cell{name: c.name + "/random", g: c.g, topo: c.topo, init: config.Random(c.g, c.topo, rng)})
		if len(c.topo.GPUs()) == suiteGPUs[0] {
			searches = append(searches, searchCell{name: c.name, g: c.g, topo: c.topo, opts: flexflow.OptimizeOptions{
				MaxIters: scale.SearchIters, Budget: scale.SearchBudget, Seed: scale.Seed, IncludeExpert: true,
			}})
		}
	}
	probeSearches(b, tr, searches)
	probeLayers(b, tr, probe)
	b.bypassed("server.", "loadgen.")
	finishTrace(b, tr)
}
