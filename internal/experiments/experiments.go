// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8). Each experiment builds the relevant models,
// clusters and strategies, runs the simulator/optimizer/runtime, and
// returns a Table whose rows mirror what the paper plots.
// docs/EXPERIMENTS.md maps each experiment ID to its paper artifact,
// CLI invocation and output shape.
//
// The harness is concurrent: the registry's runners (under "all") and
// each experiment's independent data points — Fig7's (model, cluster,
// gpus) cells, Fig11's (model, topology) cells, Table4's (model, gpus)
// cells, and so on — fan out over the single process-wide worker pool
// (internal/par), while each cell's searches in turn fan their MCMC
// chains and Neighborhood sweeps onto the same pool. The nesting
// (runners × cells × chains × sweeps) composes under one global bound
// (par.SetWorkers) via caller-runs scheduling instead of multiplying
// pools per level; docs/CONCURRENCY.md has the full contract. Cells
// write rows into fixed positions, so row order never depends on
// scheduling, and since search budgets are charged in deterministic
// virtual time (see the search package's determinism contract), the
// tables are byte-identical to the serial run — budgeted or not, for
// every pool size. The only experiments left serial are the ones that
// measure wall-clock ratios between two timed runs (Fig12) or chain
// results into the next cell's inputs (the search-space ablation).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/search"
	"flexflow/internal/taskgraph"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects experiment sizing. Quick runs use reduced models, fewer
// device counts and small search budgets so the whole suite finishes in
// minutes on a laptop; Full uses the paper's settings (batch 64/256, 40
// unroll steps, up to 64 GPUs) and takes correspondingly longer.
type Scale struct {
	Name string
	// ModelFactor divides batch size and unroll steps (1 = paper scale).
	ModelFactor int
	// DeviceCounts are the GPU counts swept in Figure 7 / Table 4.
	DeviceCounts []int
	// SearchIters caps MCMC proposals per initial strategy.
	SearchIters int
	// SearchBudget caps virtual search time per search (0 = none);
	// virtual budgets stop at a fixed proposal count, so budgeted runs
	// replay exactly.
	SearchBudget time.Duration
	// Seed drives all randomized components.
	Seed int64
}

// Quick is the default scale for tests, benches and demos.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		ModelFactor:  8,
		DeviceCounts: []int{1, 4, 8},
		SearchIters:  250,
		SearchBudget: 10 * time.Second,
		Seed:         1,
	}
}

// Full approximates the paper's settings. Expect multi-hour runtimes for
// the complete sweep on a laptop-class machine.
func Full() Scale {
	return Scale{
		Name:         "full",
		ModelFactor:  1,
		DeviceCounts: []int{1, 2, 4, 8, 16, 32, 64},
		SearchIters:  5000,
		SearchBudget: 3 * time.Minute,
		Seed:         1,
	}
}

// build constructs a model at the experiment scale.
func (s Scale) build(spec models.Spec) *graph.Graph {
	return spec.BuildScaled(s.ModelFactor)
}

// searchOpts returns the optimizer configuration for this scale.
func (s Scale) searchOpts() search.Options {
	o := search.DefaultOptions()
	o.MaxIters = s.SearchIters
	o.Budget = s.SearchBudget
	o.Seed = s.Seed
	return o
}

// forEach runs fn(i) for every cell index in [0, n) across the shared
// worker pool. Cells write rows positionally so table order never
// depends on scheduling.
func (s Scale) forEach(n int, fn func(i int)) {
	par.ForEach(0, n, fn)
}

// rows computes n table rows across the worker pool, one cell per
// index, and returns them in index order; a cell may return nil to
// skip its row (e.g. a device count a cluster cannot provide).
func (s Scale) rows(n int, cell func(i int) []string) [][]string {
	out := make([][]string, n)
	s.forEach(n, func(i int) { out[i] = cell(i) })
	rows := out[:0]
	for _, r := range out {
		if r != nil {
			rows = append(rows, r)
		}
	}
	return rows
}

// estimator returns the shared performance model. A MeasuringEstimator
// wrapping the analytic device model reproduces the paper's
// measure-once-per-signature profiling flow.
func estimator() perfmodel.Estimator {
	analytic := perfmodel.NewAnalyticModel()
	return perfmodel.NewMeasuringEstimator(analytic.ExecTime, 1)
}

// flexflowStrategy runs the FlexFlow search for a model on a topology
// and returns the best strategy with its simulated iteration time.
func flexflowStrategy(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, scale Scale) (*config.Strategy, time.Duration, search.Result) {
	res := search.MCMC(ctx, g, topo, est, search.Initials(g, topo, scale.Seed, true), scale.searchOpts())
	return res.Best, res.BestCost, res
}

// throughput converts an iteration time into samples/sec/GPU.
func throughput(batch int, iter time.Duration, gpus int) float64 {
	if iter <= 0 {
		return 0
	}
	return float64(batch) / iter.Seconds() / float64(gpus)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func ms(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d)/1e6) }

// enumForScale bounds config enumeration (OptCNN candidates, neighbour
// checks) so dynamic programming over per-op candidate sets stays
// tractable at each scale.
func enumForScale(scale Scale, topo *device.Topology) config.EnumOptions {
	max := 8
	if scale.ModelFactor > 1 {
		max = 4
	}
	if n := len(topo.GPUs()); max > n {
		max = n
	}
	return config.EnumOptions{MaxDegree: max}
}

// evaluate builds and simulates a strategy, returning its iteration time
// and metrics.
func evaluate(g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, s *config.Strategy) (time.Duration, taskgraph.Metrics) {
	return search.Evaluate(g, topo, est, s, taskgraph.Options{})
}
