package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/search"
	"flexflow/internal/tensor"
)

// CaseStudy reproduces the Section 8.5 case studies (Figures 13 and 14):
// the best discovered strategy for Inception-v3 or NMT on four P100
// GPUs, rendered per layer group, plus the headline reductions against
// data parallelism (Inception-v3: -75% parameter synchronization cost,
// -12% per-iteration time).
func CaseStudy(ctx context.Context, scale Scale, model string) *Table {
	spec, err := models.Get(model)
	if err != nil {
		panic(err)
	}
	g := scale.build(spec)
	topo := device.NewSingleNode(4, "P100")
	est := estimator()

	dpTime, dpMetrics := evaluate(g, topo, est, config.DataParallel(g, topo))
	// The case studies inspect strategy *structure*, so give the search
	// a larger budget than the sweep experiments and finish with a
	// local-descent pass.
	opts := scale.searchOpts()
	opts.MaxIters *= 8
	opts.Budget *= 2
	res := search.MCMC(ctx, g, topo, est, search.Initials(g, topo, scale.Seed, true), opts)
	best, ffTime := res.Best, res.BestCost
	if polished, cost := search.Polish(ctx, g, topo, est, best, search.PolishOptions{Enum: enumForScale(scale, topo), MaxRounds: 2}); cost < ffTime {
		best, ffTime = polished, cost
	}
	_, ffMetrics := evaluate(g, topo, est, best)

	t := &Table{
		ID:     "case-" + model,
		Title:  fmt.Sprintf("Best discovered strategy for %s on 4 P100 GPUs (Figures 13/14)", model),
		Header: []string{"layer-group", "ops", "typical-config"},
	}
	// Group ops by name prefix (the layer grouping of the figures).
	groups := map[string][]*graph.Op{}
	var order []string
	for _, op := range g.ComputeOps() {
		key := groupName(op.Name)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], op)
	}
	for _, key := range order {
		ops := groups[key]
		t.Rows = append(t.Rows, []string{
			key, fmt.Sprintf("%d", len(ops)), describeConfig(ops[0], best.Config(ops[0].ID)),
		})
	}
	syncReduction := 0.0
	if dpMetrics.SyncBytes > 0 {
		syncReduction = 1 - float64(ffMetrics.SyncBytes)/float64(dpMetrics.SyncBytes)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-iteration: data-parallel %s -> flexflow %s (%.0f%% faster)",
			ms(dpTime), ms(ffTime), 100*(1-float64(ffTime)/float64(dpTime))),
		fmt.Sprintf("parameter synchronization: %.1f MB -> %.1f MB (%.0f%% reduction)",
			float64(dpMetrics.SyncBytes)/1e6, float64(ffMetrics.SyncBytes)/1e6, 100*syncReduction),
		"paper (Inception-v3, 4 P100): -75% sync cost, -12% per-iteration time")
	return t
}

// groupName collapses op names into figure-style layer groups
// ("enc/lstm0.t17" -> "enc/lstm0", "mixedA1/5x5b" -> "mixedA1").
func groupName(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		if strings.HasPrefix(name, "mixed") || strings.HasPrefix(name, "stem") || strings.HasPrefix(name, "stage") {
			return name[:i]
		}
	}
	return name
}

// describeConfig renders a config the way the figures annotate them:
// per-dimension parallelism plus the devices used.
func describeConfig(op *graph.Op, c *config.Config) string {
	if c == nil {
		return "-"
	}
	var parts []string
	for i, d := range c.Degrees {
		if d > 1 {
			parts = append(parts, fmt.Sprintf("%s x%d (%s)", op.Out.Dims[i].Name, d, kindLetter(op.Out.Kind(i))))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "unpartitioned")
	}
	devs := map[int]bool{}
	for _, d := range c.Devices {
		devs[d] = true
	}
	ids := make([]int, 0, len(devs))
	for d := range devs {
		ids = append(ids, d)
	}
	sort.Ints(ids)
	return fmt.Sprintf("%s on GPUs %v", strings.Join(parts, ", "), ids)
}

func kindLetter(k tensor.DimKind) string {
	switch k {
	case tensor.Sample:
		return "S"
	case tensor.Attribute:
		return "A"
	case tensor.Parameter:
		return "P"
	default:
		return "?"
	}
}
