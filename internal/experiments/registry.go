package experiments

import (
	"context"
	"fmt"
	"sort"

	"flexflow/internal/par"
)

// runner produces the tables of one experiment at a scale. The context
// flows into every search the experiment runs, so cancelling it (^C on
// the CLI) stops the suite promptly with best-so-far strategies.
type runner func(ctx context.Context, scale Scale) []*Table

var runners = map[string]runner{
	"table1": func(ctx context.Context, s Scale) []*Table { return []*Table{Table1()} },
	"fig7": func(ctx context.Context, s Scale) []*Table {
		return []*Table{Fig7(ctx, s, nil, nil)}
	},
	"fig8":   func(ctx context.Context, s Scale) []*Table { return []*Table{Fig8(ctx, s, 0)} },
	"fig9":   func(ctx context.Context, s Scale) []*Table { return []*Table{Fig9(ctx, s, 0)} },
	"fig10a": func(ctx context.Context, s Scale) []*Table { return []*Table{Fig10a(ctx, s)} },
	"fig10b": func(ctx context.Context, s Scale) []*Table { return []*Table{Fig10b(ctx, s, 0)} },
	"fig11":  func(ctx context.Context, s Scale) []*Table { return []*Table{Fig11(s, 0)} },
	"fig12":  func(ctx context.Context, s Scale) []*Table { return []*Table{Fig12(ctx, s, 0)} },
	"table4": func(ctx context.Context, s Scale) []*Table { return []*Table{Table4(ctx, s, nil)} },
	"optimality": func(ctx context.Context, s Scale) []*Table {
		return []*Table{GlobalOptimality(ctx, s), LocalOptimality(ctx, s, nil, nil)}
	},
	"case-inception": func(ctx context.Context, s Scale) []*Table { return []*Table{CaseStudy(ctx, s, "inception-v3")} },
	"case-nmt":       func(ctx context.Context, s Scale) []*Table { return []*Table{CaseStudy(ctx, s, "nmt")} },
	"profiling":      func(ctx context.Context, s Scale) []*Table { return []*Table{MeasuringCacheReport(s)} },
	"ablation-space": func(ctx context.Context, s Scale) []*Table { return []*Table{AblationSpace(ctx, s)} },
	"ablation-beta":  func(ctx context.Context, s Scale) []*Table { return []*Table{AblationBeta(ctx, s)} },
	"ablation-sync":  func(ctx context.Context, s Scale) []*Table { return []*Table{AblationSync(s)} },
}

// IDs lists available experiment names, sorted.
func IDs() []string {
	out := make([]string, 0, len(runners))
	for id := range runners {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// timingRunners measure wall-clock ratios (full vs delta simulation),
// so Run("all") holds them back until every pooled runner has finished:
// running them alongside CPU-saturating siblings would skew the very
// timings they report.
var timingRunners = map[string]bool{"fig12": true, "table4": true}

// Run executes one experiment by ID. "all" fans every runner out over
// the process-wide worker pool (each runner's own data-point loops nest
// onto the same pool under the one global bound) — except the
// wall-clock-ratio runners, which execute serially after the pooled
// runners finish — and still reports tables in ID order. Cancelling ctx cuts every in-flight search short; the
// tables produced so far are still returned.
func Run(ctx context.Context, id string, scale Scale) ([]*Table, error) {
	if id == "all" {
		ids := IDs()
		results := make([][]*Table, len(ids))
		var pooled []int
		for i, id := range ids {
			if !timingRunners[id] {
				pooled = append(pooled, i)
			}
		}
		par.ForEach(0, len(pooled), func(k int) {
			i := pooled[k]
			results[i] = runners[ids[i]](ctx, scale)
		})
		for i, id := range ids {
			if timingRunners[id] {
				results[i] = runners[id](ctx, scale)
			}
		}
		var out []*Table
		for _, tabs := range results {
			out = append(out, tabs...)
		}
		return out, ctx.Err()
	}
	r, ok := runners[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v and \"all\")", id, IDs())
	}
	return r(ctx, scale), ctx.Err()
}
