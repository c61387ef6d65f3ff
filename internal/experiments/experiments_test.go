package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"
)

// bg is the context of every test experiment run.
var bg = context.Background()

// testScale is deliberately tiny so the whole suite runs in seconds.
// The pool keeps its default bound (NumCPU): together with t.Parallel()
// on every test this keeps the suite's wall clock near the single
// slowest experiment rather than the sum of all of them.
func testScale() Scale {
	return Scale{
		Name:         "test",
		ModelFactor:  16,
		DeviceCounts: []int{1, 4},
		SearchIters:  80,
		SearchBudget: 5 * time.Second,
		Seed:         1,
	}
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Header)
	return ""
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, tab, row, col), "ms"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTable1MatchesPaper(t *testing.T) {
	t.Parallel()
	tab := Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 1D pooling: attribute = width(length), channel; no parameter dims.
	if got := cell(t, tab, 0, "parameter"); got != "-" {
		t.Fatalf("pooling parameter dims = %q", got)
	}
	if got := cell(t, tab, 0, "attribute"); !strings.Contains(got, "channel") {
		t.Fatalf("pooling attributes = %q", got)
	}
	// 1D conv: channel is a parameter dim.
	if got := cell(t, tab, 1, "parameter"); got != "channel" {
		t.Fatalf("conv1d parameter = %q", got)
	}
	// Matmul: no attribute dims.
	if got := cell(t, tab, 3, "attribute"); got != "-" {
		t.Fatalf("matmul attributes = %q", got)
	}
	if tab.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig7Shape(t *testing.T) {
	t.Parallel()
	tab := Fig7(bg, testScale(), []string{"rnnlm"}, []string{"P100"})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		dp := cellFloat(t, tab, i, "data-parallel")
		ff := cellFloat(t, tab, i, "flexflow")
		if ff+1e-9 < dp {
			t.Fatalf("row %d: flexflow %v below data parallelism %v", i, ff, dp)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	tab := Fig8(bg, testScale(), 4)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	dpTime := cellFloat(t, tab, 0, "per-iter-time")
	ffTime := cellFloat(t, tab, 2, "per-iter-time")
	if ffTime > dpTime {
		t.Fatalf("flexflow per-iter %v worse than data parallel %v", ffTime, dpTime)
	}
	dpXfer := cellFloat(t, tab, 0, "transfers(MB)")
	if dpXfer <= 0 {
		t.Fatal("data parallelism should transfer data")
	}
}

func TestFig9Shape(t *testing.T) {
	t.Parallel()
	tab := Fig9(bg, testScale(), 4)
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	dp := cellFloat(t, tab, 0, "hours-to-target")
	ff := cellFloat(t, tab, 1, "hours-to-target")
	if ff > dp {
		t.Fatalf("flexflow training time %v exceeds baseline %v", ff, dp)
	}
}

func TestFig10aShape(t *testing.T) {
	t.Parallel()
	tab := Fig10a(bg, testScale())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if sp := cellFloat(t, tab, i, "speedup"); sp < 1 {
			t.Fatalf("row %d: FlexFlow slower than REINFORCE (%v)", i, sp)
		}
	}
}

func TestFig10bShape(t *testing.T) {
	t.Parallel()
	tab := Fig10b(bg, testScale(), 4)
	for i := range tab.Rows {
		if sp := cellFloat(t, tab, i, "speedup"); sp < 1 {
			t.Fatalf("row %d: FlexFlow slower than OptCNN (%v)", i, sp)
		}
	}
}

func TestFig11AccuracyBound(t *testing.T) {
	t.Parallel()
	tab := Fig11(testScale(), 4)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if err := cellFloat(t, tab, i, "max-rel-err"); err > 30 {
			t.Fatalf("row %d: simulator error %.1f%% exceeds the 30%% bound", i, err)
		}
		if tau := cellFloat(t, tab, i, "order-concordance"); tau < 0.5 {
			t.Fatalf("row %d: poor order preservation (tau=%v)", i, tau)
		}
	}
}

// TestFig12AndTable4DeltaFaster asserts wall-clock ratios, so it is
// deliberately NOT t.Parallel(): sequential tests run alone in this
// binary (parallel ones are parked until they finish), keeping the
// full-vs-delta timing windows comparable.
func TestFig12AndTable4DeltaFaster(t *testing.T) {
	s := testScale()
	tab := Table4(bg, s, []string{"rnntc"})
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := range tab.Rows {
		if sp := cellFloat(t, tab, i, "speedup"); sp <= 1 {
			t.Fatalf("row %d: delta not faster (speedup %v)", i, sp)
		}
	}
	fig := Fig12(bg, s, 4)
	if len(fig.Rows) < 4 {
		t.Fatalf("fig12 rows = %d", len(fig.Rows))
	}
}

func TestGlobalOptimality(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive DFS over ~1.7M leaves; skipped in -short")
	}
	t.Parallel()
	tab := GlobalOptimality(bg, testScale())
	for i := range tab.Rows {
		if got := cell(t, tab, i, "mcmc-found-optimum"); got != "true" {
			t.Fatalf("row %d (%s): MCMC missed the restricted-space optimum", i, tab.Rows[i][0])
		}
	}
}

func TestLocalOptimality(t *testing.T) {
	t.Parallel()
	tab := LocalOptimality(bg, testScale(), []string{"lenet"}, []int{2})
	for i := range tab.Rows {
		if got := cell(t, tab, i, "locally-optimal"); got != "true" {
			t.Fatalf("row %d: strategy not locally optimal", i)
		}
	}
}

func TestCaseStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("8x search budget per model; skipped in -short")
	}
	t.Parallel()
	for _, model := range []string{"inception-v3", "nmt"} {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			tab := CaseStudy(bg, testScale(), model)
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty case study", model)
			}
			if len(tab.Notes) < 3 {
				t.Fatalf("%s: missing headline notes", model)
			}
		})
	}
}

func TestProfilingReport(t *testing.T) {
	t.Parallel()
	tab := MeasuringCacheReport(testScale())
	// The six paper benchmarks + LeNet + the three synthetic scale
	// probes (synth-2k/50k/100k), which stress the same observation two
	// orders of magnitude up: ~100k estimated tasks still collapse to a
	// handful of distinct signatures.
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		sigs := cellFloat(t, tab, i, "distinct-signatures")
		tasks := cellFloat(t, tab, i, "tasks-estimated")
		if sigs >= tasks {
			t.Fatalf("row %d: cache did not collapse signatures (%v sigs, %v tasks)", i, sigs, tasks)
		}
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	s := testScale()
	space := AblationSpace(bg, s)
	if len(space.Rows) != 3 {
		t.Fatalf("space rows = %d", len(space.Rows))
	}
	// Full SOAP must be at least as good as any restriction.
	for i := range space.Rows {
		if r := cellFloat(t, space, i, "vs-SOAP"); r < 0.999 {
			t.Fatalf("restricted space beat SOAP: row %d ratio %v", i, r)
		}
	}
	beta := AblationBeta(bg, s)
	if len(beta.Rows) != 5 {
		t.Fatalf("beta rows = %d", len(beta.Rows))
	}
	sync := AblationSync(s)
	if len(sync.Rows) != 2 {
		t.Fatalf("sync rows = %d", len(sync.Rows))
	}
	ring := cellFloat(t, sync, 0, "per-iter-time")
	star := cellFloat(t, sync, 1, "per-iter-time")
	if star < ring {
		t.Fatalf("star sync (%v) should not beat ring (%v)", star, ring)
	}
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	ids := IDs()
	if len(ids) < 10 {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := Run(bg, "no-such-exp", testScale()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
	tabs, err := Run(bg, "table1", testScale())
	if err != nil || len(tabs) != 1 {
		t.Fatalf("Run(table1) = %v, %v", tabs, err)
	}
}

func TestRenderAlignment(t *testing.T) {
	t.Parallel()
	tab := &Table{ID: "x", Title: "y", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tab.Render()
	if !strings.Contains(out, "== x: y ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("render = %q", out)
	}
}
