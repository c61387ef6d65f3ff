package search

import (
	"context"
	"testing"
	"time"

	"flexflow/internal/calib"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
)

func TestProposalCostScaling(t *testing.T) {
	cm := calib.Default()
	small := cm.ProposalCost("mlp", 100, false)
	big := cm.ProposalCost("mlp", 10000, false)
	if big <= small {
		t.Fatalf("delta proposal cost must grow with graph size: %v vs %v", big, small)
	}
	if full := cm.ProposalCost("mlp", 10000, true); full <= big {
		t.Fatalf("full-sim proposal (%v) must cost more than delta (%v)", full, big)
	}
}

// TestVirtualTimeDriftReport closes the calibration loop: it fits a
// cost profile on this machine (internal/calib, the same measurement
// `flexflow -calibrate` runs), drives a single-worker micro-search with
// the fitted profile installed, and compares the wall clock
// against the virtual clock the budget machinery charged. The built-in
// order-of-magnitude constants are logged alongside for comparison; the
// *fitted* profile must price proposals within 10x of measured reality
// — calibration just ran on this very machine, so a persistent larger
// gap means the fit, not the machine, is wrong. Wall-clock measurement
// on a shared CI box is still noisy (another test binary can saturate
// the CPU during one window but not the other), so an out-of-bounds
// attempt re-calibrates and re-measures before it counts as a failure.
func TestVirtualTimeDriftReport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock micro-benchmark; skipped in -short")
	}
	const model, scale = "lenet", 16
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(scale)
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
	init := config.DataParallel(g, topo)
	tg := taskgraph.Build(g, topo, init.Clone(), est, taskgraph.Options{})
	numTasks := len(tg.Tasks)

	modes := []struct {
		name    string
		fullSim bool
		iters   int
	}{{"delta", false, 1500}, {"full", true, 300}}

	// attempt calibrates and measures once, reporting each mode's
	// wall-vs-fitted-virtual drift ratio.
	attempt := func() map[string]float64 {
		prof, err := calib.Calibrate(context.Background(), calib.Options{
			Models:         []string{model},
			Scale:          scale,
			Batches:        2,
			DeltaProposals: 200,
			FullProposals:  25,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer calib.Install(calib.Install(prof))
		drifts := map[string]float64{}
		for _, mode := range modes {
			opts := DefaultOptions()
			opts.MaxIters = mode.iters
			opts.Workers = 1
			opts.FullSim = mode.fullSim
			charged := prof.ProposalCost(model, numTasks, mode.fullSim)
			builtin := calib.Default().ProposalCost(model, numTasks, mode.fullSim)

			start := time.Now()
			res := MCMC(context.Background(), g, topo, est, []*config.Strategy{init.Clone()}, opts)
			wall := time.Since(start)
			if res.Iters == 0 {
				t.Fatalf("%s: no proposals executed", mode.name)
			}
			virtual := time.Duration(res.Iters) * charged
			measured := wall / time.Duration(res.Iters)
			drift := float64(wall) / float64(virtual)
			drifts[mode.name] = drift
			t.Logf("%s-sim drift: wall %v vs virtual %v over %d proposals "+
				"(measured %v/proposal; fitted charges %v, drift %.2fx; builtin would charge %v, drift %.2fx; %d tasks)",
				mode.name, wall.Round(time.Microsecond), virtual, res.Iters,
				measured.Round(time.Nanosecond), charged, drift,
				builtin, float64(measured)/float64(builtin), numTasks)
		}
		return drifts
	}

	inBounds := func(d float64) bool { return d >= 0.1 && d <= 10 }
	const maxAttempts = 3
	for try := 1; try <= maxAttempts; try++ {
		drifts := attempt()
		ok := true
		for _, d := range drifts {
			if !inBounds(d) {
				ok = false
			}
		}
		if ok {
			return
		}
		if try < maxAttempts {
			t.Logf("drift out of bounds (%v) on attempt %d — transient load? re-calibrating", drifts, try)
			continue
		}
		for name, d := range drifts {
			if !inBounds(d) {
				t.Errorf("%s-sim: fitted profile persistently drifts %.2fx from wall clock across %d calibrate+measure attempts (want within 10x of unity)",
					name, d, maxAttempts)
			}
		}
	}
}
