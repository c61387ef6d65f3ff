package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"flexflow/internal/calib"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
)

// goldenWalk is one pinned MCMC walk: the literal outcome of a fixed
// (model, seed, mode) search.
type goldenWalk struct {
	name     string
	bestCost time.Duration
	iters    int
	accepted int
	stats    sim.Stats
	trace    int
	digest   string // sha256 of config.MarshalStrategy(Best), hex
}

// TestMCMCGoldenWalk pins MCMC walks to literal historical values —
// BestCost, proposal counts, simulator stats, trace length and a digest
// of the exported best strategy — for the uniform and measured delta
// walks and the FullSim walk, on tinyMLP and on synth-2k. The
// differential tests compare current runs with each other; this test
// compares them with the past, so a refactor of the chain loop that
// shifts one RNG draw or one ApplyDelta fails here even when every run
// still agrees with every other. Runs in -short mode too. The trace's
// virtual timestamps and a budgeted walk's stopping point depend on
// the built-in cost profile, so no profile may be installed.
func TestMCMCGoldenWalk(t *testing.T) {
	if p := calib.Active(); p != nil {
		t.Fatalf("a cost profile is installed (%s); golden walks are priced by the built-in defaults", p.Describe())
	}
	type model struct {
		g      *graph.Graph
		topo   *device.Topology
		iters  int
		budget time.Duration
	}
	spec, err := models.Get("synth-2k")
	if err != nil {
		t.Fatal(err)
	}
	tiny := model{g: tinyMLP(), topo: device.NewSingleNode(4, "P100"), iters: 300}
	tinyBudget := tiny
	tinyBudget.iters, tinyBudget.budget = 1<<20, 10*time.Millisecond
	synth := model{g: spec.BuildScaled(1), topo: device.NewSingleNode(4, "P100"), iters: 150}

	cases := []struct {
		name     string
		m        model
		locality Locality
		fullSim  bool
		want     goldenWalk
	}{
		{"tiny/uniform", tiny, LocalityUniform, false,
			goldenWalk{bestCost: 939835, iters: 891, accepted: 286, stats: sim.Stats{FullSims: 3, DeltaSims: 1496, Pops: 121701, SuffixTasks: 121473, Fallbacks: 0}, trace: 29, digest: "f914bfd9b52cfa7da88b2e170663284de6c62b3fc71752e531fbc569d591cf35"}},
		{"tiny/measured", tiny, LocalityMeasured, false,
			goldenWalk{bestCost: 939835, iters: 876, accepted: 641, stats: sim.Stats{FullSims: 3, DeltaSims: 1111, Pops: 64883, SuffixTasks: 64655, Fallbacks: 0}, trace: 25, digest: "e7380186819e277f1f759edbcea5ba43359b128f4d5cd2acec3cdf6e2e8848b5"}},
		{"tiny/fullsim", tiny, LocalityUniform, true,
			goldenWalk{bestCost: 939835, iters: 890, accepted: 255, stats: sim.Stats{FullSims: 893, DeltaSims: 0, Pops: 69725, SuffixTasks: 0, Fallbacks: 0}, trace: 33, digest: "f914bfd9b52cfa7da88b2e170663284de6c62b3fc71752e531fbc569d591cf35"}},
		{"tiny/uniform-budget", tinyBudget, LocalityUniform, false,
			goldenWalk{bestCost: 939835, iters: 912, accepted: 294, stats: sim.Stats{FullSims: 3, DeltaSims: 1530, Pops: 123728, SuffixTasks: 123500, Fallbacks: 0}, trace: 29, digest: "f914bfd9b52cfa7da88b2e170663284de6c62b3fc71752e531fbc569d591cf35"}},
		{"tiny/measured-budget", tinyBudget, LocalityMeasured, false,
			goldenWalk{bestCost: 939835, iters: 896, accepted: 658, stats: sim.Stats{FullSims: 3, DeltaSims: 1134, Pops: 65935, SuffixTasks: 65707, Fallbacks: 0}, trace: 25, digest: "e7380186819e277f1f759edbcea5ba43359b128f4d5cd2acec3cdf6e2e8848b5"}},
		{"synth-2k/uniform", synth, LocalityUniform, false,
			goldenWalk{bestCost: 999584, iters: 443, accepted: 422, stats: sim.Stats{FullSims: 3, DeltaSims: 464, Pops: 1326362, SuffixTasks: 1315409, Fallbacks: 0}, trace: 133, digest: "3d84ac673eb5098685e9994fe6c325e41bceda2193b1e0132dd757ca89dd9732"}},
		{"synth-2k/measured", synth, LocalityMeasured, false,
			goldenWalk{bestCost: 1129688, iters: 433, accepted: 411, stats: sim.Stats{FullSims: 3, DeltaSims: 455, Pops: 965196, SuffixTasks: 954243, Fallbacks: 0}, trace: 41, digest: "7d2fa95d70b3e584885895340117cf809c71511f6d435ec286b2c9716394ac5f"}},
		{"synth-2k/fullsim", synth, LocalityUniform, true,
			goldenWalk{bestCost: 1000642, iters: 442, accepted: 431, stats: sim.Stats{FullSims: 445, DeltaSims: 0, Pops: 1380927, SuffixTasks: 0, Fallbacks: 0}, trace: 151, digest: "6bb3a79568a4c39043452a3af4937754d3a5a376710e0de5ff1e41e63f411b69"}},
	}
	for _, c := range cases {
		opts := DefaultOptions()
		opts.MaxIters = c.m.iters
		opts.Budget = c.m.budget
		opts.Seed = 7
		opts.Locality = c.locality
		opts.FullSim = c.fullSim
		initials := Initials(c.m.g, c.m.topo, 7, true)
		res := MCMC(context.Background(), c.m.g, c.m.topo, perfmodel.NewAnalyticModel(), initials, opts)

		data, err := config.MarshalStrategy(c.m.g, res.Best)
		if err != nil {
			t.Fatalf("%s: exporting Best: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		got := goldenWalk{
			name:     c.name,
			bestCost: res.BestCost,
			iters:    res.Iters,
			accepted: res.Accepted,
			stats:    res.SimStats,
			trace:    len(res.Trace),
			digest:   hex.EncodeToString(sum[:]),
		}
		want := c.want
		want.name = c.name
		if got != want {
			t.Errorf("%s: walk left its golden values\n got: %s\nwant: %s", c.name, got, want)
		}
	}
}

func (w goldenWalk) String() string {
	return fmt.Sprintf("goldenWalk{bestCost: %d, iters: %d, accepted: %d, stats: sim.Stats{FullSims: %d, DeltaSims: %d, Pops: %d, SuffixTasks: %d, Fallbacks: %d}, trace: %d, digest: %q}",
		int64(w.bestCost), w.iters, w.accepted, w.stats.FullSims, w.stats.DeltaSims, w.stats.Pops,
		w.stats.SuffixTasks, w.stats.Fallbacks, w.trace, w.digest)
}
