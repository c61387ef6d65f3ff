package flexflow

import (
	"context"
	"testing"
	"time"
)

func TestFacadeEndToEnd(t *testing.T) {
	g := NewGraph("facade-cnn")
	x := g.Input4D("images", 16, 3, 16, 16)
	c := g.Conv2D("conv", x, 16, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("flat", c)
	g.Dense("fc", f, 32)

	topo := NewSingleNode(4, "P100")
	dp := DataParallel(g, topo)
	dpTime, m := Simulate(g, topo, dp)
	if dpTime <= 0 || m.NumTasks == 0 {
		t.Fatalf("simulate: %v, %+v", dpTime, m)
	}

	opt, err := GetOptimizer("mcmc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background(), Problem{Graph: g, Topology: topo},
		OptimizeOptions{MaxIters: 150, Budget: 5 * time.Second})
	if err != nil || res.Best == nil || res.BestCost <= 0 {
		t.Fatalf("search: %+v, %v", res, err)
	}
	if res.BestCost > dpTime {
		t.Fatalf("search result %v worse than data parallelism %v", res.BestCost, dpTime)
	}
	if err := VerifyStrategy(g, res.Best); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if cp := CriticalPath(g, topo, res.Best); res.BestCost < cp {
		t.Fatalf("best cost %v below critical path %v", res.BestCost, cp)
	}
	if real := EmulateHardware(g, topo, res.Best, 1); real <= 0 {
		t.Fatalf("emulate: %v", real)
	}
}

func TestFacadeModels(t *testing.T) {
	g, err := Model("lenet")
	if err != nil || g.NumOps() == 0 {
		t.Fatalf("Model: %v, %v", g, err)
	}
	if _, err := Model("unknown"); err == nil {
		t.Fatal("unknown model did not error")
	}
	small, err := ModelScaled("nmt", 16)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumOps() == 0 {
		t.Fatal("empty scaled model")
	}
	if _, err := ModelScaled("unknown", 2); err == nil {
		t.Fatal("unknown scaled model did not error")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g, _ := ModelScaled("lenet", 4)
	topo := NewSingleNode(2, "P100")
	for name, s := range map[string]*Strategy{
		"dp":     DataParallel(g, topo),
		"mp":     ModelParallel(g, topo),
		"expert": ExpertDesigned(g, topo),
	} {
		if err := s.Validate(g, topo); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, _ := Simulate(g, topo, s)
		if d <= 0 {
			t.Fatalf("%s: zero time", name)
		}
	}
}

func TestFacadeClusters(t *testing.T) {
	if n := len(NewP100Cluster(2).GPUs()); n != 8 {
		t.Fatalf("P100 cluster GPUs = %d", n)
	}
	if n := len(NewK80Cluster(3).GPUs()); n != 12 {
		t.Fatalf("K80 cluster GPUs = %d", n)
	}
	if NewEstimator() == nil {
		t.Fatal("nil estimator")
	}
}
