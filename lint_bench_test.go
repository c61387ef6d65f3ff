package flexflow

import (
	"path/filepath"
	"testing"

	"flexflow/internal/benchjson"
)

// TestBenchTrajectoryFiles is the BENCH_*.json gate CI runs: every
// committed trajectory file must parse and satisfy the schema
// (internal/benchjson: schema version, PR label, benchmarks, a
// proposals/sec/core metric), at least one file must exist so the
// per-PR trajectory never silently stops, and a file that records a
// baseline must show at least one of those benchmarks improving —
// recording a baseline is a performance claim, and the claim must hold
// in the committed numbers.
func TestBenchTrajectoryFiles(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json trajectory files committed (see docs/EXPERIMENTS.md)")
	}
	for _, file := range files {
		f, err := benchjson.Load(file)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if len(f.Baseline) == 0 {
			continue
		}
		improved := false
		for name, base := range f.Baseline {
			cur, ok := f.Benchmarks[name]
			if !ok {
				continue
			}
			if cur.NsPerOp < base.NsPerOp || (base.AllocsPerOp > 0 && cur.AllocsPerOp < base.AllocsPerOp) {
				improved = true
				break
			}
		}
		if !improved {
			t.Errorf("%s: baseline recorded but no shared benchmark improves ns_per_op or allocs_per_op", file)
		}
	}
}

// TestBenchPR6DeltaSimImproves pins this PR's acceptance criterion in
// the committed artifact: the CSR hot-path flattening must show
// BenchmarkDeltaSimulation/nmt improving ns/op or allocs/op over the
// pre-PR baseline recorded in the same file.
func TestBenchPR6DeltaSimImproves(t *testing.T) {
	f, err := benchjson.Load("BENCH_pr6.json")
	if err != nil {
		t.Fatal(err)
	}
	const name = "BenchmarkDeltaSimulation/nmt"
	base, ok := f.Baseline[name]
	if !ok {
		t.Fatalf("%s missing from baseline", name)
	}
	cur, ok := f.Benchmarks[name]
	if !ok {
		t.Fatalf("%s missing from benchmarks", name)
	}
	if cur.NsPerOp >= base.NsPerOp && cur.AllocsPerOp >= base.AllocsPerOp {
		t.Fatalf("%s: current %+v does not improve on baseline %+v", name, cur, base)
	}
}

// TestBenchPR8ChainSetupImproves pins the copy-on-write acceptance
// criterion in the committed artifact: BENCH_pr8.json must show
// BenchmarkChainSetup/shared-plan allocating at least 5x fewer bytes
// per op than the pre-CoW baseline recorded in the same file (Instance
// no longer deep-copies the CSR), and must carry the synthetic
// >=50k-task scale cases the PR adds to the tracked set.
func TestBenchPR8ChainSetupImproves(t *testing.T) {
	f, err := benchjson.Load("BENCH_pr8.json")
	if err != nil {
		t.Fatal(err)
	}
	const name = "BenchmarkChainSetup/shared-plan"
	base, ok := f.Baseline[name]
	if !ok {
		t.Fatalf("%s missing from baseline", name)
	}
	cur, ok := f.Benchmarks[name]
	if !ok {
		t.Fatalf("%s missing from benchmarks", name)
	}
	if base.BytesPerOp <= 0 || cur.BytesPerOp <= 0 {
		t.Fatalf("%s: bytes/op not recorded (baseline %v, current %v) — run with -benchmem", name, base.BytesPerOp, cur.BytesPerOp)
	}
	if cur.BytesPerOp*5 > base.BytesPerOp {
		t.Fatalf("%s: %v B/op is not a >=5x reduction of the baseline %v B/op", name, cur.BytesPerOp, base.BytesPerOp)
	}
	for _, scale := range []string{
		"BenchmarkDeltaSimulation/synth-50k",
		"BenchmarkProposalThroughputSynth50k",
	} {
		if _, ok := f.Benchmarks[scale]; !ok {
			t.Errorf("%s missing from benchmarks: the >=50k-task scale cases are part of the tracked set", scale)
		}
	}
}

// TestBenchPR9SparseTimingImproves pins the sparse-timing-state
// acceptance criteria in the committed artifact: BENCH_pr9.json must
// show (a) BenchmarkChainSetupSynth100k/shared-plan allocating at least
// 5x fewer bytes per op than the deep-copy baseline recorded in the
// same file (CloneFor now shares timing pages copy-on-write), (b)
// BenchmarkDeltaSimulation/synth-50k at least 1.5x faster in ns/op than
// its in-file baseline, and (c) the batched-rounds sweep (the since
// removed search.Options.ProposalBatch) present in the tracked set with
// batch=1 the measured winner on both synthetic classes.
func TestBenchPR9SparseTimingImproves(t *testing.T) {
	f, err := benchjson.Load("BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string) (base, cur benchjson.Entry) {
		t.Helper()
		base, ok := f.Baseline[name]
		if !ok {
			t.Fatalf("%s missing from baseline", name)
		}
		cur, ok = f.Benchmarks[name]
		if !ok {
			t.Fatalf("%s missing from benchmarks", name)
		}
		return base, cur
	}

	clone := "BenchmarkChainSetupSynth100k/shared-plan"
	base, cur := check(clone)
	if base.BytesPerOp <= 0 || cur.BytesPerOp <= 0 {
		t.Fatalf("%s: bytes/op not recorded (baseline %v, current %v) — run with -benchmem", clone, base.BytesPerOp, cur.BytesPerOp)
	}
	if cur.BytesPerOp*5 > base.BytesPerOp {
		t.Fatalf("%s: %v B/op is not a >=5x reduction of the baseline %v B/op", clone, cur.BytesPerOp, base.BytesPerOp)
	}

	delta := "BenchmarkDeltaSimulation/synth-50k"
	base, cur = check(delta)
	if cur.NsPerOp*1.5 > base.NsPerOp {
		t.Fatalf("%s: %v ns/op is not a >=1.5x improvement of the baseline %v ns/op", delta, cur.NsPerOp, base.NsPerOp)
	}

	for _, model := range []string{"synth-2k", "synth-50k"} {
		winner, ok := f.Benchmarks["BenchmarkMCMCProposalBatch/"+model+"/batch=1"]
		if !ok {
			t.Errorf("ProposalBatch sweep missing batch=1 on %s", model)
			continue
		}
		for _, batch := range []string{"4", "8", "16"} {
			name := "BenchmarkMCMCProposalBatch/" + model + "/batch=" + batch
			e, ok := f.Benchmarks[name]
			if !ok {
				t.Errorf("%s missing from benchmarks: the sweep is part of the tracked set", name)
				continue
			}
			if e.NsPerOp < winner.NsPerOp {
				t.Errorf("%s (%v ns/op) beats batch=1 (%v ns/op): the pinned default no longer matches the committed sweep", name, e.NsPerOp, winner.NsPerOp)
			}
		}
	}
}

// TestBenchPR10LocalityImproves pins the locality-aware proposal
// acceptance criteria in the committed artifact: BENCH_pr10.json must
// record the full uniform/late-biased/measured sweep (late-biased has
// since been removed from the search package) on both synthetic
// classes, and on synth-50k at least one non-uniform policy must beat
// uniform by the PR's bar — either >=1.3x better best-makespan at the
// same iteration budget, or equal-quality search (best makespan within
// 5% of uniform) at >=1.3x fewer evaluated suffix tasks per proposal.
// The numbers are the committed ones (regenerated per
// docs/EXPERIMENTS.md), not re-measured in CI.
func TestBenchPR10LocalityImproves(t *testing.T) {
	f, err := benchjson.Load("BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	const (
		makespanMetric = "best-makespan-us"
		suffixMetric   = "suffix-tasks/proposal"
	)
	entry := func(model, locality string) benchjson.Entry {
		t.Helper()
		name := "BenchmarkMCMCLocality/" + model + "/locality=" + locality
		e, ok := f.Benchmarks[name]
		if !ok {
			t.Fatalf("%s missing from benchmarks: the locality sweep is the tracked set", name)
		}
		for _, m := range []string{makespanMetric, suffixMetric} {
			if e.Metrics[m] <= 0 {
				t.Fatalf("%s: metric %s not recorded", name, m)
			}
		}
		return e
	}
	for _, model := range []string{"synth-50k", "synth-100k"} {
		for _, locality := range []string{"uniform", "late-biased", "measured"} {
			entry(model, locality)
		}
	}

	uniform := entry("synth-50k", "uniform")
	passed := false
	for _, locality := range []string{"late-biased", "measured"} {
		e := entry("synth-50k", locality)
		fasterToQuality := uniform.Metrics[makespanMetric] >= 1.3*e.Metrics[makespanMetric]
		equalQuality := e.Metrics[makespanMetric] <= 1.05*uniform.Metrics[makespanMetric]
		cheaperSuffix := uniform.Metrics[suffixMetric] >= 1.3*e.Metrics[suffixMetric]
		if fasterToQuality || (equalQuality && cheaperSuffix) {
			passed = true
		}
	}
	if !passed {
		t.Fatalf("no non-uniform policy meets the bar on synth-50k: need >=1.3x better %s, or %s within 5%% of uniform at >=1.3x fewer %s (uniform: makespan %v, suffix %v)",
			makespanMetric, makespanMetric, suffixMetric,
			uniform.Metrics[makespanMetric], uniform.Metrics[suffixMetric])
	}
}
