// Command perfbench is the repository benchmark. It runs one workload
// declared in BENCHMARK.json for a seed, checks the program's outputs,
// and prints one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload search-synth50k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries every end-to-end metric of
// BENCHMARK.json; with --trace 1 a separate traced run of the same
// workload and seed carries every per-layer metric instead. Per-layer
// numbers come from timing and counting the benchmark's own calls into
// each module's public functions (and a CPU profile of the workload's
// pass), so no code outside this directory is instrumented. See
// README.md in this directory for what each metric means on each
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"
)

// bench is the state of one benchmark run: its inputs, the operation
// and failure counts, and the metrics the workload filled in.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration

	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// declared lists the metrics this run must emit.
	declared []metricDecl
}

// op records one attempted operation and, when err is non-nil, its
// failure.
func (b *bench) op(err error) {
	if err != nil {
		b.fail(err)
		return
	}
	b.attempted++
}

// fail records a failed operation or output check. A check that belongs
// to no single operation (a counter or determinism check, the
// self-check) counts as one more attempted operation, so failed never
// exceeds attempted and every failure lowers success_ratio.
func (b *bench) fail(err error) {
	b.attempted++
	b.failed++
	b.problems = append(b.problems, err.Error())
}

// failf records a failed output check described by a format string.
func (b *bench) failf(format string, args ...any) { b.fail(fmt.Errorf(format, args...)) }

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// bypassed sets to 0 every declared metric of the named layers (metric
// name prefixes): the workload makes no call into them that the
// benchmark could time or count.
func (b *bench) bypassed(layers ...string) {
	for _, m := range b.declared {
		for _, l := range layers {
			if strings.HasPrefix(m.Name, l) {
				b.set(m.Name, 0)
			}
		}
	}
}

// setLatency sets the latency metrics of a closed-loop workload. Its
// operations form one class, so the per-class medians the flexflowd mix
// reports (inline_hit_ms_p50, miss_ms_p50) are that class's median too.
func setLatency(b *bench, p50ms float64) {
	for _, name := range []string{"latency_p50_ms", "inline_hit_ms_p50", "miss_ms_p50"} {
		b.set(name, p50ms)
	}
}

// finishTrace derives the cross-layer ratios of a traced run and writes
// its spans out.
func finishTrace(b *bench, tr *tracer) {
	b.set("search.apply_delta_share", ratio(b.metrics["sim.apply_delta_us"]*1e-6*b.metrics["search.proposals"], b.metrics["search.mcmc_s"]))
	writeTrace(b, tr)
}

// workload is one entry of the benchmark: measure fills the end-to-end
// metrics (untraced), trace the per-layer metrics.
type workload struct {
	measure, trace func(b *bench)
}

var workloads = map[string]workload{
	"search-synth50k": {measureSynth, traceSynth},
	"paper-suite":     {measureSuite, traceSuite},
	"flexflowd-mix":   {measureMix, traceMix},
}

// declaration is the part of BENCHMARK.json the self-check reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: drives every generated input")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run emitting the per-layer metrics")
	flag.Parse()

	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}

	b := &bench{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		metrics: map[string]float64{},
	}
	b.declared = decl.EndToEnd
	if *trace == 1 {
		b.declared = decl.PerLayer
		w.trace(b)
	} else {
		w.measure(b)
	}
	if b.attempted < 1 {
		b.failf("no operation attempted")
	}
	if *trace == 0 {
		// Present for the self-check; set again below, once every check
		// (the self-check's own too) has counted its failures.
		b.set("success_ratio", 0)
	}
	selfCheck(b, decl)
	if *trace == 0 {
		b.set("success_ratio", float64(b.attempted-b.failed)/float64(b.attempted))
	}
	metrics := map[string]value{}
	for _, m := range b.declared {
		metrics[m.Name] = value{Value: finite(b.metrics[m.Name]), Unit: m.Unit}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// selfCheck confirms that every declared workload is implemented, that
// the run emitted exactly the declared metrics under valid names and
// units, and that every value is finite; each violation is a failure.
func selfCheck(b *bench, decl declaration) {
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			b.failf("self-check: declared workload %q is not implemented", w.Name)
		}
	}
	declared := map[string]bool{}
	for _, m := range b.declared {
		declared[m.Name] = true
		if !validName.MatchString(m.Name) || !validUnit.MatchString(m.Unit) {
			b.failf("self-check: invalid metric name or unit %q [%q]", m.Name, m.Unit)
		}
		v, ok := b.metrics[m.Name]
		switch {
		case !ok:
			b.failf("self-check: declared metric %s was not emitted", m.Name)
		case finite(v) != v:
			b.failf("self-check: metric %s is not finite", m.Name)
		}
	}
	var extra []string
	for name := range b.metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		b.failf("self-check: undeclared metrics emitted: %s", strings.Join(extra, ", "))
	}
}

// finite returns v, or 0 when v is NaN or infinite (which JSON cannot
// carry).
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
