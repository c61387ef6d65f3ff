package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/tensor"
)

// tracer keeps the spans of a traced run in memory; write puts them in
// a file when the run ends. A span covers one call the benchmark makes
// into a layer. Hot boundaries (estimator calls) are counted and timed
// in aggregate by countingEstimator instead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// total sums the durations of the closed spans with the given name and
// counts them.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// mean returns the mean duration of the named spans (0 if none).
func (t *tracer) mean(name string) time.Duration {
	sum, n := t.total(name)
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// write computes every span's self time (its duration minus the union
// of its children's intervals) and writes the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the spans' intervals cover.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum time.Duration
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeTrace writes the run's spans under .bench_build/traces; a failed
// write is reported on stderr and does not fail the run.
func writeTrace(b *bench, t *tracer) {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := t.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	}
}

// countingEstimator wraps the measuring estimator the facade uses
// (flexflow.NewEstimator) and counts and times every call into it.
type countingEstimator struct {
	inner  *perfmodel.MeasuringEstimator
	calls  atomic.Int64
	busyNS atomic.Int64
}

func newMeasuringEstimator() *perfmodel.MeasuringEstimator {
	return perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
}

func newCountingEstimator() *countingEstimator {
	return &countingEstimator{inner: newMeasuringEstimator()}
}

// ExecTime implements perfmodel.Estimator.
func (e *countingEstimator) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass perfmodel.Pass) time.Duration {
	t0 := time.Now()
	d := e.inner.ExecTime(op, out, dev, pass)
	e.busyNS.Add(int64(time.Since(t0)))
	e.calls.Add(1)
	return d
}

// report sets the perfmodel.* metrics from the estimator's counters.
func (e *countingEstimator) report(b *bench) {
	hits, misses := e.inner.Stats()
	b.set("perfmodel.calls", float64(e.calls.Load()))
	b.set("perfmodel.busy_s", float64(e.busyNS.Load())/1e9)
	b.set("perfmodel.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	b.set("perfmodel.signatures", float64(e.inner.DistinctSignatures()))
}
