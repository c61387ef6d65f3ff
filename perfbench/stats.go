package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// subSeed derives an independent, non-zero seed for one consumer of the
// workload seed (a splitmix64 finalizer over seed and stream), so the
// streams never collide and 0 never reaches an API that reads it as
// "use the default".
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func floatSum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// geomean returns the geometric mean of positive values (0 if none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }
func msec(d time.Duration) float64 { return float64(d) / 1e6 }
func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fits reports whether another unit of work, taking the median of the
// durations (seconds) so far, would end within the measured phase that
// began at start.
func fits(start time.Time, phase time.Duration, done []float64) bool {
	return time.Since(start).Seconds()+median(done) <= phase.Seconds()
}

// setupRuns is how many times a run sets its workload up for setup_s.
const setupRuns = 11

// setupMedian runs setup setupRuns times and returns the median
// duration; the workload keeps what the last call built.
func setupMedian(setup func()) float64 {
	var ds []float64
	for range setupRuns {
		t0 := time.Now()
		setup()
		ds = append(ds, secs(time.Since(t0)))
	}
	return median(ds)
}

// heapWatch samples the live heap (as of the most recent GC) while a
// measured phase runs and keeps the peak of each window of it.
type heapWatch struct {
	mu         sync.Mutex
	peak       uint64 // of the current window
	peaks      []float64
	stop, done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	v := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// window closes the current window, recording its peak.
func (h *heapWatch) window() {
	h.sample()
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// medianPeakMB stops the sampler and returns the median over the
// windows of their peak live heap, in MiB. The live heap of a window
// changes only when a GC ends, so a single window's peak depends on
// when the collections fell; the median over windows is steadier.
func (h *heapWatch) medianPeakMB() float64 {
	close(h.stop)
	<-h.done
	if len(h.peaks) == 0 {
		h.window()
	}
	return median(h.peaks)
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
