// Package par is the worker-pool primitive used by the concurrent
// search runtime and the experiments harness. It deliberately exposes
// only index-based fan-out: callers hand out work by index and write
// results by index, so the concurrency never reorders anything — the
// shape every deterministic parallel loop in this repo follows (the
// repo-wide contract is written down in docs/CONCURRENCY.md).
//
// All loops share one process-wide pool sized by a single global bound
// (SetWorkers; default runtime.NumCPU). Nested submission is
// deadlock-free by construction: For never blocks its goroutine while
// there is claimable work anywhere — the submitting goroutine executes
// pending indices itself (its own loop first, then any other live
// loop), so arbitrarily deep nesting completes even on a pool of one,
// and the total number of goroutines executing loop bodies never
// exceeds the bound, no matter how many fan-out levels are stacked
// (registry runners × experiment cells × MCMC chains × Neighborhood
// sweeps all compose under the one limit instead of multiplying).
//
// Why it cannot deadlock: a goroutine parks only when nothing is
// claimable — every unfinished index is either already in flight or
// belongs to a loop at its width cap. In-flight indices are held by
// goroutines that are either running (and finite loop bodies finish)
// or themselves parked in a nested For — and a nested loop is always a
// strict descendant of the index being executed, so the waits-for
// relation follows the finite fork-join tree and can never form a
// cycle. Width-capped indices cannot be stranded either: the executor
// that frees a cap slot either re-claims atomically under the
// scheduler lock before it can park, or — on the two paths that leave
// the pool instead (a top-level submitter returning, runtime.Goexit) —
// wakes the parked workers. Completion of the last index of a loop
// wakes its submitter. See docs/CONCURRENCY.md for the longer version
// of this argument.
package par

import (
	"runtime"
	"sync"
)

// loop is one For/ForEach invocation: a batch of indices claimed in
// increasing order by the goroutines that execute it. All fields are
// guarded by sched.mu.
type loop struct {
	fn       func(int)
	n        int // total indices
	next     int // next unclaimed index
	done     int // indices finished
	inflight int // indices currently executing
	width    int // max concurrent executors of this loop
	// panicked holds the first panic value raised by a body of this
	// loop (recovered by whichever goroutine ran it); the loop's
	// unclaimed indices are cancelled and the loop's own submitter
	// re-raises it once in-flight bodies drain.
	panicked any
}

// sched is the process-wide scheduler: one bound, one queue of live
// loops, and up to bound-1 helper goroutines that drain it. The
// submitting goroutine of every loop is the remaining executor, which
// is what keeps nested submission deadlock-free.
var sched = struct {
	mu      sync.Mutex
	cond    *sync.Cond
	bound   int     // global parallelism bound (counts the submitter)
	helpers int     // helper goroutines alive (target: bound-1)
	waiters int     // goroutines parked on cond
	loops   []*loop // loops with unclaimed indices, oldest first
}{}

func init() {
	sched.cond = sync.NewCond(&sched.mu)
	sched.bound = runtime.NumCPU()
}

// SetWorkers sets the process-wide worker bound (n <= 0 resets to
// runtime.NumCPU) and returns the effective value. The pool
// contributes at most bound-1 helper goroutines, and the bound counts
// the submitting goroutine: one top-level call tree never executes
// more than bound loop bodies concurrently, however deeply nested,
// and a bound of one runs every loop inline on its caller. Each
// *independent* goroutine concurrently submitting its own top-level
// loop adds itself on top of the helpers (k submitters: at most
// bound-1+k bodies). Resizing applies to new claims, never to bodies
// already executing: shrinking retires helpers as they finish their
// current index (running loops narrow promptly toward the new bound),
// while growing applies only to loops submitted afterwards — a loop's
// width is frozen when it is submitted, so a loop already running
// never widens. Results never depend on the bound — only wall-clock
// time does.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	sched.mu.Lock()
	sched.bound = n
	// Wake parked helpers: surplus ones exit, the rest re-park.
	sched.cond.Broadcast()
	sched.mu.Unlock()
	return n
}

// WorkerBound returns the current process-wide worker bound.
func WorkerBound() int {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	return sched.bound
}

// Width returns the number of goroutines a ForEach call with the given
// per-call limit may occupy: the global bound, further capped by
// limit when limit > 0. Callers sizing work splits (e.g. DFS prefix
// fan-out) should use this, not the raw limit.
func Width(limit int) int {
	b := WorkerBound()
	if limit > 0 && limit < b {
		return limit
	}
	return b
}

// For runs fn(i) for every i in [0, n) on the shared pool, bounded by
// the process-wide SetWorkers limit. Indices are handed out in
// increasing order; fn must be safe to call concurrently and should
// communicate results positionally (results[i] = ...), never by
// appending to shared state. For returns after every call finished.
//
// For may be called from inside fn (nested fan-out): the nested call
// shares the same pool and the same global bound, and the calling
// goroutine helps execute pending indices instead of blocking, so
// nesting can never deadlock and never multiplies parallelism.
//
// If a body panics, the loop stops handing out indices, drains its
// in-flight bodies, and re-raises the first panic value in the
// goroutine that called For — never in an unrelated goroutine that
// happened to execute the body while helping.
//
// With a bound of one (or n == 1) the loop runs on the calling
// goroutine with no synchronization at all, so a serial configuration
// behaves exactly like a plain for loop.
func For(n int, fn func(i int)) {
	ForEach(0, n, fn)
}

// ForEach is For with a per-call width cap: at most min(limit, bound)
// goroutines execute this loop's bodies (limit <= 0 means no extra
// cap). A limit of one runs the loop inline on the caller, in order,
// with no synchronization.
//
// The limit only ever narrows a loop's share of the shared pool; it
// cannot raise parallelism above the process-wide bound. It carries the
// per-call Workers caps (OptimizeOptions.Workers and the per-search
// Workers fields it feeds), which let one caller — a flexflowd request,
// say — keep a search from taking the whole pool. Call sites without
// such a cap should use For and let SetWorkers govern.
func ForEach(limit, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	sched.mu.Lock()
	width := sched.bound
	if limit > 0 && limit < width {
		width = limit
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		sched.mu.Unlock()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	l := &loop{fn: fn, n: n, width: width}
	sched.loops = append(sched.loops, l)
	spawnHelpersLocked()
	sched.cond.Broadcast()
	// If fn exits the goroutine (runtime.Goexit, e.g. t.FailNow from a
	// caller-run body), the participation loop below unwinds without a
	// panic value: cancel the loop's unclaimed indices and wait out
	// the in-flight ones so no body outlives this call. Body panics
	// never unwind here — runLocked records them on the body's own
	// loop and the re-raise happens at the bottom of this function.
	completed := false
	defer func() {
		if completed {
			return
		}
		sched.mu.Lock()
		cancelLocked(l)
		for l.done < l.n {
			waitLocked()
		}
		sched.mu.Unlock()
	}()
	// Caller-runs: claim from our own loop first, then help any other
	// live loop (in particular loops our in-flight bodies submitted),
	// and park only when nothing anywhere is claimable.
	for l.done < l.n {
		if cl, i, ok := claimLocked(l); ok {
			runLocked(cl, i)
			continue
		}
		waitLocked()
	}
	completed = true
	p := l.panicked
	sched.mu.Unlock()
	if p != nil {
		// Re-raise the first body panic in the submitter — the loop
		// has fully drained, so the caller's recover never races
		// leftover bodies, and a panic from a stolen body surfaced in
		// the loop that owned it, not in whoever happened to run it.
		panic(p)
	}
}

// cancelLocked retires a loop's unclaimed indices: they are counted
// done without running so waiters unblock once in-flight bodies drain.
func cancelLocked(l *loop) {
	if l.next >= l.n {
		return
	}
	skipped := l.n - l.next
	l.next = l.n
	removeLoopLocked(l)
	l.done += skipped
	if l.done == l.n {
		sched.cond.Broadcast()
	}
}

// spawnHelpersLocked brings the helper count up to bound-1. Helpers
// are cheap when idle (parked on the cond), so the pool spawns its
// full complement on first use and lets SetWorkers shrink it.
func spawnHelpersLocked() {
	for sched.helpers < sched.bound-1 {
		sched.helpers++
		go helperLoop()
	}
}

// helperLoop is the body of one pool helper: claim any runnable index,
// execute it, park when idle, exit when the pool shrank. If a body
// kills the goroutine via runtime.Goexit, the deferred census fix
// keeps sched.helpers honest so the next submission spawns a
// replacement.
func helperLoop() {
	retired := false
	defer func() {
		if retired {
			return
		}
		// A body ran runtime.Goexit on this goroutine (runLocked's
		// unwind path released the lock). Uncount the dead helper and
		// wake the pool in case the death stranded claimable work.
		sched.mu.Lock()
		sched.helpers--
		sched.cond.Broadcast()
		sched.mu.Unlock()
	}()
	sched.mu.Lock()
	for {
		if sched.helpers > sched.bound-1 {
			sched.helpers--
			retired = true
			sched.mu.Unlock()
			return
		}
		if l, i, ok := claimLocked(nil); ok {
			runLocked(l, i)
			continue
		}
		waitLocked()
	}
}

// waitLocked parks the goroutine on the scheduler cond, keeping the
// waiter census runLocked consults for its freed-capacity wakeup.
func waitLocked() {
	sched.waiters++
	sched.cond.Wait()
	sched.waiters--
}

// claimLocked picks a runnable index: from own when it still has
// unclaimed capacity, otherwise from the newest-submitted live loop.
// Newest-first is a heuristic, not a lineage guarantee: within one
// call tree the newest loop is the deepest descendant (where a waiting
// submitter's dependencies live), but when independent top-level
// submitters coexist a goroutine can steal a body from an unrelated
// tree and not return to its own (completed) loop until that body
// finishes — a bounded latency cost, never a correctness or deadlock
// one. Returns ok=false when nothing is claimable.
func claimLocked(own *loop) (*loop, int, bool) {
	if own != nil && own.next < own.n && own.inflight < own.width {
		return own, takeLocked(own), true
	}
	for i := len(sched.loops) - 1; i >= 0; i-- {
		l := sched.loops[i]
		if l.next < l.n && l.inflight < l.width {
			return l, takeLocked(l), true
		}
	}
	return nil, 0, false
}

// takeLocked claims the next index of l, removing l from the live list
// once fully claimed.
func takeLocked(l *loop) int {
	i := l.next
	l.next++
	l.inflight++
	if l.next == l.n {
		removeLoopLocked(l)
	}
	return i
}

// removeLoopLocked splices l out of the live-loop list (no-op if it
// was already removed).
func removeLoopLocked(l *loop) {
	for j, x := range sched.loops {
		if x == l {
			sched.loops = append(sched.loops[:j], sched.loops[j+1:]...)
			return
		}
	}
}

// runLocked executes one claimed index. Called with sched.mu held;
// returns with it held. A body panic is recovered here and recorded on
// the body's own loop — whose unclaimed indices are cancelled and
// whose submitter re-raises it after the drain — so execution of the
// claiming goroutine continues normally whether it ran its own loop's
// body or a stolen one. runtime.Goexit is the one unwind that passes
// through: the index is counted complete and the lock released so the
// pool isn't wedged while the goroutine dies.
func runLocked(l *loop, i int) {
	sched.mu.Unlock()
	normal := false
	defer func() {
		r := recover() // nil on normal return and on runtime.Goexit
		sched.mu.Lock()
		if r != nil {
			if l.panicked == nil {
				l.panicked = r
			}
			cancelLocked(l)
			normal = true // panic absorbed; execution resumes
		}
		l.inflight--
		l.done++
		if l.done == l.n {
			sched.cond.Broadcast()
		} else if sched.waiters > 0 && l.next < l.n && l.inflight < l.width {
			// A width-cap slot freed while someone is parked. Usually
			// this goroutine re-claims it immediately, but two exit
			// paths leave the pool instead (a top-level submitter whose
			// own loop just completed; runtime.Goexit) — wake the
			// parked workers so capped-but-unclaimed work is never
			// stranded below its width.
			sched.cond.Broadcast()
		}
		if !normal {
			sched.mu.Unlock()
		}
	}()
	l.fn(i)
	normal = true
}
