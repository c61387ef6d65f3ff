// Package server implements flexflowd, the strategy service: an HTTP
// front end over the optimizer registry that turns the library's
// Optimize call into a long-running daemon. A request names a problem
// (a model-zoo graph or an inline graph payload, a built-in cluster or
// an inline topology) and an algorithm; the server runs the search
// under a per-request deadline and a per-request share of the one
// process-wide worker pool, streams progress over SSE when asked, and
// fronts everything with a content-addressed strategy cache keyed by
// flexflow.Fingerprint — the repo's determinism contract
// (docs/CONCURRENCY.md) is what makes a cached strategy a faithful
// stand-in for a re-run. In front of that cache, an index from the
// SHA-256 of a request body to its fingerprint answers a byte-identical
// repeat without decoding the body: decoding depends only on the bytes
// and the installed cost profile, which the index entry records.
// Topologies are bounded to maxDevices before anything is built.
// docs/SERVER.md documents the endpoints, payloads and knobs;
// cmd/flexflowd is the binary.
package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flexflow"
)

// Options configure a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxInflight bounds concurrently running searches — the admission
	// control. Requests that would start a search beyond the bound are
	// rejected with 429 and a Retry-After header; cache hits and
	// requests coalesced onto an identical in-flight search are always
	// admitted (<= 0 means 4).
	MaxInflight int
	// DefaultTimeout is the search deadline applied when a request
	// does not name one via options.timeout_ms (0 means 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the deadline a request may ask for (0 means
	// 10 minutes).
	MaxTimeout time.Duration
	// CacheSize bounds the strategy cache's entry count, and that of
	// the digest index in front of it; least recently used entries are
	// evicted beyond it (0 means 256, negative disables caching).
	CacheSize int
}

// Server is the flexflowd HTTP service. Create one with New, mount it
// as an http.Handler, and call Drain on shutdown. Its endpoints:
//
//	POST /v1/optimize   run (or answer from cache) one optimize request
//	GET  /v1/optimizers list the registered algorithm names
//	GET  /healthz       readiness (503 while draining)
//	GET  /metrics       plaintext counters (flexflowd_* )
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}

	draining atomic.Bool
	wg       sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job   // coalescable in-flight searches, by fingerprint
	running map[*job]struct{} // every in-flight search, for Drain cancellation

	// cache is the strategy cache, by fingerprint; digests is the index
	// in front of it, from the SHA-256 of a request body to the
	// fingerprint that body decoded to. Both are nil when caching is
	// disabled.
	cache   *lruCache[string, *cacheEntry]
	digests *lruCache[[sha256.Size]byte, digestEntry]

	met metrics
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = time.Minute
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 10 * time.Minute
	}
	size := opts.CacheSize
	if size == 0 {
		size = 256
	}
	s := &Server{
		opts:    opts,
		sem:     make(chan struct{}, opts.MaxInflight),
		jobs:    map[string]*job{},
		running: map[*job]struct{}{},
	}
	if size > 0 {
		s.cache = newLRUCache[string, *cacheEntry](size)
		s.digests = newLRUCache[[sha256.Size]byte, digestEntry](size)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /v1/optimizers", s.handleOptimizers)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting new optimize requests (they get 503, and
// /healthz flips to 503 so load balancers rotate the instance out) and
// waits for in-flight searches to finish. If ctx expires first the
// remaining searches are cancelled — they return their best-so-far
// promptly per the Optimizer contract — and Drain returns ctx.Err()
// after they unwind.
func (s *Server) Drain(ctx context.Context) error {
	// Flag under mu: startJob registers (and wg.Add's) under the same
	// lock, so once the flag is visible no new search can join the
	// WaitGroup and Wait below races with nothing.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for j := range s.running {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// job is one running search: the single flight every identical request
// coalesces onto. Waiters select on done and then read res/status/err;
// SSE waiters additionally subscribe to the progress fan-out.
type job struct {
	cancel context.CancelFunc
	done   chan struct{}

	// Written once by the runner before done closes.
	res    *optimizeResponse
	status int
	err    error

	mu   sync.Mutex
	subs []chan flexflow.ProgressEvent
}

// subscribe registers a progress listener. The channel is buffered and
// sends are dropped when it is full: progress is a lossy sample; the
// terminal result event is the authoritative outcome.
func (j *job) subscribe() chan flexflow.ProgressEvent {
	ch := make(chan flexflow.ProgressEvent, 64)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch
}

// publish fans one optimizer progress event out to every subscriber.
// It is the job's OptimizeOptions.OnEvent callback, so it must be safe
// for concurrent use and must not block — both hold.
func (j *job) publish(ev flexflow.ProgressEvent) {
	j.mu.Lock()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// handleOptimize serves POST /v1/optimize: the digest index, cache
// lookup, coalescing onto an identical in-flight search, admission
// control, then either a plain JSON response or an SSE stream depending
// on the Accept header. A request the digest index cannot answer — an
// unknown body, a fingerprint evicted from the cache or still being
// searched, a no_cache request — takes the decode path.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	stream := wantsSSE(r)

	var digest [sha256.Size]byte
	if s.cache != nil {
		digest = sha256.Sum256(body)
		if e, ok := s.digestHit(digest); ok {
			s.met.cacheHits.Add(1)
			s.met.digestHits.Add(1)
			answerHit(w, e, stream)
			return
		}
	}

	profile := flexflow.ActiveCostProfile()
	req, err := s.decodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if s.cache != nil && !req.wire.NoCache {
		// Index the body only if the profile it was fingerprinted under
		// is the one its entry records.
		if profile == flexflow.ActiveCostProfile() {
			s.digests.put(digest, digestEntry{fp: req.fp, profile: profile})
		}
		if e, ok := s.cache.get(req.fp); ok {
			s.met.cacheHits.Add(1)
			answerHit(w, e, stream)
			return
		}
		s.met.cacheMisses.Add(1)
	}

	var j *job
	coalesced := false
	if !req.wire.NoCache {
		s.mu.Lock()
		j, coalesced = s.jobs[req.fp], s.jobs[req.fp] != nil
		s.mu.Unlock()
	}
	if j == nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.met.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "optimizer at capacity; retry later")
			return
		}
		j = s.startJob(req, !req.wire.NoCache)
		if j == nil {
			// Drain won the race after the entry check: give the slot
			// back and bounce.
			<-s.sem
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
	}

	if stream {
		s.streamJob(w, r, j, coalesced)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away. The search keeps running: it still
		// populates the cache and answers any coalesced waiters.
		return
	}
	if j.err != nil {
		writeError(w, j.status, j.err.Error())
		return
	}
	resp := *j.res
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// digestHit returns the cache entry for a request body known by its
// digest: the entry of the fingerprint the same bytes decoded to under
// the installed cost profile, if the strategy cache still holds it.
func (s *Server) digestHit(digest [sha256.Size]byte) (*cacheEntry, bool) {
	d, ok := s.digests.get(digest)
	if !ok || d.profile != flexflow.ActiveCostProfile() {
		return nil, false
	}
	return s.cache.get(d.fp)
}

// answerHit answers a request from a cache entry: its encoded body, or a
// lone SSE result frame.
func answerHit(w http.ResponseWriter, e *cacheEntry, stream bool) {
	if stream {
		streamResult(w, e.resp)
		return
	}
	writeBody(w, http.StatusOK, e.encoded())
}

// startJob launches one search on its own goroutine, detached from any
// single client connection: its lifetime is the per-request deadline,
// not the socket, so a disconnecting leader neither kills coalesced
// waiters nor wastes the nearly-finished result. The caller has
// already acquired an admission slot. Returns nil if Drain raced the
// caller's entry check — registration and wg.Add happen under mu, the
// same lock Drain flags under, so Drain's Wait can never miss a job.
//
// A panicking optimizer fails only its own job: the leader and every
// coalesced waiter get a 500, nothing is cached, and the admission slot
// and the drain WaitGroup are released as on a normal finish.
func (s *Server) startJob(req *request, dedup bool) *job {
	ctx, cancel := context.WithTimeout(context.Background(), req.timeout)
	j := &job{cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cancel()
		return nil
	}
	if dedup {
		s.jobs[req.fp] = j
	}
	s.running[j] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()

	opts := req.opts
	opts.OnEvent = j.publish

	s.met.jobsTotal.Add(1)
	s.met.inflight.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.met.panicked.Add(1)
				j.res, j.status = nil, http.StatusInternalServerError
				j.err = fmt.Errorf("optimizer %q panicked: %v", req.algorithm, p)
			}
			cancel()
			s.mu.Lock()
			if dedup {
				delete(s.jobs, req.fp)
			}
			delete(s.running, j)
			s.mu.Unlock()
			<-s.sem
			s.met.inflight.Add(-1)
			s.wg.Done()
			close(j.done)
		}()
		j.res, j.status, j.err = s.run(ctx, req.fp, req.prob, req.algorithm, opts)
	}()
	return j
}

// run executes one search and shapes its outcome: a complete result is
// stored in the cache; a deadline-cut result is returned with timed_out
// set but never cached, because a wall-clock truncation is not the
// deterministic full-search answer the fingerprint promises.
func (s *Server) run(ctx context.Context, fp string, prob flexflow.Problem, algorithm string, opts flexflow.OptimizeOptions) (*optimizeResponse, int, error) {
	opt, err := flexflow.GetOptimizer(algorithm)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	res, err := opt.Optimize(ctx, prob, opts)
	s.met.proposals.Add(int64(res.Iters))
	s.met.searchNS.Add(int64(res.SearchTime))
	if res.Best == nil {
		if err == nil {
			err = fmt.Errorf("optimizer %q produced no strategy", algorithm)
		}
		status := http.StatusInternalServerError
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		return nil, status, err
	}
	sdata, serr := flexflow.ExportStrategy(prob.Graph, res.Best)
	if serr != nil {
		return nil, http.StatusInternalServerError, serr
	}
	resp := &optimizeResponse{
		Algorithm:    res.Algorithm,
		Fingerprint:  fp,
		BestCostNS:   int64(res.BestCost),
		Iters:        res.Iters,
		SearchTimeNS: int64(res.SearchTime),
		Strategy:     sdata,
	}
	if err != nil {
		resp.TimedOut = true
		return resp, http.StatusOK, nil
	}
	if s.cache != nil {
		s.cache.put(fp, newCacheEntry(*resp))
	}
	return resp, http.StatusOK, nil
}

// handleOptimizers serves GET /v1/optimizers.
func (s *Server) handleOptimizers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"optimizers": flexflow.Optimizers()})
}

// handleHealth serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing here.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
