package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flexflow"
)

// blockRelease gates the "blocktest" optimizer: it blocks until the
// channel closes (or its context expires), giving tests precise
// control over job lifetime. Each test that uses it installs a fresh
// channel before issuing requests.
var blockRelease chan struct{}

// blockingOptimizer is a test-only optimizer with controllable
// duration. It honors the Optimizer contract: on cancellation it
// returns promptly with a usable best-so-far strategy and ctx.Err().
type blockingOptimizer struct{}

func (blockingOptimizer) Name() string { return "blocktest" }

func (blockingOptimizer) Optimize(ctx context.Context, p flexflow.Problem, o flexflow.OptimizeOptions) (flexflow.Result, error) {
	select {
	case <-blockRelease:
	case <-ctx.Done():
	}
	return flexflow.Result{
		Algorithm:  "blocktest",
		Best:       flexflow.DataParallel(p.Graph, p.Topology),
		BestCost:   time.Millisecond,
		Iters:      1,
		SearchTime: time.Millisecond,
	}, ctx.Err()
}

// panicRelease gates the "panictest" optimizer: it blocks until the
// channel closes, then panics, so a test can coalesce waiters onto the
// doomed job first.
var panicRelease chan struct{}

// panickingOptimizer is a test-only optimizer that breaks the Optimizer
// contract in the worst way: it panics instead of returning.
type panickingOptimizer struct{}

func (panickingOptimizer) Name() string { return "panictest" }

func (panickingOptimizer) Optimize(ctx context.Context, p flexflow.Problem, o flexflow.OptimizeOptions) (flexflow.Result, error) {
	<-panicRelease
	panic("panictest: optimizer bug")
}

func init() {
	flexflow.RegisterOptimizer("blocktest", func() flexflow.Optimizer { return blockingOptimizer{} })
	flexflow.RegisterOptimizer("panictest", func() flexflow.Optimizer { return panickingOptimizer{} })
}

// optBody builds a small real request: lenet/16 on 2 GPUs, few enough
// proposals to finish in well under a second.
func optBody(algorithm string, seed int64, extra string) string {
	return fmt.Sprintf(`{"model":"lenet","scale":16,"gpus":2,"algorithm":%q,
		"options":{"max_iters":60,"seed":%d,"timeout_ms":30000}%s}`, algorithm, seed, extra)
}

func postJSON(t *testing.T, ts *httptest.Server, body string) (*http.Response, optimizeResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out optimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

// scrapeMetric reads one flexflowd_* counter off /metrics.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// waitMetric polls a counter until it reaches want (tests that need to
// observe a job mid-flight before acting).
func waitMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if scrapeMetric(t, ts, name) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g", name, want)
}

// TestOptimizeCachesRepeat is the core cache contract: the first
// request runs a search, the identical repeat is answered from the
// cache — same strategy bytes, no second search.
func TestOptimizeCachesRepeat(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, first := postJSON(t, ts, optBody("mcmc", 7, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.Cached || first.Fingerprint == "" || len(first.Strategy) == 0 {
		t.Fatalf("bad first response: cached=%v fp=%q strategy=%d bytes",
			first.Cached, first.Fingerprint, len(first.Strategy))
	}
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flexflow.ImportStrategy(first.Strategy, g, flexflow.NewSingleNode(2, "P100")); err != nil {
		t.Fatalf("returned strategy does not validate: %v", err)
	}

	resp, second := postJSON(t, ts, optBody("mcmc", 7, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("identical repeat request was not answered from the cache")
	}
	if !bytes.Equal(first.Strategy, second.Strategy) || first.BestCostNS != second.BestCostNS {
		t.Fatal("cached response differs from the original")
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("repeat request re-ran the search: jobs_total = %g", n)
	}
	if h := scrapeMetric(t, ts, "flexflowd_cache_hits_total"); h != 1 {
		t.Fatalf("cache_hits_total = %g", h)
	}
	if e := scrapeMetric(t, ts, "flexflowd_cache_entries"); e != 1 {
		t.Fatalf("cache_entries = %g", e)
	}
	if p := scrapeMetric(t, ts, "flexflowd_proposals_total"); p <= 0 {
		t.Fatalf("proposals_total = %g", p)
	}
}

// TestOptimizeMatchesLibrary is the differential check: the served
// result must be bit-identical to calling the library directly with
// the same options — the determinism the cache is built on.
func TestOptimizeMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, got := postJSON(t, ts, optBody("mcmc", 11, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Optimize(context.Background(),
		flexflow.Problem{Graph: g, Topology: topo},
		flexflow.OptimizeOptions{MaxIters: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got.BestCostNS != int64(want.BestCost) {
		t.Fatalf("served best cost %d != library %d", got.BestCostNS, int64(want.BestCost))
	}
	wantStrategy, err := flexflow.ExportStrategy(g, want.Best)
	if err != nil {
		t.Fatal(err)
	}
	// The response encoder re-indents embedded JSON; compare compacted.
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, got.Strategy); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, wantStrategy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatal("served strategy differs from the library's")
	}
}

// TestInlineGraphHitsModelCache asserts the cache is content-addressed,
// not request-shape-addressed: an inline graph+topology payload that
// describes the same problem as a model/gpus request must hit the
// entry the model request populated.
func TestInlineGraphHitsModelCache(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, first := postJSON(t, ts, optBody("mcmc", 5, ""))
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("priming request: status %d cached %v", resp.StatusCode, first.Cached)
	}

	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	gdata, err := flexflow.ExportGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	tdata, err := flexflow.ExportTopology(flexflow.NewSingleNode(2, "P100"))
	if err != nil {
		t.Fatal(err)
	}
	inline := fmt.Sprintf(`{"graph":%s,"topology":%s,"algorithm":"mcmc",
		"options":{"max_iters":60,"seed":5,"timeout_ms":30000}}`, gdata, tdata)
	resp, second := postJSON(t, ts, inline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline request: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("inline form of the same problem missed the cache")
	}
	if !bytes.Equal(first.Strategy, second.Strategy) {
		t.Fatal("inline form got a different strategy")
	}
}

// sseEvents posts an optimize request with Accept: text/event-stream
// and returns the parsed (event, data) frames.
func sseEvents(t *testing.T, ts *httptest.Server, body string) [][2]string {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events [][2]string
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, [2]string{event, strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestOptimizeSSE streams a search: at least one progress frame, then
// exactly one terminal result frame; the cached repeat streams a lone
// result frame with cached set.
func TestOptimizeSSE(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	events := sseEvents(t, ts, optBody("mcmc", 21, ""))
	var progress, results int
	var last optimizeResponse
	for _, ev := range events {
		switch ev[0] {
		case "progress":
			progress++
			var p progressJSON
			if err := json.Unmarshal([]byte(ev[1]), &p); err != nil {
				t.Fatalf("bad progress frame %q: %v", ev[1], err)
			}
			if p.Algorithm != "mcmc" {
				t.Fatalf("progress from %q", p.Algorithm)
			}
		case "result":
			results++
			if err := json.Unmarshal([]byte(ev[1]), &last); err != nil {
				t.Fatalf("bad result frame: %v", err)
			}
		default:
			t.Fatalf("unexpected event %q", ev[0])
		}
	}
	if progress == 0 || results != 1 {
		t.Fatalf("streamed %d progress / %d result frames", progress, results)
	}
	if last.Cached || len(last.Strategy) == 0 {
		t.Fatalf("bad streamed result: cached=%v strategy=%d bytes", last.Cached, len(last.Strategy))
	}

	events = sseEvents(t, ts, optBody("mcmc", 21, ""))
	if len(events) != 1 || events[0][0] != "result" {
		t.Fatalf("cached stream sent %d frames, first %q", len(events), events[0][0])
	}
	var cached optimizeResponse
	if err := json.Unmarshal([]byte(events[0][1]), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("cached SSE repeat not marked cached")
	}
}

// TestConcurrentRequests serves distinct problems concurrently: all
// succeed, each search ran once, and every strategy validates.
func TestConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxInflight: 4}))
	defer ts.Close()

	const n = 4
	responses := make([]optimizeResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postJSON(t, ts, optBody("mcmc", int64(100+i), ""))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			responses[i] = out
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	seen := map[string]bool{}
	for i, out := range responses {
		if _, err := flexflow.ImportStrategy(out.Strategy, g, topo); err != nil {
			t.Errorf("request %d: invalid strategy: %v", i, err)
		}
		if seen[out.Fingerprint] {
			t.Errorf("request %d: duplicate fingerprint %s", i, out.Fingerprint)
		}
		seen[out.Fingerprint] = true
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 4 {
		t.Fatalf("jobs_total = %g", n)
	}
}

// TestAdmissionControl fills the single inflight slot with a blocked
// search and asserts the next distinct request bounces with 429 and a
// Retry-After hint, then completes once the slot frees.
func TestAdmissionControl(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxInflight: 1}))
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, optBody("blocktest", 1, ""))
		first <- resp.StatusCode
	}()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)

	resp, _ := postJSON(t, ts, optBody("blocktest", 2, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_rejected_total"); n != 1 {
		t.Fatalf("jobs_rejected_total = %g", n)
	}

	close(blockRelease)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("blocked request finished with %d", status)
	}
	resp, _ = postJSON(t, ts, optBody("blocktest", 2, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request got %d", resp.StatusCode)
	}
}

// TestCoalesce sends the same uncached request twice concurrently: one
// search runs, both callers get its result, the joiner marked
// coalesced.
func TestCoalesce(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxInflight: 2}))
	defer ts.Close()

	type reply struct {
		status int
		out    optimizeResponse
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, out := postJSON(t, ts, optBody("blocktest", 3, ""))
		replies <- reply{resp.StatusCode, out}
	}
	go post()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)
	go post()
	// The joiner must attach, not occupy the second slot.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && scrapeMetric(t, ts, "flexflowd_jobs_total") < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(blockRelease)

	coalesced := 0
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d", i, r.status)
		}
		if r.out.Coalesced {
			coalesced++
		}
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("identical concurrent requests ran %g searches", n)
	}
	if coalesced != 1 {
		t.Fatalf("%d replies marked coalesced, want 1", coalesced)
	}
}

// TestOptimizerPanicIsolated pins panic isolation: a panicking
// optimizer answers its leader and a coalesced waiter with 500, caches
// nothing, bumps jobs_panicked_total, and gives back its admission slot
// and drain WaitGroup entry, so the next request on a one-slot server
// is served and Drain returns at once.
func TestOptimizerPanicIsolated(t *testing.T) {
	panicRelease = make(chan struct{})
	srv := New(Options{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statuses := make(chan int, 2)
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(optBody("panictest", 1, "")))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)
	go post()
	// The joiner's cache miss comes just before it coalesces onto the
	// running job, which stays registered until the release below.
	waitMetric(t, ts, "flexflowd_cache_misses_total", 2)
	close(panicRelease)
	for i := 0; i < 2; i++ {
		if got := <-statuses; got != http.StatusInternalServerError {
			t.Fatalf("reply %d: status %d, want 500", i, got)
		}
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("jobs_total = %g, want 1 (the waiter must coalesce)", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_panicked_total"); n != 1 {
		t.Fatalf("jobs_panicked_total = %g, want 1", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 0 {
		t.Fatalf("a panicked job was cached: entries = %g", n)
	}
	waitMetric(t, ts, "flexflowd_jobs_inflight", 0)

	resp, out := postJSON(t, ts, optBody("mcmc", 1, ""))
	if resp.StatusCode != http.StatusOK || len(out.Strategy) == 0 {
		t.Fatalf("request after the panic: status %d, strategy %d bytes", resp.StatusCode, len(out.Strategy))
	}
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain after a panicked job: %v", err)
	}
}

// TestDeadline cuts a search off at its per-request deadline: the
// caller still gets the best-so-far strategy, marked timed_out, and
// the truncated result is never cached.
func TestDeadline(t *testing.T) {
	blockRelease = make(chan struct{}) // never released: only the deadline ends the search
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	body := `{"model":"lenet","scale":16,"gpus":2,"algorithm":"blocktest",
		"options":{"seed":4,"timeout_ms":100}}`
	start := time.Now()
	resp, out := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bite: %v", elapsed)
	}
	if !out.TimedOut || len(out.Strategy) == 0 {
		t.Fatalf("timed-out search: timed_out=%v strategy=%d bytes", out.TimedOut, len(out.Strategy))
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 0 {
		t.Fatalf("truncated result was cached: entries = %g", n)
	}
	resp, out = postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("repeat of truncated request: status %d cached %v", resp.StatusCode, out.Cached)
	}
}

// TestDeadlineClamp asserts MaxTimeout bounds what a request may ask
// for: a blocked search requesting a long deadline ends at the clamp.
func TestDeadlineClamp(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxTimeout: 100 * time.Millisecond}))
	defer ts.Close()

	body := `{"model":"lenet","scale":16,"gpus":2,"algorithm":"blocktest",
		"options":{"seed":5,"timeout_ms":600000}}`
	start := time.Now()
	resp, out := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK || !out.TimedOut {
		t.Fatalf("status %d timed_out %v", resp.StatusCode, out.TimedOut)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("MaxTimeout clamp did not bite: %v", elapsed)
	}
}

// TestDrain exercises graceful shutdown: draining rejects new work and
// flips /healthz, a patient drain waits for the running search, and an
// expiring drain cancels it — the client still gets a best-so-far.
func TestDrain(t *testing.T) {
	blockRelease = make(chan struct{}) // never released: drain must cancel
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan optimizeResponse, 1)
	go func() {
		_, out := postJSON(t, ts, optBody("blocktest", 6, ""))
		done <- out
	}()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)

	drained := make(chan error, 1)
	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	go func() { drained <- srv.Drain(dctx) }()

	// Draining state is visible immediately.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postJSON(t, ts, optBody("mcmc", 6, ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("optimize during drain got %d, want 503", resp.StatusCode)
	}

	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	out := <-done
	if !out.TimedOut || len(out.Strategy) == 0 {
		t.Fatalf("cancelled search's client got timed_out=%v strategy=%d bytes", out.TimedOut, len(out.Strategy))
	}
}

// TestNoCacheForcesRun asserts no_cache bypasses both lookup and
// coalescing but still refreshes the cache.
func TestNoCacheForcesRun(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	postJSON(t, ts, optBody("mcmc", 9, ""))
	resp, out := postJSON(t, ts, optBody("mcmc", 9, `,"no_cache":true`))
	if resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("no_cache repeat: status %d cached %v", resp.StatusCode, out.Cached)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 2 {
		t.Fatalf("no_cache did not force a re-run: jobs_total = %g", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 1 {
		t.Fatalf("cache_entries = %g", n)
	}
}

// TestBadRequests drives every request-validation path to a 400.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	cases := map[string]string{
		"empty":             `{}`,
		"bad json":          `{`,
		"unknown field":     `{"model":"lenet","gpus":2,"modle":"x"}`,
		"unknown model":     `{"model":"lenet-9000","gpus":2}`,
		"model and graph":   `{"model":"lenet","graph":{"name":"g","ops":[]},"gpus":2}`,
		"no topology":       `{"model":"lenet","scale":16}`,
		"two topologies":    `{"model":"lenet","scale":16,"gpus":2,"cluster":"p100"}`,
		"unknown cluster":   `{"model":"lenet","scale":16,"cluster":"dgx"}`,
		"unknown algorithm": `{"model":"lenet","scale":16,"gpus":2,"algorithm":"quantum"}`,
		"negative scale":    `{"model":"lenet","scale":-1,"gpus":2}`,
		"bad initial":       `{"model":"lenet","scale":16,"gpus":2,"initial":{"name":"other"}}`,
		"bad inline graph":  `{"graph":{"name":"g","ops":[{"name":"x","kind":"Warp"}]},"gpus":2}`,
	}
	for name, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg map[string]string
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, resp.StatusCode, msg)
		}
	}
}

// TestRemovedLocalityRejected pins the locality surface the daemon
// accepts: a request naming the removed "late-biased" policy is a 400
// whose message lists the valid set, and it admits no job and touches
// neither the cache nor the search counters.
func TestRemovedLocalityRejected(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	body := `{"model":"lenet","scale":16,"gpus":2,"options":{"max_iters":60,"locality":"late-biased"}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]string
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400", resp.StatusCode, msg)
	}
	text := msg["error"]
	for _, want := range []string{"late-biased", "uniform", "measured"} {
		if !strings.Contains(text, want) {
			t.Errorf("error body %q does not mention %q", text, want)
		}
	}
	for _, name := range []string{"flexflowd_jobs_total", "flexflowd_jobs_inflight", "flexflowd_cache_misses_total", "flexflowd_cache_hits_total", "flexflowd_proposals_total"} {
		if got := scrapeMetric(t, ts, name); got != 0 {
			t.Errorf("%s = %g after a rejected request, want 0", name, got)
		}
	}
}

// TestMetaEndpoints covers /healthz and /v1/optimizers.
func TestMetaEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/optimizers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Optimizers []string `json:"optimizers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mcmc", "exhaustive", "optcnn", "reinforce", "polish"} {
		found := false
		for _, have := range out.Optimizers {
			if have == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("optimizer %q missing from %v", want, out.Optimizers)
		}
	}
}
