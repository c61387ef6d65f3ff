package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexflow"
	"flexflow/internal/calib"
	"flexflow/internal/device"
)

// serve sends one optimize body straight through ServeHTTP (as SSE when
// stream is set) and returns the recorded response.
func serve(s *Server, body []byte, stream bool) *httptest.ResponseRecorder {
	r := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
	if stream {
		r.Header.Set("Accept", "text/event-stream")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// counters reads every flexflowd_* counter off GET /metrics.
func counters(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "flexflowd_%s %g", &name, &v); err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// delta is the change in the hit, digest-hit, miss and job counters one
// request makes.
type delta struct{ hits, digestHits, misses, jobs float64 }

// sendAndCount serves one body and checks the counters moved by want.
func sendAndCount(t *testing.T, s *Server, body []byte, stream bool, want delta) *httptest.ResponseRecorder {
	t.Helper()
	before := counters(t, s)
	w := serve(s, body, stream)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	after := counters(t, s)
	got := delta{
		hits:       after["cache_hits_total"] - before["cache_hits_total"],
		digestHits: after["cache_digest_hits_total"] - before["cache_digest_hits_total"],
		misses:     after["cache_misses_total"] - before["cache_misses_total"],
		jobs:       after["jobs_total"] - before["jobs_total"],
	}
	if got != want {
		t.Fatalf("counters moved by %+v, want %+v", got, want)
	}
	return w
}

// resultFrame returns the data of an SSE stream's one result frame.
func resultFrame(t *testing.T, stream string) []byte {
	t.Helper()
	var data []byte
	for _, frame := range strings.Split(stream, "\n\n") {
		if rest, ok := strings.CutPrefix(frame, "event: result\ndata: "); ok {
			if data != nil {
				t.Fatal("stream has two result frames")
			}
			data = []byte(rest)
		}
	}
	if data == nil {
		t.Fatalf("stream has no result frame: %q", stream)
	}
	return data
}

// TestDigestFrontDifferential pins the digest index against the decode
// path. For zoo, inline, initial, budgeted and no_cache requests, sent
// plain and as SSE: the first send searches; a byte-identical repeat is
// a digest hit; the same request with a leading space (different bytes,
// same fingerprint) is a decode-path hit. Both hits must answer with
// the same bytes — those writeJSON or streamResult write for the first
// response marked cached — and move /metrics by exactly one hit, with
// only the repeat counted as a digest hit. A no_cache request is never
// indexed: every send searches.
func TestDigestFrontDifferential(t *testing.T) {
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	gData, err := flexflow.ExportGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	tData, err := flexflow.ExportTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	sData, err := flexflow.ExportStrategy(g, flexflow.DataParallel(g, topo))
	if err != nil {
		t.Fatal(err)
	}
	zoo := `"model":"lenet","scale":16,"gpus":2`
	inline := fmt.Sprintf(`"graph":%s,"topology":%s`, gData, tData)
	cases := []struct {
		name, source, options, extra string
	}{
		{"zoo", zoo, `"max_iters":60`, ""},
		{"inline", inline, `"max_iters":60`, ""},
		{"initial", zoo, `"max_iters":60`, `,"initial":` + string(sData)},
		{"budgeted", zoo, `"budget_ms":5`, ""},
		{"no_cache", zoo, `"max_iters":60`, `,"no_cache":true`},
	}

	s := New(Options{})
	seed := 0
	for _, c := range cases {
		for _, stream := range []bool{false, true} {
			seed++
			body := []byte(fmt.Sprintf(`{%s,"options":{%s,"seed":%d}%s}`, c.source, c.options, seed, c.extra))
			t.Run(fmt.Sprintf("%s/sse=%v", c.name, stream), func(t *testing.T) {
				indexed := s.digests.len()
				if c.name == "no_cache" {
					run := delta{jobs: 1}
					sendAndCount(t, s, body, stream, run)
					sendAndCount(t, s, body, stream, run)
					sendAndCount(t, s, append([]byte(" "), body...), stream, run)
					if n := s.digests.len(); n != indexed {
						t.Fatalf("no_cache requests grew the digest index from %d to %d entries", indexed, n)
					}
					return
				}
				first := sendAndCount(t, s, body, stream, delta{misses: 1, jobs: 1})
				repeat := sendAndCount(t, s, body, stream, delta{hits: 1, digestHits: 1})
				decoded := sendAndCount(t, s, append([]byte(" "), body...), stream, delta{hits: 1})
				if !bytes.Equal(repeat.Body.Bytes(), decoded.Body.Bytes()) {
					t.Fatalf("digest hit answered\n%s\nthe decode path\n%s", repeat.Body, decoded.Body)
				}
				if h := repeat.Header(); h.Get("Content-Type") != decoded.Header().Get("Content-Type") {
					t.Fatalf("content types differ: %q vs %q", h.Get("Content-Type"), decoded.Header().Get("Content-Type"))
				}

				// The hit must be what the server wrote for a hit before
				// it kept pre-encoded bodies: the first response, marked
				// cached, through writeJSON or streamResult.
				raw := first.Body.Bytes()
				if stream {
					raw = resultFrame(t, first.Body.String())
				}
				var resp optimizeResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Cached {
					t.Fatal("first send was answered from the cache")
				}
				resp.Cached = true
				want := httptest.NewRecorder()
				if stream {
					streamResult(want, resp)
				} else {
					writeJSON(want, http.StatusOK, resp)
				}
				if !bytes.Equal(repeat.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("digest hit answered\n%s\nwant\n%s", repeat.Body, want.Body)
				}
			})
		}
	}

	// A budgeted request's fingerprint hashes the installed cost
	// profile: once another is installed, its body's digest must not
	// answer, and the decode path keys it afresh.
	t.Run("cost-profile", func(t *testing.T) {
		body := []byte(fmt.Sprintf(`{%s,"options":{"budget_ms":5,"seed":%d}}`, zoo, seed+1))
		w := sendAndCount(t, s, body, false, delta{misses: 1, jobs: 1})
		var before optimizeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &before); err != nil {
			t.Fatal(err)
		}
		sendAndCount(t, s, body, false, delta{hits: 1, digestHits: 1})

		prof := flexflow.DefaultCostProfile()
		prof.Source = "test"
		prof.Modes[calib.ModeDelta] = calib.Params{BaseNS: 50_000, PerTaskNS: 200}
		prev := flexflow.SetCostProfile(prof)
		defer flexflow.SetCostProfile(prev)

		w = sendAndCount(t, s, body, false, delta{misses: 1, jobs: 1})
		var after optimizeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &after); err != nil {
			t.Fatal(err)
		}
		if after.Fingerprint == before.Fingerprint {
			t.Fatal("a different cost profile left the budgeted fingerprint unchanged")
		}
		sendAndCount(t, s, body, false, delta{hits: 1, digestHits: 1})
	})
}

// TestDigestIndexBounded holds the digest index to the strategy cache's
// bound, and checks that a digest whose fingerprint the cache has
// evicted falls through to the decode path.
func TestDigestIndexBounded(t *testing.T) {
	const size = 2
	s := New(Options{CacheSize: size})
	body := func(seed int, extra string) []byte {
		return []byte(optBody("mcmc", int64(seed), extra))
	}
	check := func() {
		t.Helper()
		if n := s.digests.len(); n > size {
			t.Fatalf("digest index holds %d entries, CacheSize is %d", n, size)
		}
	}
	for seed := 1; seed <= 2*size+1; seed++ {
		sendAndCount(t, s, body(seed, ""), false, delta{misses: 1, jobs: 1})
		check()
		sendAndCount(t, s, body(seed, ""), false, delta{hits: 1, digestHits: 1})
		check()
	}

	// Index a body, then evict its fingerprint from the strategy cache
	// with no_cache searches, which refresh the cache but are not
	// indexed.
	a := body(100, "")
	sendAndCount(t, s, a, false, delta{misses: 1, jobs: 1})
	for seed := 101; seed <= 100+size; seed++ {
		sendAndCount(t, s, body(seed, `,"no_cache":true`), false, delta{jobs: 1})
	}
	if _, ok := s.digests.get(sha256.Sum256(a)); !ok {
		t.Fatal("no_cache requests evicted an indexed digest")
	}
	sendAndCount(t, s, a, false, delta{misses: 1, jobs: 1})
	check()
}

// TestCacheBodyEncodedOnFirstHit keeps the miss path free of the hit
// body's encoding: a search stores its entry unencoded, an SSE hit
// leaves it so, and the first plain-JSON hit encodes it once for every
// later one.
func TestCacheBodyEncodedOnFirstHit(t *testing.T) {
	s := New(Options{})
	body := []byte(optBody("mcmc", 1, ""))
	w := sendAndCount(t, s, body, false, delta{misses: 1, jobs: 1})
	var resp optimizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	e, ok := s.cache.get(resp.Fingerprint)
	if !ok {
		t.Fatal("the search stored no cache entry")
	}
	if e.body != nil {
		t.Fatal("the search encoded the hit body")
	}
	sendAndCount(t, s, body, true, delta{hits: 1, digestHits: 1})
	if e.body != nil {
		t.Fatal("an SSE hit encoded the plain-JSON body")
	}
	hit := sendAndCount(t, s, body, false, delta{hits: 1, digestHits: 1})
	if !bytes.Equal(hit.Body.Bytes(), e.body) {
		t.Fatalf("the first plain hit answered\n%s\nbut stored\n%s", hit.Body, e.body)
	}
}

// TestDigestHitAllocs bounds the allocations of a digest hit on a
// paper-scale inline graph (nmt, a ~57KB body) through ServeHTTP,
// request and recorder included: no decode, ImportGraph, Fingerprint or
// re-encode may creep back onto the hit path.
func TestDigestHitAllocs(t *testing.T) {
	g, err := flexflow.Model("nmt")
	if err != nil {
		t.Fatal(err)
	}
	gData, err := flexflow.ExportGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"graph": json.RawMessage(gData), "gpus": 4,
		"options": map[string]any{"max_iters": 20, "seed": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	sendAndCount(t, s, body, false, delta{misses: 1, jobs: 1})

	before := counters(t, s)["cache_digest_hits_total"]
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { serve(s, body, false) })
	if hits := counters(t, s)["cache_digest_hits_total"] - before; hits != runs+1 {
		t.Fatalf("%g of %d sends were digest hits", hits, runs+1)
	}
	t.Logf("%g allocations per digest hit", allocs)
	if allocs > 64 {
		t.Fatalf("a digest hit allocates %g times per request, want <= 64", allocs)
	}
}

// TestDeviceBound rejects topologies past maxDevices with a 400 before
// building them: a "gpus" node, a "cluster" of "nodes" (each of which,
// unbounded, builds a quadratic link mesh) and an inline topology
// (whose validation builds cubic routes). Topologies at the bound
// decode.
func TestDeviceBound(t *testing.T) {
	s := New(Options{})
	// inline exports a star of n devices: GPUs each linked to one host
	// CPU. A star keeps the accepted case's route build cheap.
	inline := func(n int) string {
		topo := device.NewTopology("star")
		cpu := topo.AddDevice(device.Device{Kind: device.CPU, Name: "cpu", Model: "host", PeakGFLOPS: 600, MemBWGBs: 75})
		for i := 1; i < n; i++ {
			gpu := topo.AddDevice(device.Device{Kind: device.GPU, Name: fmt.Sprintf("gpu%d", i), Model: "P100", PeakGFLOPS: 9300, MemBWGBs: 732, MemGB: 16})
			topo.AddLink(device.PCIe, gpu, cpu, 12, time.Microsecond)
		}
		data, err := flexflow.ExportTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		return `"topology":` + string(data)
	}
	lenet := `{"model":"lenet","scale":16,%s}`
	maxNodes := maxDevices / flexflow.ClusterNodeDevices
	rejected := map[string]string{
		"gpus":    `"gpus":100000`,
		"nodes":   `"cluster":"p100","nodes":100000`,
		"inline":  inline(maxDevices + 1),
		"gpus+1":  fmt.Sprintf(`"gpus":%d`, maxDevices),
		"nodes+1": fmt.Sprintf(`"cluster":"k80","nodes":%d`, maxNodes+1),
	}
	for name, topo := range rejected {
		w := serve(s, []byte(fmt.Sprintf(lenet, topo)), false)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), fmt.Sprintf("%d", maxDevices)) {
			t.Errorf("%s: status %d %s, want a 400 naming the %d-device limit", name, w.Code, w.Body, maxDevices)
		}
	}
	accepted := map[string]string{
		"gpus":   fmt.Sprintf(`"gpus":%d`, maxDevices-1),
		"nodes":  fmt.Sprintf(`"cluster":"p100","nodes":%d`, maxNodes),
		"inline": inline(maxDevices),
	}
	for name, topo := range accepted {
		req, err := s.decodeRequest([]byte(fmt.Sprintf(lenet, topo)))
		if err != nil {
			t.Errorf("%s at the bound: %v", name, err)
			continue
		}
		if n := len(req.prob.Topology.Devices); n > maxDevices {
			t.Errorf("%s: decoded %d devices, limit %d", name, n, maxDevices)
		}
	}
}
