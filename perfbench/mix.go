package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexflow"
	"flexflow/internal/server"
)

// flexflowd-mix: an open loop at a fixed rate below saturation over
// loopback HTTP to the flexflowd server stack (internal/server behind a
// net/http server, as cmd/flexflowd runs it, with flexflowd's default
// options), sent by mixConns connections. The seeded mix has three
// classes: repeats of a few model-zoo requests (cache hits), repeats of
// requests carrying an exported paper-scale graph inline (hits that
// still pay for decode, ImportGraph and Fingerprint), and fresh-seed
// small-model searches (misses that fill the cache).
const (
	// mixRate is a quarter of the rate at which this mix saturates the
	// server on the two-core reference box, about 400 requests/s: there
	// the senders fall behind (median lag 32 ms) and a fifth of the
	// requests miss the latency limit, while up to 300 requests/s the
	// median lag stays near 1 ms. At a quarter the server uses about
	// 0.6 of a core and a request rarely queues behind another.
	mixRate  = 100 // requests per second
	mixConns = 2   // sender goroutines and connections: nproc on the reference box
	// mixLimit is the latency limit goodput_rps counts completions within.
	mixLimit = 100 * time.Millisecond
	// mixScale divides batch and unroll steps of the zoo and miss models.
	mixScale = 16
	// Search sizes: MaxIters per chain of zoo/miss and of inline requests.
	mixIters       = 50
	mixInlineIters = 20
)

type reqClass int

const (
	classHit reqClass = iota
	classInline
	classMiss
)

// classShare is the cumulative share of the mix: a third each of hits,
// inline hits and misses. The mix exists to drive the three paths a
// request takes through the server (a cache lookup, graph decode,
// ImportGraph and Fingerprint before the lookup, a search that fills
// the cache), and no trace of real traffic weights one above another.
var classShare = [...]float64{1.0 / 3, 2.0 / 3, 1}

var classSpan = [...]string{"flexflowd.hit", "flexflowd.inline_hit", "flexflowd.miss"}

// Each class draws its requests from these problems.
var (
	mixZoo = []struct {
		model string
		gpus  int
	}{{"lenet", 4}, {"alexnet", 4}, {"rnntc", 2}, {"nmt", 4}}
	mixInline = []string{"inception-v3", "resnet-101", "nmt"} // paper scale, 4 GPUs
	mixMiss   = []string{"lenet", "alexnet", "rnntc", "rnnlm", "nmt"}
	mixGPUs   = []int{2, 4}
)

// wireRequest and wireResponse are the parts of the POST /v1/optimize
// format (docs/SERVER.md) the mix uses.
type wireRequest struct {
	Model   string          `json:"model,omitempty"`
	Scale   int             `json:"scale,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
	GPUs    int             `json:"gpus"`
	Options struct {
		MaxIters int   `json:"max_iters"`
		Seed     int64 `json:"seed"`
	} `json:"options"`
}

type wireResponse struct {
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
	TimedOut  bool            `json:"timed_out"`
	Iters     int             `json:"iters"`
	SearchNS  int64           `json:"search_time_ns"`
	Strategy  json.RawMessage `json:"strategy"`
}

// problem is one distinct request of the mix: its body and the graph
// and topology its returned strategy must import against.
type problem struct {
	name  string
	class reqClass
	body  []byte
	g     *flexflow.Graph
	topo  *flexflow.Topology
	// want is the strategy a repeat must be answered with: the one its
	// first send returned.
	want json.RawMessage
}

// request is one scheduled send.
type request struct {
	due time.Duration // from the start of the measured phase
	p   *problem
}

// sent is what happened to one request.
type sent struct {
	start, done time.Duration
	resp        wireResponse
	err         error
}

// mixLoad is a running server plus the seeded schedule aimed at it.
type mixLoad struct {
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	url      string
	client   *http.Client

	repeats []*problem // zoo and inline problems, warmed during setup
	sched   []request
	models  map[string]*flexflow.Graph
}

func newProblem(name string, class reqClass, req wireRequest, g *flexflow.Graph) (*problem, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &problem{name: name, class: class, body: body, g: g, topo: flexflow.NewSingleNode(req.GPUs, "P100")}, nil
}

// mixSetup starts a server, builds the seeded schedule and warms the
// cache with one send of every repeated request.
func mixSetup(seed int64, seconds time.Duration) (*mixLoad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &mixLoad{
		srv:      server.New(server.Options{}),
		serveErr: make(chan error, 1),
		url:      "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: mixConns, MaxIdleConnsPerHost: mixConns, DisableCompression: true,
		}},
		models: map[string]*flexflow.Graph{},
	}
	m.hs = &http.Server{Handler: m.srv}
	go func() { m.serveErr <- m.hs.Serve(ln) }()
	if err := m.build(seed, seconds); err != nil {
		m.stop()
		return nil, err
	}
	for _, p := range m.repeats {
		r, err := m.send(p.body)
		if err == nil {
			err = checkFirst(p, r)
		}
		if err != nil {
			m.stop()
			return nil, fmt.Errorf("warming %s: %w", p.name, err)
		}
		p.want = r.Strategy
	}
	return m, nil
}

// model builds a zoo model (scale 0 = paper scale) once per load.
func (m *mixLoad) model(name string, scale int) (*flexflow.Graph, error) {
	key := fmt.Sprintf("%s/%d", name, scale)
	if g, ok := m.models[key]; ok {
		return g, nil
	}
	var g *flexflow.Graph
	var err error
	if scale > 0 {
		g, err = flexflow.ModelScaled(name, scale)
	} else {
		g, err = flexflow.Model(name)
	}
	if err == nil {
		m.models[key] = g
	}
	return g, err
}

// build draws the repeated problems and the schedule from the seed.
func (m *mixLoad) build(seed int64, seconds time.Duration) error {
	rng := rand.New(rand.NewSource(subSeed(seed, streamMix)))
	var zoo, inline []*problem
	for _, z := range mixZoo {
		g, err := m.model(z.model, mixScale)
		if err != nil {
			return err
		}
		req := wireRequest{Model: z.model, Scale: mixScale, GPUs: z.gpus}
		req.Options.MaxIters, req.Options.Seed = mixIters, rng.Int63n(1<<40)+1
		p, err := newProblem(fmt.Sprintf("zoo %s/%d", z.model, z.gpus), classHit, req, g)
		if err != nil {
			return err
		}
		zoo = append(zoo, p)
	}
	for _, name := range mixInline {
		g, err := m.model(name, 0)
		if err != nil {
			return err
		}
		data, err := flexflow.ExportGraph(g)
		if err != nil {
			return err
		}
		req := wireRequest{Graph: data, GPUs: 4}
		req.Options.MaxIters, req.Options.Seed = mixInlineIters, rng.Int63n(1<<40)+1
		p, err := newProblem("inline "+name, classInline, req, g)
		if err != nil {
			return err
		}
		inline = append(inline, p)
	}
	m.repeats = append(zoo, inline...)

	// The schedule's make-up is the same for every seed: slot k of a
	// class goes to the class's problem k (cycling), in the shares of
	// classShare. The seed shuffles the order and draws the fresh seeds;
	// a make-up drawn at random would change from seed to seed how many
	// slow and fast requests a run sends.
	n := int(seconds.Seconds() * mixRate)
	nHit := int(float64(n) * classShare[classHit])
	nInline := int(float64(n)*classShare[classInline]) - nHit
	type slot struct {
		class reqClass
		k     int
	}
	slots := make([]slot, n)
	for i := range slots {
		switch {
		case i < nHit:
			slots[i] = slot{classHit, i}
		case i < nHit+nInline:
			slots[i] = slot{classInline, i - nHit}
		default:
			slots[i] = slot{classMiss, i - nHit - nInline}
		}
	}
	rng.Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	// Fresh seeds count up from a seeded base above every repeat's seed
	// range, so no miss ever repeats a request.
	missSeed := int64(1<<41) + rng.Int63n(1<<40)
	m.sched = make([]request, n)
	for i, sl := range slots {
		r := request{due: time.Duration(float64(i) / mixRate * float64(time.Second))}
		switch sl.class {
		case classHit:
			r.p = zoo[sl.k%len(zoo)]
		case classInline:
			r.p = inline[sl.k%len(inline)]
		default:
			c := sl.k % (len(mixMiss) * len(mixGPUs))
			name, gpus := mixMiss[c/len(mixGPUs)], mixGPUs[c%len(mixGPUs)]
			g, err := m.model(name, mixScale)
			if err != nil {
				return err
			}
			req := wireRequest{Model: name, Scale: mixScale, GPUs: gpus}
			req.Options.MaxIters, req.Options.Seed = mixIters, missSeed+int64(i)
			if r.p, err = newProblem(fmt.Sprintf("miss %s/%d", name, gpus), classMiss, req, g); err != nil {
				return err
			}
		}
		m.sched[i] = r
	}
	return nil
}

// send posts one optimize request and decodes a 200 response.
func (m *mixLoad) send(body []byte) (wireResponse, error) {
	var r wireResponse
	resp, err := m.client.Post(m.url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("decoding response: %w", err)
	}
	return r, nil
}

// checkFirst checks a response that must have run a search: not cached,
// not cut short, with a strategy that imports against its problem.
func checkFirst(p *problem, r wireResponse) error {
	if r.Cached || r.TimedOut {
		return fmt.Errorf("%s: first send answered with cached=%v timed_out=%v", p.name, r.Cached, r.TimedOut)
	}
	if _, err := flexflow.ImportStrategy(r.Strategy, p.g, p.topo); err != nil {
		return fmt.Errorf("%s: returned strategy does not import: %w", p.name, err)
	}
	return nil
}

// run sends the schedule open loop: request i is due at sched[i].due
// after the phase starts, and mixConns senders take requests in order,
// each sending as soon as its request is due. A request waiting for a
// free sender is late; its latency counts from when it was due.
func (m *mixLoad) run(tr *tracer) []sent {
	out := make([]sent, len(m.sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < mixConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(m.sched) {
					return
				}
				r := m.sched[i]
				time.Sleep(time.Until(start.Add(r.due)))
				span := -1
				if tr != nil {
					span = tr.begin(classSpan[r.p.class], -1)
				}
				s := sent{start: time.Since(start)}
				s.resp, s.err = m.send(r.p.body)
				s.done = time.Since(start)
				if tr != nil {
					tr.end(span)
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// serverCounters scrapes GET /metrics.
func (m *mixLoad) serverCounters() (map[string]float64, error) {
	resp, err := m.client.Get(m.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[strings.TrimPrefix(name, "flexflowd_")] = v
	}
	return out, sc.Err()
}

// stop drains and shuts the server down and waits for it to exit.
func (m *mixLoad) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server drain:", err)
	}
	if err := m.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	if err := <-m.serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	m.client.CloseIdleConnections()
}

// mixPhase is the outcome of one measured phase.
type mixPhase struct {
	sent          []sent
	wall, cpu     time.Duration
	heapMB        float64
	before, after map[string]float64
}

func (m *mixLoad) phase(b *bench, tr *tracer) mixPhase {
	var ph mixPhase
	var err error
	if ph.before, err = m.serverCounters(); err != nil {
		b.fail(err)
	}
	heap := watchHeap()
	c0, t0 := cpuTime(), time.Now()
	ph.sent = m.run(tr)
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-c0
	ph.heapMB = heap.medianPeakMB()
	if ph.after, err = m.serverCounters(); err != nil {
		b.fail(err)
	}
	return ph
}

// check records every request as an operation, failing it unless it
// returned 200 with the cache behaviour the mix implies (a repeat is a
// hit answered with the strategy of its first send; a fresh request is
// a miss whose strategy imports against its problem), and checks the
// server's counters moved by exactly what the schedule implies. It
// returns which requests passed.
func (m *mixLoad) check(b *bench, ph mixPhase) []bool {
	ok := make([]bool, len(ph.sent))
	hits, misses := 0, 0
	for i, s := range ph.sent {
		p := m.sched[i].p
		err := s.err
		switch {
		case err != nil:
		case p.class == classMiss:
			misses++
			err = checkFirst(p, s.resp)
		default:
			hits++
			if !s.resp.Cached || !bytes.Equal(s.resp.Strategy, p.want) {
				err = fmt.Errorf("%s: repeat answered with cached=%v and a different strategy=%v",
					p.name, s.resp.Cached, !bytes.Equal(s.resp.Strategy, p.want))
			}
		}
		if err != nil {
			err = fmt.Errorf("request %d: %w", i, err)
		}
		b.op(err)
		ok[i] = err == nil
	}
	delta := func(name string) int { return int(ph.after[name] - ph.before[name]) }
	if delta("cache_hits_total") != hits || delta("cache_misses_total") != misses ||
		delta("jobs_total") != misses || delta("jobs_rejected_total") != 0 {
		b.failf("server counters moved by hits %d misses %d jobs %d rejected %d; the schedule implies hits %d misses %d jobs %d rejected 0",
			delta("cache_hits_total"), delta("cache_misses_total"), delta("jobs_total"), delta("jobs_rejected_total"),
			hits, misses, misses)
	}
	return ok
}

// classLatencies splits the latencies (ms) of the phase's requests by
// class, counted from when each was due (what a client sees) or from
// when it was sent (the server's own time).
func (m *mixLoad) classLatencies(ph mixPhase, fromDue bool) [3][]float64 {
	var out [3][]float64
	for i, s := range ph.sent {
		r := m.sched[i]
		from := s.start
		if fromDue {
			from = r.due
		}
		out[r.p.class] = append(out[r.p.class], msec(s.done-from))
	}
	return out
}

// setupMix runs mixSetup setupRuns times, stopping all but the last server,
// and returns the last with the median set-up time.
func setupMix(b *bench) (*mixLoad, float64) {
	var m *mixLoad
	var err error
	setup := setupMedian(func() {
		if m != nil {
			m.stop()
		}
		m, err = mixSetup(b.seed, b.seconds)
	})
	if err != nil {
		b.op(err)
		return nil, 0
	}
	return m, setup
}

func measureMix(b *bench) {
	m, setup := setupMix(b)
	if m == nil {
		return
	}
	b.set("setup_s", setup)
	ph := m.phase(b, nil)
	m.stop()
	ok := m.check(b, ph)

	var lat []float64
	good := 0
	var rates, speedups []float64
	byClass := m.classLatencies(ph, true)
	type dpKey struct {
		g    *flexflow.Graph
		gpus int
	}
	dp := map[dpKey]time.Duration{}
	for i, s := range ph.sent {
		r := m.sched[i]
		l := s.done - r.due
		lat = append(lat, msec(l))
		if ok[i] && l <= mixLimit {
			good++
		}
		if !ok[i] || r.p.class != classMiss {
			continue
		}
		rates = append(rates, ratio(float64(s.resp.Iters), float64(s.resp.SearchNS)/1e9))
		strat, err := flexflow.ImportStrategy(s.resp.Strategy, r.p.g, r.p.topo)
		if err != nil {
			continue // unreachable: check imported it
		}
		key := dpKey{r.p.g, len(r.p.topo.GPUs())}
		if _, ok := dp[key]; !ok {
			dp[key], _ = flexflow.Simulate(r.p.g, r.p.topo, flexflow.DataParallel(r.p.g, r.p.topo))
		}
		best, _ := flexflow.Simulate(r.p.g, r.p.topo, strat)
		speedups = append(speedups, ratio(float64(dp[key]), float64(best)))
	}
	b.set("wall_s", secs(ph.wall))
	b.set("cpu_s", secs(ph.cpu))
	b.set("peak_heap_mb", ph.heapMB)
	b.set("latency_p50_ms", median(lat))
	b.set("inline_hit_ms_p50", median(byClass[classInline]))
	b.set("miss_ms_p50", median(byClass[classMiss]))
	b.set("goodput_rps", float64(good)/ph.wall.Seconds())
	// A miss that waits for a core behind another request or a host
	// stall runs slower; the upper quartile reads the server's own
	// search speed.
	b.set("proposals_per_s", quantile(rates, 0.75))
	b.set("speedup_vs_dp", geomean(speedups))
}

// traceMix runs the same schedule under the CPU profiler with a span
// per request, splits client latency by request class, reads the
// server's counter deltas, and probes the layers and searches on the
// mix's problems.
func traceMix(b *bench) {
	m, _ := setupMix(b)
	if m == nil {
		return
	}
	tr := newTracer()
	var ph mixPhase
	profileShares(b, func() { ph = m.phase(b, tr) })
	m.stop()
	m.check(b, ph)

	byClass := m.classLatencies(ph, false)
	var lag, lat []float64
	coalesced := 0
	for i, s := range ph.sent {
		r := m.sched[i]
		lag = append(lag, msec(s.start-r.due))
		lat = append(lat, msec(s.done-r.due))
		if s.err == nil && s.resp.Coalesced {
			coalesced++
		}
	}
	delta := func(name string) float64 { return ph.after[name] - ph.before[name] }
	b.set("server.hit_ms_p50", median(byClass[classHit]))
	b.set("server.inline_hit_ms_p50", median(byClass[classInline]))
	b.set("server.miss_ms_p50", median(byClass[classMiss]))
	b.set("server.cache_hit_ratio", ratio(delta("cache_hits_total"), delta("cache_hits_total")+delta("cache_misses_total")))
	b.set("server.jobs", delta("jobs_total"))
	b.set("server.rejected", delta("jobs_rejected_total"))
	b.set("server.coalesced", float64(coalesced))
	b.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	b.set("loadgen.latency_p99_ms", quantile(lat, 0.99))
	b.set("loadgen.sent", float64(len(ph.sent)))

	var cells []cell
	for _, p := range m.repeats {
		cells = append(cells, cell{name: p.name, g: p.g, topo: p.topo, init: flexflow.DataParallel(p.g, p.topo)})
	}
	rng := rand.New(rand.NewSource(subSeed(b.seed, streamProbe)))
	var searches []searchCell
	for _, name := range mixMiss {
		g, err := m.model(name, mixScale)
		if err != nil {
			b.op(err)
			continue
		}
		topo := flexflow.NewSingleNode(4, "P100")
		cells = append(cells, cell{name: "miss " + name, g: g, topo: topo, init: flexflow.DataParallel(g, topo)})
		searches = append(searches, searchCell{name: name, g: g, topo: topo, opts: flexflow.OptimizeOptions{
			MaxIters: mixIters, Seed: rng.Int63n(1<<40) + 1,
		}})
	}
	probeSearches(b, tr, searches)
	probeLayers(b, tr, cells)
	b.bypassed("experiments.")
	finishTrace(b, tr)
}
