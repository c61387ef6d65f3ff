package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"flexflow"
)

// The optimize wire format. Exactly one graph source (model or graph)
// and one topology source (cluster, gpus or topology) must be set; the
// inline graph/topology payloads are the formats of
// flexflow.ExportGraph and ExportTopology. See docs/SERVER.md.

// optimizeRequest is the POST /v1/optimize body.
type optimizeRequest struct {
	// Graph source: a model-zoo name (with an optional down-scale
	// factor; 0 builds the paper-scale instance) or an inline graph.
	Model string          `json:"model,omitempty"`
	Scale int             `json:"scale,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`

	// Topology source: a built-in cluster ("p100" or "k80") with a node
	// count, a single-node GPU count (with an optional device model,
	// default "P100"), or an inline topology.
	Cluster  string          `json:"cluster,omitempty"`
	Nodes    int             `json:"nodes,omitempty"`
	GPUs     int             `json:"gpus,omitempty"`
	GPUModel string          `json:"gpu_model,omitempty"`
	Topology json.RawMessage `json:"topology,omitempty"`

	// Algorithm is the optimizer registry name (default "mcmc").
	Algorithm string `json:"algorithm,omitempty"`
	// Options tune the search; zero values mean the library defaults.
	Options requestOptions `json:"options"`
	// Initial, when present, seeds the search with a strategy in the
	// ExportStrategy format (validated against the request's graph and
	// topology).
	Initial json.RawMessage `json:"initial,omitempty"`
	// NoCache forces a fresh search: the cache is neither consulted nor
	// coalesced onto, though the fresh result still refreshes it.
	NoCache bool `json:"no_cache,omitempty"`
}

// requestOptions is the wire shape of flexflow.OptimizeOptions plus
// the per-request wall-clock deadline. Durations travel as integer
// milliseconds.
type requestOptions struct {
	MaxIters           int     `json:"max_iters,omitempty"`
	BudgetMS           int64   `json:"budget_ms,omitempty"`
	Beta               float64 `json:"beta,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	IncludeExpert      bool    `json:"include_expert,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	MaxDegree          int     `json:"max_degree,omitempty"`
	MaxCandidatesPerOp int     `json:"max_candidates_per_op,omitempty"`
	FullSim            bool    `json:"full_sim,omitempty"`
	Locality           string  `json:"locality,omitempty"`
	TimeoutMS          int64   `json:"timeout_ms,omitempty"`
}

// optimizeResponse is the POST /v1/optimize result body (and the SSE
// "result" event payload).
type optimizeResponse struct {
	// Algorithm echoes the optimizer that produced the strategy.
	Algorithm string `json:"algorithm"`
	// Fingerprint is the request's content-addressed cache key.
	Fingerprint string `json:"fingerprint"`
	// Cached reports the strategy was answered from the cache without
	// running a search; Coalesced that this request shared an identical
	// already-running search instead of starting its own.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// TimedOut marks a best-so-far strategy cut short by the request
	// deadline (never cached).
	TimedOut bool `json:"timed_out,omitempty"`
	// BestCostNS is the simulated per-iteration time of the strategy.
	BestCostNS int64 `json:"best_cost_ns"`
	// Iters and SearchTimeNS report the work the search did.
	Iters        int   `json:"iters"`
	SearchTimeNS int64 `json:"search_time_ns"`
	// Strategy is the winning strategy in the ExportStrategy format.
	Strategy json.RawMessage `json:"strategy"`
}

// request is a decoded, validated optimize request.
type request struct {
	wire      optimizeRequest
	prob      flexflow.Problem
	algorithm string
	opts      flexflow.OptimizeOptions
	timeout   time.Duration
	// fp is the request's cache key (flexflow.Fingerprint).
	fp string
}

// maxRequestBytes bounds an optimize request body; inline graphs for
// the zoo's largest models are well under this.
const maxRequestBytes = 16 << 20

// decodeRequest parses and validates the POST /v1/optimize body into a
// runnable request. All errors are client errors (400).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*request, error) {
	var wire optimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}

	g, err := buildGraph(&wire)
	if err != nil {
		return nil, err
	}
	topo, err := buildTopology(&wire)
	if err != nil {
		return nil, err
	}

	algorithm := wire.Algorithm
	if algorithm == "" {
		algorithm = "mcmc"
	}
	if _, err := flexflow.GetOptimizer(algorithm); err != nil {
		return nil, err
	}

	o := wire.Options
	opts := flexflow.OptimizeOptions{
		MaxIters:           o.MaxIters,
		Budget:             time.Duration(o.BudgetMS) * time.Millisecond,
		Beta:               o.Beta,
		Seed:               o.Seed,
		IncludeExpert:      o.IncludeExpert,
		Workers:            o.Workers,
		MaxDegree:          o.MaxDegree,
		MaxCandidatesPerOp: o.MaxCandidatesPerOp,
		FullSim:            o.FullSim,
		Locality:           o.Locality,
	}
	if len(wire.Initial) > 0 {
		initial, err := flexflow.ImportStrategy(wire.Initial, g, topo)
		if err != nil {
			return nil, fmt.Errorf("initial strategy: %w", err)
		}
		opts.Initial = initial
	}

	timeout := s.opts.DefaultTimeout
	if o.TimeoutMS > 0 {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}

	// Fingerprint validates the locality policy (unset means uniform),
	// so an unknown one is a 400 here rather than a failed search after
	// admission.
	prob := flexflow.Problem{Graph: g, Topology: topo}
	fp, err := flexflow.Fingerprint(prob, algorithm, opts)
	if err != nil {
		return nil, err
	}
	return &request{
		wire:      wire,
		prob:      prob,
		algorithm: algorithm,
		opts:      opts,
		timeout:   timeout,
		fp:        fp,
	}, nil
}

// buildGraph resolves the request's graph source.
func buildGraph(wire *optimizeRequest) (*flexflow.Graph, error) {
	switch {
	case wire.Model != "" && len(wire.Graph) > 0:
		return nil, fmt.Errorf("request names both a model and an inline graph; pick one")
	case wire.Model != "":
		if wire.Scale < 0 {
			return nil, fmt.Errorf("scale must be >= 0, got %d", wire.Scale)
		}
		if wire.Scale > 0 {
			return flexflow.ModelScaled(wire.Model, wire.Scale)
		}
		return flexflow.Model(wire.Model)
	case len(wire.Graph) > 0:
		return flexflow.ImportGraph(wire.Graph)
	default:
		return nil, fmt.Errorf("request needs a graph: set model or graph")
	}
}

// buildTopology resolves the request's topology source.
func buildTopology(wire *optimizeRequest) (*flexflow.Topology, error) {
	sources := 0
	for _, set := range []bool{wire.Cluster != "", wire.GPUs > 0, len(wire.Topology) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("request needs exactly one topology source: cluster, gpus or topology")
	}
	switch {
	case wire.Cluster != "":
		nodes := wire.Nodes
		if nodes <= 0 {
			nodes = 1
		}
		switch wire.Cluster {
		case "p100":
			return flexflow.NewP100Cluster(nodes), nil
		case "k80":
			return flexflow.NewK80Cluster(nodes), nil
		default:
			return nil, fmt.Errorf("unknown cluster %q (have p100, k80)", wire.Cluster)
		}
	case wire.GPUs > 0:
		model := wire.GPUModel
		if model == "" {
			model = "P100"
		}
		return flexflow.NewSingleNode(wire.GPUs, model), nil
	default:
		return flexflow.ImportTopology(wire.Topology)
	}
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON {"error": ...} body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
