package flexflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"flexflow/internal/graph"
	"flexflow/internal/search"
)

// The strategy-cache fingerprint. An optimize request is fully
// determined by (graph, topology, algorithm, the result-affecting
// options, and — for budgeted runs — the cost profile pricing the
// budget): the repo-wide determinism contract (docs/CONCURRENCY.md)
// guarantees the same inputs reproduce the same strategy bit for bit,
// which is what makes a content-addressed strategy cache sound.
// Fingerprint hashes exactly those inputs; the server (internal/server)
// keys its cache on the result. The byte layout below is pinned by
// TestFingerprintStable — changing it invalidates every persisted cache
// key, so the test forces that to be a deliberate, reviewed act.

// FingerprintVersion tags the fingerprint layout. It participates in
// the hash, so bumping it (when the walk below changes shape) migrates
// every cached key at once instead of aliasing old entries. v2 added
// the result-affecting Locality option to the opts line.
const FingerprintVersion = 2

// Fingerprint returns the content-addressed cache key of an optimize
// request: a hex SHA-256 over the graph structure (including every
// op's input-region signature, the same walk the estimator cache
// keys on), the topology, the algorithm name, and the
// result-affecting options. Requests with equal fingerprints produce
// bit-identical strategies, so a cached result can stand in for a
// re-run (the strategy server's cache rests on this).
//
// Deliberately excluded — they never change the resulting strategy:
// Workers (a wall-clock knob; results are pool-size independent),
// OnEvent, and the cost profile when Budget == 0 (the virtual clock
// only gates work when a budget charges it; the half-time stopping
// criterion is scale-invariant). A budgeted request hashes the JSON of
// the profile that will price it: the installed CostProfile, or the
// built-in defaults when none is installed.
func Fingerprint(p Problem, algorithm string, opts OptimizeOptions) (string, error) {
	if p.Graph == nil || p.Topology == nil {
		return "", fmt.Errorf("flexflow: Fingerprint needs a Graph and a Topology")
	}
	h := sha256.New()
	fmt.Fprintf(h, "fingerprint/v%d\n", FingerprintVersion)

	writeGraph(h, p.Graph)
	writeTopology(h, p.Topology)

	fmt.Fprintf(h, "algo %s\n", algorithm)
	// Locality is hashed in normalized form: "" and "uniform" are the
	// same walk by contract, so they must share a cache key. The
	// measured policy's per-op EMA is deliberately NOT an input here —
	// it is per-chain runtime state derived deterministically from the
	// hashed inputs (seed, policy, graph, topology), never supplied by
	// the caller, so two requests with equal fingerprints still evolve
	// identical EMAs and produce the same strategy.
	loc, err := search.ParseLocality(opts.Locality)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(h, "opts iters=%d budget=%d beta=%g seed=%d expert=%t maxdeg=%d maxcand=%d fullsim=%t locality=%s\n",
		opts.MaxIters, int64(opts.Budget), opts.Beta, opts.Seed,
		opts.IncludeExpert, opts.MaxDegree, opts.MaxCandidatesPerOp, opts.FullSim, loc)

	if opts.Initial != nil {
		data, err := ExportStrategy(p.Graph, opts.Initial)
		if err != nil {
			return "", fmt.Errorf("flexflow: fingerprinting Initial: %w", err)
		}
		fmt.Fprintf(h, "initial %d\n", len(data))
		h.Write(data)
	} else {
		io.WriteString(h, "initial none\n")
	}

	if opts.Budget > 0 {
		prof := ActiveCostProfile()
		if prof == nil {
			prof = DefaultCostProfile()
		}
		data, err := json.Marshal(prof)
		if err != nil {
			return "", fmt.Errorf("flexflow: fingerprinting cost profile: %w", err)
		}
		fmt.Fprintf(h, "cost %d\n", len(data))
		h.Write(data)
	} else {
		io.WriteString(h, "cost unbudgeted\n")
	}

	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeGraph folds the graph into the hash: name, then per op every
// field the builders and the simulator consume, plus the op's
// input-region signature over its full output (graph.InputRegionsSig —
// the exact lengths-walk the estimator keys its measurement cache on),
// so two graphs that would simulate differently can never collide on a
// structural coincidence.
func writeGraph(w io.Writer, g *Graph) {
	fmt.Fprintf(w, "graph %q ops=%d\n", g.Name, g.NumOps())
	for _, op := range g.Ops {
		fmt.Fprintf(w, "op %d kind=%d name=%q layer=%d weights=%d inch=%d step=%d concat=%d k=%d,%d s=%d,%d p=%d,%d in=[",
			op.ID, op.Kind, op.Name, op.Layer, op.WeightElems, op.InChannels, op.Step, op.ConcatDim,
			op.KernelH, op.KernelW, op.StrideH, op.StrideW, op.PadH, op.PadW)
		for _, in := range op.Inputs {
			fmt.Fprintf(w, "%d,", in.ID)
		}
		io.WriteString(w, "] out=[")
		for _, d := range op.Out.Dims {
			fmt.Fprintf(w, "%s:%d:%d,", d.Name, d.Size, d.Kind)
		}
		fmt.Fprintf(w, "] sig=%x\n", graph.InputRegionsSig(op, op.Out.FullRegion()))
	}
}

// writeTopology folds the topology into the hash: every device and
// link field that feeds the performance model or the router.
func writeTopology(w io.Writer, t *Topology) {
	fmt.Fprintf(w, "topo %q devices=%d links=%d\n", t.Name, len(t.Devices), len(t.Links))
	for _, d := range t.Devices {
		fmt.Fprintf(w, "dev %d kind=%d name=%q node=%d model=%q gflops=%g membw=%g mem=%g\n",
			d.ID, d.Kind, d.Name, d.Node, d.Model, d.PeakGFLOPS, d.MemBWGBs, d.MemGB)
	}
	for _, l := range t.Links {
		fmt.Fprintf(w, "link %d class=%d a=%d b=%d bw=%g lat=%d\n",
			l.ID, l.Class, l.A, l.B, l.BWGBs, int64(l.Latency))
	}
}
