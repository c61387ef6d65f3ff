package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"flexflow"
	"flexflow/internal/models"
)

// FuzzDecodeRequest holds the optimize request decoder to two outcomes:
// a clean error (a 400), or a request whose graph, topology and initial
// strategy round-trip through export, and whose fingerprint the
// re-imported problem reproduces. The seeds name every zoo model and
// inline every zoo model's export, so plain `go test` replays them as
// regression cases.
func FuzzDecodeRequest(f *testing.F) {
	topo := flexflow.NewSingleNode(2, "P100")
	topoData, err := flexflow.ExportTopology(topo)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range models.Names() {
		f.Add([]byte(`{"model":"` + name + `","scale":16,"gpus":2,"options":{"max_iters":60,"seed":3,"locality":"measured"}}`))
		g, err := flexflow.ModelScaled(name, 16)
		if err != nil {
			f.Fatal(err)
		}
		gData, err := flexflow.ExportGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		sData, err := flexflow.ExportStrategy(g, flexflow.DataParallel(g, topo))
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{
			"graph":    json.RawMessage(gData),
			"topology": json.RawMessage(topoData),
			"initial":  json.RawMessage(sData),
			"options":  map[string]any{"budget_ms": 5, "timeout_ms": 1000},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"model":"lenet","scale":16,"cluster":"k80","nodes":2,"algorithm":"polish"}`))

	s := New(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		req, err := s.decodeRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		gData, err := flexflow.ExportGraph(req.prob.Graph)
		if err != nil {
			t.Fatalf("decoded graph does not export: %v", err)
		}
		g, err := flexflow.ImportGraph(gData)
		if err != nil {
			t.Fatalf("graph export does not import: %v", err)
		}
		tData, err := flexflow.ExportTopology(req.prob.Topology)
		if err != nil {
			t.Fatalf("decoded topology does not export: %v", err)
		}
		topo, err := flexflow.ImportTopology(tData)
		if err != nil {
			t.Fatalf("topology export does not import: %v", err)
		}
		opts := req.opts
		if opts.Initial != nil {
			sData, err := flexflow.ExportStrategy(req.prob.Graph, opts.Initial)
			if err != nil {
				t.Fatalf("decoded initial strategy does not export: %v", err)
			}
			if opts.Initial, err = flexflow.ImportStrategy(sData, g, topo); err != nil {
				t.Fatalf("initial strategy export does not import: %v", err)
			}
		}
		fp, err := flexflow.Fingerprint(flexflow.Problem{Graph: g, Topology: topo}, req.algorithm, opts)
		if err != nil {
			t.Fatalf("re-imported request does not fingerprint: %v", err)
		}
		if fp != req.fp {
			t.Fatalf("re-imported request fingerprints %s, decoded one %s", fp, req.fp)
		}
	})
}
