package config

import (
	"bytes"
	"math/rand"
	"testing"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
)

// Fuzz targets for the wire decoders. Every input must end in one of
// two outcomes: a clean error, or a value that round-trips through
// export (marshal, unmarshal, marshal again gives the same bytes). The
// seeds are exports of the model zoo and the built-in machines, so
// plain `go test` replays them (and any crasher saved under testdata/)
// as regression cases; `go test -fuzz=FuzzUnmarshalGraph
// ./internal/config` explores from there.

// fuzzGraphs is the model zoo at scale 16, the size the wire round-trip
// tests use. The synth-50k and synth-100k scale probes are left out:
// their multi-megabyte exports stall the mutator and hold no op shape
// that synth-2k lacks.
func fuzzGraphs(f *testing.F) []*graph.Graph {
	var gs []*graph.Graph
	for _, name := range models.Names() {
		if name == "synth-50k" || name == "synth-100k" {
			continue
		}
		spec, err := models.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		gs = append(gs, spec.BuildScaled(16))
	}
	return gs
}

// roundTrips asserts that a decoded value exports, and that its export
// decodes and exports again to the same bytes.
func roundTrips[T any](t *testing.T, v T, marshal func(T) ([]byte, error), unmarshal func([]byte) (T, error)) {
	t.Helper()
	out, err := marshal(v)
	if err != nil {
		t.Fatalf("decoded value does not export: %v", err)
	}
	back, err := unmarshal(out)
	if err != nil {
		t.Fatalf("export does not decode: %v\n%s", err, out)
	}
	again, err := marshal(back)
	if err != nil {
		t.Fatalf("re-decoded value does not export: %v", err)
	}
	if !bytes.Equal(out, again) {
		t.Fatalf("export is not a fixed point:\n%s\nvs\n%s", out, again)
	}
}

// FuzzUnmarshalGraph fuzzes the graph wire decoder.
func FuzzUnmarshalGraph(f *testing.F) {
	for _, g := range fuzzGraphs(f) {
		data, err := MarshalGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGraph(data)
		if err != nil {
			return
		}
		roundTrips(t, g, MarshalGraph, UnmarshalGraph)
	})
}

// FuzzUnmarshalTopology fuzzes the topology wire decoder.
func FuzzUnmarshalTopology(f *testing.F) {
	for _, topo := range []*device.Topology{
		device.NewSingleNode(1, "P100"),
		device.NewSingleNode(4, "K80"),
		device.NewP100Cluster(2),
		device.NewK80Cluster(2),
	} {
		data, err := MarshalTopology(topo)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := UnmarshalTopology(data)
		if err != nil {
			return
		}
		roundTrips(t, topo, MarshalTopology, UnmarshalTopology)
	})
}

// FuzzUnmarshalStrategy decodes against a zoo graph picked by the
// first input (modulo the zoo size) on a four-GPU node.
func FuzzUnmarshalStrategy(f *testing.F) {
	gs := fuzzGraphs(f)
	topo := device.NewSingleNode(4, "P100")
	for i, g := range gs {
		for _, s := range []*Strategy{DataParallel(g, topo), Random(g, topo, rand.New(rand.NewSource(int64(i))))} {
			data, err := MarshalStrategy(g, s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), data)
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		g := gs[int(pick)%len(gs)]
		unmarshal := func(b []byte) (*Strategy, error) { return UnmarshalStrategy(b, g, topo) }
		s, err := unmarshal(data)
		if err != nil {
			return
		}
		marshal := func(s *Strategy) ([]byte, error) { return MarshalStrategy(g, s) }
		roundTrips(t, s, marshal, unmarshal)
	})
}
