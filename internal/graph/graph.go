// Package graph implements the operator graph G used throughout the
// paper (Section 3.1): each node is an operation (convolution, matrix
// multiplication, ...) and each edge is a tensor produced by one
// operation and consumed by another. The package also owns the per-op
// metadata the rest of the system needs: parallelizable dimensions
// (Table 1), weight accounting, FLOP counts for the performance model,
// and input-region inference for the task-graph builder.
package graph

import (
	"fmt"

	"flexflow/internal/tensor"
)

// Graph is an operator graph. Ops are stored in insertion order, which
// the builder guarantees is a valid topological order (an op may only
// consume previously created ops).
type Graph struct {
	Name string
	Ops  []*Op

	consumers map[int][]*Op // producer op ID -> consumer ops
}

// New creates an empty operator graph.
func New(name string) *Graph {
	return &Graph{Name: name, consumers: make(map[int][]*Op)}
}

// add appends an op, wiring consumer indices. Called by the builder.
func (g *Graph) add(op *Op) *Op {
	op.Layer = -1
	return g.Append(op)
}

// Append adds a fully-constructed op to the graph: it assigns the op's
// ID (insertion order) and wires consumer indices, taking every other
// field verbatim — in particular Layer and WeightElems survive a wire
// round-trip unchanged. It is the entry point for deserializers
// (config.UnmarshalGraph) and hand-assembled graphs; model code should
// prefer the typed builder methods, which derive shapes and weight
// counts. Callers are responsible for running Validate on the finished
// graph.
func (g *Graph) Append(op *Op) *Op {
	op.ID = len(g.Ops)
	g.Ops = append(g.Ops, op)
	for _, in := range op.Inputs {
		g.consumers[in.ID] = append(g.consumers[in.ID], op)
	}
	return op
}

// Op returns the op with the given ID.
func (g *Graph) Op(id int) *Op { return g.Ops[id] }

// NumOps returns the number of operations in the graph.
func (g *Graph) NumOps() int { return len(g.Ops) }

// Consumers returns the ops that consume op's output tensor.
func (g *Graph) Consumers(op *Op) []*Op { return g.consumers[op.ID] }

// ComputeOps returns all non-Input ops in topological order. Input ops
// produce data loaded by the framework and carry no compute cost.
func (g *Graph) ComputeOps() []*Op {
	var out []*Op
	for _, op := range g.Ops {
		if op.Kind != Input {
			out = append(out, op)
		}
	}
	return out
}

// IsLinear reports whether the compute portion of the graph is a simple
// chain (every compute op has at most one compute consumer and at most
// one compute producer). OptCNN (Section 8.2.3) only handles such
// graphs.
func (g *Graph) IsLinear() bool {
	for _, op := range g.Ops {
		if op.Kind == Input {
			continue
		}
		nCompute := 0
		for _, in := range op.Inputs {
			if in.Kind != Input {
				nCompute++
			}
		}
		if nCompute > 1 {
			return false
		}
		nConsumers := 0
		for _, c := range g.Consumers(op) {
			if c.Kind != Input {
				nConsumers++
			}
		}
		if nConsumers > 1 {
			return false
		}
	}
	return true
}

// TotalWeights returns the total number of trainable parameters.
func (g *Graph) TotalWeights() int64 {
	var total int64
	for _, op := range g.Ops {
		total += op.WeightElems
	}
	return total
}

// TotalFLOPs returns the total forward FLOPs of one iteration.
func (g *Graph) TotalFLOPs() int64 {
	var total int64
	for _, op := range g.Ops {
		total += op.ForwardFLOPs(op.Out.FullRegion())
	}
	return total
}

// Validate checks structural invariants of the graph. The builder
// enforces most of them at construction time; Validate exists so that
// hand-assembled graphs and deserialized graphs get the same checks.
func (g *Graph) Validate() error {
	seen := make(map[int]bool, len(g.Ops))
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("graph %q: op %q has ID %d at index %d", g.Name, op.Name, op.ID, i)
		}
		if op.Out.Rank() == 0 {
			return fmt.Errorf("graph %q: op %q has empty output shape", g.Name, op.Name)
		}
		for _, in := range op.Inputs {
			if !seen[in.ID] {
				return fmt.Errorf("graph %q: op %q consumes op %q that does not precede it", g.Name, op.Name, in.Name)
			}
		}
		if op.Kind != Input {
			regions, err := fullInputRegions(op)
			if err != nil {
				return fmt.Errorf("graph %q: op %q: %w", g.Name, op.Name, err)
			}
			if len(regions) != len(op.Inputs) {
				return fmt.Errorf("graph %q: op %q input region count %d != inputs %d", g.Name, op.Name, len(regions), len(op.Inputs))
			}
			for j, r := range regions {
				inShape := op.Inputs[j].Out
				if r.Rank() != inShape.Rank() {
					return fmt.Errorf("graph %q: op %q input %d region rank %d != input rank %d", g.Name, op.Name, j, r.Rank(), inShape.Rank())
				}
				if !inShape.FullRegion().Contains(r) {
					return fmt.Errorf("graph %q: op %q input %d region %v escapes input shape %v", g.Name, op.Name, j, r, inShape)
				}
			}
		}
		seen[op.ID] = true
	}
	return nil
}

// fullInputRegions is InputRegions over op's full output, with a panic
// turned into an error: InputRegions trusts that an op's input count
// and ranks fit its kind, which only a hand-assembled or decoded graph
// can break.
func fullInputRegions(op *Op) (regions []tensor.Region, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("inputs do not fit a %s op: %v", op.Kind, r)
		}
	}()
	return InputRegions(op, op.Out.FullRegion()), nil
}

// String summarizes the graph: name, op and weight counts, FLOPs per
// iteration.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: %d ops, %d weights, %.2f GFLOPs/iter",
		g.Name, len(g.Ops), g.TotalWeights(), float64(g.TotalFLOPs())/1e9)
}

// Dim name constants used consistently by all op constructors so that
// models, configs and reports agree on naming.
const (
	DimSample  = "sample"
	DimChannel = "channel"
	DimHeight  = "height"
	DimWidth   = "width"
	DimLength  = "length"
)

// convenience re-exports so model builders only import graph.
type (
	// Shape aliases tensor.Shape for builder convenience.
	Shape = tensor.Shape
)
