// Package dataflow defines the logical dataflow DAG: PACT-style operator
// contracts (Map, Reduce, Match, Cross, CoGroup, InnerCoGroup — §3 of the
// paper), data sources and sinks, key selectors per input, and the
// annotations the optimizer consumes (size estimates, key-constant output
// contracts).
//
// A Plan is a pure description; execution strategies (shipping and local
// strategies) are chosen by the optimizer and realized by the runtime.
package dataflow

import (
	"fmt"

	"repro/internal/record"
)

// Emitter receives records produced by user-defined functions.
type Emitter interface {
	Emit(record.Record)
}

// Contract enumerates the second-order functions of the PACT model plus
// the special node kinds used by iterations.
type Contract int

// The operator contracts.
const (
	// Source supplies records (static data or a generator).
	Source Contract = iota
	// Sink collects records as a job result.
	Sink
	// MapOp processes every record independently (record-at-a-time).
	MapOp
	// ReduceOp processes all records sharing a key as a group.
	ReduceOp
	// MatchOp joins pairs of records from two inputs with equal keys
	// (an equi-join; record-at-a-time per pair).
	MatchOp
	// CrossOp pairs every record of input 0 with every record of input 1.
	CrossOp
	// CoGroupOp groups all records of both inputs per key value.
	CoGroupOp
	// InnerCoGroupOp is CoGroup restricted to keys present on both sides
	// (§5.1, footnote 5).
	InnerCoGroupOp
	// UnionOp concatenates its inputs.
	UnionOp

	// IterationInput is a placeholder source whose records are supplied by
	// an enclosing iteration driver each pass: the partial solution I of a
	// bulk iteration, or the working set W of an incremental iteration.
	IterationInput
	// SolutionJoin is the stateful record-at-a-time operator of §5.3: it
	// probes the solution-set index with each input record's key and calls
	// the UDF with the matching solution entry (the Match-variant of the
	// Connected Components update).
	SolutionJoin
	// SolutionCoGroup is the stateful group-at-a-time operator: all input
	// records with one key are grouped and joined against the solution
	// entry (the InnerCoGroup-variant).
	SolutionCoGroup
)

// String names the contract.
func (c Contract) String() string {
	switch c {
	case Source:
		return "Source"
	case Sink:
		return "Sink"
	case MapOp:
		return "Map"
	case ReduceOp:
		return "Reduce"
	case MatchOp:
		return "Match"
	case CrossOp:
		return "Cross"
	case CoGroupOp:
		return "CoGroup"
	case InnerCoGroupOp:
		return "InnerCoGroup"
	case UnionOp:
		return "Union"
	case IterationInput:
		return "IterationInput"
	case SolutionJoin:
		return "SolutionJoin"
	case SolutionCoGroup:
		return "SolutionCoGroup"
	}
	return fmt.Sprintf("Contract(%d)", int(c))
}

// User-defined function signatures, one per contract.
type (
	// MapFn maps one record to zero or more records.
	MapFn func(r record.Record, out Emitter)
	// ReduceFn folds one key group.
	ReduceFn func(key int64, group []record.Record, out Emitter)
	// MatchFn handles one joined pair.
	MatchFn func(left, right record.Record, out Emitter)
	// CrossFn handles one cartesian pair.
	CrossFn func(left, right record.Record, out Emitter)
	// CoGroupFn handles the two groups of one key (either may be empty for
	// CoGroup; both are non-empty for InnerCoGroup).
	CoGroupFn func(key int64, left, right []record.Record, out Emitter)
	// SolutionJoinFn handles one working-set record with the solution
	// entry under the same key; found is false if no entry exists.
	SolutionJoinFn func(w record.Record, s record.Record, found bool, out Emitter)
	// SolutionCoGroupFn handles all working-set records of one key with
	// the solution entry under that key.
	SolutionCoGroupFn func(key int64, ws []record.Record, s record.Record, found bool, out Emitter)
)

// Node is one vertex of the logical DAG.
type Node struct {
	ID       int
	Name     string
	Contract Contract
	Inputs   []*Node

	// Keys holds the key selector for each input (nil = keyless). For
	// Reduce, Keys[0] is the grouping key. For Match/CoGroup, Keys[0] and
	// Keys[1] are the join keys. For SolutionJoin/SolutionCoGroup, Keys[0]
	// selects the solution-set key from the incoming record.
	Keys [2]record.KeyFunc

	// Exactly one of the following is set, matching Contract.
	Map        MapFn
	Reduce     ReduceFn
	Match      MatchFn
	Cross      CrossFn
	CoGroup    CoGroupFn
	SolJoin    SolutionJoinFn
	SolCoGroup SolutionCoGroupFn

	// Data backs a Source with static records.
	Data []record.Record

	// Combinable marks a Reduce whose UDF is associative/commutative so a
	// pre-aggregation (combiner) may run before the shuffle. The combiner
	// folds pairwise, per key and partition: the first record becomes the
	// accumulator, each later record is folded by calling the combine UDF
	// with the group (accumulator, record) — its one output record is the
	// new accumulator — and when the input ends the UDF is called once
	// more with the accumulator alone, and that call's output is shuffled.
	// A left-to-right sum or min therefore computes exactly what it would
	// over the whole partial group. A call may emit zero or several
	// records; those become the key's pending records, folded with the
	// next arrival and passed to the final call (which is skipped when
	// nothing is pending).
	Combinable bool
	// Combine is the combiner UDF for a Combinable reduce; nil means the
	// Reduce UDF itself is used for partial aggregation.
	Combine ReduceFn

	// Preserves declares, per input, key selectors whose value the UDF
	// carries unchanged from input record to output record — the paper's
	// OutputContracts (§4.3, footnote 3), used for physical-property
	// preservation and the microstep locality check (§5.2). A selector k
	// in Preserves[i] promises k(output) == k(input_i) for every emitted
	// record.
	Preserves [2][]record.KeyFunc

	// EstRecords is the statistics hint for the optimizer: expected output
	// cardinality. Zero means "derive from inputs".
	EstRecords int64

	// plan backreference for validation.
	plan *Plan
}

// Plan is a logical dataflow DAG under construction.
type Plan struct {
	nodes []*Node
	sinks []*Node
}

// NewPlan creates an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Nodes returns all nodes in creation order.
func (p *Plan) Nodes() []*Node { return p.nodes }

// Sinks returns the sink nodes.
func (p *Plan) Sinks() []*Node { return p.sinks }

func (p *Plan) add(n *Node) *Node {
	n.ID = len(p.nodes)
	n.plan = p
	p.nodes = append(p.nodes, n)
	return n
}

// SourceOf adds a static data source.
func (p *Plan) SourceOf(name string, data []record.Record) *Node {
	return p.add(&Node{Name: name, Contract: Source, Data: data, EstRecords: int64(len(data))})
}

// IterationPlaceholder adds an IterationInput placeholder. est hints the
// expected per-pass cardinality for the optimizer.
func (p *Plan) IterationPlaceholder(name string, est int64) *Node {
	return p.add(&Node{Name: name, Contract: IterationInput, EstRecords: est})
}

// MapNode adds a Map operator.
func (p *Plan) MapNode(name string, in *Node, fn MapFn) *Node {
	return p.add(&Node{Name: name, Contract: MapOp, Inputs: []*Node{in}, Map: fn})
}

// ReduceNode adds a Reduce grouping in by key.
func (p *Plan) ReduceNode(name string, in *Node, key record.KeyFunc, fn ReduceFn) *Node {
	return p.add(&Node{Name: name, Contract: ReduceOp, Inputs: []*Node{in}, Keys: [2]record.KeyFunc{key, nil}, Reduce: fn})
}

// MatchNode adds an equi-join of left and right on the given keys.
func (p *Plan) MatchNode(name string, left, right *Node, lk, rk record.KeyFunc, fn MatchFn) *Node {
	return p.add(&Node{Name: name, Contract: MatchOp, Inputs: []*Node{left, right}, Keys: [2]record.KeyFunc{lk, rk}, Match: fn})
}

// CrossNode adds a cartesian product.
func (p *Plan) CrossNode(name string, left, right *Node, fn CrossFn) *Node {
	return p.add(&Node{Name: name, Contract: CrossOp, Inputs: []*Node{left, right}, Cross: fn})
}

// CoGroupNode adds a CoGroup of left and right on the given keys.
func (p *Plan) CoGroupNode(name string, left, right *Node, lk, rk record.KeyFunc, fn CoGroupFn) *Node {
	return p.add(&Node{Name: name, Contract: CoGroupOp, Inputs: []*Node{left, right}, Keys: [2]record.KeyFunc{lk, rk}, CoGroup: fn})
}

// InnerCoGroupNode adds an InnerCoGroup (groups present on both sides only).
func (p *Plan) InnerCoGroupNode(name string, left, right *Node, lk, rk record.KeyFunc, fn CoGroupFn) *Node {
	return p.add(&Node{Name: name, Contract: InnerCoGroupOp, Inputs: []*Node{left, right}, Keys: [2]record.KeyFunc{lk, rk}, CoGroup: fn})
}

// UnionNode concatenates inputs.
func (p *Plan) UnionNode(name string, ins ...*Node) *Node {
	return p.add(&Node{Name: name, Contract: UnionOp, Inputs: ins})
}

// SolutionJoinNode adds the record-at-a-time stateful solution-set join.
func (p *Plan) SolutionJoinNode(name string, in *Node, key record.KeyFunc, fn SolutionJoinFn) *Node {
	return p.add(&Node{Name: name, Contract: SolutionJoin, Inputs: []*Node{in}, Keys: [2]record.KeyFunc{key, nil}, SolJoin: fn})
}

// SolutionCoGroupNode adds the group-at-a-time stateful solution-set join.
func (p *Plan) SolutionCoGroupNode(name string, in *Node, key record.KeyFunc, fn SolutionCoGroupFn) *Node {
	return p.add(&Node{Name: name, Contract: SolutionCoGroup, Inputs: []*Node{in}, Keys: [2]record.KeyFunc{key, nil}, SolCoGroup: fn})
}

// SinkNode marks in as a job output and returns the sink node.
func (p *Plan) SinkNode(name string, in *Node) *Node {
	n := p.add(&Node{Name: name, Contract: Sink, Inputs: []*Node{in}})
	p.sinks = append(p.sinks, n)
	return n
}

// FilterNode is a convenience Map that keeps records matching pred.
func (p *Plan) FilterNode(name string, in *Node, pred func(record.Record) bool) *Node {
	return p.MapNode(name, in, func(r record.Record, out Emitter) {
		if pred(r) {
			out.Emit(r)
		}
	})
}

// arity returns the required number of inputs for a contract.
func arity(c Contract) int {
	switch c {
	case Source, IterationInput:
		return 0
	case Sink, MapOp, ReduceOp, SolutionJoin, SolutionCoGroup:
		return 1
	case MatchOp, CrossOp, CoGroupOp, InnerCoGroupOp:
		return 2
	case UnionOp:
		return -1 // any
	}
	return -1
}

// Validate checks structural well-formedness: arities, key selectors where
// required, UDF presence, and membership of all reachable nodes in this
// plan. The DAG is acyclic by construction (inputs must pre-exist), so no
// cycle check is needed.
func (p *Plan) Validate() error {
	if len(p.sinks) == 0 {
		return fmt.Errorf("dataflow: plan has no sinks")
	}
	for _, n := range p.nodes {
		if want := arity(n.Contract); want >= 0 && len(n.Inputs) != want {
			return fmt.Errorf("dataflow: %s %q has %d inputs, needs %d", n.Contract, n.Name, len(n.Inputs), want)
		}
		for _, in := range n.Inputs {
			if in == nil {
				return fmt.Errorf("dataflow: %s %q has nil input", n.Contract, n.Name)
			}
			if in.plan != p {
				return fmt.Errorf("dataflow: %s %q references node %q from another plan", n.Contract, n.Name, in.Name)
			}
			if in.Contract == Sink {
				return fmt.Errorf("dataflow: %s %q consumes a sink", n.Contract, n.Name)
			}
		}
		switch n.Contract {
		case MapOp:
			if n.Map == nil {
				return missingUDF(n)
			}
		case ReduceOp:
			if n.Reduce == nil {
				return missingUDF(n)
			}
			if n.Keys[0] == nil {
				return missingKey(n, 0)
			}
		case MatchOp:
			if n.Match == nil {
				return missingUDF(n)
			}
			if n.Keys[0] == nil || n.Keys[1] == nil {
				return missingKey(n, 1)
			}
		case CrossOp:
			if n.Cross == nil {
				return missingUDF(n)
			}
		case CoGroupOp, InnerCoGroupOp:
			if n.CoGroup == nil {
				return missingUDF(n)
			}
			if n.Keys[0] == nil || n.Keys[1] == nil {
				return missingKey(n, 1)
			}
		case SolutionJoin:
			if n.SolJoin == nil {
				return missingUDF(n)
			}
			if n.Keys[0] == nil {
				return missingKey(n, 0)
			}
		case SolutionCoGroup:
			if n.SolCoGroup == nil {
				return missingUDF(n)
			}
			if n.Keys[0] == nil {
				return missingKey(n, 0)
			}
		}
	}
	return nil
}

func missingUDF(n *Node) error {
	return fmt.Errorf("dataflow: %s %q has no user function", n.Contract, n.Name)
}

func missingKey(n *Node, idx int) error {
	return fmt.Errorf("dataflow: %s %q missing key selector for input %d", n.Contract, n.Name, idx)
}

// PreservesKey reports whether the UDF of n preserves the key selector
// with identity id from input i (see Preserves).
func (n *Node) PreservesKey(i int, id uintptr) bool {
	if id == 0 || i >= len(n.Preserves) {
		return false
	}
	for _, k := range n.Preserves[i] {
		if record.KeyID(k) == id {
			return true
		}
	}
	return false
}

// Preserve declares preserved key selectors for input i (chainable).
func (n *Node) Preserve(i int, keys ...record.KeyFunc) *Node {
	n.Preserves[i] = append(n.Preserves[i], keys...)
	return n
}

// WithEst sets the optimizer's output-cardinality hint (chainable).
func (n *Node) WithEst(est int64) *Node {
	n.EstRecords = est
	return n
}

// Consumers returns, for each node id, the nodes reading its output.
func (p *Plan) Consumers() map[int][]*Node {
	out := make(map[int][]*Node, len(p.nodes))
	for _, n := range p.nodes {
		for _, in := range n.Inputs {
			out[in.ID] = append(out[in.ID], n)
		}
	}
	return out
}

// RecordAtATime reports whether the contract processes records one at a
// time — the microstep admissibility condition of §5.2 (no group/set-at-a-
// time operations on the dynamic data path).
func (c Contract) RecordAtATime() bool {
	switch c {
	case MapOp, MatchOp, CrossOp, SolutionJoin, UnionOp:
		return true
	}
	return false
}
