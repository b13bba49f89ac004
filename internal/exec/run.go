package exec

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// Executor interprets physical plans against a database and a store of
// materialized results.
type Executor struct {
	DB *storage.Database
	// Mat holds materialized full results by equivalence-node ID.
	Mat map[int]*storage.Relation
	// Agg holds the mergeable state of materialized aggregate results.
	Agg map[int]*AggTable
	// Par configures partition-parallel operator execution (zero value:
	// sequential). Results are byte-identical at any setting for
	// non-aggregate operators and set-equal with identical counts for
	// aggregates; see batch.go. Set it before sharing the executor across
	// goroutines.
	Par storage.Par
	// Sizer, when non-nil, estimates a node's final row count (the catalog-
	// derived sizers of the diff engine); materialization uses it to
	// pre-size aggregation state instead of growing from empty.
	Sizer func(e *dag.Equiv) float64
	// Obs, when non-nil, receives every operator output this executor
	// produces: the node, the optimizer's row estimate for it (PlanNode.Rows)
	// and the actual row count. The feedback store hangs off this hook to
	// accumulate observed cardinalities and estimation error; nil costs one
	// branch per operator.
	Obs func(e *dag.Equiv, est, act float64)
}

// NewExecutor wraps a database.
func NewExecutor(db *storage.Database) *Executor {
	return &Executor{
		DB:  db,
		Mat: make(map[int]*storage.Relation),
		Agg: make(map[int]*AggTable),
	}
}

// Run executes a full-result plan and returns the result in the plan
// equivalence node's schema. With Obs set, every node's actual output
// cardinality is reported against the plan's estimate — including Reuse
// reads, whose stored length is the node's true full cardinality.
func (ex *Executor) Run(p *volcano.PlanNode) *storage.Relation {
	out := ex.runNode(p)
	if ex.Obs != nil {
		ex.Obs(p.E, p.Rows, float64(out.Len()))
	}
	return out
}

func (ex *Executor) runNode(p *volcano.PlanNode) *storage.Relation {
	switch p.Access {
	case volcano.Reuse:
		r := ex.Mat[p.E.ID]
		if r == nil {
			panic(fmt.Sprintf("exec: plan reuses e%d which is not materialized", p.E.ID))
		}
		return r
	case volcano.Probe:
		panic("exec: probe node executed directly (must be handled by its join)")
	}
	op := p.Op
	par := ex.Par
	switch op.Kind {
	case dag.OpScan:
		return projectToP(ex.DB.MustRelation(op.Table), p.E.Schema, par)
	case dag.OpSelect:
		return execSelect(ex.Run(p.Children[0]), op.Pred, p.E.Schema, par)
	case dag.OpProject:
		return projectToP(ex.Run(p.Children[0]), p.E.Schema, par)
	case dag.OpJoin:
		l := ex.Run(p.Children[0])
		var r *storage.Relation
		if p.Algo == volcano.AlgoINL {
			// The probed inner is read from its stored location. The in-memory
			// engine joins it hash-wise; the distinction only matters to the
			// cost model.
			r = ex.stored(p.Children[1].E)
		} else {
			r = ex.Run(p.Children[1])
		}
		return hashJoinB(l, r, op.Pred, BuildLeftFromPlan(p), p.E.Schema, par)
	case dag.OpAggregate:
		return execAgg(ex.Run(p.Children[0]), op, p.E.Schema, par, ex.sizeHint(p.E))
	case dag.OpUnion:
		return execUnion(ex.Run(p.Children[0]), ex.Run(p.Children[1]), p.E.Schema, par)
	case dag.OpMinus:
		return execMinus(ex.Run(p.Children[0]), ex.Run(p.Children[1]), p.E.Schema, par)
	case dag.OpDedup:
		return execDedup(ex.Run(p.Children[0]), p.E.Schema, par)
	default:
		panic("exec: unexpected op kind " + op.Kind.String())
	}
}

// BuildLeftFromPlan decides a plan join's hash-build side from the
// optimizer's row estimates: build on the left child unless the right child
// is estimated strictly smaller (the same tie-break as the size-based rule
// of execJoinSized). Plan-time commitment is deliberate — the shard lowering
// (internal/shard) must pick the identical side without executing either
// input, so it and Run both route through this function.
func BuildLeftFromPlan(p *volcano.PlanNode) bool {
	return !(p.Children[1].Rows < p.Children[0].Rows)
}

// Stored returns the stored image of a plan node the way Run's INL arm reads
// its probed inner: the base relation (projected to the node schema) for
// table leaves, the materialized copy otherwise. The shard lowering uses it
// to execute Probe-access build sides coordinator-side.
func (ex *Executor) Stored(e *dag.Equiv) *storage.Relation { return ex.stored(e) }

// sizeHint estimates a node's final row count via the installed Sizer (0
// without one).
func (ex *Executor) sizeHint(e *dag.Equiv) int {
	if ex.Sizer == nil {
		return 0
	}
	return int(ex.Sizer(e))
}

// stored returns the on-disk image of a node: the base relation for table
// leaves, the materialized copy otherwise.
func (ex *Executor) stored(e *dag.Equiv) *storage.Relation {
	if e.IsTable {
		return projectToP(ex.DB.MustRelation(e.Tables[0]), e.Schema, ex.Par)
	}
	r := ex.Mat[e.ID]
	if r == nil {
		panic(fmt.Sprintf("exec: e%d is not stored", e.ID))
	}
	return r
}
