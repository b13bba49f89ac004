package equivtest

// The reference evaluator: a sequential, row-at-a-time interpreter of an
// equivalence node's natural operation tree over []algebra.Tuple. It shares
// no code with the engine in internal/exec — only the algebra primitives
// (predicate binding, Value comparison, tuple hashing and equality) — and
// reproduces the engine's row order wherever the engine promises one:
// selections and projections keep input order, a join emits in probe order
// with build rows in input order (building on the smaller input, left on
// ties; nested loops with the left input outer when no equi-conjunct
// exists), union concatenates, minus removes the earliest equal rows and
// dedup keeps first occurrences. Aggregate rows come out in first-occurrence
// group order, which the engine does not promise; compare them with
// EqualSorted.

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
)

// rel is an intermediate result: a schema and its rows.
type rel struct {
	schema algebra.Schema
	rows   []algebra.Tuple
}

// Eval computes node e from the base relations of db by its natural
// operation (e.Ops[0], recursively), returning rows in e's schema.
func Eval(db *storage.Database, e *dag.Equiv) *storage.Relation {
	r := eval(db, e)
	out := storage.NewRelation(r.schema)
	out.AppendAll(r.rows)
	return out
}

func eval(db *storage.Database, e *dag.Equiv) rel {
	op := e.Ops[0]
	child := func(i int) rel { return eval(db, op.Children[i]) }
	switch op.Kind {
	case dag.OpScan:
		base := db.MustRelation(op.Table)
		return project(rel{base.Schema(), base.Rows()}, e.Schema)
	case dag.OpSelect:
		in := child(0)
		bp := op.Pred.Bind(in.schema)
		var rows []algebra.Tuple
		for _, t := range in.rows {
			if bp.Eval(t) {
				rows = append(rows, t)
			}
		}
		return project(rel{in.schema, rows}, e.Schema)
	case dag.OpProject:
		return project(child(0), e.Schema)
	case dag.OpJoin:
		return project(join(child(0), child(1), op.Pred), e.Schema)
	case dag.OpAggregate:
		return aggregate(child(0), op.GroupBy, op.Aggs, e.Schema)
	case dag.OpUnion:
		l, r := child(0), child(1)
		rows := append(append([]algebra.Tuple(nil), l.rows...), project(r, l.schema).rows...)
		return project(rel{l.schema, rows}, e.Schema)
	case dag.OpMinus:
		l, r := child(0), child(1)
		remove := multiset{}
		for _, t := range project(r, l.schema).rows {
			remove.add(t)
		}
		var rows []algebra.Tuple
		for _, t := range l.rows {
			if !remove.take(t) {
				rows = append(rows, t)
			}
		}
		return project(rel{l.schema, rows}, e.Schema)
	case dag.OpDedup:
		in := child(0)
		seen := multiset{}
		var rows []algebra.Tuple
		for _, t := range in.rows {
			if seen.add(t) {
				rows = append(rows, t)
			}
		}
		return project(rel{in.schema, rows}, e.Schema)
	}
	panic(fmt.Sprintf("equivtest: no reference for %s", op.Kind))
}

// project reorders/subsets columns by qualified name.
func project(in rel, target algebra.Schema) rel {
	idx := make([]int, len(target))
	for i, c := range target {
		if idx[i] = in.schema.IndexOf(c.QName()); idx[i] < 0 {
			panic("equivtest: column " + c.QName() + " missing from " + in.schema.String())
		}
	}
	rows := make([]algebra.Tuple, len(in.rows))
	for k, t := range in.rows {
		row := make(algebra.Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		rows[k] = row
	}
	return rel{target, rows}
}

// join evaluates l ⋈ r into the l++r layout. Column-equals-column conjuncts
// spanning the two inputs are hash keys (matched with Value.Equal); every
// other conjunct and clause is evaluated over the concatenated row.
func join(l, r rel, pred algebra.Pred) rel {
	out := l.schema.Concat(r.schema)
	var lk, rk []int
	var residual []algebra.Cmp
	for _, c := range pred.Conjuncts {
		if li, ri, ok := equiCols(c, l.schema, r.schema); ok {
			lk, rk = append(lk, li), append(rk, ri)
			continue
		}
		residual = append(residual, c)
	}
	res := algebra.Pred{Conjuncts: residual, Clauses: pred.Clauses}.Bind(out)
	var rows []algebra.Tuple
	emit := func(lt, rt algebra.Tuple) {
		row := append(append(make(algebra.Tuple, 0, len(out)), lt...), rt...)
		if res.Eval(row) {
			rows = append(rows, row)
		}
	}
	switch {
	case len(lk) == 0:
		for _, lt := range l.rows {
			for _, rt := range r.rows {
				emit(lt, rt)
			}
		}
	case len(r.rows) < len(l.rows): // build r, probe with l
		buckets := index(r.rows, rk)
		for _, lt := range l.rows {
			for _, rt := range buckets[lt.HashCols(lk)] {
				if algebra.EqualOn(lt, lk, rt, rk) {
					emit(lt, rt)
				}
			}
		}
	default: // build l, probe with r
		buckets := index(l.rows, lk)
		for _, rt := range r.rows {
			for _, lt := range buckets[rt.HashCols(rk)] {
				if algebra.EqualOn(rt, rk, lt, lk) {
					emit(lt, rt)
				}
			}
		}
	}
	return rel{out, rows}
}

// equiCols resolves a conjunct of the form lcol = rcol (either way round)
// to a column of each input.
func equiCols(c algebra.Cmp, ls, rs algebra.Schema) (li, ri int, ok bool) {
	a, aok := c.L.(algebra.ColRef)
	b, bok := c.R.(algebra.ColRef)
	if c.Op != algebra.EQ || !aok || !bok {
		return 0, 0, false
	}
	if li, ri = ls.IndexOf(a.QName()), rs.IndexOf(b.QName()); li >= 0 && ri >= 0 {
		return li, ri, true
	}
	if li, ri = ls.IndexOf(b.QName()), rs.IndexOf(a.QName()); li >= 0 && ri >= 0 {
		return li, ri, true
	}
	return 0, 0, false
}

// index buckets rows by their key-column hash, keeping input order.
func index(rows []algebra.Tuple, cols []int) map[uint64][]algebra.Tuple {
	m := make(map[uint64][]algebra.Tuple)
	for _, t := range rows {
		h := t.HashCols(cols)
		m[h] = append(m[h], t)
	}
	return m
}

// aggregate groups by the group-by columns (Value.Equal) and emits, per
// group in first-occurrence order, the key values followed by one value per
// spec: COUNT as Int, SUM/AVG/MIN/MAX as Float over AsFloat inputs.
func aggregate(in rel, groupBy []algebra.ColRef, specs []algebra.AggSpec, target algebra.Schema) rel {
	gcols := make([]int, len(groupBy))
	for i, g := range groupBy {
		gcols[i] = in.schema.IndexOf(g.QName())
	}
	type group struct {
		first         algebra.Tuple // the group's first input row
		n             int64
		sum, min, max []float64
	}
	var groups []*group
	byKey := make(map[uint64][]*group)
	for _, t := range in.rows {
		h := t.HashCols(gcols)
		var g *group
		for _, c := range byKey[h] {
			if algebra.EqualOn(c.first, gcols, t, gcols) {
				g = c
				break
			}
		}
		if g == nil {
			g = &group{first: t, sum: make([]float64, len(specs)),
				min: make([]float64, len(specs)), max: make([]float64, len(specs))}
			for s := range specs {
				g.min[s], g.max[s] = math.Inf(1), math.Inf(-1)
			}
			byKey[h] = append(byKey[h], g)
			groups = append(groups, g)
		}
		g.n++
		for s, spec := range specs {
			if spec.Func == algebra.Count {
				continue
			}
			v := t[in.schema.IndexOf(spec.Col.QName())].AsFloat()
			g.sum[s] += v
			if v < g.min[s] {
				g.min[s] = v
			}
			if v > g.max[s] {
				g.max[s] = v
			}
		}
	}
	rows := make([]algebra.Tuple, len(groups))
	for k, g := range groups {
		var row algebra.Tuple
		for _, j := range gcols {
			row = append(row, g.first[j])
		}
		for s, spec := range specs {
			switch spec.Func {
			case algebra.Count:
				row = append(row, algebra.NewInt(g.n))
			case algebra.Sum:
				row = append(row, algebra.NewFloat(g.sum[s]))
			case algebra.Avg:
				row = append(row, algebra.NewFloat(g.sum[s]/float64(g.n)))
			case algebra.Min:
				row = append(row, algebra.NewFloat(g.min[s]))
			case algebra.Max:
				row = append(row, algebra.NewFloat(g.max[s]))
			}
		}
		rows[k] = row
	}
	return rel{target, rows}
}

// multiset counts tuples up to Value.Equal.
type multiset map[uint64][]*counted

type counted struct {
	t algebra.Tuple
	n int
}

func (m multiset) find(t algebra.Tuple) *counted {
	for _, c := range m[t.Hash()] {
		if c.t.Equal(t) {
			return c
		}
	}
	return nil
}

// add counts one more copy of t, reporting whether it is the first.
func (m multiset) add(t algebra.Tuple) bool {
	if c := m.find(t); c != nil {
		c.n++
		return false
	}
	h := t.Hash()
	m[h] = append(m[h], &counted{t: t, n: 1})
	return true
}

// take removes one copy of t, reporting whether there was one.
func (m multiset) take(t algebra.Tuple) bool {
	c := m.find(t)
	if c == nil || c.n == 0 {
		return false
	}
	c.n--
	return true
}
