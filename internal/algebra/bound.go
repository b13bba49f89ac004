package algebra

import "fmt"

// BoundPred is a predicate compiled against one schema: every column
// reference is resolved to a tuple index once, so per-row evaluation does no
// string rendering or schema lookups. Executor operators bind predicates
// once per input and evaluate the bound form in their row loops.
type BoundPred struct {
	cs []boundCmp
	// clauses are compiled disjunctions ANDed with cs (CNF, mirroring
	// Pred.Clauses).
	clauses [][]boundCmp
}

// boundCmp is one compiled conjunct. A side is either a tuple index (idx >=
// 0), a literal (idx == -1), or a compiled arithmetic expression (la/ra
// non-nil, which takes precedence over the index).
type boundCmp struct {
	op     CmpOp
	li, ri int
	lv, rv Value
	la, ra *BoundArith
}

// Bind compiles the predicate against a schema. It panics if a referenced
// column is missing, mirroring ColRef.Eval.
func (p Pred) Bind(s Schema) BoundPred {
	out := BoundPred{cs: make([]boundCmp, len(p.Conjuncts))}
	side := func(e Expr) (int, Value, *BoundArith) {
		switch v := e.(type) {
		case ColRef:
			i := s.IndexOf(v.QName())
			if i < 0 {
				panic(fmt.Sprintf("algebra: column %s not in schema %s", v.QName(), s))
			}
			return i, Value{}, nil
		case Const:
			return -1, v.Val, nil
		case Arith:
			return -1, Value{}, compileArithOperand(v, s)
		default:
			panic(fmt.Sprintf("algebra: cannot bind expression %T", e))
		}
	}
	bind := func(c Cmp) boundCmp {
		bc := boundCmp{op: c.Op}
		bc.li, bc.lv, bc.la = side(c.L)
		bc.ri, bc.rv, bc.ra = side(c.R)
		return bc
	}
	for i, c := range p.Conjuncts {
		out.cs[i] = bind(c)
	}
	if len(p.Clauses) > 0 {
		out.clauses = make([][]boundCmp, len(p.Clauses))
		for i, cl := range p.Clauses {
			bcl := make([]boundCmp, len(cl))
			for j, c := range cl {
				bcl[j] = bind(c)
			}
			out.clauses[i] = bcl
		}
	}
	return out
}

// BoundCmp is the exported image of one compiled conjunct. A side is either
// a tuple index (idx >= 0, the value field ignored), a literal (idx == -1),
// or a compiled arithmetic tree (LArith/RArith non-nil, taking precedence).
// The shard transport serializes bound predicates in this form so workers
// evaluate exactly the predicate the coordinator compiled — re-binding on the
// worker would need the schema, which the wire format deliberately omits.
// The wire format does NOT carry the arith fields; the shard lowering vetoes
// arithmetic predicates (Pred.HasArith) exactly as it vetoes clauses.
type BoundCmp struct {
	Op             CmpOp
	LIdx, RIdx     int
	LVal, RVal     Value
	LArith, RArith *BoundArith
}

// HasClauses reports whether the bound predicate carries disjunctive
// clauses. Cmps covers only the conjuncts, so any consumer flattening a
// BoundPred to []BoundCmp (the shard wire format) must reject clause-bearing
// predicates rather than silently dropping the clauses.
func (p BoundPred) HasClauses() bool { return len(p.clauses) > 0 }

// Clauses returns the compiled disjunctive clauses in BoundCmp form.
func (p BoundPred) Clauses() [][]BoundCmp {
	if len(p.clauses) == 0 {
		return nil
	}
	out := make([][]BoundCmp, len(p.clauses))
	for i, cl := range p.clauses {
		ocl := make([]BoundCmp, len(cl))
		for j, c := range cl {
			ocl[j] = BoundCmp{Op: c.op, LIdx: c.li, RIdx: c.ri, LVal: c.lv, RVal: c.rv,
				LArith: c.la, RArith: c.ra}
		}
		out[i] = ocl
	}
	return out
}

// Cmps returns the compiled conjuncts (the encode side of a serialized
// predicate).
func (p BoundPred) Cmps() []BoundCmp {
	out := make([]BoundCmp, len(p.cs))
	for i, c := range p.cs {
		out[i] = BoundCmp{Op: c.op, LIdx: c.li, RIdx: c.ri, LVal: c.lv, RVal: c.rv,
			LArith: c.la, RArith: c.ra}
	}
	return out
}

// NewBoundPred reassembles a BoundPred from compiled conjuncts (the decode
// side of a serialized predicate, which carries conjuncts only). Eval is
// shared with predicates bound locally, so both sides of the wire agree on
// comparison semantics by construction.
func NewBoundPred(cs []BoundCmp) BoundPred {
	out := BoundPred{cs: make([]boundCmp, len(cs))}
	for i, c := range cs {
		out.cs[i] = boundCmp{op: c.Op, li: c.LIdx, ri: c.RIdx, lv: c.LVal, rv: c.RVal,
			la: c.LArith, ra: c.RArith}
	}
	return out
}

// evalCmp evaluates one compiled comparison against a tuple.
func (c boundCmp) eval(t Tuple) bool {
	l, r := c.lv, c.rv
	if c.la != nil {
		l = NewFloat(c.la.EvalRow(t))
	} else if c.li >= 0 {
		l = t[c.li]
	}
	if c.ra != nil {
		r = NewFloat(c.ra.EvalRow(t))
	} else if c.ri >= 0 {
		r = t[c.ri]
	}
	cmp := l.Compare(r)
	switch c.op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	}
	return false
}

// Eval evaluates the bound predicate against a tuple: every conjunct and at
// least one alternative of every clause.
func (p BoundPred) Eval(t Tuple) bool {
	for _, c := range p.cs {
		if !c.eval(t) {
			return false
		}
	}
	for _, cl := range p.clauses {
		any := false
		for _, c := range cl {
			if c.eval(t) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}
