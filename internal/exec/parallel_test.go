package exec

// Partition-parallel operator tests: every operator must be byte-identical
// to its own sequential run at any partition/worker count (aggregation:
// set-equal with identical counts, since group output order is map order).
// Run under -race in CI, so the morsel and hash-partition worker fan-outs
// are exercised for races as well as results. A refresh-level
// partition-count independence test rides on the randomized maintenance
// harness fixture.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
)

// forcePar lowers the sequential-fallback threshold so small test inputs
// exercise the parallel paths, restoring it afterwards.
func forcePar(t *testing.T) {
	t.Helper()
	old := storage.ParMinRows
	storage.ParMinRows = 0
	t.Cleanup(func() { storage.ParMinRows = old })
}

// testPars is the partition sweep every operator equivalence check runs:
// prime and non-prime fan-outs, with fewer workers than partitions and a
// worker per partition.
var testPars = []storage.Par{
	{Partitions: 2, Workers: 1},
	{Partitions: 4, Workers: 4},
	{Partitions: 7, Workers: 3},
}

// randRelOf builds a relation over single-table columns with random small-domain
// rows (lots of duplicate keys, so joins fan out and dedup has work).
func randRelOf(rng *rand.Rand, rel string, cols []string, n int) *storage.Relation {
	schema := make(algebra.Schema, len(cols))
	for i, c := range cols {
		schema[i] = algebra.Col{Rel: rel, Name: c}
	}
	r := storage.NewRelation(schema)
	for i := 0; i < n; i++ {
		t := make(algebra.Tuple, len(cols))
		for j := range t {
			t[j] = algebra.NewInt(int64(rng.Intn(12)))
		}
		r.Insert(t)
	}
	return r
}

func identical(t *testing.T, what string, want, got *storage.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d vs %d rows", what, want.Len(), got.Len())
	}
	for i, tu := range want.Rows() {
		if !tu.Equal(got.Rows()[i]) {
			t.Fatalf("%s: rows differ at %d", what, i)
		}
	}
}

func TestParallelOperatorsByteIdentical(t *testing.T) {
	forcePar(t)
	seq := storage.Par{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRelOf(rng, "l", []string{"k", "v"}, 120+rng.Intn(120))
		r := randRelOf(rng, "r", []string{"k", "w"}, 100+rng.Intn(150))
		lr := randRelOf(rng, "l", []string{"k", "v"}, 80)

		filt := algebra.And(algebra.CmpConst("l.k", algebra.LT, algebra.NewInt(8)))
		proj := algebra.Schema{{Rel: "l", Name: "v"}, {Rel: "l", Name: "k"}}
		joinEq := algebra.And(algebra.Eq("l.k", "r.k"))
		joinRes := algebra.And(algebra.Eq("l.k", "r.k"),
			algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
		cross := algebra.And(algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
		lrSchema := l.Schema().Concat(r.Schema())

		for _, par := range testPars {
			identical(t, "select", execSelect(l, filt, proj, seq), execSelect(l, filt, proj, par))
			identical(t, "project", projectTo(l, proj), projectToP(l, proj, par))
			identical(t, "join", execJoinSized(l, r, joinEq, lrSchema, seq), execJoinSized(l, r, joinEq, lrSchema, par))
			identical(t, "join+residual", execJoinSized(l, r, joinRes, proj, seq), execJoinSized(l, r, joinRes, proj, par))
			identical(t, "nested loop", execJoinSized(l, r, cross, lrSchema, seq), execJoinSized(l, r, cross, lrSchema, par))
			identical(t, "dedup", execDedup(l.Clone(), l.Schema(), seq), execDedup(l.Clone(), l.Schema(), par))
			identical(t, "minus", execMinus(l.Clone(), lr, l.Schema(), seq), execMinus(l.Clone(), lr, l.Schema(), par))
			identical(t, "union", execUnion(l, lr, l.Schema(), seq), execUnion(l, lr, l.Schema(), par))
		}
	}
}

// TestBroadcastJoinByteIdentical covers the delta-join shape: a small build
// side shared by every morsel worker scanning a large probe side, in both
// input orders.
func TestBroadcastJoinByteIdentical(t *testing.T) {
	forcePar(t)
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRelOf(rng, "l", []string{"k", "v"}, 60+rng.Intn(80))
		r := randRelOf(rng, "r", []string{"k", "w"}, 200+rng.Intn(200))
		joinEq := algebra.And(algebra.Eq("l.k", "r.k"))
		joinRes := algebra.And(algebra.Eq("l.k", "r.k"),
			algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
		flip := algebra.And(algebra.Eq("r.k", "l.k"))
		lrSchema, rlSchema := l.Schema().Concat(r.Schema()), r.Schema().Concat(l.Schema())
		for _, par := range testPars {
			identical(t, "broadcast", join(l, r, joinEq), execJoinSized(l, r, joinEq, lrSchema, par))
			identical(t, "broadcast+residual", join(l, r, joinRes), execJoinSized(l, r, joinRes, lrSchema, par))
			identical(t, "broadcast-flip", join(r, l, flip), execJoinSized(r, l, flip, rlSchema, par))
		}
	}
}

// TestParallelHashJoinBuildSideRule: a size-oriented join builds on the
// smaller input (left on ties) — the emit order depends on which side
// builds — at every partition count.
func TestParallelHashJoinBuildSideRule(t *testing.T) {
	forcePar(t)
	rng := rand.New(rand.NewSource(42))
	small := randRelOf(rng, "l", []string{"k", "v"}, 40)
	big := randRelOf(rng, "r", []string{"k", "w"}, 400)
	pred := algebra.And(algebra.Eq("l.k", "r.k"))
	flip := algebra.And(algebra.Eq("r.k", "l.k"))
	sbSchema, bsSchema := small.Schema().Concat(big.Schema()), big.Schema().Concat(small.Schema())
	for _, par := range append([]storage.Par{{}}, testPars...) {
		identical(t, "small⋈big", hashJoinB(small, big, pred, true, sbSchema, storage.Par{}),
			execJoinSized(small, big, pred, sbSchema, par))
		identical(t, "big⋈small", hashJoinB(big, small, flip, false, bsSchema, storage.Par{}),
			execJoinSized(big, small, flip, bsSchema, par))
	}
	// The orientation is observable: building on the big side emits the
	// same rows in a different order.
	a := hashJoinB(small, big, pred, true, sbSchema, storage.Par{})
	b := hashJoinB(small, big, pred, false, sbSchema, storage.Par{})
	if !storage.EqualMultiset(a, b) {
		t.Fatalf("orientations disagree as multisets")
	}
	same := true
	for i := range a.Rows() {
		same = same && a.Rows()[i].Equal(b.Rows()[i])
	}
	if same {
		t.Fatalf("orientation left the row order unchanged; the build-side check is vacuous")
	}
}

func TestParallelAggregateSetEqual(t *testing.T) {
	forcePar(t)
	rng := rand.New(rand.NewSource(5))
	in := randRelOf(rng, "l", []string{"k", "v"}, 300)
	op := &dag.Op{
		Kind:    dag.OpAggregate,
		GroupBy: []algebra.ColRef{algebra.C("l.k")},
		Aggs: []algebra.AggSpec{
			{Func: algebra.Count},
			{Func: algebra.Sum, Col: algebra.C("l.v")},
			{Func: algebra.Min, Col: algebra.C("l.v")},
			{Func: algebra.Max, Col: algebra.C("l.v")},
		},
	}
	out := algebra.Schema{
		{Rel: "l", Name: "k"}, {Rel: "", Name: "count"},
		{Rel: "", Name: "sum_v"}, {Rel: "", Name: "min_v"}, {Rel: "", Name: "max_v"},
	}
	seq := NewAggTable(in.Schema(), op.GroupBy, op.Aggs, out)
	seq.Absorb(in, 1)
	want := seq.Rows()
	for _, par := range append([]storage.Par{{}}, testPars...) {
		got := execAgg(in, op, out, par, 16)
		if !storage.EqualMultiset(want, got) {
			t.Fatalf("partitions=%d: aggregate diverged as multiset (%d vs %d rows)",
				par.Partitions, want.Len(), got.Len())
		}
	}
	// The merged table must keep absorbing deltas exactly like a
	// sequentially built one (it becomes the maintained aggregate state).
	at := buildAggTableB(in, op.GroupBy, op.Aggs, out, storage.Par{Partitions: 4, Workers: 4}, 0)
	delta := randRelOf(rng, "l", []string{"k", "v"}, 50)
	at.Absorb(delta, 1)
	seq.Absorb(delta, 1)
	if !storage.EqualMultiset(seq.Rows(), at.Rows()) {
		t.Fatalf("merged AggTable diverged from sequential after absorbing a delta")
	}
}

// TestRefreshPartitionCountIndependence is the refresh-level golden test:
// the same workload refreshed at partitions ∈ {1, 4, 7} must leave the
// maintained (join-only, so order-deterministic) result byte-identical and
// exact against recomputation at every count.
func TestRefreshPartitionCountIndependence(t *testing.T) {
	forcePar(t)
	run := func(partitions int) *storage.Relation {
		f := newFixture(77)
		view := algebra.NewSelect(
			algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(80))),
			ordersCustomer(f.cat))
		h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, view)
		h.ex.Par = storage.Par{Partitions: partitions, Workers: partitions}
		var nextKey int64 = 10000
		for c := 0; c < 3; c++ {
			f.logUpdates("orders", 20, &nextKey)
			f.logUpdates("customer", 8, &nextKey)
			h.mt.Refresh()
		}
		h.checkViews(t)
		return h.ex.Mat[h.roots[0].ID]
	}
	base := run(1)
	for _, p := range []int{4, 7} {
		identical(t, "refresh@partitions", base, run(p))
	}
}
