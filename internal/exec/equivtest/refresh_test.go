package equivtest

// Refresh-level equivalence: a full incremental-maintenance run (task-graph
// differentials, delta folds, merges) must produce the same maintained
// results at one, four and seven partitions, and those results must equal a
// from-scratch recomputation by the reference evaluator. Each configuration
// rebuilds the same deterministic database, logs the same update batches,
// and refreshes; the checks run after every cycle.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/storage"
)

// refreshFixture is one independently constructed engine stack over the
// deterministic orders/customer database.
type refreshFixture struct {
	db    *storage.Database
	ex    *exec.Executor
	mt    *exec.Maintainer
	roots []*dag.Equiv // [0] join view (byte-identity), [1] aggregate view
}

func newRefreshFixture(par storage.Par, workers int) *refreshFixture {
	cat := catalog.New()
	db := storage.NewDatabase()
	customer := &catalog.Table{Name: "customer", Columns: []catalog.Column{
		{Name: "c_key", Type: catalog.Int, Width: 8},
		{Name: "c_nation", Type: catalog.Int, Width: 8},
		{Name: "c_acct", Type: catalog.Float, Width: 8},
	}, PrimaryKey: []string{"c_key"}, Stats: catalog.TableStats{Rows: 60}}
	orders := &catalog.Table{Name: "orders", Columns: []catalog.Column{
		{Name: "o_key", Type: catalog.Int, Width: 8},
		{Name: "o_cust", Type: catalog.Int, Width: 8},
		{Name: "o_price", Type: catalog.Float, Width: 8},
	}, PrimaryKey: []string{"o_key"}, Stats: catalog.TableStats{Rows: 300}}
	cat.AddTable(customer)
	cat.AddTable(orders)
	db.Create("customer", algebra.TableSchema(customer, "customer"))
	db.Create("orders", algebra.TableSchema(orders, "orders"))
	for i := int64(1); i <= 60; i++ {
		db.MustRelation("customer").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%7), algebra.NewFloat(float64(i % 30))})
	}
	for i := int64(1); i <= 300; i++ {
		db.MustRelation("orders").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%60), algebra.NewFloat(float64(i % 100))})
	}

	join := algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
		algebra.NewScan(cat, "orders"), algebra.NewScan(cat, "customer"))
	sel := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(70))), join)
	agg := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C("customer.c_nation")},
		[]algebra.AggSpec{
			{Func: algebra.Sum, Col: algebra.C("orders.o_price")},
			{Func: algebra.Count},
		},
		algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
			algebra.NewScan(cat, "orders"), algebra.NewScan(cat, "customer")))

	d := dag.New(cat)
	r1 := d.AddQuery("vjoin", sel)
	r2 := d.AddQuery("vagg", agg)
	u := diff.UniformPercent(cat, []string{"orders", "customer"}, 10)
	en := diff.NewEngine(d, cost.NewModel(cost.Default()), u)
	ms := diff.NewMatState()
	ex := exec.NewExecutor(db)
	ex.Par = par
	for _, r := range []*dag.Equiv{r1, r2} {
		ms.Fulls.Full[r.ID] = true
		ex.MaterializeNode(r)
	}
	ev := en.NewEval(ms)
	ev.Par = par
	mt := exec.NewMaintainer(ex, en, ev)
	mt.Workers = workers
	return &refreshFixture{db: db, ex: ex, mt: mt, roots: []*dag.Equiv{r1, r2}}
}

// logUpdates stages a deterministic batch: n fresh-key inserts plus n/2
// deletes of existing rows, identical across fixtures built from the same
// key counter and seed.
func (f *refreshFixture) logUpdates(table string, n int, nextKey *int64, rng *rand.Rand) {
	rel := f.db.MustRelation(table)
	for j := 0; j < n; j++ {
		*nextKey++
		switch table {
		case "orders":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%60),
				algebra.NewFloat(float64(*nextKey % 100))})
		case "customer":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%7),
				algebra.NewFloat(float64(*nextKey % 30))})
		}
	}
	perm := rng.Perm(rel.Len())
	for j := 0; j < n/2 && j < rel.Len(); j++ {
		f.db.LogDelete(table, rel.Rows()[perm[j]].Clone())
	}
}

// TestRefreshEquivalenceAcrossEnginesAndPartitions compares the engine's
// maintained views across partition counts and against the oracle after
// every refresh cycle: the join view byte-identical across p1/p4/p7, the
// aggregate view (whose row order follows map iteration) as a sorted
// multiset, and both equal to Eval's recomputation as multisets.
func TestRefreshEquivalenceAcrossEnginesAndPartitions(t *testing.T) {
	type run struct {
		name string
		f    *refreshFixture
		rng  *rand.Rand
		nk   int64
	}
	var runs []*run
	for _, m := range Modes() {
		workers := m.Par.Workers
		if workers == 0 {
			workers = 1
		}
		runs = append(runs, &run{name: m.Name, f: newRefreshFixture(m.Par, workers),
			rng: rand.New(rand.NewSource(42)), nk: 10000})
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, r := range runs {
			r.f.logUpdates("orders", 40, &r.nk, r.rng)
			r.f.logUpdates("customer", 10, &r.nk, r.rng)
			r.f.mt.Refresh()
		}
		base := runs[0].f
		for _, r := range runs {
			for i, root := range r.f.roots {
				got := r.f.ex.Mat[root.ID]
				if err := EqualSorted(Eval(r.f.db, root), got); err != nil {
					t.Errorf("cycle %d %s: view %d diverged from recomputation: %v", cycle, r.name, i, err)
				}
			}
			if r == runs[0] {
				continue
			}
			if err := Identical(base.ex.Mat[base.roots[0].ID], r.f.ex.Mat[r.f.roots[0].ID]); err != nil {
				t.Errorf("cycle %d %s: join view differs from %s: %v", cycle, r.name, runs[0].name, err)
			}
			if err := EqualSorted(base.ex.Mat[base.roots[1].ID], r.f.ex.Mat[r.f.roots[1].ID]); err != nil {
				t.Errorf("cycle %d %s: aggregate view differs from %s: %v", cycle, r.name, runs[0].name, err)
			}
		}
	}
}
